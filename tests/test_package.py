import ast
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "ifk"


def test_library_imports_only_the_standard_library():
    # the package declares no runtime dependencies
    modules = sorted(SRC.glob("*.py"))
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # not an import, or relative to ifk
            foreign += [
                (path.name, name)
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"ifk"}
            ]
    assert len(modules) > 5
    assert foreign == []
