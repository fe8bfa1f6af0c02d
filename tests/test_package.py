import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, ring32

SRC = Path(__file__).parent.parent / "src" / "ifk"
README = SRC.parent.parent / "README.md"


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


def test_sources_parse_as_python_3_10():
    # requires-python is 3.10; feature_version is best effort: the parser refuses most,
    # not all, of the syntax newer interpreters added
    root = SRC.parent.parent
    paths = [path for part in ("src", "tests", "perfbench") for path in sorted((root / part).rglob("*.py"))]
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


# the names `from ifk import *` has exported since the package had no __all__
EXPORTED = """
    BundleError CapExceeded Channel Classification ClsDiagram ConceptLattice FlatTheory
    FormalConcept IfkError Infomorphism InformationSystem IntegrationResult
    InverseFlowTheory LanguageDiagram LocalLogic Sequent SequentTheory ShapeGraph
    ValidationResult analogy attribute_concept borrowing_holds bottom_theory
    check_infomorphism check_theory_morphism close colimit_language compose_infomorphisms
    concepts contract derive direct_flow entails entails_by_enumeration expand extent
    flat_closure flat_direct_flow flat_entails flat_inverse_flow identity_infomorphism
    instance_leq integrate intent inverse_flow is_complete is_consistent
    is_consistent_by_enumeration is_monocosmic is_pointwise_consistent is_polycosmic
    is_sound join lattice lattice_dot lift_to_theory_classification logic_direct_image
    logic_inverse_image logic_leq mediating_morphism meet natural_entails natural_logic
    normalize object_concept restriction revise state_satisfies sum_classification
    system_entails system_entails_at system_leq system_verdict theory_leq top_theory
    validate_classification validate_system verify_channel_covers
""".split()


def _fresh(script: str) -> str:
    """The output of ``script`` in a fresh interpreter that imports ifk from the
    source tree; in process, sys.modules is shared with every other test."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return out.stdout


def test_theories_keeps_the_names_the_benchmark_imports_without_loading_closure():
    out = _fresh(
        "import sys\n"
        "import ifk.theories\n"
        "print('ifk.closure' in sys.modules)\n"
        "from ifk.theories import close, satisfying_states\n"
        "import ifk.closure\n"
        "print(close is ifk.closure.close, satisfying_states is ifk.closure.satisfying_states)\n"
        "print(hasattr(ifk.theories, 'theory_leq'))\n"
    )
    assert out.split() == ["False", "True", "True", "False"]


def test_every_name_the_benchmark_reads_from_ifk_resolves():
    # perfbench imports names from the modules that define them, or once defined them;
    # a module split must leave each one where the benchmark reads it
    used = set()
    for path in sorted((SRC.parent.parent / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ifk."):
                used |= {(node.module, alias.name) for alias in node.names}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                  and isinstance(node.value.value, ast.Name) and node.value.value.id == "ifk"):
                used.add((f"ifk.{node.value.attr}", node.attr))  # ifk.<module>.<name>
    assert {("ifk.cli", "run"), ("ifk.integration", "validate_system"), ("ifk.integration", "integrate")} <= used
    missing = [(module, name) for module, name in sorted(used)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


CLASSIFICATIONS_ONLY = {"classifications": {
    "C": {"instances": ["i", "j"], "types": ["s", "t"], "incidence": [["i", "t"], ["j", "s"]]},
}}


def test_bundle_reader_and_writer_load_no_theory_code(tmp_path):
    bundle = tmp_path / "classification.json"
    bundle.write_text(json.dumps(CLASSIFICATIONS_ONLY))
    out = _fresh(
        "import sys\n"
        "from ifk.bundle import canonical_json, parse_bundle\n"
        f"parsed = parse_bundle(open({str(bundle)!r}, encoding='utf-8').read())\n"
        "print(sorted(parsed.classifications))\n"
        "print(canonical_json({'a': [1, True, None, 'x', (2, {'b': False})]}), end='')\n"
        "print('ifk.theories' in sys.modules)\n"
        "try:\n"
        "    canonical_json([set()])\n"
        "except TypeError as exc:\n"
        "    print(exc)\n"
        "print('ifk.theories' in sys.modules)\n"  # a refusal loads no theory code either
    )
    assert out.splitlines() == [
        "['C']",
        *json.dumps({"a": [1, True, None, "x", [2, {"b": False}]]}, indent=2).splitlines(),
        "False",
        "Object of type set is not JSON serializable",
        "False",
    ]


# The ifk modules a command loads, by what its bundle holds: a theory (unpopulated), a
# classification (a structure) and a system of them each load only their own code, and
# only a command that asks a theory a query compiles its engine.
# ifk.cli runs as __main__, as under `python -m ifk.cli`, so it is not among them.
BASE = {"ifk", "ifk.bundle", "ifk.errors", "ifk.masks"}
THEORY = BASE | {"ifk.theories"}
STRUCTURE = BASE | {"ifk.classification"}
SYSTEM = THEORY | {"ifk.systems", "ifk.colimit", "ifk.flow"}
POPULATED = SYSTEM | {"ifk.classification"}
ENGINE = {"ifk.engine"}
DELTAS = ENGINE | {"ifk.integration", "ifk.closure"}

# command line, bundle, exit status, the ifk modules it loads, and a budget for their
# source lines, cli.py's included
LOADS = [
    ("validate", "wide.json", 0, THEORY, 1030),
    ("entails --theory wide --sequent t0|-t1", "wide.json", 0, THEORY | ENGINE, 1240),
    ("close --theory wide", "wide.json", 0, THEORY | {"ifk.closure"}, 1150),
    ("validate", "structure.json", 0, STRUCTURE, 950),
    ("lattice --classification C", "structure.json", 0, STRUCTURE | {"ifk.fca"}, 1140),
    ("lattice --classification C --format dot", "structure.json", 0, STRUCTURE | {"ifk.fca"}, 1140),
    # a system of theories alone: no classification code, the closure code only for deltas
    ("validate", "vee.json", 0, SYSTEM, 1510),
    ("consistency --system vee", "vee.json", 0, SYSTEM | ENGINE, 1720),
    ("integrate --system vee", "vee.json", 0, SYSTEM | DELTAS, 1990),
    # a cyclic shape: the deltas are read off the closure handles, without the kernel
    ("integrate --system ring --delta-bound 2", "ring32.json", 0,
     SYSTEM | ENGINE | {"ifk.integration"}, 1860),
    # a populated system: only sum loads the classification sum
    ("validate", "classics.json", 0, POPULATED, 1650),
    ("entails --theory classical --sequent human|-philosopher", "classics.json", 0, POPULATED | ENGINE, 1860),
    ("close --theory classical", "classics.json", 0, POPULATED | {"ifk.closure"}, 1770),
    ("consistency --system solo", "classics.json", 0, POPULATED | ENGINE, 1860),
    ("integrate --system solo", "classics.json", 0, POPULATED | DELTAS, 2120),
    ("sum --system solo", "classics.json", 0, POPULATED | {"ifk.diagrams"}, 1790),
    ("lattice --classification CLF-A", "classics.json", 0, POPULATED | {"ifk.fca"}, 1840),
    (f"lattice --classification CLF-A --output {os.devnull}", "classics.json", 0, POPULATED | {"ifk.fca"}, 1840),
    # a refusal is worded by argparse, from ifk.usage, before the bundle is read
    ("close", "classics.json", 2, BASE | {"ifk.usage"}, 830),
]

# no command line loads these: argparse words only help, refusals and unusual spellings;
# values need neither dataclasses nor inspect; annotations stay strings (typing) and the
# theory engine's lock is the built-in one (threading); files are opened by the path as
# typed (pathlib); -S keeps `site` from loading any of them first
NEVER = {"argparse", "typing", "threading", "dataclasses", "inspect", "pathlib"}

# runs the command line after it as `python -m ifk.cli` does, with its report discarded,
# and prints the exit status, the source lines of the ifk modules the run added and of
# cli.py, and the modules the run added
CHILD = """\
import os, runpy, sys
before = set(sys.modules)
sys.stdout = open(os.devnull, "w", encoding="utf-8")
try:
    runpy.run_module("ifk.cli", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    added = sorted(set(sys.modules) - before)
    files = [sys.modules[m].__file__ for m in added if m.split(".")[0] == "ifk"]
    files.append(os.path.join(os.path.dirname(sys.modules["ifk"].__file__), "cli.py"))
    lines = sum(len(open(f, encoding="utf-8").readlines()) for f in files)
    print(exit.code, lines, *added, file=sys.__stdout__)
"""


@pytest.mark.parametrize("line, bundle, status, loads, budget", LOADS,
                         ids=[f"{line} {bundle}" for line, bundle, *_ in LOADS])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, line, bundle, status, loads, budget):
    if bundle == "structure.json":
        path = tmp_path / bundle
        path.write_text(json.dumps(CLASSIFICATIONS_ONLY))
    elif bundle == "ring32.json":
        path = ring32(tmp_path)
    else:
        path = FIXTURES / bundle
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", CHILD, *line.split(), str(path)],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    code, lines, *added = done.stdout.split()
    assert int(code) == status
    assert {module for module in added if module.split(".")[0] == "ifk"} == loads
    # without a bytecode cache, as under PYTHONDONTWRITEBYTECODE=1, a child compiles every line
    assert int(lines) <= budget
    # the refusal row loads argparse, which shows that this check can fire
    assert NEVER.intersection(added) == ({"argparse"} if status == 2 else set())


def test_lazy_exports_keep_the_public_names():
    import ifk

    assert len(EXPORTED) == 78
    assert sorted(ifk.__all__) == sorted(EXPORTED)
    star: dict = {}
    exec("from ifk import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(EXPORTED)
    assert ifk.fca.lattice is ifk.lattice
    assert ifk.theories.Sequent is ifk.Sequent
    # each name is the object its module defines, where the module says it is defined
    for name in EXPORTED:
        module = importlib.import_module(f"ifk.{ifk._MODULE_OF[name]}")
        assert getattr(ifk, name) is getattr(module, name) is star[name]
        assert getattr(star[name], "__module__", module.__name__) == module.__name__, name
    with pytest.raises(AttributeError, match="nope"):
        ifk.nope
    assert set(dir(ifk)) >= set(EXPORTED) | ifk._EXPORTS.keys()
    # a submodule read as an attribute before any import of it is loaded then
    out = _fresh("import sys, ifk\nprint('ifk.fca' in sys.modules, ifk.fca is sys.modules['ifk.fca'])\n")
    assert out.split() == ["False", "True"]


def test_readme_example_gives_the_results_its_comments_state():
    section = README.read_text(encoding="utf-8").split("## Library at a glance", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, results = {}, {}
    for node in ast.parse(block).body:  # each bare expression's value, by its source
        code = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            results[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    assert results['intent(clf, "aristotle")'] == {"human", "philosopher"}
    assert results['entails(t, Sequent(frozenset(), {"p", "h"}))'] is False
    assert len(results["concepts(clf)"]) == 4


def test_a_failing_hypothesis_test_is_reported_under_the_repo_settings(tmp_path):
    # every warning is an error, yet the hypothesis plugin's report hook must still run
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
    )
    config = SRC.parent.parent / "pyproject.toml"
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(config), "--rootdir", str(tmp_path),
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert out.returncode == 1, out.stdout[-2000:]
    assert "FAILED test_fails.py::test_fails" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr
