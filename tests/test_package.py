import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

HEAVY = ("ifk.fca", "ifk.integration", "ifk.diagrams", "ifk.flow", "ifk.logics")


def _modules_loaded_by(*command_lines) -> set[str]:
    """The modules a fresh interpreter loads to run the commands, beyond
    those it held before importing ifk (``site`` may preload some); in
    process, sys.modules is shared with every other test."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from ifk.cli import run\n"
        f"for argv in {list(command_lines)!r}:\n"
        "    status, _ = run(argv)\n"
        "    assert status == 0, argv\n"
        "import json\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(out.stdout))


def test_theory_commands_load_no_colimit_flow_or_lattice_module(tmp_path):
    bundle = tmp_path / "theory.json"
    bundle.write_text(json.dumps(
        {"theories": {"T": {"types": ["a", "b"], "axioms": [{"ant": ["a"], "con": ["b"]}]}}}
    ))
    loaded = _modules_loaded_by(
        ["validate", str(bundle)],
        ["entails", "--theory", "T", "--sequent", "a |- b", str(bundle)],
        ["close", "--theory", "T", str(bundle)],
    )
    assert "ifk.theories" in loaded
    assert loaded.isdisjoint(HEAVY)


def test_lattice_command_does_not_load_integration(tmp_path):
    bundle = tmp_path / "classification.json"
    bundle.write_text(json.dumps(
        {"classifications": {"C": {"instances": ["i"], "types": ["t"], "incidence": [["i", "t"]]}}}
    ))
    loaded = _modules_loaded_by(["lattice", "--classification", "C", str(bundle)])
    assert "ifk.fca" in loaded
    assert "ifk.integration" not in loaded


def test_commands_import_neither_dataclasses_nor_inspect():
    # values get their methods from the value base type: importing
    # dataclasses (and inspect with it) would cost every command start-up
    fixtures = SRC.parent.parent / "tests" / "fixtures"
    classics, vee = str(fixtures / "classics.json"), str(fixtures / "vee.json")
    loaded = _modules_loaded_by(
        ["validate", classics],
        ["entails", "--theory", "classical", "--sequent", "human |- philosopher", classics],
        ["close", "--theory", "classical", classics],
        ["integrate", "--system", "vee", "--delta-bound", "1", vee],
        ["sum", "--system", "solo", classics],
        ["lattice", "--classification", "CLF-A", classics],
    )
    assert {"ifk.theories", "ifk.integration", "ifk.fca"} <= loaded
    assert loaded.isdisjoint({"dataclasses", "inspect"})


def test_lazy_exports_keep_the_public_names():
    import ifk

    assert len(EXPORTED) == 78
    assert sorted(ifk.__all__) == sorted(EXPORTED)
    star: dict = {}
    exec("from ifk import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(EXPORTED)
    assert ifk.fca.lattice is ifk.lattice
    assert ifk.theories.Sequent is ifk.Sequent
    with pytest.raises(AttributeError, match="nope"):
        ifk.nope


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
