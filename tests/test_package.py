import ast
import importlib
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

HEAVY = ("ifk.fca", "ifk.integration", "ifk.diagrams", "ifk.flow", "ifk.logics")


def _fresh(script: str, flags: tuple = ()) -> str:
    """The output of ``script`` in a fresh interpreter, started with ``flags``, that
    imports ifk from the source tree; in process, sys.modules is shared with every other test."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def _modules_loaded_by(*command_lines, flags: tuple = ()) -> set[str]:
    """The modules a fresh interpreter loads to run the commands, beyond
    those it held before importing ifk (``site`` may preload some)."""
    return set(json.loads(_fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "from ifk.cli import run\n"
        f"for argv in {list(command_lines)!r}:\n"
        "    status, _ = run(argv)\n"
        "    assert status == 0, argv\n"
        "import json\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n",
        flags,
    )))


def _ifk_modules_loaded_by(bundle, commands: dict) -> dict:
    """Per named command, run alone on ``bundle``, the ``ifk`` modules it loads."""
    return {name: {m for m in _modules_loaded_by([*argv, str(bundle)]) if m.split(".")[0] == "ifk"}
            for name, argv in commands.items()}


def test_theory_commands_load_no_colimit_flow_or_lattice_module(tmp_path):
    # a theory without a structure: deciding entailment loads neither the
    # classification module nor the closure kernel, and closing a theory
    # loads the kernel alone
    bundle = tmp_path / "theory.json"
    bundle.write_text(json.dumps(
        {"theories": {"T": {"types": ["a", "b"], "axioms": [{"ant": ["a"], "con": ["b"]}]}}}
    ))
    core = {"ifk", "ifk.cli", "ifk.bundle", "ifk.errors", "ifk.masks", "ifk.theories"}
    loaded = _ifk_modules_loaded_by(bundle, {
        "validate": ["validate"],
        "entails": ["entails", "--theory", "T", "--sequent", "a |- b"],
        "close": ["close", "--theory", "T"],
    })
    assert loaded == {"validate": core, "entails": core, "close": core | {"ifk.closure"}}


def test_system_commands_load_only_the_side_of_the_system_they_run():
    # a system of theories alone flows to its sum through the language colimit:
    # no classification code, no classification sum, and the closure code
    # (integration and the closure kernel) only for integrate's deltas; on a
    # populated system only sum loads the sum; no command loads flat theories
    # or the bundle writer
    fixtures = SRC.parent.parent / "tests" / "fixtures"
    core = {"ifk", "ifk.cli", "ifk.bundle", "ifk.errors", "ifk.masks", "ifk.theories",
            "ifk.systems", "ifk.colimit", "ifk.flow"}
    closure = {"ifk.integration", "ifk.closure"}
    unpopulated = _ifk_modules_loaded_by(fixtures / "vee.json", {
        "validate": ["validate"],
        "consistency": ["consistency", "--system", "vee"],
        "integrate": ["integrate", "--system", "vee"],
    })
    assert unpopulated == {"validate": core, "consistency": core, "integrate": core | closure}
    populated = _ifk_modules_loaded_by(fixtures / "classics.json", {
        "validate": ["validate"],
        "consistency": ["consistency", "--system", "solo"],
        "integrate": ["integrate", "--system", "solo"],
        "sum": ["sum", "--system", "solo"],
    })
    core |= {"ifk.classification"}
    assert populated == {"validate": core, "consistency": core, "integrate": core | closure,
                         "sum": core | {"ifk.diagrams"}}


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


def test_classification_commands_load_no_theory_code(tmp_path):
    # a classification is a structure without a theory: reading one loads
    # neither the theory kernel nor anything built on it
    bundle = tmp_path / "classification.json"
    bundle.write_text(json.dumps(CLASSIFICATIONS_ONLY))
    core = {"ifk", "ifk.cli", "ifk.bundle", "ifk.classification", "ifk.errors", "ifk.masks"}
    loaded = _ifk_modules_loaded_by(bundle, {
        "validate": ["validate"],
        "lattice": ["lattice", "--classification", "C"],
        "lattice --format dot": ["lattice", "--classification", "C", "--format", "dot"],
    })
    assert loaded == {"validate": core, "lattice": core | {"ifk.fca"},
                      "lattice --format dot": core | {"ifk.fca"}}


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


def test_commands_import_neither_typing_nor_threading():
    # annotations stay strings and the compiled theory's lock is the built-in one, so
    # no command loads either; -S keeps ``site`` from loading them first, and -c keeps
    # out what ``runpy`` would import for -m
    fixtures = SRC.parent.parent / "tests" / "fixtures"
    classics, vee, wide = (str(fixtures / name) for name in ("classics.json", "vee.json", "wide.json"))
    loaded = _modules_loaded_by(
        ["validate", wide],
        ["entails", "--theory", "wide", "--sequent", "t0 |- t1", wide],
        ["close", "--theory", "wide", wide],
        ["integrate", "--system", "vee", vee],
        ["consistency", "--system", "vee", vee],
        ["lattice", "--classification", "CLF-A", classics],
        ["sum", "--system", "solo", classics],
        flags=("-S",),
    )
    assert {"ifk.closure", "ifk.integration", "ifk.fca", "ifk.diagrams"} <= loaded
    assert loaded.isdisjoint({"typing", "threading"})


def test_plain_command_lines_never_load_argparse():
    # a plain command line is read off the command table; argparse, about 8 ms
    # of start-up with its parser, is loaded to word a refusal; files are
    # opened by the path as typed, so pathlib is never loaded (``site`` may
    # have loaded it before ifk)
    fixtures = SRC.parent.parent / "tests" / "fixtures"
    classics, vee = str(fixtures / "classics.json"), str(fixtures / "vee.json")
    plain = [
        ["entails", "--theory", "classical", "--sequent", "human |- philosopher", classics],
        ["integrate", "--system", "vee", "--delta-bound", "1", vee],
        ["lattice", "--classification", "CLF-A", "--output", os.devnull, classics],
    ]
    out = _fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "from ifk.cli import main, run\n"
        f"assert [run(argv)[0] for argv in {plain[:2]!r}] == [0, 0]\n"
        f"assert main({plain[2]!r}) == 0\n"
        "print('argparse' in sys.modules, 'pathlib' in set(sys.modules) - before)\n"
        f"assert run(['close', {classics!r}])[0] == 2\n"
        "print('argparse' in sys.modules)\n"
    )
    assert out.split() == ["False", "False", "True"]


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
