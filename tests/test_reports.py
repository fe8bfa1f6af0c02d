"""The canonical report writer: the bytes of ``json.dumps(doc, indent=2,
sort_keys=True)`` plus a newline, for every document and every command."""

import hashlib
import importlib.util
import json
import random
import sys
import tracemalloc
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ifk.cli
from ifk import (
    Classification,
    ConceptLattice,
    Sequent,
    SequentTheory,
    extent,
    lattice,
    lift_to_theory_classification,
    natural_logic,
)
from ifk.bundle import (
    Bundle,
    canonical_json,
    parse_bundle,
    sequent_to_obj,
    theory_to_obj,
)
from ifk.cli import run
from ifk.errors import IfkError
from ifk.flow import InverseFlowTheory
from ifk.integration import integrate
from ifk.serialize import serialize_bundle
from ifk.theories import entails, sequent_key

import support
from conftest import FIXTURES

REPORTS = FIXTURES / "reports"


def stdlib(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# the writer against the standard library

awkward_text = st.text(st.sampled_from('a\xe9 "\\/\x00\x1f\x7f\u2028\ud800\udfff\U000103ff\U0001f600'))
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.text()
    | awkward_text
)
keys = st.text(max_size=4) | awkward_text
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(keys, inner, max_size=4),
    max_leaves=25,
)


@given(documents)
def test_writer_matches_json_dumps(doc):
    assert canonical_json(doc) == stdlib(doc)


@given(documents, st.lists(st.integers() | awkward_text, max_size=3))
def test_writer_renders_a_shared_list_at_each_depth(doc, items):
    # one list object at four depths and twice at one depth
    shared = [doc, items]
    nested = {"a": shared, "b": [shared, {"c": (shared, shared)}], "d": [[[shared]]]}
    assert canonical_json(nested) == stdlib(nested)
    assert canonical_json([items, [items], items]) == stdlib([items, [items], items])


def read_only(doc):
    """``doc`` as the library holds its values: every dict a read-only map, every list a tuple."""
    if isinstance(doc, dict):
        return MappingProxyType({k: read_only(v) for k, v in doc.items()})
    if isinstance(doc, (list, tuple)):
        return tuple(read_only(v) for v in doc)
    return doc


def thawed(doc):
    """The plain twin of a document: read-only maps as dicts, tuples as lists."""
    if isinstance(doc, (dict, MappingProxyType)):
        return {k: thawed(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [thawed(v) for v in doc]
    return doc


@given(documents)
def test_writer_renders_read_only_maps_as_dicts(doc):
    # maps of maps, maps in tuples and tuples in maps, at every depth
    assert canonical_json(read_only(doc)) == stdlib(doc)
    mixed = {"a": read_only(doc), "b": MappingProxyType({"c": [doc, read_only(doc)]})}
    assert canonical_json(mixed) == stdlib(thawed(mixed))


def test_writer_matches_json_dumps_on_edge_values():
    for doc in ([], {}, (), "", 0, -1, 2**100, True, False, None, "\ud800",
                {"": {"": []}}, [[], {}, ()], {"b": 1, "a": [True, None]}):
        assert canonical_json(doc) == stdlib(doc)


def test_writer_refuses_what_reports_never_hold():
    for doc in ({"x": 1.5}, [set()], {1: "a"}, MappingProxyType({1: "a"}), (frozenset(),)):
        with pytest.raises(TypeError):
            canonical_json(doc)


# ---------------------------------------------------------------------------
# every command's report is the standard library's rendering

def _generated_bundles(tmp_path: Path) -> list[Path]:
    """Seeded bundles from the benchmark's generators: a classified star
    system, a zigzag one, a 7-type and a 4-type theory, and a context."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", FIXTURES.parents[1] / "perfbench" / "gen.py"
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = random.Random(0x1F0C)
    star, _ = gen.star(rng, "S", 2, classified={"hub": 3, "place": 4})
    zigzag, _ = gen.zigzag(rng, "Z", 2)
    theories = {}
    for name, n in (("T7", 7), ("T4", 4)):
        types, axioms = gen.random_theory(rng, n, n)
        theories[name] = {"types": types, "axioms": [gen.seq_obj(a, c) for a, c in axioms]}
    other = gen.bundle(classifications={"C": gen.context(rng, 30, 8, 3)}, theories=theories)
    paths = []
    for name, doc in (("star", star), ("zigzag", zigzag), ("other", other)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(path)
    return paths


def _every_command(path: Path):
    """Each command on each named value of a bundle, successes and failures."""
    raw = json.loads(path.read_text())
    p = str(path)
    yield ["validate", p]
    for t, body in sorted(raw.get("theories", {}).items()):
        types = sorted(body.get("types", []))
        if len(types) <= 7:  # an 8-type closure is a 10 MB report; T7 stands for them
            yield ["close", "--theory", t, p]
        yield ["close", "--theory", t, "--cap", "3", p]
        yield ["entails", "--theory", t, "--sequent", ", ".join(types[:2]) + " |- " + ", ".join(types[-1:]), p]
    for c in sorted(raw.get("classifications", {})):
        yield ["lattice", "--classification", c, p]
    for s in sorted(raw.get("systems", {})):
        yield ["sum", "--system", s, p]
        yield ["integrate", "--system", s, "--delta-bound", "1", p]
        yield ["consistency", "--system", s, p]
    yield ["close", "--theory", "ghost", p]


def test_every_report_is_the_stdlib_rendering(tmp_path):
    paths = sorted(FIXTURES.glob("*.json")) + _generated_bundles(tmp_path)
    seen = set()
    for path in paths:
        for argv in _every_command(path):
            status, out = run(argv)
            assert out == stdlib(json.loads(out)), argv
            seen.add((argv[0], status))
        bundle = parse_bundle(path.read_text())
        text = serialize_bundle(bundle)
        assert text == stdlib(json.loads(text))
        assert parse_bundle(text) == bundle
        assert serialize_bundle(parse_bundle(text)) == text
    commands = {"validate", "close", "entails", "lattice", "sum", "integrate", "consistency"}
    assert {command for command, status in seen if status == 0} == commands
    assert ("close", 1) in seen


# ---------------------------------------------------------------------------
# frozen reports, byte for byte

@pytest.mark.parametrize(
    "argv, frozen",
    [
        (["close", "--theory", "classical"], "classics_close_classical.json"),
        (["close", "--theory", "tiny"], "classics_close_tiny.json"),
        (["lattice", "--classification", "CLF-A"], "classics_lattice_CLF-A.json"),
    ],
)
def test_frozen_classics_reports(argv, frozen):
    status, report = run([*argv, str(FIXTURES / "classics.json")])
    assert status == 0
    assert report == (REPORTS / frozen).read_text()


def test_frozen_ring_integrate_report():
    # a six-node ring from support.corpus_system, written by serialize_bundle:
    # not a forest, so integrate reads its deltas off the closure handles
    path = FIXTURES / "ring.json"
    assert not parse_bundle(path.read_text()).systems["ring"].shape._traversal[2]
    status, report = run(["integrate", "--system", "ring", "--delta-bound", "1", str(path)])
    assert status == 0 and any(json.loads(report)["deltas"].values())
    assert report == (REPORTS / "ring_integrate_bound1.json").read_text()


def test_serialize_names_the_same_missing_value_in_every_run():
    # all six ring nodes are classified, and the bundle holds none of their classifications
    ring = parse_bundle((FIXTURES / "ring.json").read_text())
    with pytest.raises(IfkError, match="^classification N0 is not part of the bundle$"):
        serialize_bundle(Bundle(theories=ring.theories, systems=ring.systems))


def test_frozen_wide_closure_report():
    # 60,936 axioms, 10.5 MB: the digest of the report the Sequent-built
    # theories gave, which the mask rendering must repeat byte for byte
    status, report = run(["close", "--theory", "wide", str(FIXTURES / "wide.json")])
    assert status == 0 and report.count('"ant"') == 60936
    digest = hashlib.sha256(report.encode()).hexdigest()
    assert digest == "dfa541583a9ed7ff77186e9ec4f62ce6ec4e6cf722354fb64a4971b10a71f8ea"


# ---------------------------------------------------------------------------
# theories render from their masks

def sorted_sequents(t) -> list[dict]:
    return [sequent_to_obj(a) for a in sorted(t.axioms, key=sequent_key)]


def assert_renders_as_sorted_sequents(t, again) -> None:
    """``canonical_json(theory_to_obj(t))`` lists what sorting the axiom set
    of its twin ``again`` by ``sequent_key`` gives, sides as name lists."""
    doc = json.loads(canonical_json(theory_to_obj(t)))
    assert doc["types"] == sorted(again.types)
    assert doc["axioms"] == sorted_sequents(again)


@pytest.mark.parametrize("n", range(8))  # 8 types: test_frozen_wide_closure_report
def test_theories_render_from_masks_as_from_sequents(n):
    for make in support.kernel_theory_makers(n, n).values():
        assert_renders_as_sorted_sequents(make(), make())
    # parsed theories over 48 types: only the sides present are ranked
    parsed = support.rand_theory(random.Random(n), [f"x{k:02d}" for k in range(48)], 40, 6)
    assert_renders_as_sorted_sequents(parsed, parsed)


def _theory_cases(n: int):
    """Pairs of a theory and its twin: none, ``<|->`` alone, the kernel's
    theories over ``n`` types beside their ``Sequent``-built twins, and a
    theory parsed from a bundle over 48 types."""
    yield SequentTheory(["a", "b"], []), SequentTheory(["a", "b"], [])
    yield SequentTheory([], [Sequent([], [])]), SequentTheory([], [Sequent([], [])])
    for make in support.kernel_theory_makers(n, n).values():
        kernel, built = make(), make()
        yield kernel, SequentTheory(built.types, built.axioms)
    names = [f"x{k:02d}" for k in range(48)]
    t = support.rand_theory(random.Random(n), names, 40, 6)
    text = json.dumps({"theories": {"T": {"types": names, "axioms": sorted_sequents(t)}}})
    yield parse_bundle(text).theories["T"], t


def _nestings(v):
    """``v`` at depths 0, 1 and 3, inside lists and dicts, with siblings."""
    yield v
    yield [v]
    yield {"t": v, "u": 1}
    yield [[[v, "s"]]]
    yield {"a": {"b": {"c": v}}}
    yield {"a": [{"b": v, "c": v}], "d": [v, v]}
    yield ({"axioms": v, "types": []}, [None, v])
    yield MappingProxyType({"t": v})
    yield MappingProxyType({"a": MappingProxyType({"b": v, "c": (v, "s")}), "d": {"e": v}})
    yield (MappingProxyType({"a": (v,)}), [MappingProxyType({}), ()])


@pytest.mark.parametrize("n", (0, 1, 3, 5))
def test_theory_values_render_at_every_depth(n):
    for t, twin in _theory_cases(n):
        expanded = sorted_sequents(twin)
        for doc, twin_doc, plain in zip(_nestings(t), _nestings(twin), _nestings(expanded)):
            assert canonical_json(doc) == canonical_json(twin_doc) == stdlib(thawed(plain))


@pytest.mark.parametrize("seed", range(6))
def test_lattice_values_render_at_every_depth(seed):
    # a lattice renders through the same hook as a theory: its sorted strict order pairs
    c = support.rand_classification(random.Random(seed), 6, 5)
    for l in (lattice(c), ConceptLattice(lattice(c).concepts), ConceptLattice([])):
        pairs = sorted([i, j] for i, j in l.order if i != j)
        for doc, plain in zip(_nestings(l), _nestings(pairs)):
            assert canonical_json(doc) == stdlib(thawed(plain))


def test_close_reports_build_no_sequent(monkeypatch, tmp_path):
    built = []
    init = Sequent.__init__
    monkeypatch.setattr(Sequent, "__init__", lambda s, *a: built.append(a) or init(s, *a))
    empty = tmp_path / "empty8.json"
    empty.write_text(json.dumps({"theories": {"T": {"types": [f"t{k}" for k in range(8)]}}}))
    status, report = run(["close", "--theory", "T", str(empty)])
    assert status == 0 and report.count('"ant"') == 4**8 - 3**8  # the tautologies
    assert built == []
    # the parser reads the eight axioms of the file straight to masks
    status, report = run(["close", "--theory", "wide", str(FIXTURES / "wide.json")])
    assert status == 0 and built == []


def test_system_reports_build_a_sequent_per_delta_only(monkeypatch):
    # validation, the sum theory, its consistency and the report all run
    # on axiom ints; integrate's semijoin path (vee, a forest) and its handle
    # path (ring, a cycle) each build the deltas they report and no other
    # sequent, and neither asks an entailment wrapper that takes a Sequent
    built, asked = [], []
    init, handle_entails = Sequent.__init__, InverseFlowTheory.entails
    monkeypatch.setattr(Sequent, "__init__", lambda s, *a: built.append(a) or init(s, *a))
    monkeypatch.setattr(InverseFlowTheory, "entails",
                        lambda h, q: asked.append(q) or handle_entails(h, q))
    for name, module in list(sys.modules.items()):  # every module that bound theories.entails
        if name.partition(".")[0] == "ifk" and getattr(module, "entails", None) is entails:
            monkeypatch.setattr(module, "entails", lambda t, q: asked.append(q) or entails(t, q))
    for name, bound, forest in (("vee", 1, True), ("ring", 2, False)):
        path = FIXTURES / f"{name}.json"
        assert parse_bundle(path.read_text()).systems[name].shape._traversal[2] == forest
        assert built == []
        status, report = run(["integrate", "--system", name, "--delta-bound", str(bound), str(path)])
        found = sum(map(len, json.loads(report)["deltas"].values()))
        assert status == 0 and found and len(built) == found and asked == [], name
        built.clear()
    status, report = run(["consistency", "--system", "clash", str(FIXTURES / "clash.json")])
    assert status == 0 and json.loads(report)["verdict"] == "polycosmic" and built == []


@pytest.mark.parametrize("name", ["vee", "clash", "ring"])
def test_integrate_reports_deltas_as_theories(monkeypatch, name):
    # each node's deltas go through the writer's one theory path, with no
    # dict per sequent; they list what the library found, in its order
    calls = []
    monkeypatch.setattr(ifk.cli, "sequent_to_obj", lambda q: calls.append(q) or sequent_to_obj(q))
    path = FIXTURES / f"{name}.json"
    system = parse_bundle(path.read_text()).systems[name]
    for bound in range(3):
        status, report = run(["integrate", "--system", name, "--delta-bound", str(bound), str(path)])
        assert status == 0 and calls == []
        deltas = integrate(system, delta_bound=bound).deltas
        assert json.loads(report)["deltas"] == {n: [sequent_to_obj(q) for q in qs] for n, qs in deltas.items()}
        frozen_report = REPORTS / f"{name}_integrate_bound{bound}.json"
        if frozen_report.exists():  # c08's vee report and the ring report
            assert report == frozen_report.read_text()


def test_close_report_peak_memory():
    # the peak holds the report, the closure's masks and the pieces joined
    # into the report, about 1.5x the report; a dict per axiom, or one more
    # copy of the whole report, would take it over 2x
    tracemalloc.start()
    try:
        status, report = run(["close", "--theory", "wide", str(FIXTURES / "wide.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0 and peak < 2 * len(report)


# ---------------------------------------------------------------------------
# a classification whose incidence names undeclared values

@pytest.mark.parametrize(
    "instances, types, message",
    [(["i"], [], "undeclared type t"), ([], ["t"], "undeclared instance i")],
)
def test_dangling_incidence_is_an_ifk_error(instances, types, message):
    c = Classification("c", instances, types, [("i", "t")])
    calls = (lattice, natural_logic, lambda c: extent(c, []), lift_to_theory_classification)
    for call in calls:
        with pytest.raises(IfkError, match=f"incidence pair \\(i, t\\) references {message}"):
            call(Classification(c.name, c.instances, c.types, c.incidence))
