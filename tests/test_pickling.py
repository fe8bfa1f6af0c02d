"""Values that hold read-only maps survive pickle and deep copy: each copy
equals the original (or, for the types compared by identity, gives the
same answers), keeps its maps read-only and carries no cached state.
Classifications and logics are copied as their fields alone, theories
as their index and axiom ints, and lattices as their names and masks."""

import copy
import pickle
import random

import pytest

from ifk import (
    Classification,
    FlatTheory,
    InformationSystem,
    LocalLogic,
    Sequent,
    SequentTheory,
    colimit_language,
    entails,
    extent,
    identity_infomorphism,
    integrate,
    inverse_flow,
    is_complete,
    lattice,
    lattice_dot,
    meet,
    normalize,
    sum_classification,
)
from ifk.bundle import parse_bundle
from ifk.closure import close
from ifk.integration import bounded_sequents

import support
from conftest import FIXTURES, clash_system, seq, vee_system

COPIERS = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "deepcopy": copy.deepcopy,
}


def classified_system(rng: random.Random) -> InformationSystem:
    """A random classification diagram as a system of axiom-free theories."""
    d = support.rand_cls_diagram(rng)
    return InformationSystem(
        shape=d.shape,
        node_theory={n: SequentTheory(c.types, []) for n, c in d.node_cls.items()},
        edge_type_map={e: f.type_map for e, f in d.edge_info.items()},
        node_cls=d.node_cls,
        edge_instance_map={e: f.instance_map for e, f in d.edge_info.items()},
    )


def assert_read_only(*views):
    for view in views:
        with pytest.raises(TypeError):
            view["x"] = "x"


@pytest.fixture(params=sorted(COPIERS))
def copier(request):
    return COPIERS[request.param]


def test_identity_infomorphism_copies(copier):
    c = Classification("c", ["a", "b"], ["t", "u"], [("a", "t"), ("b", "u")])
    f = identity_infomorphism(c)
    assert f._invariance.ok  # cached on the original only
    g = copier(f)
    assert g == f and g is not f
    assert "_invariance" not in vars(g)
    assert_read_only(g.type_map, g.instance_map)


@pytest.mark.parametrize("seed", range(12))
def test_infomorphisms_and_diagrams_copy(copier, seed):
    rng = random.Random(seed)
    f = support.rand_infomorphism(rng)
    assert copier(f) == f
    d = support.rand_cls_diagram(rng)
    lang = d.language_diagram()
    colim = colimit_language(lang)
    channel = sum_classification(d)
    for value in (d.shape, d, lang, colim, channel):
        assert copier(value) == value
    d2, lang2, colim2, channel2 = (copier(v) for v in (d, lang, colim, channel))
    assert_read_only(d2.node_cls, d2.edge_info, lang2.node_language, lang2.edge_map,
                     colim2.cocone, colim2.members, channel2.legs)
    assert_read_only(*lang2.edge_map.values(), *colim2.cocone.values())


@pytest.mark.parametrize("seed", range(12))
def test_systems_copy_without_their_cached_sum(copier, seed):
    rng = random.Random(seed)
    for s in (support.rand_system(rng), classified_system(rng), vee_system(), clash_system()):
        expected = integrate(s)  # fills the system's cached validation and sum
        s2 = copier(s)
        assert s2 == s
        assert not {"_validation", "_sum", "_infomorphisms"} & vars(s2).keys()
        assert_read_only(s2.node_theory, s2.edge_type_map, s2.node_cls, s2.edge_instance_map)
        assert_read_only(*s2.edge_type_map.values(), *s2.edge_instance_map.values())
        assert integrate(s2).deltas == expected.deltas


@pytest.mark.parametrize("make", [vee_system, clash_system])
def test_integration_result_copies(copier, make):
    result = integrate(make())
    again = copier(result)
    for name in ("sum_types", "cocone", "sum_members", "sum_theory", "deltas", "verdict"):
        assert getattr(again, name) == getattr(result, name)
    assert_read_only(again.cocone, *again.cocone.values(), again.sum_members,
                     again.closure_handles, again.deltas)
    # handles compare by identity; a copied handle answers as the original does
    assert again.closure_handles.keys() == result.closure_handles.keys()
    for n, handle in result.closure_handles.items():
        copied = again.closure_handles[n]
        assert all(copied.entails(q) == handle.entails(q) for q in bounded_sequents(handle.types, 2))


def test_flat_theories_copy(copier):
    ft = FlatTheory(["a", "b", "c"], {"a", "c"})
    again = copier(ft)
    assert again == ft and again is not ft
    assert (type(again), again.types, again.members) == (FlatTheory, ft.types, ft.members)
    assert b"ifk.logics" in pickle.dumps(ft)  # pickled by reference to the module that defines it


def test_inverse_flow_theory_copies(copier):
    rng = random.Random(7)
    for _ in range(20):
        target = support.rand_theory(rng, ["p", "q", "r", "s"])
        type_map = support.rand_type_map(rng, ["a", "b", "c"], target.types)
        handle = inverse_flow(type_map, target, ["a", "b", "c"])
        handle.entails(next(bounded_sequents(handle.types, 1)))  # compiles the target
        again = copier(handle)
        assert (again.types, dict(again.type_map), again.target) == (
            handle.types, dict(handle.type_map), handle.target
        )
        assert_read_only(again.type_map)
        assert all(again.entails(q) == handle.entails(q) for q in bounded_sequents(handle.types, 3))
        assert again.materialize() == handle.materialize()


@pytest.mark.parametrize("seed", range(8))
def test_values_copy_their_fields_only(copier, seed):
    rng = random.Random(seed)
    c = support.rand_classification(rng, 5, 4)
    theory = support.rand_theory(rng, c.types, 3)
    l = lattice(c)
    logic = normalize(LocalLogic(c, theory, frozenset()))
    # derive, on each original, everything it keeps (the logic's
    # constructor has read the classification's masks)
    entails(theory, Sequent(frozenset(), frozenset()))
    extent(c, c.types)
    lattice_dot(l), meet(l, 0, 0), l.order
    is_complete(logic)
    # a copy keeps its fields, a theory its index and axiom ints, never its engine,
    # and a lattice its names and masks, never its concepts
    kept = ((theory, {"_index", "_masks", "_compiled"}, {"types", "_index", "_masks"}),
            (c, {"_masks"}, set(c._fields)),
            (l, {"concepts", "_first", "order"}, {"_instances", "_types", "_extents", "_intents"}))
    for value, derived, copied in kept:
        assert derived <= vars(value).keys()
        again = copier(value)
        assert again == value
        assert vars(again).keys() == copied
    # a logic's constructor finds its violators; a copy finds them again
    again = copier(logic)
    assert again == logic
    fresh = LocalLogic(logic.classification, logic.theory, logic.normal)
    assert vars(again).keys() == vars(fresh).keys()
    assert again._violators == logic._violators
    assert copier(l).order == l.order


def _theories() -> dict:
    """A theory the kernel made, a parsed one and one built from ``Sequent``s."""
    parsed = parse_bundle((FIXTURES / "wide.json").read_text()).theories["wide"]
    return {
        "kernel": lambda: close(parsed),  # 60,936 theorems
        "parsed": lambda: parse_bundle((FIXTURES / "classics.json").read_text()).theories["classical"],
        "built": lambda: SequentTheory(["a", "b", "c"], [seq("a", "b"), seq("b c", ""), seq("", "a c")]),
    }


@pytest.mark.parametrize("kind", sorted(_theories()))
def test_theories_copy_as_their_ints(monkeypatch, copier, kind):
    t = _theories()[kind]()
    built = []
    init = Sequent.__init__
    monkeypatch.setattr(Sequent, "__init__", lambda s, *a: built.append(a) or init(s, *a))
    again = copier(t)
    assert built == []  # no Sequent on either side of the copy
    assert "axioms" not in vars(t)
    assert again == t and hash(again) == hash(t)
    assert vars(again).keys() == {"types", "_index", "_masks"}
