import gc
import random
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifk import (
    CapExceeded,
    Classification,
    IfkError,
    Infomorphism,
    check_infomorphism,
    compose_infomorphisms,
    extent,
    identity_infomorphism,
    instance_leq,
    intent,
    lift_to_theory_classification,
    validate_classification,
)

import support


def test_validate_ok(clf_a):
    assert validate_classification(clf_a).ok


def test_validate_empty_classification(empty_clf):
    assert validate_classification(empty_clf).ok


def test_validate_dangling_incidence(clf_a):
    broken = Classification(
        "broken", clf_a.instances, clf_a.types, set(clf_a.incidence) | {("aristotle", "robot")}
    )
    result = validate_classification(broken)
    assert not result.ok
    assert any("robot" in d and "aristotle" in d for d in result.defects)


def test_validate_bad_identifier():
    c = Classification("c", ["a b"], [""], [])
    result = validate_classification(c)
    assert len(result.defects) == 2


def test_intent(clf_a):
    assert intent(clf_a, "aristotle") == {"human", "philosopher"}
    assert intent(clf_a, "civic87") == {"car"}


def test_intent_empty_for_unclassified_instance():
    c = Classification("c", ["lonely"], ["t"], [])
    assert intent(c, "lonely") == frozenset()


def test_intent_unknown_instance(clf_a):
    with pytest.raises(IfkError, match="unknown instance"):
        intent(clf_a, "plato")


def test_extent(clf_a):
    assert extent(clf_a, ["human"]) == {"aristotle"}
    assert extent(clf_a, []) == {"aristotle", "civic87"}
    assert extent(clf_a, ["human", "car"]) == frozenset()


def test_extent_unknown_type(clf_a):
    with pytest.raises(IfkError, match="unknown type"):
        extent(clf_a, ["robot"])


def test_identity_infomorphism_passes(clf_a):
    assert check_infomorphism(identity_infomorphism(clf_a)).ok


def test_swapping_type_map_breaks_invariance(clf_a):
    f = Infomorphism(
        "swap",
        clf_a,
        clf_a,
        {"human": "car", "car": "human", "philosopher": "philosopher"},
        {i: i for i in clf_a.instances},
    )
    result = check_infomorphism(f)
    assert not result.ok
    assert ("aristotle", "human", "source-only") in result.defects


def test_check_infomorphism_requires_total_maps(clf_a):
    f = Infomorphism("partial", clf_a, clf_a, {"human": "human"}, {i: i for i in clf_a.instances})
    with pytest.raises(IfkError, match="not total"):
        check_infomorphism(f)


def test_compose_identity_laws(clf_a):
    ident = identity_infomorphism(clf_a)
    f = Infomorphism(
        "f",
        clf_a,
        clf_a,
        {t: t for t in clf_a.types},
        {"aristotle": "aristotle", "civic87": "aristotle"},
    )
    left = compose_infomorphisms(ident, f)
    right = compose_infomorphisms(f, ident)
    assert left.type_map == f.type_map and left.instance_map == f.instance_map
    assert right.type_map == f.type_map and right.instance_map == f.instance_map


def test_compose_concrete_two_type_maps():
    a = Classification("a", ["x"], ["s", "t"], [("x", "s")])
    b = Classification("b", ["y"], ["u", "v"], [("y", "u")])
    c = Classification("c", ["z"], ["p", "q"], [("z", "p")])
    f = Infomorphism("f", a, b, {"s": "u", "t": "v"}, {"y": "x"})
    g = Infomorphism("g", b, c, {"u": "p", "v": "q"}, {"z": "y"})
    fg = compose_infomorphisms(f, g)
    assert fg.type_map == {"s": "p", "t": "q"}
    assert fg.instance_map == {"z": "x"}
    assert check_infomorphism(fg).ok


def test_compose_endpoint_mismatch(clf_a, diagonal_clf):
    f = identity_infomorphism(clf_a)
    g = identity_infomorphism(diagonal_clf)
    with pytest.raises(IfkError, match="endpoint mismatch"):
        compose_infomorphisms(f, g)


def test_composition_of_valid_infomorphisms_is_valid():
    rng = random.Random(2025)
    for _ in range(200):
        f = support.rand_infomorphism(rng, max_size=3)
        g = support.rand_infomorphism_from(rng, f.target)
        assert check_infomorphism(f).ok and check_infomorphism(g).ok
        assert check_infomorphism(compose_infomorphisms(f, g)).ok


def test_instance_leq(clf_a):
    assert instance_leq(clf_a, "aristotle", "aristotle")
    assert not instance_leq(clf_a, "aristotle", "civic87")


def test_instance_with_full_intent_is_below_everything():
    c = Classification(
        "c", ["all", "some"], ["t1", "t2"], [("all", "t1"), ("all", "t2"), ("some", "t1")]
    )
    assert instance_leq(c, "all", "some")
    assert instance_leq(c, "all", "all")


def test_instance_leq_is_a_preorder(clf_a, diagonal_clf, empty_clf):
    for c in (clf_a, diagonal_clf, empty_clf):
        inst = sorted(c.instances)
        for i in inst:
            assert instance_leq(c, i, i)
        for i in inst:
            for j in inst:
                for k in inst:
                    if instance_leq(c, i, j) and instance_leq(c, j, k):
                        assert instance_leq(c, i, k)


def test_lift_has_powerset_types(clf_a):
    lifted = lift_to_theory_classification(clf_a)
    assert len(lifted.types) == 8
    assert lifted.instances == clf_a.instances
    assert ("aristotle", "{human}") in lifted.incidence
    assert ("civic87", "{car,human}") not in lifted.incidence
    assert validate_classification(lifted).ok


def test_lift_cap(clf_a):
    with pytest.raises(CapExceeded) as err:
        lift_to_theory_classification(clf_a, cap=7)
    assert err.value.required == 8


def test_lift_incidence_is_subset_of_intent(clf_a):
    lifted = lift_to_theory_classification(clf_a)
    # every theory-type an instance falls under is part of its intent
    for i in clf_a.instances:
        for name in intent(lifted, i):
            members = frozenset(x for x in name[1:-1].split(",") if x)
            assert members <= intent(clf_a, i)


# ---------------------------------------------------------------------------
# invariants

classifications = st.builds(
    lambda seed: support.rand_classification(random.Random(seed), 5, 5),
    st.integers(min_value=0, max_value=10**6),
)


@given(classifications)
def test_derivation_duality(c):
    for i in c.instances:
        for t in c.types:
            assert (t in intent(c, i)) == (i in extent(c, [t]))


@given(classifications)
def test_intent_is_maximal_among_classifying_theories(c):
    subsets = [frozenset()]
    for t in sorted(c.types):
        subsets += [s | {t} for s in subsets]
    for i in c.instances:
        for theory in subsets:
            if i in extent(c, theory):
                assert theory <= intent(c, i)


def test_classification_is_freed_after_lookups():
    c = Classification("c", ["i"], ["t"], [("i", "t")])
    assert intent(c, "i") == {"t"}
    assert extent(c, ["t"]) == {"i"}
    ref = weakref.ref(c)
    del c
    gc.collect()
    assert ref() is None
