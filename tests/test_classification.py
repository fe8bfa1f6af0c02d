import gc
import random
import weakref
from bisect import bisect_left

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifk import (
    CapExceeded,
    Classification,
    ClsDiagram,
    IfkError,
    Infomorphism,
    Sequent,
    ShapeGraph,
    check_infomorphism,
    compose_infomorphisms,
    derive,
    extent,
    identity_infomorphism,
    instance_leq,
    intent,
    lift_to_theory_classification,
    natural_entails,
    validate_classification,
)

from ifk.masks import _canonical, _from_positions, _named, _positions

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


def pair_defects(f: Infomorphism) -> tuple:
    """Invariance by its definition: every (target instance, source type) pair, in sorted order."""
    defects = []
    for b in sorted(f.target.instances):
        a = f.instance_map[b]
        for t in sorted(f.source.types):
            at_source = (a, t) in f.source.incidence
            at_target = (b, f.type_map[t]) in f.target.incidence
            if at_source != at_target:
                defects.append((b, t, "source-only" if at_source else "target-only"))
    return tuple(defects)


def near_infomorphism(rng: random.Random) -> Infomorphism:
    """Total maps into a target of at most 3 types and 12 instances from a random
    source of at most 5 and 5, so type maps collide and target intents repeat; the
    target incidence is the image of the source incidence with a share flipped."""
    src = support.rand_classification(rng, 5, 5, "A")
    types = [f"u{k}" for k in range(rng.randint(1 if src.types else 0, 3))]
    instances = [f"b{k}" for k in range(rng.randint(0, 12) if src.instances else 0)]
    type_map = {t: rng.choice(types) for t in sorted(src.types)}
    instance_map = {b: rng.choice(sorted(src.instances)) for b in instances}
    flip = rng.choice([0, 0, 0.05, 0.5])
    incidence = [(b, u) for b in instances for u in types
                 if any(type_map[t] == u and (instance_map[b], t) in src.incidence for t in src.types)
                 != (rng.random() < flip)]
    return Infomorphism("f", src, Classification("B", instances, types, incidence), type_map, instance_map)


def test_invariance_defects_match_the_pair_loop():
    rng = random.Random(0x1F0)
    empty, typed = Classification("E", [], [], []), Classification("T", [], ["u"], [])
    cases = [Infomorphism("e", empty, empty, {}, {}), Infomorphism("e", empty, typed, {}, {}),
             Infomorphism("e", typed, typed, {"u": "u"}, {})]
    cases += [near_infomorphism(rng) for _ in range(600)]
    cases += [support.rand_infomorphism(rng, 4) for _ in range(30)]
    outcomes = set()
    for f in cases:
        result = check_infomorphism(f)
        assert result.defects == pair_defects(f), f
        outcomes.add((result.ok, len(set(f.type_map.values())) < len(f.type_map)))
    assert outcomes == {(True, False), (True, True), (False, False), (False, True)}


def test_invariance_refuses_undeclared_incidence():
    bad = Classification("c", ["i"], ["t"], [("i", "t"), ("j", "t")])
    good = Classification("d", ["i"], ["t"], [("i", "t")])
    first = validate_classification(bad).defects[0]
    assert first == "incidence pair (j, t) references undeclared instance j"
    shape = ShapeGraph(["a", "b"], [("e", "a", "b")])
    for src, dst in ((bad, good), (good, bad)):
        f = Infomorphism("e", src, dst, {"t": "t"}, {"i": "i"})
        with pytest.raises(IfkError) as raised:
            check_infomorphism(f)
        assert str(raised.value) == first
        with pytest.raises(IfkError) as raised:
            ClsDiagram(shape, {"a": src, "b": dst}, {"e": f})
        assert str(raised.value) == first


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


def test_lift_refuses_colliding_theory_type_names():
    # the subset {a, b} and the singleton {a,b} would share one name
    c = Classification("c", ["i", "j"], ["a", "b", "a,b"], [("i", "a"), ("i", "b"), ("j", "a,b")])
    with pytest.raises(IfkError, match="theory-type name collision; rename types"):
        lift_to_theory_classification(c)


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


def test_mask_queries_match_plain_scans():
    rng = random.Random(14)
    cases = [Classification("empty", [], [], [])]
    cases += [support.rand_classification(rng, 6, 6) for _ in range(150)]
    for c in cases:
        holds = {i: frozenset(t for j, t in c.incidence if j == i) for i in c.instances}
        for i in c.instances:
            assert intent(c, i) == holds[i]
        for k in range(len(c.types) + 1):
            ts = rng.sample(sorted(c.types), k)
            expected = frozenset(i for i in c.instances if holds[i].issuperset(ts))
            assert extent(c, ts) == derive(c, "types", ts) == expected
        for k in range(len(c.instances) + 1):
            xs = rng.sample(sorted(c.instances), k)
            expected = frozenset(t for t in c.types if all((i, t) in c.incidence for i in xs))
            assert derive(c, "instances", xs) == expected
        for _ in range(6):
            s = support.rand_sequent(rng, c.types)
            expected = not any(
                s.antecedent <= holds[i] and s.consequent.isdisjoint(holds[i])
                for i in c.instances
            )
            assert natural_entails(c, s) == expected


def test_named_reads_each_set_bit():
    rng = random.Random(0x7A)
    for width in [0, 1, 2, 70] + [rng.randint(0, 80) for _ in range(100)]:
        names = [f"n{k}" for k in range(width)]
        m = rng.getrandbits(width) if width else 0
        assert _named(names, m) == frozenset(names[k] for k in range(width) if m >> k & 1)


def test_from_positions_sets_exactly_those_bits():
    rng = random.Random(0xB175)
    sizes = [0, 1, 2, 1 << 12] + [rng.randint(0, 1 << 12) for _ in range(30)]
    for size in sizes:
        # up to 2^13: past 4,300 digits, where decimal parsing stops
        positions = set(rng.sample(range(1 << 13), size))
        assert _from_positions(positions) == sum(1 << x for x in positions)
        assert _from_positions(sorted(positions, reverse=True)) == sum(1 << x for x in positions)
    assert _from_positions([]) == 0 and _from_positions([0]) == 1


def _read(w: int, k: int) -> type:
    """The read ``_positions`` picks for a w-bit mask with k bits set."""
    return type(_positions((1 << k) - 1 << w - k))


def test_positions_reads_every_set_bit():
    # popcounts on both sides of each switch between reads, found by bisection:
    # the reads go from peeling to scanning to flags as more bits are set
    rng = random.Random(0x5E7)
    rank = {list: 0, map: 1}
    assert list(_positions(0)) == []
    reads = set()
    for w in (1, 2, 9, 20, 33, 64, 100, 512, 3600, 1 << 16):
        switches = [bisect_left(range(w + 1), r, key=lambda k: rank.get(_read(w, k), 2)) for r in (1, 2)]
        popcounts = {1, w, *(k + d for k in switches for d in (-1, 0))} & set(range(1, w + 1))
        for k in sorted(popcounts):  # the top bit and k - 1 others
            m = _from_positions([w - 1, *rng.sample(range(w - 1), k - 1)])
            assert list(_positions(m)) == [x for x in range(w) if m >> x & 1], (w, k)
            reads.add(_read(w, k))
    assert len(reads) == 3


def test_canonical_order_is_popcount_then_positions():
    rng = random.Random(0x0D)
    masks = [rng.getrandbits(w) if w else 0 for w in (rng.randint(0, 80) for _ in range(2000))]
    assert len({m.bit_count() for m in masks}) < 100  # so popcounts tie
    assert _canonical(masks) == sorted(masks, key=lambda m: (m.bit_count(), list(_positions(m))))
    assert _canonical(iter(masks)) == _canonical(reversed(masks))


def test_mask_queries_refuse_undeclared_incidence():
    c = Classification("c", ["i"], ["t"], [("i", "t"), ("j", "t")])
    queries = (
        lambda: intent(c, "i"),
        lambda: extent(c, ["t"]),
        lambda: derive(c, "instances", ["i"]),
        lambda: natural_entails(c, Sequent(frozenset(["t"]), frozenset())),
    )
    message = r"incidence pair \(j, t\) references undeclared instance j"
    for query in queries:
        with pytest.raises(IfkError, match=message):
            query()


def test_classification_is_freed_after_lookups():
    c = Classification("c", ["i"], ["t"], [("i", "t")])
    assert intent(c, "i") == {"t"}
    assert extent(c, ["t"]) == {"i"}
    ref = weakref.ref(c)
    del c
    gc.collect()
    assert ref() is None
