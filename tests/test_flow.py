import random
import time

import pytest

from ifk import (
    CapExceeded,
    Classification,
    FlatTheory,
    IfkError,
    InformationSystem,
    Infomorphism,
    SequentTheory,
    analogy,
    borrowing_holds,
    bottom_theory,
    check_theory_morphism,
    close,
    direct_flow,
    entails_by_enumeration,
    flat_closure,
    flat_direct_flow,
    flat_entails,
    flat_inverse_flow,
    identity_infomorphism,
    inverse_flow,
    theory_leq,
    top_theory,
    validate_system,
)
from ifk.theories import sequent_key, theory_of_states

import support
from conftest import seq


def theory(types, *axioms):
    return SequentTheory(frozenset(types.split()), frozenset(axioms))


# ---------------------------------------------------------------------------
# direct flow

def test_direct_flow_identity():
    t = theory("a b", seq("a", "b"))
    assert direct_flow({"a": "a", "b": "b"}, t, t.types) == t


def test_direct_flow_collapses_to_tautology():
    t = theory("h p", seq("h", "p"))
    flowed = direct_flow({"h": "u", "p": "u"}, t, {"u"})
    assert flowed.axioms == {seq("u", "u")}


def test_direct_flow_of_empty_theory():
    flowed = direct_flow({"a": "u"}, theory("a"), {"u", "v"})
    assert flowed.axioms == frozenset()
    assert flowed.types == {"u", "v"}


def test_direct_flow_requires_total_map():
    with pytest.raises(IfkError, match="not total"):
        direct_flow({}, theory("a", seq("a", "a")), {"u"})


def test_direct_flow_distributes_over_union():
    rng = random.Random(31)
    for _ in range(30):
        sigma = ["a", "b", "c"]
        t1 = support.rand_theory(rng, sigma, 2)
        t2 = support.rand_theory(rng, sigma, 2)
        f = support.rand_type_map(rng, sigma, ["u", "v"])
        both = SequentTheory(t1.types, t1.axioms | t2.axioms)
        assert (
            direct_flow(f, both, {"u", "v"}).axioms
            == direct_flow(f, t1, {"u", "v"}).axioms | direct_flow(f, t2, {"u", "v"}).axioms
        )


# ---------------------------------------------------------------------------
# flows rename axiom ints as Sequent.rename renames sequents

def assert_twins(flowed: SequentTheory, twin: SequentTheory) -> None:
    assert flowed == twin and twin == flowed
    assert hash(flowed) == hash(twin) and flowed._masks == twin._masks


def rand_flow(rng: random.Random):
    """A seeded theory, a type map (most are not injective) and a target
    language that now and then has a type no source type maps to.  The
    theory is built from sequents or, now and then, made by the kernel."""
    dst = [f"u{k}" for k in range(rng.randint(1, 4))]
    src = [f"x{k}" for k in range(rng.randint(0, 5))]
    f = support.rand_type_map(rng, src, dst)
    t = support.rand_theory(rng, src, 5)
    if rng.random() < 0.25:
        t = close(t)
    return t, f, dst + ["spare"] if rng.random() < 0.3 else dst


@pytest.mark.parametrize("seed", range(4))
def test_direct_flow_renames_ints_as_sequents(seed):
    rng = random.Random(f"direct flow {seed}")
    merging = tautologies = 0
    for _ in range(80):
        t, f, target = rand_flow(rng)
        assert_twins(direct_flow(f, t, target), SequentTheory(target, {a.rename(f) for a in t.axioms}))
        merging += len(set(f.values())) < len(f)
        tautologies += any(a.antecedent.isdisjoint(a.consequent)
                           and not {f[x] for x in a.antecedent}.isdisjoint({f[x] for x in a.consequent})
                           for a in t.axioms)
    assert merging > 30 and tautologies > 5  # non-injective maps, images that are tautologies


@pytest.mark.parametrize("seed", range(4))
def test_analogy_renames_ints_as_sequents(seed):
    rng = random.Random(f"analogy {seed}")
    for _ in range(40):
        t = support.rand_theory(rng, [f"x{k}" for k in range(rng.randint(0, 5))], 5)
        if rng.random() < 0.25:
            t = close(t)
        names = rng.sample([f"y{k}" for k in range(8)], len(t.types))  # the order of the names moves
        renaming = dict(zip(sorted(t.types), names))
        twin = SequentTheory(names, {a.rename(renaming) for a in t.axioms})
        assert_twins(analogy(t, renaming), twin)


@pytest.mark.parametrize("kind", support.CYCLIC_SHAPES + support.FOREST_SHAPES)
def test_sum_theory_renames_ints_as_sequents(kind):
    rng = random.Random(f"sum theory {kind}")
    for _ in range(10):
        s = support.corpus_system(rng, kind)
        colim = s._sum.colimit
        twin = SequentTheory(colim.types, {a.rename(colim.cocone[n]) for n in s.shape.nodes
                                           for a in s.node_theory[n].axioms})
        assert_twins(s._sum.theory, twin)


def sequent_defects(f, t1: SequentTheory, t2: SequentTheory) -> tuple:
    """The axioms of ``t1`` whose images ``t2`` does not entail, by state enumeration."""
    return tuple(a for a in sorted(t1.axioms, key=sequent_key)
                 if not entails_by_enumeration(t2, a.rename(f)))


def test_morphism_defects_match_the_sequent_oracle():
    rng = random.Random("morphism defects")
    failing = 0
    for _ in range(200):
        t1, f, target = rand_flow(rng)
        t2 = support.rand_theory(rng, target, 4)
        defects = check_theory_morphism(f, t1, t2).defects
        assert defects == sequent_defects(f, t1, t2)
        failing += len(defects) > 1
    assert failing > 20


@pytest.mark.parametrize("kind", support.CYCLIC_SHAPES + support.FOREST_SHAPES)
def test_system_defects_match_the_sequent_oracle(kind):
    # a corpus system whose node theories take in random axioms: the
    # edges out of those nodes stop being theory morphisms
    rng = random.Random(f"system defects {kind}")
    failing = 0
    for _ in range(20):
        s = support.corpus_system(rng, kind)
        theories = dict(s.node_theory)
        for n, t in sorted(theories.items()):
            extra = {support.rand_sequent(rng, t.types, 2) for _ in range(rng.randint(0, 2))}
            theories[n] = SequentTheory(t.types, t.axioms | extra)
        grown = InformationSystem(s.shape, theories, s.edge_type_map)
        expected = tuple(("edge", e, "axiom", a) for e, src, dst in sorted(s.shape.edges)
                         for a in sequent_defects(s.edge_type_map[e], theories[src], theories[dst]))
        assert validate_system(grown).defects == expected
        failing += len(expected) > 1
    assert failing >= 5


# ---------------------------------------------------------------------------
# inverse flow

def test_inverse_flow_of_bottom_is_inconsistent():
    inv = inverse_flow({"x": "u"}, bottom_theory({"u"}), {"x"})
    assert inv.entails(seq("", ""))
    materialized = inv.materialize()
    assert len(materialized.axioms) == 4  # every sequent over {x}


def test_inverse_flow_pulls_back_axioms():
    target = theory("h p", seq("h", "p"))
    inv = inverse_flow({"x": "h", "y": "p"}, target, {"x", "y"})
    assert inv.entails(seq("x", "y"))
    assert not inv.entails(seq("y", "x"))


def test_inverse_flow_checks_language():
    inv = inverse_flow({"x": "h"}, theory("h"), {"x"})
    with pytest.raises(IfkError, match="outside the language"):
        inv.entails(seq("z", ""))


def test_handle_matches_enumeration_of_the_image():
    # more source than target types: every map merges types, so a query
    # with disjoint sides can have an image whose sides overlap
    rng = random.Random(67)
    cases = merged = 0
    for _ in range(150):
        dst = [f"u{k}" for k in range(rng.randint(1, 3))]
        src = [f"x{k}" for k in range(rng.randint(len(dst) + 1, 5))]
        f = support.rand_type_map(rng, src, dst)
        target = support.rand_theory(rng, dst, 4)
        handle = inverse_flow(f, target, src)
        for _ in range(12):
            q = support.rand_sequent(rng, src)
            image = q.rename(f)
            if q.antecedent.isdisjoint(q.consequent):
                merged += not image.antecedent.isdisjoint(image.consequent)
            assert handle.entails(q) == entails_by_enumeration(target, image)
            cases += 1
    assert merged > 100
    print(f"handle vs enumeration: {cases} queries, {merged} with sides merged by the map")


def test_materialized_inverse_flow_matches_queries():
    rng = random.Random(37)
    for _ in range(30):
        target = support.rand_theory(rng, ["u", "v"], 2)
        f = support.rand_type_map(rng, ["x", "y", "z"], ["u", "v"])
        inv = inverse_flow(f, target, {"x", "y", "z"})
        materialized = inv.materialize()
        for a in materialized.axioms:
            assert inv.entails(a)
        # materialized pullbacks are closed
        assert close(materialized) == materialized


def test_materialize_is_the_theory_of_the_pulled_models():
    rng = random.Random(0x9B)
    cases = merging = 0
    for _ in range(120):
        dst = [f"u{k}" for k in range(rng.randint(1, 4))]
        src = [f"x{k}" for k in range(rng.randint(0, 5))]
        f = support.rand_type_map(rng, src, dst)
        target = support.rand_theory(rng, dst, 4)
        pulled = [
            frozenset(s for s in src if f[s] in m) for m in support.plain_satisfying_states(target)
        ]
        assert inverse_flow(f, target, src).materialize() == theory_of_states(src, pulled)
        cases += 1
        merging += len(set(f.values())) < len(src)
    assert merging > 60
    print(f"materialize vs pulled models: {cases} maps, {merging} not injective")


def test_materialize_charges_the_cap_before_any_query():
    target = top_theory({f"u{k}" for k in range(40)})
    handle = inverse_flow({f"x{k}": f"u{k}" for k in range(9)}, target, [f"x{k}" for k in range(9)])
    start = time.monotonic()
    with pytest.raises(CapExceeded) as err:
        handle.materialize()
    assert time.monotonic() - start < 1
    assert (err.value.phase, err.value.required) == ("inverse flow materialization", 4 ** 9)


def test_inverse_flow_of_intersection_is_intersection_of_inverse_flows():
    rng = random.Random(41)
    for _ in range(25):
        sigma_t = frozenset({"u", "v"})
        c1 = close(support.rand_theory(rng, sigma_t, 2))
        c2 = close(support.rand_theory(rng, sigma_t, 2))
        meet_theory = SequentTheory(sigma_t, c1.axioms & c2.axioms)
        f = support.rand_type_map(rng, ["x", "y"], sigma_t)
        lhs = inverse_flow(f, meet_theory, {"x", "y"}).materialize()
        rhs1 = inverse_flow(f, c1, {"x", "y"}).materialize()
        rhs2 = inverse_flow(f, c2, {"x", "y"}).materialize()
        assert lhs.axioms == rhs1.axioms & rhs2.axioms


# ---------------------------------------------------------------------------
# the flow adjunction (inverse flow on the left, direct flow on the right)

def rand_flow_triple(rng, max_types=4):
    src = [f"x{k}" for k in range(rng.randint(0, max_types))]
    dst = [f"u{k}" for k in range(rng.randint(1, max_types))]
    f = support.rand_type_map(rng, src, dst)
    t = support.rand_theory(rng, src, 3)
    t_prime = support.rand_theory(rng, dst, 3)
    return f, t, t_prime


def test_flow_adjunction_randomized():
    rng = random.Random(43)
    for _ in range(200):
        f, t, t_prime = rand_flow_triple(rng)
        lhs = theory_leq(inverse_flow(f, t_prime, t.types).materialize(), t)
        rhs = theory_leq(t_prime, direct_flow(f, t, t_prime.types))
        assert lhs == rhs


def test_flow_adjunction_orientation_matters():
    # with a type outside the image of the map, pairing the comparisons the
    # other way around is not an equivalence
    f = {"x": "u"}
    t = top_theory({"x"})
    t_prime = theory("u v", seq("", "v"))
    assert theory_leq(inverse_flow(f, t_prime, t.types).materialize(), t) == theory_leq(
        t_prime, direct_flow(f, t, t_prime.types)
    )
    flipped_lhs = theory_leq(direct_flow(f, t, t_prime.types), t_prime)
    flipped_rhs = theory_leq(t, inverse_flow(f, t_prime, t.types).materialize())
    assert flipped_lhs != flipped_rhs


def test_round_trip_keeps_original_content():
    # pulling the pushed theory back yields something at least as strong
    rng = random.Random(47)
    for _ in range(100):
        f, t, t_prime = rand_flow_triple(rng)
        back = inverse_flow(f, direct_flow(f, t, t_prime.types), t.types)
        assert theory_leq(back.materialize(), t)


def test_push_of_pullback_stays_below():
    rng = random.Random(53)
    for _ in range(100):
        f, t, t_prime = rand_flow_triple(rng)
        pulled = inverse_flow(f, t_prime, t.types).materialize()
        assert theory_leq(t_prime, direct_flow(f, pulled, t_prime.types))


# ---------------------------------------------------------------------------
# flat flows and borrowing

def test_flat_direct_flow_identity(clf_a):
    ft = FlatTheory(clf_a.types, {"human"})
    assert flat_direct_flow({t: t for t in clf_a.types}, ft, clf_a.types) == ft


def test_flat_direct_flow_of_empty(clf_a):
    ft = FlatTheory(clf_a.types, frozenset())
    assert flat_direct_flow({t: t for t in clf_a.types}, ft, clf_a.types).members == frozenset()


def test_flat_inverse_flow_through_clf_a(clf_a):
    f = {"x": "human", "x2": "philosopher"}
    ft_target = FlatTheory(clf_a.types, {"human"})
    pulled = flat_inverse_flow(clf_a, f, ft_target, {"x", "x2"})
    assert pulled.members == {"x", "x2"}


def test_borrowing_identity(clf_a):
    ident = identity_infomorphism(clf_a)
    for t in clf_a.types:
        assert borrowing_holds(ident, FlatTheory(clf_a.types, {t}), t)


def test_borrowing_for_surjective_instance_maps():
    rng = random.Random(59)
    for _ in range(60):
        f = support.rand_infomorphism(rng, max_size=2, surjective_instances=True)
        subsets = [frozenset()]
        for t in sorted(f.source.types):
            subsets += [s | {t} for s in subsets]
        for members in subsets:
            for t in f.source.types:
                assert borrowing_holds(f, FlatTheory(f.source.types, members), t)


def test_borrowing_counterexample_exists():
    # target gains an instance whose pullback breaks the source entailment
    a = Classification("A", ["a", "a2"], ["u", "t"], [("a", "u")])
    b = Classification("B", ["b"], ["fu", "ft"], [])
    f = Infomorphism("f", a, b, {"u": "fu", "t": "ft"}, {"b": "a2"})
    from ifk import check_infomorphism

    assert check_infomorphism(f).ok
    assert set(f.instance_map.values()) != set(a.instances)
    assert not borrowing_holds(f, FlatTheory(a.types, {"u"}), "t")


def test_entailment_preservation_along_infomorphisms():
    rng = random.Random(61)
    for _ in range(100):
        f = support.rand_infomorphism(rng, max_size=3)
        subsets = [frozenset()]
        for t in sorted(f.source.types):
            subsets += [s | {t} for s in subsets]
        for members in subsets[: 2 ** min(len(f.source.types), 3)]:
            ft = FlatTheory(f.source.types, members)
            image = flat_direct_flow(f.type_map, ft, f.target.types)
            for t in f.source.types:
                if flat_entails(f.source, ft, t):
                    assert flat_entails(f.target, image, f.type_map[t])
