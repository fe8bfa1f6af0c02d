import pickle
import random
import sys
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifk import (
    CapExceeded,
    FlatTheory,
    IfkError,
    Sequent,
    SequentTheory,
    analogy,
    bottom_theory,
    check_theory_morphism,
    close,
    contract,
    entails,
    entails_by_enumeration,
    expand,
    flat_closure,
    flat_entails,
    is_consistent,
    is_consistent_by_enumeration,
    revise,
    state_satisfies,
    theory_leq,
    top_theory,
)
from ifk.theories import (CompiledTheory, _models, all_states, satisfying_states, sequent_key,
                          theory_of_states)

import support
from conftest import seq


def theory(types, *axioms):
    return SequentTheory(frozenset(types.split()), frozenset(axioms))


# ---------------------------------------------------------------------------
# satisfaction

def test_state_fails_unwitnessed_sequent():
    assert state_satisfies(seq("h", "p"), frozenset({"h"})) is False


def test_state_satisfies_when_antecedent_broken():
    assert state_satisfies(seq("h", "p"), frozenset()) is True


def test_overlapping_sequents_hold_in_every_state():
    for holds in all_states({"a", "b", "c"}):
        assert state_satisfies(seq("a b", "b"), holds)


def test_empty_sequent_fails_in_the_empty_state():
    assert state_satisfies(seq("", ""), frozenset()) is False


def test_state_satisfies_language_check():
    with pytest.raises(IfkError, match="outside the language"):
        state_satisfies(seq("h", "p"), frozenset({"h"}), sigma={"h"})


# ---------------------------------------------------------------------------
# consistency and entailment

def test_empty_theory_is_consistent():
    assert is_consistent(theory("a b"))


def test_empty_sequent_axiom_is_inconsistent():
    assert not is_consistent(theory("a", seq("", "")))


def test_three_axiom_clash_is_inconsistent():
    t = theory("h p", seq("h", "p"), seq("p", ""), seq("", "h"))
    assert not is_consistent(t)
    assert not is_consistent_by_enumeration(t)


def test_identity_sequents_always_entailed():
    t = theory("h p", seq("h", "p"))
    assert entails(t, seq("h", "h"))
    assert entails(top_theory({"h"}), seq("h", "h"))


def test_weakening_instance():
    t = theory("h p q", seq("h", "p"))
    assert entails(t, seq("h q", "p q"))
    assert entails_by_enumeration(t, seq("h q", "p q"))


def test_inconsistent_theory_entails_everything():
    t = bottom_theory({"a", "b"})
    for g in all_states(t.types):
        for d in all_states(t.types):
            assert entails(t, Sequent(g, d))


def test_entails_rejects_foreign_types():
    with pytest.raises(IfkError, match="outside the language"):
        entails(theory("a"), seq("b", ""))


def test_engine_matches_enumeration_oracle():
    rng = random.Random(7)
    for _ in range(300):
        types = [f"t{k}" for k in range(rng.randint(0, 5))]
        t = support.rand_theory(rng, types, max_axioms=4)
        s = support.rand_sequent(rng, types)
        assert entails(t, s) == entails_by_enumeration(t, s)
        assert is_consistent(t) == is_consistent_by_enumeration(t)


@pytest.mark.parametrize("m", [1500, 5000])
def test_deep_reversed_chains(m):
    # c(k+1) |- c(k): refuting c(lo) |- c(hi) leaves hi - lo - 1 types free,
    # far more than the interpreter's recursion limit
    types = [f"c{k:05d}" for k in range(m + 1)]
    t = SequentTheory(types, [Sequent({types[k + 1]}, {types[k]}) for k in range(m)])
    lo, hi = 3, m - 3
    assert is_consistent(t)
    assert entails(t, Sequent({types[hi]}, {types[lo]}))
    assert not entails(t, Sequent({types[lo]}, {types[hi]}))
    # pinning both ends makes the chain contradict itself
    pinned = expand(t, [Sequent((), {types[m]}), Sequent({types[0]}, ())])
    assert not is_consistent(pinned)
    assert entails(pinned, Sequent({types[lo]}, {types[hi]}))


def hard_sequent(rng, sigma):
    """Three types split at random between the sides: near 4.26 such axioms
    per type a theory sits in the hard region, where queries meet
    conflicts and the engine learns clauses."""
    picked = rng.sample(sigma, 3)
    ant = [x for x in picked if rng.random() < 0.5]
    return Sequent(ant, set(picked) - set(ant))


def bits_of(index, names):
    return sum(1 << index[x] for x in names)


def hard_theories(rng, sigma):
    """Theories of 30-38 hard sequents over ``sigma``."""
    return [SequentTheory(sigma, [hard_sequent(rng, sigma) for _ in range(n)]) for n in (30, 34, 34, 34, 38)]


def test_compiled_theory_answers_interleaved_queries():
    # one theory object serves every query in turn, so anything the engine
    # keeps between queries must leave later answers unchanged
    rng = random.Random(0xC0DE)
    sigma = [f"t{k}" for k in range(8)]
    fixed = [
        theory(""),  # the empty language
        theory("", seq("", "")),
        theory("a b", seq("", "")),  # the empty axiom <|->
        theory("a b", seq("a", "a"), seq("b", "a b")),  # only tautologies
        theory("a b c", seq("", "a"), seq("a", "b"), seq("b", "")),  # inconsistent
        theory("a b c", seq("a", "a"), seq("a", "b"), seq("b c", "")),
    ]
    randomized = [
        SequentTheory(sigma, [hard_sequent(rng, sigma) for _ in range(n)])
        for n in (12, 20, 28, 34, 34, 34, 40, 40)
    ]
    cases = 0
    for t in fixed + randomized:
        for _ in range(150):
            if rng.random() < 0.15:
                assert is_consistent(t) == is_consistent_by_enumeration(t)
            else:
                s = support.rand_sequent(rng, t.types, 3)
                if t.types and rng.random() < 0.2:
                    shared = rng.choice(sorted(t.types))
                    s = Sequent(s.antecedent | {shared}, s.consequent | {shared})
                assert entails(t, s) == entails_by_enumeration(t, s), (t, s)
            cases += 1
    print(f"interleaved queries on {len(fixed) + len(randomized)} theories: {cases} cases")


def test_compiled_theory_refutes_mask_pairs():
    # the engine's one query, asked on kernel mask pairs in turn across the
    # theories, against a plain scan of each theory's models; every model
    # an engine keeps is a state of its theory
    rng = random.Random(0x5EED)
    sigma = [f"t{k}" for k in range(8)]
    theories = [
        theory(""),  # the empty language
        theory("a b", seq("", "")),  # the empty axiom <|->
        theory("a b c", seq("a", "a"), seq("b c", "a b")),  # only tautologies
        theory("a b c", seq("", "a"), seq("a", "b"), seq("b", "")),  # inconsistent
        *hard_theories(rng, sigma),
    ]
    models = [list(_models(t)) for t in theories]
    cases = refuted = 0
    for _ in range(3000):
        j = rng.randrange(len(theories))
        t, n = theories[j], len(theories[j].types)
        if rng.random() < 0.05:
            g = d = 0
        else:
            p = rng.choice((0.1, 0.25, 0.5))
            g = sum(1 << k for k in range(n) if rng.random() < p)
            d = sum(1 << k for k in range(n) if rng.random() < p)
            if rng.random() < 0.7:
                d &= ~g  # the rest may overlap: those hold in every state
        expected = any(x & g == g and not x & d for x in models[j])
        assert t._compiled.refutes(g, d) == expected, (t, g, d)
        cases += 1
        refuted += expected
    for t in theories:
        kept, n = t._compiled._models, len(t.types)
        assert all(x >> n == 0 for x in kept)
        # each axiom int is g << n | d
        assert all(p >> n & ~x or p & ((1 << n) - 1) & x for x in kept for p in t._masks)
    assert 0 < refuted < cases
    print(f"refutes on {len(theories)} theories: {cases} cases, {refuted} refuted")


def test_compiled_clauses_are_their_axioms_in_watch_order():
    # the hard theories above, renamed into 96 types, so that an axiom int
    # g << 96 | d spans several 30-bit digits: each watch list of a fresh
    # engine holds the clauses built on their own from the axioms' names,
    # in axiom order, and the engine refutes what the 8-type models refute
    rng = random.Random(0x5EED)
    sigma, wide = [f"t{k}" for k in range(8)], [f"u{k:02d}" for k in range(96)]
    refuted = 0
    for small in hard_theories(rng, sigma):
        f = dict(zip(sigma, rng.sample(wide, 8)))
        t = SequentTheory(wide, [Sequent({f[x] for x in a.antecedent}, {f[x] for x in a.consequent})
                                 for a in small.axioms])
        assert max(t._masks).bit_length() > 4 * 30
        index, engine = t._index, CompiledTheory(t)
        clauses = sorted(
            ((bits_of(index, a.antecedent), bits_of(index, a.consequent)),
             sorted([2 * index[x] + 1 for x in a.antecedent] + [2 * index[x] for x in a.consequent]))
            for a in t.axioms if a.antecedent.isdisjoint(a.consequent))
        watches = [[] for _ in range(2 * len(wide))]
        for _, clause in clauses:
            assert len(clause) == 3
            watches[clause[0]].append(clause)
            watches[clause[1]].append(clause)
        assert engine._watches == watches

        models = list(_models(small))
        for _ in range(200):
            ant, con = ([x for x in sigma if rng.random() < 0.2] for _ in range(2))
            g, d = bits_of(small._index, ant), bits_of(small._index, con)
            expected = any(x & g == g and not x & d for x in models)
            assert engine.refutes(bits_of(index, map(f.get, ant)), bits_of(index, map(f.get, con))) == expected
            refuted += expected
        assert all(x >> len(wide) == 0 for x in engine._models)
        assert all(p >> 96 & ~x or p & ((1 << 96) - 1) & x for x in engine._models for p in t._masks)
    assert 0 < refuted < 5 * 200
    print(f"refutes on 5 renamed theories: {5 * 200} cases, {refuted} refuted")


def test_compiled_theory_serves_concurrent_queries():
    # threads share one compiled theory; an entailed query propagates along
    # the chain, and another thread's search running meanwhile would see
    # and undo its assignments
    m = 400
    types = [f"c{k:03d}" for k in range(m)]
    t = SequentTheory(types, [Sequent({types[k + 1]}, {types[k]}) for k in range(m - 1)])
    rng = random.Random(0x7EAD)
    pairs = [tuple(rng.sample(range(m), 2)) for _ in range(200)]
    wrong = []

    def work(offset):
        try:
            for k in range(len(pairs)):
                a, b = pairs[(k * 7 + offset) % len(pairs)]
                if entails(t, Sequent({types[a]}, {types[b]})) != (a > b):
                    wrong.append((a, b))
        except Exception as exc:  # a corrupted search may fail outright
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not wrong


def test_theory_pickles_after_queries():
    t = theory("a b", seq("a", "b"))
    assert entails(t, seq("a", "a b"))
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t
    assert entails(copy, seq("a", "b")) and not entails(copy, seq("b", "a"))


# ---------------------------------------------------------------------------
# closure

def test_close_empty_theory_single_type():
    closed = close(theory("h"))
    assert closed.axioms == {seq("h", "h")}


def test_close_is_idempotent_small():
    rng = random.Random(11)
    for _ in range(40):
        t = support.rand_theory(rng, [f"t{k}" for k in range(rng.randint(0, 3))], 2)
        once = close(t)
        assert close(once) == once


def test_close_of_inconsistent_theory_is_everything():
    t = bottom_theory({"a", "b"})
    assert len(close(t).axioms) == 4 ** 2


def test_close_cap():
    t = top_theory({f"t{k}" for k in range(9)})
    with pytest.raises(CapExceeded) as err:
        close(t)
    assert err.value.required == 4 ** 9


def test_close_charges_the_cap_before_enumerating_states():
    # 2^40 states: a closure that enumerated them before the cap would not end
    t = top_theory({f"t{k}" for k in range(40)})
    start = time.monotonic()
    with pytest.raises(CapExceeded) as err:
        close(t)
    assert time.monotonic() - start < 1
    assert (err.value.phase, err.value.required) == ("theory closure", 4 ** 40)


def test_theory_of_states_charges_the_cap_before_reading_states():
    def unread():
        raise AssertionError("states read before the cap")
        yield

    start = time.monotonic()
    with pytest.raises(CapExceeded) as err:
        theory_of_states([f"t{k}" for k in range(40)], unread())
    assert time.monotonic() - start < 1
    assert (err.value.phase, err.value.required) == ("theory materialization", 4 ** 40)


def test_mask_kernel_matches_plain_scans():
    rng = random.Random(0x3A5C)
    state_sets = theories = 0
    for n in range(6):
        types = [f"t{k}" for k in range(n)]
        subsets = list(all_states(types))
        # the empty state set first; random draws repeat states
        draws = [[]] + [
            [rng.choice(subsets) for _ in range(rng.randint(1, 2 ** n + 2))]
            for _ in range(8 if n < 5 else 3)
        ]
        for states in draws:
            expected = support.plain_theory_of_states(types, states)
            assert theory_of_states(types, states).axioms == expected
            state_sets += 1
            t = support.rand_theory(rng, types, max_axioms=2 * n)
            models = support.plain_satisfying_states(t)
            assert satisfying_states(t) == models
            assert close(t).axioms == support.plain_theory_of_states(types, models)
            theories += 1
    print(f"mask kernel vs plain scans: {state_sets} state sets, {theories} theories, 0-5 types")


def test_tautology_characterization_small():
    for n in range(0, 4):
        types = frozenset(f"t{k}" for k in range(n))
        closed = close(top_theory(types))
        expected = frozenset(
            Sequent(g, d) for g in all_states(types) for d in all_states(types) if g & d
        )
        assert closed.axioms == expected


def test_closure_contains_identity_and_weakening():
    rng = random.Random(13)
    for _ in range(25):
        types = frozenset(f"t{k}" for k in range(rng.randint(1, 3)))
        closed = close(support.rand_theory(rng, types, 2))
        for t in types:
            assert Sequent({t}, {t}) in closed.axioms
        for a in closed.axioms:
            for extra in all_states(types):
                assert Sequent(a.antecedent | extra, a.consequent) in closed.axioms
                assert Sequent(a.antecedent, a.consequent | extra) in closed.axioms


def test_closure_satisfies_global_cut():
    # if every way of splitting a spare set across the two sides is a
    # theorem, the bare sequent is one too
    rng = random.Random(137)
    for _ in range(20):
        types = frozenset(f"t{k}" for k in range(rng.randint(1, 3)))
        closed = close(support.rand_theory(rng, types, 2)).axioms
        for g in all_states(types):
            for d in all_states(types):
                for spare in all_states(types - g - d):
                    partitions_hold = all(
                        Sequent(g | part, d | (spare - part)) in closed
                        for part in all_states(spare)
                    )
                    if partitions_hold:
                        assert Sequent(g, d) in closed


# ---------------------------------------------------------------------------
# order, top and bottom

def test_theory_leq_reflexive():
    t = theory("a b", seq("a", "b"))
    assert theory_leq(t, t)


def test_bottom_below_everything_top_above_everything():
    rng = random.Random(17)
    sigma = {"a", "b", "c"}
    for _ in range(25):
        t = support.rand_theory(rng, sigma, 3)
        assert theory_leq(bottom_theory(sigma), t)
        assert theory_leq(t, top_theory(sigma))
    assert theory_leq(top_theory(sigma), top_theory(sigma))
    assert theory_leq(bottom_theory(sigma), top_theory(sigma))


def test_theory_leq_language_mismatch():
    with pytest.raises(IfkError, match="language"):
        theory_leq(theory("a"), theory("b"))


def test_leq_agrees_with_closure_containment():
    rng = random.Random(19)
    for _ in range(40):
        sigma = frozenset(f"t{k}" for k in range(rng.randint(0, 3)))
        t1 = support.rand_theory(rng, sigma, 2)
        t2 = support.rand_theory(rng, sigma, 2)
        assert theory_leq(t1, t2) == (close(t1).axioms >= close(t2).axioms)


def test_leq_agrees_with_enumeration_against_closures():
    # t2 is often a closure, so most of its axioms follow by weakening from
    # another of its axioms; the order skips those and must not err
    rng = random.Random(23)
    outcomes = []
    for _ in range(60):
        sigma = frozenset(f"t{k}" for k in range(rng.randint(0, 5)))
        t1 = support.rand_theory(rng, sigma, 4)
        states = [frozenset(t for t in sigma if rng.random() < 0.5) for _ in range(rng.randint(0, 6))]
        for t2 in (close(support.rand_theory(rng, sigma, 3)), theory_of_states(sigma, states),
                   SequentTheory(sigma, close(t1).axioms), support.rand_theory(rng, sigma, 4)):
            expected = all(entails_by_enumeration(t1, a) for a in t2.axioms)
            assert theory_leq(t1, t2) == expected
            outcomes.append(expected)
    assert 0.2 < sum(outcomes) / len(outcomes) < 0.8


def test_closure_laws_randomized_four_types():
    rng = random.Random(0x5EED)
    sigma = frozenset({"a", "b", "c", "d"})
    for _ in range(200):
        t1 = support.rand_theory(rng, sigma, 2)
        extra = support.rand_sequent(rng, sigma)
        t2 = SequentTheory(sigma, t1.axioms | {extra})
        c1, c2 = close(t1), close(t2)
        assert t1.axioms <= c1.axioms
        assert all(entails(t1, a) for a in c1.axioms)
        assert close(c1) == c1
        assert c1.axioms <= c2.axioms  # monotone in the axiom set
    print("closure laws at four types: 200 seeds")


def test_closure_operator_laws_exhaustive_tiny():
    # increasing, monotone, idempotent over one small language
    sigma = frozenset({"a", "b"})
    sequents = [Sequent(g, d) for g in all_states(sigma) for d in all_states(sigma)]
    singles = [SequentTheory(sigma, {s}) for s in sequents]
    for t in singles:
        closed = close(t)
        assert t.axioms <= closed.axioms
        assert all(entails(t, a) for a in closed.axioms)
        assert close(closed) == closed
        weaker = SequentTheory(sigma, frozenset())
        assert close(weaker).axioms <= closed.axioms


# ---------------------------------------------------------------------------
# lattice-of-theories moves

def test_expand_then_contract_round_trip():
    t = theory("a b", seq("a", "b"))
    added = seq("b", "a")
    assert contract(expand(t, [added]), [added]) == t


def test_expand_specializes():
    t = theory("a b", seq("a", "b"))
    assert theory_leq(expand(t, [seq("b", "a")]), t)


def test_contract_unknown_axiom():
    with pytest.raises(IfkError, match="unknown axiom"):
        contract(theory("a b"), [seq("a", "b")])


def test_expand_outside_language():
    with pytest.raises(IfkError, match="outside the language"):
        expand(theory("a"), [seq("z", "")])


def test_revise_is_contract_then_expand():
    t = theory("a b", seq("a", "b"))
    revised = revise(t, delete=[seq("a", "b")], add=[seq("b", "a")])
    assert revised.axioms == {seq("b", "a")}


def test_analogy_renames_pointwise():
    t = theory("h p", seq("h", "p"))
    renamed = analogy(t, {"h": "person", "p": "mortal"})
    assert renamed.types == {"person", "mortal"}
    assert renamed.axioms == {seq("person", "mortal")}


def test_analogy_requires_bijection():
    t = theory("h p", seq("h", "p"))
    with pytest.raises(IfkError, match="bijection"):
        analogy(t, {"h": "u", "p": "u"})
    with pytest.raises(IfkError, match="exactly the language"):
        analogy(t, {"h": "u"})


def test_analogy_round_trip_preserves_entailment():
    rng = random.Random(23)
    for _ in range(20):
        sigma = ["a", "b", "c"]
        t = support.rand_theory(rng, sigma, 2)
        fwd = {"a": "x", "b": "y", "c": "z"}
        back = {v: k for k, v in fwd.items()}
        assert analogy(analogy(t, fwd), back) == t


# ---------------------------------------------------------------------------
# theory morphisms

def test_identity_map_is_morphism():
    t = theory("a b", seq("a", "b"))
    assert check_theory_morphism({"a": "a", "b": "b"}, t, t).ok


def test_collapsing_map_onto_identity_sequent():
    t1 = theory("x", seq("x", "x"))
    t2 = theory("h p")
    assert check_theory_morphism({"x": "h"}, t1, t2).ok


def test_failing_morphism_lists_axiom():
    t1 = theory("x y", seq("x", "y"))
    t2 = theory("h p")
    result = check_theory_morphism({"x": "h", "y": "p"}, t1, t2)
    assert not result.ok
    assert result.defects == (seq("x", "y"),)


def test_morphism_requires_total_map():
    with pytest.raises(IfkError, match="not total"):
        check_theory_morphism({}, theory("x"), theory("h"))


# ---------------------------------------------------------------------------
# flat theories

def test_flat_closure_clf_a(clf_a):
    ft = FlatTheory(clf_a.types, {"human"})
    assert flat_closure(clf_a, ft).members == {"human", "philosopher"}


def test_flat_closure_of_empty_is_empty(clf_a):
    ft = FlatTheory(clf_a.types, frozenset())
    assert flat_closure(clf_a, ft).members == frozenset()


def test_flat_entails_reflexive(clf_a):
    ft = FlatTheory(clf_a.types, {"car"})
    assert flat_entails(clf_a, ft, "car")


def test_flat_language_mismatch(clf_a):
    with pytest.raises(IfkError, match="language mismatch"):
        flat_entails(clf_a, FlatTheory({"t"}, {"t"}), "t")


def test_flat_closure_is_a_closure_operator():
    rng = random.Random(29)
    for _ in range(30):
        c = support.rand_classification(rng, 4, 4)
        subsets = [frozenset()]
        for t in sorted(c.types):
            subsets += [s | {t} for s in subsets]
        for members in subsets:
            ft = FlatTheory(c.types, members)
            closed = flat_closure(c, ft)
            assert members <= closed.members
            assert flat_closure(c, closed) == closed
            for other in subsets:
                if members <= other:
                    assert closed.members <= flat_closure(c, FlatTheory(c.types, other)).members


# ---------------------------------------------------------------------------
# canonical form

def test_sequents_deduplicate_and_compare_by_content():
    assert seq("a a b", "c") == Sequent(["b", "a"], ["c"])
    assert sequent_key(seq("b a", "c")) == (("a", "b"), ("c",))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Sequent("human", ["mortal"]),
        lambda: Sequent(["human"], "mortal"),
        lambda: Sequent("", ""),
        lambda: SequentTheory("hm", []),
        lambda: FlatTheory("hm", []),
        lambda: FlatTheory(["h", "m"], "h"),
    ],
)
def test_a_string_is_not_a_set_of_names(make):
    # iterating "human" would give the names h, u, m, a and n
    with pytest.raises(IfkError, match="not the string"):
        make()


def test_sets_of_names_of_any_kind_are_frozen():
    s = Sequent(["human"], ("mortal",))
    assert s == Sequent(frozenset({"human"}), frozenset({"mortal"}))
    assert SequentTheory(["human", "mortal"], [s]).types == {"human", "mortal"}
    assert FlatTheory({"h", "m"}, ["h"]) == FlatTheory(frozenset("hm"), frozenset("h"))


@given(st.integers(min_value=0, max_value=10**6))
def test_random_theory_axioms_stay_inside_language(seed):
    rng = random.Random(seed)
    t = support.rand_theory(rng, ["a", "b", "c"], 3)
    for a in t.axioms:
        assert a.types() <= t.types
