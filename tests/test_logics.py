import random
import time
from functools import partial

import pytest

import ifk.logics
from ifk import (
    CapExceeded,
    Classification,
    IfkError,
    LocalLogic,
    SequentTheory,
    close,
    entails,
    identity_infomorphism,
    intent,
    is_complete,
    is_sound,
    logic_direct_image,
    logic_inverse_image,
    logic_leq,
    natural_entails,
    natural_logic,
    normalize,
    restriction,
)
from ifk.theories import all_states, satisfying_states, Sequent

import support
from conftest import seq


def test_logic_invariant_rejects_violating_normal_instance(clf_a):
    with pytest.raises(IfkError, match="violates"):
        LocalLogic(clf_a, SequentTheory(clf_a.types, {seq("car", "human")}), {"civic87"})


def test_logic_invariant_allows_vacuous_normal_instance(clf_a):
    # aristotle is not classified car, so the axiom holds of it vacuously
    logic = LocalLogic(clf_a, SequentTheory(clf_a.types, {seq("car", "human")}), {"aristotle"})
    assert logic.normal == {"aristotle"}


def test_natural_logic_of_instance_free_classification():
    c = Classification("void", [], ["t"], [])
    logic = natural_logic(c)
    assert len(logic.theory.axioms) == 4  # every sequent, vacuously satisfied
    assert seq("", "") in logic.theory.axioms


def test_natural_logic_clf_a(clf_a):
    logic = natural_logic(clf_a)
    assert entails(logic.theory, seq("human", "philosopher"))
    assert natural_entails(clf_a, seq("human", "philosopher"))
    assert not natural_entails(clf_a, seq("human", "car"))


def test_natural_logic_sound_and_complete(clf_a, diagonal_clf, empty_clf):
    for c in (clf_a, diagonal_clf, empty_clf):
        logic = natural_logic(c)
        assert is_sound(logic)
        assert is_complete(logic)


def test_unsound_logic(clf_a):
    logic = LocalLogic(clf_a, SequentTheory(clf_a.types, {seq("car", "human")}), {"aristotle"})
    assert not is_sound(logic)


def test_empty_theory_sound_but_incomplete(clf_a):
    logic = LocalLogic(clf_a, SequentTheory(clf_a.types, frozenset()), clf_a.instances)
    assert is_sound(logic)
    assert not is_complete(logic)  # human |- philosopher is satisfied but not entailed


def test_is_complete_matches_direct_definition():
    # oracle: quantify over every sequent of the language
    rng = random.Random(67)
    for _ in range(40):
        c = support.rand_classification(rng, 3, 3)
        theory = support.rand_theory(rng, c.types, 2)
        logic = normalize(LocalLogic(c, theory, frozenset()))
        normal_states = [frozenset(t for t in c.types if (i, t) in c.incidence) for i in logic.normal]
        direct = all(
            entails(theory, Sequent(g, d))
            for g in all_states(c.types)
            for d in all_states(c.types)
            if all(not (g <= x and d.isdisjoint(x)) for x in normal_states)
        )
        assert is_complete(logic) == direct


def test_is_complete_agrees_with_satisfying_states():
    # theories that exclude chosen states one sequent each, over up to 6 types
    rng = random.Random(173)
    outcomes = []
    for _ in range(300):
        c = support.rand_classification(rng, 6, 6)
        states = list(all_states(c.types))
        kept = {x for x in [*map(partial(intent, c), c.instances), rng.choice(states)] if rng.random() < 0.7}
        excluded = [Sequent(x, c.types - x) for x in states if x not in kept and rng.random() < 0.9]
        theory = SequentTheory(c.types, excluded)
        normal = {i for i in normalize(LocalLogic(c, theory, frozenset())).normal if rng.random() < 0.8}
        expected = set(satisfying_states(theory)) <= {intent(c, i) for i in normal}
        assert is_complete(LocalLogic(c, theory, normal)) == expected
        outcomes.append(expected)
    assert 60 < sum(outcomes) < 240


def test_is_complete_asks_the_engine_once(monkeypatch):
    # 2^20 states: a scan of them took seconds
    types = [f"t{k:02d}" for k in range(20)]
    c = Classification("c", ["a", "b"], types, [("a", t) for t in types[::2]] + [("b", t) for t in types[:3]])
    pinned = SequentTheory(types, [seq("", t) if k % 2 == 0 else seq(t, "") for k, t in enumerate(types)])
    queries = []
    consistent = ifk.logics.is_consistent
    monkeypatch.setattr(ifk.logics, "is_consistent", lambda t: queries.append(t) or consistent(t))
    start = time.perf_counter()
    assert is_complete(LocalLogic(c, pinned, {"a"}))
    assert time.perf_counter() - start < 0.1
    assert not is_complete(LocalLogic(c, SequentTheory(types, []), {"a", "b"}))
    assert len(queries) == 2


def test_restriction_drops_refuted_axiom(clf_a):
    # civic87 is a car and not a human, so the axiom is not a fact of the
    # classification and the restriction cannot keep it
    logic = LocalLogic(clf_a, SequentTheory(clf_a.types, {seq("car", "human")}), frozenset())
    restricted = restriction(logic)
    assert is_sound(restricted)
    assert seq("car", "human") not in restricted.theory.axioms
    assert not entails(restricted.theory, seq("car", "human"))


def test_restriction_charges_the_cap_before_enumerating_states():
    types = [f"t{k}" for k in range(40)]
    c = Classification("wide", ["i"], types, [("i", "t0")])
    logic = LocalLogic(c, SequentTheory(types, frozenset()), {"i"})
    start = time.monotonic()
    with pytest.raises(CapExceeded) as err:
        restriction(logic)
    assert time.monotonic() - start < 1
    assert (err.value.phase, err.value.required) == ("logic restriction", 4 ** 40)


def test_natural_logic_charges_the_cap_before_enumerating_states():
    types = [f"t{k}" for k in range(40)]
    c = Classification("wide", ["i", "j"], types, [("i", "t0"), ("j", "t39")])
    start = time.monotonic()
    with pytest.raises(CapExceeded) as err:
        natural_logic(c)
    assert time.monotonic() - start < 1
    assert (err.value.phase, err.value.required) == ("natural logic", 4 ** 40)


def test_restriction_of_natural_logic_is_natural(clf_a):
    nat = natural_logic(clf_a)
    assert restriction(nat).theory == nat.theory


def test_restriction_theory_is_intersection(clf_a):
    logic = LocalLogic(clf_a, SequentTheory(clf_a.types, {seq("car", "human")}), frozenset())
    restricted = restriction(logic)
    nat = natural_logic(clf_a)
    closed = close(logic.theory)
    assert restricted.theory.axioms == nat.theory.axioms & closed.axioms


def test_normalize_clf_a(clf_a):
    logic = normalize(
        LocalLogic(clf_a, SequentTheory(clf_a.types, {seq("car", "human")}), frozenset())
    )
    assert logic.normal == {"aristotle"}
    assert normalize(logic) == logic


def test_normalize_of_sound_logic_keeps_everything(clf_a):
    logic = normalize(LocalLogic(clf_a, SequentTheory(clf_a.types, frozenset()), frozenset()))
    assert logic.normal == clf_a.instances


def test_normalize_keeps_exactly_the_satisfying_instances():
    from ifk import intent
    from ifk.theories import _sat

    rng = random.Random(131)
    for _ in range(40):
        c = support.rand_classification(rng, 3, 3)
        theory = support.rand_theory(rng, c.types, 2)
        logic = normalize(LocalLogic(c, theory, frozenset()))
        for i in c.instances:
            satisfies = all(
                _sat(a.antecedent, a.consequent, intent(c, i)) for a in theory.axioms
            )
            assert (i in logic.normal) == satisfies


def test_each_logic_scans_its_instances_once(clf_a, monkeypatch):
    import ifk.logics

    calls = []
    scan = ifk.logics._violating
    monkeypatch.setattr(ifk.logics, "_violating", lambda *args: calls.append(1) or scan(*args))
    theory = SequentTheory(clf_a.types, {seq("car", "human")})
    logic = normalize(LocalLogic(clf_a, theory, frozenset()))
    assert not is_sound(logic) and logic.normal == {"aristotle"}
    # one scan for the given logic; the normalized one shares its violators
    assert len(calls) == 1
    # a logic built explicitly scans again, and its check still refuses
    with pytest.raises(IfkError, match="normal instance civic87 violates"):
        LocalLogic(clf_a, theory, frozenset({"civic87"}))
    assert len(calls) == 2


@pytest.mark.parametrize("seed", range(6))
def test_natural_and_restricted_logics_scan_no_theorem(monkeypatch, seed):
    # their theories are made from states every instance satisfies, so
    # neither has a violator to find; a plain logic over the same theory
    # scans once and finds none
    rng = random.Random(seed)
    c = support.rand_classification(rng, 6, 5, min_instances=1)
    given = LocalLogic(c, support.rand_theory(rng, c.types, 4, 2), frozenset())
    calls = []
    scan = ifk.logics._violating
    monkeypatch.setattr(ifk.logics, "_violating", lambda *args: calls.append(1) or scan(*args))
    for make in (partial(natural_logic, c), partial(restriction, given)):
        logic = make()
        assert calls == [] and is_sound(logic) and logic.normal == c.instances
        plain = LocalLogic(c, logic.theory, c.instances)
        assert len(calls) == 1 and is_sound(plain) and plain == logic
        calls.clear()


def test_identity_images_are_identity(clf_a):
    ident = identity_infomorphism(clf_a)
    logic = natural_logic(clf_a)
    fwd = logic_direct_image(ident, logic)
    assert fwd.theory == logic.theory and fwd.normal == logic.normal
    back = logic_inverse_image(ident, logic)
    assert close(back.theory) == close(logic.theory) and back.normal == logic.normal


def test_direct_image_preserves_soundness():
    rng = random.Random(71)
    for _ in range(60):
        f = support.rand_infomorphism(rng, max_size=2)
        theory = support.sound_theory(rng, f.source, 2)
        logic = normalize(LocalLogic(f.source, theory, frozenset()))
        assert is_sound(logic)
        assert is_sound(logic_direct_image(f, logic))


def test_inverse_image_preserves_completeness():
    rng = random.Random(73)
    for _ in range(60):
        f = support.rand_infomorphism(rng, max_size=2)
        nat = natural_logic(f.target)
        sub_normal = frozenset(
            i for i in sorted(f.target.instances) if rng.random() < 0.7
        )
        from ifk.theories import theory_of_states
        from ifk import intent

        theory = theory_of_states(
            f.target.types, [intent(f.target, i) for i in sub_normal]
        )
        logic = LocalLogic(f.target, theory, sub_normal)
        assert is_complete(logic)
        assert is_complete(logic_inverse_image(f, logic))
        assert is_complete(logic_inverse_image(f, nat))


def test_logic_leq_reflexive(clf_a):
    logic = natural_logic(clf_a)
    assert logic_leq(logic, logic)


def test_natural_logic_below_empty_theory_logic(clf_a):
    nat = natural_logic(clf_a)
    weak = LocalLogic(clf_a, SequentTheory(clf_a.types, frozenset()), clf_a.instances)
    assert logic_leq(nat, weak)
    assert not logic_leq(weak, nat)


def test_shrinking_normal_breaks_leq_one_way(clf_a):
    weak_all = LocalLogic(clf_a, SequentTheory(clf_a.types, frozenset()), clf_a.instances)
    weak_some = LocalLogic(clf_a, SequentTheory(clf_a.types, frozenset()), {"aristotle"})
    assert logic_leq(weak_all, weak_some)
    assert not logic_leq(weak_some, weak_all)


def test_logic_leq_requires_same_classification(clf_a, diagonal_clf):
    with pytest.raises(IfkError, match="shared classification"):
        logic_leq(natural_logic(clf_a), natural_logic(diagonal_clf))


def test_sound_complete_logics_close_to_the_natural_theory():
    rng = random.Random(79)
    for _ in range(40):
        c = support.rand_classification(rng, 3, 3)
        nat = natural_logic(c)
        theory = support.sound_theory(rng, c, 3)
        logic = normalize(LocalLogic(c, theory, frozenset()))
        if is_sound(logic) and is_complete(logic):
            assert close(logic.theory) == close(nat.theory)


def _scrambled_classifications(rng, count):
    """The empty edge cases, then random classifications whose names sort
    differently from their construction order (i10 < i2) and whose intents
    come from a pool of three, so that some repeat."""
    yield Classification("C", [], [], [])
    yield Classification("C", [], ["t10", "t2"], [])
    yield Classification("C", ["i2", "i10"], [], [])
    for _ in range(count):
        instances = [f"i{k}" for k in rng.sample(range(12), rng.randint(0, 12))]
        types = [f"t{k}" for k in rng.sample(range(12), rng.randint(0, 4))]
        pool = [[t for t in types if rng.random() < 0.5] for _ in range(3)]
        yield Classification("C", instances, types, [(i, t) for i in instances for t in rng.choice(pool)])


def test_mask_readers_match_plain_scans():
    from ifk import lift_to_theory_classification
    from ifk.theories import _sat

    rng = random.Random(149)
    cases = 0
    for c in _scrambled_classifications(rng, 120):
        intents = {i: frozenset(t for j, t in c.incidence if j == i) for i in c.instances}
        subsets = list(all_states(c.types))
        lifted = lift_to_theory_classification(c)
        name = {s: "{" + ",".join(sorted(s)) + "}" for s in subsets}
        assert lifted.types == frozenset(name.values())
        assert lifted.incidence == {(i, name[s]) for i, x in intents.items() for s in subsets if s <= x}
        nat = natural_logic(c)
        assert nat.theory.axioms == support.plain_theory_of_states(c.types, intents.values())
        for _ in range(3):
            t = support.rand_theory(rng, c.types, 3)
            violators = {
                i for i, x in intents.items()
                if not all(_sat(a.antecedent, a.consequent, x) for a in t.axioms)
            }
            normal = {i for i in c.instances - violators if rng.random() < 0.6}
            logic = LocalLogic(c, t, normal)
            assert logic._violators == violators
            assert is_sound(logic) == (not violators)
            assert normalize(logic).normal == c.instances - violators
            models = support.plain_satisfying_states(t)
            assert is_complete(logic) == all(x in {intents[i] for i in normal} for x in models)
            restricted = restriction(logic)
            expected = support.plain_theory_of_states(c.types, [*intents.values(), *models])
            assert restricted.theory.axioms == expected
            assert restricted.normal == c.instances
            cases += 1
    print(f"mask readers vs plain scans: {cases} logics")
