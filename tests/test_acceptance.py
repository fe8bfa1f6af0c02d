"""End-to-end acceptance checks, one test per shipped guarantee.

Every test prints a single PASS line when it completes (run with -s to
see them); a failure surfaces through the assert itself.  Randomized
checks use fixed seeds so the suite is reproducible.
"""

import itertools
import json
import random
import time

from ifk import (
    Classification,
    FlatTheory,
    InformationSystem,
    LocalLogic,
    Sequent,
    SequentTheory,
    borrowing_holds,
    check_infomorphism,
    close,
    compose_infomorphisms,
    direct_flow,
    entails,
    entails_by_enumeration,
    integrate,
    intent,
    inverse_flow,
    is_complete,
    is_monocosmic,
    is_pointwise_consistent,
    is_polycosmic,
    is_sound,
    logic_direct_image,
    logic_inverse_image,
    mediating_morphism,
    natural_logic,
    normalize,
    sum_classification,
    system_entails,
    system_leq,
    theory_leq,
    top_theory,
    validate_system,
)
from ifk.cli import run
from ifk.closure import theory_of_states
from ifk.fca import concepts, lattice
from ifk.logics import attribute_concept, derive, object_concept
from ifk.oracles import _sat, all_states, concepts_by_enumeration
from ifk.integration import bounded_sequents
from ifk.systems import VERDICT_POLYCOSMIC

import support
from conftest import FIXTURES, clash_system, seq, vee_system
from test_diagrams import count_factorizing_morphisms


def _done(name: str, detail: str = ""):
    print(f"acceptance {name}: PASS {detail}".rstrip())


def test_c01_entailment_engine_matches_enumeration_oracle():
    start = time.monotonic()
    rng = random.Random(0xC0FFEE01)
    for _ in range(500):
        n = rng.randint(0, 10)
        types = [f"t{k}" for k in range(n)]
        t = support.rand_theory(rng, types, max_axioms=6)
        s = support.rand_sequent(rng, types)
        assert entails(t, s) == entails_by_enumeration(t, s)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _done("01 entailment-oracle-equivalence", f"500 pairs in {elapsed:.1f}s")


def test_c02_closure_laws_exhaustive():
    start = time.monotonic()
    memo = {}

    def closed(t):
        key = (t.types, t.axioms)
        if key not in memo:
            memo[key] = close(t)
        return memo[key]

    for n in range(0, 4):
        types = frozenset(f"t{k}" for k in range(n))
        sequents = [Sequent(g, d) for g in all_states(types) for d in all_states(types)]
        theories = [SequentTheory(types, frozenset())]
        theories += [SequentTheory(types, {s}) for s in sequents]
        theories += [
            SequentTheory(types, {s1, s2})
            for s1, s2 in itertools.combinations(sequents, 2)
        ]
        for t in theories:
            ct = closed(t)
            # increasing: every axiom survives into the closure, and the
            # closure holds only entailed sequents
            assert t.axioms <= ct.axioms
            assert all(entails(t, a) for a in ct.axioms)
            # idempotent
            assert closed(ct) == ct
            # monotone over every subset of the axioms
            for r in range(len(t.axioms) + 1):
                for sub in itertools.combinations(sorted(t.axioms, key=repr), r):
                    assert closed(SequentTheory(types, frozenset(sub))).axioms <= ct.axioms
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _done("02 closure-laws", f"|types| <= 3, <= 2 axioms in {elapsed:.1f}s")


def test_c03_tautology_characterization():
    for n in range(0, 5):
        types = frozenset(f"t{k}" for k in range(n))
        expected = frozenset(
            Sequent(g, d)
            for g in all_states(types)
            for d in all_states(types)
            if g & d
        )
        assert close(top_theory(types)).axioms == expected
    _done("03 tautology-characterization", "|types| <= 4 exact")


def test_c04_flow_adjunction():
    rng = random.Random(0xC0FFEE04)
    for _ in range(200):
        src = [f"x{k}" for k in range(rng.randint(0, 4))]
        dst = [f"u{k}" for k in range(rng.randint(1, 4))]
        f = support.rand_type_map(rng, src, dst)
        t = support.rand_theory(rng, src, 3)
        t_prime = support.rand_theory(rng, dst, 3)
        lhs = theory_leq(inverse_flow(f, t_prime, t.types).materialize(), t)
        rhs = theory_leq(t_prime, direct_flow(f, t, t_prime.types))
        assert lhs == rhs
    _done("04 flow-adjunction", "200 triples, |types| <= 4")


def test_c05_borrowing():
    rng = random.Random(0xC0FFEE05)
    for _ in range(200):
        f = support.rand_infomorphism(rng, max_size=3, surjective_instances=True)
        subsets = [frozenset()]
        for t in sorted(f.source.types):
            subsets += [s | {t} for s in subsets]
        for members in subsets:
            for t in f.source.types:
                assert borrowing_holds(f, FlatTheory(f.source.types, members), t)
    # a non-surjective instance map admits a counterexample, found by search
    found = None
    for attempt in range(5000):
        f = support.rand_infomorphism(rng, max_size=3, surjective_instances=False)
        subsets = [frozenset()]
        for t in sorted(f.source.types):
            subsets += [s | {t} for s in subsets]
        for members in subsets:
            for t in sorted(f.source.types):
                if not borrowing_holds(f, FlatTheory(f.source.types, members), t):
                    found = (f, members, t)
                    break
            if found:
                break
        if found:
            break
    assert found is not None
    _done("05 borrowing", f"200 surjective cases; counterexample after {attempt + 1} draws")


def test_c06_logic_transport():
    rng = random.Random(0xC0FFEE06)
    for _ in range(200):
        f = support.rand_infomorphism(rng, max_size=3)
        sound = normalize(LocalLogic(f.source, support.sound_theory(rng, f.source, 2), frozenset()))
        assert is_sound(sound)
        assert is_sound(logic_direct_image(f, sound))
        normal = frozenset(i for i in sorted(f.target.instances) if rng.random() < 0.7)
        complete_theory = theory_of_states(
            f.target.types, [intent(f.target, i) for i in normal]
        )
        complete = LocalLogic(f.target, complete_theory, normal)
        assert is_complete(complete)
        assert is_complete(logic_inverse_image(f, complete))
    _done("06 logic-transport", "200 infomorphism/logic pairs")


def test_c07_colimit_universal_property():
    start = time.monotonic()
    rng = random.Random(0xC0FFEE07)
    checked = 0
    attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts < 2000
        d = support.rand_cls_diagram(rng, max_nodes=3, max_size=2)
        ch = sum_classification(d)
        j = support.rand_infomorphism_from(rng, ch.core, max_extra_types=0, max_instances=2)
        other = support.postcompose_channel(ch, j)
        m = mediating_morphism(ch, other, d)
        assert check_infomorphism(m).ok
        for n in d.shape.nodes:
            composed = compose_infomorphisms(ch.legs[n], m)
            assert composed.type_map == other.legs[n].type_map
            assert composed.instance_map == other.legs[n].instance_map
        assert count_factorizing_morphisms(ch, other, d) == 1
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _done("07 colimit-universal-property", f"100 diagrams in {elapsed:.1f}s")


def test_c08_flagship_vee_integration():
    vee = vee_system()
    result = integrate(vee, delta_bound=1)
    assert seq("philosopher", "mortal_gr") in result.deltas["O2"]
    assert result.deltas["O1"] == ()
    # the O1 axiom also lands on O2 because human is identified with person
    assert set(result.deltas["O2"]) == {
        seq("philosopher", "mortal_gr"),
        seq("human", "mortal_gr"),
    }
    status, report = run(
        ["integrate", "--system", "vee", "--delta-bound", "1", str(FIXTURES / "vee.json")]
    )
    assert status == 0
    frozen = (FIXTURES / "reports" / "vee_integrate_bound1.json").read_text()
    assert report == frozen
    doc = json.loads(report)
    assert {"ant": ["philosopher"], "con": ["mortal_gr"]} in doc["deltas"]["O2"]
    assert doc["deltas"]["O1"] == []
    _done("08 flagship-vee-integration", "byte-exact report")


def test_c09_polycosmic_detection():
    clash = clash_system()
    assert is_pointwise_consistent(clash)
    assert not is_monocosmic(clash)
    assert is_polycosmic(clash)
    status, report = run(["consistency", "--system", "clash", str(FIXTURES / "clash.json")])
    assert status == 0
    assert report == (FIXTURES / "reports" / "clash_consistency.json").read_text()
    assert json.loads(report) == {
        "pointwise": True,
        "monocosmic": False,
        "verdict": "polycosmic",
    }
    rng = random.Random(0xC0FFEE09)
    for _ in range(200):
        s = support.rand_system(rng)
        if is_monocosmic(s):
            assert is_pointwise_consistent(s)
    _done("09 polycosmic-detection", "fixture + 200 random systems")


def _thin(rng, s: InformationSystem) -> InformationSystem | None:
    thinned = {
        n: SequentTheory(t.types, frozenset(a for a in t.axioms if rng.random() < 0.6))
        for n, t in s.node_theory.items()
    }
    probe = InformationSystem(
        shape=s.shape, node_theory=thinned, edge_type_map=s.edge_type_map
    )
    return probe if validate_system(probe).ok else None


def _closure_system(s: InformationSystem, bound: int) -> InformationSystem:
    result = integrate(s, delta_bound=bound)
    node_theory = {
        n: SequentTheory(t.types, t.axioms | frozenset(result.deltas[n]))
        for n, t in s.node_theory.items()
    }
    return InformationSystem(
        shape=s.shape, node_theory=node_theory, edge_type_map=s.edge_type_map
    )


def test_c10_system_closure_operator_laws():
    start = time.monotonic()
    rng = random.Random(0xC0FFEE10)
    bound = 2
    checked = 0
    while checked < 50:
        s = support.rand_system(rng, max_nodes=3, max_types=3, max_axioms=2)
        # (a) increasing: the closure keeps every node's own axioms
        assert system_entails(s, s)
        # (b) monotone: a pointwise-weaker system closes to something
        # pointwise weaker, compared through bounded queries at every node
        weaker = _thin(rng, s)
        if weaker is None:
            continue
        assert system_leq(s, weaker)
        strong = integrate(s, delta_bound=bound)
        weak = integrate(weaker, delta_bound=bound)
        for n in sorted(s.shape.nodes):
            for q in bounded_sequents(s.node_theory[n].types, bound):
                if weak.closure_handles[n].entails(q):
                    assert strong.closure_handles[n].entails(q)
        # (c) idempotent: closing the materialized closure adds nothing
        closure_sys = _closure_system(s, bound)
        assert validate_system(closure_sys).ok
        again = integrate(closure_sys, delta_bound=bound)
        assert all(d == () for d in again.deltas.values())
        for n in sorted(s.shape.nodes):
            for q in bounded_sequents(s.node_theory[n].types, bound):
                assert again.closure_handles[n].entails(q) == strong.closure_handles[n].entails(q)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _done("10 system-closure-laws", f"{checked} systems in {elapsed:.1f}s")


def test_c11_fca_oracle_equivalence():
    rng = random.Random(0xC0FFEE11)
    for _ in range(100):
        c = support.rand_classification(rng, 5, 5)
        assert concepts(c) == concepts_by_enumeration(c)
        l = lattice(c)
        for concept in l.concepts:
            intents = [object_concept(c, i).intent for i in concept.extent]
            joined = (
                frozenset(c.types).intersection(*intents) if intents else frozenset(c.types)
            )
            assert derive(c, "types", joined) == concept.extent and joined == concept.intent
            extents = [attribute_concept(c, t).extent for t in concept.intent]
            met = (
                frozenset(c.instances).intersection(*extents)
                if extents
                else frozenset(c.instances)
            )
            assert met == concept.extent and derive(c, "instances", met) == concept.intent
    clf_a = Classification(
        "CLF-A",
        ["aristotle", "civic87"],
        ["human", "philosopher", "car"],
        [("aristotle", "human"), ("aristotle", "philosopher"), ("civic87", "car")],
    )
    assert len(concepts(clf_a)) == 4
    _done("11 fca-oracle-equivalence", "100 contexts <= 5x5")


def test_c12_natural_logic_uniqueness_exhaustive():
    checked = 0
    for ni in range(0, 4):
        for nt in range(0, 4):
            instances = [f"i{k}" for k in range(ni)]
            types = [f"t{k}" for k in range(nt)]
            cells = [(i, t) for i in instances for t in types]
            for mask in range(2 ** len(cells)):
                incidence = [cells[k] for k in range(len(cells)) if (mask >> k) & 1]
                c = Classification("c", instances, types, incidence)
                nat_axioms = natural_logic(c).theory.axioms
                intents = {frozenset(t for i2, t in c.incidence if i2 == i) for i in instances}
                # closed theories correspond to state sets; soundness needs
                # every intent among the models, so it is enough to range
                # over supersets of the intent set
                free = [x for x in all_states(c.types) if x not in intents]
                for r in range(len(free) + 1):
                    for extra in itertools.combinations(free, r):
                        models = list(intents) + list(extra)
                        theory = theory_of_states(c.types, models)
                        logic = normalize(LocalLogic(c, theory, frozenset()))
                        assert is_sound(logic)
                        if is_complete(logic):
                            assert close(theory).axioms == nat_axioms
                            checked += 1
    assert checked > 0
    _done("12 natural-logic-uniqueness", f"{checked} sound+complete logics")


def test_acceptance_reports_deterministic():
    args = ["integrate", "--system", "vee", "--delta-bound", "1", str(FIXTURES / "vee.json")]
    assert run(args) == run(args)
