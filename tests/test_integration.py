import random

import pytest

import ifk.integration

from ifk import (
    Classification,
    IfkError,
    InformationSystem,
    SequentTheory,
    ShapeGraph,
    close,
    entails,
    integrate,
    is_consistent,
    is_monocosmic,
    is_pointwise_consistent,
    is_polycosmic,
    sum_classification,
    system_entails,
    system_entails_at,
    system_leq,
    system_verdict,
    validate_system,
    verify_channel_covers,
)
from ifk.bundle import parse_bundle
from ifk.integration import VERDICT_MONOCOSMIC, VERDICT_POINTWISE_INCONSISTENT, VERDICT_POLYCOSMIC
from ifk.theories import Sequent, all_states

import support
from conftest import FIXTURES, seq, vee_system


def single_node_system(theory: SequentTheory) -> InformationSystem:
    return InformationSystem(
        shape=ShapeGraph(["n"], []), node_theory={"n": theory}, edge_type_map={}
    )


def test_single_node_system_validates():
    s = single_node_system(SequentTheory({"a"}, {seq("", "a")}))
    assert validate_system(s).ok


def test_vee_system_validates(vee):
    assert validate_system(vee).ok


def test_edge_that_is_not_a_morphism_is_reported():
    t1 = SequentTheory({"x", "y"}, {seq("x", "y")})
    t2 = SequentTheory({"h", "p"}, frozenset())
    s = InformationSystem(
        shape=ShapeGraph(["a", "b"], [("e", "a", "b")]),
        node_theory={"a": t1, "b": t2},
        edge_type_map={"e": {"x": "h", "y": "p"}},
    )
    result = validate_system(s)
    assert not result.ok
    assert result.defects == (("edge", "e", "axiom", seq("x", "y")),)


def test_system_instance_maps_are_checked():
    c1 = Classification("c1", ["i"], ["x"], [("i", "x")])
    c2 = Classification("c2", ["j"], ["h"], [])
    s = InformationSystem(
        shape=ShapeGraph(["a", "b"], [("e", "a", "b")]),
        node_theory={
            "a": SequentTheory({"x"}, frozenset()),
            "b": SequentTheory({"h"}, frozenset()),
        },
        edge_type_map={"e": {"x": "h"}},
        node_cls={"a": c1, "b": c2},
        edge_instance_map={"e": {"j": "i"}},
    )
    result = validate_system(s)
    assert not result.ok
    assert any(d[2] == "invariance" for d in result.defects)


def test_classification_must_match_theory_language():
    c = Classification("c", ["i"], ["x"], [])
    with pytest.raises(IfkError, match="differ"):
        InformationSystem(
            shape=ShapeGraph(["a"], []),
            node_theory={"a": SequentTheory({"y"}, frozenset())},
            edge_type_map={},
            node_cls={"a": c},
        )


# ---------------------------------------------------------------------------
# integrate

def test_single_node_closure_agrees_with_theory_closure():
    t = SequentTheory({"a", "b"}, {seq("a", "b")})
    s = single_node_system(t)
    result = integrate(s, delta_bound=2)
    renaming = {x: result.cocone["n"][x] for x in t.types}
    assert close(result.sum_theory).axioms == frozenset(
        a.rename(renaming) for a in close(t).axioms
    )
    handle = result.closure_handles["n"]
    for g in all_states(t.types):
        for d in all_states(t.types):
            q = Sequent(g, d)
            assert handle.entails(q) == entails(t, q)
    assert result.deltas["n"] == ()


def test_vee_integration_deltas(vee):
    result = integrate(vee, delta_bound=1)
    assert seq("philosopher", "mortal_gr") in result.deltas["O2"]
    assert result.deltas["O1"] == ()
    # the bridge node itself learns the O1 axiom through the alignment
    assert result.deltas["M"] == (seq("x", "y"),)
    assert result.verdict == VERDICT_MONOCOSMIC
    # human is identified with person across the bridge, so the O1 axiom
    # also lands on O2 verbatim
    assert result.deltas["O2"] == (
        seq("human", "mortal_gr"),
        seq("philosopher", "mortal_gr"),
    )


def test_vee_deltas_against_state_enumeration(vee):
    # oracle: sum axioms computed by hand, entailment by state scan
    u, m, p = "sum:M.x", "sum:M.y", "sum:O2.philosopher"
    sum_types = frozenset({u, m, p})
    sum_axioms = {Sequent({u}, {m}), Sequent({p}, {u})}
    models = [
        x
        for x in all_states(sum_types)
        if all(not (a.antecedent <= x and a.consequent.isdisjoint(x)) for a in sum_axioms)
    ]
    cocone_o2 = {"human": u, "philosopher": p, "mortal_gr": m}
    t_o2 = vee.node_theory["O2"]
    expected = set()
    for g in all_states(t_o2.types):
        for d in all_states(t_o2.types):
            if len(g) > 1 or len(d) > 1:
                continue
            q = Sequent(g, d)
            image = q.rename(cocone_o2)
            holds = all(
                not (image.antecedent <= x and image.consequent.isdisjoint(x))
                for x in models
            )
            if holds and not entails(t_o2, q):
                expected.add(q)
    result = integrate(vee, delta_bound=1)
    assert set(result.deltas["O2"]) == expected


def test_system_is_validated_once(monkeypatch):
    calls = []
    check = ifk.integration.check_theory_morphism

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(ifk.integration, "check_theory_morphism", counted)
    system = parse_bundle((FIXTURES / "vee.json").read_text()).systems["vee"]
    integrate(system, delta_bound=1)
    system_verdict(system)
    assert validate_system(system).ok
    assert len(calls) == len(system.shape.edges)


def test_system_sum_is_built_once(monkeypatch):
    calls = []
    colimit = ifk.integration.colimit_language

    def counted(d):
        calls.append(d)
        return colimit(d)

    monkeypatch.setattr(ifk.integration, "colimit_language", counted)
    system = vee_system()
    integrate(system, delta_bound=1)
    assert system_verdict(system) == VERDICT_MONOCOSMIC
    assert is_monocosmic(system)
    assert system_entails_at(system, "O2", seq("philosopher", "mortal_gr"))
    assert not system_entails_at(system, "O2", seq("human", "philosopher"))
    assert system_entails_at(system, "O1", seq("person", "mortal"))
    assert system_entails(system, system)
    assert len(calls) == 1


def test_integrate_rejects_invalid_system():
    t1 = SequentTheory({"x"}, {seq("", "x")})
    t2 = SequentTheory({"h"}, {seq("h", "")})
    s = InformationSystem(
        shape=ShapeGraph(["a", "b"], [("e", "a", "b")]),
        node_theory={"a": t1, "b": t2},
        edge_type_map={"e": {"x": "h"}},
    )
    with pytest.raises(IfkError, match="invalid system"):
        integrate(s)


def test_direct_flow_commutes_with_edge_constraints():
    # flowing a source theory straight to the sum equals flowing it over
    # the edge first, because the cocone absorbs the edge map
    rng = random.Random(127)
    from ifk import direct_flow
    from ifk.diagrams import colimit_language

    for _ in range(40):
        s = support.rand_system(rng)
        colim = colimit_language(s.language_diagram())
        for e, src, dst in s.shape.edges:
            through_edge = {
                t: colim.cocone[dst][s.edge_type_map[e][t]]
                for t in s.node_theory[src].types
            }
            lhs = direct_flow(colim.cocone[src], s.node_theory[src], colim.types)
            rhs = direct_flow(through_edge, s.node_theory[src], colim.types)
            assert lhs == rhs


def test_deltas_are_new_and_entailed(vee):
    result = integrate(vee, delta_bound=2)
    for node, deltas in result.deltas.items():
        for q in deltas:
            assert result.closure_handles[node].entails(q)
            assert not entails(vee.node_theory[node], q)


# ---------------------------------------------------------------------------
# system entailment

def test_system_entails_at_axioms(vee):
    assert system_entails_at(vee, "O2", seq("philosopher", "human"))
    assert system_entails_at(vee, "O1", seq("person", "mortal"))


def test_system_entails_at_vee_flagship(vee):
    assert system_entails_at(vee, "O2", seq("philosopher", "mortal_gr"))
    assert not system_entails_at(vee, "O2", seq("human", "philosopher"))


def test_system_entails_at_unknown_node(vee):
    with pytest.raises(IfkError, match="unknown node"):
        system_entails_at(vee, "O9", seq("", ""))


def test_system_entails_at_foreign_types(vee):
    with pytest.raises(IfkError, match="outside the node language"):
        system_entails_at(vee, "O1", seq("human", ""))


# ---------------------------------------------------------------------------
# cosmological verdicts

def test_all_empty_theories_are_monocosmic():
    s = InformationSystem(
        shape=ShapeGraph(["a", "b"], []),
        node_theory={
            "a": SequentTheory({"x"}, frozenset()),
            "b": SequentTheory({"y"}, frozenset()),
        },
        edge_type_map={},
    )
    assert is_monocosmic(s)
    assert is_pointwise_consistent(s)
    assert not is_polycosmic(s)


def test_clash_system_is_polycosmic(clash):
    assert is_pointwise_consistent(clash)
    assert not is_monocosmic(clash)
    assert is_polycosmic(clash)
    assert integrate(clash).verdict == VERDICT_POLYCOSMIC


def test_bottom_node_is_pointwise_inconsistent():
    s = single_node_system(SequentTheory({"a"}, {seq("", "")}))
    assert not is_pointwise_consistent(s)
    assert not is_polycosmic(s)
    assert integrate(s).verdict == VERDICT_POINTWISE_INCONSISTENT


def test_monocosmic_implies_pointwise():
    rng = random.Random(101)
    for _ in range(100):
        s = support.rand_system(rng)
        if is_monocosmic(s):
            assert is_pointwise_consistent(s)
        verdict = system_verdict(s)
        result = integrate(s, delta_bound=1)
        assert result.verdict == verdict
        if is_consistent(result.sum_theory):
            assert verdict == VERDICT_MONOCOSMIC
        assert is_pointwise_consistent(s) == (verdict != VERDICT_POINTWISE_INCONSISTENT)
        assert is_monocosmic(s) == (verdict == VERDICT_MONOCOSMIC)
        assert is_polycosmic(s) == (verdict == VERDICT_POLYCOSMIC)


# ---------------------------------------------------------------------------
# system orders

def test_system_orders_reflexive(vee):
    assert system_leq(vee, vee)
    assert system_entails(vee, vee)


def expanded_vee() -> InformationSystem:
    base = vee_system()
    t_o2 = base.node_theory["O2"]
    stronger = SequentTheory(t_o2.types, t_o2.axioms | {seq("philosopher", "mortal_gr")})
    return InformationSystem(
        shape=base.shape,
        node_theory={**base.node_theory, "O2": stronger},
        edge_type_map=base.edge_type_map,
    )


def test_system_entailment_sees_through_the_channel(vee):
    s2 = expanded_vee()
    assert not system_leq(vee, s2)
    assert system_entails(vee, s2)


def test_system_orders_require_same_shape(vee):
    other = single_node_system(SequentTheory({"a"}, frozenset()))
    with pytest.raises(IfkError, match="share their shape"):
        system_leq(vee, other)


def test_system_entails_is_transitive():
    rng = random.Random(103)
    checked = 0
    while checked < 30:
        base = support.rand_system(rng, max_nodes=3, max_types=3, max_axioms=2)
        variants = []
        for _ in range(3):
            thinned = {
                n: SequentTheory(
                    t.types,
                    frozenset(a for a in t.axioms if rng.random() < 0.7),
                )
                for n, t in base.node_theory.items()
            }
            probe = InformationSystem(
                shape=base.shape, node_theory=thinned, edge_type_map=base.edge_type_map
            )
            if validate_system(probe).ok:
                variants.append(probe)
        if len(variants) < 3:
            continue
        s1, s2, s3 = variants
        if system_entails(s1, s2) and system_entails(s2, s3):
            assert system_entails(s1, s3)
        checked += 1


# ---------------------------------------------------------------------------
# classified systems

def test_cls_diagram_from_fully_populated_system():
    c1 = Classification("c1", ["i"], ["x"], [("i", "x")])
    c2 = Classification("c2", ["j"], ["h"], [("j", "h")])
    s = InformationSystem(
        shape=ShapeGraph(["a", "b"], [("e", "a", "b")]),
        node_theory={
            "a": SequentTheory({"x"}, frozenset()),
            "b": SequentTheory({"h"}, frozenset()),
        },
        edge_type_map={"e": {"x": "h"}},
        node_cls={"a": c1, "b": c2},
        edge_instance_map={"e": {"j": "i"}},
    )
    assert validate_system(s).ok
    d = s.cls_diagram()
    ch = sum_classification(d)
    assert verify_channel_covers(ch, d).ok


def test_cls_diagram_requires_full_population(vee):
    with pytest.raises(IfkError, match="without classification"):
        vee.cls_diagram()
