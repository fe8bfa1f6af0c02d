import itertools
import random

import pytest

import ifk.systems

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
from ifk.oracles import all_states
from ifk.errors import DEFAULT_SEQUENT_CAP
from ifk.closure import _state_columns
from ifk.integration import _deltas, _pulled_states, bounded_sequents
from ifk.masks import _common, _mask
from ifk.systems import VERDICT_MONOCOSMIC, VERDICT_POINTWISE_INCONSISTENT, VERDICT_POLYCOSMIC
from ifk.engine import CompiledTheory
from ifk.theories import Sequent, sequent_key

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


def edge_system(node_cls: dict[str, Classification]) -> InformationSystem:
    """Nodes ``a`` (type x) and ``b`` (type h) joined by ``e``, which maps
    x to h and instance j of ``b`` to instance i of ``a``."""
    return InformationSystem(
        shape=ShapeGraph(["a", "b"], [("e", "a", "b")]),
        node_theory={"a": SequentTheory({"x"}, frozenset()), "b": SequentTheory({"h"}, frozenset())},
        edge_type_map={"e": {"x": "h"}},
        node_cls=node_cls,
        edge_instance_map={"e": {"j": "i"}},
    )


def test_instance_map_without_classified_endpoints_is_a_defect():
    s = edge_system({"a": Classification("c", ["i"], ["x"], [])})
    assert validate_system(s).defects == (("edge", "e", "instance map without classifications"),)


def test_partial_instance_map_is_a_defect():
    c1 = Classification("c1", ["i"], ["x"], [])
    c2 = Classification("c2", ["j", "k"], ["h"], [])
    s = edge_system({"a": c1, "b": c2})
    assert validate_system(s).defects == (("edge", "e", "instance map not total, missing: k"),)


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
    check = ifk.systems.check_theory_morphism

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(ifk.systems, "check_theory_morphism", counted)
    system = parse_bundle((FIXTURES / "vee.json").read_text()).systems["vee"]
    integrate(system, delta_bound=1)
    system_verdict(system)
    assert validate_system(system).ok
    assert len(calls) == len(system.shape.edges)


def test_system_sum_is_built_once(monkeypatch):
    calls = []
    colimit = ifk.systems.colimit_language

    def counted(d):
        calls.append(d)
        return colimit(d)

    monkeypatch.setattr(ifk.systems, "colimit_language", counted)
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


def counted_direct_flow(monkeypatch) -> list:
    calls = []
    flow = ifk.systems.direct_flow

    def counted(*args):
        calls.append(args)
        return flow(*args)

    monkeypatch.setattr(ifk.systems, "direct_flow", counted)
    return calls


def test_monocosmic_verdict_flows_no_node_theory(monkeypatch, vee):
    calls = counted_direct_flow(monkeypatch)
    assert system_verdict(vee) == VERDICT_MONOCOSMIC
    assert integrate(vee, delta_bound=1).verdict == VERDICT_MONOCOSMIC
    assert calls == []
    rng = random.Random(14)
    monocosmic = 0
    for _ in range(60):
        s = support.rand_system(rng)
        calls.clear()
        verdict = system_verdict(s)
        if verdict == VERDICT_MONOCOSMIC:
            monocosmic += 1
            assert calls == []
        else:
            assert 0 < len(calls) <= len(s.shape.nodes)
    assert monocosmic > 10


def test_clash_verdict_flows_each_node_at_most_once(monkeypatch, clash):
    calls = counted_direct_flow(monkeypatch)
    assert system_verdict(clash) == VERDICT_POLYCOSMIC
    assert len(calls) == len(clash.shape.nodes)
    assert {args[1] for args in calls} == set(clash.node_theory.values())


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


# ---------------------------------------------------------------------------
# which path integrate takes: the semijoin iff the shape is a forest and its
# nodes have at most 16 states a bounded sequent, else one handle query a sequent

@pytest.fixture
def sum_queries(monkeypatch):
    """The engines ``CompiledTheory.refutes`` is called on, one entry a call."""
    calls = []
    refutes = CompiledTheory.refutes

    def counted(self, g, d):
        calls.append(self)
        return refutes(self, g, d)

    monkeypatch.setattr(CompiledTheory, "refutes", counted)
    return calls


def _corpus(forest: bool) -> list[InformationSystem]:
    """The seeded corpus systems whose shapes are, or are not, forests."""
    return [
        s for kind in support.CYCLIC_SHAPES + support.FOREST_SHAPES for seed in range(12)
        for s in [support.corpus_system(random.Random(f"path:{kind}:{seed}"), kind)]
        if s.shape._traversal[2] == forest
    ]


def test_forest_deltas_ask_the_sum_engine_nothing(vee, clash, sum_queries):
    for s in [vee, clash, *_corpus(forest=True)]:
        integrate(s, delta_bound=2)
        assert sum_queries.count(s._sum.theory._compiled) == 1  # the verdict's is_consistent


def test_rings_and_wide_nodes_take_the_handle_path(sum_queries):
    rings = _corpus(forest=False)
    assert rings
    for s in rings:
        integrate(s, delta_bound=1)
        assert sum_queries.count(s._sum.theory._compiled) > 1
    # 4104 states against 16 x 187 bounded sequents at bound 1, 16 x 6273 at bound 2;
    # the cap only bounds the sequents, whatever the path
    s = _bridged([f"h{k:02d}" for k in range(12)])
    engine = s._sum.theory._compiled
    for cap in (13 * 13, DEFAULT_SEQUENT_CAP):
        by_handles = integrate(s, delta_bound=1, cap=cap)
        assert sum_queries.count(engine) > 1
        sum_queries.clear()
    by_semijoin = integrate(s, delta_bound=2, cap=79 * 79)
    assert sum_queries.count(engine) == 1
    assert by_handles.deltas == _bridged_deltas("h00", "h01", "h02")
    assert by_handles.deltas == {
        n: tuple(q for q in found if len(q.antecedent) < 2 and len(q.consequent) < 2)
        for n, found in by_semijoin.deltas.items()
    }


def _bridged(hub_types: list[str]) -> InformationSystem:
    """A hub with <0 |- 1> over its first types and a leaf with <a |- b>,
    bridged by an empty theory on types 1 and 2 of the hub."""
    hub = SequentTheory(hub_types, [seq(*hub_types[:2])])
    return InformationSystem(
        shape=ShapeGraph(["hub", "leaf", "m"], [("f", "m", "hub"), ("g", "m", "leaf")]),
        node_theory={"hub": hub, "leaf": SequentTheory(["a", "b"], [seq("a", "b")]),
                     "m": SequentTheory(["x", "y"], [])},
        edge_type_map={"f": {"x": hub_types[1], "y": hub_types[2]}, "g": {"x": "a", "y": "b"}},
    )


def _bridged_deltas(t0, t1, t2) -> dict:
    return {"hub": (seq(t0, t2), seq(t1, t2)), "leaf": (), "m": (seq("x", "y"),)}


def test_a_node_of_20_types_integrates_at_bound_1(sum_queries):
    s = _bridged([f"t{k:02d}" for k in range(20)])
    result = integrate(s, delta_bound=1)  # 2^20 states against 16 x 459 sequents: handles
    assert result.deltas == _bridged_deltas("t00", "t01", "t02")
    assert result.verdict == VERDICT_MONOCOSMIC
    assert sum_queries.count(s._sum.theory._compiled) > 1


def test_pulled_back_sets_are_all_empty_iff_the_verdict_is_not_monocosmic():
    verdicts = set()
    for s in _corpus(forest=True):
        pulled = [states for _, states in _pulled_states(s).values()]
        verdicts.add(system_verdict(s))
        assert (not any(pulled)) == (system_verdict(s) != VERDICT_MONOCOSMIC)
    assert verdicts == {VERDICT_MONOCOSMIC, VERDICT_POLYCOSMIC, VERDICT_POINTWISE_INCONSISTENT}


def _deltas_side_by_side(t: SequentTheory, models: int, pulled: int, bound: int) -> tuple:
    """The deltas as each bounded side's state sets read off its own mask, one side at a time."""
    names = sorted(t.types)
    sides = sorted(c for r in range(min(bound, len(names)) + 1) for c in itertools.combinations(names, r))
    columns = _state_columns(len(names))
    negated = [~column for column in columns]
    holding = [_common(columns, _mask(t._index, g), models) for g in sides]
    failing = [_common(negated, _mask(t._index, d), models) for d in sides]
    return tuple(Sequent(frozenset(g), frozenset(d)) for g, above in zip(sides, holding) if above & ~pulled
                 for d, below in zip(sides, failing) if above & below and not above & below & pulled)


def test_deltas_off_the_side_walk_match_the_sets_of_each_side():
    rng, found = random.Random(43), 0
    for width in range(10):
        # names that sort apart from the order they are drawn in
        t = SequentTheory(rng.sample([f"{chr(97 + k)}{rng.randrange(9)}" for k in range(10)], width), [])
        everywhere = (1 << (1 << width)) - 1
        for bound in range(width + 2):
            drawn = rng.getrandbits(1 << width) & everywhere
            # no models, nothing pulled back, all pulled back, some, and every state a model
            cases = [(0, 0), (drawn, 0), (drawn, drawn), (drawn, drawn & rng.getrandbits(1 << width)),
                     (everywhere, drawn)]
            for models, pulled in cases:
                assert pulled & ~models == 0
                expected = _deltas_side_by_side(t, models, pulled, bound)
                assert _deltas(t, models, pulled, bound) == expected, (width, bound)
                found += len(expected)
    assert found > 10000


def test_bounded_sequents_are_every_bounded_sequent_in_sequent_key_order():
    for width in range(7):
        types = frozenset(f"{chr(100 - k)}{k % 3}" for k in range(width))
        subsets = [frozenset(c) for r in range(width + 1) for c in itertools.combinations(types, r)]
        for bound in range(width + 2):
            every = [Sequent(g, d) for g in subsets for d in subsets if max(len(g), len(d)) <= bound]
            assert list(bounded_sequents(types, bound)) == sorted(every, key=sequent_key), (width, bound)
