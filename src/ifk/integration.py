"""The closure of information systems (``ifk.systems``) by information flow.

Closure runs in three phases: direct flow of every node theory to the sum
language, the meet of the images (presented by the union of their flowed
axioms), and inverse flow of the sum theory back to each node, as handles that
ask the sum theory's engine.  ``integrate`` reads the bounded new consequences
(deltas) off ``colimit._semijoin`` iff the shape is a forest (undirected, loops
and parallel edges ignored) with at most 16 node states per bounded sequent,
else by asking the engines on side masks.  The closure kernel, and the system
orders' theory order, are imported where used.
"""

from __future__ import annotations

import itertools

from .colimit import _semijoin
from .errors import DEFAULT_DELTA_BOUND, DEFAULT_SEQUENT_CAP, CapExceeded, IfkError, _map, _maps, _sets, _Value
from .flow import check_theory_morphism
from .masks import _common, _from_positions, _mask, _positions
from .systems import _require_valid, system_verdict
# unused here: perfbench/workloads.py imports these three from this module
from .systems import is_monocosmic, is_pointwise_consistent, validate_system
from .theories import Sequent


class IntegrationResult(_Value):
    sum_types: frozenset[str]
    cocone: Mapping[str, Mapping[str, str]]
    sum_members: Mapping[str, frozenset[tuple[str, str]]]
    sum_theory: SequentTheory
    closure_handles: Mapping[str, InverseFlowTheory]
    deltas: Mapping[str, tuple[Sequent, ...]]
    verdict: str
    _freeze = {
        "sum_types": frozenset,
        "cocone": _maps,
        "sum_members": _sets,
        "closure_handles": _map,
        "deltas": lambda m: _map({n: tuple(found) for n, found in m.items()}),
    }
    __hash__ = None  # type: ignore[assignment]


def _sides(names: list[str], bound: int) -> list[frozenset[str]]:
    """The sets of at most ``bound`` of the sorted ``names``, in ``sequent_key`` order."""
    sides = (c for r in range(min(bound, len(names)) + 1) for c in itertools.combinations(names, r))
    return [frozenset(side) for side in sorted(sides)]


def bounded_sequents(types: frozenset[str], bound: int):
    """All sequents over ``types`` with at most ``bound`` types per side, in ``sequent_key`` order."""
    sides = _sides(sorted(types), bound)
    return (Sequent(g, d) for g in sides for d in sides)


def _pulled_states(s: InformationSystem) -> dict[str, tuple[int, int]]:
    """Per node of a forest-shaped system, its models and the sum's models
    pulled back to it, as bits over its 2^|types| states.  A node's rows are
    its models whose types of one class agree, and a link to its parent keys
    each row by the classes true in it that both nodes share.  Sum axioms are
    node axioms renamed and classes span connected nodes, so on a forest
    ``_semijoin`` leaves each node the sum's models seen from it."""
    from .closure import _model_mask
    order, parent, _ = s.shape._traversal
    models, rows, scope, links = {}, {}, {}, []
    for n in order:
        image = s._sum.handles[n]._image()  # image[x], image[~x]: classes of the types true, false in x
        models[n], scope[n] = _model_mask(s.node_theory[n]), image[-1]
        rows[n] = {x: image[x] for x in _positions(models[n]) if not image[x] & image[~x]}
        if parent[n] is not None:  # breadth-first, so the parent's rows are built
            up, shared = parent[n], scope[parent[n]] & scope[n]
            links.append((up, {x: m & shared for x, m in rows[up].items()},
                          n, {x: m & shared for x, m in rows[n].items()}))
    pulled = _semijoin(rows, links)
    if not all(pulled.values()):  # then the sum theory has no model
        pulled = {n: set() for n in order}
    return {n: (m, _from_positions(pulled[n])) for n, m in models.items()}


def _deltas(t: SequentTheory, models: int, pulled: int, bound: int) -> tuple[Sequent, ...]:
    """The sequents of at most ``bound`` types a side that some state of
    ``models`` violates and none of ``pulled`` does, in ``sequent_key`` order."""
    from .closure import _state_columns
    columns = _state_columns(len(t.types))
    negated = [~column for column in columns]
    sides = _sides(sorted(t.types), bound)
    holding = [_common(columns, _mask(t._index, g), models) for g in sides]  # where all of g holds
    failing = [_common(negated, _mask(t._index, d), models) for d in sides]  # where none of d does
    return tuple(Sequent(g, d) for g, above in zip(sides, holding) if above & ~pulled
                 for d, below in zip(sides, failing) if above & below and not above & below & pulled)


def _handle_deltas(s: InformationSystem, n: str, bound: int) -> tuple[Sequent, ...]:
    """The bounded sequents that the sum theory entails at node ``n`` and the
    node's theory does not, in ``sequent_key`` order, asked on side masks."""
    t, total, leg = s.node_theory[n], s._sum.theory, s._sum.colimit.cocone[n]
    sides = [(g, _mask(t._index, g), _mask(total._index, (leg[name] for name in g)))
             for g in _sides(sorted(t.types), bound)]
    joint = total._compiled.refutes  # the node's engine is compiled only once it is asked
    return tuple(Sequent(g, d) for g, g_own, g_sum in sides for d, d_own, d_sum in sides
                 if not joint(g_sum, d_sum) and t._compiled.refutes(g_own, d_own))


def integrate(
    s: InformationSystem,
    delta_bound: int = DEFAULT_DELTA_BOUND,
    cap: int = DEFAULT_SEQUENT_CAP,
) -> IntegrationResult:
    """Run the closure pipeline and collect bounded per-node consequences.

    A delta at a node is a sequent within the size bound entailed by the
    node's closure handle but not by its own theory.
    """
    _require_valid(s)
    colim, sum_theory, handles = s._sum
    nodes, states, queries = sorted(s.shape.nodes), 0, 0
    for n in nodes:
        width = len(s.node_theory[n].types)  # sides of r types, by C(w, r + 1) = C(w, r) * (w - r) / (r + 1)
        side = sum(itertools.accumulate(range(min(delta_bound, width)),
                                        lambda c, r: c * (width - r) // (r + 1), initial=1))
        if side * side > cap:
            raise CapExceeded(f"delta enumeration at node {n}", side * side, cap)
        states, queries = states + (1 << width), queries + side * side
    # the semijoin reads every node state, the handle path asks every bounded sequent; the
    # factor, fitted on star forests of 8-16 types a node, picks the faster path on most of them
    if s.shape._traversal[2] and states <= 16 * queries:
        pulled = _pulled_states(s)
        deltas = {n: _deltas(s.node_theory[n], *pulled[n], delta_bound) for n in nodes}
    else:
        deltas = {n: _handle_deltas(s, n, delta_bound) for n in nodes}
    return IntegrationResult(
        sum_types=colim.types,
        cocone=colim.cocone,
        sum_members=colim.members,
        sum_theory=sum_theory,
        closure_handles=handles,
        deltas=deltas,
        verdict=system_verdict(s),
    )


def system_entails_at(s: InformationSystem, node: str, q: Sequent) -> bool:
    """The sum theory entails the image of ``q`` at ``node``."""
    if node not in s.shape.nodes:
        raise IfkError(f"unknown node: {node}")
    outside = q.types() - s.node_theory[node].types
    if outside:
        raise IfkError(f"sequent uses types outside the node language: {', '.join(sorted(outside))}")
    return s._sum.handles[node].entails(q)


def _require_comparable(s1: InformationSystem, s2: InformationSystem) -> None:
    if s1.shape != s2.shape:
        raise IfkError("systems must share their shape")
    if {n: t.types for n, t in s1.node_theory.items()} != {
        n: t.types for n, t in s2.node_theory.items()
    }:
        raise IfkError("systems must share their node languages")
    if s1.edge_type_map != s2.edge_type_map:
        raise IfkError("systems must share their edge type functions")


def system_leq(s1: InformationSystem, s2: InformationSystem) -> bool:
    """Pointwise entailment order on systems over one indexing shape."""
    from .closure import theory_leq
    _require_comparable(s1, s2)
    return all(
        theory_leq(s1.node_theory[n], s2.node_theory[n]) for n in s1.shape.nodes
    )


def system_entails(s1: InformationSystem, s2: InformationSystem) -> bool:
    """The closure of ``s1`` lies pointwise below ``s2``."""
    _require_comparable(s1, s2)
    colim, theory, _ = s1._sum
    return all(check_theory_morphism(colim.cocone[n], s2.node_theory[n], theory) for n in s1.shape.nodes)
