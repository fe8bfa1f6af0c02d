"""Information systems and their closure by information flow.

An information system is a shape-indexed diagram of sequent theories
whose edges are theory morphisms; node classifications and edge instance
maps are optional extras.  Closure runs in three phases: direct flow of
every node theory to the sum language, the meet of the images (presented
by the union of their flowed axioms), and inverse flow of the sum theory
back to each node, as handles that ask the sum theory's engine.  ``integrate``
reads the bounded new consequences (deltas) off ``colimit._semijoin`` iff the
shape is a forest (undirected, loops and parallel edges ignored) with at most
16 node states per bounded sequent, else by asking the engines on side masks.
Only the language colimit is imported up front; ``ifk.diagrams``,
``ifk.classification`` and ``ifk.closure`` are imported where used.
"""

from __future__ import annotations

import collections
import itertools
from functools import cached_property

from .colimit import LanguageDiagram, ShapeGraph, _semijoin, colimit_language
from .errors import DEFAULT_DELTA_BOUND, DEFAULT_SEQUENT_CAP, BundleError, CapExceeded, IfkError
from .errors import ValidationResult, _map, _maps, _sets, _Value
from .flow import InverseFlowTheory, _flowed, check_theory_morphism, direct_flow, inverse_flow
from .masks import _common, _from_positions, _mask, _positions, valid_identifier
from .theories import Sequent, SequentTheory, is_consistent

VERDICT_MONOCOSMIC = "monocosmic"
VERDICT_POLYCOSMIC = "polycosmic"
VERDICT_POINTWISE_INCONSISTENT = "pointwise-inconsistent"


# A system flowed to its sum: the language colimit, the sum theory (each node
# axiom renamed along its node's cocone leg, so the union of the node theories'
# images) and, per node, the sum theory pulled back along that leg.
_SystemSum = collections.namedtuple("_SystemSum", "colimit theory handles")


class InformationSystem(_Value):
    shape: ShapeGraph
    node_theory: Mapping[str, SequentTheory]
    edge_type_map: Mapping[str, Mapping[str, str]]
    node_cls: Mapping[str, Classification | None] = _map({})
    edge_instance_map: Mapping[str, Mapping[str, str] | None] = _map({})
    _freeze = {  # a node or an edge given None has no classification or instance map
        "node_theory": _map,
        "edge_type_map": _maps,
        "node_cls": lambda m: _map({n: c for n, c in m.items() if c is not None}),
        "edge_instance_map": lambda m: _maps({e: f for e, f in m.items() if f is not None}),
    }
    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self):
        missing = self.shape.nodes - self.node_theory.keys()
        if missing:
            raise IfkError(f"no theory for node(s): {', '.join(sorted(missing))}")
        missing_e = {e for e, _, _ in self.shape.edges} - self.edge_type_map.keys()
        if missing_e:
            raise IfkError(f"no type function for edge(s): {', '.join(sorted(missing_e))}")
        for n, c in self.node_cls.items():
            if n not in self.shape.nodes:
                raise IfkError(f"classification for undeclared node {n}")
            if c.types != self.node_theory[n].types:
                raise IfkError(f"node {n}: classification types differ from the theory's")

    def language_diagram(self) -> LanguageDiagram:
        return LanguageDiagram(
            self.shape,
            {n: t.types for n, t in self.node_theory.items()},
            self.edge_type_map,
        )

    def cls_diagram(self) -> ClsDiagram:
        """The underlying classification diagram; every node must carry a
        classification and every edge an instance map."""
        from .diagrams import ClsDiagram
        bare = self.shape.nodes - self.node_cls.keys()
        if bare:
            raise IfkError(f"node(s) without classification: {', '.join(sorted(bare))}")
        for e, _, _ in sorted(self.shape.edges):
            if e not in self.edge_instance_map:
                raise IfkError(f"edge {e} has no instance map")
        return ClsDiagram(self.shape, self.node_cls, self._infomorphisms)

    # Computed on first use and kept: the fields are read-only, so a
    # system is validated, and flowed to its sum, once however many
    # commands consult it.
    @cached_property
    def _infomorphisms(self) -> Mapping[str, Infomorphism]:
        """One infomorphism per edge whose instance map joins two classified nodes."""
        from .classification import Infomorphism
        return _map({
            e: Infomorphism(
                name=e,
                source=self.node_cls[src],
                target=self.node_cls[dst],
                type_map=self.edge_type_map[e],
                instance_map=self.edge_instance_map[e],
            )
            for e, src, dst in sorted(self.shape.edges)
            if e in self.edge_instance_map and {src, dst} <= self.node_cls.keys()
        })

    @cached_property
    def _validation(self) -> ValidationResult:
        defects = []
        for e, src, dst in sorted(self.shape.edges):
            try:
                result = check_theory_morphism(
                    self.edge_type_map[e], self.node_theory[src], self.node_theory[dst]
                )
            except IfkError as exc:
                defects.append(("edge", e, str(exc)))
                continue
            defects.extend(("edge", e, "axiom", a) for a in result.defects)
            if e in self.edge_instance_map:
                info = self._infomorphisms.get(e)
                if info is None:
                    defects.append(("edge", e, "instance map without classifications"))
                    continue
                try:
                    check = info._invariance
                except IfkError as exc:
                    defects.append(("edge", e, str(exc)))
                    continue
                defects.extend(("edge", e, "invariance", viol) for viol in check.defects)
        return ValidationResult.from_defects(defects)

    @cached_property
    def _sum(self) -> _SystemSum:
        colim = colimit_language(self.language_diagram())
        theory = _flowed(colim.types, [(self.node_theory[n], colim.cocone[n]) for n in self.shape.nodes])
        handles = {
            n: inverse_flow(colim.cocone[n], theory, self.node_theory[n].types)
            for n in self.shape.nodes
        }
        return _SystemSum(colim, theory, _map(handles))


def validate_system(s: InformationSystem) -> ValidationResult:
    """Every edge map is a theory morphism; supplied instance maps give
    valid infomorphisms.  Defects carry the failing edge and element."""
    return s._validation


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


def _require_valid(s: InformationSystem) -> None:
    result = validate_system(s)
    if not result.ok:
        raise IfkError(f"invalid system: {result.defects[0]}")


def _parse_system(theories: dict, classifications: dict, raw: dict, where: str) -> InformationSystem:
    """A bundle's system entry, each reference resolved and the system validated."""
    from .bundle import _entries, _expect, _ref, _str_map  # the caller's, so loaded already

    node_theory: dict[str, SequentTheory] = {}
    node_cls: dict[str, Classification] = {}
    for node, body, nwhere in _entries(raw.get("nodes", {}), f"{where}.nodes"):
        node_theory[node] = _ref(theories, body.get("theory"), nwhere, "theory")
        if body.get("classification") is not None:  # none, if missing or null
            node_cls[node] = _ref(classifications, body["classification"], nwhere, "classification")
    edges_raw = raw.get("edges", [])
    _expect(isinstance(edges_raw, list), f"{where}.edges: expected a list")
    edges = []
    edge_type_map = {}
    edge_instance_map = {}
    for k, body in enumerate(edges_raw):
        ewhere = f"{where}.edges[{k}]"
        if not isinstance(body, dict):
            raise BundleError(f"{ewhere}: expected an object")
        eid, src, dst = body.get("id"), body.get("src"), body.get("dst")
        for label, value in (("id", eid), ("src", src), ("dst", dst)):
            if not valid_identifier(value):
                raise BundleError(f"{ewhere}.{label}: bad identifier {value!r}")
        for label, node in (("src", src), ("dst", dst)):
            if node not in node_theory:
                raise BundleError(f"{ewhere}.{label}: unknown node {node!r}")
        edges.append((eid, src, dst))
        edge_type_map[eid] = _str_map(body.get("type_map", {}), f"{ewhere}.type_map")
        imap = body.get("instance_map")
        if imap is not None:
            edge_instance_map[eid] = _str_map(imap, f"{ewhere}.instance_map")
    try:
        system = InformationSystem(
            shape=ShapeGraph(frozenset(node_theory), frozenset(edges)),
            node_theory=node_theory,
            edge_type_map=edge_type_map,
            node_cls=node_cls,
            edge_instance_map=edge_instance_map,
        )
        _require_valid(system)
    except IfkError as exc:
        raise BundleError(f"{where}: {exc}") from exc
    return system


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


def system_verdict(s: InformationSystem) -> str:
    """The cosmological verdict of the system, as ``integrate`` reports it."""
    _require_valid(s)
    colim, theory, _ = s._sum
    if is_consistent(theory):  # then so is each image: its axioms are among the sum's
        return VERDICT_MONOCOSMIC
    nodes = sorted(s.shape.nodes)
    images = (direct_flow(colim.cocone[n], s.node_theory[n], colim.types) for n in nodes)
    return VERDICT_POLYCOSMIC if all(map(is_consistent, images)) else VERDICT_POINTWISE_INCONSISTENT


def is_pointwise_consistent(s: InformationSystem) -> bool:
    """Each node theory flowed to the sum language is individually consistent."""
    return system_verdict(s) != VERDICT_POINTWISE_INCONSISTENT


def is_monocosmic(s: InformationSystem) -> bool:
    """The union of the flowed node theories is consistent over the sum language.

    The union contains every flowed theory's axioms, so this implies
    pointwise consistency.
    """
    return system_verdict(s) == VERDICT_MONOCOSMIC


def is_polycosmic(s: InformationSystem) -> bool:
    """Pointwise consistent but jointly inconsistent at the sum."""
    return system_verdict(s) == VERDICT_POLYCOSMIC


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
