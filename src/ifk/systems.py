"""Information systems: shape-indexed diagrams of sequent theories whose edges
are theory morphisms; node classifications and edge instance maps are optional
extras.  A system is validated, and flowed to its sum, once; its cosmological
verdict reads only the consistency of the sum theory and the node images.
Only the language colimit and flow are imported up front, and classification
code where a populated system needs it.
"""

from __future__ import annotations

import collections
from functools import cached_property

from .colimit import LanguageDiagram, ShapeGraph, colimit_language
from .errors import BundleError, IfkError, ValidationResult, _map, _maps, _Value
from .flow import _flowed, check_theory_morphism, direct_flow, inverse_flow
from .masks import _expect, valid_identifier
from .theories import is_consistent

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


def _require_valid(s: InformationSystem) -> None:
    result = validate_system(s)
    if not result.ok:
        raise IfkError(f"invalid system: {result.defects[0]}")


def _parse_system(theories: dict, classifications: dict, raw: dict, where: str) -> InformationSystem:
    """A bundle's system entry, each reference resolved and the system validated."""
    from .bundle import _entries, _ref, _str_map  # the caller's, so loaded already

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
