"""Information systems and their closure by information flow.

An information system is a shape-indexed diagram of sequent theories
whose edges are theory morphisms; node classifications and edge instance
maps are optional extras.  Closure runs in three phases: direct flow of
every node theory to the sum language, the meet of the images (presented
by the union of their flowed axioms), and inverse flow of the sum theory
back to each node.  The per-node pullbacks stay virtual; only bounded
new consequences (deltas) are materialized.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .classification import Classification, Infomorphism, _reduce_fields
from .diagrams import (
    ClsDiagram,
    LanguageColimit,
    LanguageDiagram,
    ShapeGraph,
    _frozen_maps,
    colimit_language,
)
from .errors import (
    DEFAULT_DELTA_BOUND,
    DEFAULT_SEQUENT_CAP,
    CapExceeded,
    IfkError,
    ValidationResult,
)
from .flow import InverseFlowTheory, check_theory_morphism, direct_flow, inverse_flow
from .theories import (
    Sequent,
    SequentTheory,
    entails,
    is_consistent,
    sequent_key,
    theory_leq,
)

VERDICT_MONOCOSMIC = "monocosmic"
VERDICT_POLYCOSMIC = "polycosmic"
VERDICT_POINTWISE_INCONSISTENT = "pointwise-inconsistent"


class _SystemSum(NamedTuple):
    """A system flowed to its sum: the language colimit, the sum theory (each
    node axiom renamed along its node's cocone leg, so the union of the node
    theories' images) and, per node, the sum theory pulled back along that leg."""

    colimit: LanguageColimit
    theory: SequentTheory
    handles: Mapping[str, InverseFlowTheory]


@dataclass(frozen=True)
class InformationSystem:
    shape: ShapeGraph
    node_theory: Mapping[str, SequentTheory]
    edge_type_map: Mapping[str, Mapping[str, str]]
    node_cls: Mapping[str, Classification | None] = field(default_factory=dict)
    edge_instance_map: Mapping[str, Mapping[str, str] | None] = field(default_factory=dict)
    __reduce__ = _reduce_fields

    def __post_init__(self):
        object.__setattr__(self, "node_theory", MappingProxyType(dict(self.node_theory)))
        object.__setattr__(self, "edge_type_map", _frozen_maps(self.edge_type_map.items()))
        object.__setattr__(
            self,
            "node_cls",
            MappingProxyType({n: c for n, c in self.node_cls.items() if c is not None}),
        )
        object.__setattr__(
            self,
            "edge_instance_map",
            _frozen_maps((e, m) for e, m in self.edge_instance_map.items() if m is not None),
        )
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
        return MappingProxyType({
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
        theory = SequentTheory(colim.types, frozenset(
            a.rename(colim.cocone[n]) for n in self.shape.nodes for a in self.node_theory[n].axioms
        ))
        handles = {
            n: inverse_flow(colim.cocone[n], theory, self.node_theory[n].types)
            for n in self.shape.nodes
        }
        return _SystemSum(colim, theory, MappingProxyType(handles))


def validate_system(s: InformationSystem) -> ValidationResult:
    """Every edge map is a theory morphism; supplied instance maps give
    valid infomorphisms.  Defects carry the failing edge and element."""
    return s._validation


@dataclass(frozen=True)
class IntegrationResult:
    sum_types: frozenset[str]
    cocone: Mapping[str, Mapping[str, str]]
    sum_members: Mapping[str, frozenset[tuple[str, str]]]
    sum_theory: SequentTheory
    closure_handles: Mapping[str, InverseFlowTheory]
    deltas: Mapping[str, tuple[Sequent, ...]]
    verdict: str
    __reduce__ = _reduce_fields

    def __post_init__(self):
        object.__setattr__(self, "cocone", _frozen_maps(self.cocone.items()))
        for name in ("sum_members", "closure_handles", "deltas"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))


def _require_valid(s: InformationSystem) -> None:
    result = validate_system(s)
    if not result.ok:
        raise IfkError(f"invalid system: {result.defects[0]}")


def bounded_sequents(types: frozenset[str], bound: int):
    """All sequents over ``types`` with at most ``bound`` types per side."""
    elems = sorted(types)
    sides = [
        frozenset(combo)
        for r in range(min(bound, len(elems)) + 1)
        for combo in itertools.combinations(elems, r)
    ]
    for g in sides:
        for d in sides:
            yield Sequent(g, d)


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
    deltas: dict[str, tuple[Sequent, ...]] = {}
    for n in sorted(s.shape.nodes):
        t_n = s.node_theory[n]
        side = sum(
            math.comb(len(t_n.types), r)
            for r in range(min(delta_bound, len(t_n.types)) + 1)
        )
        if side * side > cap:
            raise CapExceeded(f"delta enumeration at node {n}", side * side, cap)
        found = [
            q
            for q in bounded_sequents(t_n.types, delta_bound)
            if handles[n].entails(q) and not entails(t_n, q)
        ]
        deltas[n] = tuple(sorted(found, key=sequent_key))
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
    _require_comparable(s1, s2)
    return all(
        theory_leq(s1.node_theory[n], s2.node_theory[n]) for n in s1.shape.nodes
    )


def system_entails(s1: InformationSystem, s2: InformationSystem) -> bool:
    """The closure of ``s1`` lies pointwise below ``s2``."""
    _require_comparable(s1, s2)
    handles = s1._sum.handles
    return all(
        handles[n].entails(a) for n in s1.shape.nodes for a in s2.node_theory[n].axioms
    )
