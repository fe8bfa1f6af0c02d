"""Formal concept analysis over classifications.

Derivation maps an instance set to its common types and a type set to
its common instances; a concept is a fixed pair of the two.  Concepts
are enumerated by lectic next-closure over type subsets, with a naive
all-pairs scan kept as the testing oracle, and form a complete lattice
under extent inclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

from .classification import Classification, extent
from .errors import CapExceeded, IfkError

CONCEPT_TYPE_GUARD = 20


@dataclass(frozen=True)
class FormalConcept:
    extent: frozenset[str]
    intent: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "extent", frozenset(self.extent))
        object.__setattr__(self, "intent", frozenset(self.intent))


@dataclass(frozen=True)
class ConceptLattice:
    concepts: tuple[FormalConcept, ...]
    order: frozenset[tuple[int, int]]  # (i, j): concept i <= concept j


def derive(
    c: Classification, side: Literal["instances", "types"], s: Iterable[str]
) -> frozenset[str]:
    """Common types of an instance set, or common instances of a type set."""
    s = frozenset(s)
    if side == "instances":
        unknown = s - c.instances
        if unknown:
            raise IfkError(f"unknown instance(s): {', '.join(sorted(unknown))}")
        result = set(c.types)
        table = c._intents
        for i in s:
            result &= table[i]
        return frozenset(result)
    if side == "types":
        return extent(c, s)
    raise IfkError(f"side must be 'instances' or 'types', got {side!r}")


def _concept_key(concept: FormalConcept) -> tuple[int, tuple[str, ...]]:
    return (len(concept.extent), tuple(sorted(concept.extent)))


def _intent_closure(c: Classification, s: frozenset[str]) -> frozenset[str]:
    return derive(c, "instances", derive(c, "types", s))


def concepts(c: Classification) -> tuple[FormalConcept, ...]:
    """All concepts, by next-closure over type subsets, in canonical order
    (extent size, then lexicographic extent)."""
    if len(c.types) > CONCEPT_TYPE_GUARD:
        raise CapExceeded("concept enumeration", len(c.types), CONCEPT_TYPE_GUARD)
    attrs = sorted(c.types)

    def next_closed(current: frozenset[str]) -> frozenset[str] | None:
        for k in reversed(range(len(attrs))):
            a = attrs[k]
            if a in current:
                continue
            prefix = frozenset(x for x in current if x < a)
            candidate = _intent_closure(c, prefix | {a})
            if all(x >= a for x in candidate - prefix):
                return candidate
        return None

    intents = []
    closed = _intent_closure(c, frozenset())
    while closed is not None:
        intents.append(closed)
        closed = next_closed(closed)
    found = [FormalConcept(derive(c, "types", i), i) for i in intents]
    return tuple(sorted(found, key=_concept_key))


def concepts_by_enumeration(c: Classification) -> tuple[FormalConcept, ...]:
    """Oracle: scan every (extent, intent) pair for fixed pairs of derivation."""
    instance_subsets = [frozenset()]
    for i in sorted(c.instances):
        instance_subsets += [s | {i} for s in instance_subsets]
    type_subsets = [frozenset()]
    for t in sorted(c.types):
        type_subsets += [s | {t} for s in type_subsets]
    found = [
        FormalConcept(e, i)
        for e in instance_subsets
        for i in type_subsets
        if derive(c, "instances", e) == i and derive(c, "types", i) == e
    ]
    return tuple(sorted(found, key=_concept_key))


def lattice(c: Classification) -> ConceptLattice:
    cs = concepts(c)
    order = frozenset(
        (i, j)
        for i, ci in enumerate(cs)
        for j, cj in enumerate(cs)
        if ci.extent <= cj.extent
    )
    return ConceptLattice(cs, order)


def _bound(l: ConceptLattice, i: int, j: int, side: Literal["extent", "intent"]) -> FormalConcept:
    """The concept whose ``side`` is the intersection of concept i's and j's."""
    for k in (i, j):
        if not 0 <= k < len(l.concepts):
            raise IfkError(f"unknown concept index: {k}")
    wanted = getattr(l.concepts[i], side) & getattr(l.concepts[j], side)
    for concept in l.concepts:
        if getattr(concept, side) == wanted:
            return concept
    raise IfkError("lattice is missing a meet/join; was it built by lattice()?")


def meet(l: ConceptLattice, i: int, j: int) -> FormalConcept:
    """Extent intersection; extents are closed under intersection."""
    return _bound(l, i, j, "extent")


def join(l: ConceptLattice, i: int, j: int) -> FormalConcept:
    """Intent intersection; intents are closed under intersection."""
    return _bound(l, i, j, "intent")


def object_concept(c: Classification, i: str) -> FormalConcept:
    if i not in c.instances:
        raise IfkError(f"unknown instance: {i}")
    intent_ = derive(c, "instances", [i])
    return FormalConcept(derive(c, "types", intent_), intent_)


def attribute_concept(c: Classification, t: str) -> FormalConcept:
    if t not in c.types:
        raise IfkError(f"unknown type: {t}")
    extent_ = derive(c, "types", [t])
    return FormalConcept(extent_, derive(c, "instances", extent_))


def _covers(l: ConceptLattice) -> list[tuple[int, int]]:
    strict = {(i, j) for i, j in l.order if i != j}
    return sorted(
        (i, j)
        for i, j in strict
        if not any((i, k) in strict and (k, j) in strict for k in range(len(l.concepts)))
    )


def _label(concept: FormalConcept) -> str:
    """The concept as DOT string content: identifiers may hold ``"`` and ``\\``."""
    extent_, intent_ = (",".join(sorted(side)) for side in (concept.extent, concept.intent))
    text = "{" + extent_ + "} | {" + intent_ + "}"
    return text.replace("\\", "\\\\").replace('"', '\\"')


def lattice_dot(l: ConceptLattice) -> str:
    """Hasse diagram of the lattice (cover relation only) in DOT syntax."""
    lines = ["digraph concept_lattice {", "  rankdir=BT;", "  node [shape=box];"]
    for k, concept in enumerate(l.concepts):
        lines.append(f'  c{k} [label="{_label(concept)}"];')
    for i, j in _covers(l):
        lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
