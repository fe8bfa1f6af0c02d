"""Formal concept analysis over classifications.

Derivation maps an instance set to its common types and a type set to
its common instances; a concept is a fixed pair of the two.  Concepts
are enumerated by lectic next-closure over type subsets (Ganter, 1984)
on the classification's own extent masks, with a naive all-pairs scan
kept as the testing oracle, and form a complete lattice under extent
inclusion.

A lattice stores only its concepts.  Its order (extent inclusion), its
covers and its meet/join lookups are derived from them on first use, on
the same encoding: sorted instances and sorted types are bit positions,
so an extent or an intent is one int, intersection is ``&`` and
inclusion is ``a & ~b == 0``.  Per instance, the set of concepts
holding it is a mask too, so the up-set of a concept, which the order
and the covers both read, is the AND of those sets over its extent.
Its upper covers are the minimal strict supersets of its extent
(Lindig, "Fast Concept Analysis", 2000): the concepts above it that lie
above none of the others.  Names are converted only at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal

from .classification import Classification, _bits, _named, _reduce_fields, extent
from .errors import CONCEPT_TYPE_GUARD, CapExceeded, IfkError
from .theories import _columns, _common, _mask


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

    __reduce__ = _reduce_fields

    # Derived on first use from the concepts, which alone fix equality
    # and hashing.
    @cached_property
    def _sides(self) -> dict[str, tuple[list[int], dict[int, int]]]:
        """Per side ("extent", "intent"): each concept's mask, and the
        first concept holding each mask."""
        out = {}
        for side in ("extent", "intent"):
            sets = [getattr(k, side) for k in self.concepts]
            index = {x: b for b, x in enumerate(sorted(frozenset().union(*sets)))}
            masks = [_mask(index, s) for s in sets]
            first: dict[int, int] = {}
            for k, m in enumerate(masks):
                first.setdefault(m, k)
            out[side] = (masks, first)
        return out

    @cached_property
    def _ups(self) -> list[int]:
        """Per concept, the concepts whose extent contains its own (bit k: concept k)."""
        extents, _ = self._sides["extent"]
        holding = _columns(extents, max(extents, default=0).bit_length())
        everything = (1 << len(extents)) - 1
        return [_common(holding, e, everything) for e in extents]

    @cached_property
    def order(self) -> frozenset[tuple[int, int]]:
        """(i, j): concept i <= concept j, that is, its extent is contained in j's."""
        return frozenset((i, j) for i, up in enumerate(self._ups) for j in _bits(up))


def derive(
    c: Classification, side: Literal["instances", "types"], s: Iterable[str]
) -> frozenset[str]:
    """Common types of an instance set, or common instances of a type set."""
    s = frozenset(s)
    if side == "instances":
        unknown = s - c.instances
        if unknown:
            raise IfkError(f"unknown instance(s): {', '.join(sorted(unknown))}")
        intents, extents = c._masks
        m = (1 << len(extents)) - 1
        for i in s:
            m &= intents[i]
        return _named(list(extents), m)
    if side == "types":
        return extent(c, s)
    raise IfkError(f"side must be 'instances' or 'types', got {side!r}")


def _concept_key(concept: FormalConcept) -> tuple[int, tuple[str, ...]]:
    return (len(concept.extent), tuple(sorted(concept.extent)))


def concepts(c: Classification) -> tuple[FormalConcept, ...]:
    """All concepts, by next-closure on masks over type subsets, in
    canonical order (extent size, then lexicographic extent)."""
    if len(c.types) > CONCEPT_TYPE_GUARD:
        raise CapExceeded("concept enumeration", len(c.types), CONCEPT_TYPE_GUARD)
    intents, columns = c._masks
    instances, types, extents = list(intents), list(columns), list(columns.values())
    everyone = (1 << len(instances)) - 1

    def closure(b: int) -> tuple[int, int]:
        e = _common(extents, b, everyone)
        return e, sum(1 << k for k, x in enumerate(extents) if not e & ~x)

    found = [closure(0)]
    while True:
        b = found[-1][1]
        for k in reversed(range(len(types))):
            bit = 1 << k
            if b & bit:
                continue
            prefix = b & (bit - 1)
            e, candidate = closure(prefix | bit)
            if not candidate & ~prefix & (bit - 1):  # adds no type before k
                found.append((e, candidate))
                break
        else:
            break
    found.sort(key=lambda concept: (concept[0].bit_count(), list(_bits(concept[0]))))
    return tuple(FormalConcept(_named(instances, e), _named(types, b)) for e, b in found)


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
    return ConceptLattice(concepts(c))


def _bound(l: ConceptLattice, i: int, j: int, side: Literal["extent", "intent"]) -> FormalConcept:
    """The concept whose ``side`` is the intersection of concept i's and j's."""
    for k in (i, j):
        if not 0 <= k < len(l.concepts):
            raise IfkError(f"unknown concept index: {k}")
    masks, first = l._sides[side]
    k = first.get(masks[i] & masks[j])
    if k is None:
        raise IfkError("lattice is missing a meet/join; was it built by lattice()?")
    return l.concepts[k]


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
    """Sorted pairs (i, j) where concept j is an upper cover of concept i:
    the minimal strict supersets of each extent, which are the concepts
    strictly above i that lie strictly above none of the others."""
    strict = [up & ~(1 << i) for i, up in enumerate(l._ups)]
    covers = []
    for i, above in enumerate(strict):
        beyond = 0
        for k in _bits(above):
            beyond |= strict[k]
        covers += [(i, j) for j in _bits(above & ~beyond)]
    return covers


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
