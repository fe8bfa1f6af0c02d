"""Formal concept analysis over classifications.

Derivation maps an instance set to its common types and a type set to
its common instances; a concept is a fixed pair of the two.  Concepts
are enumerated by FCbO (Outrata & Vychodil, 2012) on the
classification's own masks: Close-by-One adds to a concept only types
past its own, and a child skips the closures whose canonicity test
failed at its parent.  Derivation itself and the object and attribute
concepts are ``ifk.logics``'s, and the all-pairs scan that tests FCbO is
``ifk.oracles``'s.

A lattice stores what FCbO computes: the sorted instances and types are
bit positions, and each concept is its extent and its intent as ints, so
intersection is ``&`` and inclusion is ``a & ~b == 0``; its
``FormalConcept`` values are built only when ``concepts`` is read.  The
order (extent inclusion), covers, meet/join, DOT and the CLI's order
report are derived from the masks.  A concept's up-set, for ``order``
and the report, is the AND over its extent of each instance's concepts.
Covers are Lindig's neighbour count ("Fast Concept Analysis", 2000).
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from operator import attrgetter

from .errors import CONCEPT_TYPE_GUARD, CapExceeded, IfkError, _Value
from .masks import _at, _canonical, _columns, _common, _mask, _named, _positions


class FormalConcept(_Value):
    extent: frozenset[str]
    intent: frozenset[str]
    _freeze = {"extent": frozenset, "intent": frozenset}


_FIELDS = ("_instances", "_extents", "_types", "_intents")
_masks = attrgetter(*_FIELDS)


class ConceptLattice(_Value):
    concepts: tuple[FormalConcept, ...]

    def __init__(self, concepts: Iterable[FormalConcept]):
        concepts, fields = tuple(concepts), []
        for side in ("extent", "intent"):
            sets = [getattr(k, side) for k in concepts]
            index = {x: b for b, x in enumerate(sorted(frozenset().union(*sets)))}
            fields += [tuple(index), tuple(_mask(index, s) for s in sets)]
        self.__dict__.update(zip(_FIELDS, fields), concepts=concepts)

    # The names and masks fix the concepts; a copy carries them alone.
    def __eq__(self, other):
        return _masks(self) == _masks(other) if type(other) is ConceptLattice else NotImplemented

    def __hash__(self):
        return hash(_masks(self))

    def __reduce__(self):
        return _lattice_of, _masks(self)

    @cached_property
    def concepts(self) -> tuple[FormalConcept, ...]:
        """The concepts, built on first read."""
        pairs = zip(self._extents, self._intents)
        return tuple(FormalConcept(_named(self._instances, e), _named(self._types, i)) for e, i in pairs)

    @cached_property
    def _first(self) -> tuple[dict[int, int], dict[int, int]]:
        """Per side, extent and intent, the first concept holding each mask: for meet, join and covers."""
        sides = (self._extents, self._intents)
        return tuple({m: k for k, m in reversed(list(enumerate(masks)))} for masks in sides)

    def _ups(self) -> Iterator[int]:
        """Per concept, the concepts whose extent contains its own (bit k: concept k), made when read."""
        extents = self._extents
        holding, everything = _columns(extents, len(self._instances)), (1 << len(extents)) - 1
        return (_common(holding, e, everything) for e in extents)

    @cached_property
    def order(self) -> frozenset[tuple[int, int]]:
        """(i, j): concept i <= concept j, that is, its extent is contained in j's."""
        return frozenset((i, j) for i, up in enumerate(self._ups()) for j in _positions(up))

    def _json(self, indent: str, out: list[str]) -> None:
        """The strict order as ``canonical_json`` renders its [i, j] lists, a join per concept."""
        inner, item = indent + "  ", indent + "    "
        tails = [f"{j}{inner}]," for j in range(len(self._extents))]  # a pair from j, to the comma
        out.append("[")
        for i, up in enumerate(self._ups()):
            up ^= 1 << i
            if up:
                head = f"{inner}[{item}{i},{item}"
                out.append(head)
                out.append(head.join(map(tails.__getitem__, _positions(up))))
        out[-1] = out[-1][:-1] + indent + "]" if out[-1] != "[" else "[]"  # the last comma goes


def _lattice_of(*fields) -> ConceptLattice:
    """The lattice of these sorted instances, extents, sorted types and intents."""
    l = ConceptLattice.__new__(ConceptLattice)
    l.__dict__.update(zip(_FIELDS, fields))
    return l


def concepts(c: Classification) -> tuple[FormalConcept, ...]:
    """All concepts in canonical order (extent size, then lexicographic extent)."""
    return lattice(c).concepts


def lattice(c: Classification) -> ConceptLattice:
    """The concept lattice; FCbO on masks finds its concepts, kept in canonical order."""
    if len(c.types) > CONCEPT_TYPE_GUARD:
        raise CapExceeded("concept enumeration", len(c.types), CONCEPT_TYPE_GUARD)
    intents, columns = c._masks  # keyed by the sorted instance and type names
    rows, extents = list(intents.values()), list(columns.values())
    everyone, every_type = (1 << len(rows)) - 1, (1 << len(extents)) - 1
    found: dict[int, int] = {}  # extent -> intent, the AND of its instances' intents
    # (extent, intent, first type to add, per type the intent whose canonicity test failed)
    stack = [(everyone, _common(rows, everyone, every_type), 0, [0] * len(extents))]
    while stack:
        e, b, start, failed = stack.pop()
        found[e] = b
        failed = failed.copy()  # the parent's list is its siblings' too
        for k in range(start, len(extents)):
            below = (1 << k) - 1
            if b >> k & 1 or failed[k] & ~b & below:  # a failure above b fails here too
                continue
            child = e & extents[k]
            d = _common(rows, child, every_type)
            if d & ~b & below:  # adds a type before k: found from another concept
                failed[k] = d
            else:
                stack.append((child, d, k + 1, failed))
    order = _canonical(found)
    return _lattice_of(tuple(intents), tuple(order), tuple(columns), tuple(found[e] for e in order))


def _bound(l: ConceptLattice, i: int, j: int, side: int) -> FormalConcept:
    """The concept whose extent (side 0) or intent (side 1) is concept i's and j's intersection."""
    masks = (l._extents, l._intents)[side]
    for k in (i, j):
        if not 0 <= k < len(masks):
            raise IfkError(f"unknown concept index: {k}")
    k = l._first[side].get(masks[i] & masks[j])
    if k is None:
        raise IfkError("lattice is missing a meet/join; was it built by lattice()?")
    return l.concepts[k]


def meet(l: ConceptLattice, i: int, j: int) -> FormalConcept:
    """Extent intersection; extents are closed under intersection."""
    return _bound(l, i, j, 0)


def join(l: ConceptLattice, i: int, j: int) -> FormalConcept:
    """Intent intersection; intents are closed under intersection."""
    return _bound(l, i, j, 1)


def _covers(l: ConceptLattice) -> list[tuple[int, int]]:
    """Sorted pairs (i, j) where concept j is an upper cover of concept i, by
    Lindig's count: each type outside j's intent leads from j's extent to the
    concept of its intersection with that type's extent, and a concept led to
    by as many types as it adds to j's intent is a lower cover of j."""
    extents, intents, index = l._extents, l._intents, l._first[0]
    ext, every_type = [0] * len(l._types), (1 << len(l._types)) - 1
    for e, b in zip(extents, intents):
        for m in _positions(b):  # ext[m]: the OR of the extents whose intent holds m
            ext[m] |= e
    try:
        led = Counter((index[e & ext[m]], j) for j, (e, b) in enumerate(zip(extents, intents))
                      for m in _positions(every_type & ~b))
    except KeyError:
        raise IfkError("lattice is missing a meet/join; was it built by lattice()?") from None
    return sorted(p for p, n in led.items() if n == (intents[p[0]] & ~intents[p[1]]).bit_count())


def lattice_dot(l: ConceptLattice) -> str:
    """Hasse diagram of the lattice (cover relation only) in DOT syntax."""
    # labels are DOT string content, and identifiers may hold ``"`` and ``\\``
    instances, types = ([x.replace("\\", "\\\\").replace('"', '\\"') for x in names]
                        for names in (l._instances, l._types))
    lines = ["digraph concept_lattice {", "  rankdir=BT;", "  node [shape=box];"]
    for k, (e, i) in enumerate(zip(l._extents, l._intents)):
        extent_, intent_ = ",".join(_at(instances, e)), ",".join(_at(types, i))
        lines.append(f'  c{k} [label="{{{extent_}}} | {{{intent_}}}"];')
    lines += [f"  c{i} -> c{j};" for i, j in _covers(l)]
    lines.append("}")
    return "\n".join(lines) + "\n"
