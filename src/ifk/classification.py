"""Finite classifications and the infomorphisms that link them.

A classification is a finite incidence relation between instances and
types.  The one index it derives is its incidence as bit masks: sorted
types and sorted instances are bit positions, so an intent or an extent
is one int, and ``_at`` or ``_named`` turns a mask back into names.  The
one reader of set bits (``_positions``) and the other mask helpers every
module shares live here too, so reading a classification loads no theory
code.  Intents, extents, derivation, concepts, logics and the theory
lift read the masks; an infomorphism's invariance check and the sum
channel test ``(instance, type)`` pairs.  An infomorphism maps types
forward and instances backward between two classifications so that
classification is invariant: a source type holds of a pulled-back
instance exactly when its image holds of the original instance.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import compress, count
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .errors import DEFAULT_THEORY_TYPE_CAP, CapExceeded, IfkError, ValidationResult, _map, _Value

_NOT_IN_IDENTIFIER = re.compile(r"[\s\ud800-\udfff]")  # \s is str.isspace


def valid_identifier(name: str) -> bool:
    """Identifiers are non-empty Unicode text without whitespace: a lone
    surrogate, which has no UTF-8 encoding, is not text."""
    return isinstance(name, str) and bool(name) and not _NOT_IN_IDENTIFIER.search(name)


class Classification(_Value):
    name: str
    instances: frozenset[str]
    types: frozenset[str]
    incidence: frozenset[tuple[str, str]]
    _freeze = {"instances": frozenset, "types": frozenset,
               "incidence": lambda pairs: frozenset((i, t) for i, t in pairs)}

    # The incidence as masks, built on first use and freed with the
    # classification; equality and hashing read the fields only.
    @cached_property
    def _masks(self) -> tuple[dict[str, int], dict[str, int]]:
        """Per instance, in sorted order, its intent as a mask over the
        sorted types; per type, in sorted order, its extent as a mask over
        the sorted instances.  A pair naming an undeclared instance or type
        raises the defect that ``validate_classification`` reports."""
        intents = dict.fromkeys(sorted(self.instances), 0)
        extents = dict.fromkeys(sorted(self.types), 0)
        row = {i: 1 << k for k, i in enumerate(intents)}
        column = {t: 1 << k for k, t in enumerate(extents)}
        try:
            for i, t in self.incidence:
                intents[i] |= column[t]
                extents[t] |= row[i]
        except KeyError:
            raise IfkError(validate_classification(self).defects[0]) from None
        return intents, extents


_FLAGS = bytes.maketrans(b"01", b"\0\1")  # binary digits to flags and back
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _at(names: Sequence[str], m: int) -> Iterator[str]:
    """The names at the set bits of ``m``, in order: bit k stands for ``names[k]``."""
    return compress(names, f"{m:b}"[::-1].encode().translate(_FLAGS))


def _named(names: Sequence[str], m: int) -> frozenset[str]:
    return frozenset(_at(names, m))


def _from_positions(positions: Collection[int]) -> int:
    """The int with bits at ``positions``: OR-ing each ``1 << x`` in would copy a growing int."""
    digits = bytearray(max(positions, default=0) + 1)
    for x in positions:
        digits[-1 - x] = 1
    return int(digits.translate(_DIGITS), 2)  # base 2 has no digit limit


def _positions(m: int) -> Iterable[int]:
    """Positions of the set bits of ``m``, lowest first, read by popcount k and
    width w: a flag per digit from a quarter set, else bits peeled off the top,
    a copy of the mask each, else (hundreds on a wide mask) one scan in C."""
    k, w = m.bit_count(), m.bit_length()
    if k > 8 and 4 * k >= w:  # the constants are fitted on widths 8 to 2^19
        return compress(count(), f"{m:b}"[::-1].encode().translate(_FLAGS))
    if k * (w + 10000) < 400 * (w + 2000):
        out = []
        while m:
            out.append(j := m.bit_length() - 1)  # bit_length() reads the top digit alone
            m ^= 1 << j
        return out[::-1]
    return map(re.Match.start, re.finditer("1", f"{m:b}"[::-1]))


def _mask(index: Mapping[str, int], names: Iterable[str]) -> int:
    """One copy of the mask per name: each caller passes one sequent side, state, extent or intent."""
    m = 0
    for name in names:
        m |= 1 << index[name]
    return m


def _columns(states: list[int], n: int) -> list[int]:
    """Per type k, the positions in ``states`` of the states where k holds."""
    columns: list[list[int]] = [[] for _ in range(n)]
    for j, x in enumerate(states):
        for k in _positions(x):
            columns[k].append(j)
    return [_from_positions(column) for column in columns]


def _common(columns: list[int], m: int, everywhere: int) -> int:
    """The positions in ``everywhere`` where every member of ``m`` holds."""
    for k in _positions(m):
        everywhere &= columns[k]
    return everywhere


def _canonical(masks: Iterable[int]) -> list[int]:
    """By popcount, then by sorted positions, lexicographically: for equal
    popcounts, the descending order of the low-bit-first binary strings."""
    return sorted(masks, key=lambda m: (-m.bit_count(), f"{m:b}"[::-1]), reverse=True)


class Infomorphism(_Value):
    """A link between classifications: ``type_map`` is covariant over
    ``source.types``; ``instance_map`` is contravariant over
    ``target.instances``."""

    name: str
    source: Classification
    target: Classification
    type_map: Mapping[str, str]
    instance_map: Mapping[str, str]
    _freeze = {"type_map": _map, "instance_map": _map}
    __hash__ = None  # type: ignore[assignment]

    # The invariance check, run on first use and kept: every field is
    # read-only, so each caller that validates this link reads one result.
    @cached_property
    def _invariance(self) -> ValidationResult:
        return check_infomorphism(self)


def validate_classification(c: Classification) -> ValidationResult:
    """Check identifier well-formedness and incidence references."""
    defects = []
    for label, names in (("instance", c.instances), ("type", c.types)):
        for n in sorted(names):
            if not valid_identifier(n):
                defects.append(f"bad {label} identifier: {n!r}")
    for i, t in sorted(c.incidence):
        if i not in c.instances:
            defects.append(f"incidence pair ({i}, {t}) references undeclared instance {i}")
        if t not in c.types:
            defects.append(f"incidence pair ({i}, {t}) references undeclared type {t}")
    return ValidationResult.from_defects(defects)


def intent(c: Classification, i: str) -> frozenset[str]:
    """All types incident with instance ``i``."""
    if i not in c.instances:
        raise IfkError(f"unknown instance: {i}")
    intents, extents = c._masks
    return _named(list(extents), intents[i])


def extent(c: Classification, types: Iterable[str]) -> frozenset[str]:
    """All instances incident with every type in ``types``."""
    types = frozenset(types)
    unknown = types - c.types
    if unknown:
        raise IfkError(f"unknown type(s): {', '.join(sorted(unknown))}")
    intents, extents = c._masks
    m = (1 << len(intents)) - 1
    for t in types:
        m &= extents[t]
    return _named(list(intents), m)


def check_infomorphism(f: Infomorphism) -> ValidationResult:
    """Verify invariance of classification for every (instance, type) pair.

    Structurally broken maps (non-total or landing outside the declared
    sets) raise; invariance violations come back as defect triples
    ``(instance, type, side)`` with side naming where incidence holds.
    """
    src, dst = f.source, f.target
    structure = (
        ("type map not total, missing", src.types - f.type_map.keys()),
        ("type map defined on undeclared types", f.type_map.keys() - src.types),
        ("type map lands outside target types at",
         {t for t, v in f.type_map.items() if v not in dst.types}),
        ("instance map not total, missing", dst.instances - f.instance_map.keys()),
        ("instance map defined on undeclared instances", f.instance_map.keys() - dst.instances),
        ("instance map lands outside source instances at",
         {b for b, v in f.instance_map.items() if v not in src.instances}),
    )
    for message, names in structure:
        if names:
            raise IfkError(f"{message}: {', '.join(sorted(names))}")

    defects = []
    for b in sorted(dst.instances):
        a = f.instance_map[b]
        for t in sorted(src.types):
            at_source = (a, t) in src.incidence
            at_target = (b, f.type_map[t]) in dst.incidence
            if at_source != at_target:
                side = "source-only" if at_source else "target-only"
                defects.append((b, t, side))
    return ValidationResult.from_defects(defects)


def identity_infomorphism(c: Classification) -> Infomorphism:
    return Infomorphism(
        name=f"id:{c.name}",
        source=c,
        target=c,
        type_map={t: t for t in c.types},
        instance_map={i: i for i in c.instances},
    )


def compose_infomorphisms(f: Infomorphism, g: Infomorphism) -> Infomorphism:
    """Composite of ``f : A -> B`` and ``g : B -> C``."""
    if f.target != g.source:
        raise IfkError(
            f"endpoint mismatch: {f.name} ends at {f.target.name}, "
            f"{g.name} starts at {g.source.name}"
        )
    return Infomorphism(
        name=f"{f.name};{g.name}",
        source=f.source,
        target=g.target,
        type_map={t: g.type_map[v] for t, v in f.type_map.items()},
        instance_map={c: f.instance_map[g.instance_map[c]] for c in g.instance_map},
    )


def instance_leq(c: Classification, i1: str, i2: str) -> bool:
    """``i1`` specializes ``i2``: every type of ``i2`` also holds of ``i1``."""
    return intent(c, i1) >= intent(c, i2)


def theory_type_name(members: Iterable[str]) -> str:
    return "{" + ",".join(sorted(members)) + "}"


def lift_to_theory_classification(
    c: Classification, cap: int = DEFAULT_THEORY_TYPE_CAP
) -> Classification:
    """Replace types by all flat theories (type subsets) of ``c``.

    An instance falls under a theory-type exactly when the subset is
    contained in its intent.  The 2^|types| blow-up is guarded by ``cap``.
    """
    required = 2 ** len(c.types)
    if required > cap:
        raise CapExceeded("theory classification", required, cap)
    intents, extents = c._masks
    subsets = [()]  # subsets[s]: the types of mask s, in sorted order
    for t in extents:
        subsets += [s + (t,) for s in subsets]
    names = [theory_type_name(s) for s in subsets]
    if len(set(names)) != required:
        raise IfkError("theory-type name collision; rename types")
    return Classification(
        name=f"{c.name}.theories",
        instances=c.instances,
        types=frozenset(names),
        incidence=frozenset(
            (i, names[s]) for i, x in intents.items() for s in range(required) if s & ~x == 0
        ),
    )
