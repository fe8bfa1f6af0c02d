"""Finite classifications and the infomorphisms that link them.

A classification is a finite incidence relation between instances and
types.  The one index it derives is its incidence as bit masks: sorted
types and sorted instances are bit positions, so an intent or an extent
is one int, read back into names by the helpers of ``ifk.masks``.
Intents, extents, derivation, concepts, and the logics and theory lift of
``ifk.logics`` read the masks; an infomorphism's invariance check and the
sum channel test ``(instance, type)`` pairs.  An infomorphism maps types
forward and instances backward between two classifications so that
classification is invariant: a source type holds of a pulled-back instance
exactly when its image holds of the original instance.
"""

from __future__ import annotations

from functools import cached_property

from .errors import IfkError, ValidationResult, _map, _Value
from .masks import _named, valid_identifier


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
