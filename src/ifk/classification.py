"""Finite classifications and the infomorphisms that link them.

A classification is a finite incidence relation between instances and
types.  An infomorphism maps types forward and instances backward between
two classifications so that classification is invariant: a source type
holds of a pulled-back instance exactly when its image holds of the
original instance.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import CapExceeded, IfkError, ValidationResult

DEFAULT_THEORY_TYPE_CAP = 4096


def valid_identifier(name: str) -> bool:
    """Identifiers are non-empty strings without whitespace."""
    return isinstance(name, str) and bool(name) and not any(ch.isspace() for ch in name)


def _plain(value):
    """A read-only map as plain dicts, recursively; pickle cannot copy the views."""
    if isinstance(value, MappingProxyType):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _read_only(value):
    """Every dict of ``_plain``'s output a read-only view again."""
    if isinstance(value, dict):
        return MappingProxyType({k: _read_only(v) for k, v in value.items()})
    return value


def _rebuild(cls, args):
    return cls(*map(_read_only, args))


def _reduce_fields(self):
    """``__reduce__`` of a frozen dataclass: pickle and deep copy rebuild it
    through its constructor from its fields (read-only maps as plain
    dicts), so nothing it derived on first use is copied."""
    return _rebuild, (type(self), tuple(_plain(getattr(self, f.name)) for f in fields(self)))


@dataclass(frozen=True)
class Classification:
    name: str
    instances: frozenset[str]
    types: frozenset[str]
    incidence: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "instances", frozenset(self.instances))
        object.__setattr__(self, "types", frozenset(self.types))
        object.__setattr__(
            self, "incidence", frozenset((i, t) for i, t in self.incidence)
        )

    __reduce__ = _reduce_fields

    # Incidence indexes, built on first use and freed with the classification;
    # equality and hashing read the fields only.
    @cached_property
    def _intents(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {i: set() for i in self.instances}
        for i, t in self.incidence:
            out[i].add(t)
        return {i: frozenset(ts) for i, ts in out.items()}

    @cached_property
    def _extents(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {t: set() for t in self.types}
        for i, t in self.incidence:
            out[t].add(i)
        return {t: frozenset(xs) for t, xs in out.items()}


@dataclass(frozen=True, eq=True)
class Infomorphism:
    """A link between classifications: ``type_map`` is covariant over
    ``source.types``; ``instance_map`` is contravariant over
    ``target.instances``."""

    name: str
    source: Classification
    target: Classification
    type_map: Mapping[str, str]
    instance_map: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "type_map", MappingProxyType(dict(self.type_map)))
        object.__setattr__(self, "instance_map", MappingProxyType(dict(self.instance_map)))

    # mapping fields make the generated hash unusable; identity by fields is enough
    __hash__ = None  # type: ignore[assignment]
    __reduce__ = _reduce_fields

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
    return c._intents[i]


def extent(c: Classification, types: Iterable[str]) -> frozenset[str]:
    """All instances incident with every type in ``types``."""
    types = frozenset(types)
    unknown = types - c.types
    if unknown:
        raise IfkError(f"unknown type(s): {', '.join(sorted(unknown))}")
    result = set(c.instances)
    table = c._extents
    for t in types:
        result &= table[t]
    return frozenset(result)


def check_infomorphism(f: Infomorphism) -> ValidationResult:
    """Verify invariance of classification for every (instance, type) pair.

    Structurally broken maps (non-total or landing outside the declared
    sets) raise; invariance violations come back as defect triples
    ``(instance, type, side)`` with side naming where incidence holds.
    """
    src, dst = f.source, f.target
    missing_t = src.types - f.type_map.keys()
    if missing_t:
        raise IfkError(f"type map not total, missing: {', '.join(sorted(missing_t))}")
    stray_t = f.type_map.keys() - src.types
    if stray_t:
        raise IfkError(f"type map defined on undeclared types: {', '.join(sorted(stray_t))}")
    bad_t = {t for t, v in f.type_map.items() if v not in dst.types}
    if bad_t:
        raise IfkError(f"type map lands outside target types at: {', '.join(sorted(bad_t))}")
    missing_i = dst.instances - f.instance_map.keys()
    if missing_i:
        raise IfkError(f"instance map not total, missing: {', '.join(sorted(missing_i))}")
    stray_i = f.instance_map.keys() - dst.instances
    if stray_i:
        raise IfkError(
            f"instance map defined on undeclared instances: {', '.join(sorted(stray_i))}"
        )
    bad_i = {b for b, v in f.instance_map.items() if v not in src.instances}
    if bad_i:
        raise IfkError(
            f"instance map lands outside source instances at: {', '.join(sorted(bad_i))}"
        )

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
    subsets = [frozenset()]
    for t in sorted(c.types):
        subsets += [s | {t} for s in subsets]
    table = c._intents
    incidence = [
        (i, theory_type_name(s))
        for i in sorted(c.instances)
        for s in subsets
        if s <= table[i]
    ]
    return Classification(
        name=f"{c.name}.theories",
        instances=c.instances,
        types=frozenset(theory_type_name(s) for s in subsets),
        incidence=frozenset(incidence),
    )
