"""Shared error types, the value base type and validation results.

Every dataclass in ``ifk`` is frozen and derives ``_Value``: a class
names in ``_freeze`` the fields to store converted (to frozensets,
tuples or read-only maps), and every value copies through its
constructor, so a copy carries nothing its original derived.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from types import MappingProxyType

# Default caps and bounds, kept here so a caller can read them without
# importing the module that enforces them.
DEFAULT_SEQUENT_CAP = 65536  # 4^8: materialized closures up to 8 types
DEFAULT_INSTANCE_CAP = 4096
DEFAULT_DELTA_BOUND = 2  # integrate's delta search: at most 2 types per sequent side
DEFAULT_THEORY_TYPE_CAP = 4096  # the theory-classification lift: 2^12 theory-types
CONCEPT_TYPE_GUARD = 20  # concept enumeration refuses more types than this


class IfkError(Exception):
    """Raised when an operation is called outside its contract."""


class CapExceeded(IfkError):
    """A materialization would exceed its size cap.

    Caps make exponential blow-ups opt-in; the error reports the size that
    would have been required so callers can re-run with a larger cap.  A
    phase marked "(lower bound)" stopped counting at the cap, so the size
    it reports is the least that would be required.
    """

    def __init__(self, phase: str, required: int, cap: int):
        self.phase = phase
        self.required = required
        self.cap = cap
        super().__init__(f"{phase}: requires {required} > cap {cap}")


class BundleError(IfkError):
    """A bundle document failed to parse or validate."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


def _plain(value):
    """A read-only map as plain dicts, recursively; pickle cannot copy the views."""
    if isinstance(value, MappingProxyType):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _map(m) -> MappingProxyType:
    """A read-only copy of a map."""
    return MappingProxyType(dict(m))


def _maps(m) -> MappingProxyType:
    """A read-only copy of a map of maps."""
    return MappingProxyType({k: MappingProxyType(dict(v)) for k, v in m.items()})


def _sets(m) -> MappingProxyType:
    """A read-only copy of a map of sets, each a frozenset."""
    return MappingProxyType({k: frozenset(v) for k, v in m.items()})


class _Value:
    """Base of every ``ifk`` dataclass: each field named in the class's
    ``_freeze`` table is stored as that field's converter makes it, and
    pickle and deep copy rebuild the value through its constructor from
    its fields (read-only maps as plain dicts, which it freezes again).
    A value with a map field sets ``__hash__ = None``: the hash a
    dataclass generates cannot hash a read-only map."""

    _freeze = {}  # no annotation: an annotated table would be a field

    def __post_init__(self):
        for name, convert in self._freeze.items():
            object.__setattr__(self, name, convert(getattr(self, name)))

    def __reduce__(self):
        return type(self), tuple(_plain(getattr(self, f.name)) for f in fields(self))


@dataclass(frozen=True)
class ValidationResult(_Value):
    """Outcome of a checker: defects are data, not failures.

    The shape of each defect is documented by the checker that produced it
    (strings for structural checks, tuples for counterexamples).
    """

    ok: bool
    defects: tuple = ()
    _freeze = {"defects": tuple}

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def from_defects(cls, defects) -> "ValidationResult":
        defects = tuple(defects)
        return cls(not defects, defects)
