"""Shared error and validation-result types."""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of a checker: defects are data, not failures.

    The shape of each defect is documented by the checker that produced it
    (strings for structural checks, tuples for counterexamples).
    """

    ok: bool
    defects: tuple = ()

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def from_defects(cls, defects) -> "ValidationResult":
        defects = tuple(defects)
        return cls(not defects, defects)
