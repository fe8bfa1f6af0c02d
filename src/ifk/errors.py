"""Shared error types, the value base type and validation results.

Every value in ``ifk`` derives ``_Value``: its constructor, equality,
hash and repr come from the fields its class annotates, it stores the
fields its ``_freeze`` table names converted (to frozensets, tuples or
read-only maps), and it copies through its constructor (a theory through
its axiom ints), so a copy carries nothing its original derived.
"""

from __future__ import annotations

from operator import attrgetter
from types import MappingProxyType

# Default caps and bounds, kept here so a caller can read them without
# importing the module that enforces them.
DEFAULT_SEQUENT_CAP = 65536  # 4^8: materialized closures up to 8 types
DEFAULT_INSTANCE_CAP = 4096
DEFAULT_DELTA_BOUND = 2  # integrate's delta search: at most 2 types per sequent side
DEFAULT_THEORY_TYPE_CAP = 4096  # the theory-classification lift: 2^12 theory-types
CONCEPT_TYPE_GUARD = 20  # concept enumeration refuses more types than this


def _decimal(n: int) -> str:
    """``str(n)`` at any size: ``str`` refuses an int past the interpreter's digit limit."""
    try:
        return int.__repr__(n)
    except ValueError:  # decimal has no digit limit, but Decimal(n) alone is quadratic in them
        from decimal import MAX_EMAX, MAX_PREC, Context, Decimal
    exact, powers = Context(prec=MAX_PREC, Emax=MAX_EMAX), {}

    def power(w: int) -> Decimal:  # 2^w, kept: each level of halves asks for one or two widths
        if w not in powers:
            powers[w] = Decimal(1 << w) if w <= 128 else exact.multiply(power(w >> 1), power(w - (w >> 1)))
        return powers[w]

    def convert(m: int, w: int) -> Decimal:  # m < 2^w, by halves, as CPython 3.12's _pylong does
        if w <= 128:
            return Decimal(m)
        hi = m >> (h := w >> 1)
        return exact.add(convert(m - (hi << h), h), exact.multiply(convert(hi, w - h), power(h)))

    return "-" * (n < 0) + str(convert(abs(n), abs(n).bit_length()))


class IfkError(Exception):
    """Raised when an operation is called outside its contract."""


class CapExceeded(IfkError):
    """A materialization would exceed its size cap.

    Caps make exponential blow-ups opt-in; the error reports the size that
    would have been required so callers can re-run with a larger cap.  A
    phase marked "(lower bound)" stopped counting at the cap (a sum, at
    its first node over it), so the size it reports is the least required.
    """

    def __init__(self, phase: str, required: int, cap: int):
        self.phase, self.required, self.cap = phase, required, cap
        super().__init__(f"{phase}: requires {_decimal(required)} > cap {_decimal(cap)}")


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


_set_field = object.__setattr__  # values refuse assignment; fields stay inline, fast to read


class _Value:
    """Base of every ``ifk`` value.  A class annotates its fields in
    order, with class-level defaults where it has them, and unless it
    defines its own gets an ``__init__`` taking them by position or
    keyword, ``__eq__`` and ``__hash__`` over the field tuple and a
    ``Cls(f=..., g=...)`` repr.  A class with a map field sets
    ``__hash__ = None``: a read-only map cannot be hashed.  No value can
    be assigned or lose an attribute; what it derives on first use is a
    ``cached_property``.  Pickle and deep copy rebuild a value through its
    constructor (read-only maps as plain dicts); a theory overrides this
    to copy its index and axiom ints alone, no ``Sequent``."""

    _fields, _defaults, _freeze = (), {}, {}  # unannotated: not fields

    def __init_subclass__(cls):
        names = cls._fields = tuple(cls.__annotations__)  # strings: only the names are read
        # a descriptor, such as the cached_property of a field built on first read, is no default
        cls._defaults = {name: value for name, value in cls.__dict__.items()
                         if name in names and not hasattr(value, "__set_name__")}
        get = attrgetter(*names)
        key = get if len(names) > 1 else lambda value: (get(value),)

        def __eq__(self, other):
            return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

        def __hash__(self):
            return hash(key(self))

        for name, method in (("__eq__", __eq__), ("__hash__", __hash__)):
            if name not in cls.__dict__:
                setattr(cls, name, method)

    def __init__(self, *args, **kwargs):
        names, freeze = self._fields, self._freeze
        if kwargs or len(args) != len(names):  # keywords or defaults: bind by name
            given = dict(zip(names, args))
            values = {**self._defaults, **given, **kwargs}
            if len(args) > len(names) or given.keys() & kwargs.keys() or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            _set_field(self, name, freeze[name](value) if name in freeze else value)
        self.__post_init__()

    def __post_init__(self):
        """The checks a class runs on its fields once they are set."""

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(_plain(getattr(self, name)) for name in self._fields)


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
