"""Names, and sets of names as bit masks: the one encoding every layer shares.

Sorted names are bit positions, so a set of names (an intent, an
extent, a state, a sequent side) is one int; ``_at`` or ``_named`` turns
a mask back into names and ``_positions``, the one reader of set bits,
into positions.  Every module imports these helpers from here, so a
command loads only the layers it runs.
"""

from __future__ import annotations

import re
from itertools import compress, count

_NOT_IN_IDENTIFIER = re.compile(r"[\s\ud800-\udfff]")  # \s is str.isspace


def valid_identifier(name: str) -> bool:
    """Identifiers are non-empty Unicode text without whitespace: a lone
    surrogate, which has no UTF-8 encoding, is not text."""
    return isinstance(name, str) and bool(name) and not _NOT_IN_IDENTIFIER.search(name)


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
