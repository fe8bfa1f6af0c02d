"""``str`` of an int past the interpreter's digit limit, loaded only for one:
``decimal`` has no such limit, but ``Decimal(n)`` alone is quadratic in
the digits, so this goes by halves, as CPython 3.12's ``_pylong`` does.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, Context, Decimal


def by_halves(n: int) -> str:
    exact, powers = Context(prec=MAX_PREC, Emax=MAX_EMAX), {}

    def power(w: int) -> Decimal:  # 2^w, kept: each level of halves asks for one or two widths
        if w not in powers:
            powers[w] = Decimal(1 << w) if w <= 128 else exact.multiply(power(w >> 1), power(w - (w >> 1)))
        return powers[w]

    def convert(m: int, w: int) -> Decimal:  # m < 2^w, by halves
        if w <= 128:
            return Decimal(m)
        hi = m >> (h := w >> 1)
        return exact.add(convert(m - (hi << h), h), exact.multiply(convert(hi, w - h), power(h)))

    return "-" * (n < 0) + str(convert(abs(n), abs(n).bit_length()))
