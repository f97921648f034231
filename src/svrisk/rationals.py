"""Exact rational vectors and matrices.

Values are Python ints or fractions.Fraction; floats never enter the kernel.
Document values (probabilities, portfolios, levels) are read as Fractions;
positions as one int matrix over one denominator (``scenario.RandomVector``,
whose ``values`` view alone holds Fractions).  Halfspace rows and cone
generators are tuples of coprime ints (see ``coprime``), so elimination and
dot products on them stay in integer arithmetic; a division goes through
Fraction, never ``/`` on ints.
Vectors are tuples, matrices tuples of row tuples.
"""

from __future__ import annotations

import math
from fractions import Fraction

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact Fraction.

    Floats and bools are rejected: the kernel is exact by contract, and a
    JSON ``true`` is not the number 1.  A zero denominator, as in '1/0', is a
    ValueError like any other bad literal; so is a string with '_' or with
    whitespace inside it, which ``Fraction`` reads on some Python versions
    only ('1_000' from 3.11, '1 / 2' from 3.12).  Whitespace around it is
    allowed.
    """
    if isinstance(value, bool):
        raise TypeError(f"not an exact rational: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "_" in text or any(c.isspace() for c in text):
            raise ValueError(f"Invalid literal for Fraction: {value!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {value!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


def ratio(value) -> tuple[int, int]:
    """``rat(value)`` as ints (p, q), q > 0, not always in lowest terms.  A
    plain int, or a 'p' or 'p/q' string of ASCII digits with an optional
    leading '-', is read with no Fraction; the rest goes through ``rat``."""
    if type(value) is int:
        return value, 1
    if type(value) is str and value.isascii():
        num, slash, den = value.partition("/")
        if num.removeprefix("-").isdigit() and (not slash or den.isdigit() and int(den) > 0):
            return int(num), int(den or 1)
    r = rat(value)
    return r.numerator, r.denominator


def fmt(value: Fraction) -> str:
    """Canonical string form, 'p/q' or plain integer."""
    return str(value)


def vec(items) -> Vec:
    """A vector of Fractions; a string is one rational, never a vector of digits."""
    if isinstance(items, str):
        raise TypeError(f"not a vector: {items!r}")
    return tuple(rat(v) for v in items)


def dot(a: Vec, b: Vec):
    """Exact dot product; an int when both vectors hold ints."""
    return sum(x * y for x, y in zip(a, b, strict=True))


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vscale(t: Fraction, a: Vec) -> Vec:
    return tuple(t * x for x in a)


def zeros(n: int) -> Vec:
    return (ZERO,) * n


def unit(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def over_den(a) -> tuple[tuple[int, ...], int]:
    """Ints or Fractions a as (ints, den) with a = ints / den, den their lcm denominator."""
    den = math.lcm(*(x.denominator for x in a))
    return tuple(x.numerator * (den // x.denominator) for x in a), den


def coprime(ints) -> tuple[int, ...]:
    """Ints divided by their gcd; the zero vector stays zeros."""
    g = math.gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def scale_to_coprime(a) -> tuple[int, ...]:
    """Ints or Fractions scaled by a positive rational to coprime ints."""
    return coprime(over_den(a)[0])


def _echelon(rows) -> list[tuple[int, tuple[int, ...]]]:
    """Fraction-free Gauss-Jordan elimination of coprime int rows: the pivot
    rows with their pivot columns, each column cancelled from every other
    row by cross-multiplication."""
    pivots = []
    while rows:
        p = rows.pop()
        if (c := next((j for j, v in enumerate(p) if v), None)) is None:
            continue

        def cancel(q):
            return coprime([p[c] * x - q[c] * y for x, y in zip(q, p)]) if q[c] else q

        pivots = [(j, cancel(q)) for j, q in pivots] + [(c, p)]
        rows = [cancel(q) for q in rows]
    return pivots


def solve_linear(a: Mat, b: Vec) -> Vec | None:
    """Solve A x = b exactly; None if inconsistent.  Free variables are set
    to zero, so each pivot row of [A | b] gives its variable alone."""
    ncols = len(a[0]) if a else 0
    x = [ZERO] * (ncols + 1)
    for c, p in _echelon([scale_to_coprime((*r, v)) for r, v in zip(a, b, strict=True)]):
        x[c] = Fraction(p[-1], p[c])
    return None if x[ncols] else tuple(x[:ncols])  # a pivot on b is a row 0 = b_i != 0


def rank(a) -> int:
    """Rank of rows of ints or Fractions: the pivot count of their echelon."""
    return len(_echelon([scale_to_coprime(row) for row in a]))
