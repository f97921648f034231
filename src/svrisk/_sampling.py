"""Seeded exact rational samples for the law checkers and sampled anchors.

Every draw comes from a caller-owned ``random.Random``, so a stream is fixed
by its seed.  Positions start with a small deterministic battery (zero, unit
positions, one lone loss) before the random draws.  Random coordinates of
positions and eligible portfolios lie in [-3, 3]: ``BOUND`` is a constant.
A drawn p/q is the int p * (12 // q) over 12, the lcm of ``_DENOMS``, and
generator combinations are summed in those ints; Fractions appear only in the
vectors returned.  The stream is consumed exactly as by ``rng.choice(_DENOMS)``
then ``rng.randint``: a seed gives the same samples and leaves the same state.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .measures import AccExpr, eval_acceptance
from .rationals import Vec
from .scenario import Market, RandomVector

_DENOMS = (1, 1, 2, 2, 3, 4)
_LCM = math.lcm(*_DENOMS)
BOUND = 3


def _draws(rng, count: int, bound: int = BOUND, low: int | None = None) -> list[int]:
    """``count`` rationals p/q as the ints p * (_LCM // q): q drawn from
    _DENOMS, then p in [low, bound*q] (default low: -bound*q).  ``choice``
    and ``randint`` on a ``random.Random`` each reduce to one ``_randbelow``
    call, made here directly, so the stream moves as under those calls."""
    below, out = rng._randbelow, []
    for _ in range(count):
        q = _DENOMS[below(6)]
        lo = -bound * q if low is None else low
        out.append((lo + below(bound * q - lo + 1)) * (_LCM // q))
    return out


def _combination(gens, coeffs) -> list[int]:
    """sum of c * g over the generators g and int coefficients c, in ints."""
    return [sum(c * v for c, v in zip(coeffs, col)) for col in zip(*gens)]


def dyadic_in_01(rng) -> Fraction:
    k = 1 + rng._randbelow(3)
    return Fraction(1 + rng._randbelow(2 ** k - 1), 2 ** k)


def dyadic_gt1(rng) -> Fraction:
    if rng._randbelow(2):
        return Fraction(2 ** (1 + rng._randbelow(3)))
    return 1 + dyadic_in_01(rng)


def position(market: Market, rng, i: int) -> RandomVector:
    """Draw i: first a deterministic battery of zero, each unit position and
    its negative, and a lone loss of one unit; then random positions."""
    n, d = market.n, market.d
    if i <= 2 * d:  # zero, then unit k at i = 2k + 1 and its negative at 2k + 2
        row = tuple(int(i == 2 * k + 1) - int(i == 2 * k + 2) for k in range(d))
        return RandomVector._raw((row,) * n, 1)
    if i == 2 * d + 1:
        return RandomVector._raw(((-1,) + (0,) * (d - 1),) + ((0,) * d,) * (n - 1), 1)
    return RandomVector(tuple(zip(*[iter(_draws(rng, n * d))] * d)), _LCM)


def rotated(x: RandomVector) -> RandomVector:
    return RandomVector._raw(x.ints[1:] + x.ints[:1], x.den)


def eligible(market: Market, rng) -> Vec:
    return tuple(Fraction(v, _LCM) for v in _draws(rng, market.m))


def cone_position(market: Market, rng) -> RandomVector:
    gens = market.cone.generators
    return RandomVector(tuple(tuple(_combination(gens, _draws(rng, len(gens), 1, 0)))
                              for _ in range(market.n)), _LCM)


def km_point(market: Market, rng, bound: int) -> Vec:
    gens = market.cone_in_m.generators
    return tuple(Fraction(v, _LCM) for v in _combination(gens, _draws(rng, len(gens), bound, 0)))


def neg_interior_point(market: Market, rng) -> Vec:
    """A point of -int(K cap M): minus a strictly positive generator combo."""
    gens = market.cone_in_m.generators
    return tuple(Fraction(-v, _LCM) for v in _combination(gens, _draws(rng, len(gens), BOUND, 1)))


def pick_point(value, rng) -> Vec:
    """A representative point of a nonempty upper set: the vertex of its first
    piece (``UpperSet.vreps``), plus a cone drift half the time."""
    point = value.vreps()[0].vertices[0]
    if rng.randint(0, 1):
        for g in value.recession.generators:
            point = tuple(a + Fraction(c * b, _LCM)
                          for a, b, c in zip(point, g, _draws(rng, len(g), 1, 0)))
    return point


def accepted_position(market: Market, a: AccExpr, rng, i: int):
    """A position in the acceptance set, built by compensating a sample."""
    x = position(market, rng, i)
    value = eval_acceptance(market, a, x)
    if value.is_empty():
        return None
    return market.add_eligible(x, pick_point(value, rng))
