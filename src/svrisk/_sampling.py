"""Seeded exact rational samples for the law checkers and sampled anchors.

Every draw comes from a caller-owned ``random.Random``, so a stream is fixed
by its seed.  Positions start with a small deterministic battery (zero, unit
positions, one lone loss) before the random draws.  Random coordinates of
positions and eligible portfolios lie in [-3, 3]: ``BOUND`` is a constant.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .geometry import convert_rep
from .measures import AccExpr, eval_acceptance
from .rationals import Vec, vscale, zeros
from .scenario import Market, RandomVector

_DENOMS = (1, 1, 2, 2, 3, 4)
_LCM = math.lcm(*_DENOMS)
BOUND = Fraction(3)


def _draw(rng, bound, low: int | None = None) -> tuple[int, int]:
    """(p, q): q drawn from _DENOMS, then p in [low, bound*q] (default low: -bound*q)."""
    den = rng.choice(_DENOMS)
    top = max(1, bound.numerator * den // bound.denominator)
    return rng.randint(-top if low is None else low, top), den


def fraction(rng, bound, low: int | None = None) -> Fraction:
    """The rational p/q of ``_draw``."""
    return Fraction(*_draw(rng, bound, low))


def _combination(gens, dim: int, coeff) -> Vec:
    """sum of c*g over the generators, each c drawn by ``coeff()`` in turn."""
    point = zeros(dim)
    for g in gens:
        c = coeff()
        point = tuple(a + c * b for a, b in zip(point, g))
    return point


def dyadic_in_01(rng) -> Fraction:
    k = rng.randint(1, 3)
    return Fraction(rng.randint(1, 2 ** k - 1), 2 ** k)


def dyadic_gt1(rng) -> Fraction:
    if rng.randint(0, 1):
        return Fraction(2 ** rng.randint(1, 3))
    return 1 + dyadic_in_01(rng)


def position(market: Market, rng, i: int) -> RandomVector:
    """Draw i: first a deterministic battery of zero, each unit position and
    its negative, and a lone loss of one unit; then random positions."""
    n, d = market.n, market.d
    if i <= 2 * d:  # zero, then unit k at i = 2k + 1 and its negative at 2k + 2
        return RandomVector((tuple(int(i == 2 * k + 1) - int(i == 2 * k + 2) for k in range(d)),) * n)
    if i == 2 * d + 1:
        return RandomVector(((-1,) + (0,) * (d - 1),) + ((0,) * d,) * (n - 1))
    # the draws of fraction(rng, BOUND), put over the lcm of _DENOMS
    rows = tuple(tuple(p * (_LCM // q) for p, q in (_draw(rng, BOUND) for _ in range(d)))
                 for _ in range(n))
    return RandomVector._reduced(rows, _LCM)


def rotated(x: RandomVector) -> RandomVector:
    return RandomVector(x.ints[1:] + x.ints[:1], x.den)


def eligible(market: Market, rng) -> Vec:
    return tuple(fraction(rng, BOUND) for _ in range(market.m))


def cone_position(market: Market, rng) -> RandomVector:
    gens = market.cone.generators
    return RandomVector.of(_combination(gens, market.d, lambda: fraction(rng, 1, 0))
                           for _ in range(market.n))


def km_point(market: Market, rng, bound) -> Vec:
    gens = market.cone_in_m.generators
    return _combination(gens, market.m, lambda: fraction(rng, bound, 0))


def neg_interior_point(market: Market, rng) -> Vec:
    """A point of -int(K cap M): minus a strictly positive generator combo."""
    gens = market.cone_in_m.generators
    return vscale(Fraction(-1), _combination(gens, market.m, lambda: fraction(rng, BOUND, 1)))


def pick_point(value, rng) -> Vec:
    """A representative point of a nonempty upper set (vertex + cone drift)."""
    point = convert_rep(value.pieces[0]).vertices[0]
    if rng.randint(0, 1):
        for g in value.recession.generators:
            point = tuple(a + fraction(rng, Fraction(1), 0) * b
                          for a, b in zip(point, g))
    return point


def accepted_position(market: Market, a: AccExpr, rng, i: int):
    """A position in the acceptance set, built by compensating a sample."""
    x = position(market, rng, i)
    value = eval_acceptance(market, a, x)
    if value.is_empty():
        return None
    return x.add_constant(market.from_m(pick_point(value, rng)))
