"""Solvency-cone algebra: duals, eligible subspaces, restriction to M.

The solvency cone K lives in R^d and contains the nonnegative orthant; the
eligible subspace M selects which deterministic portfolios count as risk
compensation.  K need not be pointed: lineality is carried through all
representations as +/- generator pairs.
"""

from __future__ import annotations

from ._record import frozen
from .errors import DimensionMismatch, EmptyInterior, InvalidSpread, MalformedDocument
from .geometry import Cone, feasible
from .rationals import Mat, dot, over_den, rank, unit, vec


def dual_cone(k: Cone) -> Cone:
    """Positive dual {y : y.x >= 0 for all x in K}.

    By bipolarity the generators and halfspaces of K swap roles.
    """
    return Cone(k.dim, k.generators, k.halfspaces)


def bidask_cone(spread) -> Cone:
    """Solvency cone of a bid-ask spread matrix pi (pi_ij >= 1, pi_ii = 1).

    Generated by the unit vectors together with pi_ij e_i - e_j: exchanging
    one unit of asset j costs pi_ij units of asset i.
    """
    pi = [vec(row) for row in spread]
    d = len(pi)
    if any(len(row) != d for row in pi):
        raise InvalidSpread("spread matrix must be square")
    for i in range(d):
        if pi[i][i] != 1:
            raise InvalidSpread(f"pi[{i}][{i}] must be 1, got {pi[i][i]}")
        for j in range(d):
            if pi[i][j] < 1:
                raise InvalidSpread(f"pi[{i}][{j}] = {pi[i][j]} < 1")
    gens = [unit(d, i) for i in range(d)] + [
        tuple(pi[i][j] * a - b for a, b in zip(unit(d, i), unit(d, j)))
        for i in range(d) for j in range(d) if i != j]
    return Cone.from_generators(gens, d)


@frozen
class EligibleSubspace:
    """Linear subspace M of eligible deterministic portfolios.

    ``basis`` rows are linearly independent d-vectors; M-coordinates are the
    coefficients with respect to this basis.
    """

    basis: Mat

    def __post_init__(self):
        if not self.basis:
            raise MalformedDocument("subspace needs at least one basis vector")
        if len({len(row) for row in self.basis}) != 1:
            raise MalformedDocument("subspace basis rows have different lengths")
        if rank(self.basis) != len(self.basis):
            raise MalformedDocument("subspace basis is linearly dependent")
        # per asset, the int column of the basis over one denominator, read by the
        # Market's M-coordinate maps and by ``rows_on_m``; kept outside the
        # fields, so equality, hash and pickle ignore it
        flat, den = over_den([c for b in self.basis for c in b])
        self.__dict__["_columns"] = [flat[j::self.d] for j in range(self.d)], den

    @classmethod
    def from_coords(cls, d: int, coords) -> "EligibleSubspace":
        return cls(tuple(unit(d, int(i)) for i in coords))

    @classmethod
    def from_basis(cls, rows) -> "EligibleSubspace":
        return cls(tuple(vec(r) for r in rows))

    @property
    def d(self) -> int:
        return len(self.basis[0])

    @property
    def m(self) -> int:
        return len(self.basis)

    def is_full(self) -> bool:
        return self.m == self.d

    def rows_on_m(self, rows) -> list[tuple[int, ...]]:
        """Per int row a on R^d, the int row N on M with a . b_j = N_j / den
        for the basis vectors b_j and the den of ``_columns``."""
        cols, _ = self._columns
        return [tuple(dot(a, b) for b in zip(*cols)) for a in rows]


def restrict_to_subspace(k: Cone, sub: EligibleSubspace) -> Cone:
    """K intersected with M, written in M-coordinates.

    Raises EmptyInterior when the standing assumption int(K cap M) != empty
    fails; the test is exact strict-inequality feasibility, no perturbation.
    """
    if k.dim != sub.d:
        raise DimensionMismatch(f"cone has dim {k.dim}, subspace vectors have length {sub.d}")
    cone = Cone.from_rows(sub.m, sub.rows_on_m(k.halfspaces))
    if not feasible(cone.neg_interior(), cone.dim):  # -int is empty exactly when int is
        raise EmptyInterior("int(K cap M) is empty inside M")
    return cone
