"""Exception types shared across the package.

Names match the error contracts of the individual operations; the CLI maps
them onto exit codes (input errors -> 2, degenerate regimes -> 3).
"""


class SvriskError(Exception):
    """Base class for all package errors."""


# --- input / document errors ------------------------------------------------

class MalformedDocument(SvriskError):
    """A structured-text document does not parse or misses required keys."""


class ProbabilitySum(SvriskError):
    """Scenario probabilities are nonpositive or do not sum to one."""


class OrthantNotContained(SvriskError):
    """The nonnegative orthant is not contained in the solvency cone."""


class EmptyInterior(SvriskError):
    """The cone restricted to the eligible subspace has empty interior in M."""


class InvalidSpread(SvriskError):
    """Bid-ask spread matrix violates pi_ij >= 1 or pi_ii = 1."""


class ShapeMismatch(SvriskError):
    """Operand dimensions do not match the market."""


class BadFlag(SvriskError):
    """A command-line flag value that is not the rationals it should hold."""


# --- geometry errors ----------------------------------------------------------

class StrictUnsupported(SvriskError):
    """V-representation requested for a system with strict inequalities."""


class DimensionMismatch(SvriskError):
    """Set operands live in different ambient dimensions or recession cones."""


class NegativeScale(SvriskError):
    """Upper sets can only be scaled by nonnegative rationals."""


class WorkLimit(SvriskError):
    """A step passed one of the work limits in ``geometry``: FM_ROW_LIMIT,
    DD_RAY_LIMIT, SUBTRACT_RESIDUAL_LIMIT or VAR_OFFSET_LIMIT."""


# --- measure / law errors -----------------------------------------------------

class BadLevel(SvriskError):
    """Value-at-risk level outside [0, 1], or a kind other than 'weak' and 'strong'."""


class UnknownLaw(SvriskError):
    """Law identifier not recognized."""


class UnknownDirection(SvriskError):
    """Correspondence direction not recognized."""


class EmptyBaseSet(SvriskError):
    """Star-shapedness-at-a-set check called with an empty base set."""


class BadBudget(SvriskError):
    """Sample budget count that is not an int of at least 1, or an
    SVRISK_SEED/SVRISK_BUDGET value that is not an integer."""


# --- representation errors ----------------------------------------------------

class EmptyValue(SvriskError):
    """Decomposition requested at a position whose value set is empty and no
    sampled anchors are available."""


class OnlyOrthogonalSeparators(SvriskError):
    """Every separating dual generator lies in the orthogonal complement of M,
    so exclusion cannot be certified."""


class SubspaceNotFull(SvriskError):
    """Operation requires the eligible subspace to be all of R^d."""


class NotInIntersection(SvriskError):
    """The chosen base position is rejected by some family member."""
