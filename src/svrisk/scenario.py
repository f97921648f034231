"""Finite scenario spaces, multivariate positions, and market ingestion.

A market bundles the probability space, the solvency cone K, the eligible
subspace M, and the precomputed restriction K cap M.  Positions are n x d
int matrices over one positive denominator, and their arithmetic stays in
ints; Fractions appear only in the ``values`` view.  The cone K induces the
scenario-wise partial order used everywhere else.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain

from ._record import frozen, setfield
from .cones import EligibleSubspace, bidask_cone, restrict_to_subspace
from .errors import MalformedDocument, OrthantNotContained, ProbabilitySum, ShapeMismatch
from .geometry import Cone
from .rationals import Mat, Vec, dot, fmt, over_den, rat, ratio, solve_linear, vec


@frozen
class ScenarioSpace:
    """Finite probability space; every scenario has positive probability."""

    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.probs):
            raise ProbabilitySum("every scenario probability must be > 0")
        if sum(self.probs) != 1:
            raise ProbabilitySum(f"probabilities sum to {sum(self.probs)}, not 1")

    @property
    def n(self) -> int:
        return len(self.probs)


@frozen
class RandomVector:
    """Payoff matrix: row i is the d-vector paid in scenario i, held as int
    rows ``ints`` over the least positive common denominator ``den``, so
    equal positions have equal fields; ``values`` is the Fraction view.  The
    constructor checks the shape and den and reduces; ``_raw`` is the
    unchecked path of builders whose ints are reduced, or are an addend."""

    __slots__ = ("ints", "den")

    def __init__(self, ints: tuple[tuple[int, ...], ...], den: int = 1):
        if type(den) is not int or den < 1:
            raise ValueError(f"den must be a positive int, got {den!r}")
        if len({len(row) for row in ints}) > 1:
            raise ShapeMismatch(f"rows have lengths {sorted({len(row) for row in ints})}")
        g = math.gcd(den, *chain.from_iterable(ints))
        setfield(self, "ints", tuple([tuple([v // g for v in row]) for row in ints]))
        setfield(self, "den", den // g)

    @classmethod
    def _raw(cls, ints, den: int) -> "RandomVector":
        x = object.__new__(cls)
        setfield(x, "ints", ints)
        setfield(x, "den", den)
        return x

    @classmethod
    def of(cls, rows) -> "RandomVector":
        # (p, q) per entry; vec rejects a string row
        parts = tuple(vec(r) if isinstance(r, str) else tuple(map(ratio, r)) for r in rows)
        for i, r in enumerate(parts):
            if len(r) != len(parts[0]):
                raise MalformedDocument(f"'rows' must have one length: row {i} has "
                                        f"{len(r)} entries, row 0 has {len(parts[0])}")
        den = math.lcm(*(q for r in parts for _, q in r))
        return cls(tuple(tuple(p * (den // q) for p, q in r) for r in parts), den)

    @classmethod
    def zero(cls, n: int, d: int) -> "RandomVector":
        return cls._raw(((0,) * d,) * n, 1)

    @classmethod
    def constant(cls, n: int, coords) -> "RandomVector":
        return cls.zero(n, len(coords)).add_constant(coords)

    @property
    def values(self) -> Mat:
        return tuple(tuple(Fraction(v, self.den) for v in row) for row in self.ints)

    @property
    def n(self) -> int:
        return len(self.ints)

    @property
    def d(self) -> int:
        return len(self.ints[0]) if self.ints else 0

    def _plus(self, other: "RandomVector", sign: int) -> "RandomVector":
        if (self.n, self.d) != (other.n, other.d):
            raise ShapeMismatch("positions have different shapes")
        den = math.lcm(self.den, other.den)
        f, g = den // self.den, sign * (den // other.den)
        rows = [tuple([f * a + g * b for a, b in zip(r, s)])
                for r, s in zip(self.ints, other.ints)]
        if (c := math.gcd(den, *chain.from_iterable(rows))) > 1:
            rows, den = [tuple([v // c for v in row]) for row in rows], den // c
        return RandomVector._raw(tuple(rows), den)

    def add(self, other: "RandomVector") -> "RandomVector":
        return self._plus(other, 1)

    def sub(self, other: "RandomVector") -> "RandomVector":
        return self._plus(other, -1)

    def scale(self, t) -> "RandomVector":
        """t X in ints.  With t = p/q in lowest terms and X reduced, p X / (q den)
        can cancel only gcd(p, den) and gcd(q, entries of X): divide by those."""
        t = rat(t)
        p, q = t.numerator, t.denominator
        a, b = math.gcd(p, self.den), math.gcd(q, *chain.from_iterable(self.ints)) if q > 1 else 1
        rows = tuple([tuple([p // a * v // b for v in row]) for row in self.ints])
        return RandomVector._raw(rows, self.den // a * (q // b))

    def add_constant(self, coords) -> "RandomVector":
        if len(coords) != self.d:
            raise ShapeMismatch("constant vector has wrong dimension")
        row = RandomVector.of([coords])  # each entry read once; a string is not a row
        return self.add(RandomVector._raw(row.ints * self.n, row.den))

    def to_doc(self) -> dict:
        return {"rows": [[fmt(v) for v in row] for row in self.values]}


@frozen
class PortfolioVector:
    """Deterministic portfolio in asset quantities."""

    coords: Vec

    @classmethod
    def of(cls, coords) -> "PortfolioVector":
        return cls(vec(coords))

    def to_doc(self) -> list[str]:
        return [fmt(v) for v in self.coords]


@frozen
class Market:
    """Scenario space + solvency cone + eligible subspace, validated."""

    space: ScenarioSpace
    d: int
    cone: Cone
    subspace: EligibleSubspace
    cone_in_m: Cone

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def m(self) -> int:
        return self.subspace.m

    def to_m(self, coords) -> Vec:
        if len(coords) != self.d:
            raise ShapeMismatch(f"portfolio has {len(coords)} coordinates, market has d={self.d}")
        if (u := solve_linear(tuple(zip(*self.subspace.basis)), vec(coords))) is None:
            point = ", ".join(map(fmt, coords))
            raise ShapeMismatch(f"portfolio ({point}) is not in the eligible subspace")
        return u

    def from_m(self, u) -> Vec:
        return self.add_eligible(RandomVector.zero(1, self.d), vec(u)).values[0]

    def add_eligible(self, x: RandomVector, u, den: int = 1) -> RandomVector:
        """x + from_m(u / den) in every scenario, for int or Fraction u, summed
        in ints from the int columns of the basis of M: no Fraction is built."""
        if len(u) != self.m:
            raise ShapeMismatch(f"M-coordinates have length {len(u)}, market has m={self.m}")
        (ints, uden), (cols, bden) = over_den(u), self.subspace._columns
        return x.add(RandomVector._raw((tuple(dot(ints, c) for c in cols),) * x.n, den * uden * bden))

    def zero_position(self) -> RandomVector:
        return RandomVector.zero(self.n, self.d)


def _parse_json(text, path: str):
    """The JSON value of ``text`` (str or bytes); text that does not parse,
    nests past the recursion limit, or bytes that do not decode, is a
    MalformedDocument naming ``path``."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise MalformedDocument(f"{path} does not parse as JSON: {exc}") from None


def _parse_doc(source, path: str) -> dict:
    """The JSON object at ``path``: a dict, or its text."""
    doc = _parse_json(source, path) if isinstance(source, (str, bytes)) else source
    if not isinstance(doc, dict):
        raise MalformedDocument(f"{path} must be a JSON object, got {type(doc).__name__}")
    return doc


def _field(name: str, parse, value):
    """``parse(value)``; a bad value raises MalformedDocument naming field ``name``."""
    try:
        return parse(value)
    except (TypeError, ValueError, MalformedDocument) as exc:
        raise MalformedDocument(f"bad market field {name!r}: {exc}") from exc


def load_market(source) -> Market:
    """Validate and assemble a market from its structured-text document.

    See the package README for the schema; rationals are 'p/q' strings or
    integers.  Raises ProbabilitySum, OrthantNotContained, EmptyInterior, or
    MalformedDocument as appropriate.
    """
    doc = _parse_doc(source, "market")
    try:
        d = doc["d"]
        probs = _field("probs", vec, doc["probs"])
        cone_doc = doc["cone"]
        sub_doc = doc["subspace"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedDocument(f"market document missing or bad field: {exc}") from exc
    if type(d) is not int or d < 1:
        raise MalformedDocument(f"market field 'd' must be a positive integer, got {d!r}")
    for name, part in (("cone", cone_doc), ("subspace", sub_doc)):
        if not isinstance(part, dict):
            raise MalformedDocument(f"market field {name!r} must be an object, got {part!r}")

    space = ScenarioSpace(probs)

    if "halfspaces" in cone_doc:
        rows = _field("cone.halfspaces", lambda v: [vec(r) for r in v],
                      cone_doc["halfspaces"])
        if any(len(r) != d for r in rows):
            raise MalformedDocument("cone halfspace rows must have length d")
        cone = Cone.from_rows(d, rows)
    elif "bidask" in cone_doc:
        cone = _field("cone.bidask", bidask_cone, cone_doc["bidask"])
        if cone.dim != d:
            raise MalformedDocument("bidask matrix size differs from d")
    else:
        raise MalformedDocument("cone document needs 'halfspaces' or 'bidask'")

    if not cone.contains_orthant():
        raise OrthantNotContained("the nonnegative orthant must lie inside K")

    if "coords" in sub_doc:
        idx = _field("subspace.coords", list, sub_doc["coords"])
        if any(type(i) is not int or i < 0 or i >= d for i in idx):
            raise MalformedDocument("bad market field 'subspace.coords': "
                                    "subspace coords must be indices below d")
        sub = EligibleSubspace.from_coords(d, idx)
    elif "basis" in sub_doc:
        sub = _field("subspace.basis", EligibleSubspace.from_basis, sub_doc["basis"])
        if sub.d != d:
            raise MalformedDocument("subspace basis vectors must have length d")
    else:
        raise MalformedDocument("subspace document needs 'coords' or 'basis'")

    cone_in_m = restrict_to_subspace(cone, sub)
    return Market(space, d, cone, sub, cone_in_m)


def _position_doc(doc: dict, path: str) -> RandomVector:
    """The position of the document {'rows': [[...]]} at the JSON ``path``."""
    if "rows" not in doc:
        raise MalformedDocument(f"{path}.rows is missing from the position")
    try:
        return RandomVector.of(doc["rows"])
    except (TypeError, ValueError) as exc:
        raise MalformedDocument(f"bad position field 'rows' at {path}: {exc}") from exc


def load_position(source, market: Market | None = None, path: str = "position") -> RandomVector:
    """Parse a position document {'rows': [[...]]} at ``path``; validate shape if asked."""
    x = _position_doc(_parse_doc(source, path), path)
    if market is not None and (x.n, x.d) != (market.n, market.d):
        raise ShapeMismatch(f"{path} is {x.n}x{x.d}, market expects {market.n}x{market.d}")
    return x


def componentwise_sup(x: RandomVector) -> PortfolioVector:
    """Scenario-wise supremum; K-dominates x because the orthant sits in K."""
    return PortfolioVector(tuple(Fraction(max(col), x.den) for col in zip(*x.ints)))
