"""Built-in market and position documents used by the demos and tests.

mkt-a: two assets, compensation only in the first one, a genuinely
       frictional cone (the cone where the second coordinate cannot be
       compensated from inside M).
mkt-b: frictionless two-asset market with full eligible subspace and
       probabilities (1/2, 1/4, 1/4).
mkt-1d: one asset, K = R_+, the one-dimensional case d = m = 1.
"""

from __future__ import annotations

from .scenario import Market, RandomVector, load_market

MARKET_DOCS = {
    "mkt-a": {
        "d": 2,
        "probs": ["1/2", "1/2"],
        "cone": {"halfspaces": [[1, 1], [0, 1]]},
        "subspace": {"coords": [0]},
    },
    "mkt-b": {
        "d": 2,
        "probs": ["1/2", "1/4", "1/4"],
        "cone": {"halfspaces": [[1, 0], [0, 1]]},
        "subspace": {"coords": [0, 1]},
    },
    "mkt-1d": {
        "d": 1,
        "probs": ["1/2", "1/2"],
        "cone": {"halfspaces": [[1]]},
        "subspace": {"coords": [0]},
    },
}

POSITION_DOCS = {
    # the value-at-risk fixture on mkt-b: two minimal good-scenario sets
    "var-fixture": {"rows": [["-1", "-1"], ["-2", "0"], ["0", "-4"]]},
    # worst case on mkt-a evaluates to the half-line u1 >= 1
    "wc-fixture": {"rows": [["-1", "0"], ["0", "2"]]},
}


def market(name: str) -> Market:
    return load_market(MARKET_DOCS[name])


def position(name: str) -> RandomVector:
    return RandomVector.of(POSITION_DOCS[name]["rows"])
