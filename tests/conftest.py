import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from svrisk import measures
from svrisk.fixtures import market, position
from svrisk.rationals import dot


@pytest.fixture(scope="session", autouse=True)
def judge_every_market_table():
    """Every per-market table the suite builds writes the cone rows a on M as
    the Fraction products a . b_j times its denominator, in ints."""
    build = measures._Table.__init__

    def judged(table, mkt):
        build(table, mkt)
        assert table.normals == [tuple(dot(a, b) * table.nden for b in mkt.subspace.basis)
                                 for a in mkt.cone.halfspaces]
        assert all(type(c) is int for n in table.normals for c in n)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures._Table, "__init__", judged)
        yield


@pytest.fixture(scope="session")
def mkt_a():
    return market("mkt-a")


@pytest.fixture(scope="session")
def mkt_b():
    return market("mkt-b")


@pytest.fixture(scope="session")
def mkt_1d():
    return market("mkt-1d")


@pytest.fixture(scope="session")
def wc_fixture_position():
    return position("wc-fixture")


@pytest.fixture(scope="session")
def var_fixture_position():
    return position("var-fixture")
