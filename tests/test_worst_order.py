"""Coarse generated markets whose worst arrival order beats the ratio.

The threshold schedule's ratio assumes that every demand is a small share of
capacity.  Each market in ``WORST_ORDER_MARKETS`` passes ``validate_instance``
but has demands of 0.65 to 0.82 of capacity, and its worst order, found by
running all 5040 orders, leaves the posted-price welfare more than the ratio
below the optimum.
"""

import itertools

import pytest

from slicemarket.market import MarketSetup, social_welfare
from slicemarket.oracle import offline_exact
from slicemarket.pricing import build_schedule
from slicemarket.protocol import run_session
from slicemarket.workload import generate_instance, validate_instance

from conftest import WORST_ORDER_MARKETS


@pytest.mark.parametrize("config, worst, ratio", WORST_ORDER_MARKETS, ids=["C1-sparse", "C1", "C3"])
def test_worst_order_beats_the_ratio(config, worst, ratio):
    instance = generate_instance(config)
    assert validate_instance(instance) == []
    optimum = offline_exact(instance).welfare
    assert optimum == offline_exact(instance, method="exhaustive").welfare

    setup = MarketSetup.from_instance(instance)
    schedule = build_schedule(setup)

    def welfare(order):
        return social_welfare(setup, instance, run_session(setup, schedule, instance, order).allocation)

    # the first order of least welfare, in permutation order
    lowest = min(itertools.permutations(range(instance.tenant_count)), key=welfare)
    assert lowest == worst
    assert optimum / (schedule.ratio * welfare(worst)) == pytest.approx(ratio, abs=1e-3)
