"""Exhaustive enumeration against the search, an exact referee and two symmetries.

``oracle._exhaustive`` books a set by branch-and-bound's own rule: each
demand comes off ``CAPACITY`` and each profit is added, left to right in the
summed search's order.  So without weights the two return the same set and
the same value bits.  The referee below enumerates the same subsets in plain
Python, with the search's take test ``r < d`` at every step, and with exact
sums: every value of an ulp-edge market is a whole number of 2**-60, which
``Fraction`` checks.  Neither float rule matches exact arithmetic.
"""

from fractions import Fraction

import numpy as np
import pytest

from slicemarket.market import CAPACITY
from slicemarket.oracle import (
    _PROBE_NODES_PER_TENANT,
    EXHAUSTIVE_LIMIT,
    _branch_and_bound,
    _exhaustive,
    offline_exact,
)
from slicemarket.workload import GenConfig, Instance, generate_instance

METHODS = ("branch-and-bound", "exhaustive")
UNITS = 2**60  # one unit of exact arithmetic is 2**-60


def ulp_edge_market(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """2 to 12 items, 1 to 3 resources.  Demands lie on a 1/16 grid, and about
    two in three entries are moved one ulp up or down, so many sets fill a
    resource to within ulps of ``CAPACITY``.  Profits are the summed demand
    times a factor in [0.5, 1.5)."""
    rng = np.random.default_rng(seed)
    m, c = int(rng.integers(2, 13)), int(rng.integers(1, 4))
    demands = rng.integers(1, 9, size=(m, c)) / 16
    demands = np.nextafter(demands, demands + rng.integers(-1, 2, size=(m, c)))
    return demands.sum(axis=1) * rng.uniform(0.5, 1.5, size=m), demands


def exact_units(values) -> list[int]:
    """Each float as a whole number of 2**-60."""
    units = [Fraction(x) * UNITS for x in values]
    assert all(u.denominator == 1 for u in units)
    return [u.numerator for u in units]


def referee(profits: np.ndarray, demands: np.ndarray):
    """Every subset of the items, subset ``j`` taking the items at the set bits
    of ``j`` in the summed search's order.  Returns that order and, per subset,
    the rooms the search's take test leaves (None once it refuses an item),
    the value added left to right from 0.0, the exact demand sums and the
    exact profit, both in units of 2**-60."""
    order = np.argsort(-(profits / demands.sum(axis=1)), kind="stable")  # no demand row is zero here
    rooms, values = [[CAPACITY] * demands.shape[1]], [0.0]
    sums, exact = [[0] * demands.shape[1]], [0]
    for i in order.tolist():
        row, units = demands[i].tolist(), exact_units(demands[i])
        p, q = float(profits[i]), exact_units([profits[i]])[0]
        rooms += [
            None if left is None or any(r < d for r, d in zip(left, row)) else [r - d for r, d in zip(left, row)]
            for left in rooms
        ]
        values += [v + p for v in values]
        sums += [[s + u for s, u in zip(used, units)] for used in sums]
        exact += [e + q for e in exact]
    return order, rooms, values, sums, exact


def subset_code(order: np.ndarray, chosen: np.ndarray) -> int:
    """The referee's subset number of a mask over the items."""
    return sum(1 << j for j, i in enumerate(order.tolist()) if chosen[i])


def test_enumeration_and_search_book_alike_against_an_exact_referee():
    """On 400 ulp-edge markets enumeration returns the search's set and value
    bits; before enumeration followed the search's rule they agreed on 247.
    Both are the best set the take test books, by float value.  The take test
    books every set whose exact sums are at most ``CAPACITY·(1 - m·2**-53)``
    and none above ``CAPACITY·(1 + m·2**-53)`` (``market._reorder_factor``).
    Between those it decides by rounding: the returned set is over capacity in
    exact arithmetic on 44 markets, and the take test refuses the exact
    optimum on 19.  The product ``bits @ demands`` that enumeration read
    before booked an over-capacity set on 131 of the same markets."""
    full = exact_units([CAPACITY])[0]
    over = missed = 0
    for seed in range(400):
        profits, demands = ulp_edge_market(seed)
        value, chosen = _exhaustive(profits, demands)
        searched, searched_chosen, _, exhausted = _branch_and_bound(profits, demands, 10**9)
        assert not exhausted
        assert (value.hex(), chosen.tobytes()) == (searched.hex(), searched_chosen.tobytes())

        order, rooms, values, sums, exact = referee(profits, demands)
        code = subset_code(order, chosen)
        assert rooms[code] is not None
        assert value.hex() == values[code].hex() == max(v for v, r in zip(values, rooms) if r is not None).hex()
        slack = len(profits) * full >> 53
        for left, used in zip(rooms, sums):
            assert max(used) <= full + slack if left is not None else max(used) > full - slack
        over += max(sums[code]) > full
        feasible = [e if max(used) <= full else -1 for used, e in zip(sums, exact)]
        missed += rooms[feasible.index(max(feasible))] is None
    assert (over, missed) == (44, 19)


def test_a_restart_books_in_its_weighted_order():
    """A search whose summed probe runs out restarts in the LP duals' weighted
    order, whose take test can decide a set near ``CAPACITY`` otherwise.  On
    ulp-edge market 0 the restart books a set the summed order refuses, worth
    more than enumeration's.  On market 179 the summed order books a set the
    restart refuses, and the search reports less than enumeration, exact.  On
    both, the richer of the two sets is over capacity in exact arithmetic."""
    full = exact_units([CAPACITY])[0]
    for seed, restart_ahead in ((0, True), (179, False)):
        profits, demands = ulp_edge_market(seed)
        ones = np.ones(demands.shape[1])
        instance = Instance(demands, profits, ones, 2 * ones, 0 * ones)
        searched = offline_exact(instance)
        enumerated = offline_exact(instance, method="exhaustive")
        assert searched.exact and searched.nodes_explored > _PROBE_NODES_PER_TENANT * len(profits)
        assert (searched.welfare > enumerated.welfare) is restart_ahead
        order, rooms, _, sums, _ = referee(profits, demands)
        assert (rooms[subset_code(order, searched.accepted)] is None) is restart_ahead
        richer = searched if restart_ahead else enumerated
        assert max(sums[subset_code(order, richer.accepted)]) > full


@pytest.mark.parametrize("items, resources", [(17, 3), (EXHAUSTIVE_LIMIT, 1)])
def test_enumeration_equals_the_search_past_one_chunk(items, resources):
    """Past 16 items enumeration fixes a head of the first items in the
    summed order and doubles over the rest; both parts hold chosen items."""
    rng = np.random.default_rng(items)
    demands = rng.uniform(1, 3, size=(items, resources)) / items
    profits = demands.sum(axis=1) * rng.uniform(0.5, 1.5, size=items)
    value, chosen = _exhaustive(profits, demands)
    searched, searched_chosen, _, exhausted = _branch_and_bound(profits, demands, 10**9)
    assert not exhausted
    assert (value.hex(), chosen.tobytes()) == (searched.hex(), searched_chosen.tobytes())
    positions = np.flatnonzero(chosen[np.argsort(-profits / demands.sum(axis=1), kind="stable")])
    assert positions.min() < items - 16 <= positions.max()


def symmetric_markets(seed: int) -> tuple[Instance, Instance, Instance, np.ndarray, float]:
    """A generated market of 2 to 14 tenants and 1 to 4 resources (default,
    coarse or sparse demands); the same market with its tenants relabelled by
    ``permutation``, and with every amount of money scaled by ``scale``, a
    power of two.  Returns the three, the permutation and the scale."""
    rng = np.random.default_rng(seed)
    n, c = int(rng.integers(2, 15)), int(rng.integers(1, 5))
    knobs = [{}, {"demand_mean": 2.5 / n, "demand_std": 2.5 / n}, {"demand_mean": 2.5 / n, "participation": 0.5}]
    instance = generate_instance(GenConfig(tenant_count=n, resource_count=c, seed=seed, **knobs[seed % 3]))
    permutation = rng.permutation(n)
    scale = 2.0 ** int(rng.choice([-3, 5]))
    floors, caps, costs = instance.price_floors, instance.price_caps, instance.unit_costs
    relabelled = Instance(instance.demands[permutation], instance.valuations[permutation], floors, caps, costs)
    scaled = Instance(instance.demands, instance.valuations * scale, floors * scale, caps * scale, costs * scale)
    return instance, relabelled, scaled, permutation, scale


@pytest.mark.parametrize("method", METHODS)
def test_relabelling_tenants_keeps_the_set(method):
    for seed in range(300):
        instance, relabelled, _, permutation, _ = symmetric_markets(seed)
        accepted = offline_exact(instance, method).accepted
        assert offline_exact(relabelled, method).accepted.tobytes() == accepted[permutation].tobytes()


@pytest.mark.parametrize("method", METHODS)
def test_scaling_money_scales_welfare_exactly(method):
    for seed in range(300):
        instance, _, scaled, _, scale = symmetric_markets(seed)
        result, rescaled = offline_exact(instance, method), offline_exact(scaled, method)
        assert rescaled.accepted.tobytes() == result.accepted.tobytes()
        assert rescaled.welfare.hex() == (result.welfare * scale).hex()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 17: welfare sums the accepted profits in index order")
@pytest.mark.parametrize("method", METHODS)
def test_relabelling_tenants_keeps_the_welfare_bits(method):
    for seed in range(300):
        instance, relabelled, *_ = symmetric_markets(seed)
        assert offline_exact(relabelled, method).welfare.hex() == offline_exact(instance, method).welfare.hex()
