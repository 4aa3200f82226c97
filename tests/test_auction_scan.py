"""Differential test: the one-scan utility-bid auction against the round-by-round loop.

``_reference_auction`` is the auction as it was first written, one O(N·C)
pass per round.  The scan must reproduce every field of its result exactly:
welfare, the accepted mask, payments, rounds and bids, bit for bit.

``_reference_first_fit`` is the first-fit scan the auction and random
slicing share, as it was written on one Python list per row, and
``_loop_first_fit`` the scan that read the row array as one list per
resource, every row in the loop.  The scan that books its leading run of
fitting rows in numpy and loops from the first refusal must book the same
positions as both.
"""

from operator import add

import numpy as np
import pytest

from slicemarket import baselines
from slicemarket.baselines import AuctionResult, _first_fit, random_slicing, utility_bid_auction
from slicemarket.market import CAPACITY
from slicemarket.oracle import adjusted_profits
from slicemarket.workload import GenConfig, Instance, generate_instance

LIMIT = CAPACITY


def _reference_auction(instance) -> AuctionResult:
    n = instance.tenant_count
    profits = adjusted_profits(instance)
    utilization = np.zeros(instance.resource_count)
    accepted = np.zeros(n, dtype=bool)
    payments = np.zeros(n)
    rounds = 0
    bids = 0
    while True:
        fits = (utilization + instance.demands <= LIMIT).all(axis=1)
        bidders = ~accepted & (profits > 0) & fits
        if not bidders.any():
            break
        rounds += 1
        bids += int(bidders.sum())
        winner = int(np.argmax(np.where(bidders, profits, -np.inf)))
        accepted[winner] = True
        payments[winner] = float(instance.valuations[winner])
        utilization += instance.demands[winner]
    welfare = float(profits[accepted].sum()) if accepted.any() else 0.0
    return AuctionResult(welfare, accepted, payments, rounds, bids)


def assert_same_auction(instance) -> AuctionResult:
    got = utility_bid_auction(instance)
    want = _reference_auction(instance)
    assert type(got.welfare) is float and got.welfare.hex() == want.welfare.hex()
    assert got.accepted.dtype == want.accepted.dtype and got.accepted.tobytes() == want.accepted.tobytes()
    assert got.payments.dtype == want.payments.dtype and got.payments.tobytes() == want.payments.tobytes()
    assert type(got.rounds) is int and got.rounds == want.rounds
    assert type(got.bids_submitted) is int and got.bids_submitted == want.bids_submitted
    return want


def plain_instance(demands, valuations, unit_costs) -> Instance:
    """An instance from raw arrays; the band is irrelevant to the auction."""
    demands = np.asarray(demands, dtype=float).reshape(len(valuations), len(unit_costs))
    c = demands.shape[1]
    return Instance(demands, np.asarray(valuations, dtype=float), np.ones(c), np.full(c, 2.0), unit_costs)


@pytest.mark.parametrize("resources", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("mean_share", [0.3, 1.0, 2.5, 8.0])
def test_generated_markets(resources, mean_share):
    # demand means 0.3/N (everyone fits) to 8/N (most tenants lose)
    rng = np.random.default_rng(resources * 100 + int(mean_share * 10))
    for _ in range(6):
        n = int(rng.integers(2, 160))
        config = GenConfig(
            tenant_count=n,
            resource_count=resources,
            demand_mean=mean_share / n,
            demand_std=mean_share / n * float(rng.uniform(0.0, 1.5)),
            participation=None if rng.random() < 0.5 else float(rng.uniform(0.3, 1.0)),
            seed=int(rng.integers(0, 2**32)),
        )
        assert_same_auction(generate_instance(config))


@pytest.mark.parametrize("seed", range(40))
def test_quantised_markets_with_ties_and_exact_capacity_hits(seed):
    # demands on a 1/8 grid, weighted further towards the complements
    # ``LIMIT - k/8`` of its small steps, integer valuations and quarter unit
    # costs: every sum is exact, profits tie often, and utilization lands
    # exactly on LIMIT
    rng = np.random.default_rng(seed)
    n, c = int(rng.integers(1, 40)), int(rng.integers(1, 5))
    grid = np.arange(9) / 8
    demands = rng.choice(grid, size=(n, c), p=[0.2] + [0.1] * 8)
    complements = rng.random((n, c)) < 0.15
    demands[complements] = LIMIT - rng.choice(grid[1:5], size=int(complements.sum()))
    valuations = rng.integers(0, 4, size=n).astype(float)
    unit_costs = rng.choice([0.0, 0.25, 0.5], size=c)
    assert_same_auction(plain_instance(demands, valuations, unit_costs))


def test_exact_capacity_hit_is_accepted():
    # 0.5 + (LIMIT - 0.5) == LIMIT exactly, which still fits; the third tenant
    # ties the second's profit but loses on the index and then never fits
    inst = plain_instance([[0.5], [LIMIT - 0.5], [LIMIT - 0.5]], [3.0, 2.0, 2.0], [0.0])
    want = assert_same_auction(inst)
    assert want.accepted.tolist() == [True, True, False]
    assert (want.rounds, want.bids_submitted) == (2, 3 + 2)


def test_loser_bids_counted_with_the_rounds_own_predicate():
    # ``a + d <= LIMIT`` holds in floats while ``a <= LIMIT - d`` does not, so
    # the loser fits the pre-round utilization ``a``: a bisection on the
    # subtracted form would miss that bid.  ``a`` is one ulp past the grid
    # point 1/4, so ``a + d`` is 1 + 2**-54, which rounds to 1.0 (ties to
    # even), while ``LIMIT - d`` is 1/4 exactly
    a, d = float(np.nextafter(0.25, 1.0)), 0.75
    assert a + d <= LIMIT and not a <= LIMIT - d
    inst = plain_instance([[a], [0.1], [d]], [3.0, 2.0, 1.0], [0.0])
    want = assert_same_auction(inst)
    assert want.accepted.tolist() == [True, True, False]
    assert (want.rounds, want.bids_submitted) == (2, 3 + 2)


def test_zero_and_negative_profit_tenants_never_bid():
    # profits 0.0, -0.5, 1.0 and 0.0 again: only the third tenant takes part
    inst = plain_instance([[0.5, 0.0], [0.5, 0.5], [0.25, 0.25], [0.0, 0.0]], [0.25, 0.0, 1.25, 0.0], [0.5, 0.5])
    want = assert_same_auction(inst)
    assert want.accepted.tolist() == [False, False, True, False]
    assert (want.rounds, want.bids_submitted) == (1, 1)


def test_tenants_too_large_for_an_empty_market():
    # positive profit but a demand one ulp past LIMIT: no bid ever
    too_large = np.nextafter(LIMIT, np.inf)
    inst = plain_instance([[too_large, 0.0], [0.5, 0.5], [0.1, 2.0], [0.6, 0.1]], [5.0, 1.0, 4.0, 0.9], [0.0, 0.0])
    want = assert_same_auction(inst)
    assert want.accepted.tolist() == [False, True, False, False]
    assert (want.rounds, want.bids_submitted) == (1, 1 + 1)
    only_large = plain_instance([[too_large], [2.0]], [5.0, 4.0], [0.0])
    want = assert_same_auction(only_large)
    assert (want.rounds, want.bids_submitted) == (0, 0)


def test_zero_tenants():
    inst = plain_instance(np.zeros((0, 3)), [], [0.1, 0.1, 0.1])
    want = assert_same_auction(inst)
    assert (want.welfare, want.rounds, want.bids_submitted) == (0.0, 0, 0)
    assert want.accepted.shape == want.payments.shape == (0,)


def test_losers_bid_until_they_stop_fitting():
    # three 0.3-tenants win in profit order.  The fourth fits all three
    # pre-round utilizations 0, 0.3 and 0.6; the 0.45-tenant only the first two
    inst = plain_instance([[0.3]] * 4 + [[0.45]], [5.0, 4.0, 3.0, 2.0, 1.0], [0.0])
    want = assert_same_auction(inst)
    assert want.rounds == 3
    assert want.bids_submitted == 6 + 3 + 2


def _reference_first_fit(rows: list[list[float]], limit: float) -> list[int]:
    utilization = [0.0] * len(rows[0]) if rows else []
    booked = []
    for position, row in enumerate(rows):
        grown = list(map(add, utilization, row))
        if max(grown) <= limit:
            utilization = grown
            booked.append(position)
    return booked


# ``baselines._first_fit`` before its leading run was booked in numpy, verbatim
def _loop_first_fit(rows: np.ndarray) -> list[int]:
    """The positions of the demand rows, an (arrivals, resources) array in
    scan order, that keep every resource's running utilization, summed in
    booking order on plain floats, at most ``CAPACITY``.  The rows are read
    as the session engine reads them: one list per resource, zipped."""
    utilization = [0.0] * rows.shape[1]
    booked = []
    for position, row in enumerate(zip(*rows.T.tolist())):
        grown = list(map(add, utilization, row))
        if max(grown) <= CAPACITY:
            utilization = grown
            booked.append(position)
    return booked


def assert_same_first_fit(rows: np.ndarray) -> list[int]:
    got = _first_fit(rows)
    want = _reference_first_fit(rows.tolist(), LIMIT)
    assert type(got) is list and all(type(position) is int for position in got)
    assert got == want == _loop_first_fit(rows)
    return want


@pytest.mark.parametrize("resources", [1, 2, 3, 9])
def test_first_fit_on_random_rows(resources):
    # row means from 0.01 to 0.5 of capacity: from everyone booked to most
    # rows turned away
    rng = np.random.default_rng(700 + resources)
    for _ in range(30):
        rows = rng.uniform(0.0, 2 * float(rng.choice([0.01, 0.1, 0.5])), (int(rng.integers(1, 300)), resources))
        rows[rng.random(rows.shape) < 0.2] = 0.0
        assert_same_first_fit(rows)


@pytest.mark.parametrize("resources", [1, 3])
def test_first_fit_without_rows(resources):
    assert assert_same_first_fit(np.zeros((0, resources))) == []


def test_first_fit_rows_that_land_on_the_limit():
    # quarters and their exact complement ``LIMIT - 3/4``: the running sums
    # are exact, so utilization lands on the limit and the row still books;
    # a row past it, by one ulp, does not
    rng = np.random.default_rng(710)
    for resources in (1, 2, 3):
        for _ in range(20):
            rows = rng.choice([0.0, 0.25, LIMIT - 0.75], size=(int(rng.integers(1, 12)), resources))
            assert_same_first_fit(rows)
    rows = np.array([[0.75], [LIMIT - 0.75], [0.0], [np.nextafter(LIMIT, 2.0) - LIMIT]])
    assert assert_same_first_fit(rows) == [0, 1, 2]


def test_first_fit_run_reaches_the_last_row():
    rows = np.full((40, 3), 0.02)
    assert assert_same_first_fit(rows) == list(range(40))


def test_first_fit_refuses_row_zero_and_books_after_it():
    rows = np.array([[0.5, 1.5], [0.5, 0.5], [0.6, 0.1], [0.5, 0.5]])
    assert assert_same_first_fit(rows) == [1, 3]


def test_first_fit_refuses_every_row():
    rows = np.full((5, 2), 1.25)
    rows[2, 0] = 0.0
    assert assert_same_first_fit(rows) == []


def test_first_fit_run_ends_one_ulp_above_the_limit():
    # the run's running sum lands on the limit and books; one ulp more is the
    # first refusal, and a zero row after it still books
    ulp = np.nextafter(LIMIT, 2.0) - LIMIT
    rows = np.array([[0.25, 0.0], [0.25, 0.5], [0.5, 0.5], [ulp, 0.0], [0.0, 0.0], [ulp, ulp]])
    assert assert_same_first_fit(rows) == [0, 1, 2, 4]
    rows[3, 0] = 0.0
    assert assert_same_first_fit(rows) == [0, 1, 2, 3, 4]


def scan_market(seed: int) -> Instance:
    """Dense, coarse (demand spread as large as the mean) or sparse (half the
    entries zero) by ``seed % 3``: 2 to 400 tenants, 1 to 5 resources,
    demand mean 1/N to 4/N."""
    rng = np.random.default_rng(800 + seed)
    n, c, share = int(rng.integers(2, 401)), int(rng.integers(1, 6)), float(rng.integers(1, 5))
    knobs = [{}, {"demand_std": share / n}, {"participation": 0.5}][seed % 3]
    return generate_instance(GenConfig(tenant_count=n, resource_count=c, demand_mean=share / n, seed=seed, **knobs))


@pytest.mark.parametrize("seed", range(90))
def test_auction_and_random_slicing_as_with_the_loop(seed, monkeypatch):
    instance = scan_market(seed)
    order = np.random.default_rng(seed).permutation(instance.tenant_count)
    auction, coins = utility_bid_auction(instance), random_slicing(instance, order, seed)
    monkeypatch.setattr(baselines, "_first_fit", _loop_first_fit)
    want_auction, want_coins = utility_bid_auction(instance), random_slicing(instance, order, seed)
    assert auction.welfare.hex() == want_auction.welfare.hex() and auction.accepted.tobytes() == want_auction.accepted.tobytes()
    assert auction.payments.tobytes() == want_auction.payments.tobytes()
    assert (auction.rounds, auction.bids_submitted) == (want_auction.rounds, want_auction.bids_submitted)
    assert coins[0].hex() == want_coins[0].hex() and coins[1].tobytes() == want_coins[1].tobytes()
