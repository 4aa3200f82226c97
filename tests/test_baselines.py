"""Baseline algorithms: genetic heuristic, utility-bid auction, myopic, random."""

import numpy as np
import pytest

from slicemarket.baselines import (
    ELITES,
    GaParams,
    ga_heuristic,
    myopic_slicing,
    random_slicing,
    utility_bid_auction,
)
from slicemarket.market import Allocation, MarketSetup, SetupError, social_welfare
from slicemarket.oracle import offline_exact
from slicemarket.pricing import MyopicPricing, build_schedule
from slicemarket.protocol import run_session
from slicemarket.workload import GenConfig, Instance, generate_instance

from conftest import ORDER_FORMS, manual_instance, order_test_markets


class TestGaHeuristic:
    def test_single_profitable_tenant(self):
        inst = manual_instance([[0.4]], [1.0], [0.5])
        welfare, accepted = ga_heuristic(inst, GaParams(population=10, generations=5), seed=0)
        assert accepted[0]
        assert welfare == pytest.approx(1.0 - 0.2)

    def test_nothing_fits(self):
        inst = Instance([[1.4], [1.2]], [2.0, 2.0], [1.0], [3.0], [0.5])
        welfare, accepted = ga_heuristic(inst, seed=0)
        assert welfare == 0.0
        assert not accepted.any()

    def test_always_feasible(self, rng):
        params = GaParams(population=20, generations=10)
        for _ in range(20):
            cfg = GenConfig(
                tenant_count=int(rng.integers(2, 30)),
                resource_count=int(rng.integers(1, 4)),
                seed=int(rng.integers(0, 2**32)),
            )
            inst = generate_instance(cfg)
            welfare, accepted = ga_heuristic(inst, params, seed=int(rng.integers(0, 2**32)))
            Allocation.from_decisions(inst, accepted)  # raises when infeasible
            assert welfare <= offline_exact(inst).welfare + 1e-9

    def test_seeded_determinism(self):
        inst = generate_instance(GenConfig(tenant_count=15, seed=4))
        a = ga_heuristic(inst, GaParams(population=30, generations=20), seed=11)
        b = ga_heuristic(inst, GaParams(population=30, generations=20), seed=11)
        assert a[0] == b[0]
        assert (a[1] == b[1]).all()

    def test_near_optimal_on_small_instances(self, rng):
        hits = 0
        for _ in range(100):
            cfg = GenConfig(
                tenant_count=int(rng.integers(5, 13)),
                resource_count=int(rng.integers(1, 4)),
                seed=int(rng.integers(0, 2**32)),
            )
            inst = generate_instance(cfg)
            optimum = offline_exact(inst, method="exhaustive").welfare
            welfare, _ = ga_heuristic(inst, seed=int(rng.integers(0, 2**32)))
            if optimum <= 0 or welfare >= 0.95 * optimum:
                hits += 1
        assert hits >= 90

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GaParams(population=1)
        with pytest.raises(ValueError, match="elites"):
            GaParams(population=ELITES)  # no room for offspring
        with pytest.raises(ValueError):
            GaParams(generations=0)
        assert GaParams(population=ELITES + 1).population == 3

    @pytest.mark.parametrize("key", ["mutation_rate", "tournament", "elitism"])
    def test_removed_keys_are_unknown(self, key):
        # the tournament size, the elites and the 1/m mutation rate are fixed
        with pytest.raises(TypeError, match=key):
            GaParams(**{key: 1})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population": 2.5},
            {"population": 10.0},
            {"generations": True},
            {"generations": "5"},
            {"population": None},
            {"generations": 2.5},
            {"population": "10"},
            {"generations": np.float64(5.0)},
            {"population": True},
        ],
    )
    def test_non_numbers_rejected_by_name(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            GaParams(**kwargs)

    def test_numpy_integers_accepted(self):
        params = GaParams(population=np.int64(6), generations=np.int32(3))
        inst = generate_instance(GenConfig(tenant_count=8, resource_count=2, seed=4))
        welfare, accepted = ga_heuristic(inst, params, seed=1)
        expected_welfare, expected = ga_heuristic(inst, GaParams(6, 3), seed=1)
        assert welfare == expected_welfare
        np.testing.assert_array_equal(accepted, expected)


class TestUtilityBidAuction:
    def test_two_tenant_rounds(self):
        # round 1: both bid, tenant 1 has the larger increment and wins;
        # round 2: tenant 0 no longer fits, so nobody bids
        inst = manual_instance([[0.6], [0.6]], [1.2, 1.5], [0.5])
        result = utility_bid_auction(inst)
        assert list(result.accepted) == [False, True]
        assert result.welfare == pytest.approx(1.2)
        assert result.payments[1] == pytest.approx(1.5)
        assert result.rounds == 1
        assert result.bids_submitted == 2

    def test_no_positive_surplus(self):
        inst = manual_instance([[0.5]], [0.3], [0.9])
        # valuation below the bundle cost: 0.3 < 0.5 * 0.9? no -> make it so
        bad = Instance(inst.demands, inst.valuations, inst.price_floors, inst.price_caps, [0.59])
        assert utility_bid_auction(bad).welfare == pytest.approx(0.3 - 0.5 * 0.59)
        worse = Instance(inst.demands, np.array([0.2]), inst.price_floors, inst.price_caps, [0.5])
        result = utility_bid_auction(worse)
        assert not result.accepted.any()
        assert result.welfare == 0.0

    def test_disjoint_resources_all_accepted(self):
        demands = np.array([[0.8, 0.0], [0.0, 0.8]])
        inst = manual_instance(demands, [1.0, 1.2], [0.1, 0.1])
        result = utility_bid_auction(inst)
        assert result.accepted.all()
        assert result.rounds == 2

    def test_rounds_bounded_by_tenants(self, rng):
        for _ in range(10):
            cfg = GenConfig(tenant_count=int(rng.integers(1, 40)), seed=int(rng.integers(0, 2**32)))
            inst = generate_instance(cfg)
            result = utility_bid_auction(inst)
            assert result.rounds <= inst.tenant_count
            Allocation.from_decisions(inst, result.accepted)


class TestMyopicSlicing:
    def test_opening_price_is_zero(self):
        inst = generate_instance(GenConfig(tenant_count=5, resource_count=2, seed=3))
        result = myopic_slicing(inst)
        first = result.ledger.transcript[0]
        assert first.quote == (0.0, 0.0)
        # any positive valuation accepts a zero quote
        assert first.accepted == 1

    def test_price_near_capacity(self):
        setup = MarketSetup([0.5, 0.5], [1.0, 2.0], [2.0, 3.0])
        pricing = MyopicPricing(setup)
        assert pricing.price_at(0, 1.0) == pytest.approx((1.0 + 2.0) / 2)
        assert pricing.price_at(1, 1.0) == pytest.approx((2.0 + 3.0) / 2)
        with pytest.raises(SetupError):
            pricing.price_at(0, 1.1)
        # the ramp ends at the band midpoint whatever the resource count
        for floors, caps in (([1.0], [3.0]), ([1.0, 2.0, 4.0], [2.0, 3.0, 5.0])):
            pricing = MyopicPricing(MarketSetup([0.5] * len(floors), floors, caps))
            for c, (lo, hi) in enumerate(zip(floors, caps)):
                assert pricing.price_at(c, 1.0) == pytest.approx((lo + hi) / 2)

    def test_session_respects_capacity(self, rng):
        for _ in range(20):
            cfg = GenConfig(
                tenant_count=int(rng.integers(1, 40)),
                resource_count=int(rng.integers(1, 4)),
                seed=int(rng.integers(0, 2**32)),
            )
            inst = generate_instance(cfg)
            result = myopic_slicing(inst)
            assert all(y <= 1.0 for y in result.ledger.utilization)


def _reference_random_slicing(instance, order=None, seed=0):
    """``random_slicing`` as it was: one coin drawn per arrival, the capacity
    test by ``any`` over the resources and the utilization updated in place."""
    from slicemarket.market import CAPACITY
    from slicemarket.oracle import adjusted_profits

    n = instance.tenant_count
    order = range(n) if order is None else [int(t) for t in order]
    rng = np.random.default_rng(seed)
    profits = adjusted_profits(instance)
    utilization = [0.0] * instance.resource_count
    demand_rows = instance.demands.tolist()
    accepted = np.zeros(n, dtype=bool)
    for tenant in order:
        coin = int(rng.integers(0, 2))
        if not coin:
            continue
        row = demand_rows[tenant]
        if any(y + d > CAPACITY for y, d in zip(utilization, row)):
            continue
        for i, d in enumerate(row):
            utilization[i] += d
        accepted[tenant] = True
    welfare = float(profits[accepted].sum()) if accepted.any() else 0.0
    return welfare, accepted


class TestRandomSlicing:
    @pytest.mark.parametrize("tenants", [0, 1, 2, 30, 1001, 5000])
    def test_matches_one_coin_per_arrival(self, tenants):
        """One draw of every coin is the per-arrival stream: same mask, same welfare bits."""
        if tenants:
            inst = generate_instance(GenConfig(tenant_count=tenants, demand_mean=3.0 / tenants, seed=tenants))
        else:
            inst = Instance(np.empty((0, 3)), [], [1.0] * 3, [2.0] * 3, [0.5] * 3)
        rng = np.random.default_rng(tenants)
        for seed in range(10):
            order = None if seed % 2 else rng.permutation(tenants)
            welfare, accepted = random_slicing(inst, order, seed=seed)
            want_welfare, want_accepted = _reference_random_slicing(inst, order, seed=seed)
            assert np.array([welfare]).tobytes() == np.array([want_welfare]).tobytes()
            assert accepted.dtype == want_accepted.dtype
            assert accepted.tobytes() == want_accepted.tobytes()

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"demand_mean": 4.0}, {"participation": 0.5}, {"demand_mean": 4.0, "participation": 0.5}],
        ids=["default", "overfull", "half participation", "overfull half participation"],
    )
    def test_matches_the_reference_on_seeded_markets(self, overrides):
        rng = np.random.default_rng(610)
        fits = misses = 0
        for _ in range(30):
            n = int(rng.integers(1, 400))
            config = GenConfig(
                tenant_count=n,
                resource_count=int(rng.integers(1, 5)),
                demand_mean=overrides.get("demand_mean", 1.0) / n,
                participation=overrides.get("participation"),
                seed=int(rng.integers(0, 2**32)),
            )
            inst = generate_instance(config)
            order = rng.permutation(n)
            seed = int(rng.integers(0, 2**32))
            welfare, accepted = random_slicing(inst, order, seed=seed)
            want_welfare, want_accepted = _reference_random_slicing(inst, order, seed=seed)
            assert repr(welfare) == repr(want_welfare)
            assert accepted.tobytes() == want_accepted.tobytes()
            fits += int(accepted.sum())
            misses += int((np.random.default_rng(seed).integers(0, 2, size=n).astype(bool) & ~accepted).sum())
        assert fits > 0
        if "demand_mean" in overrides:
            assert misses > 0  # accepting coins that did not fit

    @pytest.mark.parametrize("form", sorted(ORDER_FORMS))
    def test_order_forms_match_the_reference(self, form):
        rng = np.random.default_rng(612)
        for inst in order_test_markets(rng):
            order = ORDER_FORMS[form](rng.permutation(inst.tenant_count))
            seed = int(rng.integers(0, 2**32))
            welfare, accepted = random_slicing(inst, order, seed=seed)
            want_welfare, want_accepted = _reference_random_slicing(inst, order, seed=seed)
            assert repr(welfare) == repr(want_welfare)
            assert accepted.dtype == want_accepted.dtype
            assert accepted.tobytes() == want_accepted.tobytes()

    def test_exact_capacity_hits_match_the_reference(self):
        # demands in eighths sum exactly, so some runs fill a resource to exactly 1.0
        rng = np.random.default_rng(611)
        exact_fills = 0
        for seed in range(40):
            demands = rng.integers(0, 5, size=(40, 2)) / 8.0
            inst = Instance(demands, np.full(40, 5.0), [1.0, 1.0], [20.0, 20.0], [0.5, 0.5])
            order = rng.permutation(40)
            welfare, accepted = random_slicing(inst, order, seed=seed)
            want_welfare, want_accepted = _reference_random_slicing(inst, order, seed=seed)
            assert repr(welfare) == repr(want_welfare)
            assert accepted.tobytes() == want_accepted.tobytes()
            exact_fills += int((demands[accepted].sum(axis=0) == 1.0).any())
        assert exact_fills > 0

    def test_seeded_determinism(self):
        inst = generate_instance(GenConfig(tenant_count=20, seed=6))
        a = random_slicing(inst, seed=42)
        b = random_slicing(inst, seed=42)
        assert a[0] == b[0]
        assert (a[1] == b[1]).all()

    def test_all_rejecting_coins(self):
        inst = generate_instance(GenConfig(tenant_count=4, resource_count=1, seed=2))
        for seed in range(200):
            coins = np.random.default_rng(seed).integers(0, 2, size=4)
            if not coins.any():
                welfare, accepted = random_slicing(inst, seed=seed)
                assert welfare == 0.0
                assert not accepted.any()
                return
        pytest.fail("no all-zero coin sequence among the probed seeds")

    def test_capacity_never_exceeded(self, rng):
        for _ in range(10):
            inst = generate_instance(GenConfig(tenant_count=100, seed=int(rng.integers(0, 2**32))))
            _, accepted = random_slicing(inst, seed=int(rng.integers(0, 2**32)))
            Allocation.from_decisions(inst, accepted)


def test_sandwich_ordering(rng):
    """Every heuristic stays below the exact optimum on the same instance."""
    from slicemarket.oracle import lp_upper_bound

    for _ in range(15):
        cfg = GenConfig(
            tenant_count=int(rng.integers(4, 14)),
            resource_count=int(rng.integers(1, 4)),
            seed=int(rng.integers(0, 2**32)),
        )
        inst = generate_instance(cfg)
        setup = MarketSetup.from_instance(inst)
        schedule = build_schedule(setup)
        order = rng.permutation(inst.tenant_count)
        exact = offline_exact(inst).welfare
        bound = lp_upper_bound(inst)

        session = run_session(setup, schedule, inst, order)
        values = {
            "posted": social_welfare(setup, inst, session.allocation),
            "myopic": social_welfare(setup, inst, myopic_slicing(inst, order).allocation),
            "auction": utility_bid_auction(inst).welfare,
            "genetic": ga_heuristic(inst, GaParams(population=20, generations=15), seed=1)[0],
            "random": random_slicing(inst, order, seed=7)[0],
        }
        for name, value in values.items():
            assert value <= exact + 1e-9, name
        assert exact <= bound + 1e-6


def test_posted_price_beats_random_at_defaults(rng):
    posted, random_ = [], []
    for _ in range(60):
        inst = generate_instance(GenConfig(seed=int(rng.integers(0, 2**32))))
        order = rng.permutation(inst.tenant_count)
        setup = MarketSetup.from_instance(inst)
        schedule = build_schedule(setup)
        session = run_session(setup, schedule, inst, order)
        posted.append(social_welfare(setup, inst, session.allocation))
        welfare, _ = random_slicing(inst, order, seed=int(rng.integers(0, 2**32)))
        random_.append(welfare)
    assert np.median(posted) >= np.median(random_)
