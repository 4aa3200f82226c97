"""Threshold pricing schedule: closed forms, identities, monotonicity."""

import math
from dataclasses import FrozenInstanceError, replace

import mpmath
import numpy as np
import pytest

from slicemarket.market import CAPACITY, MarketSetup, SetupError
from slicemarket.pricing import MyopicPricing, PricingSchedule, build_schedule
from slicemarket.verify import _random_config
from slicemarket.workload import generate_instance

from conftest import random_setup

E1 = MarketSetup([1.0], [2.0], [1.0 + math.e])
E2 = MarketSetup([0.5, 0.5], [1.0, 2.0], [2.0, 3.0])


def high_precision_threshold(costs, floors, caps, c):
    with mpmath.workdps(50):
        spread = mpmath.fsum(mpmath.mpf(hi) - mpmath.mpf(q) for hi, q in zip(caps, costs))
        gap = mpmath.mpf(floors[c]) - mpmath.mpf(costs[c])
        return float(1 / (1 + mpmath.log(spread / gap)))


def _reference_build_schedule(setup):
    """The thresholds and ratio as ``build_schedule`` first computed them:
    every step an array operation."""
    spread = float(np.sum(setup.price_caps - setup.unit_costs))
    gaps = setup.price_floors - setup.unit_costs
    thresholds = 1.0 / (1.0 + np.log(spread / gaps))
    return thresholds, float(np.max(1.0 / thresholds))


def _assert_same_schedule(got, setup):
    thresholds, ratio = _reference_build_schedule(setup)
    assert (got.thresholds.dtype, got.thresholds.tobytes()) == (thresholds.dtype, thresholds.tobytes())
    assert type(got.ratio) is float and np.float64(got.ratio).tobytes() == np.float64(ratio).tobytes()
    assert got.setup is setup
    assert not got.thresholds.flags.writeable


def test_build_schedule_matches_the_reference(rng):
    setups = [E1, E2] + [random_setup(rng, c) for c in range(1, 13) for _ in range(40)]
    setups += [MarketSetup.from_instance(generate_instance(_random_config(rng))) for _ in range(200)]
    for setup in setups:
        _assert_same_schedule(build_schedule(setup), setup)


class TestBuildSchedule:
    def test_single_resource_exact(self):
        schedule = build_schedule(E1)
        assert abs(schedule.thresholds[0] - 0.5) <= 1e-12
        assert abs(schedule.ratio - 2.0) <= 1e-12

    def test_two_resource_closed_form(self):
        schedule = build_schedule(E2)
        expected = [
            high_precision_threshold([0.5, 0.5], [1.0, 2.0], [2.0, 3.0], c) for c in (0, 1)
        ]
        assert schedule.thresholds[0] == pytest.approx(expected[0], rel=1e-12)
        assert schedule.thresholds[1] == pytest.approx(expected[1], rel=1e-12)
        assert schedule.thresholds[0] == pytest.approx(0.3247342047137871, rel=1e-9)
        assert schedule.thresholds[1] == pytest.approx(0.5048390710504517, rel=1e-9)
        assert schedule.ratio == pytest.approx(3.0794415416798357, rel=1e-9)

    def test_cost_at_floor_rejected(self):
        with pytest.raises(SetupError, match="q_c < price floor"):
            build_schedule(MarketSetup([2.0], [2.0], [3.0]))

    def test_schedule_holds_its_setup(self):
        setup = MarketSetup([0.5, 0.5], [1.0, 2.0], [2.0, 3.0])
        assert build_schedule(setup).setup is setup

    def test_degenerate_caps_equal_floors(self):
        schedule = build_schedule(MarketSetup([0.5, 0.5], [1.0, 1.0], [1.0, 1.0]))
        assert (schedule.thresholds > 0).all()
        assert (schedule.thresholds <= 1).all()

    def test_thresholds_in_unit_interval(self, rng):
        for _ in range(200):
            schedule = build_schedule(random_setup(rng))
            assert (schedule.thresholds > 0).all()
            assert (schedule.thresholds <= 1).all()


class TestPriceAt:
    def test_flat_region(self):
        assert build_schedule(E1).price_at(0, 0.25) == 2.0

    def test_exponential_region(self):
        expected = 1.0 + math.exp(0.5)
        assert build_schedule(E1).price_at(0, 0.75) == pytest.approx(expected, rel=1e-12)

    def test_terminal_price_hits_cap(self):
        # single resource: the terminal price equals the density cap
        assert build_schedule(E1).price_at(0, 1.0) == pytest.approx(1.0 + math.e, rel=1e-12)

    def test_beyond_capacity(self):
        with pytest.raises(SetupError):
            build_schedule(E1).price_at(0, 1.0001)

    def test_negative_utilization(self):
        with pytest.raises(SetupError):
            build_schedule(E1).price_at(0, -0.01)

    def test_bad_resource_index(self):
        with pytest.raises(SetupError):
            build_schedule(E1).price_at(1, 0.5)


def _schedules(setup):
    return (build_schedule(setup), MyopicPricing(setup))


def _quote_points(rng, schedule, c):
    """Utilization vectors at random points, at each threshold and its
    neighbouring floats, and at the ends of the capacity interval."""
    points = [[0.0] * c, [CAPACITY] * c, *rng.uniform(0.0, CAPACITY, size=(20, c)).tolist()]
    thresholds = getattr(schedule, "thresholds", rng.uniform(0.0, CAPACITY, size=c))
    for w in np.asarray(thresholds).tolist():
        for y in (np.nextafter(w, 0.0), w, min(np.nextafter(w, 2.0), CAPACITY)):
            points.append([float(y)] * c)
            points.append(rng.uniform(0.0, CAPACITY, size=c).tolist()[:-1] + [float(y)])
    return points


class TestQuote:
    """``quote`` is ``price_at`` over every resource, bit for bit."""

    def test_equals_price_at_per_resource(self, rng):
        for _ in range(100):
            setup = random_setup(rng)
            c = setup.resource_count
            for schedule in _schedules(setup):
                for u in _quote_points(rng, schedule, c):
                    want = tuple(schedule.price_at(i, y) for i, y in enumerate(u))
                    got = schedule.quote(u)
                    assert type(got) is tuple
                    assert all(type(p) is float for p in got)
                    assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("bad", [-1e-12, -1.0, np.nextafter(CAPACITY, 2.0), 1.5, math.nan, math.inf])
    def test_refuses_utilization_outside_capacity(self, bad):
        for schedule in _schedules(E2):
            for position in range(2):
                u = [0.5, 0.5]
                u[position] = bad
                with pytest.raises(SetupError, match="utilization"):
                    schedule.quote(u)
                with pytest.raises(SetupError, match="utilization"):
                    schedule.price_at(position, bad)

    @pytest.mark.parametrize("u", [[], [0.5], [0.5, 0.5, 0.5]])
    def test_refuses_a_wrong_length(self, u):
        for schedule in _schedules(E2):
            with pytest.raises(SetupError, match="2 utilizations"):
                schedule.quote(u)


class TestScheduleProperties:
    def test_start_identity(self, rng):
        for _ in range(100):
            setup = random_setup(rng)
            schedule = build_schedule(setup)
            for c in range(setup.resource_count):
                assert schedule.price_at(c, 0.0) == setup.price_floors[c]

    def test_continuity_at_threshold(self, rng):
        for _ in range(200):
            setup = random_setup(rng)
            schedule = build_schedule(setup)
            for c in range(setup.resource_count):
                w = schedule.thresholds[c]
                left = schedule.price_at(c, max(w - 1e-9, 0.0))
                assert abs(left - schedule.price_at(c, w)) <= 1e-6

    def test_flat_at_the_floor_through_the_threshold(self, rng):
        # q + (floor - q) * exp(0) can round one ulp below the floor, so y == w
        # must take the flat branch; just above it the price never dips
        for _ in range(200):
            setup = random_setup(rng)
            schedule = build_schedule(setup)
            thresholds = schedule.thresholds.tolist()
            quoted = schedule.quote(thresholds)
            for c, w in enumerate(thresholds):
                floor = float(setup.price_floors[c])
                assert schedule.price_at(c, w) == quoted[c] == floor
                assert schedule.price_at(c, float(np.nextafter(w, 1.0))) >= floor

    def test_monotone_on_grid(self, rng):
        grid = np.arange(0, 1001) / 1000.0
        for _ in range(100):
            setup = random_setup(rng)
            schedule = build_schedule(setup)
            for c in range(setup.resource_count):
                prices = [schedule.price_at(c, y) for y in grid]
                assert all(b >= a for a, b in zip(prices, prices[1:]))

    def test_terminal_identity(self, rng):
        # price at full capacity covers every cap and refunds the other costs
        for _ in range(200):
            setup = random_setup(rng)
            schedule = build_schedule(setup)
            caps_total = float(setup.price_caps.sum())
            for c in range(setup.resource_count):
                others = float(setup.unit_costs.sum() - setup.unit_costs[c])
                target = caps_total - others
                assert schedule.price_at(c, 1.0) == pytest.approx(target, rel=1e-9)

    def test_price_envelope(self, rng):
        for _ in range(50):
            setup = random_setup(rng)
            schedule = build_schedule(setup)
            for c in range(setup.resource_count):
                terminal = schedule.price_at(c, 1.0)
                for y in np.linspace(0, 1, 101):
                    p = schedule.price_at(c, float(y))
                    assert p >= setup.price_floors[c]
                    assert p <= terminal + 1e-12

    def test_growth_rate_matches_conjugate_slope(self, rng):
        # in the exponential region the price curve solves
        # price'(y) * h'(price) = (1/w) * (price - q) with h' = 1 above q
        step = 1e-6
        for _ in range(100):
            setup = random_setup(rng)
            schedule = build_schedule(setup)
            for c in range(setup.resource_count):
                w = schedule.thresholds[c]
                q = setup.unit_costs[c]
                lo = w + 1e-5
                hi = 1.0 - 1e-5
                if lo + step >= hi:
                    continue
                for y in np.linspace(lo + step, hi - step, 25):
                    derivative = (schedule.price_at(c, y + step) - schedule.price_at(c, y - step)) / (2 * step)
                    target = (schedule.price_at(c, y) - q) / w
                    assert derivative == pytest.approx(target, rel=1e-6)


def test_schedule_ratio():
    assert build_schedule(E1).ratio == pytest.approx(2.0)
    assert build_schedule(E2).ratio == pytest.approx(3.0794415416798357)


def test_ratio_at_least_one(rng):
    for _ in range(100):
        assert build_schedule(random_setup(rng)).ratio >= 1.0


def test_schedule_arrays_are_readonly():
    schedule = build_schedule(E2)
    with pytest.raises(ValueError):
        schedule.thresholds[0] = 0.9


@pytest.mark.parametrize("kind, derived", [(PricingSchedule, ("thresholds", "ratio")), (MyopicPricing, ("slopes",))])
def test_a_schedule_takes_its_setup_alone(kind, derived):
    """Each schedule is built from one argument, its setup; every other field
    is derived from it and can be neither given nor set."""
    schedule = kind(E2)
    assert schedule.setup is E2
    for name in derived:
        with pytest.raises(TypeError):
            kind(E2, **{name: getattr(schedule, name)})
        with pytest.raises(ValueError, match="init=False"):
            replace(schedule, **{name: getattr(schedule, name)})
        with pytest.raises(FrozenInstanceError):
            setattr(schedule, name, getattr(schedule, name))
    with pytest.raises(TypeError):
        kind(E2, *(getattr(schedule, name) for name in derived))


def test_myopic_ramps_compare_and_hash_by_their_slopes():
    twin = MarketSetup(E2.unit_costs.copy(), E2.price_floors.copy(), E2.price_caps.copy())
    assert MyopicPricing(twin) == MyopicPricing(E2) and hash(MyopicPricing(twin)) == hash(MyopicPricing(E2))
    assert MyopicPricing(E2) != MyopicPricing(MarketSetup([0.5, 0.5], [1.0, 2.0], [2.0, 4.0]))
