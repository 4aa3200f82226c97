"""Economic primitives: conjugate, allocations, welfare accounting."""

from dataclasses import FrozenInstanceError
from functools import reduce
from operator import add

import numpy as np
import pytest

from slicemarket.baselines import random_slicing, utility_bid_auction
from slicemarket.market import (
    CAPACITY,
    Allocation,
    InfeasibleAllocationError,
    MarketError,
    MarketSetup,
    PaymentError,
    SetupError,
    _readonly,
    _reorder_factor,
    conjugate,
    social_welfare,
    utilities,
)
from slicemarket.oracle import offline_exact
from slicemarket.protocol import run_posted_price

from slicemarket.verify import _random_config
from slicemarket.workload import Instance, generate_instance

from conftest import manual_instance, random_setup


def make_setup(q=1.0, floor=2.0, cap=4.0):
    return MarketSetup([q], [floor], [cap])


class TestConjugate:
    def test_at_marginal_cost(self):
        assert conjugate(make_setup(q=1.0), 0, 1.0) == 0.0

    def test_above_marginal_cost(self):
        assert conjugate(make_setup(q=1.0), 0, 2.0) == 1.0

    def test_below_marginal_cost(self):
        assert conjugate(make_setup(q=1.0), 0, 0.3) == 0.0

    def test_negative_price(self):
        with pytest.raises(MarketError):
            conjugate(make_setup(), 0, -1.0)

    def test_invalid_resource(self):
        with pytest.raises(SetupError):
            conjugate(make_setup(), 3, 0.5)

    @pytest.mark.parametrize("price", [np.nan, np.inf, -np.inf])
    def test_non_finite_price(self, price):
        with pytest.raises(MarketError, match="price must be non-negative and finite"):
            conjugate(make_setup(), 0, price)


class TestProfit:
    """The profit ``p*y - q*y`` of renting ``y`` units at price ``p``,
    maximized over the capacity interval, is the conjugate."""

    def test_maximum_matches_conjugate_on_grid(self):
        # independent grid search over y in {0, 0.01, ..., 1.0}
        setup = make_setup(q=1.0)
        grid = [2.0 * (i / 100) - 1.0 * (i / 100) for i in range(101)]
        assert max(grid) == pytest.approx(1.0)
        assert grid.index(max(grid)) == 100
        assert max(grid) == pytest.approx(conjugate(setup, 0, 2.0))

    def test_duality_randomized(self, rng):
        grid = np.arange(0, 1001) / 1000.0
        for _ in range(1000):
            q = float(rng.uniform(0.05, 5.0))
            p = float(rng.uniform(0.0, 10.0))
            setup = make_setup(q=q, floor=q * 2, cap=q * 4)
            best = max(p * y - q * y for y in grid)
            assert abs(best - conjugate(setup, 0, p)) <= 1e-6


class TestAllocation:
    """An allocation is summed once, from its own instance, and welfare
    accounting checks that instance by identity."""

    def test_utilization_is_the_product_bit_for_bit(self, rng):
        for _ in range(200):
            n, c = int(rng.integers(1, 40)), int(rng.integers(1, 6))
            demands = rng.uniform(0.0, 1.0 / n, size=(n, c))
            inst = manual_instance(demands, rng.uniform(0.5, 2.0, size=n), np.full(c, 0.1))
            accepted = rng.random(n) < 0.5
            alloc = Allocation.from_decisions(inst, accepted)
            assert alloc.utilization.tobytes() == (accepted.astype(float) @ inst.demands).tobytes()
            assert alloc.demands is inst.demands
            assert not (alloc.accepted.flags.writeable or alloc.utilization.flags.writeable)

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            (([True], [0.5]), {}),
            ((), {"accepted": [True], "utilization": [0.5]}),
            (([True], [0.5], np.array([[0.5]])), {}),
        ],
    )
    def test_no_constructor_takes_a_utilization(self, args, kwargs):
        with pytest.raises(TypeError, match="from_decisions"):
            Allocation(*args, **kwargs)

    def test_frozen(self):
        alloc = Allocation.from_decisions(manual_instance([[0.6]], [1.2], [0.5]), [True])
        with pytest.raises(FrozenInstanceError):
            alloc.utilization = np.array([0.0])

    def test_overflowing_sum_is_infeasible(self):
        inst = Instance(np.array([[1e308], [1e308]]), [1.0, 1.0], [1e-300], [1e300], [1e-301])
        with np.errstate(over="ignore"), pytest.raises(InfeasibleAllocationError) as err:
            Allocation.from_decisions(inst, [True, True])
        assert (err.value.resource, err.value.utilization) == (0, np.inf)

    def test_another_equal_instance_is_refused(self):
        rows = ([[0.3, 0.2], [0.3, 0.1]], [1.2, 1.5], [0.5, 0.5])
        inst, twin = manual_instance(*rows), manual_instance(*rows)
        setup = MarketSetup.from_instance(inst)
        alloc = Allocation.from_decisions(inst, [True, True])
        own = Allocation.from_decisions(twin, [True, True])
        assert social_welfare(setup, inst, alloc) == social_welfare(setup, twin, own)
        with pytest.raises(MarketError, match="allocation was built for another instance"):
            social_welfare(setup, twin, alloc)
        with pytest.raises(MarketError, match="allocation was built for another instance"):
            utilities(setup, twin, alloc, [0.5, 0.5])

    def test_setup_of_another_resource_count_is_refused(self):
        inst = manual_instance([[0.3, 0.2]], [1.2], [0.5, 0.5])
        alloc = Allocation.from_decisions(inst, [True])
        for account in (social_welfare, lambda *args: utilities(*args, [0.5])):
            with pytest.raises(MarketError, match="resource count"):
                account(make_setup(), inst, alloc)

    def test_setup_of_other_unit_costs_is_refused(self):
        inst = manual_instance([[0.3, 0.2]], [1.2], [0.5, 0.5])
        alloc = Allocation.from_decisions(inst, [True])
        own = MarketSetup([0.5, 0.5], inst.price_floors, inst.price_caps)  # equal costs, other arrays
        other = MarketSetup([0.5, 0.25], inst.price_floors, inst.price_caps)
        for account in (social_welfare, lambda *args: utilities(*args, [0.5])):
            with pytest.raises(MarketError, match="unit costs"):
                account(other, inst, alloc)
        assert social_welfare(own, inst, alloc) == social_welfare(MarketSetup.from_instance(inst), inst, alloc)
        assert utilities(own, inst, alloc, [0.5])[0] == 0.5 - 0.25

    def test_decision_vector_of_another_shape_is_refused(self):
        inst = manual_instance([[0.3], [0.3]], [1.2, 1.5], [0.5])
        for accepted in ([True], [[True, False]], [True, False, False]):
            with pytest.raises(MarketError, match="decision vector has shape"):
                Allocation.from_decisions(inst, accepted)


def _reordered_sets(count: int) -> list[np.ndarray]:
    """Demand sets scaled to sum to CAPACITY whose left-to-right sum stays
    within it while numpy's product over the same set reads above it."""
    rng = np.random.default_rng(34)
    found = []
    while len(found) < count:
        demands = rng.random(int(rng.integers(2, 40)))
        demands *= CAPACITY / demands.sum()
        if reduce(add, demands.tolist()) <= CAPACITY < np.ones(len(demands)) @ demands:
            found.append(demands)
    return found


def _one_resource(demands, valuations) -> Instance:
    one = np.ones(1)
    return Instance(np.asarray(demands)[:, None], valuations, one, 2 * one, one / 2)


class TestRoundingAllowance:
    """``from_decisions`` sums a set in another order than the algorithm that
    booked it; the allowance ``_reorder_factor`` is both needed and enough."""

    def test_booked_sets_that_read_above_capacity_are_accepted(self):
        above = dict.fromkeys(("session", "auction", "random", "branch-and-bound"), 0)
        for demands in _reordered_sets(60):
            m = len(demands)
            # every tenant can pay the cap, and profits fall in instance order,
            # so the session and the auction both scan the set left to right
            market = _one_resource(demands, 10.0 + np.arange(m, 0, -1))
            # random slicing scans the arrivals whose coin accepts: the set
            # arrives on the first m of them, tenants too large to fit elsewhere
            n = 4 * m
            coins = np.flatnonzero(np.random.default_rng(0).integers(0, 2, size=n))
            assert len(coins) >= m
            order = np.empty(n, dtype=np.intp)
            order[coins[:m]] = np.arange(m)
            order[np.setdiff1d(np.arange(n), coins[:m])] = np.arange(m, n)
            padded = _one_resource(np.concatenate((demands, np.full(n - m, 2.0))), np.full(n, 20.0))
            booked = {
                "session": (market, run_posted_price(market).allocation.accepted),
                "auction": (market, utility_bid_auction(market).accepted),
                "random": (padded, random_slicing(padded, order, seed=0)[1]),
                "branch-and-bound": (market, offline_exact(market).accepted),
            }
            for name, (instance, accepted) in booked.items():
                if name != "branch-and-bound":  # its subtractions may refuse the last item
                    assert accepted[:m].all() and not accepted[m:].any(), name
                allocation = Allocation.from_decisions(instance, accepted)
                above[name] += int(allocation.utilization[0] > CAPACITY)
        # the allowance is used by every engine, so zero tolerance would refuse these
        assert min(above.values()) >= 5, above

    @pytest.mark.parametrize("tenants", [1, 2, 100, 20_000])
    def test_one_ulp_past_the_bound_is_refused(self, tenants):
        bound = CAPACITY * _reorder_factor(tenants)
        assert 0 < bound - CAPACITY < 1e-11
        demands = np.zeros(tenants)
        accepted = np.zeros(tenants, dtype=bool)
        accepted[-1] = True
        demands[-1] = bound
        assert Allocation.from_decisions(_one_resource(demands, np.ones(tenants)), accepted).utilization[0] == bound
        demands[-1] = np.nextafter(bound, np.inf)
        with pytest.raises(InfeasibleAllocationError, match="exceeds the bound") as err:
            Allocation.from_decisions(_one_resource(demands, np.ones(tenants)), accepted)
        assert (err.value.resource, err.value.utilization, err.value.bound) == (0, demands[-1], bound)


class TestSocialWelfare:
    def test_empty_allocation(self):
        inst = manual_instance([[0.6]], [1.2], [0.5])
        setup = MarketSetup.from_instance(inst)
        alloc = Allocation.from_decisions(inst, [False])
        assert social_welfare(setup, inst, alloc) == 0.0

    def test_single_tenant(self):
        inst = manual_instance([[0.6]], [1.2], [0.5])
        setup = MarketSetup.from_instance(inst)
        alloc = Allocation.from_decisions(inst, [True])
        assert social_welfare(setup, inst, alloc) == pytest.approx(0.9)

    def test_two_tenants_best_subset(self):
        inst = manual_instance([[0.6], [0.6]], [1.2, 1.5], [0.5])
        setup = MarketSetup.from_instance(inst)
        # enumerate all four subsets independently
        best, best_x = 0.0, (False, False)
        for x1 in (False, True):
            for x2 in (False, True):
                used = 0.6 * x1 + 0.6 * x2
                if used > 1.0:
                    continue
                value = 1.2 * x1 + 1.5 * x2 - 0.5 * used
                if value > best:
                    best, best_x = value, (x1, x2)
        assert best == pytest.approx(1.2)
        assert best_x == (False, True)
        alloc = Allocation.from_decisions(inst, list(best_x))
        assert social_welfare(setup, inst, alloc) == pytest.approx(1.2)

    def test_infeasible_allocation_names_resource(self):
        inst = manual_instance([[0.6], [0.6]], [1.2, 1.5], [0.5])
        with pytest.raises(InfeasibleAllocationError) as err:
            Allocation.from_decisions(inst, [True, True])
        assert err.value.resource == 0

    def test_allocation_copies_the_callers_decisions(self):
        inst = manual_instance([[0.3], [0.3]], [1.2, 1.5], [0.5])
        accepted = np.array([True, False])
        alloc = Allocation.from_decisions(inst, accepted)
        assert accepted.flags.writeable
        assert not np.shares_memory(alloc.accepted, accepted)
        accepted[1] = True
        assert alloc.accepted.tolist() == [True, False]
        with pytest.raises(ValueError):
            alloc.accepted[1] = True


class TestUtilities:
    def test_served_tenant(self):
        inst = manual_instance([[0.6]], [1.2], [0.5])
        setup = MarketSetup.from_instance(inst)
        alloc = Allocation.from_decisions(inst, [True])
        operator, tenant = utilities(setup, inst, alloc, [0.7])
        assert tenant[0] == pytest.approx(0.5)
        assert operator == pytest.approx(0.7 - 0.3)

    def test_rejected_tenant(self):
        inst = manual_instance([[0.6]], [1.2], [0.5])
        setup = MarketSetup.from_instance(inst)
        alloc = Allocation.from_decisions(inst, [False])
        operator, tenant = utilities(setup, inst, alloc, [0.0])
        assert tenant[0] == 0.0
        assert operator == 0.0

    def test_payment_on_rejected_tenant(self):
        inst = manual_instance([[0.6]], [1.2], [0.5])
        setup = MarketSetup.from_instance(inst)
        alloc = Allocation.from_decisions(inst, [False])
        with pytest.raises(PaymentError):
            utilities(setup, inst, alloc, [0.7])

    def test_negative_payment(self):
        inst = manual_instance([[0.6]], [1.2], [0.5])
        setup = MarketSetup.from_instance(inst)
        alloc = Allocation.from_decisions(inst, [True])
        with pytest.raises(PaymentError):
            utilities(setup, inst, alloc, [-0.1])

    @pytest.mark.parametrize("payment", [np.nan, np.inf, -np.inf])
    def test_non_finite_payment_names_the_tenant(self, payment):
        inst = manual_instance([[0.3], [0.3], [0.3]], [1.2, 1.5, 0.9], [0.5])
        setup = MarketSetup.from_instance(inst)
        alloc = Allocation.from_decisions(inst, [True, True, True])
        with pytest.raises(PaymentError, match=r"tenant 1: payment -?(nan|inf) is negative or not finite"):
            utilities(setup, inst, alloc, [0.4, payment, 0.2])

    def test_accounting_identity_randomized(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 12))
            c = int(rng.integers(1, 4))
            demands = rng.uniform(0.001, 1.0 / n, size=(n, c))
            valuations = rng.uniform(0.1, 2.0, size=n)
            inst = manual_instance(demands, valuations, rng.uniform(0.001, 0.01, size=c))
            setup = MarketSetup(inst.unit_costs, inst.price_floors, inst.price_caps)
            accepted = rng.random(n) < 0.5
            alloc = Allocation.from_decisions(inst, accepted)
            payments = np.where(accepted, valuations * rng.uniform(0, 1, size=n), 0.0)
            operator, tenants = utilities(setup, inst, alloc, payments)
            welfare = social_welfare(setup, inst, alloc)
            assert abs(welfare - (operator + tenants.sum())) <= 1e-9


class TestMarketSetup:
    def test_validate_catches_cost_at_floor(self):
        with pytest.raises(SetupError, match="q_c < price floor"):
            MarketSetup([2.0], [2.0], [3.0])

    def test_validate_catches_crossed_bounds(self):
        with pytest.raises(SetupError, match="price floor <= price cap"):
            MarketSetup([0.5], [3.0], [2.0])

    @pytest.mark.parametrize("cost", [0.0, -0.1])
    def test_constructor_rejects_non_positive_cost(self, cost):
        with pytest.raises(SetupError, match=r"0 < q_c violated"):
            MarketSetup([cost], [1.0], [2.0])

    def test_checked_once_when_built(self):
        # a setup that exists is valid; there is no second check to call
        assert not hasattr(MarketSetup([1.0], [2.0], [3.0]), "validate")

    def test_shape_mismatch(self):
        with pytest.raises(SetupError):
            MarketSetup([1.0, 1.0], [2.0], [3.0])

    @pytest.mark.parametrize(
        "costs, floors, caps",
        [
            ([0.1], [0.5], [np.inf]),
            ([0.1], [np.inf], [np.inf]),
            ([0.1, 0.1], [0.5, 0.5], [2.0, np.nan]),
            ([np.nan], [0.5], [2.0]),
            ([0.1], [np.nan], [2.0]),
            ([0.1], [0.5], [-np.inf]),
        ],
    )
    def test_validate_rejects_non_finite(self, costs, floors, caps):
        with pytest.raises(SetupError, match="non-finite"):
            MarketSetup(costs, floors, caps)

    def test_random_setups_validate(self, rng):
        for _ in range(50):
            random_setup(rng)

    def test_constructor_copies_the_callers_arrays(self):
        costs, floors, caps = np.array([0.5, 0.4]), np.array([1.0, 2.0]), np.array([2.0, 3.0])
        view = floors[:]  # read-only, but a view of the caller's writeable array
        view.setflags(write=False)
        for given in ((costs, floors, caps), (costs, view, caps)):
            setup = MarketSetup(*given)
            kept = (setup.unit_costs, setup.price_floors, setup.price_caps)
            for mine, theirs in zip(given, kept):
                assert not theirs.flags.writeable
                assert not np.shares_memory(mine, theirs)
        floors[0] = 0.3
        assert setup.price_floors.tolist() == [1.0, 2.0]

    def test_from_instance_keeps_the_instances_read_only_arrays(self, rng):
        for _ in range(40):
            inst = generate_instance(_random_config(rng))
            for name in ("demands", "valuations", "price_floors", "price_caps", "unit_costs"):
                assert not getattr(inst, name).flags.writeable, name
            setup = MarketSetup.from_instance(inst)
            assert setup.unit_costs is inst.unit_costs
            assert setup.price_floors is inst.price_floors
            assert setup.price_caps is inst.price_caps


def _reference_readonly(array, dtype=float):
    """``market._readonly`` as it was: a private read-only copy of anything."""
    array = np.array(array, dtype=dtype, order="C")
    array.setflags(write=False)
    return array


def _frozen(array):
    array.setflags(write=False)
    return array


@pytest.mark.parametrize(
    "make, dtype, kept",
    [
        (lambda: [0.5, 1.5], float, False),
        (lambda: np.arange(6.0).reshape(2, 3), float, False),
        (lambda: _frozen(np.arange(6.0).reshape(2, 3).copy()), float, True),
        (lambda: _frozen(np.arange(6.0).reshape(2, 3))[:, 1:], float, False),  # a view
        (lambda: _frozen(np.asfortranarray(np.arange(6.0).reshape(2, 3))), float, False),
        (lambda: _frozen(np.arange(6, dtype=np.float32)), float, False),
        (lambda: _frozen(np.arange(6)), float, False),
        (lambda: _frozen(np.arange(6.0).astype(">f8")), float, False),
        (lambda: _frozen(np.array([True, False])), bool, True),
        (lambda: _frozen(np.array([1.0, 0.0])), bool, False),
        (lambda: np.array([True, False]), bool, False),
    ],
)
def test_readonly_matches_the_copying_reference(make, dtype, kept):
    given = make()
    got, want = _readonly(given, dtype), _reference_readonly(make(), dtype)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert not got.flags.writeable and got.flags.c_contiguous
    # only an array that is already frozen and owns its memory is kept
    assert (got is given) == kept
    if not kept and isinstance(given, np.ndarray):
        assert not np.shares_memory(got, given)
