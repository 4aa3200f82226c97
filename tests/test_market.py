"""Economic primitives: cost, conjugate, welfare accounting."""

import numpy as np
import pytest

from slicemarket import market
from slicemarket.market import (
    Allocation,
    InfeasibleAllocationError,
    MarketError,
    MarketSetup,
    PaymentError,
    SetupError,
    conjugate,
    cost,
    social_welfare,
    utilities,
)

from slicemarket.workload import Instance

from conftest import manual_instance, random_setup


def make_setup(q=1.0, floor=2.0, cap=4.0):
    return MarketSetup([q], [floor], [cap])


class TestCost:
    def test_zero_startup(self):
        assert cost(make_setup(q=0.5), 0, 0.0) == 0.0

    def test_linear(self):
        assert cost(make_setup(q=0.5), 0, 1.0) == 0.5

    def test_beyond_capacity_is_infinite(self):
        with pytest.raises(MarketError):
            cost(make_setup(q=0.5), 0, 1.0001)

    def test_monotone_then_infinite(self):
        setup = make_setup(q=0.7)
        values = [cost(setup, 0, y) for y in np.linspace(0, 1, 101)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_invalid_resource(self):
        with pytest.raises(SetupError):
            cost(make_setup(), 3, 0.5)

    def test_negative_utilization(self):
        with pytest.raises(MarketError):
            cost(make_setup(), 0, -0.1)


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


def _reference_check_allocation(setup, instance, allocation):
    """``market._check_allocation`` as it was, with ``np.allclose``."""
    if allocation.accepted.shape != (instance.tenant_count,):
        raise MarketError("allocation does not match the instance tenant count")
    if allocation.utilization.shape != (setup.resource_count,):
        raise MarketError("allocation does not match the market resource count")
    expected = allocation.accepted.astype(float) @ instance.demands
    if not np.allclose(allocation.utilization, expected, atol=1e-6):
        raise MarketError("allocation utilization is inconsistent with the instance demands")


def _verdicts(setup, instance, allocation):
    """What the reference and the current check make of one allocation: the error text or None."""
    verdicts = []
    for check in (_reference_check_allocation, market._check_allocation):
        try:
            check(setup, instance, allocation)
            verdicts.append(None)
        except MarketError as exc:
            verdicts.append(str(exc))
    return verdicts


class TestCheckAllocation:
    """The plain-float tolerance test agrees with ``np.allclose`` everywhere."""

    def test_random_allocations(self, rng):
        raised = kept = 0
        for _ in range(400):
            n, c = int(rng.integers(1, 12)), int(rng.integers(1, 6))
            demands = rng.uniform(0.0, 0.3, size=(n, c)) * (rng.random((n, c)) < 0.8)
            inst = manual_instance(demands + 1e-3, rng.uniform(0.5, 2.0, size=n), np.full(c, 0.1))
            setup = MarketSetup.from_instance(inst)
            accepted = rng.random(n) < 0.3
            expected = accepted.astype(float) @ inst.demands
            scale = rng.choice([0.0, 1e-9, 1e-7, 1e-6, 2e-6, 1e-5, 1e-3])
            utilization = np.clip(expected + scale * rng.standard_normal(c), 0.0, 1.0)
            reference, current = _verdicts(setup, inst, Allocation(accepted, utilization))
            assert current == reference
            raised += reference is not None
            kept += reference is None
        assert raised and kept

    def test_differences_at_the_tolerance(self):
        inst = manual_instance([[0.1, 0.3], [0.2, 0.05], [0.25, 0.4]], [1.0, 1.5, 2.0], [0.1, 0.1])
        setup = MarketSetup.from_instance(inst)
        verdicts = set()
        for accepted in ([True, False, False], [False, True, True], [True, True, True], [False, False, False]):
            expected = np.array(accepted, dtype=float) @ inst.demands
            tolerance = 1e-6 + 1e-5 * np.abs(expected)
            for edge in (expected + tolerance, expected - tolerance):
                for utilization in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                    if (utilization < 0).any():
                        continue
                    reference, current = _verdicts(setup, inst, Allocation(accepted, utilization))
                    assert current == reference
                    verdicts.add(reference is None)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("bad", [0, 1])
    def test_nan_utilization_raises(self, bad):
        inst = manual_instance([[0.3, 0.2], [0.3, 0.1]], [1.2, 1.5], [0.5, 0.5])
        setup = MarketSetup.from_instance(inst)
        utilization = np.array([0.6, 0.3])
        utilization[bad] = np.nan
        allocation = Allocation([True, True], utilization)  # a NaN passes the capacity check
        reference, current = _verdicts(setup, inst, allocation)
        assert current == reference == "allocation utilization is inconsistent with the instance demands"
        with pytest.raises(MarketError, match="inconsistent"):
            social_welfare(setup, inst, allocation)

    def test_overflowing_expected_utilization_raises(self):
        demands = np.array([[1e308], [1e308]])
        inst = Instance(demands, [1.0, 1.0], [1e-300], [1e300], [1e-301])
        setup = MarketSetup.from_instance(inst)
        with np.errstate(over="ignore"):
            reference, current = _verdicts(setup, inst, Allocation([True, True], [1.0]))
        assert current == reference is not None


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
