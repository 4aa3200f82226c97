"""Economic primitives of the slicing market.

Every resource has unit capacity, a linear operating cost, and an admissible
band of earning densities (tenant valuation per unit of resource).  This
module holds the market setup, the allocation and its capacity check, the
conjugate of the linear cost, and the welfare accounting that every
algorithm in the package shares.

An allocation's utilization must lie in ``[0, CAPACITY]``, up to
``FEASIBILITY_EPS`` above it; the ``Allocation`` constructor refuses any
other.  Every number is finite: the ``workload.Instance`` constructor checks
an instance's, and the ``MarketSetup`` constructor a setup's band, so a setup
that exists is valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CAPACITY = 1.0
FEASIBILITY_EPS = 1e-9


class MarketError(Exception):
    """Base class for structured market-model errors."""


class SetupError(MarketError):
    """A market setup violates its defining inequalities."""


class InfeasibleAllocationError(MarketError):
    """An allocation exceeds the capacity of at least one resource."""

    def __init__(self, resource: int, utilization: float):
        self.resource = resource
        self.utilization = utilization
        super().__init__(
            f"resource {resource} over capacity: utilization {utilization!r} "
            f"exceeds {CAPACITY} + {FEASIBILITY_EPS}"
        )


class PaymentError(MarketError):
    """A payment vector is inconsistent with an allocation."""


def _readonly(array: np.ndarray, dtype=float) -> np.ndarray:
    # a private copy: the caller's array stays writeable, and a write through
    # any view of it cannot reach the frozen object
    array = np.array(array, dtype=dtype, order="C")
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class MarketSetup:
    """Static market description: per-resource unit costs and density bands.

    ``unit_costs[c]`` is the linear operating cost of resource ``c``.
    Admissible tenants can pay their whole demand bundle at ``price_floors``
    and earn at most ``price_caps[c]`` per unit of resource ``c``.  Capacity
    is normalized to 1 per resource.  The constructor checks the band,
    ``0 < unit cost < price floor <= price cap < inf`` for every resource, and
    raises ``SetupError`` at the first resource that breaks it.
    """

    unit_costs: np.ndarray
    price_floors: np.ndarray
    price_caps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "unit_costs", _readonly(self.unit_costs))
        object.__setattr__(self, "price_floors", _readonly(self.price_floors))
        object.__setattr__(self, "price_caps", _readonly(self.price_caps))
        shapes = {self.unit_costs.shape, self.price_floors.shape, self.price_caps.shape}
        if len(shapes) != 1 or self.unit_costs.ndim != 1:
            raise SetupError("unit_costs, price_floors and price_caps must be 1-D and equally long")
        if self.resource_count < 1:
            raise SetupError("a market needs at least one resource")
        band = zip(self.unit_costs.tolist(), self.price_floors.tolist(), self.price_caps.tolist())
        for c, (q, lo, hi) in enumerate(band):
            if not (math.isfinite(q) and math.isfinite(lo) and math.isfinite(hi)):
                raise SetupError(f"resource {c}: non-finite value (q={q!r}, floor={lo!r}, cap={hi!r})")
            if not q > 0:
                raise SetupError(f"resource {c}: 0 < q_c violated (q={q!r})")
            if not q < lo:
                raise SetupError(f"resource {c}: q_c < price floor violated (q={q!r}, floor={lo!r})")
            if not lo <= hi:
                raise SetupError(f"resource {c}: price floor <= price cap violated (floor={lo!r}, cap={hi!r})")

    @property
    def resource_count(self) -> int:
        return self.unit_costs.shape[0]

    @classmethod
    def from_instance(cls, instance) -> "MarketSetup":
        return cls(instance.unit_costs, instance.price_floors, instance.price_caps)


@dataclass(frozen=True)
class Allocation:
    """Accept/reject decisions plus the per-resource utilization they induce."""

    accepted: np.ndarray
    utilization: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "accepted", _readonly(self.accepted, bool))
        object.__setattr__(self, "utilization", _readonly(self.utilization))
        for c, y in enumerate(self.utilization.tolist()):
            if y > CAPACITY + FEASIBILITY_EPS or y < 0:
                raise InfeasibleAllocationError(c, y)

    @classmethod
    def from_decisions(cls, instance, accepted) -> "Allocation":
        accepted = np.asarray(accepted, dtype=bool)
        if accepted.shape != (instance.tenant_count,):
            raise MarketError(
                f"decision vector has shape {accepted.shape}, expected ({instance.tenant_count},)"
            )
        utilization = accepted.astype(float) @ instance.demands
        return cls(accepted, utilization)


def _check_resource(setup: MarketSetup, c: int) -> None:
    if not 0 <= c < setup.resource_count:
        raise SetupError(f"resource index {c} out of range [0, {setup.resource_count})")


def conjugate(setup: MarketSetup, c: int, price: float) -> float:
    """Maximum profit of resource ``c`` at a posted price.

    Zero while the price does not cover the unit cost, ``price - q_c`` above.
    """
    _check_resource(setup, c)
    if price < 0:
        raise MarketError(f"price must be non-negative, got {price!r}")
    q = float(setup.unit_costs[c])
    return float(price - q) if price > q else 0.0


def _check_allocation(setup: MarketSetup, instance, allocation: Allocation) -> None:
    # capacity is the ``Allocation`` constructor's check; these guard a directly built one
    if allocation.accepted.shape != (instance.tenant_count,):
        raise MarketError("allocation does not match the instance tenant count")
    if allocation.utilization.shape != (setup.resource_count,):
        raise MarketError("allocation does not match the market resource count")
    expected = allocation.accepted.astype(float) @ instance.demands
    # np.allclose(utilization, expected, atol=1e-6), one resource at a time on plain floats
    for used, want in zip(allocation.utilization.tolist(), expected.tolist()):
        if not (abs(used - want) <= 1e-6 + 1e-5 * abs(want) and math.isfinite(want) or used == want):
            raise MarketError("allocation utilization is inconsistent with the instance demands")


def social_welfare(setup: MarketSetup, instance, allocation: Allocation) -> float:
    """Total valuation of the served tenants minus operating costs.

    Payments are internal transfers between tenants and the operator, so any
    payment vector yields the same welfare.
    """
    _check_allocation(setup, instance, allocation)
    x = allocation.accepted.astype(float)
    value = float(instance.valuations @ x)
    run_cost = float(setup.unit_costs @ allocation.utilization)
    return value - run_cost


def utilities(setup: MarketSetup, instance, allocation: Allocation, payments) -> tuple[float, np.ndarray]:
    """Split welfare into the operator utility and per-tenant utilities.

    Tenant ``n`` nets ``valuation - payment`` when served and 0 otherwise; the
    operator collects all payments and bears the operating costs.
    """
    _check_allocation(setup, instance, allocation)
    payments = np.asarray(payments, dtype=float)
    if payments.shape != allocation.accepted.shape:
        raise PaymentError("payments vector must have one entry per tenant")
    if (payments < 0).any():
        tenant = int(np.argmax(payments < 0))
        raise PaymentError(f"tenant {tenant}: negative payment {float(payments[tenant])!r}")
    stray = payments[~allocation.accepted]
    if (stray != 0).any():
        tenant = int(np.flatnonzero(~allocation.accepted)[np.argmax(stray != 0)])
        raise PaymentError(f"payment attached to rejected tenant {tenant}")
    tenant_utils = (instance.valuations - payments) * allocation.accepted
    operator = float(payments.sum() - setup.unit_costs @ allocation.utilization)
    return operator, tenant_utils
