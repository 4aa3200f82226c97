"""Economic primitives of the slicing market.

Every resource has unit capacity, a linear operating cost, and an admissible
band of earning densities (tenant valuation per unit of resource).  This
module holds the market setup, the allocation and its capacity check, the
conjugate of the linear cost, and the welfare accounting that every
algorithm in the package shares.

Every algorithm books a set only while its own sum stays within ``CAPACITY``.
``Allocation.from_decisions``, the one way to build an allocation, sums it once
more, refuses a utilization past ``CAPACITY * _reorder_factor(N)`` and keeps
the instance's demand matrix, which the welfare accounting checks by identity.
``workload.Instance`` and ``MarketSetup`` check that every number is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CAPACITY = 1.0
_EPS = np.finfo(float).eps


def _reorder_factor(terms: int) -> float:
    """``(1+γ)/(1-γ)``, ``γ = terms·ε/(1 - terms·ε)``: the factor by which a sum
    of ``terms`` nonnegative floats can read more in one order than in another.

    Any order's sum of m terms is within ``γ_m·S`` of the exact sum ``S``, with
    ``γ_m = m·u/(1 - m·u)``, ``u`` the unit roundoff (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, §3.1).  ``ε = 2u``, so ``γ`` tops
    ``γ_m`` and the rounding of the factor.  A set one order keeps within
    ``CAPACITY`` has ``S <= CAPACITY/(1-γ)``, so it reads at most ``CAPACITY``
    times the factor in any other.  Branch-and-bound takes an item only while
    ``r >= d``; each ``r - d`` rounds by at most ``u·CAPACITY``, so m takes
    keep ``S <= CAPACITY·(1 + m·u)``, below ``CAPACITY/(1-γ)``.
    """
    gamma = terms * _EPS / (1 - terms * _EPS)
    return (1 + gamma) / (1 - gamma)


class MarketError(Exception):
    """Base class for structured market-model errors."""


class SetupError(MarketError):
    """A market setup violates its defining inequalities."""


class InfeasibleAllocationError(MarketError):
    """An allocation exceeds the capacity of at least one resource."""

    def __init__(self, resource: int, utilization: float, bound: float):
        self.resource = resource
        self.utilization = utilization
        self.bound = bound
        super().__init__(f"resource {resource} over capacity: utilization {utilization!r} exceeds the bound {bound!r}")


class PaymentError(MarketError):
    """A payment vector is inconsistent with an allocation."""


def _readonly(array: np.ndarray, dtype=float) -> np.ndarray:
    # an array of the dtype that is already read-only, C-ordered and owns its
    # memory is kept: a frozen object's own arrays are such, and nothing writes
    # to one without setting its flag back first.  Anything else becomes a
    # private copy, so the caller's array (or a view of it) stays writeable and
    # a write through it cannot reach the frozen object
    if type(array) is np.ndarray and array.base is None and array.dtype == dtype:
        flags = array.flags
        if not flags.writeable and flags.c_contiguous:
            return array
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
    raises ``SetupError`` at the first resource that breaks it.  It copies a
    writeable array; ``from_instance`` keeps the instance's read-only ones.
    Two setups are equal when their three arrays hold equal values, and then
    hash alike.
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

    def _values(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(array.tolist()) for array in (self.unit_costs, self.price_floors, self.price_caps))

    def __eq__(self, other):
        if not isinstance(other, MarketSetup):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    @property
    def resource_count(self) -> int:
        return self.unit_costs.shape[0]

    @classmethod
    def from_instance(cls, instance) -> "MarketSetup":
        return cls(instance.unit_costs, instance.price_floors, instance.price_caps)


@dataclass(frozen=True, init=False)
class Allocation:
    """Accept/reject decisions plus the per-resource utilization they induce.

    Only ``from_decisions`` builds one.  Both arrays are read-only, and
    ``demands`` is the instance's own matrix the utilization was summed from.
    """

    accepted: np.ndarray
    utilization: np.ndarray
    demands: np.ndarray = field(repr=False, compare=False)

    def __init__(self, *args, **kwargs):
        raise TypeError("an Allocation is built by Allocation.from_decisions(instance, accepted)")

    @classmethod
    def from_decisions(cls, instance, accepted) -> "Allocation":
        accepted = _readonly(accepted, bool)
        if accepted.shape != (instance.tenant_count,):
            raise MarketError(f"decision vector has shape {accepted.shape}, expected ({instance.tenant_count},)")
        utilization = accepted.astype(float) @ instance.demands
        # demands are finite and non-negative: only an overfull resource (or an overflow) fails
        bound = CAPACITY * _reorder_factor(instance.tenant_count)
        for c, y in enumerate(utilization.tolist()):
            if y > bound:
                raise InfeasibleAllocationError(c, y, bound)
        utilization.setflags(write=False)
        allocation = object.__new__(cls)
        allocation.__dict__.update(accepted=accepted, utilization=utilization, demands=instance.demands)
        return allocation


def conjugate(setup: MarketSetup, c: int, price: float) -> float:
    """Maximum profit of resource ``c`` at a posted price.

    Zero while the price does not cover the unit cost, ``price - q_c`` above.
    """
    if not 0 <= c < setup.resource_count:
        raise SetupError(f"resource index {c} out of range [0, {setup.resource_count})")
    if not 0 <= price < math.inf:
        raise MarketError(f"price must be non-negative and finite, got {price!r}")
    q = float(setup.unit_costs[c])
    return float(price - q) if price > q else 0.0


def _check_allocation(setup: MarketSetup, instance, allocation: Allocation) -> None:
    if allocation.demands is not instance.demands:
        raise MarketError("allocation was built for another instance")
    if setup.unit_costs is not instance.unit_costs and setup.unit_costs.tolist() != instance.unit_costs.tolist():
        raise MarketError("the setup does not match the instance's resource count and unit costs")


def social_welfare(setup: MarketSetup, instance, allocation: Allocation) -> float:
    """Total valuation of the served tenants minus operating costs.

    Payments are internal transfers between tenants and the operator, so any
    payment vector yields the same welfare.
    """
    _check_allocation(setup, instance, allocation)
    value = float(instance.valuations @ allocation.accepted.astype(float))
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
    valid = (payments >= 0) & (payments < math.inf)  # not negative, NaN or infinite
    if not valid.all():
        tenant = int(np.argmin(valid))
        raise PaymentError(f"tenant {tenant}: payment {float(payments[tenant])!r} is negative or not finite")
    stray = payments[~allocation.accepted]
    if (stray != 0).any():
        tenant = int(np.flatnonzero(~allocation.accepted)[np.argmax(stray != 0)])
        raise PaymentError(f"payment attached to rejected tenant {tenant}")
    tenant_utils = (instance.valuations - payments) * allocation.accepted
    operator = float(payments.sum() - setup.unit_costs @ allocation.utilization)
    return operator, tenant_utils
