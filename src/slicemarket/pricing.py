"""Posted-price schedules: the threshold schedule and the myopic ramp.

Each resource sells at its floor price until utilization reaches a
per-resource threshold, then at an exponentially increasing price that hits
the worst-case terminal price exactly at full capacity.  The reciprocal of
the smallest threshold is the worst-case ratio of offline-optimal welfare to
the welfare this schedule achieves online.

The ratio's premise is that the floors and caps bound every admissible
tenant: each one can pay its whole demand bundle at the floor prices,
``v_n >= sum_c d_nc * floor_c``, and earns at most ``cap_c`` per unit of any
resource ``c`` it demands.  The generator's bundle floor provides the first
(``workload.bundle_floor``; ``validate_instance`` reports a tenant without it
as ``bundle-below-floor``).  Per-resource floors ``v_n >= d_nc * floor_c``
alone do not: with several resources a market of tenants that cannot pay
their floor bundles stalls below every threshold and can exceed the ratio.
The second premise, as in the threshold analyses, is that every demand is a
small share of capacity.  No check provides it: generated markets that pass
``validate_instance`` with demands of 0.65 to 0.82 of capacity exceed the
ratio by up to 46 % in their worst order (``tests/test_worst_order.py``).

A schedule answers two questions with one formula.  ``price_at(c, y)`` is
the price of one resource; ``quote(utilization)`` is the whole price tuple at
a utilization vector, the one call the session engine makes at the start of
a session and after each sale.  Both refuse a utilization outside
``[0, CAPACITY]``, NaN included, with ``SetupError``; ``quote`` checks each
value as it prices it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .market import CAPACITY, MarketSetup, SetupError, _readonly


@dataclass(frozen=True)
class PricingSchedule:
    """Immutable price curves of one market setup and its worst-case ratio.

    The threshold of resource ``c`` is ``w_c = 1 / (1 + ln(S / (floor_c - q_c)))``,
    ``S`` the total price-cap headroom ``sum_c (cap_c - q_c)``, and ``ratio`` is
    ``max_c 1 / w_c``.  The band the ``MarketSetup`` constructor checked puts
    every threshold in (0, 1].  The headroom sum and the logarithm run in
    numpy, the rest as the same float arithmetic on plain floats.
    """

    setup: MarketSetup
    thresholds: np.ndarray = field(init=False)
    ratio: float = field(init=False)

    def __post_init__(self):
        setup = self.setup
        spread = float((setup.price_caps - setup.unit_costs).sum())
        logs = np.log(spread / (setup.price_floors - setup.unit_costs)).tolist()
        w = tuple([1.0 / (1.0 + x) for x in logs])
        object.__setattr__(self, "thresholds", _readonly(w))
        object.__setattr__(self, "ratio", max([1.0 / x for x in w]))
        # plain-float copies keep per-arrival price evaluation cheap
        object.__setattr__(self, "_q", tuple(setup.unit_costs.tolist()))
        object.__setattr__(self, "_floor", tuple(setup.price_floors.tolist()))
        object.__setattr__(self, "_w", w)

    def price_at(self, c: int, y: float) -> float:
        """Posted price of resource ``c`` at utilization ``y``.

        Flat at the floor up to and including the threshold, exponential
        above it up to capacity; defined on ``[0, CAPACITY]``.
        """
        if not 0 <= c < len(self._w):
            raise SetupError(f"resource index {c} out of range [0, {len(self._w)})")
        return _threshold_price(self._q[c], self._floor[c], self._w[c], y)

    def quote(self, utilization) -> tuple[float, ...]:
        """The posted prices of every resource at ``utilization``, one per
        resource: ``price_at(c, utilization[c])`` for each ``c``."""
        if len(utilization) != len(self._w):
            raise SetupError(f"a quote needs {len(self._w)} utilizations, got {len(utilization)}")
        return tuple(map(_threshold_price, self._q, self._floor, self._w, utilization))


def _threshold_price(q: float, floor: float, w: float, y: float) -> float:
    # the schedule's one formula, behind both price_at and quote; at y == w the
    # exponential branch, q + (floor - q) * exp(0.0), can round one ulp below
    # the floor, so the threshold itself takes the flat branch
    if not 0 <= y <= CAPACITY:
        raise SetupError(f"utilization must lie in [0, {CAPACITY}], got {y!r}")
    if y <= w:
        return floor
    return q + (floor - q) * math.exp(y / w - 1.0)


def build_schedule(setup: MarketSetup) -> PricingSchedule:
    """The threshold schedule of a market setup."""
    return PricingSchedule(setup)


@dataclass(frozen=True)
class MyopicPricing:
    """Linear price ramp from zero to the band midpoint ``(floor_c + cap_c) / 2``
    at full capacity; like the threshold schedule, defined on ``[0, CAPACITY]``."""

    setup: MarketSetup = field(compare=False)  # ramps compare and hash by their slopes
    slopes: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        slopes = tuple(float((lo + hi) / 2) for lo, hi in zip(self.setup.price_floors, self.setup.price_caps))
        object.__setattr__(self, "slopes", slopes)

    def price_at(self, c: int, y: float) -> float:
        if not 0 <= c < len(self.slopes):
            raise SetupError(f"resource index {c} out of range [0, {len(self.slopes)})")
        return _ramp_price(self.slopes[c], y)

    def quote(self, utilization) -> tuple[float, ...]:
        """``price_at(c, utilization[c])`` for every resource ``c``."""
        if len(utilization) != len(self.slopes):
            raise SetupError(f"a quote needs {len(self.slopes)} utilizations, got {len(utilization)}")
        return tuple(map(_ramp_price, self.slopes, utilization))


def _ramp_price(slope: float, y: float) -> float:
    # the ramp's one formula, behind both price_at and quote
    if not 0 <= y <= CAPACITY:
        raise SetupError(f"utilization must lie in [0, {CAPACITY}], got {y!r}")
    return slope * y
