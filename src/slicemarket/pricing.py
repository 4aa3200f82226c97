"""Threshold posted-price schedule for linear resource costs.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .market import CAPACITY, MarketSetup, SetupError, _readonly


@dataclass(frozen=True)
class PricingSchedule:
    """Immutable per-resource price curves plus the derived worst-case ratio."""

    unit_costs: np.ndarray
    price_floors: np.ndarray
    price_caps: np.ndarray
    thresholds: np.ndarray
    ratio: float

    def __post_init__(self):
        for name in ("unit_costs", "price_floors", "price_caps", "thresholds"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        # plain-float copies keep per-arrival price evaluation cheap
        object.__setattr__(self, "_q", tuple(self.unit_costs.tolist()))
        object.__setattr__(self, "_floor", tuple(self.price_floors.tolist()))
        object.__setattr__(self, "_w", tuple(self.thresholds.tolist()))

    @property
    def resource_count(self) -> int:
        return self.unit_costs.shape[0]

    def price_at(self, c: int, y: float) -> float:
        """Posted price of resource ``c`` at utilization ``y``.

        Flat at the floor below the threshold, exponential up to capacity;
        defined on ``[0, CAPACITY]``.
        """
        if not 0 <= c < self.resource_count:
            raise SetupError(f"resource index {c} out of range [0, {self.resource_count})")
        if not 0 <= y <= CAPACITY:
            raise SetupError(f"utilization must lie in [0, {CAPACITY}], got {y!r}")
        w = self._w[c]
        if y < w:
            return self._floor[c]
        q = self._q[c]
        return q + (self._floor[c] - q) * math.exp(y / w - 1.0)


def build_schedule(setup: MarketSetup) -> PricingSchedule:
    """Construct the threshold schedule for a valid market setup.

    The threshold of resource ``c`` is ``1 / (1 + ln(S / (floor_c - q_c)))``
    where ``S`` is the total price-cap headroom ``sum_c (cap_c - q_c)``; the
    preconditions guarantee every threshold lies in (0, 1].
    """
    setup.validate()
    spread = float(np.sum(setup.price_caps - setup.unit_costs))
    gaps = setup.price_floors - setup.unit_costs
    thresholds = 1.0 / (1.0 + np.log(spread / gaps))
    ratio = float(np.max(1.0 / thresholds))
    return PricingSchedule(
        unit_costs=setup.unit_costs,
        price_floors=setup.price_floors,
        price_caps=setup.price_caps,
        thresholds=thresholds,
        ratio=ratio,
    )
