"""Randomized tenant populations and market instances.

Tenants are service providers with a private subscriber base.  Each
subscriber sits at a quality tier; tier populations follow a pyramid (every
tier holds roughly half the users of the tier below) on top of a free tier,
and a subscriber at tier ``k`` pays ``pay_level * k``.  A tenant's valuation
is the tier-weighted sum of those payments.  Raw valuations are rescaled by
one global factor so the median earning density is 1, which leaves every
accept/reject decision and welfare ratio unchanged.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .market import MarketError, _readonly

MIN_DEMAND = 1e-6
#: Relative slack of the ``bundle-below-floor`` check: the tenant that sets
#: the bundle floor pays ``sum_c d_nc * floor_c`` equal to its valuation up to
#: the rounding of a C-term sum, a few ulps, never this much.
BUNDLE_FLOOR_RTOL = 1e-12
_MAX_RESAMPLE_ROUNDS = 1000
#: Highest allowed top tier.  The generator holds an N x (top tier) int64
#: matrix of tier counts, so this keeps it at 512 bytes a tenant.
MAX_TOP_TIER = 64
#: The instance's arrays and what their axes index.
_ARRAY_AXES = {
    "demands": ("tenant", "resource"),
    "valuations": ("tenant",),
    "price_floors": ("resource",),
    "price_caps": ("resource",),
    "unit_costs": ("resource",),
}


class WorkloadError(MarketError):
    """A generator configuration or generated instance is unusable."""


def _is_int(value) -> bool:
    """A Python or numpy integer; ``bool`` is not one."""
    # an exact ``int`` skips the ABC check; ``type(True)`` is ``bool``
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _is_finite(value) -> bool:
    """A finite Python or numpy real; ``bool`` is not one."""
    if type(value) is float:
        return math.isfinite(value)
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class GenConfig:
    """Knobs of the instance generator; defaults follow the benchmark workload.

    ``density_margin`` widens the posted band around the observed densities:
    every resource's floor is ``(1 - margin)`` times the lowest bundle density
    ``min_n v_n / sum_c d_nc`` (see :func:`bundle_floor`) and its cap is
    ``(1 + margin)`` times the highest density on that resource.  Unit costs
    are drawn as fractions ``unit_cost_range`` of the floor.
    """

    tenant_count: int = 100
    resource_count: int = 3
    demand_mean: float | None = None  # None: 1 / tenant_count
    demand_std: float | None = None  # None: 1 / tenant_count**2
    subscriber_mean: float = 1e6
    subscriber_std: float = 1e5
    pay_level_range: tuple[float, float] = (2.0, 6.0)
    top_tier_range: tuple[float, float] = (2.0, 6.0)
    free_user_fraction: float = 0.4
    tier_decay: float = 0.5
    unit_cost_range: tuple[float, float] = (1.0 / 6.0, 5.0 / 6.0)  # fractions of the floor
    density_margin: float = 0.0
    participation: float | None = None  # None: every tenant demands every resource
    seed: int = 0

    def __post_init__(self):
        if not (_is_int(self.tenant_count) and self.tenant_count >= 1):
            raise WorkloadError(f"tenant_count must be an integer of at least 1, got {self.tenant_count!r}")
        if not (_is_int(self.resource_count) and self.resource_count >= 1):
            raise WorkloadError(f"resource_count must be an integer of at least 1, got {self.resource_count!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise WorkloadError(f"seed must be a non-negative integer, got {self.seed!r}")
        optional = ("demand_mean", "demand_std", "participation")  # None picks the default
        required = ("subscriber_mean", "subscriber_std", "free_user_fraction", "tier_decay", "density_margin")
        for name in optional + required:
            value = getattr(self, name)
            if not (_is_finite(value) or (value is None and name in optional)):
                raise WorkloadError(f"{name} must be a finite number, got {value!r}")
        if self.demand_mean is not None and not self.demand_mean > 0:
            raise WorkloadError("demand_mean must be positive")
        if self.demand_std is not None and not self.demand_std >= 0:
            raise WorkloadError("demand_std must be non-negative")
        if not self.subscriber_std >= 0:
            raise WorkloadError("subscriber_std must be non-negative")
        if not 0 <= self.free_user_fraction < 1:
            raise WorkloadError("free_user_fraction must lie in [0, 1)")
        if not 0 < self.tier_decay < 1:
            raise WorkloadError("tier_decay must lie in (0, 1)")
        for name in ("pay_level_range", "top_tier_range", "unit_cost_range"):
            try:
                lo, hi = getattr(self, name)
            except (TypeError, ValueError):
                raise WorkloadError(f"{name} must be a (low, high) pair, got {getattr(self, name)!r}") from None
            if not (_is_finite(lo) and _is_finite(hi) and 0 < lo <= hi):
                raise WorkloadError(f"{name} must satisfy 0 < low <= high < inf")
        lo, hi = self.unit_cost_range
        if hi >= 1:
            raise WorkloadError("unit_cost_range must stay below 1 so costs stay below the floor")
        if self.top_tier_range[0] < 1:
            raise WorkloadError("top_tier_range must start at 1 or above")
        if self.top_tier_range[1] > MAX_TOP_TIER:
            raise WorkloadError(f"top_tier_range must end at {MAX_TOP_TIER} or below, got {self.top_tier_range[1]!r}")
        if not 0 <= self.density_margin < 1:
            raise WorkloadError("density_margin must lie in [0, 1)")
        if self.participation is not None and not 0 < self.participation <= 1:
            raise WorkloadError("participation must lie in (0, 1]")

    @property
    def resolved_demand_mean(self) -> float:
        return self.demand_mean if self.demand_mean is not None else 1.0 / self.tenant_count

    @property
    def resolved_demand_std(self) -> float:
        return self.demand_std if self.demand_std is not None else 1.0 / self.tenant_count**2

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "GenConfig":
        data = dict(data)
        for name in ("pay_level_range", "top_tier_range", "unit_cost_range"):
            # a JSON array becomes a pair; anything else reaches the pair check as is
            if isinstance(data.get(name), list):
                data[name] = tuple(data[name])
        return cls(**data)


@dataclass(frozen=True)
class Instance:
    """One market instance: public demands plus collapsed private valuations.

    The constructor is the one place tenant and market numbers are checked:
    there is at least one resource, every value is finite and every demand
    and valuation non-negative, else ``WorkloadError``.  Each array is a
    private read-only copy.  Market-level rules (bands, costs, bundle floors)
    are :func:`validate_instance`'s.
    """

    demands: np.ndarray  # (tenants, resources)
    valuations: np.ndarray  # (tenants,)
    price_floors: np.ndarray  # (resources,)
    price_caps: np.ndarray
    unit_costs: np.ndarray
    seed: int | None = None
    config: GenConfig | None = None

    def __post_init__(self):
        for name in _ARRAY_AXES:
            try:
                object.__setattr__(self, name, _readonly(getattr(self, name)))
            except (TypeError, ValueError) as exc:  # ragged or non-numeric
                raise WorkloadError(f"{name} is not a numeric array: {exc}") from exc
        if self.demands.ndim != 2:
            raise WorkloadError("demands must be a 2-D tenant-by-resource matrix")
        n, c = self.demands.shape
        if c == 0:
            raise WorkloadError("an instance needs at least one resource")
        if self.valuations.shape != (n,):
            raise WorkloadError("valuations must have one entry per tenant")
        for name in ("price_floors", "price_caps", "unit_costs"):
            if getattr(self, name).shape != (c,):
                raise WorkloadError(f"{name} must have one entry per resource")
        for name, axes in _ARRAY_AXES.items():
            values = getattr(self, name)
            if np.isfinite(values).all():
                continue
            bad = np.argwhere(~np.isfinite(values))
            index = tuple(map(int, bad[0]))
            place = ", ".join(f"{axis} {i}" for axis, i in zip(axes, index))
            first = float(values[index])
            raise WorkloadError(f"{name}: {len(bad)} non-finite value(s), first {first!r} at {place}")
        if (self.valuations < 0).any():
            tenant = int(np.argmax(self.valuations < 0))
            raise WorkloadError(f"tenant {tenant} has negative valuation {float(self.valuations[tenant])!r}")
        if (self.demands < 0).any():
            tenant, resource = map(int, np.argwhere(self.demands < 0)[0])
            demand = float(self.demands[tenant, resource])
            raise WorkloadError(f"tenant {tenant} has negative demand {demand!r} of resource {resource}")

    @property
    def tenant_count(self) -> int:
        return self.demands.shape[0]

    @property
    def resource_count(self) -> int:
        return self.demands.shape[1]

    def densities(self) -> np.ndarray:
        """Earning density per tenant and resource; NaN where nothing is demanded."""
        return np.divide(
            self.valuations[:, None], self.demands, out=np.full(self.demands.shape, np.nan), where=self.demands > 0
        )

    def to_dict(self) -> dict:
        return {
            "demands": self.demands.tolist(),
            "valuations": self.valuations.tolist(),
            "bounds": {
                "lower": self.price_floors.tolist(),
                "upper": self.price_caps.tolist(),
            },
            "costs": self.unit_costs.tolist(),
            "seed": self.seed,
            "config": self.config.to_dict() if self.config is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Instance":
        """The instance a JSON document describes; a malformed one raises ``WorkloadError``.

        Every array entry must be a JSON number: a string or a boolean is
        refused here, where ``np.array(..., dtype=float)`` would convert it.
        An empty ``demands`` list is the (0, C) matrix :meth:`to_dict` writes
        for a market without tenants, with C the length of ``bounds.lower``.
        """
        if not isinstance(data, dict):
            raise WorkloadError(f"an instance document must be an object, got {type(data).__name__}")
        try:
            arrays = {
                "demands": data["demands"],
                "valuations": data["valuations"],
                "bounds.lower": data["bounds"]["lower"],
                "bounds.upper": data["bounds"]["upper"],
                "costs": data["costs"],
            }
            for key, value in arrays.items():
                _reject_non_numbers(key, value)
            demands = arrays["demands"]
            if isinstance(demands, list) and not demands:
                demands = np.empty((0, len(arrays["bounds.lower"])))
            config = data.get("config")
            return cls(
                demands=demands,
                valuations=arrays["valuations"],
                price_floors=arrays["bounds.lower"],
                price_caps=arrays["bounds.upper"],
                unit_costs=arrays["costs"],
                seed=data.get("seed"),
                config=GenConfig.from_dict(config) if config else None,
            )
        except KeyError as exc:
            raise WorkloadError(f"instance document lacks the key {exc}") from exc
        except (TypeError, ValueError) as exc:  # a misshapen document, unknown config keys
            raise WorkloadError(f"malformed instance document: {exc}") from exc

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict()) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Instance":
        return _load_json(path, cls.from_dict, WorkloadError, "instance")


def _load_json(path: str | Path, from_dict, error: type[MarketError], kind: str):
    """``from_dict`` of the JSON file at ``path``; an ``OSError`` propagates.

    Text that is not UTF-8 or not JSON, and a ``MarketError`` of
    ``from_dict``, raise ``error`` naming the invalid ``kind`` file."""
    try:
        return from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except UnicodeDecodeError as exc:
        raise error(f"invalid {kind} file {path}: not UTF-8 text: {exc}") from exc
    except (json.JSONDecodeError, MarketError) as exc:
        raise error(f"invalid {kind} file {path}: {exc}") from exc


def _reject_non_numbers(key: str, value) -> None:
    """Refuse a JSON string or boolean anywhere in the (nested) array ``value``."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif isinstance(item, (str, bool)):
            raise WorkloadError(f"{key} holds {item!r}, which is not a number")


@dataclass(frozen=True)
class Violation:
    """One breached instance invariant, naming the offending tenant/resource."""

    code: str
    message: str
    tenant: int | None = None
    resource: int | None = None

    def __str__(self):
        return self.message


def bundle_floor(demands: np.ndarray, valuations: np.ndarray, margin: float = 0.0) -> float:
    """Lowest bundle density ``min_n v_n / sum_c d_nc``, lowered by ``margin``.

    Posted as the floor of every resource, it prices every tenant's whole
    demand bundle at or below its valuation, ``sum_c d_nc * floor <= v_n``,
    the premise of the schedule's worst-case ratio (see :mod:`.pricing`).  A
    floor per resource at that resource's lowest density would not: with two
    or more resources a tenant could meet each one and still be unable to pay
    the sum.  With one resource the two floors are equal bit for bit.
    """
    return (1.0 - margin) * float(np.min(valuations / demands.sum(axis=1)))


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty, NaN-free 1-D array, bit for bit: the
    middle entry of the sorted values, or the mean of the two middle ones."""
    ordered = np.sort(values)
    mid = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[mid])
    return (float(ordered[mid - 1]) + float(ordered[mid])) / 2


def _sample_demands(config: GenConfig, rng: np.random.Generator) -> np.ndarray:
    n, c = config.tenant_count, config.resource_count
    if config.participation is None:
        active = np.ones((n, c), dtype=bool)
    else:
        active = rng.random((n, c)) < config.participation
        for _ in range(_MAX_RESAMPLE_ROUNDS):
            empty = ~active.any(axis=1)
            if not empty.any():
                break
            active[empty] = rng.random((int(empty.sum()), c)) < config.participation
        else:
            # forcing one resource keeps a pathological participation usable
            empty = ~active.any(axis=1)
            active[empty, 0] = True
    demands = rng.normal(config.resolved_demand_mean, config.resolved_demand_std, size=(n, c))
    for _ in range(_MAX_RESAMPLE_ROUNDS):
        bad = active & (demands <= MIN_DEMAND)
        if not bad.any():
            break
        demands[bad] = rng.normal(config.resolved_demand_mean, config.resolved_demand_std, size=int(bad.sum()))
    else:
        raise WorkloadError("demand resampling failed; demand_mean is too close to zero")
    demands[~active] = 0.0
    return demands


def _sample_tenants(
    config: GenConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The private valuation model: each tenant's subscribers, free count, tier
    counts, pay level and raw valuation, as five arrays over the tenants.

    A tenant has a normally drawn number of subscribers (at least one).  A
    binomial share ``free_user_fraction`` of them sits in the free tier and
    pays nothing, redrawn until at least one subscriber pays.  The paying
    subscribers fill tiers ``1..K`` by one multinomial with weights
    ``tier_decay**k``, a pyramid in which each tier holds about
    ``tier_decay`` times the users of the tier below; the top tier ``K`` is
    drawn from ``top_tier_range`` and rounded up.  A subscriber at tier ``k``
    pays ``pay_level * k`` and is weighted by ``k``, with the pay level drawn
    from ``pay_level_range``.  Only the raw valuation leaves the generator,
    rescaled into the instance.
    """
    n = config.tenant_count
    subscribers = np.rint(rng.normal(config.subscriber_mean, config.subscriber_std, size=n))
    subscribers = np.maximum(subscribers, 1.0).astype(np.int64)

    pay_levels = rng.uniform(*config.pay_level_range, size=n)
    top_tiers = np.ceil(rng.uniform(*config.top_tier_range, size=n)).astype(np.int64)

    free = rng.binomial(subscribers, config.free_user_fraction)
    # a tenant with zero paying subscribers has zero valuation and would
    # collapse the density floor; redraw its free count
    for _ in range(_MAX_RESAMPLE_ROUNDS):
        stuck = free >= subscribers
        if not stuck.any():
            break
        free[stuck] = rng.binomial(subscribers[stuck], config.free_user_fraction)
    else:
        stuck = free >= subscribers
        free[stuck] = subscribers[stuck] - 1
    paying = subscribers - free

    # one multinomial per top tier, in ascending tier order and tenant order
    # within a tier: a stable sort by top tier makes each tier's tenants one
    # slice, scattered back afterwards; a prefix of the decay powers is bit
    # for bit the power vector of that tier
    decay = config.tier_decay ** np.arange(1, int(top_tiers.max()) + 1)
    by_tier = np.argsort(top_tiers, kind="stable")
    grouped_paying = paying[by_tier]
    grouped = np.zeros((n, decay.size), dtype=np.int64)
    start = 0
    for tiers, size in enumerate(np.bincount(top_tiers).tolist()):
        if size:
            weights = decay[:tiers] / decay[:tiers].sum()
            grouped[start : start + size, :tiers] = rng.multinomial(grouped_paying[start : start + size], weights)
            start += size
    tier_counts = np.empty_like(grouped)
    tier_counts[by_tier] = grouped

    tiers = np.arange(1, tier_counts.shape[1] + 1)
    # subscriber at tier k pays pay_level * k and is weighted by its tier; every
    # tenant has a paying subscriber, so raw >= pay_level > 0
    raw = pay_levels * (tier_counts @ (tiers**2))
    return subscribers, free, tier_counts, pay_levels, raw


def generate_instance(config: GenConfig) -> Instance:
    """Sample a market instance; identical (config, seed) gives identical output.

    Every resource's floor is the :func:`bundle_floor` of the sample, so every
    tenant can pay its bundle at the floor prices.  The tenants' private
    records stay inside this pass: only their collapsed valuations reach the
    instance.
    """
    rng = np.random.default_rng(config.seed)
    demands = _sample_demands(config, rng)
    raw_valuations = _sample_tenants(config, rng)[-1]

    demanded = demands > 0
    rows, _ = np.nonzero(demanded)
    scale = _median(raw_valuations[rows] / demands[demanded])
    if not scale > 0:
        raise WorkloadError("degenerate configuration: median earning density is not positive")
    valuations = raw_valuations / scale

    # each resource's cap is its highest density, or the highest of all on a
    # resource nobody demands; generated densities are finite, so -inf marks
    # exactly the undemanded entries
    highs = np.divide(valuations[:, None], demands, out=np.full(demands.shape, -np.inf), where=demanded).max(axis=0)
    highs[highs == -np.inf] = highs.max()
    caps = (1.0 + config.density_margin) * highs
    floors = np.full(config.resource_count, bundle_floor(demands, valuations, config.density_margin))
    lo, hi = config.unit_cost_range
    unit_costs = floors * rng.uniform(lo, hi, size=config.resource_count)

    instance = Instance(
        demands=demands,
        valuations=valuations,
        price_floors=floors,
        price_caps=caps,
        unit_costs=unit_costs,
        seed=config.seed,
        config=config,
    )
    problems = validate_instance(instance)
    if problems:
        raise WorkloadError(f"generated instance violates its invariants: {problems[0]}")
    return instance


def validate_instance(instance: Instance) -> list[Violation]:
    """Collect every breached market-level invariant; an empty list means the
    instance is sound.  Finite values and non-negative tenant data are already
    guaranteed by the ``Instance`` constructor.

    Each rule is one array comparison; only the violating entries are
    visited, to write their messages: per resource the band and cost rules,
    then each tenant's bundle at the floors, then each demanded (tenant,
    resource) density against the band, in row-major order.
    """
    violations: list[Violation] = []
    floors, caps, costs = instance.price_floors, instance.price_caps, instance.unit_costs
    crossed, cost_not_positive, cost_at_floor = ~(floors <= caps), ~(costs > 0), ~(costs < floors)
    for c in np.flatnonzero(crossed | cost_not_positive | cost_at_floor).tolist():
        lo, hi, q = floors[c], caps[c], costs[c]
        if crossed[c]:
            violations.append(
                Violation("bounds-crossed", f"resource {c}: floor {lo!r} above cap {hi!r}", resource=c)
            )
        if cost_not_positive[c]:
            violations.append(Violation("cost-not-positive", f"resource {c}: 0 < q_c violated (q={q!r})", resource=c))
        if cost_at_floor[c]:
            violations.append(
                Violation("cost-at-floor", f"resource {c}: q_c < floor violated (q={q!r}, floor={lo!r})", resource=c)
            )
    floor_bundles = instance.demands @ floors
    for n in np.flatnonzero(instance.valuations < floor_bundles * (1.0 - BUNDLE_FLOOR_RTOL)).tolist():
        violations.append(
            Violation(
                "bundle-below-floor",
                f"tenant {n}: valuation {instance.valuations[n]!r} below its bundle at the floors "
                f"{floor_bundles[n]!r}",
                n,
            )
        )
    densities = instance.densities()  # NaN where nothing is demanded, which compares False
    below = densities < floors
    above = densities > caps
    for n, c in zip(*(axis.tolist() for axis in np.nonzero(below | above))):
        e = densities[n, c]
        if below[n, c]:
            violations.append(
                Violation(
                    "density-below-floor",
                    f"tenant {n} resource {c}: density {e!r} below floor {floors[c]!r}",
                    n,
                    c,
                )
            )
        else:
            violations.append(
                Violation(
                    "density-above-cap",
                    f"tenant {n} resource {c}: density {e!r} above cap {caps[c]!r}",
                    n,
                    c,
                )
            )
    return violations
