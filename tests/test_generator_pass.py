"""Differential test: the vectorised generator pass against the per-tenant code.

The ``_reference_*`` functions are the generator as it was before it became
one vectorised pass: per-tenant ``TenantPrivate`` records built inside the
sampler, a per-column loop in ``derive_bounds``, a NaN-matrix median and a
per-entry loop in ``validate_instance``.  The pass must reproduce them bit
for bit: the five ``Instance`` arrays byte for byte, every private record
field for field, and every violation list in order.
"""

import math

import numpy as np
import pytest

from slicemarket.verify import _random_config
from slicemarket.workload import (
    BUNDLE_FLOOR_RTOL,
    MIN_DEMAND,
    GenConfig,
    Instance,
    TenantPrivate,
    Violation,
    WorkloadError,
    _MAX_RESAMPLE_ROUNDS,
    _sample_demands,
    bundle_floor,
    derive_bounds,
    generate_instance,
    generate_population,
    validate_instance,
)

ARRAYS = ("demands", "valuations", "price_floors", "price_caps", "unit_costs")


def _reference_derive_bounds(densities, margin=0.0):
    densities = np.asarray(densities, dtype=float)
    if densities.ndim == 1:
        densities = densities[:, None]
    valid = ~np.isnan(densities)
    if not valid.any():
        raise WorkloadError("cannot derive bounds: no positive density anywhere")
    global_min = float(np.nanmin(densities))
    global_max = float(np.nanmax(densities))
    floors = np.empty(densities.shape[1])
    caps = np.empty(densities.shape[1])
    for c in range(densities.shape[1]):
        col = densities[valid[:, c], c]
        if col.size:
            floors[c] = (1.0 - margin) * float(col.min())
            caps[c] = (1.0 + margin) * float(col.max())
        else:
            floors[c] = (1.0 - margin) * global_min
            caps[c] = (1.0 + margin) * global_max
    return floors, caps


def _reference_sample_tenants(config, rng, payment_fn):
    n = config.tenant_count
    subscribers = np.rint(rng.normal(config.subscriber_mean, config.subscriber_std, size=n))
    subscribers = np.maximum(subscribers, 1.0).astype(np.int64)

    pay_levels = rng.uniform(*config.pay_level_range, size=n)
    top_tiers = np.ceil(rng.uniform(*config.top_tier_range, size=n)).astype(np.int64)

    free = rng.binomial(subscribers, config.free_user_fraction)
    for _ in range(_MAX_RESAMPLE_ROUNDS):
        stuck = free >= subscribers
        if not stuck.any():
            break
        free[stuck] = rng.binomial(subscribers[stuck], config.free_user_fraction)
    else:
        stuck = free >= subscribers
        free[stuck] = subscribers[stuck] - 1
    paying = subscribers - free

    tier_counts = np.zeros((n, int(top_tiers.max())), dtype=np.int64)
    for tiers in np.unique(top_tiers):
        rows = np.flatnonzero(top_tiers == tiers)
        weights = config.tier_decay ** np.arange(1, tiers + 1)
        weights /= weights.sum()
        tier_counts[rows, :tiers] = rng.multinomial(paying[rows], weights)

    tiers = np.arange(1, tier_counts.shape[1] + 1)
    if payment_fn is None:
        raw = pay_levels * (tier_counts @ (tiers**2))
    else:
        raw = np.array(
            [
                sum(k * count * payment_fn(pay_levels[i] * k) for k, count in zip(tiers, tier_counts[i]))
                for i in range(n)
            ],
            dtype=float,
        )
    if not (raw > 0).all():
        raise WorkloadError("degenerate payment function: some tenant has non-positive valuation")

    privates = [
        TenantPrivate(
            subscriber_count=int(subscribers[i]),
            free_count=int(free[i]),
            tier_counts=tuple(int(v) for v in tier_counts[i]),
            pay_level=float(pay_levels[i]),
            raw_valuation=float(raw[i]),
        )
        for i in range(n)
    ]
    return raw, privates


def _reference_population(config, payment_fn=None):
    rng = np.random.default_rng(config.seed)
    demands = _sample_demands(config, rng)
    raw_valuations, privates = _reference_sample_tenants(config, rng, payment_fn)

    with np.errstate(divide="ignore", invalid="ignore"):
        raw_densities = np.where(demands > 0, raw_valuations[:, None] / demands, np.nan)
    scale = float(np.nanmedian(raw_densities))
    if not scale > 0:
        raise WorkloadError("degenerate configuration: median earning density is not positive")
    valuations = raw_valuations / scale

    with np.errstate(divide="ignore", invalid="ignore"):
        densities = np.where(demands > 0, valuations[:, None] / demands, np.nan)
    _, caps = _reference_derive_bounds(densities, config.density_margin)
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
    problems = _reference_validate(instance)
    if problems:
        raise WorkloadError(f"generated instance violates its invariants: {problems[0]}")
    return instance, privates


def _reference_validate(instance):
    violations = []
    for c in range(instance.resource_count):
        lo, hi, q = instance.price_floors[c], instance.price_caps[c], instance.unit_costs[c]
        if not lo <= hi:
            violations.append(
                Violation("bounds-crossed", f"resource {c}: floor {lo!r} above cap {hi!r}", resource=c)
            )
        if not q > 0:
            violations.append(Violation("cost-not-positive", f"resource {c}: 0 < q_c violated (q={q!r})", resource=c))
        if not q < lo:
            violations.append(
                Violation("cost-at-floor", f"resource {c}: q_c < floor violated (q={q!r}, floor={lo!r})", resource=c)
            )
    floor_bundles = instance.demands @ instance.price_floors
    for n in np.flatnonzero(instance.valuations < floor_bundles * (1.0 - BUNDLE_FLOOR_RTOL)):
        violations.append(
            Violation(
                "bundle-below-floor",
                f"tenant {int(n)}: valuation {instance.valuations[n]!r} below its bundle at the floors "
                f"{floor_bundles[n]!r}",
                int(n),
            )
        )
    densities = instance.densities()
    for n, c in zip(*np.nonzero(instance.demands > 0)):
        e = densities[n, c]
        if e < instance.price_floors[c]:
            violations.append(
                Violation(
                    "density-below-floor",
                    f"tenant {int(n)} resource {int(c)}: density {e!r} below floor {instance.price_floors[c]!r}",
                    int(n),
                    int(c),
                )
            )
        elif e > instance.price_caps[c]:
            violations.append(
                Violation(
                    "density-above-cap",
                    f"tenant {int(n)} resource {int(c)}: density {e!r} above cap {instance.price_caps[c]!r}",
                    int(n),
                    int(c),
                )
            )
    return violations


def _violation_fields(violations):
    return [(v.code, v.message, v.tenant, v.resource, type(v.tenant), type(v.resource)) for v in violations]


def assert_same_arrays(got: Instance, want: Instance) -> None:
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert (got.seed, got.config) == (want.seed, want.config)


def assert_same_generation(config: GenConfig, payment_fn=None) -> None:
    want, want_privates = _reference_population(config, payment_fn)
    got, got_privates = generate_population(config, payment_fn)
    assert_same_arrays(got, want)
    assert_same_arrays(generate_instance(config, payment_fn), want)
    # repr pins each field's type and every float's bits, == the values
    assert got_privates == want_privates
    assert repr(got_privates) == repr(want_privates)
    assert validate_instance(got) == _reference_validate(want) == []


def test_random_verify_configs():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        assert_same_generation(_random_config(rng))


@pytest.mark.parametrize("tenants", [1, 2, 100, 2000])
@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"participation": 0.3, "resource_count": 5},
        {"demand_mean": 0.5, "demand_std": 0.2},
        {"demand_mean": 2.0, "demand_std": 1.0, "participation": 0.6},
        {"density_margin": 0.1, "resource_count": 4},
        {"top_tier_range": (1.0, 9.0), "tier_decay": 0.8},
        {"subscriber_mean": 3.0, "subscriber_std": 2.0, "free_user_fraction": 0.9},
    ],
    ids=["default", "sparse", "demand 0.5", "demand 2 sparse", "margin 0.1", "deep tiers", "tiny pools"],
)
def test_sized_configs(tenants, overrides):
    for seed in (0, 1, 2):
        assert_same_generation(GenConfig(tenant_count=tenants, seed=seed, **overrides))


@pytest.mark.parametrize("tenants", [1, 2, 100])
def test_payment_function_path(tenants):
    for seed in range(3):
        config = GenConfig(tenant_count=tenants, resource_count=2, density_margin=0.1, seed=seed)
        assert_same_generation(config, payment_fn=math.sqrt)
        assert_same_generation(config, payment_fn=lambda p: p * p - 1.0)


def test_degenerate_payment_function_fails_alike():
    config = GenConfig(tenant_count=4, seed=3)
    for sample in (_reference_population, generate_population):
        with pytest.raises(WorkloadError, match="degenerate payment function"):
            sample(config, lambda p: 0.0)


def _doctored(rng: np.random.Generator) -> Instance:
    """A generated market with its band, costs and valuations knocked about."""
    config = _random_config(rng)
    inst = generate_instance(config)
    n, c = inst.demands.shape
    demands = inst.demands.copy()
    demands[rng.random((n, c)) < 0.2] = 0.0  # a few undemanded entries
    valuations = inst.valuations * rng.choice([0.5, 1.0, 1.0, 3.0], size=n)
    floors = inst.price_floors * rng.choice([0.5, 1.0, 2.0], size=c)
    caps = np.where(rng.random(c) < 0.3, floors * 0.5, inst.price_caps * rng.choice([0.5, 1.0], size=c))
    costs = floors * rng.choice([-0.5, 0.0, 0.5, 1.0, 2.0], size=c)
    return Instance(demands, valuations, floors, caps, costs)


def test_violation_lists_match_on_doctored_instances():
    rng = np.random.default_rng(99)
    codes = set()
    for _ in range(300):
        inst = _doctored(rng)
        want = _reference_validate(inst)
        assert _violation_fields(validate_instance(inst)) == _violation_fields(want)
        codes.update(v.code for v in want)
    # every rule tripped somewhere
    assert codes == {
        "bounds-crossed", "cost-not-positive", "cost-at-floor",
        "bundle-below-floor", "density-below-floor", "density-above-cap",
    }


def test_violation_list_on_a_market_breaking_every_rule():
    demands = np.array([[0.2, 0.1, 0.0], [0.1, 0.2, 0.3], [0.0, 0.0, 0.4], [0.3, 0.3, 0.3]])
    valuations = np.array([1.0, 0.01, 9.0, 0.5])
    floors = np.array([2.0, 1.0, 1.0])
    caps = np.array([1.0, 3.0, 5.0])  # resource 0 crossed
    costs = np.array([-1.0, 1.0, 0.0])  # cost <= 0 on 0 and 2, cost at the floor on 1
    inst = Instance(demands, valuations, floors, caps, costs)
    want = _reference_validate(inst)
    assert _violation_fields(validate_instance(inst)) == _violation_fields(want)
    assert [(v.code, v.tenant, v.resource) for v in want] == [
        ("bounds-crossed", None, 0),
        ("cost-not-positive", None, 0),
        ("cost-at-floor", None, 1),
        ("cost-not-positive", None, 2),
        ("bundle-below-floor", 1, None),
        ("bundle-below-floor", 3, None),
        ("density-above-cap", 0, 0),
        ("density-above-cap", 0, 1),
        ("density-below-floor", 1, 0),
        ("density-below-floor", 1, 1),
        ("density-below-floor", 1, 2),
        ("density-above-cap", 2, 2),
        ("density-below-floor", 3, 0),  # below the floor and above the cap: the floor rule wins
    ]


@pytest.mark.parametrize(
    "densities",
    [
        np.array([3.0, 1.5, np.nan, 2.0]),
        np.array([[2.0, np.nan, 4.0], [np.nan, np.nan, 1.0], [5.0, np.nan, np.nan]]),
        np.array([[np.nan, 0.5], [np.nan, 7.0]]),
        np.array([[1.0, np.inf], [np.nan, 2.0]]),
        np.array([[MIN_DEMAND]]),
    ],
    ids=["1-D", "all-NaN middle column", "all-NaN first column", "infinite density", "single entry"],
)
@pytest.mark.parametrize("margin", [0.0, 0.1])
def test_derive_bounds_matches(densities, margin):
    got, want = derive_bounds(densities, margin), _reference_derive_bounds(densities, margin)
    for a, b in zip(got, want):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("densities", [np.full((3, 2), np.nan), np.full(4, np.nan), np.empty((0, 3))])
def test_derive_bounds_without_any_density_raises(densities):
    for bounds in (_reference_derive_bounds, derive_bounds):
        with pytest.raises(WorkloadError, match="no positive density"):
            bounds(densities)
