"""Differential test: the vectorised generator pass against the per-tenant code.

The ``_reference_*`` functions are the generator as it was before it became
one vectorised pass: per-tenant ``TenantPrivate`` records built inside the
sampler, one ``flatnonzero`` gather per top tier for the multinomials, the
per-column loop of ``conftest.derive_bounds`` for the caps, a NaN-matrix
``np.nanmedian``, the ``errstate``/``where`` densities and a per-entry loop in
``validate_instance``.  The pass (grouped multinomials over a stable sort by
top tier, a sort-based median, one masked column max for the caps) must
reproduce them bit for bit: the five ``Instance`` arrays byte for byte, the
tenant arrays of ``_sample_tenants`` against the private records field for
field, and every violation list in order.  The reference reads the valuation
model's constants from the ``workload`` module at call time, so a test that
patches them changes both sides.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from slicemarket import workload
from slicemarket.verify import _random_config
from slicemarket.workload import (
    BUNDLE_FLOOR_RTOL,
    MIN_DEMAND,
    GenConfig,
    Instance,
    Violation,
    WorkloadError,
    _MAX_RESAMPLE_ROUNDS,
    _median,
    _sample_demands,
    bundle_floor,
    generate_instance,
    validate_instance,
)

from conftest import derive_bounds, private_arrays

ARRAYS = ("demands", "valuations", "price_floors", "price_caps", "unit_costs")


@dataclass(frozen=True)
class TenantPrivate:
    """Private valuation internals of one tenant.  Never enters the protocol."""

    subscriber_count: int
    free_count: int
    tier_counts: tuple[int, ...]  # paying subscribers at tier k = index + 1
    pay_level: float
    raw_valuation: float


def _records(arrays) -> list[TenantPrivate]:
    """The generator's tenant arrays as one private record per tenant."""
    return [
        TenantPrivate(subscriber_count, free_count, tuple(counts), pay_level, raw_valuation)
        for subscriber_count, free_count, counts, pay_level, raw_valuation in zip(*(a.tolist() for a in arrays))
    ]


def _reference_sample_tenants(config, rng):
    n = config.tenant_count
    subscribers = np.rint(rng.normal(workload.SUBSCRIBER_MEAN, workload.SUBSCRIBER_STD, size=n))
    subscribers = np.maximum(subscribers, 1.0).astype(np.int64)

    pay_levels = rng.uniform(*config.pay_level_range, size=n)
    top_tiers = np.ceil(rng.uniform(*workload.TOP_TIER_RANGE, size=n)).astype(np.int64)

    free = rng.binomial(subscribers, workload.FREE_USER_FRACTION)
    for _ in range(_MAX_RESAMPLE_ROUNDS):
        stuck = free >= subscribers
        if not stuck.any():
            break
        free[stuck] = rng.binomial(subscribers[stuck], workload.FREE_USER_FRACTION)
    else:
        stuck = free >= subscribers
        free[stuck] = subscribers[stuck] - 1
    paying = subscribers - free

    tier_counts = np.zeros((n, int(top_tiers.max())), dtype=np.int64)
    for tiers in np.unique(top_tiers):
        rows = np.flatnonzero(top_tiers == tiers)
        weights = workload.TIER_DECAY ** np.arange(1, tiers + 1)
        weights /= weights.sum()
        tier_counts[rows, :tiers] = rng.multinomial(paying[rows], weights)

    tiers = np.arange(1, tier_counts.shape[1] + 1)
    raw = pay_levels * (tier_counts @ (tiers**2))

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


def _reference_population(config):
    rng = np.random.default_rng(config.seed)
    demands = _sample_demands(config, rng)
    raw_valuations, privates = _reference_sample_tenants(config, rng)

    with np.errstate(divide="ignore", invalid="ignore"):
        raw_densities = np.where(demands > 0, raw_valuations[:, None] / demands, np.nan)
    scale = float(np.nanmedian(raw_densities))
    if not scale > 0:
        raise WorkloadError("degenerate configuration: median earning density is not positive")
    valuations = raw_valuations / scale

    with np.errstate(divide="ignore", invalid="ignore"):
        densities = np.where(demands > 0, valuations[:, None] / demands, np.nan)
    _, caps = derive_bounds(densities, config.density_margin)
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
    # numbers are spelled as Python floats: ``repr(1.0)``, not ``np.float64(1.0)``
    violations = []
    for c in range(instance.resource_count):
        lo, hi, q = float(instance.price_floors[c]), float(instance.price_caps[c]), float(instance.unit_costs[c])
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
                f"tenant {int(n)}: valuation {float(instance.valuations[n])!r} below its bundle at the floors "
                f"{float(floor_bundles[n])!r}",
                int(n),
            )
        )
    densities = _reference_densities(instance)
    for n, c in zip(*np.nonzero(instance.demands > 0)):
        e = float(densities[n, c])
        if e < instance.price_floors[c]:
            violations.append(
                Violation(
                    "density-below-floor",
                    f"tenant {int(n)} resource {int(c)}: density {e!r} below floor {float(instance.price_floors[c])!r}",
                    int(n),
                    int(c),
                )
            )
        elif e > instance.price_caps[c]:
            violations.append(
                Violation(
                    "density-above-cap",
                    f"tenant {int(n)} resource {int(c)}: density {e!r} above cap {float(instance.price_caps[c])!r}",
                    int(n),
                    int(c),
                )
            )
    return violations


def _reference_densities(instance):
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = instance.valuations[:, None] / instance.demands
    return np.where(instance.demands > 0, dens, np.nan)


def _violation_fields(violations):
    return [(v.code, v.message, v.tenant, v.resource, type(v.tenant), type(v.resource)) for v in violations]


def assert_same_arrays(got: Instance, want: Instance) -> None:
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert (got.seed, got.config) == (want.seed, want.config)


def assert_same_generation(config: GenConfig) -> None:
    want, want_privates = _reference_population(config)
    got = generate_instance(config)
    got_privates = _records(private_arrays(config))
    assert_same_arrays(got, want)
    assert got.densities().tobytes() == _reference_densities(want).tobytes()
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
        # upper-case keys patch the valuation model's constants
        {"TOP_TIER_RANGE": (1.0, 9.0), "TIER_DECAY": 0.8},
        {"SUBSCRIBER_MEAN": 3.0, "SUBSCRIBER_STD": 2.0, "FREE_USER_FRACTION": 0.9},
    ],
    ids=["default", "sparse", "demand 0.5", "demand 2 sparse", "margin 0.1", "deep tiers", "tiny pools"],
)
def test_sized_configs(monkeypatch, tenants, overrides):
    fields = {}
    for key, value in overrides.items():
        if key.isupper():
            monkeypatch.setattr(workload, key, value)
        else:
            fields[key] = value
    for seed in (0, 1, 2):
        assert_same_generation(GenConfig(tenant_count=tenants, seed=seed, **fields))


@pytest.mark.parametrize("tenants", [1, 2, 30, 2000, 20_000])
@pytest.mark.parametrize("participation", [None, 0.3])
def test_grouped_multinomial_and_sorted_median(monkeypatch, tenants, participation):
    """Odd and even demanded-entry counts (the median's two cases), sparse
    markets with undemanded resources (the caps' fallback) and one or several
    top-tier groups, at sizes from one tenant to the online workload's."""
    parities, empty_columns = set(), 0
    seeds = range(6) if tenants <= 30 else range(2)
    tier_ranges = [(2.0, 6.0), (3.0, 3.0), (1.0, 9.0)] if tenants <= 2000 else [(2.0, 6.0)]
    for seed in seeds:
        for tiers in tier_ranges:
            monkeypatch.setattr(workload, "TOP_TIER_RANGE", tiers)
            config = GenConfig(
                tenant_count=tenants,
                resource_count=4 + seed % 2,
                participation=participation,
                seed=seed,
            )
            assert_same_generation(config)
            instance = generate_instance(config)
            parities.add(int(np.count_nonzero(instance.demands)) % 2)
            empty_columns += int((~instance.demands.any(axis=0)).sum())
    if tenants <= 30 and (participation is not None or tenants % 2):  # a dense market demands N * C entries
        assert parities == {0, 1}
    if participation is not None and tenants <= 2:
        assert empty_columns > 0


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 30, 31, 2000, 60_001])
def test_sorted_median_is_np_median(size):
    rng = np.random.default_rng(size)
    for values in (
        rng.lognormal(0.0, 2.0, size=size),
        rng.integers(0, 4, size=size).astype(float),  # ties around the middle
        np.full(size, 1.0 / 3.0),
        rng.uniform(1e300, 1.7e308, size=size),  # the two middle ones overflow when added
    ):
        with np.errstate(over="ignore"):
            want = float(np.median(values))
        got = _median(values)
        assert type(got) is float
        assert np.array([got]).tobytes() == np.array([want]).tobytes()


def test_grouped_multinomial_draws_in_tier_then_tenant_order(monkeypatch):
    # tenants of one top tier scattered among the others: the grouped draw
    # must hand each tenant the counts its own flatnonzero gather drew
    monkeypatch.setattr(workload, "TOP_TIER_RANGE", (1.0, 5.0))
    monkeypatch.setattr(workload, "TIER_DECAY", 0.7)
    config = GenConfig(tenant_count=40, seed=11)
    arrays = private_arrays(config)
    _, want = _reference_population(config)
    assert _records(arrays) == want
    counts = arrays[2]
    highest = counts.shape[1] - np.argmax(counts[:, ::-1] > 0, axis=1)  # each tenant's top tier
    assert len(set(highest.tolist())) >= 3
    assert (np.diff(highest) < 0).any()  # the tiers interleave in tenant order


def test_tier_weight_cache_follows_the_constants_read_at_call_time(monkeypatch):
    # one process draws with the default decay, then with a patched decay and
    # tier range: weights cached for one decay must never serve another
    config = GenConfig(tenant_count=60, seed=21)
    draws = []
    for patch in ({}, {"TIER_DECAY": 0.7}, {"TOP_TIER_RANGE": (1.0, 9.0)}):
        for name, value in patch.items():
            monkeypatch.setattr(workload, name, value)
        got = workload._sample_tenants(config, np.random.default_rng(config.seed))
        raw, want = _reference_sample_tenants(config, np.random.default_rng(config.seed))
        assert repr(_records(got)) == repr(want)
        draws.append(got[2])
    assert workload.TIER_DECAY == 0.7 and draws[1].shape[1] <= 6 < draws[2].shape[1]
    assert draws[0].tobytes() != draws[1].tobytes()  # the decay reaches the draw


@pytest.mark.parametrize("decay", [0.5, 0.7, 0.8])
def test_tier_weights_are_the_prefix_of_the_decay_powers(decay):
    # the weights as the grouped pass computed them before the cache: a prefix
    # of the powers up to the highest top tier, over its own sum
    powers = decay ** np.arange(1, 10)
    for tiers in range(1, 10):
        weights = workload._tier_weights(decay, tiers)
        want = powers[:tiers] / powers[:tiers].sum()
        assert (weights.dtype, weights.tobytes()) == (want.dtype, want.tobytes())
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0] = 1.0
        assert workload._tier_weights(decay, tiers) is weights


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
    "densities, lows, highs",
    [
        (np.array([3.0, 1.5, np.nan, 2.0]), [1.5], [3.0]),
        (
            np.array([[2.0, np.nan, 4.0], [np.nan, np.nan, 1.0], [5.0, np.nan, np.nan]]),
            [2.0, 1.0, 1.0],
            [5.0, 5.0, 4.0],
        ),
        (np.array([[np.nan, 0.5], [np.nan, 7.0]]), [0.5, 0.5], [7.0, 7.0]),
        (np.array([[1.0, np.inf], [np.nan, 2.0]]), [1.0, 2.0], [1.0, np.inf]),
        (np.array([[MIN_DEMAND]]), [MIN_DEMAND], [MIN_DEMAND]),
    ],
    ids=["1-D", "all-NaN middle column", "all-NaN first column", "infinite density", "single entry"],
)
@pytest.mark.parametrize("margin", [0.0, 0.1])
def test_derive_bounds_matches(densities, lows, highs, margin):
    # the bounds helper behind manual_instance and the reference caps, against
    # its rule worked by hand: each column's lowest and highest density, the
    # global range on an all-NaN column
    floors, caps = derive_bounds(densities, margin)
    assert floors.tolist() == [(1.0 - margin) * low for low in lows]
    assert caps.tolist() == [(1.0 + margin) * high for high in highs]


@pytest.mark.parametrize("densities", [np.full((3, 2), np.nan), np.full(4, np.nan), np.empty((0, 3))])
def test_derive_bounds_without_any_density_raises(densities):
    with pytest.raises(WorkloadError, match="no positive density"):
        derive_bounds(densities)
