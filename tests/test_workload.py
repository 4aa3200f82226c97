"""Workload generator: determinism, invariants, population statistics."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from slicemarket import workload
from slicemarket.protocol import run_posted_price
from slicemarket.workload import (
    BUNDLE_FLOOR_RTOL,
    MIN_DEMAND,
    GenConfig,
    Instance,
    WorkloadError,
    generate_instance,
    validate_instance,
)

from conftest import derive_bounds, manual_instance, private_arrays


class TestGenConfig:
    def test_defaults_resolve(self):
        cfg = GenConfig(tenant_count=100)
        assert cfg.resolved_demand_mean == pytest.approx(0.01)
        assert cfg.resolved_demand_std == pytest.approx(1e-4)

    def test_overrides(self):
        cfg = GenConfig(demand_mean=0.02, demand_std=0.005)
        assert cfg.resolved_demand_mean == 0.02
        assert cfg.resolved_demand_std == 0.005

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tenant_count": 0},
            {"resource_count": 0},
            {"demand_mean": 0.0},
            {"density_margin": 1.0},
            {"participation": 0.0},
            {"unit_cost_range": (0.2, 1.0)},
            {"pay_level_range": (3.0, 2.0)},
            {"tenant_count": 2.5},
            {"tenant_count": True},
            {"resource_count": 2.0},
            {"resource_count": "3"},
            {"seed": -1},
            {"seed": 1.5},
            {"demand_mean": -float("inf")},
            {"unit_cost_range": (0.2, float("inf"))},
            {"pay_level_range": (0.0, 6.0)},
            {"demand_std": -1.0},
            {"participation": 1.5},
            {"pay_level_range": (2.0, float("inf"))},
            {"unit_cost_range": (float("nan"), 0.5)},
            {"pay_level_range": (float("nan"), 6.0)},
            {"unit_cost_range": (0.0, 0.5)},
            {"density_margin": -0.1},
            {"demand_mean": float("inf")},
            {"demand_std": float("inf")},
            {"demand_std": float("nan")},
            {"pay_level_range": (2.0,)},
            {"unit_cost_range": 0.5},
            {"demand_mean": "0.01"},
            {"seed": "0"},
            {"density_margin": "0.1"},
            {"participation": "0.5"},
            {"density_margin": float("nan")},
            {"participation": True},
            {"density_margin": float("inf")},
            {"participation": float("nan")},
            {"density_margin": None},
            {"seed": None},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(WorkloadError, match=next(iter(kwargs))):
            GenConfig(**kwargs)

    @pytest.mark.parametrize(
        "key", ["subscriber_mean", "subscriber_std", "free_user_fraction", "tier_decay", "top_tier_range"]
    )
    def test_removed_keys_are_unknown(self, key):
        # the valuation model's statistics are module constants, not fields
        with pytest.raises(TypeError, match=key):
            GenConfig.from_dict({key: 0.5})

    def test_number_checks_on_the_exact_type_fast_path_and_the_abc_path(self):
        class Real(float):
            pass

        for value in (0, 7, -3, np.int64(7), np.uint32(5), np.int8(-1)):
            assert workload._is_int(value), value
        for value in (True, False, np.bool_(True), 2.0, np.float64(2.0), "3", None, Real(2.0)):
            assert not workload._is_int(value), value
        for value in (0, 3, 1.5, -0.0, 1e308, np.float64(0.4), np.float32(0.5), np.int64(3), Real(0.25)):
            assert workload._is_finite(value), value
        for value in (
            True, False, np.bool_(False), float("nan"), float("inf"), -float("inf"),
            np.float64("nan"), np.float32("inf"), Real("nan"), Real("inf"), "0.4", None, 1 + 0j,
        ):
            assert not workload._is_finite(value), value

    def test_numpy_integers_accepted(self):
        cfg = GenConfig(tenant_count=np.int64(7), resource_count=np.int32(2), seed=np.uint32(5))
        assert generate_instance(cfg).demands.shape == (7, 2)

    def test_dict_round_trip(self):
        cfg = GenConfig(tenant_count=7, participation=0.8, seed=13)
        assert GenConfig.from_dict(cfg.to_dict()) == cfg


class TestGenerateInstance:
    def test_seeded_determinism(self):
        cfg = GenConfig(tenant_count=20, resource_count=3, seed=77)
        a = generate_instance(cfg)
        b = generate_instance(cfg)
        assert (a.demands == b.demands).all()
        assert (a.valuations == b.valuations).all()
        assert (a.price_floors == b.price_floors).all()
        assert (a.unit_costs == b.unit_costs).all()

    def test_single_tenant_invariants(self):
        inst = generate_instance(GenConfig(tenant_count=1, resource_count=1, seed=0))
        assert inst.demands[0, 0] > MIN_DEMAND
        e = inst.valuations[0] / inst.demands[0, 0]
        assert inst.price_floors[0] <= e <= inst.price_caps[0]
        assert 0 < inst.unit_costs[0] < inst.price_floors[0]

    def test_mean_demand_matches_configured_sampler(self):
        # the sampler is a normal resampled until above the demand floor, so
        # the reference mean is the truncated normal's, not the raw mean
        cfg = GenConfig(tenant_count=100, resource_count=3, seed=11)
        inst = generate_instance(cfg)
        mu, sigma = cfg.resolved_demand_mean, cfg.resolved_demand_std
        a = (MIN_DEMAND - mu) / sigma
        expected = stats.truncnorm.mean(a, np.inf, loc=mu, scale=sigma)
        expected_std = stats.truncnorm.std(a, np.inf, loc=mu, scale=sigma)
        stderr = expected_std / np.sqrt(inst.demands.size)
        assert abs(inst.demands.mean() - expected) <= 3 * stderr

    def test_generated_instances_always_validate(self, rng):
        for _ in range(300):
            cfg = GenConfig(
                tenant_count=int(rng.integers(1, 30)),
                resource_count=int(rng.integers(1, 6)),
                density_margin=float(rng.choice([0.0, 0.1])),
                participation=float(rng.uniform(0.4, 1.0)) if rng.random() < 0.3 else None,
                seed=int(rng.integers(0, 2**32)),
            )
            inst = generate_instance(cfg)
            # every tenant can pay its bundle at the floor prices
            assert (inst.valuations >= (inst.demands @ inst.price_floors) * (1 - BUNDLE_FLOOR_RTOL)).all()
            assert validate_instance(inst) == []

    def test_single_resource_matches_per_resource_floors(self, monkeypatch):
        # differential: with one resource the bundle floor must reproduce the
        # per-resource floor of derive_bounds, so every array stays bit-identical
        def per_resource_floor(demands, valuations, margin=0.0):
            (floor,), _ = derive_bounds(valuations[:, None] / demands, margin)
            return float(floor)

        configs = [
            GenConfig(tenant_count=n, resource_count=1, density_margin=margin, participation=part, seed=seed)
            for seed in range(15)
            for n, margin, part in ((1, 0.0, None), (30, 0.0, None), (30, 0.1, 0.5))
        ]
        generated = [generate_instance(cfg) for cfg in configs]
        monkeypatch.setattr(workload, "bundle_floor", per_resource_floor)
        for cfg, inst in zip(configs, generated):
            reference = generate_instance(cfg)
            for name in ("demands", "valuations", "price_floors", "price_caps", "unit_costs"):
                assert getattr(inst, name).tobytes() == getattr(reference, name).tobytes(), name

    def test_median_density_normalized(self):
        inst = generate_instance(GenConfig(tenant_count=50, resource_count=2, seed=3))
        dens = inst.densities()
        assert np.nanmedian(dens) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("resources", [3, 9])
    def test_default_markets_pack_in_one_dimension(self, resources):
        # default demand rows are equal across resources to about 1 %: every
        # resource posts the bundle floor and a session fills them alike
        for seed in range(30):
            inst = generate_instance(GenConfig(tenant_count=100, resource_count=resources, seed=seed))
            assert (inst.price_floors == inst.price_floors[0]).all()
            utilization = run_posted_price(inst).ledger.utilization
            assert max(utilization) - min(utilization) <= 0.01


class TestPopulation:
    """The private tenant arrays the generator draws (``conftest.private_arrays``)."""

    def test_free_user_fraction(self):
        cfg = GenConfig(tenant_count=40, resource_count=1, seed=21)
        subscribers, free, *_ = private_arrays(cfg)
        assert abs(free.sum() / subscribers.sum() - workload.FREE_USER_FRACTION) <= 0.05

    def test_pyramid_monotone_in_aggregate(self):
        counts = np.zeros(6)
        for seed in range(100):
            tier_counts = private_arrays(GenConfig(tenant_count=5, resource_count=1, seed=seed))[2]
            counts[: tier_counts.shape[1]] += tier_counts.sum(axis=0)
        present = counts[counts > 0]
        assert all(b <= a for a, b in zip(present, present[1:]))

    def test_paying_subscribers_always_present(self, monkeypatch):
        # tiny subscriber pools with a large free share still produce buyers
        monkeypatch.setattr(workload, "SUBSCRIBER_MEAN", 2.0)
        monkeypatch.setattr(workload, "SUBSCRIBER_STD", 1.0)
        monkeypatch.setattr(workload, "FREE_USER_FRACTION", 0.9)
        subscribers, free, _, _, raw = private_arrays(GenConfig(tenant_count=30, resource_count=1, seed=5))
        assert subscribers.max() < 10  # the patched pools were drawn
        assert (subscribers - free >= 1).all()
        assert (raw > 0).all()

    def test_tier_counts_match_paying_subscribers(self):
        subscribers, free, tier_counts, _, _ = private_arrays(GenConfig(tenant_count=10, seed=9))
        assert (tier_counts.sum(axis=1) == subscribers - free).all()

    def test_top_tier_limit_is_reachable(self):
        # the top tier is TOP_TIER_RANGE's end rounded up: 6
        tier_counts = private_arrays(GenConfig(tenant_count=50, seed=1))[2]
        assert tier_counts.shape == (50, 6)
        assert tier_counts[:, -1].any()


class TestDeriveBounds:
    def test_min_max(self):
        floors, caps = derive_bounds(np.array([[2.0], [2.5], [3.0]]))
        assert floors[0] == 2.0
        assert caps[0] == 3.0

    def test_single_value(self):
        floors, caps = derive_bounds(np.array([[5.0]]))
        assert floors[0] == caps[0] == 5.0

    def test_margin(self):
        floors, caps = derive_bounds(np.array([[2.0], [3.0]]), margin=0.1)
        assert floors[0] == pytest.approx(1.8)
        assert caps[0] == pytest.approx(3.3)

    def test_undemanded_resource_gets_global_range(self):
        dens = np.array([[2.0, np.nan], [4.0, np.nan]])
        floors, caps = derive_bounds(dens)
        assert floors[1] == 2.0
        assert caps[1] == 4.0

    def test_no_density_anywhere(self):
        with pytest.raises(WorkloadError):
            derive_bounds(np.full((2, 2), np.nan))


@given(
    lo=st.floats(0.5, 5.0),
    span=st.floats(0.0, 5.0),
    margin=st.floats(0.0, 0.5),
)
def test_derive_bounds_margin_property(lo, span, margin):
    hi = lo + span
    floors, caps = derive_bounds(np.array([[lo], [hi]]), margin=margin)
    assert floors[0] == pytest.approx((1 - margin) * lo)
    assert caps[0] == pytest.approx((1 + margin) * hi)
    assert floors[0] <= caps[0]


class TestValidateInstance:
    def test_clean_instance(self):
        assert validate_instance(generate_instance(GenConfig(tenant_count=10, seed=2))) == []

    def test_density_below_floor_detected(self):
        inst = generate_instance(GenConfig(tenant_count=5, resource_count=1, seed=2))
        floors = inst.price_floors.copy()
        floors[0] = float(np.nanmax(inst.densities())) * 1.01
        bad = Instance(inst.demands, inst.valuations, floors, inst.price_caps * 2, inst.unit_costs)
        codes = {v.code for v in validate_instance(bad)}
        assert "density-below-floor" in codes

    def test_per_resource_floors_flag_bundle_below_floor(self):
        # the frozen counterexample of test_multi_resource_guarantee_gap:
        # density 1.25 on each resource meets every per-resource floor, but
        # a bundle at the floors costs 0.3 against a valuation of 0.15
        valuations = np.full(8, 0.15)
        valuations[0] = 0.31
        inst = manual_instance(np.full((8, 2), 0.12), valuations, [0.2, 0.2])
        flagged = [v.tenant for v in validate_instance(inst) if v.code == "bundle-below-floor"]
        assert flagged == list(range(1, 8))
        assert {v.code for v in validate_instance(inst)} == {"bundle-below-floor"}

    def test_cost_at_floor_detected(self):
        inst = generate_instance(GenConfig(tenant_count=5, resource_count=1, seed=2))
        costs = inst.unit_costs.copy()
        costs[0] = inst.price_floors[0]
        bad = Instance(inst.demands, inst.valuations, inst.price_floors, inst.price_caps, costs)
        codes = {v.code for v in validate_instance(bad)}
        assert "cost-at-floor" in codes
        report = [v for v in validate_instance(bad) if v.code == "cost-at-floor"][0]
        assert report.resource == 0

    @pytest.mark.parametrize(
        "field, index, value, tenant, resource",
        [
            ("demands", (2, 1), np.nan, 2, 1),
            ("valuations", (3,), np.nan, 3, None),
            ("valuations", (0,), np.inf, 0, None),
            ("price_floors", (1,), -np.inf, None, 1),
            ("price_caps", (0,), np.inf, None, 0),
            ("unit_costs", (2,), np.nan, None, 2),
        ],
    )
    def test_non_finite_values_detected(self, field, index, value, tenant, resource):
        # the constructor rejects them, so no instance with one ever exists
        inst = generate_instance(GenConfig(tenant_count=5, resource_count=3, seed=4))
        arrays = {
            name: getattr(inst, name).copy()
            for name in ("demands", "valuations", "price_floors", "price_caps", "unit_costs")
        }
        arrays[field][index] = value
        with pytest.raises(WorkloadError, match="non-finite") as err:
            Instance(**arrays)
        place = ", ".join(
            f"{axis} {i}" for axis, i in (("tenant", tenant), ("resource", resource)) if i is not None
        )
        assert str(err.value).startswith(f"{field}: ")
        assert str(err.value).endswith(f"at {place}")

    def test_violations_are_data_not_errors(self):
        inst = generate_instance(GenConfig(tenant_count=3, resource_count=1, seed=6))
        bad = Instance(
            inst.demands, inst.valuations, inst.price_floors, inst.price_caps, -inst.unit_costs
        )
        problems = validate_instance(bad)
        assert problems
        assert all(str(v) for v in problems)


class TestSparseParticipation:
    def test_every_tenant_demands_something(self):
        cfg = GenConfig(tenant_count=40, resource_count=4, participation=0.4, seed=8)
        inst = generate_instance(cfg)
        assert ((inst.demands > 0).sum(axis=1) >= 1).all()
        assert (inst.demands == 0).any()

    def test_sparse_instances_validate(self):
        for seed in range(20):
            cfg = GenConfig(tenant_count=6, resource_count=5, participation=0.3, seed=seed)
            assert validate_instance(generate_instance(cfg)) == []


class TestInstanceIO:
    def test_json_round_trip(self, tmp_path):
        cfg = GenConfig(tenant_count=12, resource_count=2, participation=0.9, seed=31)
        inst = generate_instance(cfg)
        path = inst.save(tmp_path / "instance.json")
        loaded = Instance.load(path)
        assert (loaded.demands == inst.demands).all()
        assert (loaded.valuations == inst.valuations).all()
        assert (loaded.price_floors == inst.price_floors).all()
        assert (loaded.price_caps == inst.price_caps).all()
        assert (loaded.unit_costs == inst.unit_costs).all()
        assert loaded.seed == inst.seed
        assert loaded.config == cfg

    @pytest.mark.parametrize("seed", ["x", -1, 1.5, True, [3]])
    def test_seed_must_be_a_non_negative_integer_or_null(self, seed):
        data = generate_instance(GenConfig(tenant_count=3, seed=4)).to_dict()
        assert Instance.from_dict({**data, "seed": None}).seed is None
        with pytest.raises(WorkloadError, match="seed must be a non-negative integer or null"):
            Instance.from_dict({**data, "seed": seed})

    @pytest.mark.parametrize("config", [[["tenant_count", 3], ["seed", 4]], "x", 0, False, []])
    def test_config_must_be_an_object_or_null(self, config):
        data = generate_instance(GenConfig(tenant_count=3, seed=4)).to_dict()
        assert Instance.from_dict({**data, "config": None}).config is None
        with pytest.raises(WorkloadError, match="is not a mapping"):
            Instance.from_dict({**data, "config": config})

    def test_arrays_read_only(self):
        inst = generate_instance(GenConfig(tenant_count=3, seed=1))
        with pytest.raises(ValueError):
            inst.demands[0, 0] = 5.0

    def test_constructor_copies_the_callers_arrays(self):
        inst = generate_instance(GenConfig(tenant_count=6, resource_count=2, seed=8))
        valuations = inst.valuations.copy()
        view = valuations[1:]
        checked = Instance(inst.demands, valuations, inst.price_floors, inst.price_caps, inst.unit_costs)
        assert valuations.flags.writeable
        valuations[0] = 7.0
        view[1] = np.nan  # valuation 2, through a view made before construction
        assert (checked.valuations == inst.valuations).all()
        assert not np.shares_memory(checked.valuations, valuations)

    def test_zero_resources_rejected(self):
        with pytest.raises(WorkloadError, match="at least one resource"):
            Instance(np.zeros((3, 0)), np.ones(3), [], [], [])
        # zero tenants stays a valid, empty market
        assert Instance(np.zeros((0, 1)), np.zeros(0), [1.0], [2.0], [0.5]).tenant_count == 0

    @pytest.mark.parametrize("resources", [1, 3])
    def test_zero_tenant_round_trip(self, tmp_path, resources):
        # to_dict writes the (0, C) demand matrix as [], which reads back as (0, C)
        c = resources
        inst = Instance(np.zeros((0, c)), [], np.ones(c), np.full(c, 2.0), np.full(c, 0.1))
        loaded = Instance.from_dict(json.loads(json.dumps(inst.to_dict())))
        reloaded = Instance.load(inst.save(tmp_path / "empty.json"))
        for other in (loaded, reloaded):
            for name in ("demands", "valuations", "price_floors", "price_caps", "unit_costs"):
                assert getattr(other, name).shape == getattr(inst, name).shape, name
                assert getattr(other, name).tobytes() == getattr(inst, name).tobytes(), name

    def test_nan_valuation_rejected_at_construction_and_load(self):
        # offline_exact used to return welfare 0.476 on this market
        inst = generate_instance(GenConfig(tenant_count=6, resource_count=2, seed=8))
        valuations = inst.valuations.copy()
        valuations[2] = np.nan
        with pytest.raises(WorkloadError, match="valuations: 1 non-finite value"):
            Instance(inst.demands, valuations, inst.price_floors, inst.price_caps, inst.unit_costs)
        data = inst.to_dict()
        data["valuations"][2] = float("nan")
        with pytest.raises(WorkloadError, match="at tenant 2"):
            Instance.from_dict(data)
