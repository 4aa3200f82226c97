"""Experiment harness: trial execution, aggregation, artifact emission."""

import csv
import hashlib
import json
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from slicemarket import baselines, harness, workload
from slicemarket.baselines import GaParams
from slicemarket.harness import (
    ALGORITHMS,
    EmitError,
    ExperimentSpec,
    HarnessError,
    aggregate,
    emit,
    plot_data,
    run_trials,
    summary_csv,
    trials_csv,
)
from slicemarket.market import Allocation
from slicemarket.protocol import SKIP, SUCC, parse_transcript_jsonl
from slicemarket.workload import GenConfig

from reference_protocol import transferred_data_bytes

#: The experiment specs ``slicemarket run --spec`` runs, one per experiment.
SPEC_FILES = sorted((Path(__file__).resolve().parents[1] / "specs").glob("*.json"))


def small_spec(**overrides):
    defaults = dict(
        algos=("posted_price",),
        base_config=GenConfig(tenant_count=8, resource_count=2),
        trials=3,
        seed=11,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestSpecValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(HarnessError, match="unknown algorithm"):
            small_spec(algos=("cvx",))

    @pytest.mark.parametrize(
        "algos", [("posted_price", "posted_price"), ("random", "myopic", "random"), ["genetic"] * 3]
    )
    def test_repeated_algorithm(self, algos):
        # a repeat would run its trials twice and write one transcript file twice
        with pytest.raises(HarnessError, match=f"algorithm {algos[-1]!r} is named more than once"):
            small_spec(algos=algos)

    def test_axis_without_values(self):
        with pytest.raises(HarnessError):
            small_spec(axis="tenants", values=())

    def test_values_without_axis(self):
        with pytest.raises(HarnessError):
            small_spec(values=(10, 20))

    def test_unknown_oracle(self):
        with pytest.raises(HarnessError):
            small_spec(oracle="milp")

    @pytest.mark.parametrize("budget", [0, -5, 2.5, True, "10", None])
    def test_bad_node_budget_rejected(self, budget):
        # the trial budget is harness.TRIAL_NODE_BUDGET: a spec that names it is refused, whatever the value
        with pytest.raises(HarnessError, match=r"unknown spec key\(s\) \['node_budget'\]"):
            ExperimentSpec.from_dict({"node_budget": budget})
        with pytest.raises(TypeError, match="node_budget"):
            small_spec(node_budget=budget)

    def test_trial_node_budget_is_the_module_constant(self, monkeypatch):
        budgets, solve = [], harness.offline_exact

        def offline_exact(instance, node_budget):
            budgets.append(node_budget)
            return solve(instance, node_budget=node_budget)

        monkeypatch.setattr(harness, "offline_exact", offline_exact)
        run_trials(small_spec(trials=2, oracle="exact"))
        assert budgets == [harness.TRIAL_NODE_BUDGET] * 2 == [20_000] * 2
        assert "node_budget" not in {f.name for f in fields(ExperimentSpec)}

    def test_dict_round_trip(self):
        spec = small_spec(
            axis="tenants", values=(5, 10), oracle="lp", transcripts=True,
            ga_params=GaParams(population=10, generations=5),
        )
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.ga_params == GaParams(population=10, generations=5)

    def test_unknown_key_rejected(self):
        data = small_spec().to_dict()
        data["algo"] = data.pop("algos")
        with pytest.raises(HarnessError, match="algo"):
            ExperimentSpec.from_dict(data)

    def test_invalid_ga_params_rejected(self):
        with pytest.raises(HarnessError, match="ga_params"):
            ExperimentSpec.from_dict({"ga_params": {"population": 1}})
        with pytest.raises(HarnessError, match="ga_params"):
            ExperimentSpec.from_dict({"ga_params": {"populaton": 10}})
        with pytest.raises(HarnessError, match="mutation_rate"):  # a constant now: an unknown key
            ExperimentSpec.from_dict({"ga_params": {"mutation_rate": float("nan")}})

    def test_one_spec_file_per_experiment(self):
        assert [path.stem for path in SPEC_FILES] == [
            "overhead",
            "sensitivity_demand_mean",
            "sensitivity_pay_level_range",
            "sensitivity_unit_cost_range",
            "sweep_resources",
            "sweep_tenants",
        ]

    def test_readme_spec_example_names_every_field(self):
        # the documented spec keys, config fields and GA parameters are the
        # dataclasses' own, and the README names every model constant
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"A spec file is a JSON document:\n\n```json\n(.*?)\n```", readme, re.S)
        document = json.loads(block.group(1))
        spec = ExperimentSpec.from_dict(document)
        assert set(document) == set(spec.to_dict())
        assert set(document["config"]) == {f.name for f in fields(GenConfig)}
        assert set(document["ga_params"]) == {f.name for f in fields(GaParams)}
        prose = " ".join(readme.split())
        constants = ("SUBSCRIBER_MEAN", "SUBSCRIBER_STD", "FREE_USER_FRACTION", "TIER_DECAY", "TOP_TIER_RANGE")
        for module, names in ((workload, constants), (baselines, ("TOURNAMENT", "ELITES"))):
            for name in names:
                assert hasattr(module, name) and f"`{name}` = " in prose, name

    @pytest.mark.parametrize("path", SPEC_FILES, ids=lambda path: path.stem)
    def test_spec_file_loads(self, path):
        spec = ExperimentSpec.load(path)
        assert spec.out == f"results/{path.stem}"

    @pytest.mark.parametrize("path", SPEC_FILES, ids=lambda path: path.stem)
    def test_spec_file_runs(self, path, tmp_path):
        spec = replace(ExperimentSpec.load(path), trials=1, ga_params=GaParams(population=10, generations=5))
        metrics = run_trials(spec)
        points = len(spec.values) if spec.axis is not None else 1
        references = [m for m in metrics if m.algo in ("exact", "lp_bound")]
        assert len(references) == points
        assert len(metrics) == points * (1 + len(spec.algos))
        paths = emit(metrics, aggregate(metrics), tmp_path, axis=spec.axis)
        assert {"trials.csv", "summary.csv", "plot_data.json"} <= set(paths)
        assert all(path.stat().st_size > 0 for path in paths.values())


def _point(axis, value, base=None):
    """The config of the one point a sweep of ``base`` along ``axis`` runs at ``value``."""
    return ExperimentSpec(base_config=base or GenConfig(), axis=axis, values=(value,))._point_configs[0]


class TestApplyAxis:
    """Each sweep point is the base config with the axis's field replaced."""

    def test_tenant_sweep_pins_demand_distribution(self):
        swept = _point("tenants", 50, GenConfig(tenant_count=100))
        assert swept.tenant_count == 50
        assert swept.demand_mean == pytest.approx(0.01)
        assert swept.demand_std == pytest.approx(1e-4)

    def test_demand_mean_axis(self):
        assert _point("demand_mean", 0.02).demand_mean == 0.02

    def test_range_axes(self):
        cfg = _point("unit_cost_range", (0.1, 0.4))
        assert cfg.unit_cost_range == (0.1, 0.4)
        cfg = _point("pay_level_range", (1.0, 3.0))
        assert cfg.pay_level_range == (1.0, 3.0)
        assert _point("unit_cost_range", [0.1, 0.4]).unit_cost_range == (0.1, 0.4)

    def test_no_axis_runs_the_base_config(self):
        base = GenConfig(tenant_count=7)
        assert ExperimentSpec(base_config=base)._point_configs == (base,)

    @pytest.mark.parametrize(
        "axis, value, message",
        [
            ("tenants", 2.5, "tenant_count must be an integer"),
            ("tenants", True, "tenant_count must be an integer"),
            ("resources", 1.9, "resource_count must be an integer"),
            ("demand_mean", "x", "demand_mean must be a finite number"),
            ("unit_cost_range", (0.2, 1.0), "unit_cost_range must stay below 1"),
        ],
    )
    def test_bad_point_is_refused_when_the_spec_is_built(self, axis, value, message):
        # a good point first: the whole value list is checked before any trial
        good = {"tenants": 10, "resources": 2, "demand_mean": 0.01, "unit_cost_range": (0.1, 0.4)}[axis]
        with pytest.raises(HarnessError, match=re.escape(f"sweep axis '{axis}' value {value!r}: {message}")):
            ExperimentSpec(axis=axis, values=(good, value))


class TestRunTrials:
    def test_single_tenant_hand_computation(self):
        # one tenant is its own density floor, so the strict rule rejects it
        spec = small_spec(base_config=GenConfig(tenant_count=1, resource_count=1), trials=1)
        metrics = run_trials(spec)
        by_algo = {m.algo: m for m in metrics}
        posted = by_algo["posted_price"]
        assert posted.welfare == 0.0
        assert posted.ratio is None
        assert posted.rental_rate == 0.0
        exact = by_algo["exact"]
        inst = GenConfig(tenant_count=1, resource_count=1, seed=exact.seed)
        from slicemarket.workload import generate_instance

        instance = generate_instance(inst)
        d = float(instance.demands[0, 0])
        expected = instance.valuations[0] - instance.unit_costs[0] * d if d <= 1.0 else 0.0
        expected = max(expected, 0.0)
        assert exact.welfare == pytest.approx(expected, abs=1e-12)
        if expected > 0:
            assert exact.ratio == pytest.approx(1.0)

    def test_same_instance_for_all_algorithms(self):
        spec = small_spec(algos=("posted_price", "myopic", "random"), trials=2)
        metrics = run_trials(spec)
        seeds = {}
        for m in metrics:
            seeds.setdefault(m.trial, set()).add(m.seed)
        for trial_seeds in seeds.values():
            assert len(trial_seeds) == 1

    def test_deterministic_csv(self):
        a = trials_csv(run_trials(small_spec(algos=("posted_price", "random", "genetic"))))
        b = trials_csv(run_trials(small_spec(algos=("posted_price", "random", "genetic"))))
        assert a == b

    def test_lp_mode_marks_bound(self):
        spec = small_spec(oracle="lp", trials=1)
        metrics = run_trials(spec)
        assert any(m.algo == "lp_bound" for m in metrics)
        posted = [m for m in metrics if m.algo == "posted_price"][0]
        assert posted.ratio_is_bound

    def test_auto_at_40_tenants_writes_an_exact_row(self):
        spec = small_spec(base_config=GenConfig(tenant_count=40), trials=1, oracle="auto")
        reference = run_trials(spec)[0]
        assert (reference.algo, reference.ratio_is_bound, reference.ratio) == ("exact", False, 1.0)
        assert reference.rental_rate is not None

    def test_exhausted_budget_writes_the_lp_row(self, monkeypatch):
        # a budget of one node runs out on every market with a viable tenant
        config = GenConfig(tenant_count=40)
        monkeypatch.setattr(harness, "TRIAL_NODE_BUDGET", 1)
        exhausted = run_trials(small_spec(base_config=config, oracle="exact"))
        references = [m for m in exhausted if m.algo in ("exact", "lp_bound")]
        assert [(m.algo, m.ratio_is_bound, m.rental_rate) for m in references] == [("lp_bound", True, None)] * 3
        assert trials_csv(exhausted) == trials_csv(run_trials(small_spec(base_config=config, oracle="lp")))

    @pytest.mark.parametrize("oracle", ["exact", "lp"])
    def test_each_row_is_summed_once(self, monkeypatch, oracle):
        built = []
        from_decisions = Allocation.from_decisions

        def counting(cls, instance, accepted):
            built.append(accepted)
            return from_decisions(instance, accepted)

        monkeypatch.setattr(Allocation, "from_decisions", classmethod(counting))
        spec = small_spec(algos=ALGORITHMS, trials=1, oracle=oracle, ga_params=GaParams(population=10, generations=5))
        metrics = run_trials(spec)
        # an lp_bound row has no allocation; every other row builds exactly one
        assert len(built) == sum(m.algo != "lp_bound" for m in metrics) == len(ALGORITHMS) + (oracle == "exact")

    def test_auto_and_exact_write_identical_artifacts(self, tmp_path):
        spec = small_spec(
            algos=("posted_price", "myopic"), axis="tenants", values=(8, 40), trials=2, transcripts=True
        )
        written = {}
        for oracle in ("auto", "exact"):
            metrics = run_trials(replace(spec, oracle=oracle))
            paths = emit(metrics, aggregate(metrics), tmp_path / oracle, axis=spec.axis)
            written[oracle] = {name: path.read_bytes() for name, path in paths.items()}
        assert written["auto"] == written["exact"]

    def test_timing_opt_in(self):
        untimed = run_trials(small_spec(trials=1))
        assert all(m.runtime_ns is None for m in untimed)
        timed = run_trials(small_spec(trials=1, timing=True))
        assert all(m.runtime_ns is not None for m in timed)

    def test_ratio_floor_with_exact_oracle(self):
        spec = small_spec(algos=("posted_price", "myopic", "random", "auction"), trials=5, seed=3)
        for m in run_trials(spec):
            if m.ratio is not None and not m.ratio_is_bound:
                assert m.ratio >= 1.0 - 1e-9

    def test_welfare_rises_with_population(self):
        spec = ExperimentSpec(
            algos=("posted_price",),
            base_config=GenConfig(),
            axis="tenants",
            values=(10, 50, 100),
            trials=60,
            seed=5,
            oracle="lp",
        )
        rows = {r.point_value: r for r in aggregate(run_trials(spec)) if r.algo == "posted_price"}
        assert rows[10].welfare_median <= rows[50].welfare_median <= rows[100].welfare_median


class TestAggregate:
    def test_single_record_summary_equals_record(self):
        spec = small_spec(trials=1)
        metrics = run_trials(spec)
        posted = [m for m in metrics if m.algo == "posted_price"][0]
        row = [r for r in aggregate(metrics) if r.algo == "posted_price"][0]
        assert row.trials == 1
        assert row.welfare_mean == row.welfare_median == posted.welfare
        assert row.welfare_p5 == row.welfare_p95 == posted.welfare
        if posted.ratio is None:
            assert row.ratio_mean is None
        else:
            assert row.ratio_mean == posted.ratio

    def test_undefined_ratios_counted_not_averaged(self):
        spec = small_spec(base_config=GenConfig(tenant_count=1, resource_count=1), trials=2)
        rows = [r for r in aggregate(run_trials(spec)) if r.algo == "posted_price"]
        assert rows[0].ratio_undefined == 2
        assert rows[0].ratio_defined == 0
        assert rows[0].ratio_mean is None

    def test_empty_metrics_rejected(self):
        with pytest.raises(HarnessError):
            aggregate([])


class TestEmit:
    def test_artifacts_written(self, tmp_path):
        spec = small_spec(algos=("posted_price", "random"), trials=2)
        metrics = run_trials(spec)
        rows = aggregate(metrics)
        paths = emit(metrics, rows, tmp_path)
        assert (tmp_path / "trials.csv").exists()
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "plot_data.json").exists()
        header = (tmp_path / "trials.csv").read_text().splitlines()[0]
        assert header == "trial,algo,N,C,seed,welfare,rental_rate,ratio,theoretical_alpha,runtime_ns,transcript_bytes"

    def test_empty_metrics_csv_is_header_only(self):
        assert trials_csv([]).splitlines() == [
            "trial,algo,N,C,seed,welfare,rental_rate,ratio,theoretical_alpha,runtime_ns,transcript_bytes"
        ]

    def test_csv_round_trip(self, tmp_path):
        spec = small_spec(algos=("posted_price", "auction"), trials=2)
        metrics = run_trials(spec)
        emit(metrics, aggregate(metrics), tmp_path)
        with open(tmp_path / "trials.csv", newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert len(parsed) == len(metrics)
        for record, m in zip(parsed, metrics):
            assert record["algo"] == m.algo
            assert float(record["welfare"]) == m.welfare
            assert int(record["seed"]) == m.seed
            if m.ratio is None:
                assert record["ratio"] == ""
            else:
                assert float(record["ratio"]) == m.ratio

    def test_byte_identical_across_runs(self, tmp_path):
        spec = small_spec(algos=("posted_price", "random"), trials=2)
        for name in ("a", "b"):
            metrics = run_trials(spec)
            emit(metrics, aggregate(metrics), tmp_path / name)
        assert (tmp_path / "a" / "trials.csv").read_bytes() == (tmp_path / "b" / "trials.csv").read_bytes()
        assert (tmp_path / "a" / "summary.csv").read_bytes() == (tmp_path / "b" / "summary.csv").read_bytes()
        assert (tmp_path / "a" / "plot_data.json").read_bytes() == (tmp_path / "b" / "plot_data.json").read_bytes()

    def test_transcripts_emitted_and_valid(self, tmp_path):
        spec = small_spec(algos=("posted_price", "myopic"), trials=1, transcripts=True)
        metrics = run_trials(spec)
        emit(metrics, aggregate(metrics), tmp_path)
        files = sorted((tmp_path / "transcripts").glob("*.jsonl"))
        assert len(files) == 2
        kept = [m for m in metrics if m.transcript is not None]
        assert sorted(f"{m.algo}_point{m.point_index}_trial{m.trial}.jsonl" for m in kept) == [p.name for p in files]
        outcomes = set()
        for m in kept:
            transcript = m.transcript
            text = (tmp_path / "transcripts" / f"{m.algo}_point{m.point_index}_trial{m.trial}.jsonl").read_text()
            records = parse_transcript_jsonl(text)
            assert len(text.splitlines()) == len(records) == len(transcript) == 8
            assert [record["n"] for record in records] == list(range(1, len(transcript) + 1))
            assert [tuple(record["quote"]) for record in records] == transcript.quotes
            columns = zip(transcript.outcomes, transcript.charges, transcript.demand_rows.tolist())
            for record, (outcome, charge, demand) in zip(records, columns):
                assert record["outcome"] == outcome
                if outcome == SKIP:
                    assert (record["x"], repr(record["pi"]), record["d"]) == (0, "0.0", [0.0, 0.0])
                else:
                    assert (record["x"], record["pi"].hex(), record["d"]) == (1, charge.hex(), demand)
            outcomes.update(transcript.outcomes)
        assert {SUCC, SKIP} <= outcomes

    @pytest.mark.parametrize("transcripts", [False, True])
    def test_the_session_transcript_is_kept_as_it_is(self, monkeypatch, tmp_path, transcripts):
        ledgers = []

        def keeping_ledgers(run):
            def run_session(*args):
                result = run(*args)
                ledgers.append(result.ledger)
                return result

            return run_session

        monkeypatch.setattr(harness, "run_session", keeping_ledgers(harness.run_session))
        monkeypatch.setattr(baselines, "run_session", keeping_ledgers(baselines.run_session))
        spec = small_spec(algos=("posted_price", "myopic"), trials=2, transcripts=transcripts)
        metrics = run_trials(spec)
        sessions = [m for m in metrics if m.algo in ("posted_price", "myopic")]
        assert len(ledgers) == len(sessions) == 4
        for m, ledger in zip(sessions, ledgers):
            assert m.transcript is (ledger.transcript if transcripts else None)
        emit(metrics, aggregate(metrics), tmp_path)
        assert len(list(tmp_path.glob("transcripts/*.jsonl"))) == (4 if transcripts else 0)
        # 8 arrivals of 2 prices, 2 demands, flag, payment and outcome
        assert [m.transcript_bytes for m in sessions] == [4 * 8 * 7] * 4

    def test_transcript_bytes_match_the_transcript(self, rng):
        for _ in range(10):
            config = GenConfig(tenant_count=int(rng.integers(1, 40)), resource_count=int(rng.integers(1, 6)))
            seed = int(rng.integers(0, 2**32))
            spec = small_spec(algos=("posted_price", "myopic"), base_config=config, seed=seed, transcripts=True)
            for m in run_trials(spec):
                if m.algo in ("posted_price", "myopic"):
                    assert m.transcript_bytes == transferred_data_bytes(m.transcript)

    def test_unwritable_target(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        spec = small_spec(trials=1)
        metrics = run_trials(spec)
        with pytest.raises(EmitError):
            emit(metrics, aggregate(metrics), blocker / "nested")

    def test_plot_data_shape(self):
        spec = ExperimentSpec(
            algos=("posted_price",),
            base_config=GenConfig(tenant_count=6, resource_count=2),
            axis="tenants",
            values=(4, 6),
            trials=2,
            seed=1,
            oracle="lp",
        )
        rows = aggregate(run_trials(spec))
        data = plot_data(rows, "tenants")
        assert data["axis"] == "tenants"
        assert data["x"] == [4, 6]
        assert len(data["series"]["posted_price"]["welfare_median"]) == 2

    def test_summary_csv_parses(self):
        spec = small_spec(trials=2)
        rows = aggregate(run_trials(spec))
        text = summary_csv(rows)
        header, *lines = text.splitlines()
        assert header.startswith("point_index,point_value,algo,trials")
        assert len(lines) == len(rows)


class TestGoldenArtifacts:
    """Artifacts of a fixed spec, pinned byte for byte.

    The transcripts' digests were recorded with the per-algorithm
    implementation of ``run_trials`` that the algorithm table replaced.  The
    spec runs all five algorithms with transcripts on.  Its three tenant
    counts give an exact reference (8) and two whose 50-node branch-and-bound
    budget runs out (25, 30); each of those is the LP bound, labelled
    ``lp_bound`` with no rental rate.
    """

    DIGESTS = {
        "plot_data.json": "55a6ebc0ac88f37af96e5b6f9e479444989682eefef8b5f52e23bd23ab7ac8c0",
        "summary.csv": "6e2f75151e54754f835bb9a05cf451220d20fc8fe92c759caf3a74d653b564db",
        "trials.csv": "1a4a58bfc983038fac1062d2fc67419a690bb5785de942a7abc83b40accc97ba",
        "transcripts/myopic_point0_trial0.jsonl": "cf6e1828a1ce0259afd7785603164cdbeaefe5d3cc13b4e0789d6f9d617af49b",
        "transcripts/myopic_point1_trial0.jsonl": "9fb3f6fca4f32d75c7d5df6368ef62f1b43b3f5b0c3d079c2a747f7247dd5b8f",
        "transcripts/myopic_point2_trial0.jsonl": "b7b73e4144b054596e643a290ffd93ff136416060eb3b18af8c33c49cb0d60bb",
        "transcripts/posted_price_point0_trial0.jsonl": "e5b6184bd480c83d23a70f726a3f2fd11272892f2f39dfdac5677a09de7434e4",
        "transcripts/posted_price_point1_trial0.jsonl": "2b70ece7aa4e8db5a3a7f77b94862268aa51f2fd37882447e88600a50e0165aa",
        "transcripts/posted_price_point2_trial0.jsonl": "8e49297fe8ddc1e489df83f5d8bd0957c919751e64d9ac90f86a00c2d32029d6",
    }

    def test_artifacts_are_byte_identical(self, monkeypatch, tmp_path):
        monkeypatch.setattr(harness, "TRIAL_NODE_BUDGET", 50)
        spec = ExperimentSpec(
            algos=ALGORITHMS,
            base_config=GenConfig(),
            axis="tenants",
            values=(8, 25, 30),
            trials=1,
            seed=7,
            oracle="auto",
            transcripts=True,
            ga_params=GaParams(population=10, generations=5),
        )
        metrics = run_trials(spec)
        references = [(m.algo, m.ratio_is_bound) for m in metrics if m.algo in ("exact", "lp_bound")]
        assert references == [("exact", False), ("lp_bound", True), ("lp_bound", True)]
        paths = emit(metrics, aggregate(metrics), tmp_path, axis=spec.axis)
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
        assert digests == self.DIGESTS


class TestSweepValueNormalization:
    """A range pair is held as a tuple however a Python caller spells it."""

    def test_a_listed_range_is_the_tuple_config(self):
        listed, paired = GenConfig(unit_cost_range=[0.1, 0.4]), GenConfig(unit_cost_range=(0.1, 0.4))
        assert listed == paired
        assert hash(listed) == hash(paired)
        assert type(listed.unit_cost_range) is tuple

    def test_a_tuple_range_is_kept_as_it_is(self):
        pair = (2.0, 4.0)
        assert GenConfig(pay_level_range=pair).pay_level_range is pair

    def test_listed_sweep_values_are_held_as_tuples(self):
        spec = ExperimentSpec(axis="pay_level_range", values=[[2.0, 4.0], [2.0, 6.0]])
        assert spec.values == ((2.0, 4.0), (2.0, 6.0))
        assert all(type(value) is tuple for value in spec.values)

    def test_listed_and_tupled_specs_write_the_same_artifacts(self, tmp_path):
        written = []
        for i, values in enumerate(([[2.0, 4.0], [2.0, 6.0]], ((2.0, 4.0), (2.0, 6.0)))):
            spec = small_spec(algos=("posted_price", "random"), axis="pay_level_range", values=values, trials=2)
            metrics = run_trials(spec)
            paths = emit(metrics, aggregate(metrics), tmp_path / str(i), axis=spec.axis)
            written.append({name: paths[name].read_bytes() for name in ("summary.csv", "plot_data.json")})
        assert written[0] == written[1]
