"""Seeded experiment harness: trial batches, sweeps, aggregation, artifacts.

Every trial draws one instance and one arrival permutation from seeds derived
deterministically from (base seed, sweep point, trial index); all selected
algorithms then consume that same instance and order, so per-trial numbers
are directly comparable.  Outputs are byte-stable for identical specs as long
as runtime measurement stays off.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .baselines import (
    GaParams,
    ga_heuristic,
    myopic_slicing,
    random_slicing,
    utility_bid_auction,
)
from .market import Allocation, MarketError, MarketSetup, social_welfare
from .oracle import lp_upper_bound, offline_exact
from .pricing import PricingSchedule, build_schedule
from .protocol import Transcript, run_session, transcript_to_jsonl
from .workload import GenConfig, WorkloadError, _is_int, _load_json, generate_instance

#: ``"auto"`` and ``"exact"`` are the same mode; specs may name either.
ORACLE_MODES = ("exact", "lp", "auto")
#: Each sweep axis and the ``GenConfig`` field it sets.
AXES = {
    "tenants": "tenant_count",
    "resources": "resource_count",
    "demand_mean": "demand_mean",
    "unit_cost_range": "unit_cost_range",
    "pay_level_range": "pay_level_range",
}
#: Branch-and-bound nodes per trial.  A default market needs at most 2N + 1;
#: an overfull one that runs out costs about 25 ms (2-vCPU Xeon) and reports
#: its LP bound.
TRIAL_NODE_BUDGET = 20_000

TRIAL_CSV_HEADER = (
    "trial,algo,N,C,seed,welfare,rental_rate,ratio,theoretical_alpha,runtime_ns,transcript_bytes"
)


class HarnessError(MarketError):
    """An experiment spec is invalid."""


class EmitError(MarketError):
    """Writing an artifact failed."""

    def __init__(self, path, cause):
        self.path = Path(path)
        super().__init__(f"cannot write {self.path}: {cause}")


def _centralized_bytes(instance) -> int:
    # a centralized solver needs the whole problem: demands, valuations, costs
    n, c = instance.tenant_count, instance.resource_count
    return 4 * (n * c + n + c)


@dataclass
class _Trial:
    """One drawn market that every algorithm of a trial runs on."""

    spec: ExperimentSpec
    instance: object
    order: np.ndarray
    schedule: PricingSchedule
    runtime_ns: int | None = None

    def timed(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, its wall time kept in ``runtime_ns`` when timing is on."""
        if not self.spec.timing:
            return fn(*args, **kwargs)
        start = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        self.runtime_ns = time.perf_counter_ns() - start
        return result


def _session(trial: _Trial, session) -> tuple:
    ledger = session.ledger
    # the session's own transcript, kept as it is; emit formats it from its columns
    transcript = ledger.transcript if trial.spec.transcripts else None
    return session.allocation.accepted, ledger.transferred_bytes, transcript


def _auction(trial: _Trial, seed: int) -> tuple:
    auction = trial.timed(utility_bid_auction, trial.instance)
    # every bid carries its demand vector and the bid value; each round one award
    tx_bytes = 4 * (auction.bids_submitted * (1 + trial.instance.resource_count) + auction.rounds)
    return auction.accepted, tx_bytes, None


#: Every algorithm a spec can select, in the order the CLI lists them:
#: ``(trial, seed) -> (accepted, transcript_bytes, transcript)``.  Each entry
#: makes exactly one ``trial.timed`` call, and looks its algorithm up as a
#: module global at call time so a rebound attribute is the one that runs.
_ALGORITHM_TABLE = {
    "posted_price": lambda t, seed: _session(
        t, t.timed(run_session, t.schedule.setup, t.schedule, t.instance, t.order)
    ),
    "myopic": lambda t, seed: _session(t, t.timed(myopic_slicing, t.instance, t.order)),
    "random": lambda t, seed: (t.timed(random_slicing, t.instance, t.order, seed=seed)[1], None, None),
    "auction": _auction,
    "genetic": lambda t, seed: (
        t.timed(ga_heuristic, t.instance, t.spec.ga_params, seed=seed)[1],
        _centralized_bytes(t.instance),
        None,
    ),
}
ALGORITHMS = tuple(_ALGORITHM_TABLE)


@dataclass(frozen=True)
class ExperimentSpec:
    """One batch of seeded trials, optionally swept along a single axis."""

    algos: tuple[str, ...] = ("posted_price",)
    base_config: GenConfig = field(default_factory=GenConfig)
    axis: str | None = None
    values: tuple = ()
    trials: int = 1000
    seed: int = 0
    oracle: str = "auto"
    transcripts: bool = False
    timing: bool = False
    node_budget: int = TRIAL_NODE_BUDGET
    ga_params: GaParams = field(default_factory=GaParams)
    out: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "algos", tuple(self.algos))
        object.__setattr__(self, "values", tuple(self.values))
        for algo in self.algos:
            if algo not in ALGORITHMS:
                raise HarnessError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
        if not self.algos:
            raise HarnessError("at least one algorithm must be selected")
        if self.oracle not in ORACLE_MODES:
            raise HarnessError(f"unknown oracle mode {self.oracle!r}; choose from {ORACLE_MODES}")
        if self.axis is not None:
            if not (isinstance(self.axis, str) and self.axis in AXES):
                raise HarnessError(f"unknown sweep axis {self.axis!r}; choose from {tuple(AXES)}")
            if not self.values:
                raise HarnessError("a sweep needs a non-empty value list")
        elif self.values:
            raise HarnessError("sweep values given without a sweep axis")
        # every point's config is built here, so GenConfig's checks refuse a
        # bad sweep value before any trial runs
        points = []
        for value in self.values if self.axis is not None else (None,):
            try:
                points.append(_apply_axis(self.base_config, self.axis, value))
            except WorkloadError as exc:
                raise HarnessError(f"sweep axis {self.axis!r} value {value!r}: {exc}") from None
        object.__setattr__(self, "_point_configs", tuple(points))
        if not (_is_int(self.trials) and self.trials >= 1):
            raise HarnessError(f"trials must be an integer of at least 1, got {self.trials!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise HarnessError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (_is_int(self.node_budget) and self.node_budget >= 1):
            raise HarnessError(f"node_budget must be a positive integer, got {self.node_budget!r}")
        for name in ("transcripts", "timing"):
            if not isinstance(getattr(self, name), bool):
                raise HarnessError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if not (self.out is None or isinstance(self.out, str)):
            raise HarnessError(f"out must be a path string or null, got {self.out!r}")

    def to_dict(self) -> dict:
        data = asdict(self)
        data["config"] = data.pop("base_config")
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """The spec a JSON document describes; a malformed one raises
        ``HarnessError``, or ``WorkloadError`` for a bad ``config`` value."""
        if not isinstance(data, dict):
            raise HarnessError(f"a spec document must be an object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)} - {"base_config"} | {"config"}
        unknown = set(data) - known
        if unknown:
            raise HarnessError(f"unknown spec key(s) {sorted(unknown)}; choose from {sorted(known)}")
        # __post_init__ takes any iterable from Python callers; a JSON string or
        # object would iterate as characters or keys (to_dict gives tuples)
        for key in ("algos", "values"):
            if key in data and not isinstance(data[key], (list, tuple)):
                kind = type(data[key]).__name__
                raise HarnessError(f"malformed spec document: {key!r} must be a JSON array, got {kind}")
        kwargs = {key: value for key, value in data.items() if key != "config"}
        try:
            kwargs["base_config"] = GenConfig.from_dict(data.get("config", {}))
            kwargs["values"] = tuple(tuple(v) if isinstance(v, list) else v for v in data.get("values", ()))
            try:
                kwargs["ga_params"] = GaParams(**({} if data.get("ga_params") is None else data["ga_params"]))
            except (TypeError, ValueError) as exc:
                raise HarnessError(f"invalid ga_params: {exc}") from exc
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:  # a misshapen document, unknown config keys
            raise HarnessError(f"malformed spec document: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentSpec":
        return _load_json(path, cls.from_dict, HarnessError, "spec")


@dataclass(frozen=True)
class TrialMetrics:
    point_index: int
    point_value: object
    trial: int
    algo: str
    tenants: int
    resources: int
    seed: int
    welfare: float
    rental_rate: float | None
    ratio: float | None
    ratio_is_bound: bool
    theoretical_alpha: float
    runtime_ns: int | None
    transcript_bytes: int | None
    transcript: Transcript | None = None


def _apply_axis(config: GenConfig, axis: str | None, value) -> GenConfig:
    """``config`` with the axis's field set to ``value``, which GenConfig checks."""
    if axis is None:
        return config
    if axis == "tenants":
        # pin the base demand distribution so the sweep varies only the
        # population, not the per-tenant demand statistics
        return replace(
            config,
            tenant_count=value,
            demand_mean=config.resolved_demand_mean,
            demand_std=config.resolved_demand_std,
        )
    name = AXES[axis]
    if name.endswith("_range") and isinstance(value, (list, tuple)):
        value = tuple(value)
    return replace(config, **{name: value})


def _ratio(reference: float, welfare: float) -> float | None:
    if welfare > 0:
        return reference / welfare
    return None


def _reference(trial: _Trial) -> tuple[str, float, float | None]:
    """The row every ratio of the trial divides: ``(algo, welfare, rental_rate)``.

    Outside ``"lp"`` mode the exact oracle runs under the spec's node budget:
    its optimum is an ``exact`` row, and a budget that runs out leaves the LP
    bound the oracle solved, the same ``lp_bound`` row ``"lp"`` mode writes.
    A bound has no allocation, hence no rental rate.
    """
    if trial.spec.oracle == "lp":
        return "lp_bound", trial.timed(lp_upper_bound, trial.instance), None
    result = trial.timed(offline_exact, trial.instance, node_budget=trial.spec.node_budget)
    if not result.exact:
        return "lp_bound", result.upper_bound, None
    return ("exact", *_welfare(trial, result.accepted))


def _welfare(trial: _Trial, accepted) -> tuple[float, float]:
    """Social welfare and mean utilization of an accept vector."""
    allocation = Allocation.from_decisions(trial.instance, accepted)
    return social_welfare(trial.schedule.setup, trial.instance, allocation), float(allocation.utilization.mean())


def run_trials(spec: ExperimentSpec) -> list[TrialMetrics]:
    """Execute the spec and return one metrics record per (point, trial, algo).

    Each trial also carries a reference record: ``exact`` when
    branch-and-bound finishes within ``spec.node_budget`` nodes, ``lp_bound``
    when it runs out or the spec's oracle is ``"lp"``.  Every ratio column is
    that reference divided by the row's welfare.
    """
    points = spec.values if spec.axis is not None else (None,)
    out: list[TrialMetrics] = []
    for point_index, (point_value, config_point) in enumerate(zip(points, spec._point_configs)):
        for trial_index in range(spec.trials):
            root = np.random.SeedSequence([spec.seed, point_index, trial_index])
            seed_instance, seed_order, seed_algo = (
                int(child.generate_state(1)[0]) for child in root.spawn(3)
            )
            instance = generate_instance(replace(config_point, seed=seed_instance))
            order = np.random.default_rng(seed_order).permutation(instance.tenant_count)
            trial = _Trial(spec, instance, order, build_schedule(MarketSetup.from_instance(instance)))
            reference_algo, reference, reference_rental = _reference(trial)

            def row(algo, welfare, rental_rate, tx_bytes, transcript=None) -> TrialMetrics:
                return TrialMetrics(
                    point_index, point_value, trial_index, algo,
                    instance.tenant_count, instance.resource_count, seed_instance,
                    welfare=welfare,
                    rental_rate=rental_rate,
                    ratio=_ratio(reference, welfare),
                    ratio_is_bound=reference_algo == "lp_bound",
                    theoretical_alpha=trial.schedule.ratio,
                    runtime_ns=trial.runtime_ns,
                    transcript_bytes=tx_bytes,
                    transcript=transcript,
                )

            out.append(row(reference_algo, reference, reference_rental, _centralized_bytes(instance)))
            algo_seeds = np.random.SeedSequence([seed_algo]).spawn(len(spec.algos))
            for algo, algo_seed in zip(spec.algos, algo_seeds):
                seed = int(algo_seed.generate_state(1)[0])
                accepted, tx_bytes, transcript = _ALGORITHM_TABLE[algo](trial, seed)
                out.append(row(algo, *_welfare(trial, accepted), tx_bytes, transcript))
    return out


@dataclass(frozen=True)
class SummaryRow:
    point_index: int
    point_value: object
    algo: str
    trials: int
    welfare_mean: float
    welfare_median: float
    welfare_p5: float
    welfare_p95: float
    rental_mean: float | None
    ratio_defined: int
    ratio_undefined: int
    ratio_mean: float | None
    ratio_median: float | None
    ratio_p5: float | None
    ratio_p95: float | None
    ratio_max: float | None
    alpha_mean: float
    alpha_max: float
    runtime_median_ns: float | None
    runtime_vs_posted: float | None
    transcript_bytes_mean: float | None


def _percentiles(values: Sequence[float]) -> tuple[float, float, float, float]:
    arr = np.asarray(values, dtype=float)
    return (
        float(arr.mean()),
        float(np.median(arr)),
        float(np.percentile(arr, 5)),
        float(np.percentile(arr, 95)),
    )


def aggregate(metrics: Sequence[TrialMetrics]) -> list[SummaryRow]:
    """Per (sweep point, algorithm) statistics over the trial batch."""
    if not metrics:
        raise HarnessError("nothing to aggregate")
    groups: dict[tuple[int, str], list[TrialMetrics]] = {}
    for record in metrics:
        groups.setdefault((record.point_index, record.algo), []).append(record)
    posted_runtime: dict[int, float] = {}
    for (point_index, algo), records in groups.items():
        if algo == "posted_price":
            runtimes = [r.runtime_ns for r in records if r.runtime_ns is not None]
            if runtimes:
                posted_runtime[point_index] = float(np.median(runtimes))
    rows = []
    for (point_index, algo), records in groups.items():
        welfare_mean, welfare_median, welfare_p5, welfare_p95 = _percentiles(
            [r.welfare for r in records]
        )
        rentals = [r.rental_rate for r in records if r.rental_rate is not None]
        ratios = [r.ratio for r in records if r.ratio is not None]
        runtimes = [r.runtime_ns for r in records if r.runtime_ns is not None]
        tx = [r.transcript_bytes for r in records if r.transcript_bytes is not None]
        if ratios:
            ratio_mean, ratio_median, ratio_p5, ratio_p95 = _percentiles(ratios)
            ratio_max = float(max(ratios))
        else:
            ratio_mean = ratio_median = ratio_p5 = ratio_p95 = ratio_max = None
        alphas = [r.theoretical_alpha for r in records]
        runtime_median = float(np.median(runtimes)) if runtimes else None
        base_runtime = posted_runtime.get(point_index)
        normalized = (
            runtime_median / base_runtime
            if runtime_median is not None and base_runtime
            else None
        )
        rows.append(
            SummaryRow(
                point_index=point_index,
                point_value=records[0].point_value,
                algo=algo,
                trials=len(records),
                welfare_mean=welfare_mean,
                welfare_median=welfare_median,
                welfare_p5=welfare_p5,
                welfare_p95=welfare_p95,
                rental_mean=float(np.mean(rentals)) if rentals else None,
                ratio_defined=len(ratios),
                ratio_undefined=len(records) - len(ratios),
                ratio_mean=ratio_mean,
                ratio_median=ratio_median,
                ratio_p5=ratio_p5,
                ratio_p95=ratio_p95,
                ratio_max=ratio_max,
                alpha_mean=float(np.mean(alphas)),
                alpha_max=float(max(alphas)),
                runtime_median_ns=runtime_median,
                runtime_vs_posted=normalized,
                transcript_bytes_mean=float(np.mean(tx)) if tx else None,
            )
        )
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return json.dumps(list(value))
    return str(value)


def trials_csv(metrics: Sequence[TrialMetrics]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(TRIAL_CSV_HEADER.split(","))
    for r in metrics:
        writer.writerow(
            [
                r.trial, r.algo, r.tenants, r.resources, r.seed,
                _fmt(r.welfare), _fmt(r.rental_rate), _fmt(r.ratio),
                _fmt(r.theoretical_alpha), _fmt(r.runtime_ns), _fmt(r.transcript_bytes),
            ]
        )
    return buffer.getvalue()


def summary_csv(rows: Sequence[SummaryRow]) -> str:
    names = [f.name for f in fields(SummaryRow)]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(names)
    for r in rows:
        writer.writerow([_fmt(getattr(r, name)) for name in names])
    return buffer.getvalue()


def plot_data(rows: Sequence[SummaryRow], axis: str | None) -> dict:
    """Per-algorithm series against the sweep axis, ready for plotting."""
    points: dict[int, object] = {}
    for r in rows:
        points[r.point_index] = r.point_value
    xs = [points[i] for i in sorted(points)]
    series: dict[str, dict[str, list]] = {}
    for r in sorted(rows, key=lambda r: r.point_index):
        entry = series.setdefault(
            r.algo,
            {"welfare_mean": [], "welfare_median": [], "ratio_median": [], "rental_mean": []},
        )
        entry["welfare_mean"].append(r.welfare_mean)
        entry["welfare_median"].append(r.welfare_median)
        entry["ratio_median"].append(r.ratio_median)
        entry["rental_mean"].append(r.rental_mean)
    return {
        "axis": axis,
        "x": [list(x) if isinstance(x, (tuple, list)) else x for x in xs],
        "series": series,
    }


def emit(
    metrics: Sequence[TrialMetrics],
    rows: Sequence[SummaryRow],
    out_dir: str | Path,
    axis: str | None = None,
) -> dict[str, Path]:
    """Write trials.csv, summary.csv, plot_data.json and optional transcripts."""
    out_dir = Path(out_dir)
    paths: dict[str, Path] = {}

    def write(name: str, content: str) -> Path:
        path = out_dir / name
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content)
        except OSError as exc:
            raise EmitError(path, exc) from exc
        paths[name] = path
        return path

    write("trials.csv", trials_csv(metrics))
    write("summary.csv", summary_csv(rows))
    write("plot_data.json", json.dumps(plot_data(rows, axis), indent=2, sort_keys=True) + "\n")
    for r in metrics:
        if r.transcript is not None:
            write(
                f"transcripts/{r.algo}_point{r.point_index}_trial{r.trial}.jsonl",
                transcript_to_jsonl(r.transcript),
            )
    return paths
