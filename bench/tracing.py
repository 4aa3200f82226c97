"""Spans around the package's public layer boundaries, installed from outside.

``install`` replaces the module attributes that callers look up at call time
with wrappers that record a span per call.  Spans stay in memory as
``[name, parent, start_ns, end_ns]``; a layer's self time is its spans'
duration minus the time covered by their child spans.  Counts come from the
returned values and are taken inside a ``trace.counters`` span, so the time
spent counting is not charged to any layer.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

#: Every per-layer metric the traced run reports: (name, unit, better).
LAYER_METRICS = (
    ("baselines.ga_heuristic.calls", "count", "lower"),
    ("baselines.ga_heuristic.self_s", "s", "lower"),
    ("protocol.run_session.calls", "count", "lower"),
    ("protocol.run_session.self_s", "s", "lower"),
    ("protocol.run_session.arrivals", "count", "lower"),
    ("protocol.run_session.us_per_arrival", "us", "lower"),
    ("baselines.myopic_slicing.self_s", "s", "lower"),
    ("protocol.outcome.succ", "count", "higher"),
    ("protocol.outcome.fail", "count", "lower"),
    ("protocol.outcome.skip", "count", "lower"),
    ("protocol.accept_ratio", "ratio", "higher"),
    ("protocol.validate_transcript_record.calls", "count", "lower"),
    ("protocol.validate_transcript_record.self_s", "s", "lower"),
    ("protocol.validate_transcript_record.us_per_record", "us", "lower"),
    ("workload.generate_instance.calls", "count", "lower"),
    ("workload.generate_instance.self_s", "s", "lower"),
    ("workload.generate_instance.us_per_tenant", "us", "lower"),
    ("workload.validate_instance.calls", "count", "lower"),
    ("workload.validate_instance.self_s", "s", "lower"),
    ("baselines.utility_bid_auction.calls", "count", "lower"),
    ("baselines.utility_bid_auction.self_s", "s", "lower"),
    ("baselines.utility_bid_auction.rounds", "count", "lower"),
    ("baselines.utility_bid_auction.bids", "count", "lower"),
    ("oracle.offline_exact.calls", "count", "lower"),
    ("oracle.offline_exact.self_s", "s", "lower"),
    ("oracle.offline_exact.nodes", "count", "lower"),
    ("oracle.offline_exact.budget_exhausted", "count", "lower"),
    ("oracle.lp_upper_bound.calls", "count", "lower"),
    ("oracle.lp_upper_bound.self_s", "s", "lower"),
    ("baselines.random_slicing.calls", "count", "lower"),
    ("baselines.random_slicing.self_s", "s", "lower"),
    ("pricing.build_schedule.calls", "count", "lower"),
    ("pricing.build_schedule.self_s", "s", "lower"),
    ("market.social_welfare.calls", "count", "lower"),
    ("market.social_welfare.self_s", "s", "lower"),
    ("protocol.transferred_data_bytes.self_s", "s", "lower"),
    ("protocol.transcript_to_jsonl.calls", "count", "lower"),
    ("protocol.transcript_to_jsonl.self_s", "s", "lower"),
    ("protocol.transcript_to_jsonl.bytes", "B", "lower"),
    ("harness.run_trials.self_s", "s", "lower"),
    ("harness.aggregate.self_s", "s", "lower"),
    ("harness.emit.self_s", "s", "lower"),
    ("harness.emit.bytes", "B", "lower"),
    ("harness.emit.files", "count", "lower"),
    ("verify.check_session.self_s", "s", "lower"),
    ("verify.session_suite.self_s", "s", "lower"),
    ("verify.pricing_suite.self_s", "s", "lower"),
    ("verify.workload_suite.self_s", "s", "lower"),
    ("verify.violations", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.counters_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

COUNTERS_SPAN = "trace.counters"


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent id, start_ns, end_ns]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _enter(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, parent, time.perf_counter_ns(), 0])
        self._open.append(span_id)
        return span_id

    def _exit(self, span_id: int) -> None:
        self.spans[span_id][3] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call, then ``count(counts, result)``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span_id)
            if count is not None:
                counter_id = self._enter(COUNTERS_SPAN)
                try:
                    count(self.counts, result)
                finally:
                    self._exit(counter_id)
            return result

        return traced

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: self time in seconds and number of calls."""
        covered = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for span_id, (name, _, start, end) in enumerate(self.spans):
            self_ns[name] += end - start - covered[span_id]
            calls[name] += 1
        return Counter({name: ns / 1e9 for name, ns in self_ns.items()}), calls


def _count_session(counts: Counter, result) -> None:
    from slicemarket.protocol import FAIL, SKIP, SUCC

    transcript = result.ledger.transcript
    outcomes = Counter(entry.outcome for entry in transcript)
    counts["protocol.run_session.arrivals"] += len(transcript)
    counts["protocol.outcome.succ"] += outcomes[SUCC]
    counts["protocol.outcome.fail"] += outcomes[FAIL]
    counts["protocol.outcome.skip"] += outcomes[SKIP]


def _count_instance(counts: Counter, instance) -> None:
    counts["workload.generate_instance.tenants"] += instance.tenant_count


def _count_oracle(counts: Counter, result) -> None:
    counts["oracle.offline_exact.nodes"] += result.nodes_explored
    counts["oracle.offline_exact.budget_exhausted"] += not result.exact


def _count_auction(counts: Counter, result) -> None:
    counts["baselines.utility_bid_auction.rounds"] += result.rounds
    counts["baselines.utility_bid_auction.bids"] += result.bids_submitted


def _count_jsonl(counts: Counter, text: str) -> None:
    counts["protocol.transcript_to_jsonl.bytes"] += len(text.encode())


def _count_emit(counts: Counter, paths: dict) -> None:
    counts["harness.emit.files"] += len(paths)
    counts["harness.emit.bytes"] += sum(path.stat().st_size for path in paths.values())


def _count_violations(counts: Counter, problems: list) -> None:
    counts["verify.violations"] += len(problems)


#: The layer functions the traced run times, by defining module, each with
#: the counter applied to its return value.
LAYER_FUNCTIONS = (
    ("harness", "run_trials", None),
    ("harness", "aggregate", None),
    ("harness", "emit", _count_emit),
    ("verify", "run_verification", _count_violations),
    ("verify", "session_suite", None),
    ("verify", "pricing_suite", None),
    ("verify", "workload_suite", None),
    ("verify", "check_session", None),
    ("workload", "generate_instance", _count_instance),
    ("workload", "validate_instance", None),
    ("pricing", "build_schedule", None),
    ("market", "social_welfare", None),
    ("oracle", "offline_exact", _count_oracle),
    ("oracle", "lp_upper_bound", None),
    ("protocol", "run_session", _count_session),
    ("protocol", "transferred_data_bytes", None),
    ("protocol", "transcript_to_jsonl", _count_jsonl),
    ("protocol", "validate_transcript_record", None),
    ("baselines", "ga_heuristic", None),
    ("baselines", "utility_bid_auction", _count_auction),
    ("baselines", "myopic_slicing", None),
    ("baselines", "random_slicing", None),
)


def install(tracer: Tracer) -> list[str]:
    """Replace every binding of each layer function in the loaded package
    modules (``slicemarket.harness.ga_heuristic``,
    ``slicemarket.baselines.run_session``, ...) with a traced wrapper, so a
    call is timed whichever module it is made from.  Returns the layer
    functions the package no longer defines; their metrics read 0."""
    modules = [m for name, m in sys.modules.items() if name == "slicemarket" or name.startswith("slicemarket.")]
    missing = []
    for module_name, function, count in LAYER_FUNCTIONS:
        name = f"{module_name}.{function}"
        original = getattr(importlib.import_module(f"slicemarket.{module_name}"), function, None)
        if original is None:
            missing.append(name)
            continue
        traced = tracer.wrap(name, original, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
    return missing


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s``, which needs the
    untraced pass; a layer the workload does not use reports 0."""
    self_s, calls = tracer.self_times()
    counts = tracer.counts
    values: dict[str, float] = dict(counts)
    for layer in self_s:
        values[f"{layer}.self_s"] = self_s[layer]
        values[f"{layer}.calls"] = calls[layer]
    arrivals = counts["protocol.run_session.arrivals"]
    records = calls["protocol.validate_transcript_record"]
    tenants = counts["workload.generate_instance.tenants"]
    values.update(
        {
            "protocol.accept_ratio": _per(counts["protocol.outcome.succ"], arrivals),
            "protocol.run_session.us_per_arrival": _per(self_s["protocol.run_session"], arrivals, 1e6),
            "protocol.validate_transcript_record.us_per_record": _per(
                self_s["protocol.validate_transcript_record"], records, 1e6
            ),
            "workload.generate_instance.us_per_tenant": _per(
                self_s["workload.generate_instance"], tenants, 1e6
            ),
            "trace.wall_s": wall_s,
            "trace.self_sum_s": sum(self_s.values()),
            "trace.counters_s": self_s[COUNTERS_SPAN],
        }
    )
    return {name: values.get(name, 0) for name, _, _ in LAYER_METRICS if name != "trace.overhead_s"}


def dominant_layer(tracer: Tracer) -> tuple[str, float]:
    """The span name with the largest self time, and that self time."""
    self_s, _ = tracer.self_times()
    name, seconds = max(self_s.items(), key=lambda item: item[1])
    return name, seconds
