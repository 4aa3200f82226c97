"""Benchmark rounds in a fresh process.

Sets up (imports ``slicemarket`` from the checkout's ``src`` plus scipy/HiGHS
and jsonschema, then warms every layer the workload uses at tiny size), then
runs rounds of the workload's pieces and prints one JSON line: set-up time,
the time of every piece in every round with the reference times around it
(see ``reference_kernel``), peak RSS, artifact digests and, with
``--mode traced``, the per-layer metrics or, with ``--mode profile``, a
cProfile top-10.  ``run.py`` starts it; it can also be run by hand:

    python3 bench/child.py --workload trial_default --seed 0 --out .bench_out/x

``--mode plain`` runs rounds until ``--budget`` seconds have passed since
set-up (at least one); ``traced`` runs a warm-up round, then one untraced
and one traced round;
``profile`` runs each piece once under cProfile.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import slicemarket
    except ImportError as exc:
        sys.exit(f"error: cannot import slicemarket from {SRC}: {exc}")
    if not Path(slicemarket.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: slicemarket was imported from {slicemarket.__file__}, not from {SRC}")


def _profile_top10(profiler) -> str:
    import io
    import pstats

    out = io.StringIO()
    pstats.Stats(profiler, stream=out).sort_stats("tottime").print_stats(10)
    return out.getvalue()


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of work, about 20 ms on a 2.1 GHz Xeon:
    half interpreter work (dict updates, integer arithmetic, a keyed sort),
    half small numpy calls (matrix products, a sort, a cumulative sum), as
    the workloads mix both.  Run between pieces, it measures the host's speed
    at that moment: on a shared host a piece's time divided by the reference
    times around it drifts far less than the piece's time alone."""
    import numpy as np

    rng = np.random.default_rng(0)
    matrix, vector = rng.random((100, 100)), rng.random(20_000)
    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(30_000):
        table[i % 997] = table.get(i % 997, 0) + i
        total += i * i % 7
    order = sorted(range(15_000), key=lambda x: (x * 7919) % 10_007)
    for _ in range(25):
        product = matrix @ matrix
        total += int(np.sort(vector)[0] + np.cumsum(vector)[-1] + product[0, 0])
    if total + order[0] < 0:
        raise AssertionError("unreachable")
    return time.perf_counter() - start


def run_round(workload: str, seeds: list[int], out: Path, tiny: bool) -> dict:
    """Every piece once: its time, the reference times before and after it,
    its artifact digests and failed units.  Digests and reference times are
    taken between pieces, outside the timed calls."""
    import workloads

    times, digests, results = [], [], []
    refs = [reference_kernel()]
    failed = 0
    for index, seed in enumerate(seeds):
        start = time.perf_counter()
        result = workloads.run_piece(workload, seed, out / f"piece{index}", tiny)
        times.append(time.perf_counter() - start)
        refs.append(reference_kernel())
        digests.append(workloads.artifacts(result))
        failed += workloads.failed_units(result)
        results.append(result)
    return {"times": times, "refs": refs, "digests": digests, "failed": failed, "results": results}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="scratch directory for the pieces' artifacts")
    parser.add_argument("--mode", choices=("plain", "traced", "profile"), default="plain")
    parser.add_argument("--budget", type=float, default=0.0, help="seconds of plain rounds after set-up")
    parser.add_argument("--tiny", action="store_true", help="run the workload at smoke-test size")
    parser.add_argument("--quality", action="store_true", help="also report posted_ratio_median")
    args = parser.parse_args()
    out = Path(args.out)

    _import_program()
    import tracing
    import workloads

    # one call of every layer the workload uses, at tiny size
    workloads.run_piece(args.workload, args.seed, out / "warmup", tiny=True)
    setup_s = time.perf_counter() - START

    seeds = workloads.piece_seeds(args.workload, args.seed, args.tiny)
    report = {"setup_s": setup_s, "units": workloads.units(args.workload, args.tiny), "error": None}
    rounds: list[dict] = []
    tracer = profiler = None
    try:
        if args.mode == "plain":
            begin = last = time.perf_counter()
            while not rounds or 2 * time.perf_counter() - begin - last <= args.budget:
                last = time.perf_counter()
                rounds.append(run_round(args.workload, seeds, out, args.tiny))
        elif args.mode == "traced":
            # the first full-size round in a process runs slow; the second is the untraced one
            run_round(args.workload, seeds, out, args.tiny)
            rounds.append(run_round(args.workload, seeds, out, args.tiny))
            tracer = tracing.Tracer()
            report["untraced"] = tracing.install(tracer)
            rounds.append(run_round(args.workload, seeds, out, args.tiny))
        else:
            import cProfile

            # the pieces alone, without the reference kernel between them
            profiler = cProfile.Profile()
            for index, seed in enumerate(seeds):
                profiler.runcall(workloads.run_piece, args.workload, seed, out / f"piece{index}", args.tiny)
    except Exception:  # a failing piece is measured and reported, not fatal
        report["error"] = traceback.format_exc()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None and report["error"] is None:
        # before the untimed quality check below, which still goes through the wrappers
        report["layers"] = tracing.layer_metrics(tracer, sum(rounds[-1]["times"]))
        report["dominant_layer"] = tracing.dominant_layer(tracer)
    if profiler is not None:
        report["profile"] = _profile_top10(profiler)
    if args.quality and rounds:
        report["posted_ratio_median"] = workloads.posted_ratio_median(
            args.workload, args.seed, rounds[0]["results"], args.tiny
        )
    report["rounds"] = [{key: r[key] for key in ("times", "refs", "digests", "failed")} for r in rounds]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
