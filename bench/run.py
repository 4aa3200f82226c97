"""slicemarket benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload trial_default --seed 3 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
The load is a closed loop: one caller, one process at a time, no worker
threads, BLAS/OpenMP pools pinned to one thread.  A round of a workload is a
fixed list of short pieces (see ``workloads.py``); a process (``child.py``)
imports the package, warms each layer up and runs rounds.

``--trace 0`` splits ``--seconds`` over three fresh processes, each set up
once, and reports the end-to-end metrics.  The host's speed drifts by up to
2x over seconds to minutes, so times are reported relative to a fixed
reference kernel (``child.py``) run between pieces.  ``wall_per_ref`` sums,
over the pieces of a round, the median of each piece's time divided by the
mean of the reference times just before and after it; ``units_per_ref`` is a
round's units divided by that.  ``setup_s`` is the median over the processes
of set-up time times ``REFERENCE_S`` over the process's median reference
time: seconds on this host at its median speed.  Raw set-up and round times
are printed alongside.

``--trace 1`` runs a warm-up, an untraced and a traced round and reports the
per-layer metrics.  Either way the artifacts are checked: at the default seed
against the digests recorded in ``digests.json``, at any other seed round
against round.  The last line of standard output is the JSON result; the exit
code is 1 when a unit failed or an artifact differs, and 2 when the checkout
holds no program to measure.

Other modes, not timed:
    --profile         cProfile top-10 of each workload (or of --workload)
    --record-digests  rewrite digests.json from the default seed
    --tiny            every workload at smoke-test size (see smoke.py)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import workloads
from tracing import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"

#: (name, unit, better, bound), as in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_per_ref", "ratio", "lower", 0.25),
    ("units_per_ref", "1/ref", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.01),
    ("outputs_matched_ratio", "ratio", "higher", 0.01),
    ("posted_ratio_median", "ratio", "lower", 0.25),
)

#: The reference kernel's median time on the 2-vCPU Xeon host the bounds were
#: set on; ``setup_s`` is scaled to the host running at that speed.
REFERENCE_S = 0.018
#: Fresh processes of a --trace 0 run, each set up once.
SETUPS = 3
#: Set-up and start-up seconds assumed for a process before one was measured.
FIRST_OVERHEAD_S = 1.5
#: No process starts once the run would end past this, whatever --seconds says.
DEADLINE_S = 150.0
THREAD_PINS = dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"),
    "1",
)

EXIT_INCORRECT = 1
EXIT_NO_PROGRAM = 2


class BenchError(Exception):
    """A benchmark process could not deliver a report."""


def run_child(workload: str, seed: int, mode: str, tiny: bool, *, timeout: float,
              budget: float = 0.0, quality: bool = False) -> dict:
    """One process; returns its report plus the process time."""
    out = OUT / f"{workload}-{mode}"
    cmd = [
        sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed),
        "--out", str(out), "--mode", mode, "--budget", str(budget),
    ]
    cmd += ["--tiny"] * tiny + ["--quality"] * quality
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **THREAD_PINS},
            capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} process exceeded {timeout:.0f} s") from exc
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} {mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["process_s"] = time.perf_counter() - started
    if report["error"]:
        print(f"{workload} {mode} round failed:\n{report['error']}", file=sys.stderr)
    return report


def tally(children: list[dict]) -> tuple[int, int]:
    """(units attempted, units failed); a round that raised fails whole."""
    attempted = failed = 0
    for child in children:
        rounds = len(child["rounds"]) + bool(child["error"])
        attempted += rounds * child["units"]
        failed += sum(r["failed"] for r in child["rounds"]) + child["units"] * bool(child["error"])
    return attempted, failed


def recorded_digests(workload: str, seed: int, tiny: bool) -> list | None:
    if tiny or seed != workloads.DEFAULT_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def compare_artifacts(reference: list | None, rounds: list[dict]) -> tuple[int, int]:
    """(artifacts checked, artifacts whose digest differs).  Without recorded
    digests the first round is the reference for the others."""
    if reference is None:
        reference, rounds = rounds[0]["digests"], rounds[1:]
    checked = mismatched = 0
    for round_ in rounds:
        if len(round_["digests"]) != len(reference):
            raise BenchError(f"a round has {len(round_['digests'])} pieces, the reference {len(reference)}")
        for want, got in zip(reference, round_["digests"]):
            names = want.keys() | got.keys()
            checked += len(names)
            mismatched += sum(want.get(name) != got.get(name) for name in names)
    return checked, mismatched


def environment() -> dict:
    def pkg(name: str) -> str:
        try:
            return version(name)
        except PackageNotFoundError:
            return "missing"

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": pkg("numpy"),
        "scipy": pkg("scipy"),
        "jsonschema": pkg("jsonschema"),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads_pinned": THREAD_PINS["OMP_NUM_THREADS"],
    }


def relative_times(round_: dict) -> list[float]:
    """Each piece's time over the mean of the reference times just before and after it."""
    refs = round_["refs"]
    return [t / ((before + after) / 2) for t, before, after in zip(round_["times"], refs, refs[1:])]


def measure(args) -> tuple[list[dict], dict, int]:
    """Untraced rounds for --seconds in SETUPS processes: the processes, the
    end-to-end metrics and the number of mismatched artifacts."""
    children: list[dict] = []
    overheads: list[float] = []
    begin = time.perf_counter()
    for index in range(SETUPS):
        elapsed = time.perf_counter() - begin
        if elapsed > DEADLINE_S:
            break
        overhead = min(overheads, default=FIRST_OVERHEAD_S)
        budget = (args.seconds - elapsed) / (SETUPS - index) - overhead
        child = run_child(args.workload, args.seed, "plain", args.tiny, timeout=DEADLINE_S - elapsed,
                          budget=max(budget, 0.0), quality=not children)
        children.append(child)
        overheads.append(child["process_s"] - sum(sum(r["times"]) for r in child["rounds"]))
        if child["error"]:
            break
    rounds = [r for child in children for r in child["rounds"]]
    if not rounds:
        raise BenchError(f"{args.workload}: no round completed")
    pieces = list(zip(*(r["times"] for r in rounds)))
    relative = list(zip(*(relative_times(r) for r in rounds)))
    for index, child in enumerate(children, 1):
        refs = [ref for r in child["rounds"] for ref in r["refs"]]
        print(f"process {index}: setup_s {child['setup_s']:.4f}  rounds {len(child['rounds'])}  "
              f"peak_rss_mb {child['peak_rss_mb']:.1f}  process_s {child['process_s']:.4f}  "
              f"reference median {statistics.median(refs) * 1e3:.2f} ms")
    for index, (times, ratios) in enumerate(zip(pieces, relative)):
        print(f"piece {index}: {len(times)} runs  time fastest {min(times):.4f} median "
              f"{statistics.median(times):.4f} slowest {max(times):.4f} s  per reference median "
              f"{statistics.median(ratios):.3f}")
    attempted, failed = tally(children)
    checked, mismatched = compare_artifacts(recorded_digests(args.workload, args.seed, args.tiny), rounds)
    wall_per_ref = sum(statistics.median(ratios) for ratios in relative)
    setups = [
        c["setup_s"] * REFERENCE_S / statistics.median(ref for r in c["rounds"] for ref in r["refs"])
        for c in children if c["rounds"]
    ]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_per_ref": wall_per_ref,
        "units_per_ref": children[0]["units"] / wall_per_ref,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        "ok_ratio": 1 - failed / attempted,
        "outputs_matched_ratio": 1 - mismatched / checked if checked else 0.0,
        "posted_ratio_median": children[0].get("posted_ratio_median", 0.0),
    }
    print(f"rounds {len(rounds)}  units {attempted}  failed {failed}  "
          f"artifacts checked {checked}  mismatched {mismatched}")
    print(f"set-up: median {statistics.median(c['setup_s'] for c in children):.4f} s as measured")
    print(f"round wall time: median pieces {sum(statistics.median(t) for t in pieces):.4f} s, "
          f"fastest pieces {sum(min(t) for t in pieces):.4f} s")
    return children, metrics, mismatched


def measure_traced(args) -> tuple[list[dict], dict, int]:
    """After a warm-up round, one untraced and one traced round in one
    process: the process, the per-layer metrics and the number of
    mismatched artifacts."""
    child = run_child(args.workload, args.seed, "traced", args.tiny, timeout=DEADLINE_S)
    if child["error"]:
        return [child], {name: 0 for name, _, _ in LAYER_METRICS}, 0
    # each round's time relative to the reference kernel, so that a drift of
    # the host's speed between the two rounds is not taken for overhead
    plain, traced = (sum(relative_times(r)) for r in child["rounds"])
    reference_s = statistics.median(ref for r in child["rounds"] for ref in r["refs"])
    metrics = dict(child["layers"], **{"trace.overhead_s": (traced - plain) * reference_s})
    plain_s, traced_s = (sum(r["times"]) for r in child["rounds"])
    print(f"raw round times: untraced {plain_s:.4f} s, traced {traced_s:.4f} s")
    checked, mismatched = compare_artifacts(
        recorded_digests(args.workload, args.seed, args.tiny), child["rounds"]
    )
    if child["untraced"]:
        print(f"not defined by the package, reported as 0: {', '.join(child['untraced'])}")
    layer, seconds = child["dominant_layer"]
    attempted, _ = tally([child])
    print(f"units {attempted}  artifacts checked {checked}  mismatched {mismatched}")
    print(f"dominant layer: {layer} {seconds:.4f} s = {100 * seconds / traced_s:.1f} % of the traced wall")
    return [child], metrics, mismatched


def profile(args) -> int:
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        report = run_child(workload, args.seed, "profile", args.tiny, timeout=DEADLINE_S)
        print(f"== {workload} (seed {args.seed}, one round under cProfile)")
        print(report["profile"])
    return 0


def record_digests(args) -> int:
    recorded = {}
    for workload in workloads.WORKLOADS:
        report = run_child(workload, workloads.DEFAULT_SEED, "plain", False, timeout=DEADLINE_S)
        if report["error"] or tally([report])[1]:
            print(f"error: {workload} failed at the default seed; nothing recorded", file=sys.stderr)
            return EXIT_INCORRECT
        recorded[workload] = {str(workloads.DEFAULT_SEED): report["rounds"][0]["digests"]}
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    if not (SRC / "slicemarket" / "__init__.py").is_file():
        print(f"error: no slicemarket sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return EXIT_NO_PROGRAM
    try:
        if args.profile:
            return profile(args)
        if args.record_digests:
            return record_digests(args)
        if args.workload is None:
            parser.error("--workload is required")
        print("env " + json.dumps(environment()))
        if args.trace:
            children, metrics, mismatched = measure_traced(args)
            units = {name: unit for name, unit, _ in LAYER_METRICS}
        else:
            children, metrics, mismatched = measure(args)
            units = {name: unit for name, unit, _, _ in END_TO_END}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCORRECT
    finally:
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()

    attempted, failed = tally(children)
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    correct = failed == 0 and mismatched == 0 and not any(c["error"] for c in children)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else EXIT_INCORRECT


if __name__ == "__main__":
    sys.exit(main())
