"""Smoke check of the benchmark at tiny sizes.

    python3 bench/smoke.py

Checks that BENCHMARK.json names exactly the workloads and metrics the
benchmark code defines, then runs every workload at tiny size with tracing
off and on and checks that each run is correct and emits every metric named
in BENCHMARK.json, with its unit.  Exits 1 on the first class of problem
found, listing each one.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads
from run import END_TO_END
from tracing import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def check_declaration(bench: dict) -> list[str]:
    problems = []
    names = tuple(w["name"] for w in bench["workloads"])
    if names != workloads.WORKLOADS:
        problems.append(f"workloads {names} != {workloads.WORKLOADS}")
    declared = tuple((m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"])
    if declared != END_TO_END:
        problems.append(f"end_to_end {declared} != {END_TO_END}")
    declared = tuple((m["name"], m["unit"], m["better"]) for m in bench["per_layer"])
    if declared != LAYER_METRICS:
        problems.append(f"per_layer {declared} != {LAYER_METRICS}")
    return problems


def check_run(workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(expected.keys() - got.keys())}, "
                        f"extra {sorted(got.keys() - expected.keys())}, "
                        f"unit mismatches {sorted(n for n in got.keys() & expected.keys() if got[n] != expected[n])}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number: {metric['value']!r}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_declaration(bench)
    if not problems:
        for workload in workloads.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                expected = {m["name"]: m["unit"] for m in bench[section]}
                problems += check_run(workload, trace, expected)
                print(f"{workload} --trace {trace}: {'ok' if not problems else 'FAIL'}")
    for problem in problems:
        print(f"FAIL {problem}")
    if problems:
        return 1
    print("smoke: every workload emits every metric in BENCHMARK.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
