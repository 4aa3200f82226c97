"""Command-line interface.

Verbs:
  run     execute an experiment spec file
  sweep   one-axis sweep assembled from flags
  verify  randomized invariant and property suites
  oracle  solve a single instance file offline

Exit codes: 0 success, 2 validation failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import replace

from .harness import (
    ALGORITHMS,
    AXES,
    ORACLE_MODES,
    EmitError,
    ExperimentSpec,
    aggregate,
    emit,
    run_trials,
)
from .market import MarketError
from .oracle import DEFAULT_NODE_BUDGET, lp_upper_bound, offline_exact
from .verify import run_verification
from .workload import GenConfig, Instance, validate_instance

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3

#: The algorithms a sweep compares when ``--algos`` is not given.
SWEEP_ALGOS = ("posted_price", "myopic", "random")


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _pair_list(text: str) -> list[tuple[float, float]]:
    pairs = []
    for part in text.split(","):
        if not part:
            continue
        lo, hi = part.split(":")
        pairs.append((float(lo), float(hi)))
    return pairs


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algos", default=None, help=f"comma list from {','.join(ALGORITHMS)}")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory for CSV/JSON artifacts")
    parser.add_argument("--oracle", choices=ORACLE_MODES, default=None)
    parser.add_argument("--transcripts", choices=("on", "off"), default=None)
    parser.add_argument("--timing", choices=("on", "off"), default=None)


def _spec_with_overrides(spec: ExperimentSpec, args: argparse.Namespace) -> ExperimentSpec:
    updates = {}
    if args.algos is not None:
        updates["algos"] = tuple(args.algos.split(","))
    if args.trials is not None:
        updates["trials"] = args.trials
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.oracle is not None:
        updates["oracle"] = args.oracle
    if args.transcripts is not None:
        updates["transcripts"] = args.transcripts == "on"
    if args.timing is not None:
        updates["timing"] = args.timing == "on"
    return replace(spec, **updates) if updates else spec


def _execute(spec: ExperimentSpec, out: str | None) -> int:
    metrics = run_trials(spec)
    rows = aggregate(metrics)
    if out is not None:
        paths = emit(metrics, rows, out, axis=spec.axis)
        for name in sorted(paths):
            print(paths[name])
    else:
        for row in rows:
            print(
                f"point={row.point_value} algo={row.algo} trials={row.trials} "
                f"welfare_median={row.welfare_median:.6g} ratio_median="
                f"{'n/a' if row.ratio_median is None else format(row.ratio_median, '.6g')}"
            )
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_with_overrides(ExperimentSpec.load(args.spec), args)
    return _execute(spec, args.out if args.out is not None else spec.out)


def _cmd_sweep(args: argparse.Namespace) -> int:
    flags = {  # sweep axis -> parsed flag values
        "tenants": args.n,
        "resources": args.c,
        "demand_mean": args.demand_mean,
        "unit_cost_range": args.q_range,
        "pay_level_range": args.pay_level,
    }
    given = {axis: values for axis, values in flags.items() if values}
    multi = [(axis, values) for axis, values in given.items() if len(values) > 1]
    if len(multi) > 1:
        print("error: exactly one flag may carry multiple sweep values", file=sys.stderr)
        return EXIT_VALIDATION

    # the first value of each given flag sets the base market; GenConfig supplies the rest
    config = GenConfig(**{AXES[axis]: values[0] for axis, values in given.items()})
    axis, values = multi[0] if multi else (None, ())
    spec = ExperimentSpec(algos=SWEEP_ALGOS, base_config=config, axis=axis, values=tuple(values))
    return _execute(_spec_with_overrides(spec, args), args.out)


def _cmd_verify(args: argparse.Namespace) -> int:
    totals: Counter = Counter()
    problems = run_verification(
        sessions=args.sessions, setups=args.setups, instances=args.instances, seed=args.seed, totals=totals
    )
    if problems:
        for line in problems[:50]:
            print(f"FAIL {line}")
        for family, count in totals.items():
            print(f"total {family}: {count} violation(s)", file=sys.stderr)
        print(f"{len(problems)} violation(s) found", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"PASS sessions={args.sessions} setups={args.setups} instances={args.instances}")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    instance = Instance.load(args.instance)
    problems = validate_instance(instance)
    if problems:
        for problem in problems:
            print(f"error: invalid instance: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.method == "lp":
        print(json.dumps({"method": "lp-upper-bound", "welfare": lp_upper_bound(instance), "exact": False}))
        return EXIT_OK
    result = offline_exact(instance, method=args.method, node_budget=args.node_budget)
    print(
        json.dumps(
            {
                "method": result.method,
                "welfare": result.welfare,
                "exact": result.exact,
                "upper_bound": result.upper_bound,
                "accepted": [int(i) for i in result.accepted.nonzero()[0]],
                "nodes_explored": result.nodes_explored,
            }
        )
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slicemarket", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment spec file")
    p_run.add_argument("--spec", required=True)
    _add_common_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="one-axis sweep from flags")
    p_sweep.add_argument("--n", type=_int_list, default=None, help="tenant counts, comma separated")
    p_sweep.add_argument("--c", type=_int_list, default=None, help="resource counts, comma separated")
    p_sweep.add_argument("--demand-mean", type=_float_list, default=None)
    p_sweep.add_argument("--q-range", type=_pair_list, default=None, help="lo:hi pairs, comma separated")
    p_sweep.add_argument("--pay-level", type=_pair_list, default=None, help="lo:hi pairs, comma separated")
    _add_common_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="randomized invariant suites")
    p_verify.add_argument("--sessions", type=_non_negative_int, default=1000)
    p_verify.add_argument("--setups", type=_non_negative_int, default=1000)
    p_verify.add_argument("--instances", type=_non_negative_int, default=1000)
    p_verify.add_argument("--seed", type=_non_negative_int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_oracle = sub.add_parser("oracle", help="solve one instance file offline")
    p_oracle.add_argument("--instance", required=True)
    p_oracle.add_argument(
        "--method", choices=("branch-and-bound", "exhaustive", "lp"), default="branch-and-bound"
    )
    p_oracle.add_argument("--node-budget", type=_positive_int, default=DEFAULT_NODE_BUDGET)
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, EmitError) as exc:  # an input path, or an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MarketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
