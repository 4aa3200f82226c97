"""The four benchmark workloads: inputs from a seed, pieces, and their digests.

A round of a workload is a fixed list of pieces, each a pass along the public
path a user drives: ``run_trials`` -> ``aggregate`` -> ``emit`` into a scratch
directory with timing off (what ``slicemarket run`` does), or
``run_verification`` (what ``slicemarket verify`` does).  Piece ``p`` of seed
``s`` runs with seed ``s * pieces + p``, so every input is derived from the
workload seed and two runs of a piece with the same seed must write
byte-identical artifacts.  Pieces are short (0.3 to 1 s) so that each can be
repeated often enough within a run to be timed at the host's full speed.

``slicemarket`` is imported inside the functions: ``run.py`` imports this
module for the names alone and must not pay for scipy or jsonschema.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

WORKLOADS = ("trial_default", "online_large", "offline_mid", "verify_default")

#: Seed whose artifact digests are recorded in ``digests.json``.
DEFAULT_SEED = 0

#: Pieces in one round of each workload; tiny rounds have at most two.
PIECES = {"trial_default": 8, "online_large": 1, "offline_mid": 6, "verify_default": 10}

# sessions, setups, instances per piece: ten pieces make the CLI's default
# run_verification(1000, 1000, 1000)
VERIFY_SIZES = (100, 100, 100)
TINY_VERIFY_SIZES = (5, 5, 5)

#: ``verify_default`` has no posted-price trials of its own; its quality number
#: comes from this many untimed posted-price trials at the verify suite's scale.
QUALITY_TRIALS = 200
TINY_QUALITY_TRIALS = 5

#: A trial workload whose round has fewer posted-price trials than this
#: (online_large has one) takes its quality number from this many untimed
#: posted-price trials of the same market instead: one trial's ratio varies
#: by about 10 % from seed to seed.
MIN_QUALITY_TRIALS = 6


def piece_seeds(workload: str, seed: int, tiny: bool = False) -> list[int]:
    """The seed of every piece in one round."""
    count = PIECES[workload]
    return [seed * count + piece for piece in range(min(count, 2) if tiny else count)]


def trial_spec(workload: str, seed: int, tiny: bool = False):
    """The experiment spec one piece of a trial workload runs."""
    from slicemarket.baselines import GaParams
    from slicemarket.harness import ALGORITHMS, ExperimentSpec
    from slicemarket.workload import GenConfig

    if workload == "trial_default":
        spec = ExperimentSpec(
            algos=ALGORITHMS, base_config=GenConfig(), trials=3, seed=seed,
            oracle="auto", transcripts=True,
        )
        # 30 tenants keeps oracle="auto" on the LP bound, as at N=100
        small = dict(
            base_config=GenConfig(tenant_count=30), trials=1,
            ga_params=GaParams(population=10, generations=5),
        )
    elif workload == "online_large":
        spec = ExperimentSpec(
            algos=("posted_price", "myopic", "random"),
            base_config=GenConfig(tenant_count=20_000), trials=1, seed=seed, oracle="lp",
        )
        small = dict(base_config=GenConfig(tenant_count=300))
    elif workload == "offline_mid":
        spec = ExperimentSpec(
            algos=("posted_price", "auction"),
            base_config=GenConfig(tenant_count=2000), trials=2, seed=seed, oracle="exact",
        )
        small = dict(base_config=GenConfig(tenant_count=40), trials=1)
    else:
        raise ValueError(f"{workload!r} is not a trial workload")
    return replace(spec, **small) if tiny else spec


def verify_sizes(tiny: bool = False) -> tuple[int, int, int]:
    return TINY_VERIFY_SIZES if tiny else VERIFY_SIZES


def units(workload: str, tiny: bool = False) -> int:
    """Units one round attempts: trials, tenants (online_large) or checked items."""
    pieces = len(piece_seeds(workload, 0, tiny))
    if workload == "verify_default":
        return pieces * sum(verify_sizes(tiny))
    spec = trial_spec(workload, 0, tiny)
    if workload == "online_large":
        return pieces * spec.trials * spec.base_config.tenant_count
    return pieces * spec.trials


@dataclass
class TrialPass:
    metrics: list
    paths: dict


@dataclass
class VerifyPass:
    problems: list


def run_piece(workload: str, seed: int, out_dir: Path, tiny: bool = False):
    """The timed work of one piece, given its own seed.  Module attributes are
    looked up at call time, so wrappers installed by the tracer see every call."""
    from slicemarket import harness, verify

    if workload == "verify_default":
        sessions, setups, instances = verify_sizes(tiny)
        return VerifyPass(verify.run_verification(sessions, setups, instances, seed))
    spec = trial_spec(workload, seed, tiny)
    metrics = harness.run_trials(spec)
    rows = harness.aggregate(metrics)
    paths = harness.emit(metrics, rows, out_dir, axis=spec.axis)
    return TrialPass(metrics, paths)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifacts(result) -> dict[str, str]:
    """SHA-256 of every artifact the piece produced, keyed by its name."""
    if isinstance(result, VerifyPass):
        return {"violations": _sha256("\n".join(result.problems).encode())}
    return {name: _sha256(path.read_bytes()) for name, path in sorted(result.paths.items())}


def failed_units(result) -> int:
    """Checked items that reported a violation; a trial piece that returned has none."""
    if isinstance(result, VerifyPass):
        # every message starts with "session 3 ", "setup 3:" or "instance 3 "
        return len({" ".join(p.split()[:2]).rstrip(":") for p in result.problems})
    return 0


def _posted_ratios(metrics) -> list[float]:
    return [m.ratio for m in metrics if m.algo == "posted_price" and m.ratio is not None]


def posted_ratio_median(workload: str, seed: int, results: list, tiny: bool = False) -> float:
    """Median over trials of reference welfare / posted-price welfare, over
    the pieces of one round or untimed trials of the same kind."""
    from slicemarket.harness import ExperimentSpec, run_trials
    from slicemarket.workload import GenConfig

    if workload == "verify_default":
        # small exact-oracle markets, the scale the verify suites draw from
        spec = ExperimentSpec(
            algos=("posted_price",), base_config=GenConfig(tenant_count=20),
            trials=TINY_QUALITY_TRIALS if tiny else QUALITY_TRIALS, seed=seed, oracle="exact",
        )
        return statistics.median(_posted_ratios(run_trials(spec)))
    ratios = [ratio for result in results for ratio in _posted_ratios(result.metrics)]
    if len(ratios) < MIN_QUALITY_TRIALS and not tiny:
        spec = replace(trial_spec(workload, seed), algos=("posted_price",), trials=MIN_QUALITY_TRIALS)
        ratios = _posted_ratios(run_trials(spec))
    return statistics.median(ratios)
