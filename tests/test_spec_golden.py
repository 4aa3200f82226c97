"""Every shipped experiment spec's artifacts, pinned byte for byte.

Each ``specs/*.json`` runs at two trials with transcripts on, timing off and
a small genetic search; the SHA-256 digest of every artifact ``emit`` writes
is compared with ``spec_digests.json`` next to this file.  The digests cover
all five algorithms, the exact and LP-bound references and every sweep axis,
so a refactor that changes any welfare, mask, payment or transcript byte
fails here.  Re-record them only for a stated change of behaviour:

    PYTHONPATH=src python tests/test_spec_golden.py
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from slicemarket.baselines import GaParams
from slicemarket.harness import ExperimentSpec, aggregate, emit, run_trials

ROOT = Path(__file__).resolve().parents[1]
SPEC_FILES = sorted((ROOT / "specs").glob("*.json"))
DIGEST_FILE = Path(__file__).with_name("spec_digests.json")


def spec_digests(path: Path, out_dir: Path) -> dict[str, str]:
    """The SHA-256 digest of every artifact of the spec at ``path``, by name."""
    spec = replace(
        ExperimentSpec.load(path),
        trials=2,
        transcripts=True,
        timing=False,
        ga_params=GaParams(population=20, generations=10),
    )
    metrics = run_trials(spec)
    paths = emit(metrics, aggregate(metrics), out_dir, axis=spec.axis)
    return {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in sorted(paths.items())}


@pytest.mark.parametrize("path", SPEC_FILES, ids=lambda path: path.stem)
def test_spec_artifacts_are_byte_identical(path, tmp_path):
    recorded = json.loads(DIGEST_FILE.read_text())
    assert spec_digests(path, tmp_path) == recorded[path.stem]


def test_every_spec_is_recorded():
    assert sorted(json.loads(DIGEST_FILE.read_text())) == [path.stem for path in SPEC_FILES]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        digests = {path.stem: spec_digests(path, Path(scratch) / path.stem) for path in SPEC_FILES}
    DIGEST_FILE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    sys.exit(0)
