"""The benchmark's session counter reads a transcript message by message.

``bench/tracing.py``'s ``_count_session``, the ``--trace 1`` session counter,
takes ``len(ledger.transcript)`` and each message's ``outcome`` from the
``TranscriptEntry`` view that ``Transcript`` builds on access; its counts
must equal the transcript's columns.  (Acceptance criterion 10, the other
reader of that view, runs in ``test_acceptance.py``.)
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from slicemarket.protocol import FAIL, SKIP, SUCC, run_posted_price
from slicemarket.verify import _random_config
from slicemarket.workload import GenConfig, generate_instance

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_the_bench_session_counter_counts_the_columns():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # verify markets and overfull ones, so every outcome occurs
    rng = np.random.default_rng(2720)
    configs = [_random_config(rng) for _ in range(60)]
    for _ in range(60):
        n = int(rng.integers(2, 50))
        demand_mean = float(rng.uniform(3.0, 8.0)) / n
        configs.append(GenConfig(n, int(rng.integers(1, 4)), demand_mean=demand_mean, seed=int(rng.integers(2**32))))
    counts, expected = Counter(), Counter()
    for config in configs:
        instance = generate_instance(config)
        result = run_posted_price(instance, rng.permutation(instance.tenant_count))
        tracing._count_session(counts, result)
        outcomes = result.ledger.transcript.outcomes
        expected["protocol.run_session.arrivals"] += len(outcomes)
        for outcome in (SUCC, FAIL, SKIP):
            expected[f"protocol.outcome.{outcome.lower()}"] += outcomes.count(outcome)
    assert counts == expected
    assert len(expected) == 4 and min(expected.values()) > 0
