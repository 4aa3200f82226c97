"""No float passes through the builtin ``sum()`` on the artifact path.

From Python 3.12 on, ``sum()`` adds floats with compensation, so a float
``sum()`` anywhere between a spec and its artifacts, or in the ``verify``
suites, would make their bytes depend on the Python version.  The fence wraps
``builtins.sum`` and records every call whose items or start value include a
float (numpy's float64 is one).
"""

import builtins

import pytest

from slicemarket.baselines import GaParams
from slicemarket.harness import ALGORITHMS, ExperimentSpec, aggregate, emit, run_trials
from slicemarket.verify import run_verification
from slicemarket.workload import GenConfig


@pytest.fixture
def float_sums(monkeypatch):
    """The list every float ``sum()`` call is recorded in while the test runs."""
    calls = []
    real_sum = builtins.sum

    def fenced(iterable, /, start=0):
        items = list(iterable)
        if isinstance(start, float) or any(isinstance(item, float) for item in items):
            calls.append((items, start))
        return real_sum(items, start)

    monkeypatch.setattr(builtins, "sum", fenced)
    return calls


def test_the_fence_records_a_float_sum(float_sums):
    assert sum([1, 2]) == 3 and sum([], 0) == 0
    assert float_sums == []
    sum([0.5, 0.25])
    sum([1], 0.0)
    assert float_sums == [([0.5, 0.25], 0), ([1], 0.0)]


def test_no_float_sum_from_spec_to_artifacts(float_sums, tmp_path):
    spec = ExperimentSpec(
        algos=ALGORITHMS,
        base_config=GenConfig(),
        axis="tenants",
        values=(8, 25, 30),
        trials=1,
        seed=7,
        transcripts=True,
        ga_params=GaParams(population=10, generations=5),
    )
    metrics = run_trials(spec)
    emit(metrics, aggregate(metrics), tmp_path, axis=spec.axis)
    assert float_sums == []


def test_no_float_sum_in_verify(float_sums):
    assert run_verification(40, 40, 40) == []
    assert float_sums == []
