"""The ``verify`` suites report what they find instead of always passing."""

from dataclasses import replace

import numpy as np
import pytest

from slicemarket import protocol, verify
from slicemarket.protocol import FAIL, SKIP, DualCertificate
from slicemarket.workload import GenConfig, WorkloadError, generate_instance


def _capacity(result):
    result.ledger.utilization = [1.5] + result.ledger.utilization[1:]


def _monotonicity(result):
    transcript = result.ledger.transcript
    transcript[0] = transcript[0]._replace(quote=tuple(2 * p for p in transcript[0].quote))


def _price_floor(result):
    result.ledger.prices = (0.0,) + result.ledger.prices[1:]


def _dual_feasibility(result):
    # zero surpluses against zero prices leave every tenant's constraint short
    zero = DualCertificate(np.zeros_like(result.certificate.surpluses), (0.0,) * len(result.ledger.prices))
    return replace(result, certificate=zero)


def _refund(result):
    transcript = result.ledger.transcript
    skip = next(i for i, entry in enumerate(transcript) if entry.outcome == SKIP)
    transcript[skip] = transcript[skip]._replace(outcome=FAIL)


@pytest.mark.parametrize(
    "family, doctor",
    [
        ("capacity", _capacity),
        ("monotonicity", _monotonicity),
        ("price floor", _price_floor),
        ("dual feasibility", _dual_feasibility),
        ("refund", _refund),
    ],
)
def test_check_session_reports_a_doctored_session(monkeypatch, family, doctor):
    instance = generate_instance(GenConfig(tenant_count=20, resource_count=2, seed=3))
    order = np.arange(instance.tenant_count)
    assert verify.check_session(instance, order) == []

    def doctored_session(*args):
        result = protocol.run_session(*args)
        return doctor(result) or result

    monkeypatch.setattr(verify, "run_session", doctored_session)
    found = [line for line in verify.check_session(instance, order) if line.startswith(f"{family}: ")]
    assert len(found) == 1, found


def test_workload_suite_lists_a_generator_failure(monkeypatch):
    configs = []

    def failing_on_the_second(config):
        configs.append(config)
        if len(configs) == 2:
            raise WorkloadError("generated instance violates its invariants: injected")
        return generate_instance(config)

    assert verify.workload_suite(instances=4, seed=0) == []
    monkeypatch.setattr(verify, "generate_instance", failing_on_the_second)
    problems = verify.workload_suite(instances=4, seed=0)
    assert len(configs) == 4
    assert problems == [f"instance 1 (seed {configs[1].seed}): generated instance violates its invariants: injected"]
