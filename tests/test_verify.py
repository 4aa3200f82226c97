"""The ``verify`` suites report what they find instead of always passing."""

from dataclasses import replace

import numpy as np
import pytest

from slicemarket import protocol, verify
from slicemarket.protocol import FAIL, SKIP, SUCC, DualCertificate
from slicemarket.workload import GenConfig, WorkloadError, generate_instance

TENANTS = 20


def _capacity(result):
    result.ledger.utilization = [1.5] + result.ledger.utilization[1:]


def _monotonicity(result):
    quotes = result.ledger.record.quotes
    quotes[0] = tuple(2 * p for p in quotes[0])


def _price_floor(result):
    result.ledger.prices = (0.0,) + result.ledger.prices[1:]


def _dual_feasibility(result):
    # zero surpluses against zero prices leave every tenant's constraint short
    zero = DualCertificate(np.zeros_like(result.certificate.surpluses), (0.0,) * len(result.ledger.prices))
    return replace(result, certificate=zero)


def _refund(result):
    outcomes = result.ledger.record.outcomes
    outcomes[outcomes.index(SUCC)] = FAIL


def _transcript_schema(result):
    record = result.ledger.record
    sold = next(i for i, outcome in enumerate(record.outcomes) if outcome != SKIP)
    record.charges[sold] = -record.charges[sold]


#: The counts each doctor leaves behind when it trips more than its own family.
IMPLIED = {
    # a zeroed final price also sits below the last quote
    "price floor": {"monotonicity": 1, "price floor": 1},
    "dual feasibility": {"dual feasibility": TENANTS},
    # the negated charge was booked, so the revenue no longer adds up
    "transcript schema": {"refund": 1, "transcript schema": 1},
}


@pytest.mark.parametrize(
    "family, doctor",
    [
        ("capacity", _capacity),
        ("monotonicity", _monotonicity),
        ("price floor", _price_floor),
        ("dual feasibility", _dual_feasibility),
        ("refund", _refund),
        ("transcript schema", _transcript_schema),
    ],
)
def test_check_session_reports_a_doctored_session(monkeypatch, family, doctor):
    instance = generate_instance(GenConfig(tenant_count=TENANTS, resource_count=2, seed=3))
    order = np.arange(instance.tenant_count)
    assert verify.check_session(instance, order) == {}

    def doctored_session(*args):
        result = protocol.run_session(*args)
        return doctor(result) or result

    monkeypatch.setattr(verify, "run_session", doctored_session)
    assert verify.check_session(instance, order) == IMPLIED.get(family, {family: 1})


def test_session_suite_prints_one_line_per_family(monkeypatch):
    monkeypatch.setattr(verify, "check_session", lambda instance, order: {"capacity": 2, "refund": 1})
    problems = verify.session_suite(sessions=2, seed=0)
    assert len(problems) == 4
    assert problems[0].startswith("session 0 (seed ")
    assert problems[0].endswith("): capacity: 2 violation(s)")
    assert problems[3].startswith("session 1 (seed ")
    assert problems[3].endswith("): refund: 1 violation(s)")


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
