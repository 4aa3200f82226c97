"""Randomized invariant suites behind the ``verify`` command.

Each suite returns human-readable violation strings; an empty list means the
checked property held everywhere.  The session suite drives full protocol
runs over randomized workloads and checks capacity safety, price
monotonicity, dual feasibility, the welfare accounting identity and refund
bookkeeping.
"""

from __future__ import annotations

import numpy as np

from .market import Allocation, MarketSetup, social_welfare, utilities
from .pricing import build_schedule
from .protocol import FAIL, SUCC, run_session, validate_transcript_record
from .workload import GenConfig, WorkloadError, generate_instance

ACCOUNTING_TOL = 1e-9
DUAL_TOL = 1e-9


def _random_config(rng: np.random.Generator) -> GenConfig:
    sparse = rng.random() < 0.25
    return GenConfig(
        tenant_count=int(rng.integers(1, 31)),
        resource_count=int(rng.integers(1, 6)),
        density_margin=float(rng.choice([0.0, 0.0, 0.1])),
        participation=float(rng.uniform(0.5, 1.0)) if sparse else None,
        seed=int(rng.integers(0, 2**32)),
    )


def check_session(instance, order) -> list[str]:
    """All protocol invariants for one posted-price session."""
    problems: list[str] = []
    setup = MarketSetup.from_instance(instance)
    schedule = build_schedule(setup)
    result = run_session(setup, schedule, instance, order)
    ledger = result.ledger

    for c, y in enumerate(ledger.utilization):
        if y > 1.0:
            problems.append(f"capacity: resource {c} utilization {y!r} exceeds 1")
        if y < 0:
            problems.append(f"capacity: resource {c} utilization {y!r} negative")

    previous = None
    for entry in ledger.transcript:
        if previous is not None and any(p < q for p, q in zip(entry.quote, previous)):
            problems.append(f"monotonicity: quote dropped at arrival {entry.arrival}")
        previous = entry.quote
    if previous is not None and any(p < q for p, q in zip(ledger.prices, previous)):
        problems.append("monotonicity: final prices below the last quote")
    for c, floor in enumerate(setup.price_floors):
        if ledger.prices[c] < floor:
            problems.append(f"price floor: final price of resource {c} below {floor!r}")

    slacks = result.certificate.feasibility_slacks(instance)
    if (slacks < -DUAL_TOL).any():
        tenant = int(np.argmin(slacks))
        problems.append(f"dual feasibility: tenant {tenant} slack {slacks[tenant]!r}")

    try:
        Allocation.from_decisions(instance, result.allocation.accepted)
    except Exception as exc:  # infeasible primal decisions
        problems.append(f"primal feasibility: {exc}")

    welfare = social_welfare(setup, instance, result.allocation)
    operator, tenant_utils = utilities(setup, instance, result.allocation, result.payments)
    if abs(welfare - (operator + tenant_utils.sum())) > ACCOUNTING_TOL:
        problems.append(
            f"accounting: welfare {welfare!r} != operator+tenants {operator + tenant_utils.sum()!r}"
        )

    booked = 0.0
    for entry in ledger.transcript:
        if entry.outcome == SUCC:
            booked += entry.payment
        elif entry.outcome == FAIL and entry.accepted != 1:
            problems.append(f"refund: FAIL at arrival {entry.arrival} without an accepted decision")
    if abs(ledger.revenue - booked) > ACCOUNTING_TOL:
        problems.append(f"refund: revenue {ledger.revenue!r} differs from booked payments {booked!r}")
    if abs(ledger.revenue - float(result.payments.sum())) > ACCOUNTING_TOL:
        problems.append("refund: payments vector disagrees with ledger revenue")

    for entry in ledger.transcript:
        try:
            validate_transcript_record(entry.to_record())
        except Exception as exc:
            problems.append(f"transcript schema: {exc}")
    return problems


def session_suite(sessions: int = 1000, seed: int = 0) -> list[str]:
    """Run randomized posted-price sessions and collect every violated invariant."""
    rng = np.random.default_rng(seed)
    problems: list[str] = []
    for index in range(sessions):
        config = _random_config(rng)
        instance = generate_instance(config)
        order = rng.permutation(instance.tenant_count)
        for message in check_session(instance, order):
            problems.append(f"session {index} (seed {config.seed}): {message}")
    return problems


def pricing_suite(setups: int = 1000, seed: int = 0) -> list[str]:
    """Closed-form identities of the threshold schedule on random valid setups."""
    rng = np.random.default_rng(seed)
    problems: list[str] = []
    for index in range(setups):
        c = int(rng.integers(1, 10))
        floors = rng.uniform(0.5, 5.0, size=c)
        caps = floors * rng.uniform(1.0, 10.0, size=c)
        costs = floors * rng.uniform(0.05, 0.95, size=c)
        setup = MarketSetup(costs, floors, caps)
        schedule = build_schedule(setup)
        if not schedule.ratio >= 1.0:
            problems.append(f"setup {index}: ratio {schedule.ratio!r} below 1")
        for i in range(c):
            start = schedule.price_at(i, 0.0)
            if start != floors[i]:
                problems.append(f"setup {index}: start price {start!r} != floor {floors[i]!r}")
            terminal = schedule.price_at(i, 1.0)
            target = float(caps.sum() - (costs.sum() - costs[i]))
            if abs(terminal - target) > 1e-9 * abs(target):
                problems.append(f"setup {index}: terminal price {terminal!r} != {target!r}")
            w = schedule.thresholds[i]
            if not 0 < w <= 1:
                problems.append(f"setup {index}: threshold {w!r} outside (0, 1]")
            left = schedule.price_at(i, max(w - 1e-9, 0.0))
            if abs(left - schedule.price_at(i, w)) > 1e-6:
                problems.append(f"setup {index}: discontinuity at the threshold of resource {i}")
    return problems


def workload_suite(instances: int = 1000, seed: int = 0) -> list[str]:
    """Generated instances must validate cleanly.

    The generator validates every instance it builds and raises
    ``WorkloadError`` on the first breach, which is reported here.
    """
    rng = np.random.default_rng(seed)
    problems: list[str] = []
    for index in range(instances):
        config = _random_config(rng)
        try:
            generate_instance(config)
        except WorkloadError as exc:
            problems.append(f"instance {index} (seed {config.seed}): {exc}")
    return problems


def run_verification(sessions: int = 1000, setups: int = 1000, instances: int = 1000, seed: int = 0) -> list[str]:
    """Run every suite; the returned list is empty when all invariants held."""
    problems = session_suite(sessions, seed)
    problems += pricing_suite(setups, seed + 1)
    problems += workload_suite(instances, seed + 2)
    return problems
