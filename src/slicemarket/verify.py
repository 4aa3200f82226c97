"""Randomized invariant suites behind the ``verify`` command.

Each suite returns human-readable violation strings; an empty list means the
checked property held everywhere.  The session suite drives full protocol
runs over randomized workloads.  For each run, ``check_session`` counts the
violations of every invariant family over the columns of the session's
transcript (array comparisons on the prices, plain loops over its outcome and
charge lists): capacity safety, price monotonicity and floors, dual
feasibility, the welfare accounting identity, refund bookkeeping and the
value ranges of the transcript schema.

Every suite also adds its violations to an optional ``totals`` counter, one
entry per invariant family, which is what ``slicemarket verify`` prints after
the first failure lines.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .market import CAPACITY, MarketSetup, social_welfare, utilities
from .pricing import build_schedule
from .protocol import FAIL, SKIP, SUCC, run_session
from .workload import GenConfig, WorkloadError, generate_instance

ACCOUNTING_TOL = 1e-9
DUAL_TOL = 1e-9


def _random_config(rng: np.random.Generator) -> GenConfig:
    sparse = rng.random() < 0.25
    return GenConfig(
        tenant_count=int(rng.integers(1, 31)),
        resource_count=int(rng.integers(1, 6)),
        density_margin=(0.0, 0.0, 0.1)[int(rng.integers(0, 3))],  # the stream of rng.choice
        participation=float(rng.uniform(0.5, 1.0)) if sparse else None,
        seed=int(rng.integers(0, 2**32)),
    )


def check_session(instance, order) -> dict[str, int]:
    """Count the violations of every protocol invariant in one posted-price session.

    Runs the session and reads the columns of its transcript, never a
    message built from them.  Returns each violated invariant family with its
    count; ``{}`` means every invariant held.
    """
    setup = MarketSetup.from_instance(instance)
    result = run_session(setup, build_schedule(setup), instance, order)
    ledger, transcript = result.ledger, result.ledger.transcript
    outcomes, charges = transcript.outcomes, transcript.charges
    # one row per quote, then the final prices
    prices = np.array(transcript.quotes + [ledger.prices], dtype=float)
    # the SUCC charges summed in arrival order, as the revenue was
    booked = sum([charge for charge, outcome in zip(charges, outcomes) if outcome == SUCC], 0.0)
    welfare = social_welfare(setup, instance, result.allocation)
    operator, tenant_utils = utilities(setup, instance, result.allocation, result.payments)
    # each tenant's dual surplus against its utility at the final prices
    slacks = result.surpluses - (instance.valuations - instance.demands @ ledger.prices)
    count = np.count_nonzero
    counts = {
        "capacity": sum(not 0 <= y <= CAPACITY for y in ledger.utilization),
        "monotonicity": count((np.diff(prices, axis=0) < 0).any(axis=1)),
        # every quoted price, the final ones included, against its resource's floor
        "price floor": count(prices < setup.price_floors),
        "dual feasibility": count(slacks < -DUAL_TOL),
        "accounting": int(abs(welfare - (operator + tenant_utils.sum())) > ACCOUNTING_TOL),
        "refund": int(abs(ledger.revenue - booked) > ACCOUNTING_TOL)
        + int(abs(ledger.revenue - float(result.payments.sum())) > ACCOUNTING_TOL),
        # the transcript's ranges of the wire schema; a SKIP renders its charge as 0
        "transcript schema": count(prices[:-1] < 0)
        + sum(charge < 0 and outcome != SKIP for charge, outcome in zip(charges, outcomes))
        + sum(outcome not in (SUCC, FAIL, SKIP) for outcome in outcomes),
    }
    return {family: k for family, k in counts.items() if k}


def session_suite(sessions: int = 1000, seed: int = 0, totals: Counter | None = None) -> list[str]:
    """Run randomized posted-price sessions; one line per violated invariant family.

    A generator failure is one ``instance generation`` line.  Each order is
    drawn before its instance, so the sessions after a failure do not change.
    """
    totals = Counter() if totals is None else totals
    rng = np.random.default_rng(seed)
    problems: list[str] = []
    for index in range(sessions):
        config = _random_config(rng)
        order = rng.permutation(config.tenant_count)
        try:
            instance = generate_instance(config)
        except WorkloadError as exc:
            problems.append(f"session {index} (seed {config.seed}): instance generation: {exc}")
            totals["instance generation"] += 1
            continue
        for family, count in check_session(instance, order).items():
            problems.append(f"session {index} (seed {config.seed}): {family}: {count} violation(s)")
            totals[family] += count
    return problems


def pricing_suite(setups: int = 1000, seed: int = 0, totals: Counter | None = None) -> list[str]:
    """Closed-form identities of the threshold schedule on random valid setups."""
    totals = Counter() if totals is None else totals
    rng = np.random.default_rng(seed)
    problems: list[str] = []

    def report(family: str, line: str) -> None:
        problems.append(line)
        totals[f"schedule {family}"] += 1

    for index in range(setups):
        c = int(rng.integers(1, 10))
        floors = rng.uniform(0.5, 5.0, size=c)
        caps = floors * rng.uniform(1.0, 10.0, size=c)
        costs = floors * rng.uniform(0.05, 0.95, size=c)
        setup = MarketSetup(costs, floors, caps)
        schedule = build_schedule(setup)
        if not schedule.ratio >= 1.0:
            report("ratio", f"setup {index}: ratio {schedule.ratio!r} below 1")
        cap_sum, cost_sum = caps.sum(), costs.sum()
        for i in range(c):
            start = schedule.price_at(i, 0.0)
            if start != floors[i]:
                report("start price", f"setup {index}: start price {start!r} != floor {float(floors[i])!r}")
            terminal = schedule.price_at(i, 1.0)
            target = float(cap_sum - (cost_sum - costs[i]))
            if abs(terminal - target) > 1e-9 * abs(target):
                report("terminal price", f"setup {index}: terminal price {terminal!r} != {target!r}")
            w = float(schedule.thresholds[i])
            if not 0 < w <= 1:
                report("threshold", f"setup {index}: threshold {w!r} outside (0, 1]")
            # the price is flat up to and including w, so a jump shows just above it
            right = schedule.price_at(i, min(w + 1e-9, CAPACITY))
            if abs(right - schedule.price_at(i, w)) > 1e-6:
                report("continuity", f"setup {index}: discontinuity at the threshold of resource {i}")
    return problems


def workload_suite(instances: int = 1000, seed: int = 0, totals: Counter | None = None) -> list[str]:
    """Generated instances must validate cleanly.

    The generator validates every instance it builds and raises
    ``WorkloadError`` on the first breach, which is reported here.
    """
    totals = Counter() if totals is None else totals
    rng = np.random.default_rng(seed)
    problems: list[str] = []
    for index in range(instances):
        config = _random_config(rng)
        try:
            generate_instance(config)
        except WorkloadError as exc:
            problems.append(f"instance {index} (seed {config.seed}): {exc}")
            totals["instance generation"] += 1
    return problems


def run_verification(
    sessions: int = 1000, setups: int = 1000, instances: int = 1000, seed: int = 0, totals: Counter | None = None
) -> list[str]:
    """Run every suite; the returned list is empty when all invariants held.

    ``totals``, when given, gains each violated family's violation count.
    """
    problems = session_suite(sessions, seed, totals)
    problems += pricing_suite(setups, seed + 1, totals)
    problems += workload_suite(instances, seed + 2, totals)
    return problems
