"""The ``verify`` suites report what they find instead of always passing.

``_reference_check_session`` and ``_reference_random_config`` are the
checker and the config draw as they were, with numpy string and record
arrays and ``rng.choice``; the current ones must give the same counts and
the same configs.
"""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from slicemarket import pricing, protocol, verify
from slicemarket.market import CAPACITY, MarketSetup, social_welfare, utilities
from slicemarket.pricing import build_schedule
from slicemarket.protocol import FAIL, SKIP, SUCC
from slicemarket.workload import GenConfig, WorkloadError, generate_instance

TENANTS = 20


def _reference_random_config(rng):
    sparse = rng.random() < 0.25
    return GenConfig(
        tenant_count=int(rng.integers(1, 31)),
        resource_count=int(rng.integers(1, 6)),
        density_margin=float(rng.choice([0.0, 0.0, 0.1])),
        participation=float(rng.uniform(0.5, 1.0)) if sparse else None,
        seed=int(rng.integers(0, 2**32)),
    )


def _reference_check_session(instance, order):
    setup = MarketSetup.from_instance(instance)
    result = verify.run_session(setup, build_schedule(setup), instance, order)  # doctored alike
    ledger, transcript = result.ledger, result.ledger.transcript
    utilization = np.asarray(ledger.utilization)
    prices = np.array(transcript.quotes + [ledger.prices], dtype=float)
    outcomes = np.array(transcript.outcomes, dtype=str)
    charges = np.array(transcript.charges, dtype=float)
    booked = sum(charges[outcomes == SUCC].tolist(), 0.0)
    welfare = social_welfare(setup, instance, result.allocation)
    operator, tenant_utils = utilities(setup, instance, result.allocation, result.payments)
    count = np.count_nonzero
    counts = {
        "capacity": count(~((0 <= utilization) & (utilization <= CAPACITY))),
        "monotonicity": count((np.diff(prices, axis=0) < 0).any(axis=1)),
        "price floor": count(prices < setup.price_floors),
        "dual feasibility": count(
            result.surpluses - (instance.valuations - instance.demands @ np.asarray(ledger.prices)) < -verify.DUAL_TOL
        ),
        "accounting": int(abs(welfare - (operator + tenant_utils.sum())) > verify.ACCOUNTING_TOL),
        "refund": int(abs(ledger.revenue - booked) > verify.ACCOUNTING_TOL)
        + int(abs(ledger.revenue - float(result.payments.sum())) > verify.ACCOUNTING_TOL),
        "transcript schema": count(prices[:-1] < 0)
        + count((charges < 0) & (outcomes != SKIP))
        + count((outcomes != SUCC) & (outcomes != FAIL) & (outcomes != SKIP)),
    }
    return {family: k for family, k in counts.items() if k}


def test_random_config_keeps_the_choice_stream():
    got_rng, want_rng = np.random.default_rng(77), np.random.default_rng(77)
    for _ in range(3000):
        got, want = verify._random_config(got_rng), _reference_random_config(want_rng)
        assert got == want
        assert type(got.density_margin) is type(want.density_margin) is float
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_check_session_matches_the_reference_on_random_sessions():
    rng = np.random.default_rng(31)
    for _ in range(500):
        instance = generate_instance(verify._random_config(rng))
        order = rng.permutation(instance.tenant_count)
        assert verify.check_session(instance, order) == _reference_check_session(instance, order) == {}


class _HalfFloorAtTheStart:
    """The threshold schedule, except that it quotes half the floors at zero
    utilization; from the first sale on its prices are the schedule's own."""

    def __init__(self, schedule):
        self.schedule, self.setup = schedule, schedule.setup

    def quote(self, utilization):
        prices = self.schedule.quote(utilization)
        if any(utilization):
            return prices
        return tuple(p / 2 for p in prices)


def test_check_session_reads_every_quote_against_the_floors(monkeypatch):
    def half_floor_session(setup, schedule, instance, order):
        return protocol.run_session(setup, _HalfFloorAtTheStart(schedule), instance, order)

    monkeypatch.setattr(verify, "run_session", half_floor_session)
    instance = generate_instance(GenConfig(tenant_count=TENANTS, resource_count=2, seed=3))
    order = np.arange(instance.tenant_count)
    setup = MarketSetup.from_instance(instance)
    result = half_floor_session(setup, build_schedule(setup), instance, order)
    # the prices still rise, and the final ones sit on or above the floors
    prices = np.array(result.ledger.transcript.quotes + [result.ledger.prices])
    assert (np.diff(prices, axis=0) >= 0).all() and (prices[-1] >= setup.price_floors).all()
    # every resource's half-floor price, once per arrival up to the first sale
    first_sale = result.ledger.transcript.outcomes.index(SUCC)
    want = {"price floor": (first_sale + 1) * instance.resource_count}
    assert verify.check_session(instance, order) == _reference_check_session(instance, order) == want


def _capacity(result):
    result.ledger.utilization = [1.5] + result.ledger.utilization[1:]


def _monotonicity(result):
    quotes = result.ledger.transcript.quotes
    quotes[0] = tuple(2 * p for p in quotes[0])


def _price_floor(result):
    result.ledger.prices = (0.0,) + result.ledger.prices[1:]


def _dual_feasibility(result):
    # every surplus claimed one unit short leaves every tenant's constraint short
    return replace(result, surpluses=result.surpluses - 1.0)


def _refund(result):
    outcomes = result.ledger.transcript.outcomes
    outcomes[outcomes.index(SUCC)] = FAIL


def _transcript_schema(result):
    transcript = result.ledger.transcript
    sold = next(i for i, outcome in enumerate(transcript.outcomes) if outcome != SKIP)
    transcript.charges[sold] = -transcript.charges[sold]


def _nan_capacity(result):
    result.ledger.utilization = [float("nan")] + result.ledger.utilization[1:]


def _negative_quote(result):
    quotes = result.ledger.transcript.quotes
    quotes[-1] = tuple(-p for p in quotes[-1])


def _unknown_outcome(result):
    transcript = result.ledger.transcript
    transcript.outcomes[-1] = "MAYBE"
    transcript.charges[0] = float("nan")


def _full_capacity(result):
    # exactly at capacity is allowed, beyond it is not
    result.ledger.utilization = [CAPACITY] + [1.5] * (len(result.ledger.utilization) - 1)


def _every_charge_negated(result):
    # a SKIP's charge is not on the wire; a SUCC's or a FAIL's is
    transcript = result.ledger.transcript
    transcript.charges[:] = [-charge - 1.0 for charge in transcript.charges]


#: Doctors outside the per-family table below, for the reference comparison.
EXTRA_DOCTORS = [_nan_capacity, _negative_quote, _unknown_outcome, _full_capacity, _every_charge_negated]


#: The counts each doctor leaves behind when it trips more than its own family.
IMPLIED = {
    # a zeroed final price also sits below the last quote, and the six tenants
    # with a positive utility at it are short of their surpluses
    "price floor": {"monotonicity": 1, "price floor": 1, "dual feasibility": 6},
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


#: Added left to right these charges sum to 0.0 (1e16 swallows the rest);
#: exactly, or compensated as the builtin sum() adds floats from Python 3.12
#: on, they sum to 2.0.
LOSSY_CHARGES = [0.1] * 10 + [1e16, 1.0, -1e16]


def test_check_session_books_the_charges_left_to_right(monkeypatch):
    assert math.fsum(LOSSY_CHARGES) == 2.0
    booked = 0.0
    for charge in LOSSY_CHARGES:
        booked += charge
    assert booked == 0.0

    def lossy_session(*args):
        # the first arrivals sold at the lossy charges, the rest skipped, and a
        # revenue booked as the engine books it, left to right
        result = protocol.run_session(*args)
        transcript, k = result.ledger.transcript, len(LOSSY_CHARGES)
        transcript.outcomes[:] = [SUCC] * k + [SKIP] * (len(transcript.outcomes) - k)
        transcript.charges[:k] = LOSSY_CHARGES
        result.ledger.revenue = booked
        return result

    monkeypatch.setattr(verify, "run_session", lossy_session)
    instance = generate_instance(GenConfig(tenant_count=TENANTS, resource_count=2, seed=3))
    # the booked charges match the revenue; the session's own payments do not,
    # and the SUCC at -1e16 is off the wire schema.  A compensated sum of the
    # charges would miss the revenue by 2.0 and count a second refund.
    want = {"refund": 1, "transcript schema": 1}
    assert verify.check_session(instance, np.arange(instance.tenant_count)) == want


@pytest.mark.parametrize(
    "doctor",
    [_capacity, _monotonicity, _price_floor, _dual_feasibility, _refund, _transcript_schema] + EXTRA_DOCTORS,
)
def test_check_session_matches_the_reference_on_doctored_sessions(monkeypatch, doctor):
    def doctored_session(*args):
        result = protocol.run_session(*args)
        return doctor(result) or result

    monkeypatch.setattr(verify, "run_session", doctored_session)
    rng = np.random.default_rng(5)
    found = Counter()
    for seed in range(40):
        instance = generate_instance(GenConfig(tenant_count=TENANTS, resource_count=1 + seed % 4, seed=seed))
        order = rng.permutation(instance.tenant_count)
        counts = verify.check_session(instance, order)
        assert counts == _reference_check_session(instance, order)
        found.update(counts)
    assert found


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


def test_session_suite_counts_a_generator_failure_and_goes_on(monkeypatch):
    sessions = []
    monkeypatch.setattr(verify, "check_session", lambda instance, order: sessions.append(order.tolist()) or {})
    verify.session_suite(sessions=4, seed=0)
    clean, sessions[:] = sessions[:], []
    configs = []

    def failing_on_the_second(config):
        configs.append(config)
        if len(configs) == 2:
            raise WorkloadError("generated instance violates its invariants: injected")
        return generate_instance(config)

    monkeypatch.setattr(verify, "generate_instance", failing_on_the_second)
    totals = Counter()
    problems = verify.session_suite(sessions=4, seed=0, totals=totals)
    assert problems == [
        f"session 1 (seed {configs[1].seed}): instance generation: generated instance violates its invariants: injected"
    ]
    assert totals == {"instance generation": 1}
    # the other three sessions ran on the orders they draw without the failure
    assert len(configs) == 4 and sessions == [clean[0], clean[2], clean[3]]


def test_suites_total_each_violated_family(monkeypatch):
    monkeypatch.setattr(verify, "check_session", lambda instance, order: {"capacity": 2, "refund": 1})
    calls = []

    def failing_on_the_second(config):
        calls.append(config)
        if len(calls) == 2:
            raise WorkloadError("injected")
        return generate_instance(config)

    monkeypatch.setattr(verify, "generate_instance", failing_on_the_second)
    totals = Counter()
    problems = verify.run_verification(sessions=0, setups=0, instances=3, totals=totals)
    assert totals == {"instance generation": 1} and len(problems) == 1
    monkeypatch.setattr(verify, "generate_instance", generate_instance)
    totals = Counter()
    problems = verify.run_verification(sessions=3, setups=2, instances=3, totals=totals)
    assert totals == {"capacity": 6, "refund": 3}
    assert len(problems) == 6


def test_pricing_suite_totals_by_family(monkeypatch):
    def skewed(setup):
        shifted = MarketSetup(setup.unit_costs, setup.price_floors * 1.01, setup.price_caps * 1.01)
        schedule = build_schedule(shifted)
        object.__setattr__(schedule, "ratio", 0.5)  # a derived field, doctored
        return schedule

    monkeypatch.setattr(verify, "build_schedule", skewed)
    totals = Counter()
    problems = verify.pricing_suite(setups=4, seed=0, totals=totals)
    assert sum(totals.values()) == len(problems)
    assert totals["schedule ratio"] == 4
    assert totals["schedule start price"] > 0



def test_pricing_suite_reports_a_jump_just_above_the_threshold(monkeypatch):
    # the price is flat up to and including the threshold w, so a jump there
    # shows only on the right of w
    flat = pricing._threshold_price

    def bumped(q, floor, w, y):
        price = flat(q, floor, w, y)
        return price + 0.5 * floor if w < y < w + 0.01 else price

    assert verify.pricing_suite(setups=50, seed=0) == []
    monkeypatch.setattr(pricing, "_threshold_price", bumped)
    totals = Counter()
    problems = verify.pricing_suite(setups=50, seed=0, totals=totals)
    jumps = [line for line in problems if "discontinuity" in line]
    assert totals["schedule continuity"] == len(jumps)
    # every setup has a resource below full capacity at its threshold
    assert {int(line.split()[1].rstrip(":")) for line in jumps} == set(range(50))
