"""Stop-and-wait protocol: agents, settlement, sessions, transcripts.

The agent and settlement tests exercise the message-by-message reference in
``reference_protocol``; the session and transcript tests exercise the engine.
"""

import itertools
import json
import math

import numpy as np
import pytest

from slicemarket.baselines import MyopicPricing, myopic_slicing, random_slicing
from slicemarket.market import Allocation, MarketSetup, social_welfare, utilities
from slicemarket.pricing import build_schedule
from slicemarket.protocol import (
    FAIL,
    SKIP,
    SUCC,
    ProtocolError,
    Transcript,
    TranscriptSchemaError,
    arrival_order,
    parse_transcript_jsonl,
    run_posted_price,
    run_session,
    transcript_to_jsonl,
    validate_transcript_record,
)
from slicemarket.verify import _random_config
from slicemarket.workload import GenConfig, Instance, WorkloadError, generate_instance

from conftest import manual_instance
from reference_protocol import (
    PriceQuote,
    RentDecision,
    TransactionOutcome,
    mvno_init,
    mvno_settle,
    reference_entries,
    reference_jsonl,
    tenant_decide,
    transferred_data_bytes,
)

E1_SETUP = MarketSetup([1.0], [2.0], [1.0 + math.e])
E2_SETUP = MarketSetup([0.5, 0.5], [1.0, 2.0], [2.0, 3.0])


def e1_session():
    return E1_SETUP, build_schedule(E1_SETUP)


class TestMvnoInit:
    def test_single_resource(self):
        setup, schedule = e1_session()
        ledger = mvno_init(setup, schedule)
        assert ledger.utilization == [0.0]
        assert ledger.prices == (2.0,)

    def test_two_resources(self):
        ledger = mvno_init(E2_SETUP, build_schedule(E2_SETUP))
        assert ledger.prices == (1.0, 2.0)

    def test_prices_start_at_floors(self, rng):
        from conftest import random_setup

        setup = random_setup(rng, resources=3)
        ledger = mvno_init(setup, build_schedule(setup))
        assert ledger.prices == tuple(setup.price_floors)


class TestTenantDecide:
    def test_accept_with_surplus(self):
        quote = PriceQuote(1, (2.0, 2.5))
        decision, surplus = tenant_decide(quote, 1.2, (0.1, 0.2))
        assert decision.accept
        assert decision.payment == pytest.approx(0.7)
        assert surplus == pytest.approx(0.5)
        assert decision.demand == (0.1, 0.2)

    def test_reject_negative_utility(self):
        quote = PriceQuote(1, (2.0, 2.5))
        decision, surplus = tenant_decide(quote, 0.6, (0.1, 0.2))
        assert not decision.accept
        assert decision.payment == 0.0
        assert decision.demand == (0.0, 0.0)
        assert surplus == 0.0

    def test_zero_utility_rejects(self):
        # strict rule: a tie gives the tenant nothing, so it walks away
        decision, surplus = tenant_decide(PriceQuote(1, (2.0,)), 0.6, (0.3,))
        assert not decision.accept
        assert surplus == 0.0
        # the welfare the market forgoes by this policy is v - q*d
        forgone = 0.6 - 1.0 * 0.3
        assert forgone == pytest.approx(0.3)

    def test_rejects_bad_inputs(self):
        quote = PriceQuote(1, (2.0,))
        with pytest.raises(ProtocolError):
            tenant_decide(quote, -0.1, (0.3,))
        with pytest.raises(ProtocolError):
            tenant_decide(quote, 0.5, (-0.3,))
        with pytest.raises(ProtocolError):
            tenant_decide(quote, 0.5, (0.3, 0.3))
        for bad in (math.nan, math.inf):
            with pytest.raises(ProtocolError):
                tenant_decide(quote, bad, (0.3,))
            with pytest.raises(ProtocolError):
                tenant_decide(quote, 0.5, (bad,))


class TestMessageInvariants:
    def test_quote_rejects_infinite_price(self):
        with pytest.raises(ProtocolError):
            PriceQuote(1, (float("inf"),))

    def test_quote_rejects_negative_price(self):
        with pytest.raises(ProtocolError):
            PriceQuote(1, (-1.0,))

    def test_reject_decision_must_be_zeroed(self):
        with pytest.raises(ProtocolError):
            RentDecision(False, 0.5, (0.0,))
        with pytest.raises(ProtocolError):
            RentDecision(False, 0.0, (0.1,))

    @pytest.mark.parametrize("payment", [math.nan, math.inf])
    def test_decision_rejects_non_finite_payment(self, payment):
        with pytest.raises(ProtocolError, match="payment"):
            RentDecision(True, payment, (0.1,))

    @pytest.mark.parametrize("demand", [math.nan, math.inf])
    def test_decision_rejects_non_finite_demand(self, demand):
        with pytest.raises(ProtocolError, match="demand"):
            RentDecision(True, 0.2, (demand,))

    def test_refund_only_on_fail(self):
        with pytest.raises(ProtocolError):
            TransactionOutcome(SUCC, refund=0.5)
        assert TransactionOutcome(FAIL, refund=0.5).refund == 0.5


class TestMvnoSettle:
    def test_capacity_failure_refunds(self):
        setup, schedule = e1_session()
        ledger = mvno_init(setup, schedule)
        ledger.utilization[0] = 0.95
        ledger.prices = (schedule.price_at(0, 0.95),)
        price = ledger.prices[0]
        decision = RentDecision(True, price * 0.1, (0.1,))
        outcome, ledger = mvno_settle(ledger, schedule, decision)
        assert outcome.status == FAIL
        assert outcome.refund == pytest.approx(price * 0.1)
        assert ledger.utilization == [0.95]
        assert ledger.revenue == 0.0

    def test_success_updates_price_at_threshold(self):
        setup, schedule = e1_session()
        ledger = mvno_init(setup, schedule)
        ledger.utilization[0] = 0.4
        ledger.prices = (schedule.price_at(0, 0.4),)
        outcome, ledger = mvno_settle(ledger, schedule, RentDecision(True, 0.2, (0.1,)))
        assert outcome.status == SUCC
        assert ledger.utilization == [0.5]
        assert ledger.prices == (2.0,)  # continuity at the threshold
        assert ledger.revenue == pytest.approx(0.2)

    def test_skip_leaves_state(self):
        setup, schedule = e1_session()
        ledger = mvno_init(setup, schedule)
        outcome, ledger = mvno_settle(ledger, schedule, RentDecision(False, 0.0, (0.0,)))
        assert outcome.status == SKIP
        assert ledger.utilization == [0.0]
        assert ledger.revenue == 0.0

    def test_payment_mismatch_is_violation(self):
        setup, schedule = e1_session()
        ledger = mvno_init(setup, schedule)
        with pytest.raises(ProtocolError, match="does not match"):
            mvno_settle(ledger, schedule, RentDecision(True, 0.3, (0.1,)))

    def test_nan_charge_is_violation(self):
        # a NaN quote makes the expected charge NaN; no payment can match it
        setup, schedule = e1_session()
        ledger = mvno_init(setup, schedule)
        ledger.prices = (math.nan,)
        with pytest.raises(ProtocolError, match="does not match"):
            mvno_settle(ledger, schedule, RentDecision(True, 0.2, (0.1,)))
        assert ledger.revenue == 0.0

    def test_wrong_demand_width(self):
        setup, schedule = e1_session()
        ledger = mvno_init(setup, schedule)
        with pytest.raises(ProtocolError):
            mvno_settle(ledger, schedule, RentDecision(True, 0.2, (0.05, 0.05)))


def _dual_slacks(result, instance):
    """Per-tenant slack of ``surplus >= valuation - demand . final prices``."""
    return result.surpluses - (instance.valuations - instance.demands @ np.asarray(result.ledger.prices))


class TestRunSession:
    def test_no_tenants(self):
        inst = Instance(np.zeros((0, 1)), np.zeros(0), [1.0], [2.0], [0.5])
        setup = MarketSetup([0.5], [1.0], [2.0])
        result = run_session(setup, build_schedule(setup), inst)
        assert result.allocation.accepted.shape == (0,)
        assert result.ledger.revenue == 0.0
        assert result.ledger.utilization == [0.0]

    def test_single_tenant_arithmetic(self):
        inst = manual_instance([[0.3]], [0.9], [1.0])
        result = run_session(E1_SETUP, build_schedule(E1_SETUP), inst)
        assert result.allocation.accepted[0]
        assert result.payments[0] == pytest.approx(0.6)
        welfare = social_welfare(E1_SETUP, inst, result.allocation)
        assert welfare == pytest.approx(0.9 - 1.0 * 0.3)

    def test_ten_tenants_against_brute_force(self):
        inst = generate_instance(GenConfig(tenant_count=10, resource_count=2, seed=5))
        order = np.random.default_rng(17).permutation(10)
        setup = MarketSetup.from_instance(inst)
        schedule = build_schedule(setup)
        result = run_session(setup, schedule, inst, order)
        online = social_welfare(setup, inst, result.allocation)

        # independent enumeration of all 2^10 decision vectors
        best = 0.0
        for bits in itertools.product((0, 1), repeat=10):
            x = np.array(bits, dtype=bool)
            used = x.astype(float) @ inst.demands
            if (used > 1.0 + 1e-9).any():
                continue
            value = float(inst.valuations @ x - inst.unit_costs @ used)
            best = max(best, value)

        assert online <= best + 1e-9
        assert best <= schedule.ratio * online * (1 + 1e-9)

    def test_order_must_be_permutation(self):
        inst = generate_instance(GenConfig(tenant_count=4, resource_count=1, seed=1))
        setup = MarketSetup.from_instance(inst)
        schedule = build_schedule(setup)
        for order in ([0, 1, 2, 2], [0, 1, 2], [0, 1, 2, 3, 0], [0, 1, 2, 4], [-1, 0, 1, 2]):
            with pytest.raises(ProtocolError, match="permutation"):
                run_session(setup, schedule, inst, order)
        # a negative index used to reach np.bincount and raise a bare ValueError
        three = generate_instance(GenConfig(tenant_count=3, resource_count=1, seed=1))
        with pytest.raises(ProtocolError, match="permutation"):
            run_posted_price(three, [-1, 0, 1])

    def test_session_invariants_randomized(self, rng):
        for _ in range(60):
            cfg = GenConfig(
                tenant_count=int(rng.integers(1, 25)),
                resource_count=int(rng.integers(1, 5)),
                seed=int(rng.integers(0, 2**32)),
            )
            inst = generate_instance(cfg)
            order = rng.permutation(inst.tenant_count)
            setup = MarketSetup.from_instance(inst)
            schedule = build_schedule(setup)
            result = run_session(setup, schedule, inst, order)
            ledger = result.ledger

            assert all(y <= 1.0 for y in ledger.utilization)
            transcript = ledger.transcript
            quotes = transcript.quotes + [ledger.prices]
            for earlier, later in zip(quotes, quotes[1:]):
                assert all(b >= a for a, b in zip(earlier, later))
            assert (_dual_slacks(result, inst) >= -1e-9).all()
            booked = sum(c for c, outcome in zip(transcript.charges, transcript.outcomes) if outcome == SUCC)
            assert ledger.revenue == pytest.approx(booked, abs=1e-9)
            assert float(result.payments.sum()) == pytest.approx(ledger.revenue, abs=1e-9)

            welfare = social_welfare(setup, inst, result.allocation)
            operator, tenants = utilities(setup, inst, result.allocation, result.payments)
            assert abs(welfare - (operator + tenants.sum())) <= 1e-9

    def test_failed_tenant_keeps_dual_feasible_surplus(self):
        # second tenant accepts but capacity blocks it; its claimed surplus
        # must still cover valuation - final prices
        inst = manual_instance([[0.9], [0.9]], [2.0, 2.5], [1.0], margin=0.1)
        setup = MarketSetup.from_instance(inst)
        schedule = build_schedule(setup)
        result = run_session(setup, schedule, inst, [0, 1])
        outcomes = result.ledger.transcript.outcomes
        assert outcomes[0] == SUCC
        assert outcomes[1] == FAIL
        assert (_dual_slacks(result, inst) >= -1e-9).all()
        assert result.payments[1] == 0.0

    def test_density_gate_skips_before_quoting(self):
        demands = np.array([[0.5, 0.01], [0.1, 0.1]])
        valuations = np.array([0.3, 1.0])
        floors = np.array([1.0, 1.0])
        caps = np.array([40.0, 40.0])
        inst = Instance(demands, valuations, floors, caps, np.array([0.2, 0.2]))
        setup = MarketSetup.from_instance(inst)
        schedule = build_schedule(setup)
        # tenant 0 has density 0.6 < 1.0 on resource 0; quoted the floor
        # prices it rejects on its own (utility < 0)
        result = run_session(setup, schedule, inst)
        assert not result.allocation.accepted[0]

    def test_nan_valuation_rejected(self):
        # no session can run on it: the Instance constructor rejects it
        inst = generate_instance(GenConfig(tenant_count=6, resource_count=2, seed=9))
        valuations = inst.valuations.copy()
        valuations[2] = math.nan
        with pytest.raises(WorkloadError, match="non-finite .* at tenant 2$"):
            Instance(inst.demands, valuations, inst.price_floors, inst.price_caps, inst.unit_costs)

    def test_nan_demand_rejected(self):
        inst = generate_instance(GenConfig(tenant_count=6, resource_count=2, seed=9))
        demands = inst.demands.copy()
        demands[1, 0] = math.nan
        with pytest.raises(WorkloadError, match="non-finite .* at tenant 1, resource 0$"):
            Instance(demands, inst.valuations, inst.price_floors, inst.price_caps, inst.unit_costs)

    def test_wrapper_builds_schedule(self):
        inst = generate_instance(GenConfig(tenant_count=6, resource_count=2, seed=9))
        result = run_posted_price(inst)
        assert result.allocation.accepted.shape == (6,)

    def test_single_resource_ratio_guarantee(self, rng):
        # with one resource, any tenant whose density clears the floor buys in
        # the flat phase, which is exactly what the worst-case bound needs
        from slicemarket.oracle import offline_exact

        for _ in range(150):
            cfg = GenConfig(
                tenant_count=int(rng.integers(4, 13)),
                resource_count=1,
                seed=int(rng.integers(0, 2**32)),
            )
            inst = generate_instance(cfg)
            order = rng.permutation(inst.tenant_count)
            setup = MarketSetup.from_instance(inst)
            schedule = build_schedule(setup)
            result = run_session(setup, schedule, inst, order)
            online = social_welfare(setup, inst, result.allocation)
            oracle = offline_exact(inst, method="exhaustive")
            offline = social_welfare(setup, inst, Allocation.from_decisions(inst, oracle.accepted))
            if online > 0:
                assert offline <= schedule.ratio * online * (1 + 1e-9)

    def test_multi_resource_guarantee_gap(self):
        # hand-built per-resource floors (manual_instance) are the case the
        # guarantee does not cover: with several resources a tenant can meet
        # every per-resource density floor yet be unable to pay its bundle at
        # the floor prices, so utilization stalls below every threshold and
        # the bound has no anchor.  The generator's bundle floor rules this
        # out; this market, which validate_instance flags, exceeds it.
        demands = np.full((8, 2), 0.12)
        valuations = np.full(8, 0.15)  # density 1.25 per resource, floor 1.25
        valuations[0] = 0.31  # the only tenant worth more than d . floors
        inst = manual_instance(demands, valuations, [0.2, 0.2])
        setup = MarketSetup.from_instance(inst)
        schedule = build_schedule(setup)
        result = run_session(setup, schedule, inst)
        online = social_welfare(setup, inst, result.allocation)
        from slicemarket.oracle import offline_exact

        oracle = offline_exact(inst, method="exhaustive")
        offline = social_welfare(setup, inst, Allocation.from_decisions(inst, oracle.accepted))
        assert list(result.allocation.accepted) == [True] + [False] * 7
        assert online > 0
        assert offline > schedule.ratio * online


class FlatPricing:
    """A schedule that quotes the same price tuple whatever the utilization."""

    def __init__(self, prices: tuple[float, ...]):
        self.prices = prices

    def quote(self, utilization) -> tuple[float, ...]:
        return self.prices


def assert_jsonl_matches_the_rows(transcript) -> str:
    """``transcript_to_jsonl`` of ``transcript`` is byte for byte the text
    written from its rows, and those rows are what iterating it gives."""
    rows = reference_entries(transcript)
    assert list(transcript) == rows
    text = transcript_to_jsonl(transcript)
    assert text == reference_jsonl(rows)
    return text


class TestTranscript:
    def make_entries(self):
        inst = generate_instance(GenConfig(tenant_count=8, resource_count=2, seed=3))
        result = run_posted_price(inst)
        return result.ledger.transcript

    def test_records_validate(self):
        for entry in self.make_entries():
            validate_transcript_record(entry.to_record())

    def test_jsonl_round_trip(self):
        entries = self.make_entries()
        text = transcript_to_jsonl(entries)
        records = parse_transcript_jsonl(text)
        assert len(records) == len(entries)
        for entry, record in zip(entries, records):
            assert record["n"] == entry.arrival
            assert record["x"] == entry.accepted
            assert record["pi"] == pytest.approx(entry.payment)
            assert record["outcome"] == entry.outcome

    def test_jsonl_is_json_dumps_byte_for_byte(self):
        """The column formatter against ``json.dumps`` of each row the row
        builder makes, on posted and myopic sessions: generated markets of
        10 to 200 tenants, ``verify`` markets in random orders and an empty
        market."""
        rng = np.random.default_rng(2701)
        markets = [generate_instance(GenConfig(10 + 10 * s, 1 + s % 4, seed=s)) for s in range(20)]
        markets += [generate_instance(_random_config(rng)) for _ in range(200)]
        empty = Instance(np.zeros((0, 2)), np.zeros(0), [1.0, 1.0], [2.0, 2.0], [0.5, 0.5])
        for inst in markets + [empty]:
            order = rng.permutation(inst.tenant_count)
            for result in (_posted_session(inst, order), myopic_slicing(inst, order)):
                text = assert_jsonl_matches_the_rows(result.ledger.transcript)
                assert len(text.splitlines()) == inst.tenant_count

    @pytest.mark.parametrize("resources", [1, 2, 3, 4, 5])
    def test_jsonl_on_overfull_markets(self, resources):
        # a flat tenth of the floors sells to every tenant until the market
        # is full, so most later arrivals FAIL under one shared quote
        rng = np.random.default_rng(2710 + resources)
        fails = arrivals = 0
        for _ in range(20):
            n = int(rng.integers(2, 60))
            demand_mean = float(rng.uniform(3.0, 8.0)) / n
            inst = generate_instance(GenConfig(n, resources, demand_mean=demand_mean, seed=int(rng.integers(2**32))))
            setup, order = MarketSetup.from_instance(inst), rng.permutation(n)
            flat = FlatPricing(tuple(0.1 * f for f in setup.price_floors.tolist()))
            schedules = (build_schedule(setup), MyopicPricing.from_setup(setup), flat)
            for schedule in schedules:
                transcript = run_session(setup, schedule, inst, order).ledger.transcript
                fails += transcript.outcomes.count(FAIL)
                arrivals += len(transcript)
                assert_jsonl_matches_the_rows(transcript)
        assert fails > arrivals / 6

    @pytest.mark.parametrize("charge", [math.inf, -math.inf, math.nan, 5e-324, 0.1 + 0.2])
    def test_jsonl_of_hand_built_charges(self, charge):
        # json writes Infinity and NaN; a SKIP's charge never reaches the wire
        transcript = Transcript(np.array([[0.1, 2e-300], [0.3, 0.0], [0.2, 0.5], [2e-300, 0.4]]))
        quote = (0.5, 1.25)
        transcript.quotes += [quote, quote, quote, (0.75, 1.5)]
        transcript.outcomes += [SUCC, SKIP, FAIL, SUCC]
        transcript.charges += [charge] * 4
        text = assert_jsonl_matches_the_rows(transcript)
        assert ("Infinity" in text or "NaN" in text) is not math.isfinite(charge)

    @pytest.mark.parametrize(
        "private_field, value",
        [("v", 1.2), ("valuation", 1.2), ("subscribers", 10**6), ("qos_levels", [1, 2])],
    )
    def test_private_fields_rejected(self, private_field, value):
        record = self.make_entries()[0].to_record()
        record[private_field] = value
        with pytest.raises(TranscriptSchemaError):
            validate_transcript_record(record)

    def test_malformed_outcome_rejected(self):
        record = self.make_entries()[0].to_record()
        record["outcome"] = "MAYBE"
        with pytest.raises(TranscriptSchemaError):
            validate_transcript_record(record)

    def test_byte_accounting(self):
        entries = self.make_entries()
        # per arrival: C quoted prices + C demands + accept flag + payment + outcome
        per_entry = 2 + 2 + 3
        assert transferred_data_bytes(entries) == 4 * per_entry * len(entries)

    def test_parse_rejects_contaminated_stream(self):
        entries = self.make_entries()
        text = transcript_to_jsonl(entries)
        bad = json.loads(text.splitlines()[0])
        bad["v"] = 3.0
        contaminated = text + json.dumps(bad) + "\n"
        with pytest.raises(TranscriptSchemaError):
            parse_transcript_jsonl(contaminated)


def _posted_session(instance, order):
    setup = MarketSetup.from_instance(instance)
    return run_session(setup, build_schedule(setup), instance, order)


#: The three engines that take an arrival order, each through ``arrival_order``.
ORDER_ENGINES = {
    "run_session": _posted_session,
    "myopic_slicing": myopic_slicing,
    "random_slicing": random_slicing,
}


def _engine_output(engine, instance, order):
    result = ORDER_ENGINES[engine](instance, order)
    if engine == "random_slicing":
        return result[1].tobytes(), repr(result[0])
    return result.allocation.accepted.tobytes(), repr(list(result.ledger.transcript))


class TestArrivalOrder:
    """An order is a permutation held in an integer dtype; nothing else runs."""

    @pytest.mark.parametrize("engine", sorted(ORDER_ENGINES))
    @pytest.mark.parametrize(
        "order",
        [
            [0, 1.7, 2],
            [0.0, 1.0, 2.0],
            np.array([2.0, 0.0, 1.0]),
            [True, False, True],
            np.array([1, 0, 2]).astype(bool),
            ["0", "1", "2"],
            [0, 0, 0],
            [0, 1, 1],
            [0, 1, 3],
            [-1, 0, 1],
            [0, 1],
            [0, 1, 2, 0],
            [],
            [[0, 1, 2]],
            1,
        ],
        ids=[
            "fractional", "integral floats", "float array", "bools", "bool array", "strings",
            "all repeats", "one repeat", "beyond the last tenant", "negative", "short", "long", "empty",
            "two-dimensional", "scalar",
        ],
    )
    def test_refused(self, engine, order):
        instance = generate_instance(GenConfig(tenant_count=3, resource_count=2, seed=11))
        with pytest.raises(ProtocolError, match="arrival order"):
            ORDER_ENGINES[engine](instance, order)

    @pytest.mark.parametrize("engine", sorted(ORDER_ENGINES))
    def test_bools_are_refused_even_as_a_permutation(self, engine):
        # as integers, [True, False] is the permutation [1, 0]
        instance = generate_instance(GenConfig(tenant_count=2, resource_count=2, seed=11))
        for order in ([True, False], np.array([False, True])):
            with pytest.raises(ProtocolError, match="integers"):
                ORDER_ENGINES[engine](instance, order)

    @pytest.mark.parametrize("engine", sorted(ORDER_ENGINES))
    def test_integer_forms_run_the_same_order(self, engine):
        instance = generate_instance(GenConfig(tenant_count=30, resource_count=2, demand_mean=0.1, seed=12))
        permutation = np.random.default_rng(13).permutation(30)
        want = _engine_output(engine, instance, permutation.tolist())
        for order in (
            permutation,
            permutation.astype(np.int32),
            permutation.astype(np.uint16),
            tuple(permutation.tolist()),
            [np.int64(t) for t in permutation],
        ):
            assert _engine_output(engine, instance, order) == want
        assert _engine_output(engine, instance, range(30)) == _engine_output(engine, instance, None)

    @pytest.mark.parametrize("engine", sorted(ORDER_ENGINES))
    def test_empty_order_for_a_market_without_tenants(self, engine):
        instance = Instance(np.zeros((0, 2)), np.zeros(0), [1.0, 1.0], [2.0, 2.0], [0.5, 0.5])
        for order in (None, [], np.zeros(0, dtype=int)):
            ORDER_ENGINES[engine](instance, order)

    def test_checked_into_an_intp_array(self):
        for order in ([2, 0, 1], np.array([2, 0, 1], dtype=np.int16), np.array([2, 0, 1], dtype=np.uint64)):
            checked = arrival_order(order, 3)
            assert type(checked) is np.ndarray and checked.dtype == np.intp
            assert checked.tolist() == [2, 0, 1]
        # instance order is the identity permutation; an empty order of any dtype is an empty index
        checked = arrival_order(None, 4)
        assert type(checked) is np.ndarray and checked.dtype == np.intp
        assert checked.tolist() == [0, 1, 2, 3]
        assert arrival_order(None, 0).dtype == np.intp
        for order in ([], range(0), np.zeros(0, dtype=np.uint64)):
            assert arrival_order(order, 0).dtype == np.intp


class TestScheduleSetup:
    """A schedule that holds a setup must hold the one the session runs on."""

    def test_another_setup_is_refused(self):
        instance = generate_instance(GenConfig(tenant_count=5, resource_count=2, seed=14))
        setup = MarketSetup.from_instance(instance)
        twin = MarketSetup.from_instance(instance)  # equal, but another object
        with pytest.raises(ProtocolError, match="another market setup"):
            run_session(setup, build_schedule(twin), instance)
        with pytest.raises(ProtocolError, match="another market setup"):
            run_session(setup, build_schedule(E2_SETUP), instance)
        run_session(setup, build_schedule(setup), instance)

    def test_a_schedule_without_a_setup_is_exempt(self):
        instance = generate_instance(GenConfig(tenant_count=5, resource_count=2, seed=14))
        setup = MarketSetup.from_instance(instance)
        pricing = MyopicPricing.from_setup(setup)
        assert not hasattr(pricing, "setup")
        assert len(run_session(E2_SETUP, pricing, instance).ledger.transcript) == 5
