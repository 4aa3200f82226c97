"""The plain-list session engine against the message-by-message protocol.

``reference_run_session`` is ``run_session`` as it was written before the
engine: every arrival builds a ``PriceQuote``, asks ``tenant_decide`` and
settles through ``mvno_settle``, all from ``reference_protocol``.  The engine
must reproduce it bit for bit: accepted masks, payments, surpluses, final
prices, utilization, revenue, every transcript entry and the JSONL text.
"""

import math

import numpy as np
import pytest

import slicemarket
from slicemarket import protocol, workload
from slicemarket.baselines import myopic_slicing, random_slicing
from slicemarket.market import Allocation, MarketSetup
from slicemarket.pricing import MyopicPricing, build_schedule
from slicemarket.protocol import (
    FAIL,
    SKIP,
    SUCC,
    ProtocolError,
    SessionResult,
    Transcript,
    TranscriptEntry,
    run_posted_price,
    run_session,
    transcript_to_jsonl,
)
from slicemarket.verify import _random_config
from slicemarket.workload import GenConfig, Instance, WorkloadError, generate_instance

from conftest import ORDER_FORMS, WORST_ORDER_MARKETS, manual_instance, order_test_markets
from reference_protocol import (
    PriceQuote,
    mvno_init,
    mvno_settle,
    reference_entries,
    reference_jsonl,
    tenant_decide,
)

#: The generator's private records and bounds helper, which live only in the tests.
PRIVATE_NAMES = ("generate_population", "TenantPrivate", "derive_bounds")

#: The message-by-message names that live only in ``reference_protocol``.
REFERENCE_NAMES = (
    "PriceQuote",
    "RentDecision",
    "TransactionOutcome",
    "mvno_init",
    "tenant_decide",
    "mvno_settle",
    "transferred_data_bytes",
)


def reference_run_session(setup, schedule, instance, order=None) -> SessionResult:
    n, c = instance.tenant_count, instance.resource_count
    if setup.resource_count != c:
        raise ProtocolError("setup and instance disagree on the resource count")
    if order is None:
        order = range(n)
    else:
        order = [int(t) for t in order]
        counts = np.bincount(np.asarray(order, dtype=int), minlength=n) if order else np.ones(0)
        if len(order) != n or not (counts == 1).all():
            raise ProtocolError("arrival order must be a permutation of the tenant indices")

    ledger = mvno_init(setup, schedule)
    demand_rows = [tuple(row) for row in instance.demands.tolist()]
    valuations = instance.valuations.tolist()

    surpluses = [0.0] * n
    payments = np.zeros(n)
    accepted = np.zeros(n, dtype=bool)

    for arrival, tenant in enumerate(order, start=1):
        quote = PriceQuote(arrival, ledger.prices)
        decision, surplus = tenant_decide(quote, valuations[tenant], demand_rows[tenant])
        outcome, ledger = mvno_settle(ledger, schedule, decision)
        surpluses[tenant] = surplus
        if outcome.status == SUCC:
            accepted[tenant] = True
            payments[tenant] = decision.payment

    allocation = Allocation.from_decisions(instance, accepted)
    return SessionResult(ledger=ledger, allocation=allocation, payments=payments, surpluses=np.asarray(surpluses))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_bit_identical(setup, schedule, instance, order) -> list[TranscriptEntry]:
    kernel = run_session(setup, schedule, instance, order)
    reference = reference_run_session(setup, schedule, instance, order)
    assert kernel.allocation.accepted.dtype == reference.allocation.accepted.dtype
    assert np.array_equal(kernel.allocation.accepted, reference.allocation.accepted)
    assert _bits(kernel.allocation.utilization) == _bits(reference.allocation.utilization)
    assert kernel.payments.dtype == reference.payments.dtype
    assert _bits(kernel.payments) == _bits(reference.payments)
    assert kernel.surpluses.dtype == reference.surpluses.dtype
    assert _bits(kernel.surpluses) == _bits(reference.surpluses)
    assert _bits(kernel.ledger.prices) == _bits(reference.ledger.prices)
    assert _bits(kernel.ledger.utilization) == _bits(reference.ledger.utilization)
    assert kernel.ledger.revenue.hex() == reference.ledger.revenue.hex()
    transcript = list(kernel.ledger.transcript)
    assert all(type(entry) is TranscriptEntry for entry in transcript)
    assert transcript == reference.ledger.transcript
    # repr tells -0.0 from 0.0 and prints every float exactly
    assert repr(transcript) == repr(reference.ledger.transcript)
    assert transcript_to_jsonl(kernel.ledger.transcript) == reference_jsonl(reference.ledger.transcript)
    return transcript


def _schedules(setup):
    return (build_schedule(setup), MyopicPricing(setup))


def _orders(rng, n):
    return (None, np.arange(n), rng.permutation(n))


def test_random_verify_corpus():
    rng = np.random.default_rng(606)
    outcomes = set()
    for _ in range(300):
        instance = generate_instance(_random_config(rng))
        setup = MarketSetup.from_instance(instance)
        order = _orders(rng, instance.tenant_count)[int(rng.integers(0, 3))]
        for schedule in _schedules(setup):
            outcomes.update(entry.outcome for entry in assert_bit_identical(setup, schedule, instance, order))
    assert outcomes == {SUCC, FAIL, SKIP}


def test_overfull_markets_fail_on_capacity():
    # demand means of several times 1/N: many accepting tenants do not fit
    rng = np.random.default_rng(607)
    fails = 0
    for _ in range(60):
        n = int(rng.integers(2, 40))
        config = GenConfig(
            tenant_count=n,
            resource_count=int(rng.integers(1, 5)),
            demand_mean=float(rng.uniform(2.0, 6.0)) / n,
            seed=int(rng.integers(0, 2**32)),
        )
        instance = generate_instance(config)
        setup = MarketSetup.from_instance(instance)
        for order in _orders(rng, n):
            for schedule in _schedules(setup):
                transcript = assert_bit_identical(setup, schedule, instance, order)
                fails += sum(entry.outcome == FAIL for entry in transcript)
    assert fails > 100


def test_an_online_size_market_in_a_random_order():
    # the corpora above stop at verify sizes; at N = 20 000 the engine reads
    # its rows as one list per resource over a long session
    instance = generate_instance(GenConfig(tenant_count=20000, seed=1008))
    setup = MarketSetup.from_instance(instance)
    order = np.random.default_rng(608).permutation(instance.tenant_count)
    for schedule in _schedules(setup):
        outcomes = {entry.outcome for entry in assert_bit_identical(setup, schedule, instance, order)}
        assert outcomes == {SUCC, SKIP}


@pytest.mark.parametrize("order", [None, [0, 1, 2], [2, 1, 0], [1, 2, 0]])
def test_hand_built_capacity_fail(order):
    # any two of the three tenants overfill the single resource
    instance = manual_instance([[0.9], [0.6], [0.5]], [2.0, 2.5, 1.9], [1.0], margin=0.1)
    setup = MarketSetup.from_instance(instance)
    for schedule in _schedules(setup):
        transcript = assert_bit_identical(setup, schedule, instance, order)
        assert [entry.outcome for entry in transcript].count(SUCC) == 1
        assert FAIL in {entry.outcome for entry in transcript}


def test_hand_built_two_resource_fail():
    # the second tenant fits resource 0 but not resource 1
    demands = np.array([[0.2, 0.7], [0.2, 0.5], [0.1, 0.1]])
    instance = Instance(demands, np.array([3.0, 6.0, 1.0]), [1.0, 1.0], [20.0, 20.0], [0.5, 0.5])
    setup = MarketSetup.from_instance(instance)
    for schedule in _schedules(setup):
        outcomes = [e.outcome for e in assert_bit_identical(setup, schedule, instance, None)]
        assert outcomes[:2] == [SUCC, FAIL]


def test_filling_capacity_exactly_succeeds():
    # 0.5 + 0.25 + 0.25 is exactly 1.0: the last sale fits, one more unit fails
    demands = np.array([[0.5, 0.25], [0.25, 0.25], [0.25, 0.5], [0.0, 0.0], [0.01, 0.0]])
    instance = Instance(demands, np.full(5, 10.0), [1.0, 1.0], [20.0, 20.0], [0.5, 0.5])
    setup = MarketSetup.from_instance(instance)
    for schedule in _schedules(setup):
        outcomes = [e.outcome for e in assert_bit_identical(setup, schedule, instance, None)]
        assert outcomes == [SUCC, SUCC, SUCC, SUCC, FAIL]


@pytest.mark.parametrize("resources", [1, 3])
def test_no_tenants(resources):
    instance = Instance(
        np.zeros((0, resources)), np.zeros(0), [1.0] * resources, [2.0] * resources, [0.5] * resources
    )
    setup = MarketSetup.from_instance(instance)
    for schedule in _schedules(setup):
        for order in (None, []):
            assert assert_bit_identical(setup, schedule, instance, order) == []


@pytest.mark.parametrize("form", sorted(ORDER_FORMS))
def test_order_forms_match_the_reference(form):
    rng = np.random.default_rng(612)
    outcomes = set()
    for instance in order_test_markets(rng):
        order = ORDER_FORMS[form](rng.permutation(instance.tenant_count))
        setup = MarketSetup.from_instance(instance)
        for schedule in _schedules(setup):
            outcomes.update(entry.outcome for entry in assert_bit_identical(setup, schedule, instance, order))
    assert outcomes == {SUCC, FAIL, SKIP}


def _assert_settled_per_arrival(instance, order, result):
    """Each arrival's outcome lands on its own tenant: a SUCC pays its charge,
    a FAIL keeps its positive surplus and pays nothing, a SKIP has neither."""
    tenants = range(instance.tenant_count) if order is None else [int(t) for t in order]
    transcript = result.ledger.transcript
    assert len(transcript) == len(tenants)
    surpluses, payments = result.surpluses, result.payments
    accepted = result.allocation.accepted
    for tenant, outcome, charge in zip(tenants, transcript.outcomes, transcript.charges):
        surplus = float(instance.valuations[tenant]) - charge
        if outcome == SKIP:
            assert surplus <= 0
            assert surpluses[tenant] == 0.0 and payments[tenant] == 0.0 and not accepted[tenant]
            continue
        assert surplus > 0 and surpluses[tenant].hex() == surplus.hex()
        if outcome == FAIL:
            assert payments[tenant] == 0.0 and not accepted[tenant]
        else:
            assert payments[tenant].hex() == charge.hex() and accepted[tenant]


def test_fail_keeps_its_surplus_and_pays_nothing():
    # overfull markets: SUCC, FAIL and SKIP interleave in one session
    rng = np.random.default_rng(613)
    interleaved = settled_after_a_fail = 0
    for _ in range(60):
        n = int(rng.integers(2, 50))
        config = GenConfig(
            tenant_count=n,
            resource_count=int(rng.integers(1, 4)),
            demand_mean=float(rng.uniform(3.0, 8.0)) / n,
            seed=int(rng.integers(0, 2**32)),
        )
        instance = generate_instance(config)
        setup = MarketSetup.from_instance(instance)
        for order in (None, rng.permutation(n), rng.permutation(n).astype(np.uint64)):
            for schedule in _schedules(setup):
                result = run_session(setup, schedule, instance, order)
                _assert_settled_per_arrival(instance, order, result)
                outcomes = result.ledger.transcript.outcomes
                interleaved += {SUCC, FAIL, SKIP} <= set(outcomes)
                after = outcomes[outcomes.index(FAIL) + 1 :] if FAIL in outcomes else []
                settled_after_a_fail += SKIP in after and FAIL in after
    assert interleaved > 50 and settled_after_a_fail > 50


def test_each_fail_of_a_worst_order_keeps_its_surplus():
    # five FAILs in one session: each keeps value - charge and pays nothing
    config, worst, _ = WORST_ORDER_MARKETS[0]
    instance = generate_instance(config)
    result = run_posted_price(instance, worst)
    assert result.ledger.transcript.outcomes.count(FAIL) == 5
    _assert_settled_per_arrival(instance, worst, result)


@pytest.mark.parametrize("order", [None, [0, 1, 2, 3, 4, 5], np.array([0, 1, 3, 2, 4, 5], dtype=np.int32)])
def test_fail_at_the_first_and_the_last_arrival(order):
    # tenant 0 alone overfills the resource, tenants 1 and 2 fill it to 0.9,
    # tenants 4 and 5 no longer fit, and tenant 3 would pay more than its value
    demands = [[1.5], [0.6], [0.3], [0.05], [0.5], [0.2]]
    instance = Instance(np.array(demands), np.array([40.0, 3.0, 7.0, 0.01, 15.0, 5.0]), [1.0], [20.0], [0.5])
    setup = MarketSetup.from_instance(instance)
    for schedule in _schedules(setup):
        result = run_session(setup, schedule, instance, order)
        _assert_settled_per_arrival(instance, order, result)
        outcomes = result.ledger.transcript.outcomes
        assert outcomes[0] == FAIL and outcomes[-1] == FAIL
        assert {SUCC, SKIP} <= set(outcomes)
        assert_bit_identical(setup, schedule, instance, order)


def test_zero_demand_tenants():
    # a tenant demanding nothing pays nothing and, with a positive valuation, buys
    instance = manual_instance([[0.0, 0.0], [0.3, 0.2], [0.0, 0.0]], [0.5, 1.0, 0.0], [0.2, 0.2])
    setup = MarketSetup.from_instance(instance)
    for schedule in _schedules(setup):
        assert_bit_identical(setup, schedule, instance, [2, 0, 1])


def test_transcript_messages_are_built_on_access():
    instance = generate_instance(GenConfig(tenant_count=12, resource_count=2, seed=4))
    setup = MarketSetup.from_instance(instance)
    transcript = run_session(setup, build_schedule(setup), instance).ledger.transcript
    assert len(transcript) == 12
    rows = reference_entries(transcript)
    assert list(transcript) == rows
    assert [transcript[i] for i in range(-12, 12)] == rows + rows
    # each access builds a fresh message; the transcript keeps only its columns
    assert transcript[0] == transcript[0] and transcript[0] is not transcript[0]
    for index in (12, -13):
        with pytest.raises(IndexError):
            transcript[index]


def test_the_ledger_stores_one_transcript():
    instance = generate_instance(GenConfig(tenant_count=12, resource_count=2, seed=4))
    setup = MarketSetup.from_instance(instance)
    ledger = run_session(setup, build_schedule(setup), instance).ledger
    assert protocol.SessionLedger.__slots__ == ("utilization", "prices", "revenue", "transcript")
    assert Transcript.__slots__ == ("demand_rows", "quotes", "outcomes", "charges")
    transcript = ledger.transcript
    assert len(transcript.quotes) == len(transcript.outcomes) == len(transcript.charges) == 12


def test_the_transcript_keeps_demand_rows_as_one_array():
    instance = generate_instance(GenConfig(tenant_count=12, resource_count=2, seed=4))
    setup = MarketSetup.from_instance(instance)
    # instance order gathers its rows like any other order: equal, not the same array
    rows = run_session(setup, build_schedule(setup), instance).ledger.transcript.demand_rows
    assert type(rows) is np.ndarray and rows.dtype == float and rows is not instance.demands
    np.testing.assert_array_equal(rows, instance.demands)
    order = np.random.default_rng(4).permutation(12)
    rows = run_session(setup, build_schedule(setup), instance, order).ledger.transcript.demand_rows
    assert type(rows) is np.ndarray and rows.dtype == float
    np.testing.assert_array_equal(rows, instance.demands[order])


def test_one_session_engine():
    # the message-by-message protocol is a test reference, not package surface
    for module in (slicemarket, protocol):
        assert [name for name in REFERENCE_NAMES if hasattr(module, name)] == []
    assert not hasattr(protocol, "PAYMENT_TOLERANCE")
    # every ledger run_session returns holds its transcript, even an empty session's
    empty = Instance(np.zeros((0, 2)), np.zeros(0), [1.0, 1.0], [2.0, 2.0], [0.5, 0.5])
    rng = np.random.default_rng(608)
    for instance in (empty, *(generate_instance(_random_config(rng)) for _ in range(20))):
        setup = MarketSetup.from_instance(instance)
        for schedule in _schedules(setup):
            ledger = run_session(setup, schedule, instance).ledger
            assert type(ledger.transcript) is Transcript
            assert len(ledger.transcript) == len(ledger.transcript.outcomes) == instance.tenant_count
            assert list(ledger.transcript) == reference_entries(ledger.transcript)


def test_generator_returns_the_instance_alone():
    # the private tenant records and the bounds helper are test references
    for module in (slicemarket, workload):
        assert [name for name in PRIVATE_NAMES if hasattr(module, name)] == []
    assert type(generate_instance(GenConfig(tenant_count=5, seed=3))) is Instance


class TestUpFrontInputChecks:
    """Bad tenant data never reaches a session: the ``Instance`` constructor
    rejects infinite and negative valuations and demands (NaN:
    ``test_protocol.py``)."""

    def market(self):
        return generate_instance(GenConfig(tenant_count=6, resource_count=2, seed=8))

    def with_values(self, instance, valuations=None, demands=None):
        return Instance(
            instance.demands if demands is None else demands,
            instance.valuations if valuations is None else valuations,
            instance.price_floors,
            instance.price_caps,
            instance.unit_costs,
        )

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, -0.1])
    def test_bad_valuation(self, bad):
        instance = self.market()
        valuations = instance.valuations.copy()
        valuations[3] = bad
        with pytest.raises(WorkloadError, match="tenant 3"):
            self.with_values(instance, valuations=valuations)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, -0.1])
    def test_bad_demand(self, bad):
        instance = self.market()
        demands = instance.demands.copy()
        demands[4, 1] = bad
        with pytest.raises(WorkloadError, match="tenant 4"):
            self.with_values(instance, demands=demands)


class _BadPrices:
    """A schedule whose price after the first sale is ``after``."""

    def __init__(self, after):
        self.after = after

    def price_at(self, c, y):
        return 1.0 if y == 0.0 else self.after

    def quote(self, utilization):
        return tuple(self.price_at(c, y) for c, y in enumerate(utilization))


@pytest.mark.parametrize("after", [math.nan, math.inf, -1.0])
def test_new_prices_are_checked_as_quotes(after):
    instance = manual_instance([[0.1], [0.1]], [1.0, 1.0], [0.5])
    setup = MarketSetup([0.5], [1.0], [20.0])
    with pytest.raises(ProtocolError, match="quoted price"):
        run_session(setup, _BadPrices(after), instance)
    with pytest.raises(ProtocolError, match="quoted price"):
        reference_run_session(setup, _BadPrices(after), instance)


class _CountingSchedule:
    """Passes ``quote`` through to a schedule and counts the calls; a
    ``price_at`` call fails the test."""

    def __init__(self, schedule):
        self.schedule = schedule
        self.quotes = 0

    def quote(self, utilization):
        self.quotes += 1
        return self.schedule.quote(utilization)

    def price_at(self, c, y):
        raise AssertionError("the session engine asked for one price")


def test_one_quote_at_the_start_and_one_per_sale():
    rng = np.random.default_rng(609)
    for _ in range(40):
        n = int(rng.integers(1, 60))
        config = GenConfig(
            tenant_count=n,
            resource_count=int(rng.integers(1, 5)),
            demand_mean=float(rng.uniform(0.5, 4.0)) / n,
            seed=int(rng.integers(0, 2**32)),
        )
        instance = generate_instance(config)
        setup = MarketSetup.from_instance(instance)
        for schedule in _schedules(setup):
            counting = _CountingSchedule(schedule)
            result = run_session(setup, counting, instance, rng.permutation(instance.tenant_count))
            sales = result.ledger.transcript.outcomes.count(SUCC)
            assert counting.quotes == 1 + sales
            assert result.ledger.prices == schedule.quote(result.ledger.utilization)


def test_checked_prices_walks_a_float_tuple_once():
    quote = (1.0, 0.0, 2.5)
    assert protocol._checked_prices(quote, 3) is quote
    # anything else is coerced first, then checked price by price
    for prices in ([1.0, 0.0, 2.5], (1, 0, 2.5), np.array([1.0, 0.0, 2.5]), (np.float64(1.0), 0.0, 2.5)):
        checked = protocol._checked_prices(prices, 3)
        assert checked == quote
        assert all(type(p) is float for p in checked)
    for prices, message in (
        ((1.0, math.nan, 2.5), "resource 1 is not finite"),
        ((1.0, 0.0, math.inf), "resource 2 is not finite"),
        ((-0.5, 0.0, 2.5), "resource 0 is negative"),
        ((1.0, np.float64(-1.0), 2.5), "resource 1 is negative"),
        ((1.0, "x", 2.5), "non-numeric"),
    ):
        with pytest.raises(ProtocolError, match=message):
            protocol._checked_prices(prices, 3)


@pytest.mark.parametrize(
    "prices",
    [(1.0, 1.0), (1.0, 1.0, 1.0, 1.0), (), [1.0, 1.0], (1, 1), np.ones(4)],
    ids=["short tuple", "long tuple", "empty", "short list", "short ints", "long array"],
)
def test_checked_prices_needs_one_price_per_resource(prices):
    # both the float-tuple walk and the coercing path check the length
    with pytest.raises(ProtocolError, match=rf"must hold 3 prices, one per resource, got {len(prices)}"):
        protocol._checked_prices(prices, 3)


class _ResizedQuote:
    """A schedule that quotes ``size`` prices at a three-resource market,
    from the start or only after the first sale."""

    def __init__(self, size, after_a_sale):
        self.size, self.after_a_sale = size, after_a_sale

    def quote(self, utilization):
        sold = any(y > 0.0 for y in utilization)
        return (1.0,) * (self.size if sold or not self.after_a_sale else len(utilization))


@pytest.mark.parametrize("after_a_sale", [False, True], ids=["first quote", "after a sale"])
@pytest.mark.parametrize("size", [2, 4, 0], ids=["short", "long", "empty"])
def test_a_quote_of_the_wrong_length_is_refused(size, after_a_sale):
    instance = manual_instance([[0.1, 0.1, 0.1]] * 3, [1.0, 1.0, 1.0], [0.2, 0.2, 0.2])
    setup = MarketSetup.from_instance(instance)
    schedule = _ResizedQuote(size, after_a_sale)
    message = rf"a quote must hold 3 prices, one per resource, got {size}"
    for session in (run_session, reference_run_session):
        with pytest.raises(ProtocolError, match=message):
            session(setup, schedule, instance)


@pytest.mark.parametrize(
    "session",
    [run_posted_price, myopic_slicing, lambda instance, order: random_slicing(instance, order, seed=7)],
    ids=["threshold", "myopic", "random"],
)
def test_instance_order_is_the_identity_permutation(session):
    # no order and arange(n) run one code path: every output bit for bit alike
    rng = np.random.default_rng(610)
    for instance in order_test_markets(rng, count=12):
        default = session(instance, None)
        spelled = session(instance, np.arange(instance.tenant_count))
        if isinstance(default, tuple):  # random slicing: (welfare, accepted)
            assert default[0].hex() == spelled[0].hex()
            assert default[1].tobytes() == spelled[1].tobytes()
            continue
        assert default.allocation.accepted.tobytes() == spelled.allocation.accepted.tobytes()
        assert _bits(default.payments) == _bits(spelled.payments)
        assert _bits(default.surpluses) == _bits(spelled.surpluses)
        assert default.ledger.transcript.quotes == spelled.ledger.transcript.quotes
        assert _bits(default.ledger.prices) == _bits(spelled.ledger.prices)
        assert transcript_to_jsonl(default.ledger.transcript) == transcript_to_jsonl(spelled.ledger.transcript)
