"""Stop-and-wait transaction protocol between the operator and its tenants.

One tenant is handled at a time: the operator publishes the current per-
resource prices, the tenant answers with an accept/reject tuple, and the
operator settles the transaction (success, capacity failure with refund, or
skip) before quoting the next arrival.  The session ledger records only what
actually crossed the wire; valuations, subscriber data and anything else
private to a tenant never appear in it.

``PriceQuote``, ``RentDecision``, ``tenant_decide`` and ``mvno_settle`` spell
the protocol out message by message, each message checked as it is built;
they are the reference the session engine is tested against.
``run_session`` is that engine: it checks the arrival order once per session
(the ``Instance`` constructor has checked the valuations and demands), then
runs every arrival on plain lists, re-evaluating the prices only after a sale
and keeping a compact record per arrival (the quoted price tuple, shared
between arrivals, the outcome and the charge).  That record,
``SessionLedger.record``, is what the ``verify`` checks read.  The ledger's
``transcript`` of ``TranscriptEntry`` messages is built from it the first
time it is read, so a caller that needs only the allocation, the revenue or
``SessionLedger.transferred_bytes`` never pays for it.

``validate_transcript_record`` checks a persisted record against the published
``TRANSCRIPT_RECORD_SCHEMA`` with direct key, type and range checks; the
schema is the wire contract and needs no schema library at run time.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .market import CAPACITY, Allocation, MarketError, MarketSetup, _readonly

SUCC = "SUCC"
FAIL = "FAIL"
SKIP = "SKIP"

PAYMENT_TOLERANCE = 1e-9


class ProtocolError(MarketError):
    """A message or settlement step breaks the transaction protocol."""


class TranscriptSchemaError(MarketError):
    """A transcript record does not match the wire schema."""


def _dot(prices: Sequence[float], demand: Sequence[float]) -> float:
    # the tenant and the settlement check must agree bit-for-bit on the charge
    total = 0.0
    for p, d in zip(prices, demand):
        total += p * d
    return total


def _float_tuple(values) -> tuple[float, ...]:
    # shares an already-coerced tuple instead of copying it; the protocol loop
    # passes the same immutable tuples through quote, settlement and transcript
    if type(values) is tuple and all(type(v) is float for v in values):
        return values
    try:
        return tuple(float(v) for v in values)
    except TypeError as exc:
        raise ProtocolError(f"non-numeric value in a protocol message: {exc}") from exc


def _checked_prices(prices) -> tuple[float, ...]:
    """``prices`` as a float tuple, raising unless every one is finite and non-negative."""
    prices = _float_tuple(prices)
    if not all(0.0 <= p < math.inf for p in prices):  # NaN fails both comparisons
        for c, p in enumerate(prices):
            if not math.isfinite(p):
                raise ProtocolError(f"quoted price for resource {c} is not finite: {p!r}")
            if p < 0:
                raise ProtocolError(f"quoted price for resource {c} is negative: {p!r}")
    return prices


@dataclass(frozen=True)
class PriceQuote:
    """Published prices ahead of one arrival."""

    arrival: int
    prices: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "prices", _checked_prices(self.prices))
        if self.arrival < 1:
            raise ProtocolError(f"arrival index must be positive, got {self.arrival}")


@dataclass(frozen=True)
class RentDecision:
    """Tenant answer: accept flag, offered payment, and the demand vector."""

    accept: bool
    payment: float
    demand: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "demand", _float_tuple(self.demand))
        object.__setattr__(self, "payment", float(self.payment))
        if not 0.0 <= self.payment < math.inf:
            raise ProtocolError(f"payment must be finite and non-negative, got {self.payment!r}")
        if not all(0.0 <= d < math.inf for d in self.demand):
            raise ProtocolError(f"demand entries must be finite and non-negative, got {self.demand!r}")
        if not self.accept and (self.payment != 0.0 or any(d != 0.0 for d in self.demand)):
            raise ProtocolError("a rejecting tenant must send zero payment and zero demands")


@dataclass(frozen=True)
class TransactionOutcome:
    """Settlement result; the refund equals the payment exactly when it failed."""

    status: str
    refund: float = 0.0

    def __post_init__(self):
        if self.status not in (SUCC, FAIL, SKIP):
            raise ProtocolError(f"unknown outcome status {self.status!r}")
        if self.status != FAIL and self.refund != 0.0:
            raise ProtocolError("only failed transactions carry a refund")


class TranscriptEntry(NamedTuple):
    arrival: int
    quote: tuple[float, ...]
    accepted: int
    payment: float
    demand: tuple[float, ...]
    outcome: str

    def to_record(self) -> dict:
        return {
            "n": self.arrival,
            "quote": list(self.quote),
            "x": self.accepted,
            "pi": self.payment,
            "d": list(self.demand),
            "outcome": self.outcome,
        }


#: Wire schema of one persisted transcript record.  ``additionalProperties``
#: is deliberately false: a record carrying valuations, subscriber counts or
#: any other private field must be rejected.
TRANSCRIPT_RECORD_SCHEMA = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "quote": {"type": "array", "items": {"type": "number", "minimum": 0}},
        "x": {"type": "integer", "enum": [0, 1]},
        "pi": {"type": "number", "minimum": 0},
        "d": {"type": "array", "items": {"type": "number", "minimum": 0}},
        "outcome": {"type": "string", "enum": [SUCC, FAIL, SKIP]},
    },
    "required": ["n", "quote", "x", "pi", "d", "outcome"],
    "additionalProperties": False,
}


_RECORD_KEYS = frozenset(TRANSCRIPT_RECORD_SCHEMA["properties"])


# JSON Schema types: a bool is neither an integer nor a number, and a float
# with an integral value is an integer.  A plain float skips the ABC check.
def _is_number(value) -> bool:
    return type(value) is float or (isinstance(value, numbers.Number) and not isinstance(value, bool))


def _is_integer(value) -> bool:
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


def _record_problem(record) -> str | None:
    if not isinstance(record, dict):
        return f"{record!r} is not an object"
    if record.keys() != _RECORD_KEYS:
        extra = record.keys() - _RECORD_KEYS
        if extra:
            return f"unexpected properties {sorted(map(repr, extra))}"
        return f"missing properties {[key for key in TRANSCRIPT_RECORD_SCHEMA['required'] if key not in record]}"
    n = record["n"]
    if not (_is_integer(n) and n >= 1):
        return f"'n' must be an integer >= 1, got {n!r}"
    for key in ("quote", "d"):
        values = record[key]
        # ``not v < 0`` lets NaN through, as the schema's ``minimum`` does
        if not (isinstance(values, list) and all(_is_number(v) and not v < 0 for v in values)):
            return f"{key!r} must be an array of non-negative numbers, got {values!r}"
    x = record["x"]
    if not (_is_integer(x) and x in (0, 1)):
        return f"'x' must be 0 or 1, got {x!r}"
    pi = record["pi"]
    if not (_is_number(pi) and not pi < 0):
        return f"'pi' must be a non-negative number, got {pi!r}"
    outcome = record["outcome"]
    if not (isinstance(outcome, str) and outcome in (SUCC, FAIL, SKIP)):
        return f"'outcome' must be one of {[SUCC, FAIL, SKIP]}, got {outcome!r}"
    return None


def validate_transcript_record(record: dict) -> None:
    """Raise ``TranscriptSchemaError`` unless ``record`` matches ``TRANSCRIPT_RECORD_SCHEMA``."""
    problem = _record_problem(record)
    if problem is not None:
        raise TranscriptSchemaError(f"transcript record rejected: {problem}")


def transcript_to_jsonl(entries: Iterable[TranscriptEntry]) -> str:
    return "".join(json.dumps(e.to_record(), separators=(",", ":")) + "\n" for e in entries)


def parse_transcript_jsonl(text: str, validate: bool = True) -> list[dict]:
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    if validate:
        for record in records:
            validate_transcript_record(record)
    return records


def transferred_data_bytes(entries: Iterable[TranscriptEntry]) -> int:
    """Bytes that crossed the wire during a session, 4 per scalar value: per
    arrival the quoted prices, the demands, the accept flag, the payment and
    the outcome."""
    return 4 * sum(len(e.quote) + len(e.demand) + 3 for e in entries)


class _ArrivalRecord:
    """``run_session``'s compact record: per arrival the quoted price tuple
    (shared until the next sale), the outcome and the tenant's charge."""

    __slots__ = ("order", "demand_rows", "quotes", "outcomes", "charges")

    def __init__(self, order: Sequence[int], demand_rows: list[list[float]]):
        self.order = order
        self.demand_rows = demand_rows
        self.quotes: list[tuple[float, ...]] = []
        self.outcomes: list[str] = []
        self.charges: list[float] = []

    def entries(self) -> list[TranscriptEntry]:
        """The transcript ``tenant_decide`` and ``mvno_settle`` would have written."""
        return [
            TranscriptEntry(arrival, quote, 0, 0.0, (0.0,) * len(quote), SKIP)
            if outcome == SKIP
            else TranscriptEntry(arrival, quote, 1, charge, tuple(self.demand_rows[tenant]), outcome)
            for arrival, tenant, quote, outcome, charge in zip(
                range(1, len(self.quotes) + 1), self.order, self.quotes, self.outcomes, self.charges
            )
        ]


class SessionLedger:
    """Operator-visible session state: utilization, prices, transcript, revenue.

    ``prices`` is an immutable tuple replaced wholesale on every settlement so
    quotes and transcript entries can share it.  ``transcript`` is the list
    ``mvno_settle`` appends to.  A ledger that ``run_session`` returns keeps
    the session's compact ``record`` for its whole life (the ``verify``
    checks read it) and builds ``transcript`` from it on first read; a
    ledger from ``mvno_init`` has ``record = None``.  Strictly one mutator
    at a time; a session is a sequential state machine.
    """

    __slots__ = ("utilization", "prices", "revenue", "_transcript", "record")

    def __init__(
        self, utilization: list[float], prices: tuple[float, ...], record: _ArrivalRecord | None = None
    ):
        self.utilization = utilization
        self.prices = prices
        self.revenue = 0.0
        self._transcript: list[TranscriptEntry] | None = [] if record is None else None
        self.record = record

    @property
    def transcript(self) -> list[TranscriptEntry]:
        if self._transcript is None:
            self._transcript = self.record.entries()
        return self._transcript

    @property
    def resource_count(self) -> int:
        return len(self.utilization)

    @property
    def arrivals(self) -> int:
        return len(self._transcript) if self.record is None else len(self.record.outcomes)

    @property
    def transferred_bytes(self) -> int:
        """``transferred_data_bytes(self.transcript)``, without building the
        transcript: every arrival quotes one price and carries one demand per
        resource."""
        return 4 * self.arrivals * (2 * self.resource_count + 3)


@dataclass(frozen=True)
class DualCertificate:
    """Claimed tenant surpluses plus the final prices they must be checked against."""

    surpluses: np.ndarray
    final_prices: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "surpluses", _readonly(self.surpluses))
        object.__setattr__(self, "final_prices", tuple(float(p) for p in self.final_prices))

    def feasibility_slacks(self, instance) -> np.ndarray:
        """Per-tenant slack of ``surplus >= valuation - demand . final_prices``."""
        prices = np.asarray(self.final_prices)
        return self.surpluses - (instance.valuations - instance.demands @ prices)


@dataclass(frozen=True)
class SessionResult:
    ledger: SessionLedger
    certificate: DualCertificate
    allocation: Allocation
    payments: np.ndarray


def mvno_init(setup: MarketSetup, schedule) -> SessionLedger:
    """Fresh ledger: zero utilization, prices evaluated at zero utilization."""
    c = setup.resource_count
    utilization = [0.0] * c
    prices = tuple(schedule.price_at(i, 0.0) for i in range(c))
    return SessionLedger(utilization, prices)


def tenant_decide(quote: PriceQuote, valuation: float, demand: Sequence[float]) -> tuple[RentDecision, float]:
    """Tenant-side decision against a posted quote.

    Accept exactly when the utility ``valuation - demand . prices`` is
    strictly positive; ties reject.  Returns the decision and the clamped
    surplus the tenant claims.
    """
    if not 0.0 <= valuation < math.inf:
        raise ProtocolError(f"valuation must be finite and non-negative, got {valuation!r}")
    demand = _float_tuple(demand)
    if not all(0.0 <= d < math.inf for d in demand):
        raise ProtocolError(f"demand entries must be finite and non-negative, got {demand!r}")
    if len(demand) != len(quote.prices):
        raise ProtocolError(f"demand has {len(demand)} entries, quote has {len(quote.prices)} prices")
    charge = _dot(quote.prices, demand)
    surplus = valuation - charge
    if surplus > 0:
        return RentDecision(True, charge, demand), surplus
    return RentDecision(False, 0.0, (0.0,) * len(demand)), 0.0


def mvno_settle(ledger: SessionLedger, schedule, decision: RentDecision) -> tuple[TransactionOutcome, SessionLedger]:
    """Settle one arrival against the ledger and recompute prices.

    An accepted demand that would push any resource past capacity fails and
    the payment is refunded (never booked as revenue); otherwise utilization
    and revenue advance.  The ledger is updated in place and returned.
    """
    c = ledger.resource_count
    if len(decision.demand) != c:
        raise ProtocolError(f"decision demand has {len(decision.demand)} entries, session has {c} resources")
    arrival = len(ledger.transcript) + 1
    quoted = ledger.prices
    if decision.accept:
        expected = _dot(quoted, decision.demand)
        if not abs(decision.payment - expected) <= PAYMENT_TOLERANCE:  # NaN fails
            raise ProtocolError(
                f"payment {decision.payment!r} does not match quoted charge {expected!r} for arrival {arrival}"
            )
        if any(y + d > CAPACITY for y, d in zip(ledger.utilization, decision.demand)):
            outcome = TransactionOutcome(FAIL, refund=decision.payment)
        else:
            for i, d in enumerate(decision.demand):
                ledger.utilization[i] += d
            ledger.revenue += decision.payment
            outcome = TransactionOutcome(SUCC)
    else:
        outcome = TransactionOutcome(SKIP)
    ledger.prices = tuple(schedule.price_at(i, ledger.utilization[i]) for i in range(c))
    ledger.transcript.append(
        TranscriptEntry(arrival, quoted, int(decision.accept), decision.payment, decision.demand, outcome.status)
    )
    return outcome, ledger


def run_session(
    setup: MarketSetup,
    schedule,
    instance,
    order: Sequence[int] | None = None,
) -> SessionResult:
    """Run one full stop-and-wait session over the instance tenants.

    Tenants are processed strictly in ``order`` (instance order by default);
    each settlement completes before the next quote.  Every arrival follows
    ``tenant_decide`` and ``mvno_settle`` exactly, on plain lists: the order is
    checked once up front (valuations and demands were checked when the
    ``Instance`` was built), one ``_dot`` charge is both the tenant's offer and
    the booked payment, and the prices are re-evaluated (and checked as a
    quote) only after a sale, the one step that moves utilization.
    """
    n, c = instance.tenant_count, instance.resource_count
    if setup.resource_count != c:
        raise ProtocolError("setup and instance disagree on the resource count")
    if order is None:
        order = range(n)
    else:
        order = [int(t) for t in order]
        indices = np.asarray(order, dtype=int)
        # range first: bincount raises a bare ValueError on a negative index
        in_range = len(order) == n and (n == 0 or 0 <= indices.min() <= indices.max() < n)
        if not in_range or (np.bincount(indices, minlength=n) != 1).any():
            raise ProtocolError("arrival order must be a permutation of the tenant indices")

    price_at = schedule.price_at
    resources = range(c)
    utilization = [0.0] * c
    prices = _checked_prices(tuple(map(price_at, resources, utilization)))
    demand_rows = instance.demands.tolist()
    valuations = instance.valuations.tolist()
    surpluses = [0.0] * n
    payments = [0.0] * n
    accepted = [False] * n
    revenue = 0.0
    record = _ArrivalRecord(order, demand_rows)
    record_quote, record_charge = record.quotes.append, record.charges.append
    record_outcome = record.outcomes.append

    for tenant in order:
        demand = demand_rows[tenant]
        charge = _dot(prices, demand)
        record_quote(prices)
        record_charge(charge)
        surplus = valuations[tenant] - charge
        if surplus > 0:
            surpluses[tenant] = surplus
            grown = [y + d for y, d in zip(utilization, demand)]
            if max(grown) > CAPACITY:
                record_outcome(FAIL)
                continue
            utilization = grown
            revenue += charge
            accepted[tenant] = True
            payments[tenant] = charge
            prices = _checked_prices(tuple(map(price_at, resources, utilization)))
            record_outcome(SUCC)
        else:
            record_outcome(SKIP)

    ledger = SessionLedger(utilization, prices, record)
    ledger.revenue = revenue
    certificate = DualCertificate(surpluses, prices)
    allocation = Allocation.from_decisions(instance, accepted)
    return SessionResult(
        ledger=ledger, certificate=certificate, allocation=allocation, payments=np.asarray(payments, dtype=float)
    )


def run_posted_price(instance, order: Sequence[int] | None = None) -> SessionResult:
    """Convenience wrapper: build the threshold schedule for the instance and run."""
    from .pricing import build_schedule

    setup = MarketSetup.from_instance(instance)
    return run_session(setup, build_schedule(setup), instance, order)
