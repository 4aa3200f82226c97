"""Stop-and-wait transaction protocol between the operator and its tenants.

One tenant is handled at a time: the operator publishes the current per-
resource prices, the tenant answers with an accept/reject tuple, and the
operator settles the transaction (success, capacity failure with refund, or
skip) before quoting the next arrival.  The session ledger records only what
actually crossed the wire; valuations, subscriber data and anything else
private to a tenant never appear in it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import jsonschema
import numpy as np

from .market import CAPACITY, Allocation, MarketError, MarketSetup

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


@dataclass(frozen=True)
class PriceQuote:
    """Published prices ahead of one arrival."""

    arrival: int
    prices: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "prices", _float_tuple(self.prices))
        if self.arrival < 1:
            raise ProtocolError(f"arrival index must be positive, got {self.arrival}")
        for c, p in enumerate(self.prices):
            if not math.isfinite(p):
                raise ProtocolError(f"quoted price for resource {c} is not finite: {p!r}")
            if p < 0:
                raise ProtocolError(f"quoted price for resource {c} is negative: {p!r}")


@dataclass(frozen=True)
class RentDecision:
    """Tenant answer: accept flag, offered payment, and the demand vector."""

    accept: bool
    payment: float
    demand: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "demand", _float_tuple(self.demand))
        object.__setattr__(self, "payment", float(self.payment))
        if self.payment < 0:
            raise ProtocolError(f"payment must be non-negative, got {self.payment!r}")
        if any(d < 0 for d in self.demand):
            raise ProtocolError("demand entries must be non-negative")
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


_TRANSCRIPT_VALIDATOR = jsonschema.Draft202012Validator(TRANSCRIPT_RECORD_SCHEMA)


def validate_transcript_record(record: dict) -> None:
    error = jsonschema.exceptions.best_match(_TRANSCRIPT_VALIDATOR.iter_errors(record))
    if error is not None:
        raise TranscriptSchemaError(f"transcript record rejected: {error.message}") from error


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


class SessionLedger:
    """Operator-visible session state: utilization, prices, transcript, revenue.

    ``prices`` is an immutable tuple replaced wholesale on every settlement so
    quotes and transcript entries can share it.  Strictly one mutator at a
    time; a session is a sequential state machine.
    """

    __slots__ = ("utilization", "prices", "transcript", "revenue")

    def __init__(self, utilization: list[float], prices: tuple[float, ...]):
        self.utilization = utilization
        self.prices = prices
        self.transcript: list[TranscriptEntry] = []
        self.revenue = 0.0

    @property
    def resource_count(self) -> int:
        return len(self.utilization)


@dataclass(frozen=True)
class DualCertificate:
    """Claimed tenant surpluses plus the final prices they must be checked against."""

    surpluses: np.ndarray
    final_prices: tuple[float, ...]

    def __post_init__(self):
        surpluses = np.asarray(self.surpluses, dtype=float)
        surpluses.setflags(write=False)
        object.__setattr__(self, "surpluses", surpluses)
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
    if valuation < 0:
        raise ProtocolError(f"valuation must be non-negative, got {valuation!r}")
    demand = _float_tuple(demand)
    if any(d < 0 for d in demand):
        raise ProtocolError("demand entries must be non-negative")
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
        if abs(decision.payment - expected) > PAYMENT_TOLERANCE:
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
    each settlement completes before the next quote.
    """
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

    certificate = DualCertificate(np.asarray(surpluses), ledger.prices)
    allocation = Allocation.from_decisions(instance, accepted)
    return SessionResult(ledger=ledger, certificate=certificate, allocation=allocation, payments=payments)


def run_posted_price(instance, order: Sequence[int] | None = None) -> SessionResult:
    """Convenience wrapper: build the threshold schedule for the instance and run."""
    from .pricing import build_schedule

    setup = MarketSetup.from_instance(instance)
    return run_session(setup, build_schedule(setup), instance, order)
