"""The stop-and-wait protocol spelled out message by message.

One arrival is three messages: the operator's ``PriceQuote``, the tenant's
``RentDecision`` from ``tenant_decide`` and the operator's settlement in
``mvno_settle``, which returns a ``TransactionOutcome`` and appends a
``TranscriptEntry`` to a ``ReferenceLedger``.  Every message is checked as it
is built.  This is the reference ``protocol.run_session`` is tested against
(``test_session_kernel.py``): the engine must reproduce it bit for bit.  It
computes the charge with ``_dot``, the engine's left-to-right sum written
out once, and checks messages with the engine's own ``_checked_prices`` and
``_float_tuple``, so both sides make the same float operations.  The ledger
asks the schedule for a fresh ``quote`` after every arrival, not only after
a sale, and refuses one that does not hold a price per resource.

``reference_entries`` and ``reference_jsonl`` are the row path that
``transcript_to_jsonl`` must reproduce byte for byte from a transcript's
columns: one ``TranscriptEntry`` per arrival, then ``json.dumps`` of each
``to_record()``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from slicemarket.market import CAPACITY, MarketSetup
from slicemarket.protocol import (
    FAIL,
    SKIP,
    SUCC,
    ProtocolError,
    Transcript,
    TranscriptEntry,
    _checked_prices,
    _float_tuple,
)

PAYMENT_TOLERANCE = 1e-9


def _dot(prices: Sequence[float], demand: Sequence[float]) -> float:
    # the tenant and the settlement check must agree bit-for-bit on the charge,
    # and with the engine, which sums the same products in the same order
    total = 0.0
    for p, d in zip(prices, demand):
        total += p * d
    return total


@dataclass(frozen=True)
class PriceQuote:
    """Published prices ahead of one arrival."""

    arrival: int
    prices: tuple[float, ...]

    def __post_init__(self):
        # one message alone has no resource count: mvno_init and mvno_settle
        # check the length against the session, tenant_decide against the demand
        prices = _float_tuple(self.prices)
        object.__setattr__(self, "prices", _checked_prices(prices, len(prices)))
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


@dataclass
class ReferenceLedger:
    """Operator state of a message-by-message session; ``mvno_settle``
    replaces ``prices`` wholesale and appends one entry to ``transcript``."""

    utilization: list[float]
    prices: tuple[float, ...]
    revenue: float = 0.0
    transcript: list[TranscriptEntry] = field(default_factory=list)

    @property
    def resource_count(self) -> int:
        return len(self.utilization)


def transferred_data_bytes(entries: Iterable[TranscriptEntry]) -> int:
    """Bytes that crossed the wire during a session, 4 per scalar value: per
    arrival the quoted prices, the demands, the accept flag, the payment and
    the outcome."""
    return 4 * sum(len(e.quote) + len(e.demand) + 3 for e in entries)


def _quote(schedule, utilization: list[float]) -> tuple[float, ...]:
    return _checked_prices(schedule.quote(list(utilization)), len(utilization))


def mvno_init(setup: MarketSetup, schedule) -> ReferenceLedger:
    """Fresh ledger: zero utilization, prices quoted at zero utilization."""
    utilization = [0.0] * setup.resource_count
    return ReferenceLedger(utilization, _quote(schedule, utilization))


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


def mvno_settle(
    ledger: ReferenceLedger, schedule, decision: RentDecision
) -> tuple[TransactionOutcome, ReferenceLedger]:
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
    ledger.prices = _quote(schedule, ledger.utilization)
    ledger.transcript.append(
        TranscriptEntry(arrival, quoted, int(decision.accept), decision.payment, decision.demand, outcome.status)
    )
    return outcome, ledger


def reference_entries(transcript: Transcript) -> list[TranscriptEntry]:
    """One ``TranscriptEntry`` per arrival of an engine transcript: a SKIP
    carries a zero flag, payment and demand, SUCC and FAIL the tenant's
    charge and demand row."""
    return [
        TranscriptEntry(arrival, quote, 0, 0.0, (0.0,) * len(quote), SKIP)
        if outcome == SKIP
        else TranscriptEntry(arrival, quote, 1, charge, tuple(demand), outcome)
        for arrival, demand, quote, outcome, charge in zip(
            range(1, len(transcript.quotes) + 1),
            transcript.demand_rows.tolist(),
            transcript.quotes,
            transcript.outcomes,
            transcript.charges,
        )
    ]


def reference_jsonl(entries: Iterable[TranscriptEntry]) -> str:
    """The JSONL text of ``entries``: ``json.dumps`` of each record, compact."""
    return "".join(json.dumps(e.to_record(), separators=(",", ":")) + "\n" for e in entries)
