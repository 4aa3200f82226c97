"""Stop-and-wait transaction protocol between the operator and its tenants.

One tenant is handled at a time: the operator publishes the current per-
resource prices, the tenant answers with an accept/reject tuple, and the
operator settles the transaction (success, capacity failure with refund, or
skip) before quoting the next arrival.  The session ledger records only what
actually crossed the wire; valuations, subscriber data and anything else
private to a tenant never appear in it.

``run_session`` is the one session engine.  It checks the arrival order
once per session with ``arrival_order`` (the ``Instance`` constructor has
checked the valuations and demands), then runs every arrival on plain lists,
keeping a compact record per arrival (the quoted price tuple, shared between
arrivals, the outcome and the charge).  That record,
``SessionLedger.record``, is what the ``verify`` checks read.  The ledger's
``transcript`` of ``TranscriptEntry`` messages is built from it the first
time it is read, so a caller that needs only the allocation, the revenue or
``SessionLedger.transferred_bytes`` never pays for it.  The same protocol
spelled out message by message, each message checked as it is built, lives
in the test suite (``tests/reference_protocol.py``) as the reference the
engine must reproduce bit for bit.

A schedule is anything with a ``quote(utilization)`` method that returns the
tuple of every resource's price at a utilization vector.  The engine asks for
one quote at the start of a session and one after each sale, the one step
that moves utilization, and checks each quote in one walk
(``_checked_prices``) before any tenant sees it.

``validate_transcript_record`` checks a persisted record against the published
``TRANSCRIPT_RECORD_SCHEMA`` with direct key, type and range checks; the
schema is the wire contract and needs no schema library at run time.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from operator import add
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .market import CAPACITY, Allocation, MarketError, MarketSetup, _readonly

SUCC = "SUCC"
FAIL = "FAIL"
SKIP = "SKIP"


class ProtocolError(MarketError):
    """A message or settlement step breaks the transaction protocol."""


class TranscriptSchemaError(MarketError):
    """A transcript record does not match the wire schema."""


def _float_tuple(values) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"non-numeric value in a protocol message: {exc}") from exc


def _checked_prices(prices) -> tuple[float, ...]:
    """``prices`` as a float tuple, raising unless every one is finite and non-negative.

    A tuple of floats that all pass is returned as it is after one walk; only
    when that walk stops is the quote coerced and each price checked with a
    message naming its resource.
    """
    if type(prices) is tuple:
        for p in prices:
            if not (type(p) is float and 0.0 <= p < math.inf):  # NaN fails both comparisons
                break
        else:
            return prices
    prices = _float_tuple(prices)
    for c, p in enumerate(prices):
        if not math.isfinite(p):
            raise ProtocolError(f"quoted price for resource {c} is not finite: {p!r}")
        if p < 0:
            raise ProtocolError(f"quoted price for resource {c} is negative: {p!r}")
    return prices


def arrival_order(order, n: int) -> Sequence[int]:
    """The arrival order of an ``n``-tenant session as a list of ``int``.

    ``None`` is instance order.  Anything else must be a permutation of
    ``range(n)`` held in an integer dtype, else ``ProtocolError``: floats and
    bools are refused, not truncated.  The check runs once, in numpy; an
    empty order is accepted for a market without tenants.
    """
    if order is None:
        return range(n)
    indices = np.asarray(order)
    if indices.shape != (n,):
        raise ProtocolError(f"arrival order must be a permutation of {n} tenant indices, got shape {indices.shape}")
    if n == 0:
        return []
    if indices.dtype.kind not in "iu":
        raise ProtocolError(f"arrival order must hold integers, got dtype {indices.dtype}")
    # range first: bincount raises a bare ValueError on a negative index
    if not 0 <= indices.min() <= indices.max() < n or (np.bincount(indices, minlength=n) != 1).any():
        raise ProtocolError("arrival order must be a permutation of the tenant indices")
    return indices.tolist()


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


#: One record as ``json.dumps(record, separators=(",", ":"))`` writes it.
_RECORD_LINE = '{"n":%r,"quote":[%s],"x":%r,"pi":%r,"d":[%s],"outcome":"%s"}\n'


def transcript_to_jsonl(entries: Iterable[TranscriptEntry]) -> str:
    """One JSON object per line, byte for byte ``json.dumps`` of each
    ``to_record()`` with compact separators, for entries as the engine
    builds them: ``int`` arrival and flag, Python floats and one of the
    three outcome words, which need no escaping.

    Each record is one ``%``-format with ``repr`` for the numbers, as json
    spells them, except that json writes a non-finite float as ``Infinity``,
    ``-Infinity`` or ``NaN``.  No key or outcome holds ``inf`` or ``nan``, so
    those two spellings are fixed on the finished text.
    """
    text = "".join(
        _RECORD_LINE
        % (e.arrival, ",".join(map(repr, e.quote)), e.accepted, e.payment, ",".join(map(repr, e.demand)), e.outcome)
        for e in entries
    )
    return text.replace("inf", "Infinity").replace("nan", "NaN")


def parse_transcript_jsonl(text: str) -> list[dict]:
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    for record in records:
        validate_transcript_record(record)
    return records


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
        """The transcript messages, one ``TranscriptEntry`` per arrival: a
        SKIP carries a zero flag, payment and demand, SUCC and FAIL the
        tenant's charge and demand row."""
        return [
            TranscriptEntry(arrival, quote, 0, 0.0, (0.0,) * len(quote), SKIP)
            if outcome == SKIP
            else TranscriptEntry(arrival, quote, 1, charge, tuple(self.demand_rows[tenant]), outcome)
            for arrival, tenant, quote, outcome, charge in zip(
                range(1, len(self.quotes) + 1), self.order, self.quotes, self.outcomes, self.charges
            )
        ]


class SessionLedger:
    """Operator-visible session state: utilization, prices, revenue, and the
    session's compact ``record``.

    ``prices`` is the immutable tuple quoted after the last arrival.  The
    ``verify`` checks read ``record``; ``transcript`` is built from it on
    first read and then kept.
    """

    __slots__ = ("utilization", "prices", "revenue", "_transcript", "record")

    def __init__(self, utilization: list[float], prices: tuple[float, ...], revenue: float, record: _ArrivalRecord):
        self.utilization = utilization
        self.prices = prices
        self.revenue = revenue
        self.record = record
        self._transcript: list[TranscriptEntry] | None = None

    @property
    def transcript(self) -> list[TranscriptEntry]:
        if self._transcript is None:
            self._transcript = self.record.entries()
        return self._transcript

    @property
    def arrivals(self) -> int:
        return len(self.record.outcomes)

    @property
    def transferred_bytes(self) -> int:
        """Bytes that crossed the wire, 4 per scalar value, without building
        the transcript: per arrival the quoted prices, the demands (one of
        each per resource), the accept flag, the payment and the outcome."""
        return 4 * self.arrivals * (2 * len(self.utilization) + 3)


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


def run_session(
    setup: MarketSetup,
    schedule,
    instance,
    order: Sequence[int] | None = None,
) -> SessionResult:
    """Run one full stop-and-wait session over the instance tenants.

    Tenants are processed strictly in ``order`` (instance order by default);
    each settlement completes before the next quote.  A tenant accepts
    exactly when its utility ``valuation - demand . prices`` is strictly
    positive; an accepted demand that would push any resource past capacity
    fails and is never booked.  Everything runs on plain lists: the order is
    checked once up front (valuations and demands were checked when the
    ``Instance`` was built), one charge, summed left to right over the
    resources, is both the tenant's offer and the booked payment, and
    ``schedule.quote`` is called (and its prices checked) only at the start
    and after a sale.  A schedule that holds a ``setup`` must hold this one.
    """
    n, c = instance.tenant_count, instance.resource_count
    if setup.resource_count != c:
        raise ProtocolError("setup and instance disagree on the resource count")
    if getattr(schedule, "setup", setup) is not setup:
        raise ProtocolError("the schedule was built for another market setup")
    order = arrival_order(order, n)

    quote = schedule.quote
    utilization = [0.0] * c
    prices = _checked_prices(quote(utilization))
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
        # the tenant's offer and the booked payment: one sum, left to right
        charge = 0.0
        for p, d in zip(prices, demand):
            charge += p * d
        record_quote(prices)
        record_charge(charge)
        surplus = valuations[tenant] - charge
        if surplus > 0:
            surpluses[tenant] = surplus
            grown = list(map(add, utilization, demand))
            if max(grown) > CAPACITY:
                record_outcome(FAIL)
                continue
            utilization = grown
            revenue += charge
            accepted[tenant] = True
            payments[tenant] = charge
            prices = _checked_prices(quote(utilization))
            record_outcome(SUCC)
        else:
            record_outcome(SKIP)

    ledger = SessionLedger(utilization, prices, revenue, record)
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
