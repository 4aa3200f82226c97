"""Stop-and-wait transaction protocol between the operator and its tenants.

One tenant is handled at a time: the operator publishes the current per-
resource prices, the tenant answers with an accept/reject tuple, and the
operator settles the transaction (success, capacity failure with refund, or
skip) before quoting the next arrival.  The session ledger records only what
actually crossed the wire; valuations, subscriber data and anything else
private to a tenant never appear in it.

``run_session`` is the one session engine.  It checks the arrival order
once per session with ``arrival_order``, which turns instance order into the
identity permutation (the ``Instance`` constructor has checked the
valuations and demands), and gathers the demand rows and valuations in
arrival order once, in numpy.  It then runs every arrival on plain
floats, one list per resource read front to back, and keeps the wire
data in one stored shape, the ``Transcript``: per arrival the demand
row, the quoted price tuple (shared until a sale), the outcome and the
charge, as columns.
It is the session's one record of each sale: the accepted mask, the
payments and the dual surpluses are read off its outcome and charge columns
after the last arrival.  ``verify`` reads the columns, the harness keeps the
object and ``transcript_to_jsonl`` writes from the columns; a
``TranscriptEntry`` per arrival is built only on access, for the
privacy-schema acceptance test and the benchmark's session counter.  The
same protocol spelled out message by message, each message checked as it is
built, lives in the test suite (``tests/reference_protocol.py``) as the
reference the engine must reproduce bit for bit.

A schedule is anything with a ``quote(utilization)`` method that returns the
tuple of every resource's price at a utilization vector.  Both package
schedules hold their ``MarketSetup``, and the engine refuses one of another
setup; a schedule without a ``setup`` is exempt.  The engine asks for one
quote at the start of a session and one after each sale, the one step that
moves utilization, and checks each quote in one walk (``_checked_prices``: one
price per resource, each finite and non-negative) before any tenant sees it.

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
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .market import CAPACITY, Allocation, MarketError, MarketSetup
from .pricing import build_schedule

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


def _checked_prices(prices, resources: int) -> tuple[float, ...]:
    """``prices`` as a float tuple, raising unless it holds ``resources``
    prices and every one is finite and non-negative.

    A tuple of that many floats that all pass is returned as it is after one
    walk; only when that walk stops is the quote coerced and checked, with a
    message naming both lengths or the resource at fault.
    """
    if type(prices) is tuple and len(prices) == resources:
        for p in prices:
            if not (type(p) is float and 0.0 <= p < math.inf):  # NaN fails both comparisons
                break
        else:
            return prices
    prices = _float_tuple(prices)
    if len(prices) != resources:
        raise ProtocolError(f"a quote must hold {resources} prices, one per resource, got {len(prices)}")
    for c, p in enumerate(prices):
        if not math.isfinite(p):
            raise ProtocolError(f"quoted price for resource {c} is not finite: {p!r}")
        if p < 0:
            raise ProtocolError(f"quoted price for resource {c} is negative: {p!r}")
    return prices


def arrival_order(order, n: int) -> np.ndarray:
    """The arrival order of an ``n``-tenant session as an ``intp`` array.

    ``None`` is instance order, ``arange(n)``.  Anything else must be a
    permutation of ``range(n)`` held in an integer dtype, else
    ``ProtocolError``: floats and bools are refused, not truncated.  The
    check runs once, in numpy; an empty order of any dtype is accepted for a
    market without tenants.
    """
    if order is None:
        return np.arange(n, dtype=np.intp)
    indices = np.asarray(order)
    if indices.shape != (n,):
        raise ProtocolError(f"arrival order must be a permutation of {n} tenant indices, got shape {indices.shape}")
    if n == 0:
        # np.asarray([]) and np.asarray(range(0)) are float64
        return np.empty(0, dtype=np.intp)
    if indices.dtype.kind not in "iu":
        raise ProtocolError(f"arrival order must hold integers, got dtype {indices.dtype}")
    indices = indices.astype(np.intp, copy=False)
    # range first, in one reduction: read unsigned, a negative index is past
    # every tenant (bincount raises a bare ValueError on it).  Then n indices
    # in range fill n bins exactly when each tenant comes once.
    if not indices.view(np.uintp).max() < n or np.count_nonzero(np.bincount(indices, minlength=n)) != n:
        raise ProtocolError("arrival order must be a permutation of the tenant indices")
    return indices


class TranscriptEntry(NamedTuple):
    """One arrival's wire message, which ``Transcript`` builds on access.  It
    stays for two readers that take messages one at a time: the privacy-schema
    acceptance test (``to_record()``) and the benchmark's session counter."""

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


class Transcript:
    """A session's wire data as columns in arrival order: the tenants' demand
    rows (one float array, gathered from the instance's), the quote (one
    tuple shared until the next sale), the outcome and the charge.  Indexing
    or iterating builds a ``TranscriptEntry`` per arrival and keeps none: a
    SKIP has a zero flag, payment and demand."""

    __slots__ = ("demand_rows", "quotes", "outcomes", "charges")

    def __init__(self, demand_rows: np.ndarray):
        self.demand_rows = demand_rows
        self.quotes: list[tuple[float, ...]] = []
        self.outcomes: list[str] = []
        self.charges: list[float] = []

    def __len__(self) -> int:
        return len(self.outcomes)

    def __getitem__(self, index: int) -> TranscriptEntry:
        i = range(len(self.outcomes))[index]
        quote, outcome = self.quotes[i], self.outcomes[i]
        if outcome == SKIP:
            return TranscriptEntry(i + 1, quote, 0, 0.0, (0.0,) * len(quote), SKIP)
        return TranscriptEntry(i + 1, quote, 1, self.charges[i], tuple(self.demand_rows[i].tolist()), outcome)

    def __iter__(self) -> Iterator[TranscriptEntry]:
        return map(self.__getitem__, range(len(self.outcomes)))


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


def transcript_to_jsonl(transcript: Transcript) -> str:
    """One line per arrival, byte for byte ``json.dumps`` of each entry's
    ``to_record()`` with compact separators, formatted from the columns.

    Each quote tuple is formatted once, with the tail its SKIP lines share.
    Numbers are written with ``repr``, as json spells them, except that json
    writes a non-finite float as ``Infinity``, ``-Infinity`` or ``NaN``; no
    key or outcome holds ``inf`` or ``nan``, so both are respelled on the text.
    """
    lines = []
    append = lines.append
    quoted = None
    columns = zip(transcript.quotes, transcript.outcomes, transcript.charges, transcript.demand_rows.tolist())
    for arrival, (quote, outcome, charge, demand) in enumerate(columns, 1):
        if quote is not quoted:
            quoted = quote
            head = ',"quote":[%s],"x":' % ",".join(map(repr, quote))
            skip = head + '0,"pi":0.0,"d":[%s],"outcome":"SKIP"}\n' % ",".join(["0.0"] * len(quote))
        if outcome == SKIP:
            append('{"n":%d%s' % (arrival, skip))
        else:
            append(
                '{"n":%d%s1,"pi":%r,"d":[%s],"outcome":"%s"}\n'
                % (arrival, head, charge, ",".join(map(repr, demand)), outcome)
            )
    return "".join(lines).replace("inf", "Infinity").replace("nan", "NaN")


def parse_transcript_jsonl(text: str) -> list[dict]:
    """The records of a JSONL transcript, each checked against the schema."""
    records = []
    for number, line in enumerate(text.splitlines(), 1):
        try:
            records += [json.loads(line)] if line.strip() else []
        except json.JSONDecodeError as exc:
            raise TranscriptSchemaError(f"line {number} is not JSON: {exc}") from exc
    for record in records:
        validate_transcript_record(record)
    return records


class SessionLedger:
    """Operator-visible session state: utilization, prices, revenue and the
    ``transcript``, the one stored record of what crossed the wire.
    ``prices`` is the immutable tuple quoted after the last arrival."""

    __slots__ = ("utilization", "prices", "revenue", "transcript")

    def __init__(self, utilization: list[float], prices: tuple[float, ...], revenue: float, transcript: Transcript):
        self.utilization = utilization
        self.prices = prices
        self.revenue = revenue
        self.transcript = transcript


@dataclass(frozen=True)
class SessionResult:
    """A settled session; ``payments`` and ``surpluses`` are per tenant."""

    ledger: SessionLedger
    allocation: Allocation
    payments: np.ndarray
    surpluses: np.ndarray


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
    fails and is never booked.  The order is checked once up front
    (valuations and demands were checked when the ``Instance`` was built),
    and the demand rows and valuations are gathered in arrival order once,
    so the loop reads plain floats front to back: one list per resource,
    zipped into a short-lived tuple per arrival.  The transcript keeps the
    gathered rows as one float array.  One charge, summed left to right
    over the resources, is both the tenant's offer and the booked payment,
    and ``schedule.quote`` is called (and its prices checked) only at the
    start and after a sale.  A schedule's ``setup``, which both package
    schedules hold, must be this one; a schedule without one is exempt.

    The loop keeps only the utilization, prices, revenue and transcript, and
    the tenants are settled from the transcript: a SUCC pays its charge, and
    a SUCC or FAIL keeps ``valuation - charge`` as its dual surplus.
    """
    n, c = instance.tenant_count, instance.resource_count
    if setup.resource_count != c:
        raise ProtocolError("setup and instance disagree on the resource count")
    if getattr(schedule, "setup", setup) is not setup:
        raise ProtocolError("the schedule was built for another market setup")
    order = arrival_order(order, n)
    # gathered once: the loop's reads then follow memory order
    rows, values = instance.demands.take(order, axis=0), instance.valuations.take(order)

    quote = schedule.quote
    utilization = [0.0] * c
    prices = _checked_prices(quote(utilization), c)
    revenue = 0.0
    transcript = Transcript(rows)
    record_quote, record_charge = transcript.quotes.append, transcript.charges.append
    record_outcome = transcript.outcomes.append

    for demand, value in zip(zip(*rows.T.tolist()), values.tolist()):
        # the tenant's offer and the booked payment: one sum, left to right
        charge = 0.0
        for p, d in zip(prices, demand):
            charge += p * d
        record_quote(prices)
        record_charge(charge)
        if value - charge > 0:
            grown = list(map(add, utilization, demand))
            if max(grown) > CAPACITY:
                record_outcome(FAIL)
                continue
            utilization = grown
            revenue += charge
            prices = _checked_prices(quote(utilization), c)
            record_outcome(SUCC)
        else:
            record_outcome(SKIP)

    # settled in arrival order, then scattered through it; the outcomes are
    # four-letter words, so their column reads as one S4 array
    outcomes = np.frombuffer("".join(transcript.outcomes).encode(), "S4")
    charges = np.array(transcript.charges)
    sold = outcomes == SUCC.encode()
    surplus = values - charges
    surplus[outcomes == SKIP.encode()] = 0.0
    charges[~sold] = 0.0
    accepted, payments, surpluses = np.zeros(n, dtype=bool), np.zeros(n), np.zeros(n)
    accepted[order], payments[order], surpluses[order] = sold, charges, surplus
    return SessionResult(
        ledger=SessionLedger(utilization, prices, revenue, transcript),
        allocation=Allocation.from_decisions(instance, accepted),
        payments=payments,
        surpluses=surpluses,
    )


def run_posted_price(instance, order: Sequence[int] | None = None) -> SessionResult:
    """Convenience wrapper: build the threshold schedule for the instance and run."""
    setup = MarketSetup.from_instance(instance)
    return run_session(setup, build_schedule(setup), instance, order)
