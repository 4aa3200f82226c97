"""Comparison algorithms: genetic heuristic, utility-bid auction, myopic and
random online slicing.

All of them consume the same instances as the posted-price mechanism and
return feasible allocations, so welfare numbers are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import add
from typing import Sequence

import numpy as np

from .market import CAPACITY, FEASIBILITY_EPS, MarketSetup, SetupError
from .oracle import _densities, _viable, adjusted_profits
from .protocol import SessionResult, arrival_order, run_session
from .workload import _is_finite, _is_int

_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# genetic heuristic


@dataclass(frozen=True)
class GaParams:
    population: int = 100
    generations: int = 200
    mutation_rate: float | None = None  # None: one expected flip per chromosome
    tournament: int = 3
    elitism: int = 2

    def __post_init__(self):
        for name in ("population", "generations", "tournament", "elitism"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.population < 2 or self.generations < 1:
            raise ValueError("population must be >= 2 and generations >= 1")
        if not 0 <= self.elitism < self.population:
            raise ValueError("elitism must leave room for offspring")
        if self.tournament < 1:
            raise ValueError("tournament size must be >= 1")
        rate = self.mutation_rate
        if rate is not None and not (_is_finite(rate) and 0 <= rate <= 1):
            raise ValueError(f"mutation_rate must be None or a number in [0, 1], got {rate!r}")


def _population_repair(demands: np.ndarray, density: np.ndarray):
    """The in-place repair of a population's rows, with its tables built once.

    Each row is repaired as if alone: while some resource is overfull, drop
    the selected item of lowest density (the first such index on ties) among
    those whose demands on the overfull resources sum above zero.  ``density``
    must hold no NaN.

    A screen clears, in one product, every row it can prove is feasible.  The
    repair's own per-row product (a gemv) and the screen's batched one (a
    gemm) may round a row's utilization differently in the last bits, so the
    screen tests an upper bound instead: in any summation order a sum of
    ``m`` terms lies within ``gamma * sum|d|`` of the exact sum, with
    ``gamma = m*eps/(1 - m*eps)``, so both products are at most
    ``(rows @ |demands|) * (1+gamma)/(1-gamma)``.  ``eps`` is machine
    epsilon, twice the unit roundoff, which also covers the rounding of the
    bound itself.

    The rows the screen cannot clear (overfull, near capacity or non-finite)
    start from their own gemv and then drop one item each per step, all
    together.  The items are ranked by density once, so a row's victim is its
    first candidate in rank order.  Which items a row may drop depends on its
    set of overfull resources; that mask, the sum over those resources'
    demands, is computed once per set met.
    """
    m, resources = demands.shape
    limit = CAPACITY + FEASIBILITY_EPS
    gamma = m * _EPS / (1 - m * _EPS)
    factor = (1 + gamma) / (1 - gamma)
    magnitude = np.abs(demands)
    rank = np.argsort(density, kind="stable")
    ranked_demands = demands[rank]
    key = np.dtype((np.void, (resources + 7) // 8))  # an overfull set, packed to bytes
    eligible = {}  # overfull set -> the items a row may drop, in rank order

    def repair(rows: np.ndarray) -> None:
        cast = rows.astype(float)
        cleared = (cast @ magnitude) * factor < limit
        if cleared.all():
            return
        failing = np.flatnonzero(~cleared.all(axis=1))
        # numpy multiplies a stack of 1-by-m rows one row at a time, by the
        # same gemv as a lone row: each utilization is its row's own product
        utilization = (cast[failing][:, None] @ demands)[:, 0]
        selected = rows[failing][:, rank]
        while True:
            overfull = utilization > limit
            live = np.flatnonzero(overfull.any(axis=1))
            if not len(live):
                break
            sets = overfull[live]
            keys = np.packbits(sets, axis=1).view(key).ravel().tolist()
            for i, packed in enumerate(keys):
                if packed not in eligible:
                    eligible[packed] = (demands[:, sets[i]].sum(axis=1) > 0)[rank]
            candidates = selected[live] & np.array([eligible[packed] for packed in keys])
            if not candidates.any(axis=1).all():
                raise ValueError("an overfull row selects no item that uses its overfull resources")
            victim = candidates.argmax(axis=1)
            selected[live, victim] = False
            utilization[live] -= ranked_demands[victim]
        rows[failing[:, None], rank] = selected

    return repair


def ga_heuristic(instance, params: GaParams | None = None, seed: int = 0) -> tuple[float, np.ndarray]:
    """Genetic search over accept/reject vectors with infeasibility repair.

    Always returns a feasible decision vector, so its welfare can never beat
    the exact offline optimum.

    A generation picks each offspring's two parents by tournament (the
    fitter of ``tournament`` uniform contenders, the first on ties), takes the
    first parent's genes before a uniform cut and the second's from it on,
    flips each gene with probability ``mutation_rate`` and repairs the child;
    the ``elitism`` fittest rows survive unchanged.  Two things keep the
    result bit-identical for a given seed, and every rewrite must keep them:
    the draws, ``random((population, m))`` once, then per generation
    ``integers`` for the contenders, ``integers`` for the cuts and
    ``random((offspring, m))`` for the flips, in that order and shape; and
    the fitness, ``population.astype(float) @ w`` over the whole population
    every generation.  The generation reuses its buffers: the population is
    double-buffered, offspring are written straight into the next one.
    """
    params = params or GaParams()
    profits, index = _viable(instance)
    m = len(index)
    full = np.zeros(instance.tenant_count, dtype=bool)
    if m == 0:
        return 0.0, full
    w = profits[index]
    demands = instance.demands[index]
    density = _densities(w, demands.sum(axis=1))
    rate = params.mutation_rate if params.mutation_rate is not None else 1.0 / m
    repair = _population_repair(demands, density)

    size, elites = params.population, params.elitism
    k = size - elites  # offspring per generation
    heads = np.arange(m) < np.arange(max(m, 2))[:, None]  # heads[cut]: genes before the cut
    # contenders.ravel()[slots + j] is contender j of slot (child, parent)
    slots = params.tournament * np.arange(2 * k).reshape(k, 2)
    first = np.empty((k, m), dtype=bool)
    before = np.empty((k, m), dtype=bool)
    noise = np.empty((k, m))
    flips = np.empty((k, m), dtype=bool)

    rng = np.random.default_rng(seed)
    population = rng.random((size, m)) < 0.5
    repair(population)
    fitness = population.astype(float) @ w
    spare = np.empty_like(population)

    best_value = float(fitness.max())
    best = population[int(np.argmax(fitness))].copy()
    for _ in range(params.generations):
        # every index taken is in range, so mode="clip" only skips numpy's
        # buffered copy into ``out``
        if elites:
            np.take(population, np.argsort(fitness)[-elites:], axis=0, out=spare[:elites], mode="clip")
        contenders = rng.integers(0, size, size=(k, 2, params.tournament))
        parents = contenders.ravel()[slots + np.argmax(fitness[contenders], axis=2)]
        cut = rng.integers(1, max(m, 2), size=k)
        offspring = spare[elites:]
        np.take(population, parents[:, 1], axis=0, out=offspring, mode="clip")
        np.take(population, parents[:, 0], axis=0, out=first, mode="clip")
        np.take(heads, cut, axis=0, out=before, mode="clip")
        np.copyto(offspring, first, where=before)
        rng.random(out=noise)
        np.less(noise, rate, out=flips)
        offspring ^= flips
        repair(offspring)
        population, spare = spare, population
        fitness = population.astype(float) @ w
        generation_best = float(fitness.max())
        if generation_best > best_value:
            best_value = generation_best
            best = population[int(np.argmax(fitness))].copy()

    full[index[best]] = True
    # the search ran over the oracle's own items; the value is recomputed from
    # the mask, as the oracle computes its own
    return float(profits[full].sum()), full


# ---------------------------------------------------------------------------
# first-fit scan, shared by the auction and random slicing


def _first_fit(demand_rows: list, tenants, limit: float, resources: int) -> list[int]:
    """The tenants, in the order given, whose demand row keeps every resource's
    running utilization, summed in booking order on plain floats, at most ``limit``."""
    utilization = [0.0] * resources
    booked = []
    for tenant in tenants:
        grown = list(map(add, utilization, demand_rows[tenant]))
        if max(grown) <= limit:
            utilization = grown
            booked.append(tenant)
    return booked


# ---------------------------------------------------------------------------
# utility-bid auction (offline, decentralized)


@dataclass(frozen=True)
class AuctionResult:
    welfare: float
    accepted: np.ndarray
    payments: np.ndarray
    rounds: int
    bids_submitted: int


def utility_bid_auction(instance) -> AuctionResult:
    """Iterative single-winner auction where bids equal tenant utilities.

    Each round every unallocated tenant of the oracle's item view (positive
    adjusted profit, a demand that fits an empty market) bids; the operator
    accepts the bidder that increments its own utility the most (the tenant
    pays its full valuation) and the rest wait for the next round.
    Terminates after at most one round per tenant.

    The rounds are computed in one scan rather than played out.  Demands are
    non-negative and rounded float addition is monotone, so utilization only
    grows and a tenant that does not fit at some round never fits later.
    Each round's winner is therefore the next tenant, in order of descending
    profit (ties to the lower index, as ``argmax`` breaks them), that fits at
    the running utilization, summed in acceptance order as the rounds sum it.
    The ``R`` winners bid ``R(R+1)/2`` times in all; a loser bids in a prefix
    of the rounds, whose length a bisection over the pre-round utilizations
    finds with the same float predicate.  Cost O(N·C·log N), where playing
    the rounds out costs O(N²·C).
    """
    n = instance.tenant_count
    profits, candidates = _viable(instance)
    limit = CAPACITY + FEASIBILITY_EPS
    order = candidates[np.argsort(-profits[candidates], kind="stable")]
    winners = _first_fit(instance.demands.tolist(), order.tolist(), limit, instance.resource_count)
    accepted = np.zeros(n, dtype=bool)
    accepted[winners] = True
    losers = order[~accepted[order]]

    rounds = len(winners)
    bids = rounds * (rounds + 1) // 2
    # utilization before each round, one row per winner; cumsum adds each
    # column in acceptance order, as _first_fit sums it
    running = np.cumsum(instance.demands[winners], axis=0)
    history = np.concatenate((np.zeros((1, instance.resource_count)), running[:-1]))
    loser_demands = instance.demands[losers]
    # each loser fits every pre-round utilization before lo and none from hi on
    lo = np.zeros(len(losers), dtype=np.intp)
    hi = np.full(len(losers), rounds)
    while (active := lo < hi).any():
        mid = np.where(active, (lo + hi) // 2, 0)
        fits = (history[mid] + loser_demands <= limit).all(axis=1)
        lo = np.where(active & fits, mid + 1, lo)
        hi = np.where(active & ~fits, mid, hi)
    bids += int(lo.sum())

    payments = np.zeros(n)
    payments[winners] = instance.valuations[winners]
    return AuctionResult(float(profits[accepted].sum()), accepted, payments, rounds, bids)


# ---------------------------------------------------------------------------
# myopic online slicing


@dataclass(frozen=True)
class MyopicPricing:
    """Linear price ramp from zero to the averaged band price at full capacity.

    Like the threshold schedule, defined on ``[0, CAPACITY]``.
    """

    slopes: tuple[float, ...]

    @classmethod
    def from_setup(cls, setup: MarketSetup) -> "MyopicPricing":
        slopes = tuple(float((lo + hi) / 2) for lo, hi in zip(setup.price_floors, setup.price_caps))
        return cls(slopes)

    def price_at(self, c: int, y: float) -> float:
        if not 0 <= c < len(self.slopes):
            raise SetupError(f"resource index {c} out of range [0, {len(self.slopes)})")
        return _ramp_price(self.slopes[c], y)

    def quote(self, utilization) -> tuple[float, ...]:
        """``price_at(c, utilization[c])`` for every resource ``c``."""
        if len(utilization) != len(self.slopes):
            raise SetupError(f"a quote needs {len(self.slopes)} utilizations, got {len(utilization)}")
        return tuple(map(_ramp_price, self.slopes, utilization))


def _ramp_price(slope: float, y: float) -> float:
    # the ramp's one formula, behind both price_at and quote
    if not 0 <= y <= CAPACITY:
        raise SetupError(f"utilization must lie in [0, {CAPACITY}], got {y!r}")
    return slope * y


def myopic_slicing(instance, order: Sequence[int] | None = None) -> SessionResult:
    """Run the stop-and-wait protocol with the myopic linear price ramp."""
    setup = MarketSetup.from_instance(instance)
    return run_session(setup, MyopicPricing.from_setup(setup), instance, order)


# ---------------------------------------------------------------------------
# random online slicing


def random_slicing(instance, order: Sequence[int] | None = None, seed: int = 0) -> tuple[float, np.ndarray]:
    """Fair coin per arrival; an accepting coin only sticks when capacity allows."""
    n = instance.tenant_count
    order = arrival_order(order, n)
    rng = np.random.default_rng(seed)
    # one draw for every coin is the stream of one draw per arrival
    coins = rng.integers(0, 2, size=len(order)).tolist()
    booked = _first_fit(instance.demands.tolist(), compress(order, coins), CAPACITY, instance.resource_count)
    accepted = np.zeros(n, dtype=bool)
    accepted[booked] = True
    return float(adjusted_profits(instance)[accepted].sum()), accepted
