"""Comparison algorithms: genetic heuristic, utility-bid auction, myopic and
random online slicing.

All of them consume the same instances as the posted-price mechanism and
return feasible allocations, so welfare numbers are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from operator import add
from typing import Sequence

import numpy as np

from .market import CAPACITY, MarketSetup, _reorder_factor
from .oracle import _densities, _viable, adjusted_profits
from .pricing import MyopicPricing
from .protocol import SessionResult, arrival_order, run_session
from .workload import _is_int

# ---------------------------------------------------------------------------
# genetic heuristic

#: Contenders drawn for each parent; the fittest of them is the parent.
TOURNAMENT = 3
#: The fittest rows that pass into the next generation unchanged.
ELITES = 2
#: Generations in a row without a strict improvement after which the search
#: stops.  Above the longest stall seen before an improvement over 20 trials
#: of every shipped spec point that runs the GA (90, at N = 500), plus a
#: margin.  At N >= 200 rarer stalls run longer (152 over 100 trials).
STALL = 100


@dataclass(frozen=True)
class GaParams:
    """The genetic heuristic's population size and its generation cap: the
    search runs at most ``generations`` generations, and stops earlier after
    ``STALL`` generations in a row without an improvement."""

    population: int = 100
    generations: int = 200

    def __post_init__(self):
        for name in ("population", "generations"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.population <= ELITES or self.generations < 1:
            raise ValueError(f"population must be > {ELITES} (the elites) and generations >= 1")


def _population_repair(demands: np.ndarray, density: np.ndarray):
    """The in-place repair of a population's rows, with its tables built once.

    Each row is repaired as if alone: while some resource is overfull, drop
    the selected item of lowest density (the first such index on ties) among
    those whose demands on the overfull resources sum above zero.  ``density``
    must hold no NaN.

    A row is feasible while its own product (a gemv) keeps each resource at
    most ``CAPACITY``.  A screen first clears, in one batched product (a
    gemm) over ``|demands|``, each row whose sum times ``_reorder_factor(m)``
    is below ``CAPACITY``, since the gemv's own order can read no higher.

    The rows the screen cannot clear (overfull, near capacity or non-finite)
    start from their own gemv and then drop one item each per step, all
    together.  The items are ranked by density once, so a row's victim is its
    first candidate in rank order.  Which items a row may drop depends on its
    set of overfull resources; that mask, the sum over those resources'
    demands, is computed once per set met.
    """
    m, resources = demands.shape
    factor = _reorder_factor(m)
    magnitude = np.abs(demands)
    rank = np.argsort(density, kind="stable")
    ranked_demands = demands[rank]
    key = np.dtype((np.void, (resources + 7) // 8))  # an overfull set, packed to bytes
    eligible = {}  # overfull set -> the items a row may drop, in rank order

    def repair(rows: np.ndarray) -> None:
        cast = rows.astype(float)
        cleared = (cast @ magnitude) * factor < CAPACITY
        if cleared.all():
            return
        failing = np.flatnonzero(~cleared.all(axis=1))
        # numpy multiplies a stack of 1-by-m rows one row at a time, by the
        # same gemv as a lone row: each utilization is its row's own product
        utilization = (cast[failing][:, None] @ demands)[:, 0]
        selected = rows[failing][:, rank]
        while True:
            overfull = utilization > CAPACITY
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


def _flip_positions(rng: np.random.Generator, rate: float, total: int, batch: int) -> np.ndarray:
    """The positions in ``[0, total)`` where a Bernoulli(``rate``) trial per
    position succeeds, sorted, drawn as geometric gaps between successes.

    Gaps come ``batch`` at a time, and batches are drawn until a success
    falls at or past ``total``; those past the end are dropped.
    """
    positions = np.cumsum(rng.geometric(rate, size=batch)) - 1
    while positions[-1] < total:
        positions = np.concatenate((positions, positions[-1] + np.cumsum(rng.geometric(rate, size=batch))))
    return positions[: np.searchsorted(positions, total)]


def ga_heuristic(instance, params: GaParams | None = None, seed: int = 0) -> tuple[float, np.ndarray]:
    """Genetic search over accept/reject vectors with infeasibility repair.

    Always returns a feasible decision vector, so its welfare can never beat
    the exact offline optimum.

    A generation picks each offspring's two parents, each the fittest of
    ``TOURNAMENT`` uniform contenders (the first on ties), takes the first
    parent's genes before a uniform cut and the second's from it on, flips
    each gene with probability ``1/m`` (one expected flip in the ``m`` genes)
    and repairs the child; the ``ELITES`` fittest rows survive unchanged.
    The search stops after ``params.generations`` generations, or sooner,
    once ``STALL`` generations in a row have not strictly raised the best
    fitness.  The stop rule makes this a different baseline from one that
    always runs every generation, not a faster run of it.  A search whose
    every stall before an improvement is shorter than ``STALL`` returns what
    that one returns, and a search that stops at generation ``g`` returns
    exactly what ``GaParams(population, g)`` returns, since it draws a
    prefix of the same stream.

    Two things keep the result bit-identical for a given seed, and every
    rewrite must keep them: the draws, ``random((population, m))`` once,
    then for each generation run ``integers`` for the ``(offspring, 2,
    TOURNAMENT)`` contenders, ``integers`` for the cuts and the flips as
    ``_flip_positions`` draws them over the ``offspring * m`` genes in row
    order, in that order and shape, with ``offspring = population - ELITES``
    and ``batch = offspring + 4*isqrt(offspring) + 16``; and the fitness,
    ``population.astype(float) @ w`` over the whole population every
    generation.  The generation reuses its buffers: the population is
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
    repair = _population_repair(demands, density)

    size = params.population
    k = size - ELITES  # offspring per generation
    heads = np.arange(m) < np.arange(max(m, 2))[:, None]  # heads[cut]: genes before the cut
    # contenders.ravel()[slots + j] is contender j of slot (child, parent)
    slots = TOURNAMENT * np.arange(2 * k).reshape(k, 2)
    first = np.empty((k, m), dtype=bool)
    before = np.empty((k, m), dtype=bool)
    genes = k * m
    batch = k + 4 * isqrt(k) + 16  # the k expected flips and four of their deviations

    rng = np.random.default_rng(seed)
    population = rng.random((size, m)) < 0.5
    repair(population)
    fitness = population.astype(float) @ w
    spare = np.empty_like(population)

    best_value = float(fitness.max())
    best = population[int(np.argmax(fitness))].copy()
    stalled = 0
    for _ in range(params.generations):
        # every index taken is in range, so mode="clip" only skips numpy's
        # buffered copy into ``out``
        np.take(population, np.argsort(fitness)[-ELITES:], axis=0, out=spare[:ELITES], mode="clip")
        contenders = rng.integers(0, size, size=(k, 2, TOURNAMENT))
        parents = contenders.ravel()[slots + np.argmax(fitness[contenders], axis=2)]
        cut = rng.integers(1, max(m, 2), size=k)
        offspring = spare[ELITES:]
        np.take(population, parents[:, 1], axis=0, out=offspring, mode="clip")
        np.take(population, parents[:, 0], axis=0, out=first, mode="clip")
        np.take(heads, cut, axis=0, out=before, mode="clip")
        np.copyto(offspring, first, where=before)
        flat = offspring.reshape(-1)  # a view: the offspring are contiguous rows
        flat[_flip_positions(rng, 1.0 / m, genes, batch)] ^= True
        repair(offspring)
        population, spare = spare, population
        fitness = population.astype(float) @ w
        generation_best = float(fitness.max())
        if generation_best > best_value:
            best_value = generation_best
            best = population[int(np.argmax(fitness))].copy()
            stalled = 0
        else:
            stalled += 1
            if stalled == STALL:
                break

    full[index[best]] = True
    # the search ran over the oracle's own items; the value is recomputed from
    # the mask, as the oracle computes its own
    return float(profits[full].sum()), full


# ---------------------------------------------------------------------------
# first-fit scan, shared by the auction and random slicing


def _first_fit(rows: np.ndarray) -> list[int]:
    """The positions of the demand rows, an (arrivals, resources) array in
    scan order, that keep every resource's running utilization, summed in
    booking order on plain floats, at most ``CAPACITY``.  The rows are read
    as the session engine reads them: one list per resource, zipped."""
    utilization = [0.0] * rows.shape[1]
    booked = []
    for position, row in enumerate(zip(*rows.T.tolist())):
        grown = list(map(add, utilization, row))
        if max(grown) <= CAPACITY:
            utilization = grown
            booked.append(position)
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
    order = candidates[np.argsort(-profits[candidates], kind="stable")]
    scanned = instance.demands.take(order, axis=0)
    won = np.zeros(len(order), dtype=bool)
    won[_first_fit(scanned)] = True
    winners = order[won]
    accepted = np.zeros(n, dtype=bool)
    accepted[winners] = True

    rounds = len(winners)
    bids = rounds * (rounds + 1) // 2
    # utilization before each round, one row per winner; cumsum adds each
    # column in acceptance order, as _first_fit sums it
    running = np.cumsum(scanned[won], axis=0)
    history = np.concatenate((np.zeros((1, instance.resource_count)), running[:-1]))
    loser_demands = scanned[~won]
    # each loser fits every pre-round utilization before lo and none from hi on
    lo = np.zeros(len(loser_demands), dtype=np.intp)
    hi = np.full(len(loser_demands), rounds)
    while (active := lo < hi).any():
        mid = np.where(active, (lo + hi) // 2, 0)
        fits = (history[mid] + loser_demands <= CAPACITY).all(axis=1)
        lo = np.where(active & fits, mid + 1, lo)
        hi = np.where(active & ~fits, mid, hi)
    bids += int(lo.sum())

    payments = np.zeros(n)
    payments[winners] = instance.valuations[winners]
    return AuctionResult(float(profits[accepted].sum()), accepted, payments, rounds, bids)


# ---------------------------------------------------------------------------
# myopic online slicing


def myopic_slicing(instance, order: Sequence[int] | None = None) -> SessionResult:
    """Run the stop-and-wait protocol with the myopic linear price ramp,
    ``pricing.MyopicPricing``."""
    setup = MarketSetup.from_instance(instance)
    return run_session(setup, MyopicPricing(setup), instance, order)


# ---------------------------------------------------------------------------
# random online slicing


def random_slicing(instance, order: Sequence[int] | None = None, seed: int = 0) -> tuple[float, np.ndarray]:
    """Fair coin per arrival; an accepting coin only sticks when capacity allows.

    The arrivals whose coin accepts are gathered in arrival order once, so
    the first-fit scan reads their demand rows front to back.
    """
    n = instance.tenant_count
    order = arrival_order(order, n)
    rng = np.random.default_rng(seed)
    # one draw for every coin is the stream of one draw per arrival
    coins = rng.integers(0, 2, size=n).astype(bool)
    tenants = order[coins]
    booked = tenants[_first_fit(instance.demands.take(tenants, axis=0))]
    accepted = np.zeros(n, dtype=bool)
    accepted[booked] = True
    return float(adjusted_profits(instance)[accepted].sum()), accepted
