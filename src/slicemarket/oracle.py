"""Exact offline welfare maximization and its linear-programming upper bound.

With linear costs the offline problem collapses to a multidimensional 0/1
knapsack: maximize the sum of adjusted profits ``valuation - cost of the
demanded bundle`` subject to unit capacity per resource.  The oracle runs a
depth-first branch-and-bound whose bound is the fractional knapsack of one
surrogate capacity constraint.  Exhaustive enumeration of at most
``EXHAUSTIVE_LIMIT`` viable tenants runs only on request, as the reference
the search is checked against, and books a set by the search's own rule.

The items are the viable tenants (``_viable``): a positive adjusted profit
and a demand that fits an empty market.  The genetic heuristic searches the
same items, ranked by the same densities (``_densities``), and the auction
takes its bidders from them.  Every offline algorithm thus works on one item
view, and the heuristic's answer is always a candidate of the exact search.

The search sorts and sums in numpy once per call, diving into the take
child and stacking only the skip branch.  Its root dive, the leading run of
nodes that each pass their bound and take their item, is booked in one numpy
pass, which also bounds every skip branch of the dive; from the first node
that fails either, each node is visited on Python lists and floats, and a
skip branch of the dive is built only when the loop reaches it and its
bound beats the cutoff.  It first runs as a probe that sums the C
capacities into one.  A generated N-tenant market at the default demand
spread finishes the probe in about 2N nodes (at most 2.2 per viable tenant
at N = 20 to 2000, C = 1 to 9), and its root dive takes all but the last
few items, so nearly every other node is a skip branch of the dive that the
loop passes over, counted and never built.  On such markets at C = 3
``offline_exact`` takes about 80 µs at N = 20, 100 µs at N = 100, 0.66 ms
at N = 2000 and 6.6 ms at N = 20 000, against 84 µs, 150 µs, 2.3 ms and
38 ms when the loop stacked and popped each skip branch (Python 3.11,
numpy 2.4, 2-vCPU Xeon).  With dispersed demands the summed bound is
loose, and the probe stops after ``_PROBE_NODES_PER_TENANT`` nodes per
viable tenant.  The LP relaxation is then solved once, and the search
restarts with the LP's capacity duals λ as surrogate weights (Glover, Oper.
Res. 1968; Gavish and Pirkul, Math. Prog. 1985), whose bound at the root is
the LP value.  With one resource every
weighting is the summed bound rescaled, so the probe is the whole search.
A market whose probe finishes never solves the LP.

``node_budget``, a positive integer, caps the nodes the probe and the restart
visit together.  When it runs out, the result is the best allocation found,
marked not exact and carrying the LP bound, the same solve the restart used.

The LP bound is solved by HiGHS through the binding scipy ships,
``scipy.optimize._highspy._core``.  That extension module is loaded from
its file alone on the first solve; neither ``import slicemarket`` nor the
bound loads ``scipy.optimize``, ``scipy.linalg`` or ``scipy.sparse``.
"""

from __future__ import annotations

import os
import sys
from bisect import bisect_right
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .market import CAPACITY, MarketError
from .workload import _is_int

EXHAUSTIVE_LIMIT = 25
_CHUNK_ITEMS = 16  # enumeration fixes each subset of the first m - 16 items and doubles over the rest
DEFAULT_NODE_BUDGET = 5_000_000
# default markets finish the summed probe in at most 2.2 nodes per viable tenant
_PROBE_NODES_PER_TENANT = 8
_HIGHS = "scipy.optimize._highspy._core"
#: The largest nonzero count HiGHS's int32 matrix indices hold.
_HIGHS_INDEX_MAX = np.iinfo(np.int32).max


class OracleError(MarketError):
    """The oracle was asked for something it cannot deliver."""


@dataclass(frozen=True)
class OracleResult:
    """``exact`` is relative to the booking order of the search that found the set: the summed order,
    or the LP-weighted order after a restart.  Within that order no set beats it by more than the search's
    1e-12 relative cutoff (``tests/test_enumeration.py::test_a_restart_books_in_its_weighted_order``)."""

    welfare: float
    accepted: np.ndarray
    method: str  # "branch-and-bound" | "exhaustive"
    exact: bool
    upper_bound: float | None = None
    nodes_explored: int = 0


def adjusted_profits(instance) -> np.ndarray:
    """Welfare contribution of each tenant if served: valuation minus bundle cost."""
    return instance.valuations - instance.demands @ instance.unit_costs


def _viable(instance) -> tuple[np.ndarray, np.ndarray]:
    """Every tenant's adjusted profit, and the indices of the viable tenants:
    a positive profit and a demand that fits an empty market."""
    profits = adjusted_profits(instance)
    viable = (profits > 0) & (instance.demands <= CAPACITY).all(axis=1)
    return profits, np.flatnonzero(viable)


def _densities(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``values / sizes``, infinite where the size is not positive."""
    with np.errstate(divide="ignore"):
        return np.where(sizes > 0, values / sizes, np.inf)


def _unpack(mask: int, m: int) -> np.ndarray:
    """The low ``m`` bits of ``mask`` as a boolean vector, bit 0 first."""
    data = np.frombuffer(mask.to_bytes((m + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(data, count=m, bitorder="little").astype(bool)


def _density_order(profits: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The items by descending ``_densities``, ties in index order, and the densities in that order."""
    density = _densities(profits, sizes)
    order = np.argsort(-density, kind="stable")
    return order, density[order]


def _exhaustive(profits: np.ndarray, demands: np.ndarray) -> tuple[float, np.ndarray]:
    """The best set the search's rule books.  Every subset's demands come off ``CAPACITY`` and its profits
    add up from 0.0 left to right in the summed search's order, by doubling (Horowitz and Sahni, J. ACM
    1974).  Rooms only fall and ``r - d >= 0`` iff ``r >= d``, so a set is taken iff no room ends below 0."""
    order, _ = _density_order(profits, demands.sum(axis=1))
    profits, demands = profits[order], demands[order]
    fixed = max(len(order) - _CHUNK_ITEMS, 0)
    best_value, best_mask = 0.0, 0
    for h in range(1 << fixed):
        rooms, values = np.full((1, demands.shape[1]), CAPACITY), np.zeros(1)
        for i in np.flatnonzero(_unpack(h, fixed)).tolist():
            rooms, values = rooms - demands[i], values + profits[i]
        if (rooms < 0).any():
            continue
        for d, p in zip(demands[fixed:], profits[fixed:]):
            rooms, values = np.concatenate((rooms, rooms - d)), np.concatenate((values, values + p))
        values[(rooms < 0).any(axis=1)] = -np.inf
        k = int(np.argmax(values))
        if values[k] > best_value:
            best_value, best_mask = float(values[k]), h | k << fixed
    return best_value, _unpack(best_mask, len(order))[np.argsort(order)]


def _branch_and_bound(
    profits: np.ndarray, demands: np.ndarray, node_budget: int, weights: np.ndarray | None = None
) -> tuple[float, np.ndarray, int, bool]:
    """Depth-first search over items in descending density; returns the chosen mask.

    A node's bound is its value plus the greedy fractional fill of the items
    below it within one surrogate capacity, the optimum of that single
    constraint's relaxation.  Without ``weights`` the surrogate sums the C
    capacities: an item's size is its summed demand and a node's room the sum
    of its remaining capacities.  With nonnegative ``weights`` λ an item's
    size is ``demand @ λ`` and a node's room ``Σ_c λ_c r_c``.  Rooms add left
    to right (unweighted, ``1.0 * r_c`` is ``r_c``), as ``sum()`` does not
    from Python 3.12 on.  An item is taken only while each ``r_c`` is at
    least its demand, so the takes below a node exceed its room by rounding
    alone (``market._reorder_factor``).

    The search visits a take child as soon as it is built and stacks only the
    skip branch; each node carries its room, computed once with its remaining
    list.  It visits at most ``node_budget`` nodes and reports the budget
    exhausted only when a node was left unvisited.

    The root dive, the leading run of nodes that each pass their bound and
    take their item, is booked in one numpy pass, the forward move of
    Horowitz and Sahni (J. ACM 1974): the remaining capacities by
    ``np.subtract.accumulate`` from ``CAPACITY``, the values as the profits'
    prefix sums, the rooms folded over the resources from 0.0 and each
    node's bound and cutoff as the loop computes them.  Accumulation adds
    left to right, as the loop does, so every state has the loop's bits.
    The same pass bounds each dive node's skip branch, at depth ``j + 1``
    with the node's value ``prefix_p[j]`` and room; a skip branch at depth
    ``m`` is a leaf and gets no bound.  The per-node loop, on Python lists
    and floats, resumes at the first node that fails its bound or its take
    (or at the budget) and stacks only the branches it pushes itself.  When
    that stack empties it takes the dive's skip branches, deepest first:
    each whose bound misses the cutoff counts as one visited node, and the
    first that beats it is built, from its row of remaining capacities, and
    visited.  The cutoff only rises, so the branches that miss it after the
    dive are filtered out once, and each other one is checked again when
    reached.  The loop converts the per-item arrays to lists only from the
    shallowest depth it can visit.  Nodes, incumbents and the budget rule
    are the loop's, as if it had visited the dive and popped every skip
    branch itself.
    """
    m, resources = demands.shape
    aggregate = demands.sum(axis=1) if weights is None else demands @ weights
    weight_list = [1.0] * resources if weights is None else weights.tolist()
    order, density = _density_order(profits, aggregate)
    prefix_p = np.concatenate(([0.0], np.cumsum(profits[order])))
    prefix_a = np.concatenate(([0.0], np.cumsum(aggregate[order])))
    rows = demands[order]

    # the root dive: node j has taken items 0..j-1, is worth prefix_p[j] and
    # holds the incumbent best[j]; its skip branch is node j's value and room
    # at depth j + 1
    states = np.concatenate((np.full((1, resources), CAPACITY), rows))
    np.subtract.accumulate(states, axis=0, out=states)
    rooms = np.zeros(m + 1)
    for column in (states if weights is None else states * weights).T:
        rooms += column
    best = np.maximum.accumulate(prefix_p[:m])
    finite = np.isfinite(density)
    # an infinite density, a zero leftover or t == m adds an exact zero where the loop adds nothing
    fill = np.zeros(m + 1)
    np.copyto(fill[:m], density, where=finite)
    # each node j's bound at depth j (row 0, the dive) and j + 1 (row 1, its
    # skip branch): a strided view holds prefix[j] in row 0 and prefix[j + 1] in row 1
    at_a, at_p = (np.ndarray((2, m), buffer=prefix, strides=prefix.strides * 2) for prefix in (prefix_a, prefix_p))
    target = at_a + rooms[:m]
    t = prefix_a.searchsorted(target, side="right") - 1
    bounds = prefix_p[:m] + ((prefix_p[t] - at_p) + (target - prefix_a[t]) * fill[t])
    takes = (bounds[0] > best + 1e-12 * np.maximum(best, 1.0)) & (states[:m] >= rows).all(axis=1)
    run = min(m if takes.all() else int(takes.argmin()), node_budget)
    incumbent = int(prefix_p[: max(run, 1)].argmax())
    best_value = float(prefix_p[incumbent])
    best_mask = (1 << incumbent) - 1
    cutoff = best_value + 1e-12 * max(1.0, abs(best_value))
    skip_bounds = bounds[1]
    skip_bounds[m - 1 :] = -np.inf  # a leaf, pruned when reached
    # the run's skip branches that beat the cutoff now, in depth order; every
    # other one misses it when reached, as the cutoff only rises
    pending = (skip_bounds[:run] > cutoff).nonzero()[0].tolist()
    dive_left = run  # the skip branches 0..dive_left-1 are not yet reached
    dive_values = prefix_p

    # the loop reads per-item entries only from the shallowest depth it visits on
    shallowest = pending[0] + 1 if pending else run
    unread = [None] * shallowest

    def listed(values: np.ndarray) -> list:
        return unread + values[shallowest:].tolist()

    prefix_p = listed(prefix_p)
    prefix_a = listed(prefix_a)
    finite = listed(finite)
    density = listed(density)
    profit_list = listed(profits[order])
    rows = listed(rows)

    nodes = run
    exhausted = False
    depth, value, mask = run, prefix_p[run], (1 << run) - 1
    remaining = states[run].tolist()
    room = float(rooms[run])
    stack: list[tuple[int, float, list[float], float, int]] = []
    while True:
        if nodes == node_budget:
            exhausted = True
            break
        nodes += 1
        if value > best_value:
            best_value = value
            best_mask = mask
            cutoff = best_value + 1e-12 * max(1.0, abs(best_value))
        if depth < m:
            # fractional fill of items depth.. within the node's room; bisect_right
            # over the sorted, NaN-free prefix sums is searchsorted(side="right"),
            # and no prefix sum below depth exceeds the target
            target = prefix_a[depth] + room
            t = bisect_right(prefix_a, target, depth) - 1
            if t >= m:
                tail = prefix_p[m] - prefix_p[depth]
            else:
                tail = prefix_p[t] - prefix_p[depth]
                leftover = target - prefix_a[t]
                if leftover > 0 and finite[t]:
                    tail += leftover * density[t]
            if value + tail > cutoff:
                taken = []
                taken_room = 0.0
                for r, d, w in zip(remaining, rows[depth], weight_list):
                    if r < d:
                        break
                    taken.append(r - d)
                    taken_room += w * (r - d)
                else:
                    stack.append((depth + 1, value, remaining, room, mask))
                    value += profit_list[depth]
                    remaining = taken
                    room = taken_room
                    mask |= 1 << depth
                # visit the take child, or the skip child when the item does not fit
                depth += 1
                continue
        if stack:
            depth, value, remaining, room, mask = stack.pop()
            continue
        # then the dive's skip branches, deepest first: each one that misses the
        # cutoff is one node, and the first one that beats it is visited
        while pending and skip_bounds[pending[-1]] <= cutoff:
            pending.pop()
        j = pending.pop() if pending else -1
        nodes += dive_left - 1 - j
        if nodes > node_budget:
            nodes = node_budget
            exhausted = True
            break
        if j < 0:
            break
        dive_left = j
        depth, value, room, mask = j + 1, float(dive_values[j]), float(rooms[j]), (1 << j) - 1
        remaining = states[j].tolist()

    # the mask is over sorted positions; order maps them back to item indices
    chosen = np.zeros(m, dtype=bool)
    chosen[order] = _unpack(best_mask, m)
    return best_value, chosen, nodes, exhausted


def offline_exact(
    instance,
    method: str = "branch-and-bound",
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> OracleResult:
    """Maximize offline welfare exactly (or report the best found plus a bound).

    Tenants whose adjusted profit is not positive, or whose demand cannot fit
    an empty market, can never help and are dropped before the search.

    Both methods book by the search's rule in its summed order; a restart after the
    probe ran out books in its weighted order, which can decide a set near ``CAPACITY`` otherwise.
    """
    if method not in ("branch-and-bound", "exhaustive"):
        raise OracleError(f"unknown oracle method {method!r}")
    if not (_is_int(node_budget) and node_budget >= 1):
        raise OracleError(f"node_budget must be a positive integer, got {node_budget!r}")
    accepted = np.zeros(instance.tenant_count, dtype=bool)
    profits, index = _viable(instance)
    m = len(index)
    if m == 0:
        return OracleResult(0.0, accepted, method, True)
    items = profits[index], instance.demands[index]
    if method == "exhaustive":
        if m > EXHAUSTIVE_LIMIT:
            raise OracleError(
                f"{m} viable tenants exceed the exhaustive enumeration limit of {EXHAUSTIVE_LIMIT}"
            )
        _, chosen = _exhaustive(*items)
        nodes, exhausted = 1 << m, False
    else:
        # with one resource every weighting rescales the summed bound, so the
        # probe is the whole search
        probe = node_budget if instance.resource_count == 1 else min(node_budget, _PROBE_NODES_PER_TENANT * m)
        best, chosen, nodes, exhausted = _branch_and_bound(*items, probe)
        if exhausted:
            upper_bound, duals = lp_relaxation(instance)
        if exhausted and nodes < node_budget:
            value, weighted, more, exhausted = _branch_and_bound(*items, node_budget - nodes, duals)
            nodes += more
            if value > best:
                chosen = weighted
    accepted[index[chosen]] = True
    welfare = float(profits[accepted].sum())
    if exhausted:
        return OracleResult(welfare, accepted, method, exact=False, upper_bound=upper_bound, nodes_explored=nodes)
    return OracleResult(welfare, accepted, method, exact=True, nodes_explored=nodes)


def _highs_binding():
    """The HiGHS extension module ``scipy.optimize._highspy._core``.

    An importer loads the parents of a module first, and importing
    ``scipy.optimize`` costs ≈0.5 s and ≈37 MB that the LP bound never uses.
    The extension is therefore loaded from its file under scipy's package
    directory, which ``find_spec("scipy")`` locates without importing scipy.
    It is registered under its real name before it runs, so a later
    ``import scipy.optimize`` reuses this module object instead of loading
    the extension a second time; a module already registered is returned.
    Since its parent package did not import it, the parent then lacks the
    ``_core`` attribute: ``from scipy.optimize._highspy import _core``
    finds the module through ``sys.modules``, attribute access does not.
    """
    module = sys.modules.get(_HIGHS)
    if module is not None:
        return module
    scipy = find_spec("scipy")
    if scipy is None:
        raise OracleError("the LP bound needs scipy 1.15 or later, and scipy is not installed")
    directory = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy")
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_HIGHS)
    if spec is None:
        raise OracleError(f"the LP bound needs scipy 1.15 or later: no HiGHS binding _core in {directory}")
    module = module_from_spec(spec)
    sys.modules[_HIGHS] = module
    spec.loader.exec_module(module)
    return module


def lp_upper_bound(instance) -> float:
    """Optimum of the fractional relaxation; never below the exact optimum.

    It is ``lp_relaxation(instance)[0]``: linprog's ``-fun`` bit for bit.
    """
    return lp_relaxation(instance)[0]


def lp_relaxation(instance) -> tuple[float, np.ndarray]:
    """Optimum of the fractional relaxation and the capacity duals of that optimum.

    The LP goes straight to HiGHS through the binding ``scipy.optimize.linprog``
    itself calls, built as ``linprog(method="highs", options={"presolve":
    False})`` builds it: the constraint matrix column-wise with tenant n's
    demand row as column n and its zeros dropped, rows in (-inf, CAPACITY],
    columns in [0, 1], cost ``-profits``, and only the options linprog sets.
    The value is therefore linprog's ``-fun`` bit for bit.  linprog itself is
    skipped because after the solve it builds bound marginals in a Python
    loop over every column, about two thirds of its time at N = 20 000, and
    neither the value nor the duals need them.  The model goes to the binding
    as numpy arrays, through the overload of ``passModel`` that takes them
    (int32 starts and indices, and an all-continuous integrality vector: the
    binding refuses an empty one).

    The duals λ, one per resource, are HiGHS's row duals negated (they belong
    to the minimisation of ``-profits``) and clipped at zero: the shadow price
    of a unit of capacity.  By strong duality ``Σ_c λ_c + Σ_n (π_n - d_n·λ)^+``
    equals the value, with π the adjusted profits.

    Only that binding is loaded, on the first solve (``_highs_binding``); a
    market without a positive profit returns ``(0.0, zeros)`` without loading
    it.  ``OracleError`` is raised when the binding is missing, when the
    matrix has more nonzeros than its int32 indices can hold, when HiGHS
    refuses the model and when it reports anything but an optimum.
    """
    profits = adjusted_profits(instance)
    if not (profits > 0).any():
        return 0.0, np.zeros(instance.resource_count)
    highs = _highs_binding()
    n, c = instance.demands.shape
    nonzero = instance.demands != 0
    values = instance.demands[nonzero]
    if len(values) > _HIGHS_INDEX_MAX:
        raise OracleError(f"the LP has {len(values)} nonzeros, more than HiGHS's int32 indices hold")
    starts = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(nonzero.sum(axis=1), out=starts[1:])
    # presolve removes nothing from this C-row box-bounded LP once every
    # tenant has positive profit, yet at N = 20 000 the bound takes 39 ms
    # with it and 25 ms without (2-vCPU Xeon)
    options = highs.HighsOptions()
    options.presolve = "off"
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    solver = highs._Highs()
    solver.passOptions(options)
    # (columns, rows, nonzeros, matrix format, sense, offset, column costs,
    # column bounds, row bounds, starts, indices, values, integrality)
    passed = solver.passModel(
        n, c, len(values), highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize, 0.0,
        -profits, np.zeros(n), np.ones(n), np.full(c, -highs.kHighsInf), np.full(c, CAPACITY),
        starts, np.nonzero(nonzero)[1].astype(np.int32), values, np.zeros(n, dtype=np.int32),
    )
    # a warning (a demand below HiGHS's small matrix value, dropped) passes, as in linprog
    if passed == highs.HighsStatus.kError:
        raise OracleError(f"HiGHS refused the LP relaxation: passModel returned {passed.name}")
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise OracleError(f"LP relaxation unexpectedly failed: {solver.modelStatusToString(status)}")
    duals = np.maximum(-np.asarray(solver.getSolution().row_dual), 0.0)
    return -solver.getInfo().objective_function_value, duals
