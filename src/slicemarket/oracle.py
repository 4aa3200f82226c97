"""Exact offline welfare maximization and its linear-programming upper bound.

With linear costs the offline problem collapses to a multidimensional 0/1
knapsack: maximize the sum of adjusted profits ``valuation - cost of the
demanded bundle`` subject to unit capacity per resource.  The oracle runs a
depth-first branch-and-bound whose bound is the fractional knapsack of one
surrogate capacity constraint.  Exhaustive enumeration of at most
``EXHAUSTIVE_LIMIT`` viable tenants runs only on request, as the reference
the search is checked against.

The items are the viable tenants (``_viable``): a positive adjusted profit
and a demand that fits an empty market.  The genetic heuristic searches the
same items, ranked by the same densities (``_densities``), and the auction
takes its bidders from them.  Every offline algorithm thus works on one item
view, and the heuristic's answer is always a candidate of the exact search.

The search sorts and sums in numpy once per call and visits each node on
Python lists and floats, diving into the take child and stacking only the
skip branch.  It first runs as a probe that sums the C capacities into one.
A generated N-tenant market at the default demand spread finishes the probe
in about 2N nodes (at most 2.2 per viable tenant at N = 20 to 2000, C = 1 to
9); at N = 2000 a node costs about 1.6 µs, set-up included, on a 2-vCPU
Xeon.  With dispersed demands the summed bound is loose, and the probe stops
after ``_PROBE_NODES_PER_TENANT`` nodes per viable tenant.  The LP relaxation
is then solved once, and the search restarts with the LP's capacity duals λ
as surrogate weights (Glover, Oper. Res. 1968; Gavish and Pirkul, Math. Prog.
1985), whose bound at the root is the LP value.  With one resource every
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
from operator import mul

import numpy as np

from .market import CAPACITY, FEASIBILITY_EPS, MarketError
from .workload import _is_int

EXHAUSTIVE_LIMIT = 25
_EXHAUSTIVE_CHUNK = 1 << 16
DEFAULT_NODE_BUDGET = 5_000_000
# default markets finish the summed probe in at most 2.2 nodes per viable tenant
_PROBE_NODES_PER_TENANT = 8
_HIGHS = "scipy.optimize._highspy._core"


class OracleError(MarketError):
    """The oracle was asked for something it cannot deliver."""


@dataclass(frozen=True)
class OracleResult:
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
    viable = (profits > 0) & (instance.demands <= CAPACITY + FEASIBILITY_EPS).all(axis=1)
    return profits, np.flatnonzero(viable)


def _densities(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``values / sizes``, infinite where the size is not positive."""
    with np.errstate(divide="ignore"):
        return np.where(sizes > 0, values / sizes, np.inf)


def _unpack(mask: int, m: int) -> np.ndarray:
    """The low ``m`` bits of ``mask`` as a boolean vector, bit 0 first."""
    data = np.frombuffer(mask.to_bytes((m + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(data, count=m, bitorder="little").astype(bool)


def _exhaustive(profits: np.ndarray, demands: np.ndarray) -> tuple[float, np.ndarray]:
    m = len(profits)
    positions = np.arange(m, dtype=np.int64)
    best_value = 0.0
    best_mask = 0
    for lo in range(0, 1 << m, _EXHAUSTIVE_CHUNK):
        hi = min(lo + _EXHAUSTIVE_CHUNK, 1 << m)
        codes = np.arange(lo, hi, dtype=np.int64)
        bits = ((codes[:, None] >> positions) & 1).astype(float)
        feasible = (bits @ demands <= CAPACITY + FEASIBILITY_EPS).all(axis=1)
        values = bits @ profits
        values[~feasible] = -np.inf
        k = int(np.argmax(values))
        if values[k] > best_value:
            best_value = float(values[k])
            best_mask = int(codes[k])
    return best_value, _unpack(best_mask, m)


def _branch_and_bound(
    profits: np.ndarray, demands: np.ndarray, node_budget: int, weights: np.ndarray | None = None
) -> tuple[float, np.ndarray, int, bool]:
    """Depth-first search over items in descending density; returns the chosen mask.

    A node's bound is its value plus the greedy fractional fill of the items
    below it within one surrogate capacity, the optimum of that single
    constraint's relaxation.  Without ``weights`` the surrogate sums the C
    capacities: an item's size is its summed demand and a node's room the sum
    of its remaining capacities.  With nonnegative ``weights`` λ an item's
    size is ``demand @ λ`` and a node's room ``Σ_c λ_c (r_c + FEASIBILITY_EPS)``:
    a take may leave ``r_c`` as low as ``-FEASIBILITY_EPS``, so every set of
    takes below the node fits that room and the bound prunes no optimum.

    The search visits a take child as soon as it is built and stacks only the
    skip branch; each node carries its room, computed once with its remaining
    list.  It visits at most ``node_budget`` nodes and reports the budget
    exhausted only when a node was left unvisited.  The sort and the prefix
    sums run in numpy; the per-node work runs on Python lists and floats.
    """
    m, resources = demands.shape
    if weights is None:
        aggregate = demands.sum(axis=1)
        room_of = sum
    else:
        aggregate = demands @ weights
        weight_list = weights.tolist()
        slack = FEASIBILITY_EPS * sum(weight_list)

        def room_of(remaining: list[float]) -> float:
            return sum(map(mul, weight_list, remaining)) + slack

    density = _densities(profits, aggregate)
    order = np.argsort(-density, kind="stable")
    density = density[order]
    prefix_p = np.concatenate(([0.0], np.cumsum(profits[order]))).tolist()
    prefix_a = np.concatenate(([0.0], np.cumsum(aggregate[order]))).tolist()
    finite = np.isfinite(density).tolist()
    density = density.tolist()
    rows = demands[order].tolist()
    profit_list = profits[order].tolist()

    best_value = 0.0
    best_mask = 0
    cutoff = best_value + 1e-12 * max(1.0, abs(best_value))
    nodes = 0
    exhausted = False
    depth, value, mask = 0, 0.0, 0
    remaining = [CAPACITY] * resources
    room = room_of(remaining)
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
            # over the sorted, NaN-free prefix sums is searchsorted(side="right")
            target = prefix_a[depth] + room
            t = bisect_right(prefix_a, target) - 1
            if t >= m:
                tail = prefix_p[m] - prefix_p[depth]
            else:
                tail = prefix_p[t] - prefix_p[depth]
                leftover = target - prefix_a[t]
                if leftover > 0 and finite[t]:
                    tail += leftover * density[t]
            if value + tail > cutoff:
                taken = []
                for r, d in zip(remaining, rows[depth]):
                    if r + FEASIBILITY_EPS < d:
                        break
                    taken.append(r - d)
                else:
                    stack.append((depth + 1, value, remaining, room, mask))
                    value += profit_list[depth]
                    remaining = taken
                    room = room_of(taken)
                    mask |= 1 << depth
                # visit the take child, or the skip child when the item does not fit
                depth += 1
                continue
        if not stack:
            break
        depth, value, remaining, room, mask = stack.pop()

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
    if method == "exhaustive":
        if m > EXHAUSTIVE_LIMIT:
            raise OracleError(
                f"{m} viable tenants exceed the exhaustive enumeration limit of {EXHAUSTIVE_LIMIT}"
            )
        _, chosen = _exhaustive(profits[index], instance.demands[index])
        nodes = 1 << m
        exhausted = False
    else:
        items = profits[index], instance.demands[index]
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
    neither the value nor the duals need them.  The arrays go to the binding
    as lists: its setters convert a numpy array element by element, several
    times slower.

    The duals λ, one per resource, are HiGHS's row duals negated (they belong
    to the minimisation of ``-profits``) and clipped at zero: the shadow price
    of a unit of capacity.  By strong duality ``Σ_c λ_c + Σ_n (π_n - d_n·λ)^+``
    equals the value, with π the adjusted profits.

    Only that binding is loaded, on the first solve (``_highs_binding``); a
    market without a positive profit returns ``(0.0, zeros)`` without loading
    it.  ``OracleError`` is raised when the binding is missing and when HiGHS
    reports anything but an optimum.
    """
    profits = adjusted_profits(instance)
    if not (profits > 0).any():
        return 0.0, np.zeros(instance.resource_count)
    highs = _highs_binding()
    n, c = instance.demands.shape
    nonzero = instance.demands != 0
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = c
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = [0, *np.cumsum(nonzero.sum(axis=1)).tolist()]
    lp.a_matrix_.index_ = np.nonzero(nonzero)[1].tolist()
    lp.a_matrix_.value_ = instance.demands[nonzero].tolist()
    lp.col_cost_ = (-profits).tolist()
    lp.col_lower_ = [0.0] * n
    lp.col_upper_ = [1.0] * n
    lp.row_lower_ = [-highs.kHighsInf] * c
    lp.row_upper_ = [CAPACITY] * c
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
    solver.passModel(lp)
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise OracleError(f"LP relaxation unexpectedly failed: {solver.modelStatusToString(status)}")
    duals = np.maximum(-np.asarray(solver.getSolution().row_dual), 0.0)
    return -solver.getInfo().objective_function_value, duals
