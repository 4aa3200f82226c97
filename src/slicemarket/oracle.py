"""Exact offline welfare maximization and its linear-programming upper bound.

With linear costs the offline problem collapses to a multidimensional 0/1
knapsack: maximize the sum of adjusted profits ``valuation - cost of the
demanded bundle`` subject to unit capacity per resource.  Small instances are
enumerated exhaustively; larger ones run a depth-first branch-and-bound with
a fractional-knapsack bound on the aggregated capacity constraint.

The search sorts and sums in numpy once per call and visits each node on
Python lists and floats.  A generated N-tenant market at the default demand
spread takes about 2N nodes; at N = 2000 a node costs about 2.3 µs, set-up
included, on a 2-vCPU Xeon.  ``node_budget``, a positive integer, caps the
nodes: when it runs out the result is the best allocation found, marked not
exact and carrying the LP bound.

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

from .market import CAPACITY, FEASIBILITY_EPS, MarketError
from .workload import _is_int

EXHAUSTIVE_LIMIT = 25
_EXHAUSTIVE_CHUNK = 1 << 16
_AUTO_EXHAUSTIVE = 16
DEFAULT_NODE_BUDGET = 5_000_000
_HIGHS = "scipy.optimize._highspy._core"


class OracleError(MarketError):
    """The oracle was asked for something it cannot deliver."""


@dataclass(frozen=True)
class OracleResult:
    welfare: float
    accepted: np.ndarray
    method: str  # "exhaustive" | "branch-and-bound" | "lp-upper-bound"
    exact: bool
    upper_bound: float | None = None
    nodes_explored: int = 0


def adjusted_profits(instance) -> np.ndarray:
    """Welfare contribution of each tenant if served: valuation minus bundle cost."""
    return instance.valuations - instance.demands @ instance.unit_costs


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
    profits: np.ndarray, demands: np.ndarray, node_budget: int
) -> tuple[float, np.ndarray, int, bool]:
    """Depth-first search over items in descending density; returns the chosen mask.

    A node's bound is its value plus the greedy fractional fill of the items
    below it within the summed remaining capacity, the optimum of the
    single-constraint relaxation.  The sort and the prefix sums run in numpy;
    the per-node work runs on Python lists and floats.
    """
    m, resources = demands.shape
    aggregate = demands.sum(axis=1)
    with np.errstate(divide="ignore"):
        density = np.where(aggregate > 0, profits / aggregate, np.inf)
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
    nodes = 0
    exhausted = False
    stack: list[tuple[int, float, list[float], int]] = [(0, 0.0, [CAPACITY] * resources, 0)]
    while stack:
        depth, value, remaining, mask = stack.pop()
        nodes += 1
        if value > best_value:
            best_value = value
            best_mask = mask
        if depth == m:
            continue
        if nodes >= node_budget:
            exhausted = True
            break
        # fractional fill of items depth.. within the summed remaining capacity;
        # bisect_right over the sorted, NaN-free prefix sums is searchsorted(side="right")
        target = prefix_a[depth] + sum(remaining)
        t = bisect_right(prefix_a, target) - 1
        if t >= m:
            tail = prefix_p[m] - prefix_p[depth]
        else:
            tail = prefix_p[t] - prefix_p[depth]
            leftover = target - prefix_a[t]
            if leftover > 0 and finite[t]:
                tail += leftover * density[t]
        if value + tail <= best_value + 1e-12 * max(1.0, abs(best_value)):
            continue
        stack.append((depth + 1, value, remaining, mask))
        row = rows[depth]
        for r, d in zip(remaining, row):
            if r + FEASIBILITY_EPS < d:
                break
        else:
            taken = [r - d for r, d in zip(remaining, row)]
            stack.append((depth + 1, value + profit_list[depth], taken, mask | (1 << depth)))

    # the mask is over sorted positions; order maps them back to item indices
    chosen = np.zeros(m, dtype=bool)
    chosen[order] = _unpack(best_mask, m)
    return best_value, chosen, nodes, exhausted


def offline_exact(
    instance,
    method: str = "auto",
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> OracleResult:
    """Maximize offline welfare exactly (or report the best found plus a bound).

    Tenants whose adjusted profit is not positive, or whose demand cannot fit
    an empty market, can never help and are dropped before the search.
    """
    if method not in ("auto", "exhaustive", "branch-and-bound"):
        raise OracleError(f"unknown oracle method {method!r}")
    if not (_is_int(node_budget) and node_budget >= 1):
        raise OracleError(f"node_budget must be a positive integer, got {node_budget!r}")
    accepted = np.zeros(instance.tenant_count, dtype=bool)
    profits = adjusted_profits(instance)
    viable = (profits > 0) & (instance.demands <= CAPACITY + FEASIBILITY_EPS).all(axis=1)
    index = np.flatnonzero(viable)
    m = len(index)
    if m == 0:
        return OracleResult(0.0, accepted, "exhaustive" if method != "branch-and-bound" else method, True)
    if method == "auto":
        method = "exhaustive" if m <= _AUTO_EXHAUSTIVE else "branch-and-bound"
    if method == "exhaustive":
        if m > EXHAUSTIVE_LIMIT:
            raise OracleError(
                f"{m} viable tenants exceed the exhaustive enumeration limit of {EXHAUSTIVE_LIMIT}"
            )
        _, chosen = _exhaustive(profits[index], instance.demands[index])
        nodes = 1 << m
        exhausted = False
    else:
        _, chosen, nodes, exhausted = _branch_and_bound(profits[index], instance.demands[index], node_budget)
    accepted[index[chosen]] = True
    welfare = float(profits[accepted].sum()) if accepted.any() else 0.0
    if exhausted:
        return OracleResult(
            welfare, accepted, method, exact=False, upper_bound=lp_upper_bound(instance), nodes_explored=nodes
        )
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

    The LP goes straight to HiGHS through the binding ``scipy.optimize.linprog``
    itself calls, built as ``linprog(method="highs", options={"presolve":
    False})`` builds it: the constraint matrix column-wise with tenant n's
    demand row as column n and its zeros dropped, rows in (-inf, CAPACITY],
    columns in [0, 1], cost ``-profits``, and only the options linprog sets.
    The bound is therefore linprog's ``-fun`` bit for bit.  linprog itself is
    skipped because after the solve it builds bound marginals in a Python
    loop over every column, about two thirds of its time at N = 20 000, and
    the bound needs none of them.  The arrays go to the binding as lists:
    its setters convert a numpy array element by element, several times
    slower.

    Only that binding is loaded, on the first solve (``_highs_binding``); a
    market without a positive profit returns 0.0 without loading it.
    ``OracleError`` is raised when the binding is missing and when HiGHS
    reports anything but an optimum.
    """
    profits = adjusted_profits(instance)
    if not (profits > 0).any():
        return 0.0
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
    return -solver.getInfo().objective_function_value
