"""Differential tests: the branch-and-bound dive against two older searches.

``_reference_branch_and_bound`` and ``_reference_fractional_tail`` are the
search as it was first written, with numpy scalars, ``np.searchsorted`` and a
mask packed over the viable item indices.  ``_list_branch_and_bound`` is the
same search on Python lists and floats, which stacks both children of a node
and sums its remaining capacities when it visits it.  Both sum a node's
remaining capacities left to right, as the builtin ``sum()`` did before
Python 3.12 compensated float sums.  The two references agree bit for bit.
Both check the node budget only at inner nodes, so a leaf can take them past
it.

``oracle._branch_and_bound`` with no weights must return what they return,
bit for bit (optimum, chosen items, node count, budget flag), wherever they
finish within the budget.  Where they run out, it visits the same nodes in the
same order and stops at the budget.  With weights it is compared with
exhaustive enumeration instead.

``_loop_branch_and_bound`` is the search as it was before its root dive ran
in numpy: every node on the per-node loop, every skip branch of the dive
stacked and popped.  The search must return what it returns, bit for bit,
summed and weighted, at every budget.  ``search_trace`` lists the loop's
nodes in its visiting order in plain recursive Python, so budgets can be
set to end among the dive's skip branches that the loop passes over.
"""

import math
from bisect import bisect_right
from collections import Counter
from functools import partial, reduce
from operator import add, mul

import numpy as np
import pytest

from slicemarket import oracle
from slicemarket.market import CAPACITY, Allocation
from slicemarket.oracle import (
    _PROBE_NODES_PER_TENANT,
    DEFAULT_NODE_BUDGET,
    _branch_and_bound,
    _density_order,
    _exhaustive,
    _unpack,
    adjusted_profits,
    lp_relaxation,
    lp_upper_bound,
    offline_exact,
)
from slicemarket.workload import GenConfig, Instance, generate_instance

_fold = partial(reduce, add)  # a left-to-right float sum on every Python version


def _reference_fractional_tail(start: int, cap: float, prefix_p, prefix_a, dens, m: int) -> float:
    """Upper bound on the profit of items ``start..`` within aggregate capacity ``cap``.

    Items are pre-sorted by profit per unit of aggregate demand, so the greedy
    fractional fill is the optimum of the single-constraint relaxation.
    """
    target = prefix_a[start] + cap
    t = int(np.searchsorted(prefix_a, target, side="right")) - 1
    if t >= m:
        return float(prefix_p[m] - prefix_p[start])
    bound = float(prefix_p[t] - prefix_p[start])
    leftover = target - prefix_a[t]
    if leftover > 0 and np.isfinite(dens[t]):
        bound += float(leftover * dens[t])
    return bound


def _reference_branch_and_bound(
    profits: np.ndarray, demands: np.ndarray, node_budget: int
) -> tuple[float, int, int, bool]:
    m, resources = demands.shape
    aggregate = demands.sum(axis=1)
    with np.errstate(divide="ignore"):
        density = np.where(aggregate > 0, profits / aggregate, np.inf)
    order = np.argsort(-density, kind="stable")
    profits = profits[order]
    demands = demands[order]
    aggregate = aggregate[order]
    density = density[order]
    prefix_p = np.concatenate(([0.0], np.cumsum(profits)))
    prefix_a = np.concatenate(([0.0], np.cumsum(aggregate)))
    rows = [tuple(r) for r in demands.tolist()]
    profit_list = profits.tolist()

    best_value = 0.0
    best_mask = 0
    nodes = 0
    exhausted = False
    full = (CAPACITY,) * resources
    stack: list[tuple[int, float, tuple[float, ...], int]] = [(0, 0.0, full, 0)]
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
        cap = _fold(remaining)
        bound = value + _reference_fractional_tail(depth, cap, prefix_p, prefix_a, density, m)
        if bound <= best_value + 1e-12 * max(1.0, abs(best_value)):
            continue
        stack.append((depth + 1, value, remaining, mask))
        row = rows[depth]
        if all(r >= d for r, d in zip(remaining, row)):
            taken = tuple(r - d for r, d in zip(remaining, row))
            stack.append((depth + 1, value + profit_list[depth], taken, mask | (1 << depth)))

    # translate the mask over sorted positions back to pre-sort item indices
    chosen = np.zeros(m, dtype=bool)
    for pos in range(m):
        if best_mask >> pos & 1:
            chosen[order[pos]] = True
    packed = 0
    for idx in np.flatnonzero(chosen):
        packed |= 1 << int(idx)
    return best_value, packed, nodes, exhausted


def _list_branch_and_bound(
    profits: np.ndarray, demands: np.ndarray, node_budget: int
) -> tuple[float, np.ndarray, int, bool]:
    """The list search before the dive: each pop counts a node, a leaf is
    counted before the budget check, and a node's bound sums its remaining
    capacities when it is visited."""
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
        target = prefix_a[depth] + _fold(remaining)
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
            if r < d:
                break
        else:
            taken = [r - d for r, d in zip(remaining, row)]
            stack.append((depth + 1, value + profit_list[depth], taken, mask | (1 << depth)))

    # the mask is over sorted positions; order maps them back to item indices
    chosen = np.zeros(m, dtype=bool)
    chosen[order] = _unpack(best_mask, m)
    return best_value, chosen, nodes, exhausted


def assert_same_search(profits, demands, node_budget: int = 10**9) -> tuple[float, np.ndarray, int, bool]:
    """Run the three searches; returns the references' result."""
    profits = np.asarray(profits, dtype=float)
    demands = np.asarray(demands, dtype=float).reshape(len(profits), -1)
    value, packed, nodes, exhausted = _reference_branch_and_bound(profits, demands, node_budget)
    want = np.array([packed >> i & 1 for i in range(len(profits))], dtype=bool)
    listed = _list_branch_and_bound(profits, demands, node_budget)
    assert listed[0].hex() == value.hex() and listed[1].tobytes() == want.tobytes()
    assert listed[2:] == (nodes, exhausted)

    got_value, got_chosen, got_nodes, got_exhausted = _branch_and_bound(profits, demands, node_budget)
    assert type(got_value) is float and got_chosen.dtype == bool and type(got_nodes) is int
    assert got_nodes <= node_budget
    if exhausted or nodes > node_budget:
        # the references ran out, or a leaf took them past the budget: the dive
        # visited the first got_nodes of their nodes, in their order, and runs
        # out only when it reaches the budget
        assert got_value <= value and (got_nodes == node_budget or not got_exhausted)
        if nodes == node_budget:
            assert got_value.hex() == value.hex() and got_chosen.tobytes() == want.tobytes()
    else:
        assert got_value.hex() == value.hex()
        assert got_chosen.tobytes() == want.tobytes()
        assert got_nodes == nodes
        assert got_exhausted is False
    return value, want, nodes, exhausted


def viable_items(instance) -> tuple[np.ndarray, np.ndarray]:
    """The profits and demands ``offline_exact`` hands to the search."""
    profits = adjusted_profits(instance)
    viable = (profits > 0) & (instance.demands <= CAPACITY).all(axis=1)
    return profits[viable], instance.demands[viable]


@pytest.mark.parametrize("resources", [1, 2, 3, 5, 9])
@pytest.mark.parametrize("tenants", [20, 100, 500, 2000])
def test_generated_markets(tenants, resources):
    # the default demand spread: about 2N nodes and no pruning trouble
    instance = generate_instance(GenConfig(tenant_count=tenants, resource_count=resources, seed=tenants + resources))
    assert_same_search(*viable_items(instance))


@pytest.mark.parametrize("resources", [1, 3, 9])
@pytest.mark.parametrize("share", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("tenants", [20, 100, 500])
def test_overfull_markets(tenants, share, resources):
    # demand means 2/N to 4/N with a spread as large as the mean: most
    # tenants lose, and the larger searches run out of a modest budget
    config = GenConfig(
        tenant_count=tenants,
        resource_count=resources,
        demand_mean=share / tenants,
        demand_std=share / tenants,
        seed=int(share * 10) + resources,
    )
    assert_same_search(*viable_items(generate_instance(config)), node_budget=5_000)


def test_offline_exact_translates_the_mask_through_the_sort():
    instance = generate_instance(GenConfig(tenant_count=2000, resource_count=3, seed=7))
    profits = adjusted_profits(instance)
    index = np.flatnonzero((profits > 0) & (instance.demands <= CAPACITY).all(axis=1))
    value, chosen, nodes, _ = assert_same_search(profits[index], instance.demands[index])
    result = offline_exact(instance)
    want = np.zeros(instance.tenant_count, dtype=bool)
    want[index[chosen]] = True
    assert result.method == "branch-and-bound" and result.exact
    assert result.accepted.tobytes() == want.tobytes()
    assert result.welfare.hex() == float(profits[want].sum()).hex()
    assert result.nodes_explored == nodes
    assert result.welfare == pytest.approx(value, rel=1e-12)


def tied_market(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A handful of exact density levels (profit = level * aggregate, the
    level a power of two), repeated items included: the stable sort's tie
    order decides the search order."""
    rng = np.random.default_rng(seed)
    m, c = int(rng.integers(5, 40)), int(rng.integers(1, 5))
    demands = rng.choice(np.arange(1, 9) / 16, size=(m, c))
    demands[m // 2 :] = demands[: m - m // 2]
    levels = rng.choice([0.5, 1.0, 2.0, 4.0], size=m)
    return levels * demands.sum(axis=1), demands


def zero_demand_market(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero rows have density inf and sort first, ties among them included;
    their inf density must never enter the fractional fill."""
    rng = np.random.default_rng(100 + seed)
    m, c = int(rng.integers(2, 30)), int(rng.integers(1, 4))
    demands = rng.uniform(0.0, 0.6, size=(m, c))
    zero = rng.random(m) < 0.3
    zero[rng.integers(m)] = True
    demands[zero] = 0.0
    return rng.uniform(0.1, 2.0, size=m), demands


def grid_market(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Demands on a 1/8 grid on one resource: every prefix sum and every
    remaining capacity is exact, so the fill meets a prefix sum with
    ``leftover == 0`` at the root and below it."""
    rng = np.random.default_rng(200 + seed)
    m = int(rng.integers(9, 30))
    demands = rng.choice(np.arange(1, 5) / 8, size=(m, 1))
    return rng.integers(1, 20, size=m) / 4, demands


def exact_fill_market() -> tuple[np.ndarray, np.ndarray]:
    """Eight items of 1/8 in descending density fill the root bound exactly."""
    return np.arange(12, 0, -1) / 8, np.full((12, 1), 1 / 8)


def dipping_market(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two items on a 1/8 grid leave an exact room ``r`` on one resource.
    Three fills follow in density order: ``r`` plus one ulp of CAPACITY,
    ``r`` minus one ulp, and ``r`` itself.  Every partial sum of these is a
    float, so the sum of any order reads exactly.  The first fill would take
    the remaining capacity below zero and is refused, the second leaves one
    ulp, and nothing after it fits."""
    rng = np.random.default_rng(300 + seed)
    big = rng.choice(np.arange(1, 4) / 8, size=2)
    room = CAPACITY - big.sum()
    up, down = np.nextafter(CAPACITY, 2.0) - CAPACITY, CAPACITY - np.nextafter(CAPACITY, 0.0)
    fills = np.array([room + up, room - down, room])
    rest = rng.uniform(0.05, 0.4, size=4)
    demands = np.concatenate((big, fills, rest))[:, None]
    profits = np.concatenate((4.0 * big, [2.2, 2.1, 2.0] * fills, rng.uniform(0.01, 0.9, size=4) * rest))
    return profits, demands


@pytest.mark.parametrize("seed", range(30))
def test_density_ties(seed):
    profits, demands = tied_market(seed)
    assert len(np.unique(profits / demands.sum(axis=1))) < len(profits)
    assert_same_search(profits, demands)


@pytest.mark.parametrize("seed", range(20))
def test_zero_demand_items(seed):
    profits, demands = zero_demand_market(seed)
    value, chosen, _, _ = assert_same_search(profits, demands)
    assert chosen[demands.sum(axis=1) == 0].all()


def test_only_zero_demand_items():
    value, chosen, nodes, exhausted = assert_same_search([1.0, 2.0, 0.5], np.zeros((3, 2)))
    assert chosen.all() and not exhausted
    assert value == 3.5


@pytest.mark.parametrize("seed", range(20))
def test_fill_lands_on_a_prefix_sum(seed):
    assert_same_search(*grid_market(seed))


def test_root_fill_exactly_full():
    profits, demands = exact_fill_market()
    assert np.cumsum(demands[:, 0])[7] == CAPACITY
    value, chosen, _, _ = assert_same_search(profits, demands)
    assert chosen.tolist() == [True] * 8 + [False] * 4


@pytest.mark.parametrize("seed", range(10))
def test_remaining_capacity_dips_below_zero(seed):
    profits, demands = dipping_market(seed)
    value, chosen, _, _ = assert_same_search(profits, demands)
    assert chosen.tolist() == [True, True, False, True, False] + [False] * 4
    assert value == float(profits[chosen].sum())


def dispersed(tenants: int, resources: int, share: float, seed: int) -> GenConfig:
    """Demand mean and std both ``share / tenants``: demands far more spread
    than the default std of 1/N², so the summed capacity is a loose bound."""
    return GenConfig(
        tenant_count=tenants, resource_count=resources, demand_mean=share / tenants, demand_std=share / tenants, seed=seed
    )


def lp_weights(profits: np.ndarray, demands: np.ndarray) -> np.ndarray:
    """The capacity duals of the LP relaxation of these items."""
    ones = np.ones(demands.shape[1])
    return lp_relaxation(Instance(demands, profits, ones, 2 * ones, 0 * ones))[1]


# each family with the seeds its differential test uses; exhaustive
# enumeration of 20 generated items takes 5 to 95 ms, so those get four
SMALL_MARKETS = {
    "generated": (range(4), lambda seed: viable_items(generate_instance(GenConfig(20, 1 + seed % 5, seed=seed)))),
    "overfull": (range(4), lambda seed: viable_items(generate_instance(dispersed(20, 1 + seed % 5, 3.0, seed)))),
    "dispersed": (range(4), lambda seed: viable_items(generate_instance(dispersed(20, 3 + 6 * (seed % 2), 1.0, seed)))),
    "tied": (range(30), tied_market),
    "zero-demand": (range(20), zero_demand_market),
    "grid": (range(20), grid_market),
    "exact-fill": (range(1), lambda seed: exact_fill_market()),
    "dipping": (range(10), dipping_market),
}


@pytest.mark.parametrize("family", SMALL_MARKETS)
def test_weighted_search_finds_the_exhaustive_optimum(family):
    """Any nonnegative weights make a valid surrogate bound, so the weighted
    search is exact with the LP duals, with random weights and with one weight
    zero, on every market of the family with at most 20 items."""
    rng = np.random.default_rng(7)
    seeds, build = SMALL_MARKETS[family]
    markets = [market for market in map(build, seeds) if len(market[0]) <= 20]
    assert len(markets) >= min(len(seeds), 4)
    for profits, demands in markets:
        optimum, _ = _exhaustive(profits, demands)
        resources = demands.shape[1]
        weightings = [lp_weights(profits, demands), rng.uniform(0.1, 2.0, resources)]
        if resources > 1:
            weightings.append(rng.uniform(0.1, 2.0, resources) * (np.arange(resources) != rng.integers(resources)))
        for weights in weightings:
            value, chosen, _, exhausted = _branch_and_bound(profits, demands, 10**9, weights)
            assert not exhausted
            assert value == pytest.approx(optimum, rel=1e-12, abs=1e-15)
            assert value == pytest.approx(profits[chosen].sum(), rel=1e-12, abs=1e-15)
            ones = np.ones(resources)
            Allocation.from_decisions(Instance(demands, profits, ones, 2 * ones, 0 * ones), chosen)


def market_id(config: GenConfig) -> str:
    share = config.demand_mean * config.tenant_count
    return f"N{config.tenant_count}-C{config.resource_count}-share{share:g}-seed{config.seed}"


@pytest.mark.parametrize(
    "config",
    [
        *(dispersed(100, 9, 1.0, seed) for seed in range(3)),
        *(dispersed(500, 3, 1.0, seed) for seed in range(2)),
        dispersed(2000, 3, 2.0, 1),
    ],
    ids=market_id,
)
def test_dispersed_markets_solve_exactly(config):
    # the summed bound spends all 5 000 000 nodes on each of these markets;
    # the probe runs out, and the search restarted on the LP duals finishes
    instance = generate_instance(config)
    profits = adjusted_profits(instance)
    result = offline_exact(instance)
    assert result.method == "branch-and-bound" and result.exact
    m = len(viable_items(instance)[0])
    assert _PROBE_NODES_PER_TENANT * m < result.nodes_explored <= DEFAULT_NODE_BUDGET
    assert result.welfare == float(profits[result.accepted].sum())
    Allocation.from_decisions(instance, result.accepted)  # raises when infeasible
    assert result.welfare <= lp_upper_bound(instance)


@pytest.mark.parametrize(
    "config",
    [dispersed(40, 3, 1.0, 0), dispersed(40, 3, 1.0, 1), dispersed(40, 3, 2.0, 0), dispersed(100, 2, 1.0, 0)],
    ids=market_id,
)
def test_restart_reaches_the_summed_optimum(config):
    # markets the summed bound finishes after the probe has run out: both
    # searches reach the same optimum, the restart in fewer nodes
    instance = generate_instance(config)
    profits, demands = viable_items(instance)
    value, _, nodes, exhausted = _list_branch_and_bound(profits, demands, DEFAULT_NODE_BUDGET)
    assert not exhausted and nodes > _PROBE_NODES_PER_TENANT * len(profits)
    result = offline_exact(instance)
    assert result.exact and result.nodes_explored < nodes
    assert result.welfare == pytest.approx(value, rel=1e-12)


def test_one_resource_runs_the_probe_alone(monkeypatch):
    # with one resource the LP duals would only rescale the summed bound: a
    # market that needs more than the probe's nodes gets the summed search's
    # answer, bit for bit, and solves no LP
    instance = generate_instance(dispersed(300, 1, 2.0, 1))
    profits = adjusted_profits(instance)
    index = np.flatnonzero((profits > 0) & (instance.demands <= CAPACITY).all(axis=1))
    _, chosen, nodes, exhausted = _list_branch_and_bound(profits[index], instance.demands[index], DEFAULT_NODE_BUDGET)
    assert not exhausted and nodes > _PROBE_NODES_PER_TENANT * len(index)
    monkeypatch.setattr(oracle, "lp_relaxation", None)
    result = offline_exact(instance)
    assert result.exact and result.nodes_explored == nodes
    assert result.accepted.sum() == chosen.sum() and result.accepted[index].tobytes() == chosen.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_every_node_budget(seed):
    instance = generate_instance(
        GenConfig(tenant_count=18, resource_count=1 + seed % 3, demand_mean=2.5 / 18, demand_std=2.5 / 18, seed=seed)
    )
    profits, demands = viable_items(instance)
    _, _, full, exhausted = assert_same_search(profits, demands)
    assert not exhausted and full > 20
    overran = []
    for budget in range(1, full + 2):
        *_, nodes, _ = assert_same_search(profits, demands, node_budget=budget)
        if nodes > budget:
            overran.append(budget)
        # the dive visits the references' nodes in their order and stops at
        # the budget, which runs out only when a node is left unvisited
        *_, nodes, exhausted = _branch_and_bound(profits, demands, budget)
        assert nodes == min(budget, full)
        assert exhausted is (budget < full)
    if seed == 0:
        # the references check the budget after the leaf test, so a leaf
        # visited at the budget takes them one node past it
        assert overran == [19, 54, 62]


@pytest.mark.parametrize(
    "weighted, config", [(False, dispersed(40, 3, 1.0, 0)), (True, dispersed(100, 9, 1.0, 0))], ids=["summed", "weighted"]
)
def test_rooms_do_not_read_the_builtin_sum(weighted, config, monkeypatch):
    """A node's room is a left-to-right fold, so patching the module's ``sum``
    to ``math.fsum``, which like the builtin of Python 3.12 on compensates,
    leaves the nodes and the result as they were.  On these markets the two
    sums of the rooms along the first dive differ."""
    profits, demands = viable_items(generate_instance(config))
    lp = lp_weights(profits, demands) if weighted else None
    weights = np.ones(demands.shape[1]) if lp is None else lp
    remaining, differs = [CAPACITY] * demands.shape[1], 0
    for row in demands[np.argsort(-profits / (demands @ weights), kind="stable")].tolist():
        if any(r < d for r, d in zip(remaining, row)):
            break
        remaining = [r - d for r, d in zip(remaining, row)]
        terms = list(map(mul, weights.tolist(), remaining))
        differs += _fold(terms) != math.fsum(terms)
    assert differs
    search = (profits, demands, DEFAULT_NODE_BUDGET, lp)
    value, chosen, nodes, exhausted = _branch_and_bound(*search)
    monkeypatch.setattr(oracle, "sum", math.fsum, raising=False)
    patched = _branch_and_bound(*search)
    assert patched[0].hex() == value.hex() and patched[1].tobytes() == chosen.tobytes()
    assert patched[2:] == (nodes, exhausted) and not exhausted


def test_unpack_reads_bits_low_first():
    rng = np.random.default_rng(5)
    for m in (1, 7, 8, 9, 25, 64, 65, 2000):
        for mask in (0, (1 << m) - 1, 1 << (m - 1), int(rng.integers(0, 2**62)) % (1 << m)):
            assert _unpack(mask, m).tolist() == [bool(mask >> i & 1) for i in range(m)]


# ---------------------------------------------------------------------------
# the root dive in numpy against the per-node loop that visited it node by node

# ``oracle._branch_and_bound`` before its root dive ran in numpy, verbatim
def _loop_branch_and_bound(
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
    exhausted only when a node was left unvisited.  The sort and the prefix
    sums run in numpy; the per-node work runs on Python lists and floats.
    """
    m, resources = demands.shape
    aggregate = demands.sum(axis=1) if weights is None else demands @ weights
    weight_list = [1.0] * resources if weights is None else weights.tolist()
    order, density = _density_order(profits, aggregate)
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
    room = 0.0
    for w in weight_list:
        room += w * CAPACITY
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
        if not stack:
            break
        depth, value, remaining, room, mask = stack.pop()

    # the mask is over sorted positions; order maps them back to item indices
    chosen = np.zeros(m, dtype=bool)
    chosen[order] = _unpack(best_mask, m)
    return best_value, chosen, nodes, exhausted


def dive_stop(profits: np.ndarray, demands: np.ndarray, weights: np.ndarray | None = None) -> tuple[int, str]:
    """The nodes of the root dive, each passing its bound and taking its item,
    and what ends it: the last item taken, a bound or an item that does not fit."""
    m, resources = demands.shape
    aggregate = demands.sum(axis=1) if weights is None else demands @ weights
    weight_list = [1.0] * resources if weights is None else weights.tolist()
    order, density = _density_order(profits, aggregate)
    prefix_p = [0.0, *np.cumsum(profits[order]).tolist()]
    prefix_a = [0.0, *np.cumsum(aggregate[order]).tolist()]
    remaining, best = [CAPACITY] * resources, 0.0
    for j, row in enumerate(demands[order].tolist()):
        best = max(best, prefix_p[j])
        target = prefix_a[j] + _fold(map(mul, weight_list, remaining), 0.0)
        t = bisect_right(prefix_a, target) - 1
        bound = prefix_p[j] + (prefix_p[t] - prefix_p[j])
        if t < m and target > prefix_a[t] and math.isfinite(density[t]):
            bound = prefix_p[j] + ((prefix_p[t] - prefix_p[j]) + (target - prefix_a[t]) * density[t])
        if bound <= best + 1e-12 * max(1.0, best):
            return j, "bound"
        if any(r < d for r, d in zip(remaining, row)):
            return j, "fit"
        remaining = [r - d for r, d in zip(remaining, row)]
    return m, "end"


def assert_dive_as_loop(profits, demands, node_budget: int, weights=None) -> tuple[float, np.ndarray, int, bool]:
    """The search returns the loop's value bits, chosen items, node count and budget flag."""
    got = _branch_and_bound(profits, demands, node_budget, weights)
    want = _loop_branch_and_bound(profits, demands, node_budget, weights)
    assert type(got[0]) is float and type(got[2]) is int
    assert got[0].hex() == want[0].hex() and got[1].tobytes() == want[1].tobytes()
    assert got[2:] == want[2:]
    return want


def budgets(run: int) -> set[int]:
    """Budgets 1 to 5, and budgets ending inside the dive, at its last node and past it."""
    return {1, 2, 3, 4, 5, max(run // 2, 1), max(run - 1, 1), max(run, 1), run + 1, run + 2}


DIVE_MARKETS = 36  # twelve of each kind


def dive_market(seed: int) -> Instance:
    """Dense (every tenant demands every resource), coarse (demand spread as
    large as the mean) or sparse (half the entries zero) by ``seed % 3``: 3 to
    150 tenants, 1 to 5 resources, demand mean 1/N to 4/N."""
    rng = np.random.default_rng(900 + seed)
    n, c, share = int(rng.integers(3, 151)), int(rng.integers(1, 6)), float(rng.integers(1, 5))
    knobs = [{}, {"demand_std": share / n}, {"participation": 0.5}][seed % 3]
    return generate_instance(GenConfig(tenant_count=n, resource_count=c, demand_mean=share / n, seed=seed, **knobs))


@pytest.mark.parametrize("seed", range(DIVE_MARKETS))
def test_the_dive_books_as_the_loop(seed):
    """Summed, with the market's LP duals (zero duals among them) and with
    all weights zero, where every density is infinite: each budget and the
    full search return the loop's result."""
    instance = dive_market(seed)
    profits, demands = viable_items(instance)
    for weights in (None, lp_relaxation(instance)[1], np.zeros(instance.resource_count)):
        run, _ = dive_stop(profits, demands, weights)
        for budget in sorted(budgets(run)) + [20_000]:
            assert_dive_as_loop(profits, demands, budget, weights)


def test_the_dive_markets_cover_each_case():
    # some dives reach the last item and some stop at an item that does not
    # fit, on generated markets and on the edge markets, summed or weighted;
    # dives that stop at a bound are on the edge markets; some LP duals are zero
    generated, edge = Counter(), Counter()
    zero_duals = False
    for seed in range(DIVE_MARKETS):
        instance = dive_market(seed)
        profits, demands = viable_items(instance)
        duals = lp_relaxation(instance)[1]
        zero_duals |= bool((duals == 0).any()) and bool((duals > 0).any())
        for weights in (None, duals):
            generated[dive_stop(profits, demands, weights)[1]] += 1
    for seeds, build in SMALL_MARKETS.values():
        for profits, demands in map(build, seeds):
            for weights in (None, lp_weights(profits, demands)):
                edge[dive_stop(profits, demands, weights)[1]] += 1
    assert min(generated["end"], generated["fit"], edge["end"], edge["fit"], edge["bound"]) >= 5 and zero_duals


@pytest.mark.parametrize("family", SMALL_MARKETS)
def test_the_dive_books_as_the_loop_on_edge_markets(family):
    # ties, zero demands, exact prefix sums, a fill landing on CAPACITY and one
    # an ulp above it, with and without LP weights
    seeds, build = SMALL_MARKETS[family]
    for profits, demands in map(build, seeds):
        for weights in (None, lp_weights(profits, demands)):
            run, _ = dive_stop(profits, demands, weights)
            for budget in sorted(budgets(run)) + [10**6]:
                assert_dive_as_loop(profits, demands, budget, weights)


def test_a_root_whose_bound_fails_starts_the_loop_at_once():
    # the whole market is worth less than the root's cutoff of 1e-12
    profits, demands = np.array([4e-13, 3e-13]), np.array([[0.5], [0.25]])
    assert dive_stop(profits, demands) == (0, "bound")
    for budget in (1, 2, 3, 10):
        value, chosen, nodes, exhausted = assert_dive_as_loop(profits, demands, budget)
        assert value == 0.0 and not chosen.any()


def test_the_dive_stops_at_a_bound_that_misses_the_cutoff():
    # after the first take the second item fits, but its profit of 2**-51
    # does not clear the cutoff of 1e-12 above the incumbent 1.0
    profits, demands = np.array([1.0, 2.0**-51]), np.array([[1.0 - 2.0**-50], [2.0**-51]])
    assert dive_stop(profits, demands) == (1, "bound")
    for budget in (1, 2, 3):
        assert_dive_as_loop(profits, demands, budget)
    value, chosen, _, exhausted = assert_dive_as_loop(profits, demands, 10)
    assert value == 1.0 and chosen.tolist() == [True, False] and not exhausted


def test_the_dive_takes_every_item():
    profits, demands = np.array([3.0, 2.0, 1.0]), np.full((3, 2), 0.25)
    assert dive_stop(profits, demands) == (3, "end")
    for budget in range(1, 8):
        assert_dive_as_loop(profits, demands, budget)


@pytest.mark.parametrize("seed", range(20))
def test_offline_exact_with_the_dive_as_with_the_loop(seed, monkeypatch):
    """The summed probe and the LP-weighted restart alike: dispersed markets
    whose probe runs out restart, and every result field stays."""
    instance = generate_instance(dispersed(20 + 10 * seed, 1 + seed % 5, 1.0 + seed % 3, seed))
    got = offline_exact(instance, node_budget=50_000)
    monkeypatch.setattr(oracle, "_branch_and_bound", _loop_branch_and_bound)
    want = offline_exact(instance, node_budget=50_000)
    assert got.welfare.hex() == want.welfare.hex() and got.accepted.tobytes() == want.accepted.tobytes()
    assert (got.exact, got.upper_bound, got.nodes_explored) == (want.exact, want.upper_bound, want.nodes_explored)


# ---------------------------------------------------------------------------
# the dive's skip branches, bounded in its numpy pass, against the loop that
# popped each one from its stack


def search_trace(profits: np.ndarray, demands: np.ndarray, weights: np.ndarray | None = None):
    """The loop's nodes in its visiting order, in plain recursive Python, and the
    root dive's length.  A node is ``(depth, mask, bound, cutoff)``, with the
    cutoff after its own value; a leaf's bound is -inf.  A node whose bound
    beats the cutoff visits its take child's subtree, if the item fits, then
    its skip child's, as the loop's stack does."""
    m, resources = demands.shape
    aggregate = demands.sum(axis=1) if weights is None else demands @ weights
    weight_list = [1.0] * resources if weights is None else weights.tolist()
    order, density = _density_order(profits, aggregate)
    prefix_p = [0.0, *np.cumsum(profits[order]).tolist()]
    prefix_a = [0.0, *np.cumsum(aggregate[order]).tolist()]
    rows, profit_list, density = demands[order].tolist(), profits[order].tolist(), density.tolist()
    trace, best = [], [0.0]

    def visit(depth: int, value: float, remaining: list[float], mask: int) -> None:
        best[0] = max(best[0], value)
        cutoff, bound = best[0] + 1e-12 * max(1.0, best[0]), -math.inf
        if depth < m:
            target = prefix_a[depth] + _fold(map(mul, weight_list, remaining), 0.0)
            t = bisect_right(prefix_a, target) - 1
            tail = prefix_p[t] - prefix_p[depth]
            if t < m and target > prefix_a[t] and math.isfinite(density[t]):
                tail += (target - prefix_a[t]) * density[t]
            bound = value + tail
        trace.append((depth, mask, bound, cutoff))
        if bound > cutoff:
            row = rows[depth]
            if all(r >= d for r, d in zip(remaining, row)):
                visit(depth + 1, value + profit_list[depth], [r - d for r, d in zip(remaining, row)], mask | 1 << depth)
            visit(depth + 1, value, remaining, mask)

    visit(0, 0.0, [CAPACITY] * resources, 0)
    return trace, dive_stop(profits, demands, weights)[0]


def skip_branches(trace, run: int) -> dict[int, tuple[int, float, float]]:
    """Each of the dive's skip branches j the loop reaches: its node number
    (1-based), its bound and the cutoff then.  Skip branch j sits at depth
    j + 1 with mask 2**j - 1."""
    return {
        depth - 1: (number, bound, cutoff)
        for number, (depth, mask, bound, cutoff) in enumerate(trace, 1)
        if 0 < depth <= run and mask == (1 << depth - 1) - 1
    }


def passed_over(branches: dict[int, tuple[int, float, float]]) -> list[int]:
    """The node numbers at which the loop passes over a skip branch: its bound misses the cutoff."""
    return sorted(number for number, bound, cutoff in branches.values() if bound <= cutoff)


def passing_budgets(passed: list[int], nodes: int) -> list[int]:
    """Budgets that end around the first passed-over skip branch, at the middle one and
    around the last, at the search's last node and one past it."""
    first, middle, last = passed[0], passed[len(passed) // 2], passed[-1]
    return sorted({first - 1, first, first + 1, middle, last - 1, last, last + 1, nodes, nodes + 1})


def dive_cutoff(trace, run: int) -> float:
    """The cutoff after the dive's last node; 1e-12 when the dive is empty."""
    return trace[run - 1][3] if run else 1e-12


def filtered_then_pruned(trace, run: int) -> list[int]:
    """The skip branches whose bound beats the dive's cutoff and misses the cutoff when reached."""
    cutoff = dive_cutoff(trace, run)
    return [j for j, (_, bound, later) in skip_branches(trace, run).items() if cutoff < bound <= later]


def explored_after_passing(trace, run: int) -> list[int]:
    """The skip branches the loop explores after passing over a deeper one."""
    branches = skip_branches(trace, run)
    passed = passed_over(branches)
    return [j for j, (number, bound, cutoff) in branches.items() if bound > cutoff and passed and passed[0] < number]


PASSING_MARKETS = [
    *(GenConfig(tenant_count=n, resource_count=c, seed=n + c) for n, c in [(20, 1), (40, 3), (60, 4), (100, 2), (150, 5)]),
    *(dispersed(20 + 4 * seed, 1 + seed % 3, 1.0, seed) for seed in (1, 4, 5, 7)),
]


@pytest.mark.parametrize("config", PASSING_MARKETS, ids=market_id)
def test_budgets_among_the_passed_over_skip_branches(config):
    """Summed and with the LP duals: budgets that run out at the first skip
    branch the loop passes over, in the middle of them, exactly at the last
    one and one past it return the loop's result."""
    instance = generate_instance(config)
    profits, demands = viable_items(instance)
    for weights in (None, lp_relaxation(instance)[1]):
        trace, run = search_trace(profits, demands, weights)
        assert assert_dive_as_loop(profits, demands, 10**9, weights)[2] == len(trace)
        for budget in passing_budgets(passed_over(skip_branches(trace, run)), len(trace)):
            assert_dive_as_loop(profits, demands, budget, weights)


def test_the_passing_markets_cover_each_case():
    # summed: default markets end on a passed-over skip branch, so the budget
    # of their last node leaves nothing; a skip branch that beat the dive's
    # cutoff is pruned once the loop has raised it; the loop explores a skip
    # branch after passing over a deeper one
    ends, pruned_later, explored_later = 0, 0, 0
    for config in PASSING_MARKETS:
        trace, run = search_trace(*viable_items(generate_instance(config)))
        ends += passed_over(skip_branches(trace, run))[-1] == len(trace)
        pruned_later += bool(filtered_then_pruned(trace, run))
        explored_later += bool(explored_after_passing(trace, run))
    assert ends >= 5 and pruned_later >= 5 and explored_later >= 3


def raised_cutoff_market() -> tuple[np.ndarray, np.ndarray]:
    """One resource, items in density order.  The dive takes items 0 and 1
    (1.46875) and stops at item 2, which does not fit; the loop then takes
    item 3, for 1.8125.  The skip branches of items 1 and 0 bound 1.75 and
    1.5625: both beat the dive's cutoff of 1 and miss the loop's 1.8125."""
    return np.array([1.0, 15 / 32, 3 / 4, 11 / 32]), np.array([[1 / 2], [1 / 4], [1 / 2], [1 / 4]])


def earlier_branch_market() -> tuple[np.ndarray, np.ndarray]:
    """One resource, items in density order, sizes 1/8, 1/4, 3/8 and 1/2.  The
    dive takes items 0 to 2 (4.75) and item 3 does not fit.  The skip branch
    of item 2 bounds 4.5 and is passed over; the skip branch of item 1 then
    bounds 4.875 and is explored, and books {0, 2, 3} for 4.875, which prunes
    the skip branch of item 0 (4.25)."""
    return np.array([1.625, 1.375, 1.75, 1.5]), np.array([[1 / 8], [1 / 4], [3 / 8], [1 / 2]])


def test_a_deeper_incumbent_prunes_a_branch_that_passed_the_dives_filter():
    profits, demands = raised_cutoff_market()
    trace, run = search_trace(profits, demands)
    assert run == 2 and dive_cutoff(trace, run) == 1.0 + 1e-12
    assert {j: bound for j, (_, bound, _) in skip_branches(trace, run).items()} == {1: 1.75, 0: 1.5625}
    assert filtered_then_pruned(trace, run) == [1, 0]
    for weights in (None, lp_weights(profits, demands)):
        for budget in range(1, len(trace) + 2):
            assert_dive_as_loop(profits, demands, budget, weights)
    value, chosen, nodes, exhausted = assert_dive_as_loop(profits, demands, 10**9)
    assert (value, chosen.tolist(), nodes, exhausted) == (1.8125, [True, True, False, True], len(trace), False)


def test_an_earlier_branch_is_explored_after_later_ones_are_passed_over():
    profits, demands = earlier_branch_market()
    trace, run = search_trace(profits, demands)
    branches = skip_branches(trace, run)
    assert run == 3 and {j: bound for j, (_, bound, _) in branches.items()} == {2: 4.5, 1: 4.875, 0: 4.25}
    assert passed_over(branches) == [branches[2][0], branches[0][0]] and explored_after_passing(trace, run) == [1]
    for weights in (None, lp_weights(profits, demands)):
        for budget in range(1, len(trace) + 2):
            assert_dive_as_loop(profits, demands, budget, weights)
    value, chosen, nodes, exhausted = assert_dive_as_loop(profits, demands, 10**9)
    assert (value, chosen.tolist(), nodes, exhausted) == (4.875, [True, False, True, True], len(trace), False)


def test_a_default_market_of_2000_tenants_as_with_the_loop():
    """The size where the dive's skip branches dominate: at C = 3 the dive
    takes all but the last items, and the loop passes over nearly all of its
    skip branches at the end.  Summed and with the LP duals, the full search
    and budgets at the dive's end and among the last ``run`` nodes return the
    loop's value bits, chosen items, node count and budget flag."""
    instance = generate_instance(GenConfig(tenant_count=2000, resource_count=3, seed=11))
    profits, demands = viable_items(instance)
    for weights in (None, lp_relaxation(instance)[1]):
        run, _ = dive_stop(profits, demands, weights)
        *_, nodes, exhausted = assert_dive_as_loop(profits, demands, DEFAULT_NODE_BUDGET, weights)
        assert run >= 1990 and 2 * run < nodes < 2 * run + 20 and not exhausted
        for budget in (run, nodes - run + 1, nodes - run // 2, nodes - 1, nodes, nodes + 1):
            assert_dive_as_loop(profits, demands, budget, weights)
