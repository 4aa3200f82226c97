"""Differential test: the list-based branch-and-bound against the numpy one.

``_reference_branch_and_bound`` and ``_reference_fractional_tail`` are the
search as it was first written, with numpy scalars, ``np.searchsorted`` and a
mask packed over the viable item indices.  The list-based search must return
the same optimum, the same chosen items, the same node count and the same
budget flag, bit for bit, including when the node budget runs out.
"""

import numpy as np
import pytest

from slicemarket.market import CAPACITY, FEASIBILITY_EPS
from slicemarket.oracle import _branch_and_bound, _unpack, adjusted_profits, offline_exact
from slicemarket.workload import GenConfig, generate_instance


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
        cap = sum(remaining)
        bound = value + _reference_fractional_tail(depth, cap, prefix_p, prefix_a, density, m)
        if bound <= best_value + 1e-12 * max(1.0, abs(best_value)):
            continue
        stack.append((depth + 1, value, remaining, mask))
        row = rows[depth]
        if all(r + FEASIBILITY_EPS >= d for r, d in zip(remaining, row)):
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


def assert_same_search(profits, demands, node_budget: int = 10**9) -> tuple[float, np.ndarray, int, bool]:
    profits = np.asarray(profits, dtype=float)
    demands = np.asarray(demands, dtype=float).reshape(len(profits), -1)
    value, packed, nodes, exhausted = _reference_branch_and_bound(profits, demands, node_budget)
    want = np.array([packed >> i & 1 for i in range(len(profits))], dtype=bool)
    got_value, got_chosen, got_nodes, got_exhausted = _branch_and_bound(profits, demands, node_budget)
    assert type(got_value) is float and got_value.hex() == value.hex()
    assert got_chosen.dtype == bool and got_chosen.tobytes() == want.tobytes()
    assert type(got_nodes) is int and got_nodes == nodes
    assert got_exhausted is exhausted
    return value, want, nodes, exhausted


def viable_items(instance) -> tuple[np.ndarray, np.ndarray]:
    """The profits and demands ``offline_exact`` hands to the search."""
    profits = adjusted_profits(instance)
    viable = (profits > 0) & (instance.demands <= CAPACITY + FEASIBILITY_EPS).all(axis=1)
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
    index = np.flatnonzero((profits > 0) & (instance.demands <= CAPACITY + FEASIBILITY_EPS).all(axis=1))
    value, chosen, nodes, _ = assert_same_search(profits[index], instance.demands[index])
    result = offline_exact(instance)
    want = np.zeros(instance.tenant_count, dtype=bool)
    want[index[chosen]] = True
    assert result.method == "branch-and-bound" and result.exact
    assert result.accepted.tobytes() == want.tobytes()
    assert result.welfare.hex() == float(profits[want].sum()).hex()
    assert result.nodes_explored == nodes
    assert result.welfare == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("seed", range(30))
def test_density_ties(seed):
    # a handful of exact density levels (profit = level * aggregate, the
    # level a power of two), repeated items included: the stable sort's tie
    # order decides the search order
    rng = np.random.default_rng(seed)
    m, c = int(rng.integers(5, 40)), int(rng.integers(1, 5))
    demands = rng.choice(np.arange(1, 9) / 16, size=(m, c))
    demands[m // 2 :] = demands[: m - m // 2]
    levels = rng.choice([0.5, 1.0, 2.0, 4.0], size=m)
    profits = levels * demands.sum(axis=1)
    density = profits / demands.sum(axis=1)
    assert len(np.unique(density)) < m
    assert_same_search(profits, demands)


@pytest.mark.parametrize("seed", range(20))
def test_zero_demand_items(seed):
    # zero rows have density inf and sort first, ties among them included;
    # their inf density must never enter the fractional fill
    rng = np.random.default_rng(100 + seed)
    m, c = int(rng.integers(2, 30)), int(rng.integers(1, 4))
    demands = rng.uniform(0.0, 0.6, size=(m, c))
    zero = rng.random(m) < 0.3
    zero[rng.integers(m)] = True
    demands[zero] = 0.0
    profits = rng.uniform(0.1, 2.0, size=m)
    value, chosen, _, _ = assert_same_search(profits, demands)
    assert chosen[demands.sum(axis=1) == 0].all()


def test_only_zero_demand_items():
    value, chosen, nodes, exhausted = assert_same_search([1.0, 2.0, 0.5], np.zeros((3, 2)))
    assert chosen.all() and not exhausted
    assert value == 3.5


@pytest.mark.parametrize("seed", range(20))
def test_fill_lands_on_a_prefix_sum(seed):
    # demands on a 1/8 grid on one resource: every prefix sum and every
    # remaining capacity is exact, so the fill meets a prefix sum with
    # ``leftover == 0`` at the root and below it
    rng = np.random.default_rng(200 + seed)
    m = int(rng.integers(9, 30))
    demands = rng.choice(np.arange(1, 5) / 8, size=(m, 1))
    profits = rng.integers(1, 20, size=m) / 4
    assert_same_search(profits, demands)


def test_root_fill_exactly_full():
    # eight items of 1/8 in descending density fill the root bound exactly
    profits = np.arange(12, 0, -1) / 8
    demands = np.full((12, 1), 1 / 8)
    assert np.cumsum(demands[:, 0])[7] == CAPACITY
    value, chosen, _, _ = assert_same_search(profits, demands)
    assert chosen.tolist() == [True] * 8 + [False] * 4


@pytest.mark.parametrize("seed", range(10))
def test_remaining_capacity_dips_below_zero(seed):
    # demands up to FEASIBILITY_EPS past a full resource still fit, so the
    # remaining capacity, and with it the fill target, can fall below zero;
    # tiny items after the big ones make the prefix sums nearly flat there
    rng = np.random.default_rng(300 + seed)
    half = 0.5 + rng.uniform(0.0, 0.49, size=2) * FEASIBILITY_EPS
    tiny = rng.uniform(0.0, 0.3, size=4) * FEASIBILITY_EPS
    rest = rng.uniform(0.05, 0.4, size=4)
    demands = np.concatenate((half, tiny, rest))[:, None]
    profits = np.concatenate((2.0 * half, 1.5 * tiny, rng.uniform(0.01, 0.9, size=4) * rest))
    value, chosen, _, _ = assert_same_search(profits, demands)
    assert chosen[:2].all()


@pytest.mark.parametrize("seed", range(6))
def test_every_node_budget(seed):
    instance = generate_instance(
        GenConfig(tenant_count=18, resource_count=1 + seed % 3, demand_mean=2.5 / 18, demand_std=2.5 / 18, seed=seed)
    )
    profits, demands = viable_items(instance)
    _, _, full, exhausted = assert_same_search(profits, demands)
    assert not exhausted and full > 20
    for budget in range(1, full + 2):
        *_, nodes, exhausted = assert_same_search(profits, demands, node_budget=budget)
        # the budget is checked at inner nodes only, so a leaf can overrun it
        assert min(budget, full) <= nodes <= full
        assert exhausted or budget >= full


def test_unpack_reads_bits_low_first():
    rng = np.random.default_rng(5)
    for m in (1, 7, 8, 9, 25, 64, 65, 2000):
        for mask in (0, (1 << m) - 1, 1 << (m - 1), int(rng.integers(0, 2**62)) % (1 << m)):
            assert _unpack(mask, m).tolist() == [bool(mask >> i & 1) for i in range(m)]
