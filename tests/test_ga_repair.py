"""Differential tests of the GA and its population repair against the per-row loop.

``_reference_repair`` and ``_reference_ga`` are verbatim copies of the
genetic heuristic as it was before repair was screened for the whole
population in one product, the failing rows repaired in one batched drop
loop and the generation loop run on reused buffers, except that the tournament
size, the elites and the mutation rate ``1/m`` are the module's fixed values,
that the mutation walks geometric gaps between flips (``_reference_flips``)
instead of comparing one uniform per gene with the rate, and that the search
stops after ``STALL`` generations in a row without an improvement; the
current code must reproduce them bit for bit.
"""

import math

import numpy as np
import pytest

from slicemarket import baselines
from slicemarket.baselines import (
    ELITES,
    STALL,
    TOURNAMENT,
    GaParams,
    _flip_positions,
    _population_repair,
    ga_heuristic,
)
from slicemarket.market import CAPACITY
from slicemarket.oracle import adjusted_profits
from slicemarket.workload import GenConfig, Instance, generate_instance

LIMIT = CAPACITY


def _reference_repair(selected, demands, density):
    utilization = selected.astype(float) @ demands
    while (utilization > LIMIT).any():
        overfull = utilization > LIMIT
        uses_overfull = demands[:, overfull].sum(axis=1) > 0
        candidates = selected & uses_overfull
        victim = int(np.flatnonzero(candidates)[np.argmin(density[candidates])])
        selected[victim] = False
        utilization -= demands[victim]


def _reference_flips(rng, rate, total, batch):
    """The flipped gene positions, one geometric gap at a time: each gap is the
    number of trials up to and including the next success."""
    flips = []
    position = -1
    while True:
        for gap in rng.geometric(rate, size=batch).tolist():
            position += gap
            if position >= total:
                return flips  # the rest of this batch lies past the end
            flips.append(position)


def _reference_ga(instance, params=None, seed=0):
    params = params or GaParams()
    n = instance.tenant_count
    profits = adjusted_profits(instance)
    viable = (profits > 0) & (instance.demands <= LIMIT).all(axis=1)
    index = np.flatnonzero(viable)
    m = len(index)
    full = np.zeros(n, dtype=bool)
    if m == 0:
        return 0.0, full
    w = profits[index]
    demands = instance.demands[index]
    aggregate = demands.sum(axis=1)
    with np.errstate(divide="ignore"):
        density = np.where(aggregate > 0, w / aggregate, np.inf)
    rate = 1.0 / m

    rng = np.random.default_rng(seed)
    population = rng.random((params.population, m)) < 0.5
    for row in population:
        _reference_repair(row, demands, density)
    fitness = population.astype(float) @ w

    best_value = float(fitness.max())
    best = population[int(np.argmax(fitness))].copy()
    stalled = 0
    for _ in range(params.generations):
        elite_idx = np.argsort(fitness)[-ELITES:]
        n_offspring = params.population - ELITES
        contenders = rng.integers(0, params.population, size=(n_offspring, 2, TOURNAMENT))
        parents = contenders[
            np.arange(n_offspring)[:, None],
            np.arange(2)[None, :],
            np.argmax(fitness[contenders], axis=2),
        ]
        cut = rng.integers(1, max(m, 2), size=n_offspring)
        head = np.arange(m)[None, :] < cut[:, None]
        offspring = np.where(head, population[parents[:, 0]], population[parents[:, 1]])
        batch = n_offspring + 4 * math.isqrt(n_offspring) + 16
        for position in _reference_flips(rng, rate, n_offspring * m, batch):
            offspring[position // m, position % m] ^= True
        for row in offspring:
            _reference_repair(row, demands, density)
        population = np.concatenate([population[elite_idx], offspring])
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
    welfare = float(profits[full].sum()) if full.any() else 0.0
    return welfare, full


def _assert_repairs_match(rows, demands, density):
    expected = rows.copy()
    for row in expected:
        _reference_repair(row, demands, density)
    got = rows.copy()
    _population_repair(demands, density)(got)
    assert got.dtype == np.bool_ and got.shape == rows.shape
    np.testing.assert_array_equal(got, expected)
    return expected


def _density(demands, rng):
    aggregate = demands.sum(axis=1)
    with np.errstate(divide="ignore"):
        return np.where(aggregate > 0, rng.uniform(0.1, 2.0, len(demands)) / aggregate, np.inf)


class TestRepairPopulation:
    def test_random_populations(self, rng):
        for _ in range(200):
            m = int(rng.integers(1, 120))
            c = int(rng.integers(1, 6))
            demands = rng.uniform(0, 3.0 / m, size=(m, c))
            demands[rng.random((m, c)) < 0.3] = 0.0
            if rng.random() < 0.2:  # the repair is also checked on negative demands
                demands -= rng.uniform(0, 2.0 / m, size=(m, c))
            density = _density(demands, rng)
            rows = rng.random((int(rng.integers(1, 40)), m)) < rng.uniform(0.1, 0.9)
            _assert_repairs_match(rows, demands, density)

    def test_all_infeasible_population(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 60))
            c = int(rng.integers(1, 5))
            demands = rng.uniform(1.5 / m, 4.0 / m, size=(m, c))
            density = _density(demands, rng)
            rows = np.ones((20, m), dtype=bool)
            rows[:, rng.permutation(m)[: m // 4]] = rng.random((20, m // 4)) < 0.5
            assert ((rows.astype(float) @ demands) > LIMIT).any(axis=1).all()
            repaired = _assert_repairs_match(rows, demands, density)
            assert ((repaired.astype(float) @ demands) <= LIMIT).all()

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_rows_at_the_capacity_boundary(self, rng, ulps):
        # each column shares LIMIT among the items in steps of 1/1024, and
        # its largest item moves by one ulp of the column's sum, down or up:
        # every partial sum is then a float, so every summation order reads
        # the full row's sum as exactly the target
        target = LIMIT
        for _ in range(abs(ulps)):
            target = np.nextafter(target, np.inf if ulps > 0 else -np.inf)
        for trial in range(40):
            m = int(rng.integers(2, 100))
            c = int(rng.integers(1, 4))
            demands = rng.multinomial(1024, np.full(m, 1.0 / m), size=c).T * (LIMIT / 1024)
            demands[demands.argmax(axis=0), np.arange(c)] += target - LIMIT
            assert (np.ones(m) @ demands == target).all()
            density = _density(demands, rng)
            rows = rng.random((30, m)) < 0.5
            rows[: trial % 3 + 1] = True  # rows whose per-row sum is the target
            expected = _assert_repairs_match(rows, demands, density)
            if ulps <= 0:
                assert expected[0].all()  # left untouched at or below the limit
            else:
                assert not expected[0].all()

    @pytest.mark.parametrize("ulps", [0, 1])
    def test_drop_lands_on_the_limit(self, rng, ulps):
        # after the first drop a row's utilization reads exactly the limit, or
        # one ulp above it, so one drop suffices or a second one is needed
        target = LIMIT if ulps == 0 else np.nextafter(LIMIT, np.inf)
        landed = 0
        for _ in range(30):
            m = int(rng.integers(3, 60))
            demands = rng.uniform(0.5, 1.0, size=(m, 1))
            demands *= LIMIT / demands[1:].sum()
            density = np.linspace(1.0, 2.0, m)  # item 0 goes first
            row = np.ones((1, m), dtype=bool)
            other = 1 + int(np.argmax(demands[1:, 0]))
            for _ in range(10_000):
                after = (row[0].astype(float) @ demands)[0] - demands[0, 0]
                if after == target:
                    break
                demands[other, 0] = np.nextafter(demands[other, 0], np.inf if after < target else -np.inf)
            repaired = _assert_repairs_match(row, demands, density)
            if after == target:  # the gemv's rounding can step over the target
                landed += 1
                assert m - int(repaired.sum()) == 1 + ulps
        assert landed >= 15

    def test_rows_tied_on_density(self, rng):
        for _ in range(60):
            m = int(rng.integers(2, 80))
            c = int(rng.integers(1, 5))
            demands = rng.uniform(0.5 / m, 4.0 / m, size=(m, c))
            demands[rng.random((m, c)) < 0.2] = 0.0
            # a few density levels shared by many items, inf among them
            levels = np.array([0.5, 1.0, 1.0, 2.0, np.inf])
            density = levels[rng.integers(0, len(levels), m)]
            twins = rng.permutation(m)[: m // 2]
            demands[twins] = demands[twins[0]]  # identical items, identical density
            density[twins] = density[twins[0]]
            rows = rng.random((25, m)) < rng.uniform(0.4, 1.0)
            rows[:5] = True  # every gene set
            _assert_repairs_match(rows, demands, density)

    def test_every_gene_set(self, rng):
        for _ in range(40):
            m = int(rng.integers(1, 150))
            c = int(rng.integers(1, 6))
            demands = rng.uniform(0, 6.0 / m, size=(m, c))
            demands[rng.random(m) < 0.1] = 0.0  # zero-demand items: density inf
            repaired = _assert_repairs_match(np.ones((12, m), dtype=bool), demands, _density(demands, rng))
            assert ((repaired.astype(float) @ demands) <= LIMIT).all()

    def test_many_resources(self, rng):
        # more than eight resources: an overfull set packs into several bytes
        for _ in range(20):
            m = int(rng.integers(5, 60))
            c = int(rng.integers(9, 20))
            demands = rng.uniform(0, 4.0 / m, size=(m, c))
            demands[rng.random((m, c)) < 0.4] = 0.0
            _assert_repairs_match(rng.random((20, m)) < 0.7, demands, _density(demands, rng))

    def test_no_item_left_to_drop(self):
        # utilization overflows to inf and stays overfull whatever is dropped
        demands = np.array([[1e308], [1e308], [0.1], [0.0]])
        density = np.array([1.0, 1.0, 3.0, np.inf])
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            _reference_repair(np.ones(4, dtype=bool), demands, density)
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            _population_repair(demands, density)(np.ones((3, 4), dtype=bool))

    def test_degenerate_demands(self, rng):
        demands = np.zeros((5, 2))
        density = np.full(5, np.inf)
        _assert_repairs_match(rng.random((6, 5)) < 0.5, demands, density)
        _assert_repairs_match(np.zeros((0, 5), dtype=bool), demands, density)
        for bad in (np.nan, -np.inf, -5.0):
            demands = rng.uniform(0, 0.5, size=(5, 2))
            demands[1, 0] = bad
            with np.errstate(invalid="ignore"):
                _assert_repairs_match(rng.random((8, 5)) < 0.6, demands, _density(np.abs(demands), rng))


class TestFlipPositions:
    @staticmethod
    def _batch(k):
        return k + 4 * math.isqrt(k) + 16

    def test_positions_unique_sorted_and_in_range(self):
        rng = np.random.default_rng(25)
        for k, m in ((1, 1), (1, 7), (3, 2), (98, 100), (18, 5), (98, 1000)):
            for _ in range(50):
                positions = _flip_positions(rng, 1.0 / m, k * m, self._batch(k))
                assert positions.dtype.kind == "i"
                assert (np.diff(positions) > 0).all()
                if len(positions):
                    assert 0 <= positions[0] and positions[-1] < k * m

    def test_mean_flips_per_row_is_one(self):
        rng = np.random.default_rng(26)
        for k, m in ((98, 100), (18, 30), (8, 2000)):
            draws = 400
            flips = sum(len(_flip_positions(rng, 1.0 / m, k * m, self._batch(k))) for _ in range(draws))
            # the flips are Binomial(draws * k * m, 1/m), so a row's mean is
            # 1 with standard deviation sd / rows
            rows, rate = draws * k, 1.0 / m
            sd = math.sqrt(rows * m * rate * (1 - rate))
            assert abs(flips / rows - 1) <= 4 * sd / rows

    def test_rate_one_flips_every_gene(self):
        rng = np.random.default_rng(27)
        for k in (1, 2, 98, 500):
            np.testing.assert_array_equal(_flip_positions(rng, 1.0, k, self._batch(k)), np.arange(k))

    def test_short_batches_are_topped_up(self):
        for seed in range(20):
            k, m = 40, 50
            positions = _flip_positions(np.random.default_rng(seed), 1.0 / m, k * m, 2)
            assert len(positions) > 2  # more flips than one batch holds
            reference = _reference_flips(np.random.default_rng(seed), 1.0 / m, k * m, 2)
            np.testing.assert_array_equal(positions, reference)
            # gaps are drawn one after another, so the batch size changes only
            # how far past the end the draws run, not where the flips fall
            whole = _flip_positions(np.random.default_rng(seed), 1.0 / m, k * m, self._batch(k))
            np.testing.assert_array_equal(positions, whole)

    def test_generator_left_after_the_last_batch(self):
        # both walks consume whole batches, so the next draw agrees
        for seed in range(10):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            _flip_positions(ours, 0.02, 1000, 7)
            _reference_flips(theirs, 0.02, 1000, 7)
            assert ours.random() == theirs.random()


class TestGaMatchesReference:
    @staticmethod
    def _cases():
        rng = np.random.default_rng(7)
        params = (GaParams(), GaParams(population=20, generations=10), GaParams(population=10, generations=5))
        for case in range(300):
            n = int(rng.integers(1, 101))
            cfg = GenConfig(
                tenant_count=n,
                resource_count=int(rng.integers(1, 6)),
                demand_mean=float(rng.uniform(0.5, 4.0)) / n if rng.random() < 0.5 else None,
                participation=float(rng.uniform(0.2, 1.0)) if rng.random() < 0.3 else None,
                seed=int(rng.integers(0, 2**32)),
            )
            # default parameters cost the reference 0.2-0.4 s a call
            yield generate_instance(cfg), params[0 if case % 60 == 0 else 1 + case % 2], int(rng.integers(0, 2**32))

    def test_bit_identical_on_seeded_instances(self):
        checked = 0
        for instance, params, seed in self._cases():
            welfare, accepted = ga_heuristic(instance, params, seed)
            ref_welfare, ref_accepted = _reference_ga(instance, params, seed)
            assert welfare == ref_welfare
            np.testing.assert_array_equal(accepted, ref_accepted)
            checked += 1
        assert checked == 300

    def test_hand_built_overfull_market(self):
        demands = np.array([[0.6, 0.1], [0.5, 0.5], [0.3, 0.7], [0.2, 0.2], [0.45, 0.0]])
        inst = Instance(demands, [3.0, 4.0, 3.5, 1.0, 2.0], [1.0, 1.0], [20.0, 20.0], [0.5, 0.5])
        for seed in range(20):
            params = GaParams(population=12, generations=8)
            got = ga_heuristic(inst, params, seed)
            ref = _reference_ga(inst, params, seed)
            assert got[0] == ref[0]
            np.testing.assert_array_equal(got[1], ref[1])


def _assert_ga_matches(instance, params, seeds):
    for seed in seeds:
        welfare, accepted = ga_heuristic(instance, params, seed)
        ref_welfare, ref_accepted = _reference_ga(instance, params, seed)
        assert welfare == ref_welfare
        np.testing.assert_array_equal(accepted, ref_accepted)


def _market(demands, valuations, resources):
    costs = np.full(resources, 0.5)
    return Instance(np.array(demands, dtype=float).reshape(-1, resources), valuations, costs * 2, costs * 40, costs)


class TestGaEdgeCases:
    @pytest.mark.parametrize(
        "params",
        [
            GaParams(population=3, generations=30),
            GaParams(population=4, generations=25),
            GaParams(population=3, generations=1),
        ],
        ids=["smallest population", "two offspring", "one offspring, one generation"],
    )
    def test_parameter_extremes(self, params):
        rng = np.random.default_rng(11)
        for n, mean in ((1, None), (2, None), (12, None), (40, 3.0), (60, 1.0)):
            cfg = GenConfig(
                tenant_count=n,
                resource_count=int(rng.integers(1, 4)),
                demand_mean=mean / n if mean else None,
                seed=int(rng.integers(0, 2**32)),
            )
            _assert_ga_matches(generate_instance(cfg), params, range(3))

    @pytest.mark.parametrize("viable, valuations", [(1, [3.0, 0.0, 9.0, 0.0, 0.1]), (2, [3.0, 4.0, 9.0, 0.0, 0.1])])
    def test_one_or_two_viable_tenants(self, viable, valuations):
        # the others have no profit or demand beyond capacity; the cut is drawn from [1, max(m, 2))
        demands = [[0.4, 0.3], [0.5, 0.6], [1.5, 0.1], [0.2, 0.2], [0.3, 0.1]]
        inst = _market(demands, valuations, 2)
        assert int((adjusted_profits(inst) > 0).sum()) - 1 == viable  # tenant 2 is too big
        _assert_ga_matches(inst, GaParams(population=6, generations=15), range(5))
        _assert_ga_matches(inst, GaParams(population=3, generations=10), range(5))
        for n in (1, 2):
            single = generate_instance(GenConfig(tenant_count=n, resource_count=2, seed=n))
            _assert_ga_matches(single, GaParams(population=5, generations=12), range(5))

    def test_zero_demand_tenants(self):
        rng = np.random.default_rng(5)
        for _ in range(12):
            n, c = int(rng.integers(4, 40)), int(rng.integers(1, 4))
            demands = rng.uniform(0.5 / n, 4.0 / n, size=(n, c))
            demands[rng.random(n) < 0.3] = 0.0  # no demand at all: density inf
            demands[rng.random((n, c)) < 0.2] = 0.0
            inst = _market(demands, rng.uniform(0.1, 2.0, n), c)
            _assert_ga_matches(inst, GaParams(population=12, generations=15), range(3))


def _counting_flips(monkeypatch):
    """Count the generations a GA call runs: each draws its flips once."""
    calls = []
    flips = baselines._flip_positions

    def counted(*args):
        calls.append(None)
        return flips(*args)

    monkeypatch.setattr(baselines, "_flip_positions", counted)
    return calls


class TestStallStop:
    def test_stops_after_stall_generations_without_improvement(self, monkeypatch):
        # one viable tenant (the other's demand is beyond capacity): the
        # initial population already holds the optimum, so no generation can
        # improve on it
        inst = _market([[0.4, 0.3], [1.5, 0.1]], [3.0, 9.0], 2)
        assert baselines._viable(inst)[1].tolist() == [0]
        calls = _counting_flips(monkeypatch)
        for seed in range(3):
            calls.clear()
            welfare, accepted = ga_heuristic(inst, GaParams(100, 3 * STALL), seed)
            assert len(calls) == STALL
            assert accepted.tolist() == [True, False] and welfare > 0
        for generations in (1, 7, STALL - 1, STALL):
            calls.clear()
            ga_heuristic(inst, GaParams(100, generations), 0)
            assert len(calls) == generations

    def test_a_stopped_run_is_the_capped_run(self, monkeypatch):
        # the stop at generation g leaves the draws of GaParams(100, g)
        calls = _counting_flips(monkeypatch)
        stopped = 0
        for seed in range(3):
            inst = generate_instance(GenConfig(seed=seed))
            calls.clear()
            welfare, accepted = ga_heuristic(inst, GaParams(), seed)
            g = len(calls)
            assert STALL <= g
            stopped += g < GaParams().generations
            capped_welfare, capped = ga_heuristic(inst, GaParams(100, g), seed)
            assert welfare == capped_welfare
            np.testing.assert_array_equal(accepted, capped)
        assert stopped == 3
