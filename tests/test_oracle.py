"""Offline oracles: exhaustive enumeration, branch-and-bound, LP bound."""

import itertools
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import slicemarket
from slicemarket.market import CAPACITY, Allocation
from slicemarket.oracle import (
    _PROBE_NODES_PER_TENANT,
    OracleError,
    _branch_and_bound,
    _exhaustive,
    adjusted_profits,
    lp_relaxation,
    lp_upper_bound,
    offline_exact,
)
from slicemarket.workload import GenConfig, Instance, generate_instance

from conftest import manual_instance


def brute_force(instance):
    """Independent reference maximizer over all decision vectors."""
    n = instance.tenant_count
    best, best_x = 0.0, np.zeros(n, dtype=bool)
    profits = adjusted_profits(instance)
    for bits in itertools.product((0, 1), repeat=n):
        x = np.array(bits, dtype=bool)
        used = x.astype(float) @ instance.demands
        if (used > 1.0 + 1e-9).any():
            continue
        value = float(profits[x].sum()) if x.any() else 0.0
        if value > best:
            best, best_x = value, x
    return best, best_x


class TestOfflineExact:
    def test_two_tenant_example(self):
        inst = manual_instance([[0.6], [0.6]], [1.2, 1.5], [0.5])
        result = offline_exact(inst)
        assert result.exact
        assert result.welfare == pytest.approx(1.2)
        assert list(result.accepted) == [False, True]

    def test_nobody_profitable(self):
        inst = manual_instance([[0.5], [0.5]], [0.1, 0.2], [0.05])
        # push costs above the valuations so every adjusted profit is negative
        bad = Instance(
            inst.demands, inst.valuations, inst.price_floors * 10, inst.price_caps * 10,
            np.array([1.0]),
        )
        result = offline_exact(bad)
        assert result.welfare == 0.0
        assert not result.accepted.any()
        assert result.exact

    def test_oversized_demands_excluded(self):
        from slicemarket.workload import Instance

        inst = Instance([[1.5]], [5.0], [3.0], [4.0], [0.5])
        result = offline_exact(inst)
        assert result.welfare == 0.0
        assert not result.accepted.any()

    def test_methods_agree_with_brute_force(self, rng):
        for _ in range(25):
            cfg = GenConfig(
                tenant_count=int(rng.integers(2, 11)),
                resource_count=int(rng.integers(1, 4)),
                seed=int(rng.integers(0, 2**32)),
            )
            inst = generate_instance(cfg)
            expected, _ = brute_force(inst)
            ex = offline_exact(inst, method="exhaustive")
            bb = offline_exact(inst, method="branch-and-bound")
            assert ex.welfare == pytest.approx(expected, abs=1e-9)
            assert bb.welfare == pytest.approx(expected, abs=1e-9)
            assert ex.method == "exhaustive"
            assert bb.method == "branch-and-bound"

    def test_exhaustive_limit(self):
        inst = generate_instance(GenConfig(tenant_count=30, resource_count=1, seed=1))
        with pytest.raises(OracleError, match="exceed"):
            offline_exact(inst, method="exhaustive")

    def test_budget_exhaustion_downgrades(self):
        inst = generate_instance(GenConfig(tenant_count=40, resource_count=2, seed=2))
        result = offline_exact(inst, method="branch-and-bound", node_budget=10)
        assert not result.exact
        assert result.upper_bound is not None
        assert result.upper_bound >= result.welfare - 1e-9
        exact = offline_exact(inst, method="branch-and-bound")
        assert exact.exact
        assert result.welfare <= exact.welfare + 1e-9
        assert result.upper_bound >= exact.welfare - 1e-6

    @pytest.mark.parametrize("budget", [0, -5, 2.5, True, False, "10", None, float("inf")])
    @pytest.mark.parametrize("method", ["exhaustive", "branch-and-bound"])
    def test_bad_node_budget_rejected(self, method, budget):
        inst = generate_instance(GenConfig(tenant_count=40, resource_count=2, seed=2))
        with pytest.raises(OracleError, match="node_budget must be a positive integer"):
            offline_exact(inst, method=method, node_budget=budget)

    def test_node_budget_of_one(self):
        inst = generate_instance(GenConfig(tenant_count=40, resource_count=2, seed=2))
        result = offline_exact(inst, method="branch-and-bound", node_budget=np.int64(1))
        assert (result.nodes_explored, result.exact, result.welfare) == (1, False, 0.0)
        assert not result.accepted.any()

    def test_empty_instance(self):
        inst = Instance(np.zeros((0, 2)), np.zeros(0), [1.0, 1.0], [2.0, 2.0], [0.5, 0.5])
        result = offline_exact(inst)
        assert result.welfare == 0.0
        assert result.exact

    def test_unknown_method(self):
        inst = generate_instance(GenConfig(tenant_count=3, seed=0))
        with pytest.raises(OracleError):
            offline_exact(inst, method="simplex")
        # the exact oracle has two methods, branch-and-bound and exhaustive
        with pytest.raises(OracleError, match="unknown oracle method 'auto'"):
            offline_exact(inst, method="auto")


class TestLpUpperBound:
    def test_tight_when_everything_fits(self):
        inst = manual_instance([[0.3], [0.4]], [1.0, 1.2], [0.5])
        exact = offline_exact(inst)
        assert lp_upper_bound(inst) == pytest.approx(exact.welfare, abs=1e-7)

    def test_fractional_remainder(self):
        inst = manual_instance([[0.6], [0.6]], [1.2, 1.5], [0.5])
        # density ordering: take tenant 1 whole, then 2/3 of tenant 0
        expected = 1.2 + (2.0 / 3.0) * 0.9
        assert lp_upper_bound(inst) == pytest.approx(expected, abs=1e-6)

    def test_empty_instance(self):
        inst = Instance(np.zeros((0, 1)), np.zeros(0), [1.0], [2.0], [0.5])
        assert lp_upper_bound(inst) == 0.0

    def test_dominates_exact(self, rng):
        for _ in range(30):
            cfg = GenConfig(
                tenant_count=int(rng.integers(2, 14)),
                resource_count=int(rng.integers(1, 4)),
                seed=int(rng.integers(0, 2**32)),
            )
            inst = generate_instance(cfg)
            assert lp_upper_bound(inst) >= offline_exact(inst).welfare - 1e-6

    @pytest.mark.parametrize("participation", [None, 0.5], ids=["dense", "half participation"])
    @pytest.mark.parametrize("coarse", [False, True], ids=["default demands", "coarse demands"])
    def test_exact_within_highs_feasibility_tolerance(self, coarse, participation):
        """The search and the LP share one capacity, so the exact optimum never
        exceeds the LP bound by more than HiGHS's own primal feasibility
        tolerance, read from its options."""
        from slicemarket.oracle import _highs_binding

        tolerance = _highs_binding().HighsOptions().primal_feasibility_tolerance
        assert 0 < tolerance < 1e-5
        rng = np.random.default_rng(21 + 2 * coarse + (participation is not None))
        for _ in range(40):
            cfg = GenConfig(
                tenant_count=int(rng.integers(2, 31)),
                resource_count=int(rng.integers(1, 6)),
                demand_mean=0.3 if coarse else None,
                demand_std=0.2 if coarse else None,
                participation=participation,
                seed=int(rng.integers(0, 2**32)),
            )
            inst = generate_instance(cfg)
            exact = offline_exact(inst)
            assert exact.exact
            assert exact.welfare <= lp_upper_bound(inst) + tolerance


def _linprog_bound(instance) -> float:
    """The bound as ``scipy.optimize.linprog`` solves it, with ``bounds=(0, 1)``
    for every variable given as the list of N pairs."""
    from scipy.optimize import linprog

    reference = linprog(
        c=-adjusted_profits(instance),
        A_ub=instance.demands.T,
        b_ub=np.full(instance.resource_count, 1.0),
        bounds=[(0.0, 1.0)] * instance.tenant_count,
        method="highs",
        options={"presolve": False},
    )
    assert reference.success
    return float(-reference.fun)


def _hand_built(rng, tenants: int, resources: int, profitable: bool) -> Instance:
    """Half the demands exactly zero, one resource nobody demands and one
    tenant with an all-zero row; the profits are mixed or all at most 0."""
    demands = rng.uniform(0.0, 2.0 / tenants, (tenants, resources))
    demands[rng.random((tenants, resources)) < 0.5] = 0.0
    demands[:, rng.integers(resources)] = 0.0
    demands[rng.integers(tenants)] = 0.0
    unit_costs = rng.uniform(0.0, 1.0, resources)
    valuations = demands @ unit_costs
    if profitable:
        valuations += rng.uniform(-0.5, 0.5, tenants) * valuations.mean()
        valuations = np.maximum(valuations, 0.0)
        valuations[0] = demands[0] @ unit_costs + 1.0  # at least one tenant is worth a solve
    ones = np.ones(resources)
    return Instance(demands, valuations, ones, 2 * ones, unit_costs)


@pytest.mark.parametrize("tenants", [1, 30, 100, 2000, 20000])
def test_lp_bounds_as_one_pair_solve_the_same_model(tenants, monkeypatch):
    """The bound equals linprog's on generated and hand-built markets, bit for bit.

    Generated: the default market (C = 3) and overfull markets with demand
    mean = std = 4/N and participation 0.3 at C = 1, 3 and 9.  Hand-built:
    exact zeros, a resource nobody demands, a tenant with an all-zero row;
    with no positive profit, or no tenant, the bound is 0.0 without a solve.
    """
    from scipy.optimize._highspy import _core as highs

    markets = [generate_instance(GenConfig(tenant_count=tenants, seed=seed)) for seed in range(3)]
    rng = np.random.default_rng(tenants)
    for resources in (1, 3, 9):
        overfull = GenConfig(
            tenant_count=tenants,
            resource_count=resources,
            demand_mean=4 / tenants,
            demand_std=4 / tenants,
            participation=0.3,
            seed=resources,
        )
        markets.append(generate_instance(overfull))
        markets += [_hand_built(rng, tenants, resources, profitable=True) for _ in range(4)]
    for inst in markets:
        assert lp_upper_bound(inst) == _linprog_bound(inst)

    unprofitable = [_hand_built(rng, tenants, resources, profitable=False) for resources in (1, 3, 9)]
    unprofitable.append(Instance(np.zeros((0, 3)), np.zeros(0), np.ones(3), np.ones(3), np.ones(3)))
    references = [_linprog_bound(inst) if inst.tenant_count else 0.0 for inst in unprofitable]
    monkeypatch.setattr(highs, "_Highs", None)
    for inst, reference in zip(unprofitable, references):
        assert not (adjusted_profits(inst) > 0).any()
        assert lp_upper_bound(inst) == reference == 0.0


def test_lp_bound_does_not_go_through_linprog(monkeypatch):
    """The bound and the budget-exhausted oracle solve the LP without linprog."""
    import scipy.optimize

    inst = generate_instance(GenConfig(tenant_count=40, resource_count=2, seed=2))
    reference = _linprog_bound(inst)

    def refuse(*args, **kwargs):
        raise AssertionError("linprog was called")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    assert lp_upper_bound(inst) == reference
    result = offline_exact(inst, method="branch-and-bound", node_budget=1)
    assert not result.exact
    assert result.upper_bound == reference


@pytest.mark.parametrize("resources", [1, 3, 9])
@pytest.mark.parametrize("tenants", [5, 40, 200])
def test_lp_duals_close_the_duality_gap(tenants, resources):
    """The duals λ are nonnegative capacity prices: the dual objective
    ``Σ_c λ_c + Σ_n (π_n - d_n·λ)^+`` equals the LP value (strong duality),
    and λ is linprog's ``-ineqlin.marginals`` bit for bit."""
    from scipy.optimize import linprog

    for share in (None, 1.0, 4.0):
        for seed in range(3):
            spread = {} if share is None else {"demand_mean": share / tenants, "demand_std": share / tenants}
            inst = generate_instance(GenConfig(tenant_count=tenants, resource_count=resources, seed=seed, **spread))
            value, duals = lp_relaxation(inst)
            assert value == lp_upper_bound(inst)
            assert duals.shape == (resources,) and (duals >= 0).all()
            profits = adjusted_profits(inst)
            dual_objective = duals.sum() + np.maximum(profits - inst.demands @ duals, 0.0).sum()
            assert dual_objective == pytest.approx(value, rel=1e-12)
            reference = linprog(
                c=-profits,
                A_ub=inst.demands.T,
                b_ub=np.ones(resources),
                bounds=(0.0, 1.0),
                method="highs",
                options={"presolve": False},
            )
            assert duals.tobytes() == np.maximum(-reference.ineqlin.marginals, 0.0).tobytes()


def test_lp_relaxation_without_profit():
    inst = manual_instance([[0.5, 0.1], [0.5, 0.2]], [0.1, 0.2], [0.5, 0.5])
    value, duals = lp_relaxation(inst)
    assert value == 0.0 and duals.tolist() == [0.0, 0.0]


def _reference_lp_relaxation(instance):
    """``lp_relaxation`` as it built the model before it passed numpy arrays:
    every array set on a ``HighsLp`` through the binding's attribute setters,
    as lists.  Returns the value, the duals and the solver (``None`` when no
    tenant has positive profit)."""
    from slicemarket.oracle import _highs_binding

    profits = adjusted_profits(instance)
    if not (profits > 0).any():
        return 0.0, np.zeros(instance.resource_count), None
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
    assert solver.getModelStatus() == highs.HighsModelStatus.kOptimal
    duals = np.maximum(-np.asarray(solver.getSolution().row_dual), 0.0)
    return -solver.getInfo().objective_function_value, duals, solver


def _model_fields(solver) -> dict:
    lp = solver.getLp()
    matrix = lp.a_matrix_
    return {
        "shape": (lp.num_col_, lp.num_row_, matrix.num_col_, matrix.num_row_),
        "format": matrix.format_,
        "sense": (lp.sense_, lp.offset_),
        "matrix": (list(matrix.start_), list(matrix.index_), np.asarray(matrix.value_).tobytes()),
        "costs": np.asarray(lp.col_cost_).tobytes(),
        "bounds": [np.asarray(bound).tobytes() for bound in (lp.col_lower_, lp.col_upper_, lp.row_lower_, lp.row_upper_)],
    }


def _lp_differential_markets():
    rng = np.random.default_rng(320)
    for tenants in (1, 30, 2000, 20000):
        for resources in (1, 3):
            for participation in (None, 0.5):
                config = GenConfig(
                    tenant_count=tenants, resource_count=resources, participation=participation, seed=tenants + resources
                )
                yield generate_instance(config)
        yield _hand_built(rng, tenants, 3, profitable=True)
        yield _hand_built(rng, tenants, 1, profitable=False)
    # a generated market with every profit exactly zero: no solve on either side
    generated = generate_instance(GenConfig(tenant_count=200, seed=5))
    cost = generated.demands @ generated.unit_costs
    yield Instance(generated.demands, cost, generated.price_floors, generated.price_caps, generated.unit_costs)


def test_lp_relaxation_matches_the_attribute_built_model(monkeypatch):
    """The model passed as numpy arrays solves to the attribute-built one's
    value and duals, bit for bit, and HiGHS holds the same matrix, costs and
    bounds.  Markets: generated at N = 1 to 20 000 and C = 1 and 3, dense and
    at participation 0.5; hand-built with exact zeros, an all-zero demand row
    and a resource nobody demands; and two with no positive profit.

    The binding refuses an empty integrality vector, so the model carries N
    ``kContinuous`` entries where the attribute-built one carries none.  With
    no integer column HiGHS does not treat the model as a MIP: ``run`` goes
    to the simplex solver and no branch-and-bound node is counted on either
    side (``mip_node_count`` stays -1).
    """
    from scipy.optimize._highspy import _core as highs

    solvers = []  # every solver built, the reference's included
    make_solver = highs._Highs
    monkeypatch.setattr(highs, "_Highs", lambda: solvers.append(make_solver()) or solvers[-1])
    solved = 0
    for inst in _lp_differential_markets():
        want_value, want_duals, reference = _reference_lp_relaxation(inst)
        solvers.clear()
        value, duals = lp_relaxation(inst)
        assert type(value) is float and value.hex() == want_value.hex()
        assert duals.dtype == want_duals.dtype and duals.tobytes() == want_duals.tobytes()
        if reference is None:
            assert solvers == []
            continue
        (solver,) = solvers
        assert _model_fields(solver) == _model_fields(reference)
        assert list(solver.getLp().integrality_) == [highs.HighsVarType.kContinuous] * inst.tenant_count
        assert list(reference.getLp().integrality_) == []
        assert solver.getInfo().mip_node_count == reference.getInfo().mip_node_count == -1
        solved += 1
    assert solved == 4 * (4 + 1)  # per size: four generated markets and one hand-built


def test_a_refused_model_is_named_when_it_is_passed():
    """A demand past HiGHS's largest matrix value (1e15) makes ``passModel``
    return ``kError``.  Unchecked, that surfaced only after ``run`` as the
    model status "Not Set"."""
    inst = Instance(np.array([[0.5], [1e16]]), np.array([1.0, 1e17]), np.ones(1), np.full(1, 2.0), np.array([0.1]))
    with pytest.raises(OracleError, match="passModel returned kError"):
        lp_relaxation(inst)


def test_a_matrix_past_int32_indices_is_refused(monkeypatch):
    """HiGHS indexes the matrix with int32, so a nonzero count past the
    largest int32 is refused before any array reaches the binding; the limit
    is lowered here to the size of a small market."""
    from scipy.optimize._highspy import _core as highs

    from slicemarket import oracle

    inst = generate_instance(GenConfig(tenant_count=4, resource_count=2, seed=1))
    assert np.count_nonzero(inst.demands) == 8
    assert oracle._HIGHS_INDEX_MAX == 2**31 - 1
    monkeypatch.setattr(oracle, "_HIGHS_INDEX_MAX", 8)
    assert lp_relaxation(inst)[0] == _linprog_bound(inst)
    monkeypatch.setattr(oracle, "_HIGHS_INDEX_MAX", 7)
    monkeypatch.setattr(highs, "_Highs", None)
    with pytest.raises(OracleError, match="8 nonzeros"):
        lp_relaxation(inst)


def test_probe_and_restart_share_the_node_budget():
    """The summed-bound probe runs out on this market and the search restarts
    on the LP duals; the two passes together visit at most ``node_budget``
    nodes, and the LP solved for the restart is the exhaustion bound."""
    inst = generate_instance(
        GenConfig(tenant_count=100, resource_count=9, demand_mean=0.01, demand_std=0.01, seed=1)
    )
    profits = adjusted_profits(inst)
    viable = (profits > 0) & (inst.demands <= CAPACITY).all(axis=1)
    probe = _PROBE_NODES_PER_TENANT * int(viable.sum())
    full = offline_exact(inst)
    assert full.exact and full.nodes_explored > probe + 1
    bound = lp_upper_bound(inst)
    welfare = 0.0
    for budget in (1, probe - 1, probe, probe + 1, full.nodes_explored - 1, full.nodes_explored, 10**9):
        result = offline_exact(inst, method="branch-and-bound", node_budget=budget)
        assert result.nodes_explored == min(budget, full.nodes_explored)
        assert result.exact is (budget >= full.nodes_explored)
        if result.exact:
            assert result.accepted.tobytes() == full.accepted.tobytes() and result.welfare == full.welfare
        else:
            assert result.upper_bound == bound
        # a restart that finds nothing better keeps the probe's allocation
        assert welfare <= result.welfare <= full.welfare
        welfare = result.welfare


def test_adjusted_profits_formula():
    inst = manual_instance([[0.5, 0.2]], [2.0], [0.4, 1.0])
    assert adjusted_profits(inst)[0] == pytest.approx(2.0 - (0.5 * 0.4 + 0.2 * 1.0))


def _run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter with the package and these tests on the path."""
    paths = [Path(slicemarket.__file__).resolve().parents[1], Path(__file__).resolve().parent]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_package_imports_without_scipy():
    """No scipy module loads with the package, nor with the exact oracle on
    default markets, whose summed-bound probe always finishes, nor with an
    ``"auto"`` trial batch on them; an LP solve loads the HiGHS binding and
    its pybind submodules, and nothing else of scipy."""
    _run_fresh(
        "import sys\n"
        "import slicemarket, slicemarket.cli\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
        "from slicemarket.workload import GenConfig, generate_instance\n"
        "for n in (20, 40, 100, 2000):\n"
        "    for seed in range(5):\n"
        "        market = generate_instance(GenConfig(tenant_count=n, seed=seed))\n"
        "        assert slicemarket.offline_exact(market).exact\n"
        "from slicemarket.harness import ExperimentSpec, run_trials\n"
        "for n in (100, 2000):\n"
        "    spec = ExperimentSpec(base_config=GenConfig(tenant_count=n), trials=2, oracle='auto')\n"
        "    assert {m.algo for m in run_trials(spec)} == {'exact', 'posted_price'}\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
        "assert slicemarket.lp_upper_bound(generate_instance(GenConfig(tenant_count=5))) > 0\n"
        "assert not {'scipy.optimize', 'scipy.linalg', 'scipy.sparse'} & sys.modules.keys()\n"
        "core = 'scipy.optimize._highspy._core'\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert core in loaded, loaded\n"
        "assert all(m == core or m.startswith(core + '.') for m in loaded), loaded\n"
    )


@pytest.mark.parametrize(
    "steps",
    [
        "bounds = [lp_upper_bound(m) for m in markets]\nbinding = _highs_binding()\nimport scipy.optimize\n",
        "import scipy.optimize\nbinding = _highs_binding()\nbounds = [lp_upper_bound(m) for m in markets]\n",
    ],
    ids=["binding-first", "scipy-optimize-first"],
)
def test_one_binding_in_either_load_order(steps):
    """Whichever loads first, the binding and ``scipy.optimize`` share one
    module object, and the bound stays linprog's bit for bit."""
    _run_fresh(
        "import sys\n"
        "from slicemarket.oracle import _highs_binding, lp_upper_bound\n"
        "from slicemarket.workload import GenConfig, generate_instance\n"
        "markets = [generate_instance(GenConfig(tenant_count=n, seed=n)) for n in (30, 2000)]\n"
        + steps
        + "from scipy.optimize._highspy import _core\n"
        "assert binding is _core is sys.modules['scipy.optimize._highspy._core']\n"
        "assert _highs_binding() is binding\n"
        "from test_oracle import _linprog_bound\n"
        "assert bounds == [_linprog_bound(m) for m in markets], bounds\n"
    )


@pytest.mark.parametrize("scipy_found", [True, False], ids=["no-binding-file", "no-scipy"])
def test_missing_binding_is_an_oracle_error(scipy_found, tmp_path, monkeypatch):
    from slicemarket import oracle

    package = SimpleNamespace(submodule_search_locations=[str(tmp_path)]) if scipy_found else None
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core", raising=False)
    monkeypatch.setattr(oracle, "find_spec", lambda name: package)
    inst = generate_instance(GenConfig(tenant_count=5))
    with pytest.raises(OracleError, match="needs scipy 1.15 or later") as error:
        lp_upper_bound(inst)
    if scipy_found:
        assert str(tmp_path / "optimize" / "_highspy") in str(error.value)
    assert "scipy.optimize._highspy._core" not in sys.modules


def test_enumeration_and_search_agree_within_ulps_of_capacity():
    """Both exact methods book by the search's rule, so they agree on a set
    whose exact sum lies ulps above ``CAPACITY``: 1/2 + 1/4 + (1/4 + one ulp)
    leaves a room below the last demand in the summed order, and both refuse
    it.  (A product ``bits @ demands`` rounds that sum down to 1.0 and keeps
    the set.)  ``from_decisions`` books the answer."""
    d2 = float(np.nextafter(0.25, 1.0))
    demands = np.array([[0.5], [0.25], [d2], [0.25]])
    profits = np.array([2.0, 1.0, 2.1 * d2, 0.5])
    enumerated, enumerated_mask = _exhaustive(profits, demands)
    searched, searched_mask, _, exhausted = _branch_and_bound(profits, demands, 1000)
    assert (enumerated, enumerated_mask.tolist()) == (3.5, [True, True, False, True])
    assert (searched, searched_mask.tolist(), exhausted) == (3.5, [True, True, False, True], False)
    instance = Instance(demands, profits, [1.0], [10.0], [0.5])
    assert Allocation.from_decisions(instance, searched_mask).utilization.tolist() == [1.0]
    for method in ("exhaustive", "branch-and-bound"):
        result = offline_exact(Instance(demands, profits, [1.0], [10.0], [0.0]), method=method)
        assert (result.welfare, result.accepted.tolist()) == (3.5, [True, True, False, True])
