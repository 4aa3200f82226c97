import numpy as np
import pytest

from slicemarket.market import MarketSetup
from slicemarket.workload import GenConfig, Instance, WorkloadError, _sample_demands, _sample_tenants, generate_instance


def random_setup(rng: np.random.Generator, resources: int | None = None) -> MarketSetup:
    c = resources if resources is not None else int(rng.integers(1, 10))
    floors = rng.uniform(0.5, 5.0, size=c)
    caps = floors * rng.uniform(1.0, 10.0, size=c)
    costs = floors * rng.uniform(0.05, 0.95, size=c)
    return MarketSetup(costs, floors, caps)


def derive_bounds(densities, margin: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Per-resource density bounds from observed densities (NaN = no demand).

    A 1-D input is one resource.  Each resource's floor is ``(1 - margin)``
    times its lowest density and its cap ``(1 + margin)`` times its highest; a
    resource nobody demands gets the global range, and an input without any
    density raises ``WorkloadError``.  The generator's caps follow the same
    rule; its floors are the bundle floor instead.
    """
    densities = np.asarray(densities, dtype=float)
    if densities.ndim == 1:
        densities = densities[:, None]
    valid = ~np.isnan(densities)
    if not valid.any():
        raise WorkloadError("cannot derive bounds: no positive density anywhere")
    global_min = float(np.nanmin(densities))
    global_max = float(np.nanmax(densities))
    floors = np.empty(densities.shape[1])
    caps = np.empty(densities.shape[1])
    for c in range(densities.shape[1]):
        col = densities[valid[:, c], c]
        if col.size:
            floors[c] = (1.0 - margin) * float(col.min())
            caps[c] = (1.0 + margin) * float(col.max())
        else:
            floors[c] = (1.0 - margin) * global_min
            caps[c] = (1.0 + margin) * global_max
    return floors, caps


def private_arrays(config: GenConfig) -> tuple[np.ndarray, ...]:
    """The private tenant arrays behind ``generate_instance(config)``:
    subscribers, free counts, tier counts, pay levels and raw valuations,
    replayed from the generator's own RNG stream."""
    rng = np.random.default_rng(config.seed)
    _sample_demands(config, rng)
    return _sample_tenants(config, rng)


def manual_instance(demands, valuations, unit_costs, margin: float = 0.0) -> Instance:
    """Instance with bounds derived from the given demands/valuations."""
    demands = np.asarray(demands, dtype=float)
    valuations = np.asarray(valuations, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        densities = np.where(demands > 0, valuations[:, None] / demands, np.nan)
    floors, caps = derive_bounds(densities, margin)
    return Instance(demands, valuations, floors, caps, np.asarray(unit_costs, dtype=float))


#: Every form an arrival order may take, built from a permutation; ``range``
#: is instance order spelled out.  ``np.asarray`` of an empty list or range is
#: float64, which an empty market must still accept.
ORDER_FORMS = {
    "none": lambda permutation: None,
    "range": lambda permutation: range(len(permutation)),
    "list": lambda permutation: permutation.tolist(),
    "int32": lambda permutation: permutation.astype(np.int32),
    "int64": lambda permutation: permutation.astype(np.int64),
    "uint64": lambda permutation: permutation.astype(np.uint64),
}


def order_test_markets(rng: np.random.Generator, count: int = 30) -> list[Instance]:
    """An empty market and ``count`` generated ones of up to 120 tenants,
    from just-fitting to 5x overfull, for the order-form differentials."""
    markets = [Instance(np.zeros((0, 3)), np.zeros(0), [1.0] * 3, [2.0] * 3, [0.5] * 3)]
    for _ in range(count):
        n = int(rng.integers(1, 120))
        config = GenConfig(
            tenant_count=n,
            resource_count=int(rng.integers(1, 5)),
            demand_mean=float(rng.uniform(0.5, 5.0)) / n,
            seed=int(rng.integers(0, 2**32)),
        )
        markets.append(generate_instance(config))
    return markets


_COARSE = dict(tenant_count=7, demand_mean=0.3, demand_std=0.2)

#: Three coarse 7-tenant markets that ``validate_instance`` accepts and whose
#: worst arrival order beats the schedule's ratio: ``(config, worst order,
#: OPT / (ratio * online welfare) in that order)``.  The first one's worst
#: order has five FAILs.
WORST_ORDER_MARKETS = [
    (GenConfig(**_COARSE, resource_count=1, participation=0.5, seed=3564989151), (5, 2, 3, 4, 6, 0, 1), 1.459),
    (GenConfig(**_COARSE, resource_count=1, seed=695335614), (0, 4, 5, 1, 2, 3, 6), 1.198),
    (GenConfig(**_COARSE, resource_count=3, seed=373015955), (3, 4, 0, 1, 2, 5, 6), 1.100),
]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
