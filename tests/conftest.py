import numpy as np
import pytest

from slicemarket.market import MarketSetup
from slicemarket.workload import GenConfig, Instance, WorkloadError, _sample_demands, _sample_tenants


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
