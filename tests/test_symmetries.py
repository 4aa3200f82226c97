"""The market's symmetries as bit-exact relations for the posted session, the
utility-bid auction and the genetic heuristic.

Every relation runs on the same 300 seeded generated markets of 2 to 59
tenants and 1 to 4 resources, with default, coarse or sparse demands, each
with an arrival order.  ``tests/test_enumeration.py`` holds the same
relations for the two exact oracle methods.

- Scaling every amount of money (valuations, floors, caps and unit costs) by
  a power of two scales every product, sum and exponential term exactly, so
  every decision stays and every payment, charge, quote and revenue scales
  exactly.  The LP bound scales within 1e-9 relative, not exactly
  (``test_scaling_money_scales_the_lp_bound``).
- Relabelling the tenants, with the arrival order mapped to match, hands the
  session the same arrivals, so it keeps its decisions and its revenue bits.
- A tenant of zero valuation arriving last cannot buy, and its adjusted profit
  is not positive, so no offline search takes it as an item: no other
  decision or payment moves.
- Permuting the resources reorders the session's charge sum.  The
  floor-setting tenant's utility at the floors is zero up to rounding, so
  its decision can flip with the order (ROADMAP item 25).
"""

from dataclasses import replace

import numpy as np
import pytest

from slicemarket.baselines import GaParams, ga_heuristic, utility_bid_auction
from slicemarket.oracle import lp_upper_bound, offline_exact
from slicemarket.protocol import run_posted_price
from slicemarket.workload import GenConfig, Instance, generate_instance

#: Small, so 600 runs stay cheap; the relations hold for any parameters.
GA = GaParams(population=6, generations=8)
#: Branch-and-bound's node budget: 44 of the 300 searches run out of it and
#: restart with LP weights, so the relation covers both search paths.
NODES = 2000


def market(seed: int, resources: tuple[int, int] = (1, 5)):
    """A generated market of 2 to 59 tenants and ``range(*resources)``
    resources, with default, coarse or sparse demands by ``seed % 3``; an
    arrival order; and the generator that drew them, for further draws."""
    rng = np.random.default_rng(seed)
    n, c = int(rng.integers(2, 60)), int(rng.integers(*resources))
    knobs = [{}, {"demand_mean": 2.5 / n, "demand_std": 2.5 / n}, {"demand_mean": 2.5 / n, "participation": 0.5}]
    instance = generate_instance(GenConfig(tenant_count=n, resource_count=c, seed=seed, **knobs[seed % 3]))
    return instance, rng.permutation(n), rng


#: Each test draws its own markets, so its further draws do not depend on
#: which tests ran before it.
MARKETS = range(300)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def scaled(instance: Instance, scale: float) -> Instance:
    """The same market with every amount of money multiplied by ``scale``."""
    money = ("valuations", "price_floors", "price_caps", "unit_costs")
    return replace(instance, **{name: getattr(instance, name) * scale for name in money})


def test_scaling_money_scales_the_session_exactly():
    for instance, order, rng in map(market, MARKETS):
        scale = 2.0 ** int(rng.choice([-3, 5]))
        want, got = run_posted_price(instance, order), run_posted_price(scaled(instance, scale), order)
        assert got.ledger.transcript.outcomes == want.ledger.transcript.outcomes
        assert bits(got.allocation.accepted) == bits(want.allocation.accepted)
        assert bits(got.ledger.transcript.quotes) == bits(np.array(want.ledger.transcript.quotes) * scale)
        assert bits(got.ledger.transcript.charges) == bits(np.array(want.ledger.transcript.charges) * scale)
        assert bits(got.payments) == bits(want.payments * scale)
        assert got.ledger.revenue.hex() == (want.ledger.revenue * scale).hex()


def test_scaling_money_keeps_the_auction_and_ga_sets():
    for instance, _, rng in map(market, MARKETS):
        scale = 2.0 ** int(rng.choice([-3, 5]))
        money = scaled(instance, scale)
        want, got = utility_bid_auction(instance), utility_bid_auction(money)
        assert bits(got.accepted) == bits(want.accepted)
        assert bits(got.payments) == bits(want.payments * scale)
        assert got.welfare.hex() == (want.welfare * scale).hex()
        (welfare, accepted), (rescaled, kept) = ga_heuristic(instance, GA), ga_heuristic(money, GA)
        assert bits(kept) == bits(accepted)
        assert rescaled.hex() == (welfare * scale).hex()


def test_scaling_money_scales_the_lp_bound():
    """``lp_upper_bound`` of the scaled market is the bound times 2^k within
    1e-9 relative.  On these 300 draws 7 differ from the exact product, each
    by one ulp (at most 2.2e-16 relative).  HiGHS's absolute tolerances do
    not explain it: solving the scaled market with its dual feasibility and
    optimality tolerances (1e-7) scaled by the same 2^k leaves all 7
    differing.  Each pair ends at the same optimal basis, 6 of the 7 after
    different iteration counts (6 and 10 on one), and both are exact images
    once HiGHS's own model scaling is off (``simplex_scale_strategy = 0``)
    or the 2^k is handed to it as ``user_objective_scale``.  So the solve
    depends on the costs' magnitude other than through those tolerances,
    and the last bit follows it."""
    for instance, _, rng in map(market, MARKETS):
        scale = 2.0 ** int(rng.choice([-3, 5]))
        assert lp_upper_bound(scaled(instance, scale)) == pytest.approx(lp_upper_bound(instance) * scale, rel=1e-9)


def test_relabelling_tenants_keeps_the_session_bits():
    for instance, order, rng in map(market, MARKETS):
        labels = rng.permutation(instance.tenant_count)  # new tenant j is old tenant labels[j]
        relabelled = replace(instance, demands=instance.demands[labels], valuations=instance.valuations[labels])
        want, got = run_posted_price(instance, order), run_posted_price(relabelled, np.argsort(labels)[order])
        assert got.ledger.transcript.outcomes == want.ledger.transcript.outcomes
        assert bits(got.ledger.transcript.charges) == bits(want.ledger.transcript.charges)
        assert bits(got.allocation.accepted) == bits(want.allocation.accepted[labels])
        assert bits(got.payments) == bits(want.payments[labels])
        assert got.ledger.revenue.hex() == want.ledger.revenue.hex()


def test_a_zero_valuation_tenant_arriving_last_moves_nothing():
    for instance, order, rng in map(market, MARKETS):
        n = instance.tenant_count
        row = instance.demands[rng.integers(n)]  # a demand some tenant has
        extended = replace(
            instance, demands=np.vstack([instance.demands, row]), valuations=np.append(instance.valuations, 0.0)
        )
        want, got = run_posted_price(instance, order), run_posted_price(extended, np.append(order, n))
        assert got.ledger.transcript.outcomes[-1] == "SKIP"
        assert bits(got.allocation.accepted[:n]) == bits(want.allocation.accepted)
        assert bits(got.payments[:n]) == bits(want.payments)
        exact, searched = offline_exact(instance, node_budget=NODES), offline_exact(extended, node_budget=NODES)
        assert bits(searched.accepted[:n]) == bits(exact.accepted) and not searched.accepted[n]
        assert searched.welfare.hex() == exact.welfare.hex()
        auction, bid = utility_bid_auction(instance), utility_bid_auction(extended)
        assert bits(bid.accepted[:n]) == bits(auction.accepted) and not bid.accepted[n]
        assert bits(bid.payments[:n]) == bits(auction.payments)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 25: the floor-setting tenant's decision is settled by the rounding of its charge sum",
)
@pytest.mark.parametrize("seed", [79, 203])
def test_permuting_resources_keeps_the_session_set(seed):
    """Two of 600 markets of 2 to 5 resources in random arrival order where
    permuting the resources (demand columns, floors, caps and costs
    together) changes the posted session's set."""
    instance, order, rng = market(seed, resources=(2, 6))
    columns = rng.permutation(instance.resource_count)
    band = ("price_floors", "price_caps", "unit_costs")
    permuted = replace(
        instance, demands=instance.demands[:, columns], **{name: getattr(instance, name)[columns] for name in band}
    )
    want, got = run_posted_price(instance, order), run_posted_price(permuted, order)
    assert bits(got.allocation.accepted) == bits(want.allocation.accepted)
