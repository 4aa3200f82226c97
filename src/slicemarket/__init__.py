"""Posted-price market simulator for multi-resource network slicing.

An operator rents capacity-normalized resources to tenants that arrive one by
one.  Prices follow a per-resource threshold schedule: flat at the floor
price while utilization is low, then exponentially increasing so the terminal
price covers the worst case the market admits.  Tenants accept or walk away
against the posted prices alone, revealing nothing about their subscriber
base, and the achieved welfare is guaranteed to stay within a closed-form
factor of the offline optimum when resource costs are linear.
"""

from .baselines import (
    AuctionResult,
    GaParams,
    MyopicPricing,
    ga_heuristic,
    myopic_slicing,
    random_slicing,
    utility_bid_auction,
)
from .harness import ExperimentSpec, SummaryRow, TrialMetrics, aggregate, emit, run_trials
from .market import (
    CAPACITY,
    FEASIBILITY_EPS,
    Allocation,
    InfeasibleAllocationError,
    MarketError,
    MarketSetup,
    PaymentError,
    SetupError,
    conjugate,
    social_welfare,
    utilities,
)
from .oracle import OracleError, OracleResult, adjusted_profits, lp_upper_bound, offline_exact
from .pricing import PricingSchedule, build_schedule
from .protocol import (
    FAIL,
    SKIP,
    SUCC,
    ProtocolError,
    SessionLedger,
    SessionResult,
    Transcript,
    TranscriptEntry,
    TranscriptSchemaError,
    parse_transcript_jsonl,
    run_posted_price,
    run_session,
    transcript_to_jsonl,
    validate_transcript_record,
)
from .workload import (
    GenConfig,
    Instance,
    Violation,
    WorkloadError,
    bundle_floor,
    generate_instance,
    validate_instance,
)

__version__ = "0.1.0"
