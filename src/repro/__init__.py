"""repro — Quality-driven disorder handling for m-way sliding window stream joins.

A from-scratch reproduction of Ji et al., "Quality-Driven Disorder
Handling for M-way Sliding Window Stream Joins" (ICDE 2016): an m-way
sliding-window join framework that minimizes the input-buffering latency
of disorder handling while honoring a user-specified recall requirement.

Quickstart::

    from repro import (
        PipelineConfig, QualityDrivenPipeline, JoinCondition, EquiPredicate,
        seconds,
    )

    condition = JoinCondition([EquiPredicate(0, "a1", 1, "a1")])
    pipeline = QualityDrivenPipeline(PipelineConfig(
        window_sizes_ms=[seconds(5), seconds(5)],
        condition=condition,
        gamma=0.95,          # recall requirement Γ
        period_ms=seconds(60),
    ))
    for t in arrival_ordered_tuples:   # StreamTuple instances
        results = pipeline.process(t)
    pipeline.flush()

See docs/ARCHITECTURE.md for the system inventory and docs/BENCHMARKS.md
for the paper reproductions.
"""

from .core.adaptation import (
    AdaptationContext,
    BufferSizePolicy,
    FixedKPolicy,
    MaxKSlackPolicy,
    ModelBasedPolicy,
    NoKSlackPolicy,
)
from .core.blocks import (
    MISSING,
    BlockDecoder,
    BlockEncoder,
    ResultBlock,
    StateBlock,
    TupleBlock,
)
from .core.kslack import KSlackBuffer
from .core.model import CumulativePdf, RecallModel, StreamModelInput
from .core.pipeline import (
    PipelineConfig,
    PipelineMetrics,
    QualityDrivenPipeline,
    replay,
)
from .core.profiler import ProfileSnapshot, TupleProductivityProfiler
from .core.result_monitor import ResultSizeMonitor
from .core.result_sorter import ResultSorter
from .core.selectivity import EqSel, NonEqSel, SelectivityStrategy
from .core.statistics import StatisticsManager, StreamStatistics, coarse_delay
from .core.synchronizer import Synchronizer
from .core.tuples import JoinResult, StreamTuple, ms, seconds, to_seconds
from .faults import FaultPlan, FaultSpec, chaos_plan
from .join.conditions import (
    BandPredicate,
    EquiPredicate,
    JoinCondition,
    Predicate,
    ThetaPredicate,
    equi_join_chain,
    star_equi_join,
)
from .join.mswj import MSWJOperator
from .join.ordering import IndexAwareOrder, ProbeOrderPolicy, SmallestWindowFirst
from .join.store import (
    InMemoryStore,
    StoreMetrics,
    TieredStore,
    TieredStoreConfig,
    WindowStore,
    make_store,
)
from .join.window import SlidingWindow
from .parallel import (
    TRANSPORT_BLOCKS,
    TRANSPORT_SHM,
    KeyRouter,
    MigrationSpec,
    PartitionedPipeline,
    PipelinedIngest,
    ProcessExecutor,
    Rebalancer,
    SerialExecutor,
    ShardExecutor,
    ShardFailure,
    ShardOutcome,
    ShmRing,
    SupervisionConfig,
    load_imbalance,
    run_partitioned,
)
from .quality.recall import RecallMeasurement, RecallMeter
from .quality.truth import TruthIndex, compute_truth
from .streams.disorder import (
    BurstyDelayModel,
    ConstantDelayModel,
    DelayModel,
    NoDelayModel,
    PhasedDelayModel,
    ZipfDelayModel,
)
from .streams.generators import make_d3_syn, make_d4_syn
from .streams.nexmark import (
    NexmarkConfig,
    PhaseSpec,
    auction_bid_query,
    default_phases,
    make_auction_bids,
    make_person_auction_bid,
    person_auction_bid_query,
)
from .streams.soccer import SoccerConfig, make_soccer_dataset, player_distance
from .streams.source import Dataset, from_tuple_specs
from .streams.zipf import BoundedZipf, ZipfValueSampler
from .workloads import (
    Workload,
    WorkloadCaps,
    auction_bids_workload,
    person_auction_bid_workload,
)
from .workloads.soak import SoakConfig, SoakHarness, SoakReport, run_soak

__version__ = "1.1.0"

__all__ = [
    # time & tuples
    "StreamTuple", "JoinResult", "seconds", "ms", "to_seconds",
    # disorder handling core
    "KSlackBuffer", "Synchronizer", "QualityDrivenPipeline", "PipelineConfig",
    "PipelineMetrics", "replay",
    # adaptation
    "BufferSizePolicy", "ModelBasedPolicy", "NoKSlackPolicy", "MaxKSlackPolicy",
    "FixedKPolicy", "AdaptationContext",
    # model & statistics
    "RecallModel", "StreamModelInput", "CumulativePdf", "StatisticsManager",
    "StreamStatistics", "coarse_delay", "TupleProductivityProfiler",
    "ProfileSnapshot", "ResultSizeMonitor", "ResultSorter",
    "SelectivityStrategy", "EqSel", "NonEqSel",
    # join
    "MSWJOperator", "SlidingWindow", "JoinCondition", "Predicate",
    "EquiPredicate", "BandPredicate", "ThetaPredicate", "equi_join_chain",
    "star_equi_join", "ProbeOrderPolicy", "SmallestWindowFirst",
    "IndexAwareOrder",
    # window stores
    "WindowStore", "InMemoryStore", "TieredStore", "TieredStoreConfig",
    "StoreMetrics", "make_store",
    # parallel scale-out
    "PartitionedPipeline", "KeyRouter", "ShardExecutor", "SerialExecutor",
    "ProcessExecutor", "ShardOutcome", "run_partitioned",
    "TRANSPORT_BLOCKS", "TRANSPORT_SHM",
    "Rebalancer", "MigrationSpec", "load_imbalance",
    # pipelined ingestion & shared-memory transport
    "PipelinedIngest", "ShmRing",
    # fault tolerance
    "ShardFailure", "SupervisionConfig",
    "FaultPlan", "FaultSpec", "chaos_plan",
    # columnar block transport
    "TupleBlock", "ResultBlock", "StateBlock", "BlockEncoder", "BlockDecoder",
    "MISSING",
    # quality
    "RecallMeter", "RecallMeasurement", "TruthIndex", "compute_truth",
    # streams
    "Dataset", "from_tuple_specs", "DelayModel", "NoDelayModel",
    "ConstantDelayModel", "ZipfDelayModel", "BurstyDelayModel",
    "PhasedDelayModel", "BoundedZipf", "ZipfValueSampler", "make_d3_syn",
    "make_d4_syn", "SoccerConfig", "make_soccer_dataset", "player_distance",
    # NEXMark-style workloads & soak harness
    "NexmarkConfig", "PhaseSpec", "default_phases", "make_auction_bids",
    "make_person_auction_bid", "auction_bid_query", "person_auction_bid_query",
    "Workload", "WorkloadCaps", "auction_bids_workload",
    "person_auction_bid_workload", "SoakConfig", "SoakHarness", "SoakReport",
    "run_soak",
]
