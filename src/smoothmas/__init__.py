"""Deterministic multi-agent consensus simulation under stealthy manipulation
and hallucination, with a randomized-smoothing defense and Monte Carlo
robustness certification."""

from .core import (
    Domain,
    InvalidAgentError,
    InvalidArgumentError,
    InvalidTopologyError,
    PolicyUnavailableError,
    Purpose,
    SamplingFailedError,
    SeedSpec,
    SmoothmasError,
    StateVec,
    Stream,
    StreamBranch,
    Topology,
    UNIT_DOMAIN,
    box_domain,
    full_topology,
    ring_topology,
)
from .policy import (
    AgentPolicy,
    HallucinationConfig,
    PolicyInput,
    PolicyKind,
    evaluate_policy,
    external_llm,
    hallucinate_wrap,
    llm_mimic,
    mean_aggregation,
)
from .adversary import AttackConfig, transmit, transmit_detail
from .smoothing import (
    SampleBatch,
    SmoothedDecision,
    SmoothingConfig,
    adaptive_sample_count,
    estimate_variance,
    sample_policy,
    smoothed_decision,
    smoothed_decision_detail,
    trim_mean,
)
from .certify import (
    Certificate,
    RegionPartition,
    attenuation_factor,
    certified_radius,
    certify_decision,
    clopper_pearson_bounds,
    path_attenuation,
    std_normal_cdf,
    std_normal_quantile,
    tolerance_index,
    uniform_partition,
)
from .sim import (
    DefenseConfig,
    ScenarioConfig,
    Trajectory,
    WorldState,
    initial_world,
    run_scenario,
    step,
    step_detail,
)
from .metrics import (
    consensus_error,
    deviation,
    deviation_magnitudes,
    deviation_report,
    distances_from,
    improvement_pct,
    mean_state,
    normal_avg_deviation,
)

__version__ = "0.1.0"
