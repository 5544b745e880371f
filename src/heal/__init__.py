"""Entropy-dynamics tooling for verifiable-reward RL.

Data selection by uncertainty and diversity, trajectory entropy-dynamics
similarity, the binary alignment reward, entropy-regularization baselines,
and a deterministic tabular policy-gradient testbed with trace and metrics
file formats plus a command-line front end.
"""

from .analysis import PassAtKInput, pass_at_k
from .dynamics import (
    EntropyDynamics,
    pairwise_distance_matrix,
    resample_nearest,
    sim_hti,
    sim_kl,
    sim_pl,
)
from .eda import RewardRecord, batch_rewards
from .entropy import mean_vocab_entropy, sampled_policy_entropy
from .errors import DivergenceError, HealError, TraceFormatError, ValidationError
from .regularizers import (
    RegularizerConfig,
    clip_ratio_asymmetric,
    entropy_loss_term,
    high_entropy_mask,
    kl_cov_select,
    kl_penalty_term,
)
from .rollouts import RolloutGroup, Trajectory
from .selection import SelectionScore, composite_score, diversity, select_top_k, uncertainty
from .simulator import RunRecord, TabularPolicy, TrainConfig, grpo_advantages, train
from .trace_io import (
    MetricsRow,
    TraceRecord,
    export_heatmap,
    load_traces,
    read_metrics,
    read_trace_records,
    write_metrics,
    write_traces,
)

__version__ = "0.1.0"

__all__ = [
    "DivergenceError",
    "EntropyDynamics",
    "HealError",
    "MetricsRow",
    "PassAtKInput",
    "RegularizerConfig",
    "RewardRecord",
    "RolloutGroup",
    "RunRecord",
    "SelectionScore",
    "TabularPolicy",
    "TraceFormatError",
    "TraceRecord",
    "TrainConfig",
    "Trajectory",
    "ValidationError",
    "batch_rewards",
    "export_heatmap",
    "grpo_advantages",
    "load_traces",
    "pass_at_k",
    "read_metrics",
    "read_trace_records",
    "train",
    "write_metrics",
    "write_traces",
    "clip_ratio_asymmetric",
    "composite_score",
    "diversity",
    "entropy_loss_term",
    "high_entropy_mask",
    "kl_cov_select",
    "kl_penalty_term",
    "mean_vocab_entropy",
    "pairwise_distance_matrix",
    "resample_nearest",
    "sampled_policy_entropy",
    "select_top_k",
    "sim_hti",
    "sim_kl",
    "sim_pl",
    "uncertainty",
]
