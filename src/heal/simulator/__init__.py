"""Tabular-policy training sandbox for studying entropy dynamics."""

from .policy import TabularPolicy
from .rollout import rng_stream, rollout_tasks
from .tasks import (
    END_TOKEN,
    GENERAL_FAMILIES,
    PAD_TOKEN,
    PROMPT_LEN,
    TARGET_FAMILIES,
    VOCAB_SIZE,
    SynthTask,
    check_answer,
    extract_answer,
    ground_truth_for,
    make_task_suite,
)
from .training import (
    MODES,
    RunRecord,
    TrainConfig,
    config_text,
    grpo_advantages,
    load_config,
    parse_config,
    policy_gradient_step,
    train,
)

__all__ = [
    "END_TOKEN",
    "GENERAL_FAMILIES",
    "MODES",
    "PAD_TOKEN",
    "PROMPT_LEN",
    "TARGET_FAMILIES",
    "VOCAB_SIZE",
    "RunRecord",
    "SynthTask",
    "TabularPolicy",
    "TrainConfig",
    "check_answer",
    "config_text",
    "extract_answer",
    "ground_truth_for",
    "grpo_advantages",
    "load_config",
    "make_task_suite",
    "parse_config",
    "policy_gradient_step",
    "rng_stream",
    "rollout_tasks",
    "train",
]
