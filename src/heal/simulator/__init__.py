"""Tabular-policy training sandbox for studying entropy dynamics."""

from .policy import TabularPolicy
from .rollout import rollout_tasks
from .tasks import (
    END_TOKEN,
    PAD_TOKEN,
    VOCAB_SIZE,
    ground_truth_for,
    make_task_suite,
)
from .training import (
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
    "PAD_TOKEN",
    "VOCAB_SIZE",
    "TabularPolicy",
    "TrainConfig",
    "config_text",
    "ground_truth_for",
    "grpo_advantages",
    "load_config",
    "make_task_suite",
    "parse_config",
    "policy_gradient_step",
    "rollout_tasks",
    "train",
]
