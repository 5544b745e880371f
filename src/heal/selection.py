"""Uncertainty- and diversity-driven selection of general-domain prompts.

Each candidate prompt is scored from a group of N sampled completions:

``uncertainty``  1 - 2|Acc - 1/2|, peaking at 1 when the policy is right
                 exactly half the time and falling to 0 when it is always
                 right or always wrong.
``diversity``    mean of the pooled per-trajectory top-20% step entropies,
                 a proxy for how much exploratory branching the prompt
                 still induces.
``composite``    uncertainty * diversity; prompts are ranked by this and
                 the top K survive.

Defaults mirror the reference pipeline: K=384 prompts kept, scored from
groups of N=8 completions sampled at temperature 0.7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _top_count
from .errors import ValidationError
from .rollouts import RolloutGroup

DEFAULT_SELECT_K = 384
DEFAULT_ROLLOUTS_PER_PROMPT = 8
DEFAULT_TEMPERATURE = 0.7


@dataclass
class SelectionScore:
    """Per-prompt selection metrics; ``composite`` drives the ranking."""

    prompt_id: str
    accuracy: float
    uncertainty: float
    diversity: float
    composite: float


def uncertainty(acc: float) -> float:
    """1 - 2|Acc - 1/2|: symmetric around 1/2, zero at both extremes."""
    if not 0.0 <= acc <= 1.0:
        raise ValidationError(f"accuracy must lie in [0, 1], got {acc}")
    return 1.0 - 2.0 * abs(acc - 0.5)


def diversity(group: RolloutGroup) -> float:
    """Mean of the pooled top-20% step entropies across the group.

    Each trajectory contributes its ceil(0.2 * length) largest entropies
    (at least one); the mean is taken over the combined pool, so longer
    trajectories contribute proportionally more entries.
    """
    pool = [np.sort(t.step_entropies)[::-1][: _top_count(t.length)] for t in group.trajectories]
    return float(np.mean(np.concatenate(pool)))


def composite_score(u: float, d: float) -> float:
    """uncertainty * diversity."""
    if not 0.0 <= u <= 1.0:
        raise ValidationError(f"uncertainty must lie in [0, 1], got {u}")
    if d < 0.0:
        raise ValidationError(f"diversity must be >= 0, got {d}")
    return u * d


def score_group(group: RolloutGroup) -> SelectionScore:
    """A prompt's selection metrics; a diversity past the float64 range (finite
    entropies whose mean overflows) raises ValidationError naming the prompt."""
    acc = group.accuracy()
    u = uncertainty(acc)
    with np.errstate(over="ignore"):
        d = diversity(group)
    if not math.isfinite(d):
        raise ValidationError(
            f"prompt {group.prompt_id!r}: diversity (mean top-fraction step entropy) "
            f"overflows float64"
        )
    return SelectionScore(
        prompt_id=group.prompt_id,
        accuracy=acc,
        uncertainty=u,
        diversity=d,
        composite=composite_score(u, d),
    )


def score_groups(groups: list[RolloutGroup]) -> list[SelectionScore]:
    return [score_group(g) for g in groups]


def select_top_k(scores: list[SelectionScore], k: int) -> list[str]:
    """Prompt ids of the k highest composite scores, descending.

    Ties keep input order; an empty score list yields an empty selection;
    asking for more prompts than exist returns all of them, still ranked.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if not scores:
        return []
    composite = np.array([s.composite for s in scores])
    order = np.argsort(-composite, kind="stable")
    return [scores[int(i)].prompt_id for i in order[: min(k, len(scores))]]
