"""Entropy-preserving regularizers used as baselines in the testbed.

Four standard interventions against entropy collapse:

- entropy bonus: subtract the batch mean step entropy from the loss,
  scaled by ``alpha`` (minimizing the loss then pushes entropy up);
- high-entropy masking: restrict the policy-gradient update to the top
  ``gamma`` fraction of tokens by entropy, ranked across the whole batch;
- asymmetric ratio clipping: clamp importance ratios into
  [1 - eps_low, 1 + eps_high] with a looser upper bound, which stops the
  update from crushing rare upward moves;
- covariance-gated KL: find the tokens whose log-probability co-moves most
  with the advantage and pull only those back toward the old policy.

These functions are the formulas the training step evaluates: its loss
calls ``entropy_loss_term``, ``clip_ratio_asymmetric`` and
``kl_penalty_term`` on flat per-token arrays, and it selects tokens with
``high_entropy_mask`` and ``kl_cov_select``.
"""

from __future__ import annotations

import math

import numpy as np

from .entropy import LOG_FLOOR, ZERO_PROB
from .errors import ValidationError

DEFAULT_ALPHA = 0.001
DEFAULT_GAMMA = 0.20
DEFAULT_EPS_LOW = 0.20
DEFAULT_EPS_HIGH = 0.28
DEFAULT_K_FRAC = 0.0002
DEFAULT_BETA = 1.0

REGULARIZER_NAMES = ("none", "entropy_loss", "mask_8020", "clip_higher", "kl_cov")


def entropy_loss_term(
    step_entropies: np.ndarray, lengths: np.ndarray, alpha: float = DEFAULT_ALPHA
) -> float:
    """-(alpha / G) * sum over trajectories of their mean step entropy.

    ``step_entropies`` holds the G trajectories' step entropies back to
    back and ``lengths`` their lengths, each >= 1. Per-trajectory token
    mean first, then group mean; always <= 0 for alpha >= 0 since step
    entropies are non-negative.
    """
    h = np.asarray(step_entropies, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size == 0:
        raise ValidationError("empty batch")
    if not math.isfinite(alpha):
        raise ValidationError(f"alpha must be finite, got {alpha}")
    if h.ndim != 1 or lengths.ndim != 1 or lengths.min() < 1 or lengths.sum() != h.size:
        raise ValidationError(
            f"{h.size} step entropies do not split into trajectory lengths {lengths.tolist()}"
        )
    means = np.add.reduceat(h, np.cumsum(lengths) - lengths) / lengths
    return -(alpha / lengths.size) * float(means.sum())


def high_entropy_mask(
    step_entropies: list[np.ndarray], gamma: float = DEFAULT_GAMMA
) -> list[np.ndarray]:
    """Boolean masks marking the batch-level top ceil(gamma * N_T) entropies.

    Ranking is over every (trajectory, step) token in the batch jointly;
    ties resolve toward earlier trajectories and earlier steps. Exactly
    ceil(gamma * N_T) tokens are selected.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValidationError(f"gamma must lie in (0, 1], got {gamma}")
    if not step_entropies:
        raise ValidationError("empty batch")
    lengths = np.array([h.size for h in step_entropies])
    total = int(lengths.sum())
    if total == 0:
        raise ValidationError("batch has no tokens")
    flat = np.concatenate(step_entropies)
    keep = math.ceil(gamma * total)
    order = np.argsort(-flat, kind="stable")
    mask_flat = np.zeros(total, dtype=bool)
    mask_flat[order[:keep]] = True
    return list(np.split(mask_flat, np.cumsum(lengths)[:-1]))


def clip_ratio_asymmetric(
    rho, eps_low: float = DEFAULT_EPS_LOW, eps_high: float = DEFAULT_EPS_HIGH
):
    """Clamp importance ratios into [1 - eps_low, 1 + eps_high].

    Scalars come back as float, arrays as arrays.
    """
    if not 0.0 <= eps_low <= 1.0:
        raise ValidationError(f"eps_low must lie in [0, 1], got {eps_low}")
    if not eps_high >= 0.0:
        raise ValidationError(f"eps_high must be >= 0, got {eps_high}")
    clipped = np.clip(rho, 1.0 - eps_low, 1.0 + eps_high)
    if np.isscalar(rho):
        return float(clipped)
    return clipped


def kl_cov_select(
    logprobs: np.ndarray, advantages: np.ndarray, k_frac: float = DEFAULT_K_FRAC
) -> list[int]:
    """Indices of the tokens whose log-prob co-moves most with the advantage.

    Inputs are flat per-token vectors over the whole batch. Per-token score:
    (logprob - mean logprob) * (advantage - mean advantage). The top
    max(1, round-half-up(k_frac * N_T)) scores are kept, ties toward lower
    index; indices come back ascending.
    """
    if not 0.0 < k_frac <= 1.0:
        raise ValidationError(f"k_frac must lie in (0, 1], got {k_frac}")
    lp = np.asarray(logprobs, dtype=np.float64)
    adv = np.asarray(advantages, dtype=np.float64)
    if lp.ndim != 1 or adv.shape != lp.shape:
        raise ValidationError(
            f"logprobs and advantages must be equal-length vectors "
            f"(got {lp.shape} and {adv.shape})"
        )
    if lp.size == 0:
        raise ValidationError("empty batch")
    scores = (lp - lp.mean()) * (adv - adv.mean())
    keep = max(1, int(math.floor(k_frac * lp.size + 0.5)))
    order = np.argsort(-scores, kind="stable")[:keep]
    return sorted(int(i) for i in order)


def kl_penalty_term(
    old_probs: np.ndarray, new_probs: np.ndarray, beta: float = DEFAULT_BETA
) -> float:
    """beta * sum over tokens of the full-vocabulary KL(old || new).

    Row k of each ``(k, |V|)`` array is one selected token's distribution.
    Old entries below ``ZERO_PROB`` contribute 0, logs are floored at
    ``LOG_FLOOR`` and each token's KL is clamped at 0, so the term is >= 0
    and exactly 0 when no token is selected or every row pair matches.
    """
    if not (math.isfinite(beta) and beta >= 0.0):
        raise ValidationError(f"beta must be finite and >= 0, got {beta}")
    p_old = np.asarray(old_probs, dtype=np.float64)
    p_new = np.asarray(new_probs, dtype=np.float64)
    if p_old.ndim != 2 or p_old.shape != p_new.shape:
        raise ValidationError(
            f"old and new distributions must be equal (k, |V|) arrays "
            f"(got {p_old.shape} and {p_new.shape})"
        )
    log_old = np.log(np.maximum(p_old, LOG_FLOOR))
    log_new = np.log(np.maximum(p_new, LOG_FLOOR))
    per_token = np.sum(np.where(p_old >= ZERO_PROB, p_old * (log_old - log_new), 0.0), axis=1)
    return beta * float(np.sum(np.maximum(per_token, 0.0)))
