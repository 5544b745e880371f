"""Entropies of probability rows over a finite vocabulary.

All entropies are in nats (natural log). The functions take plain arrays
and reduce the last axis: ``softmax_probs`` turns logit rows into
probability rows, ``entropy_of_prob_rows`` and ``entropy_from_logits`` give
one entropy per row. ``mean_vocab_entropy`` is the token-weighted mean of
per-step vocabulary entropies over a batch of trajectories.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import ValidationError

if TYPE_CHECKING:
    from .rollouts import Trajectory

# Probabilities below this are treated as exact zeros inside entropy sums,
# so 0*ln(0) never produces a NaN via floating underflow.
ZERO_PROB = 1e-15

# Floor under probabilities before a log, so an underflowed 0 stays finite.
LOG_FLOOR = 1e-300


def entropy_of_prob_rows(p: np.ndarray) -> np.ndarray:
    """Per-row -sum(p * ln p) over the last axis, with 0*ln(0) = 0.

    Entries below ``ZERO_PROB`` contribute exactly 0; the inner maximum only
    keeps the log finite on those already-masked entries.
    """
    p = np.asarray(p, dtype=np.float64)
    terms = np.where(p >= ZERO_PROB, p * np.log(np.maximum(p, LOG_FLOOR)), 0.0)
    # Entries a hair above 1 after renormalization can leave h at -1e-17.
    return np.maximum(-terms.sum(axis=-1), 0.0)


def check_temperature(temperature: float) -> None:
    """Refuse a sampling temperature that is not finite and > 0."""
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValidationError(f"temperature must be > 0, got {temperature}")


def softmax_probs(values: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Temperature-scaled softmax of a raw array, with max-subtraction."""
    check_temperature(temperature)
    z = np.asarray(values, dtype=np.float64) / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def entropy_from_logits(values: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Entropy of softmax rows in log-sum-exp form: ln(sum e^u) - sum(p*u).

    Mathematically equal to ``entropy_of_prob_rows(softmax_probs(...))`` but
    with fewer roundings; a constant row yields exactly ln(V).
    """
    check_temperature(temperature)
    u = np.asarray(values, dtype=np.float64) / temperature
    u = u - u.max(axis=-1, keepdims=True)
    e = np.exp(u)
    s = e.sum(axis=-1)
    return np.maximum(np.log(s) - (e * u).sum(axis=-1) / s, 0.0)


def mean_vocab_entropy(batch: Iterable["Trajectory"]) -> float:
    """Token-weighted mean of per-step vocabulary entropies across a batch."""
    chunks = [np.asarray(t.step_entropies, dtype=np.float64) for t in batch]
    if not chunks:
        raise ValidationError("empty batch: no trajectories to average over")
    return float(np.concatenate(chunks).mean())
