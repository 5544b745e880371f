"""Scalar similarity definitions: the oracle the matrix kernels are checked against.

``heal.dynamics`` computes every similarity with its matrix kernel, and its
``sim_kl``, ``sim_hti`` and ``sim_pl`` are one-pair views of those kernels.
These are the one-pair definitions, written out pair by pair: the shorter
curve is resampled by nearest-neighbor picks onto the longer one, and the
pair's terms are summed with ``np.sum``. The kernels must give their values
bit for bit. They share only the resample map, the softmax, the top-20% rank
order and the line fit with the package.
"""

import math

import numpy as np

from heal.dynamics import KL_ZERO, _line_fit, _resample_index, top_fraction_indices
from heal.entropy import softmax_probs


def _resample_values(v: np.ndarray, target_len: int) -> np.ndarray:
    """Stretch or shrink a curve to ``target_len`` >= 1 by nearest-neighbor picks.

    Endpoints are anchored, and resampling to the curve's own length returns
    the curve itself.
    """
    if target_len == v.size:
        return v
    return v[_resample_index(v.size, target_len)]


def _aligned_normalized(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Resample the shorter of two raw sequences to the longer, softmax both."""
    if a.size < b.size:
        a = _resample_values(a, b.size)
    elif b.size < a.size:
        b = _resample_values(b, a.size)
    return softmax_probs(a), softmax_probs(b)


def _kl_sum(wi: np.ndarray, log_wi: np.ndarray, log_wj: np.ndarray) -> float:
    terms = wi * (log_wi - log_wj)
    if wi.min() < KL_ZERO:
        terms = np.where(wi < KL_ZERO, 0.0, terms)
    return float(np.sum(terms))


def sim_kl(tau_i: np.ndarray, tau_j: np.ndarray) -> float:
    """Negative KL divergence between aligned, softmax-normalized curves."""
    wi, wj = _aligned_normalized(tau_i, tau_j)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = _kl_sum(wi, np.log(wi), np.log(wj))
    # Rounding can leave a tiny negative KL for near-identical inputs; the
    # trailing +0.0 turns -0.0 into a plain 0.0.
    return -max(kl, 0.0) + 0.0


def sim_hti(tau_i: np.ndarray, tau_j: np.ndarray) -> float:
    """Elementwise min-sum of the two aligned curves, each masked to its top 20%."""
    n = max(tau_i.size, tau_j.size)
    a = _resample_values(tau_i, n)
    b = _resample_values(tau_j, n)
    masked_a = np.zeros(n)
    masked_a[top_fraction_indices(a)] = 1.0
    masked_a *= a
    masked_b = np.zeros(n)
    masked_b[top_fraction_indices(b)] = 1.0
    masked_b *= b
    return float(np.sum(np.minimum(masked_a, masked_b)))


def sim_pl(tau_i: np.ndarray, tau_j: np.ndarray) -> float:
    """|cos(arctan k_i - arctan k_j)| times both Pearson coefficients, at most 1."""
    k_i, d_i = _line_fit(tau_i)
    k_j, d_j = _line_fit(tau_j)
    value = abs(math.cos(math.atan(k_i) - math.atan(k_j)) * d_i * d_j)
    return min(value, 1.0)


SIMILARITIES = {"kl": sim_kl, "hti": sim_hti, "pl": sim_pl}
