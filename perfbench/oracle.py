"""Independent numpy oracle for the offline-score outputs.

Written from the documented definitions (README, docs/trace-format.md and
the criterion-1 oracle), importing nothing from ``heal``:

- shorter entropy curve resampled to the longer by the nearest-neighbour
  map idx(j) = floor(j (L-1)/(m-1) + 1/2);
- ``kl``: minus KL(softmax(a) || softmax(b)), weights below 1e-300 adding 0,
  clamped to <= 0;
- ``hti``: min-sum of the two curves each masked to its top ceil(0.2 n)
  entries, ties going to the lower index;
- ``pl``: |cos(atan k_a - atan k_b)| r_a r_b from least-squares slopes k and
  Pearson coefficients r, both 0 for constant or length-1 curves, capped
  at 1;
- intra pool: every *other* target trajectory of the batch, as eda.py and
  criterion 1 define it today; inter pool: every general trajectory.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def resample(v: np.ndarray, m: int) -> np.ndarray:
    n = v.size
    if m == n:
        return v
    if m == 1:
        return v[:1]
    j = np.arange(m)
    return v[np.floor(j * (n - 1) / (m - 1) + 0.5).astype(np.int64)]


def _aligned(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = max(a.size, b.size)
    return resample(a, m), resample(b, m)


def _log_softmax(v: np.ndarray) -> np.ndarray:
    z = v - v.max()
    return z - np.log(np.sum(np.exp(z)))


def sim_kl(a: np.ndarray, b: np.ndarray) -> float:
    a, b = _aligned(a, b)
    la, lb = _log_softmax(a), _log_softmax(b)
    wa = np.exp(la)
    kl = float(np.sum(np.where(wa < 1e-300, 0.0, wa * (la - lb))))
    return -max(kl, 0.0) + 0.0


def _top_mask(v: np.ndarray) -> np.ndarray:
    keep = max(1, math.ceil(0.2 * v.size))
    order = np.lexsort((np.arange(v.size), -v))
    mask = np.zeros(v.size, dtype=bool)
    mask[order[:keep]] = True
    return mask


def sim_hti(a: np.ndarray, b: np.ndarray) -> float:
    a, b = _aligned(a, b)
    masked_a = np.where(_top_mask(a), a, 0.0)
    masked_b = np.where(_top_mask(b), b, 0.0)
    return float(np.sum(np.minimum(masked_a, masked_b)))


def _fit(v: np.ndarray) -> tuple[float, float]:
    if v.size < 2 or np.ptp(v) == 0:
        return 0.0, 0.0
    x = np.arange(v.size, dtype=np.float64)
    dx, dy = x - x.mean(), v - v.mean()
    sxy, sxx, syy = float(dx @ dy), float(dx @ dx), float(dy @ dy)
    return sxy / sxx, sxy / math.sqrt(sxx * syy)


def sim_pl(a: np.ndarray, b: np.ndarray) -> float:
    (ka, ra), (kb, rb) = _fit(a), _fit(b)
    return min(abs(math.cos(math.atan(ka) - math.atan(kb)) * ra * rb), 1.0)


SIMS = {"kl": sim_kl, "hti": sim_hti, "pl": sim_pl}


def pool_maxima(i: int, curves: list[np.ndarray], domains: list[str], sim: str):
    """(s_intra, s_inter) of target trajectory i; None for an empty pool."""
    fn = SIMS[sim]
    intra = [fn(curves[i], curves[j]) for j in range(len(curves))
             if j != i and domains[j] == "target"]
    inter = [fn(curves[i], curves[j]) for j in range(len(curves)) if domains[j] == "general"]
    return (max(intra) if intra else None), (max(inter) if inter else None)


def pass_at_k(n: int, c: int, k: int) -> float:
    return float(1 - Fraction(math.comb(n - c, k), math.comb(n, k)))
