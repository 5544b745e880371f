"""Trajectory-level entropy dynamics and similarity functions.

An entropy-dynamics sequence is the per-step vocabulary entropy along one
generated trajectory. Sequences of different lengths are aligned by
nearest-neighbor resampling of the shorter one, then softmax-normalized so
that fluctuation patterns dominate absolute magnitudes. Three similarity
functions are provided:

``sim_kl``   negative KL divergence between the normalized sequences
             (the default; higher is more similar, 0 is identical).
``sim_hti``  overlap of the high-entropy segments: masked min-sum over the
             per-sequence top-20% raw entropies.
``sim_pl``   agreement of global linear trends: |cos(angle difference of
             fitted slopes)| weighted by both Pearson coefficients.

The scalar functions define the values. ``kl_similarity_matrix``,
``hti_similarity_matrix`` and ``pl_similarity_matrix`` score every (row,
col) pair of two lists at once and are bit-identical to them: the kl and
hti kernels group pairs by aligned length and fill bounded tiles, the pl
kernel fits each sequence once. The EDA reward, the heatmap and the
evaluation distance all go through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .entropy import softmax_probs
from .errors import ValidationError

# Normalized weights below this contribute 0 to KL sums (underflow guard).
KL_ZERO = 1e-300

# Fraction of steps counted as "high entropy" when selecting top segments.
TOP_FRACTION = 0.20


@dataclass
class EntropyDynamics:
    """Per-step entropy sequence of one trajectory (nats, length >= 1)."""

    values: np.ndarray
    source_id: str = ""
    domain: str = "target"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValidationError("entropy dynamics must be a non-empty 1-d vector")
        if not np.isfinite(v).all():
            raise ValidationError("entropy dynamics contain non-finite entries")
        if (v < 0).any():
            raise ValidationError(f"entropy dynamics contain negative entries (min {v.min()})")
        if self.domain not in ("target", "general"):
            raise ValidationError(f"unknown domain tag {self.domain!r}")
        self.values = v

    def __len__(self) -> int:
        return self.values.size


@dataclass
class NormalizedDynamics:
    """Softmax-normalized entropy sequence: strictly positive, sums to 1."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("weights must be a non-empty 1-d vector")
        if np.any(w <= 0):
            raise ValidationError("normalized dynamics must be strictly positive")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValidationError(f"weights sum to {float(w.sum())!r}, not 1")
        self.weights = w

    @property
    def length(self) -> int:
        return self.weights.size


def _resample_index(length, target_len: int) -> np.ndarray:
    """Nearest-neighbor index map idx(j) = round-half-up(j*(L-1)/(m-1)).

    ``length`` may be a column of lengths; the map then has one row each.
    """
    steps = np.arange(target_len) * (length - 1)
    if target_len == 1:
        return steps  # j = 0 only: every map starts at index 0
    return np.floor(steps / (target_len - 1) + 0.5).astype(np.int64)


def _resample_values(v: np.ndarray, target_len: int) -> np.ndarray:
    if target_len == v.size:
        return v
    return v[_resample_index(v.size, target_len)]


def resample_nearest(tau: EntropyDynamics, target_len: int) -> EntropyDynamics:
    """Stretch or shrink a sequence to ``target_len`` by nearest-neighbor picks.

    Endpoints are anchored: the output always starts and ends on the input's
    first and last entries, and resampling to the input's own length is the
    identity.
    """
    if target_len < 1:
        raise ValidationError(f"target_len must be >= 1, got {target_len}")
    return EntropyDynamics(
        _resample_values(tau.values, target_len).copy(),
        source_id=tau.source_id,
        domain=tau.domain,
    )


def normalize_dynamics(tau: EntropyDynamics) -> NormalizedDynamics:
    """Softmax (temperature 1) over the entropy sequence."""
    return NormalizedDynamics(softmax_probs(tau.values))


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


def sim_kl(tau_i: EntropyDynamics, tau_j: EntropyDynamics) -> float:
    """Negative KL divergence between aligned, softmax-normalized sequences.

    Always <= 0; equals 0 exactly iff the normalized aligned forms coincide.
    Invariant under adding a per-sequence constant (softmax shift invariance).
    """
    wi, wj = _aligned_normalized(tau_i.values, tau_j.values)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = _kl_sum(wi, np.log(wi), np.log(wj))
    # Rounding can leave a tiny negative KL for near-identical inputs; the
    # trailing +0.0 turns -0.0 into a plain 0.0.
    return -max(kl, 0.0) + 0.0


def top_fraction_indices(values: np.ndarray, fraction: float, min_count: int = 1) -> np.ndarray:
    """Indices of the ceil(fraction * N) largest values, ties to lower index."""
    n = values.size
    size = max(min_count, math.ceil(fraction * n))
    order = np.argsort(-values, kind="stable")
    return order[:size]


def sim_hti(tau_i: EntropyDynamics, tau_j: EntropyDynamics) -> float:
    """Overlap of the high-entropy segments of two aligned sequences.

    Each sequence keeps only its own top-20% raw entropies (minimum one);
    the similarity is the elementwise min-sum of the two masked sequences.
    Symmetric, >= 0, and 0 whenever the top index sets are disjoint.
    """
    a, b = tau_i.values, tau_j.values
    n = max(a.size, b.size)
    a = _resample_values(a, n)
    b = _resample_values(b, n)
    masked_a = np.zeros(n)
    masked_a[top_fraction_indices(a, TOP_FRACTION)] = 1.0
    masked_a *= a
    masked_b = np.zeros(n)
    masked_b[top_fraction_indices(b, TOP_FRACTION)] = 1.0
    masked_b *= b
    return float(np.sum(np.minimum(masked_a, masked_b)))


def _line_fit(v: np.ndarray) -> tuple[float, float]:
    """Least-squares slope against the step index, plus Pearson correlation.

    Constant and length-1 sequences have no reliable trend: both come back
    as (0, 0).
    """
    n = v.size
    if n < 2 or np.all(v == v[0]):
        return 0.0, 0.0
    x = np.arange(n, dtype=np.float64)
    xm = x - x.mean()
    ym = v - v.mean()
    sxy = float(np.dot(xm, ym))
    sxx = float(np.dot(xm, xm))
    syy = float(np.dot(ym, ym))
    slope = sxy / sxx
    corr = sxy / math.sqrt(sxx * syy)
    return slope, corr


def sim_pl(tau_i: EntropyDynamics, tau_j: EntropyDynamics) -> float:
    """Similarity of global linear trends, in [0, 1]; needs no length alignment.

    |cos(arctan k_i - arctan k_j)| measures the angle between the fitted
    lines; the product of Pearson coefficients discounts unreliable fits.
    """
    k_i, d_i = _line_fit(tau_i.values)
    k_j, d_j = _line_fit(tau_j.values)
    value = abs(math.cos(math.atan(k_i) - math.atan(k_j)) * d_i * d_j)
    return min(value, 1.0)


SIMILARITIES: dict[str, Callable[[EntropyDynamics, EntropyDynamics], float]] = {
    "kl": sim_kl,
    "hti": sim_hti,
    "pl": sim_pl,
}


def get_similarity(name: str) -> Callable[[EntropyDynamics, EntropyDynamics], float]:
    try:
        return SIMILARITIES[name]
    except KeyError:
        raise ValidationError(
            f"unknown similarity {name!r}; expected one of {sorted(SIMILARITIES)}"
        ) from None


def pairwise_distance_matrix(dynamics: list[EntropyDynamics]) -> np.ndarray:
    """Distance matrix D[i][j] = -sim_kl(tau_i, tau_j); zero diagonal, >= 0.

    Generally asymmetric because KL is. One ``kl_similarity_matrix`` call;
    the +0.0 keeps zero cells positively signed.
    """
    if not dynamics:
        raise ValidationError("empty dynamics list")
    out = -kl_similarity_matrix(dynamics, dynamics) + 0.0
    np.fill_diagonal(out, 0.0)
    return out


# Elements of one (rows, cols, aligned length) pair tile: each float64
# temporary of a matrix kernel stays within 8 MiB whatever the batch shape.
_TILE_ELEMS = 1 << 20


def _aligned_matrix(rows, cols, source, at_length, pair) -> np.ndarray:
    """out[i, j] = pair(rows[i], cols[j]) with both resampled to their max length.

    Pairs are grouped by aligned length m. For each m the sequences of one
    side no longer than m are gathered to m in one index op (upsampling only,
    so every source entry survives) and prepared once:

    - ``source(flat, starts, lens)`` maps one side's concatenated values to
      the flat arrays that are gathered (once per side and call);
    - ``at_length(*gathered)`` turns the (k, m) gathers into prepared arrays;
    - ``pair(row_parts, col_parts)`` scores a (r, c) tile of them.

    Two rectangles cover each m: rows of length m x cols of length <= m,
    and rows shorter than m x cols of length m. Tiles stay within
    ``_TILE_ELEMS`` elements along both axes.
    """
    out = np.empty((len(rows), len(cols)))
    if not rows or not cols:
        return out

    def side(seqs):
        lens = np.array([len(s) for s in seqs], dtype=np.int64)
        starts = np.cumsum(lens) - lens
        order = np.argsort(lens, kind="stable")
        flats = source(np.concatenate([s.values for s in seqs]), starts, lens)
        return order, lens[order], starts[order], flats

    def prepared(side_, m):
        """Positions of the sequences no longer than m, by length, and their
        prepared arrays; the ones of length m form the slice [lo:]."""
        order, lens, starts, flats = side_
        lo, hi = np.searchsorted(lens, [m, m + 1]).tolist()
        at = starts[:hi, None] + _resample_index(lens[:hi, None], m)
        return order[:hi], lo, at_length(*[f[at] for f in flats])

    def fill(ri, rp, ci, cp, m):
        if not ri.size or not ci.size:
            return
        tc = min(ci.size, max(1, _TILE_ELEMS // m))
        tr = max(1, _TILE_ELEMS // (m * tc))
        for r0 in range(0, ri.size, tr):
            for c0 in range(0, ci.size, tc):
                tile = pair([a[r0 : r0 + tr] for a in rp], [b[c0 : c0 + tc] for b in cp])
                out[np.ix_(ri[r0 : r0 + tr], ci[c0 : c0 + tc])] = tile

    row_side = side(rows)
    col_side = row_side if cols is rows else side(cols)
    for m in np.union1d(row_side[1], col_side[1]).tolist():
        r_pos, r_lo, r_parts = prepared(row_side, m)
        c_pos, c_lo, c_parts = (r_pos, r_lo, r_parts) if cols is rows else prepared(col_side, m)
        fill(r_pos[r_lo:], [a[r_lo:] for a in r_parts], c_pos, c_parts, m)
        fill(r_pos[:r_lo], [a[:r_lo] for a in r_parts], c_pos[c_lo:], [b[c_lo:] for b in c_parts], m)
    return out


def _kl_source(flat: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> list[np.ndarray]:
    # Upsampling keeps every entry, so the max-shifted exponentials of a
    # sequence are those of its resampled form, gathered.
    return [np.exp(flat - np.repeat(np.maximum.reduceat(flat, starts), lens))]


def _kl_at_length(e: np.ndarray) -> list[np.ndarray]:
    w = e / e.sum(axis=-1, keepdims=True)
    return [w, np.log(w)]


def _kl_pair(row_parts, col_parts) -> np.ndarray:
    w, log_w = row_parts
    terms = log_w[:, None, :] - col_parts[1][None, :, :]
    terms *= w[:, None, :]
    if w.min() < KL_ZERO:
        np.copyto(terms, 0.0, where=w[:, None, :] < KL_ZERO)
    return -np.maximum(terms.sum(axis=2), 0.0) + 0.0


def kl_similarity_matrix(rows: list[EntropyDynamics], cols: list[EntropyDynamics]) -> np.ndarray:
    """sim_kl for every (row, col) pair, bit-identical to the scalar function.

    Memory is O(n*L) for the prepared sequences plus one bounded pair tile;
    every sequence is softmax-normalized once per aligned length it meets.
    """
    # Underflowed weights: log(0) = -inf, and 0 * inf in their masked terms.
    with np.errstate(divide="ignore", invalid="ignore"):
        return _aligned_matrix(rows, cols, _kl_source, _kl_at_length, _kl_pair)


def _hti_source(flat: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> list[np.ndarray]:
    """Values, and each entry's rank in its sequence's stable descending order.

    The resample map is monotone, so the stable descending order of a
    resampled sequence is its gathered ranks sorted stably: equal ranks are
    copies of one entry and keep their positions' order. Ranks are small
    integers, which numpy sorts by radix.
    """
    seq = np.repeat(np.arange(lens.size), lens)
    order = np.lexsort((-flat, seq))
    rank = np.empty(flat.size, dtype=np.int16 if lens.max() <= 1 << 15 else np.int64)
    rank[order] = np.arange(flat.size) - starts[seq[order]]
    return [flat, rank]


def _hti_at_length(v: np.ndarray, rank: np.ndarray) -> list[np.ndarray]:
    size = max(1, math.ceil(TOP_FRACTION * v.shape[1]))
    top = np.argsort(rank, axis=1, kind="stable")[:, :size]
    masked = np.zeros_like(v)
    np.put_along_axis(masked, top, 1.0, axis=1)
    masked *= v
    return [masked]


def _hti_pair(row_parts, col_parts) -> np.ndarray:
    return np.minimum(row_parts[0][:, None, :], col_parts[0][None, :, :]).sum(axis=2)


def hti_similarity_matrix(rows: list[EntropyDynamics], cols: list[EntropyDynamics]) -> np.ndarray:
    """sim_hti for every (row, col) pair, bit-identical to the scalar function."""
    return _aligned_matrix(rows, cols, _hti_source, _hti_at_length, _hti_pair)


def pl_similarity_matrix(rows: list[EntropyDynamics], cols: list[EntropyDynamics]) -> np.ndarray:
    """sim_pl for every (row, col) pair, bit-identical to the scalar function.

    Each sequence is fitted once; the angle is taken with ``math.atan`` as in
    ``sim_pl``, and the product keeps its (cos * d_i) * d_j order.
    """

    def fits(seqs):
        pairs = [_line_fit(s.values) for s in seqs]
        return (
            np.array([math.atan(k) for k, _ in pairs]),
            np.array([d for _, d in pairs], dtype=np.float64),
        )

    angle_r, corr_r = fits(rows)
    angle_c, corr_c = (angle_r, corr_r) if cols is rows else fits(cols)
    value = np.cos(angle_r[:, None] - angle_c[None, :]) * corr_r[:, None] * corr_c[None, :]
    return np.minimum(np.abs(value), 1.0)

