"""Trajectory-level entropy dynamics and similarity functions.

An entropy-dynamics curve is the per-step vocabulary entropy along one
generated trajectory: the 1-d float64 array ``Trajectory.step_entropies``,
which ``Trajectory`` validates (non-empty, finite, >= 0). Every function
here takes such arrays and assumes that precondition. Curves of different
lengths are aligned by nearest-neighbor resampling of the shorter one, then
softmax-normalized so that fluctuation patterns dominate absolute
magnitudes. Three similarity functions are provided:

``sim_kl``   negative KL divergence between the normalized curves
             (the default; higher is more similar, 0 is identical).
``sim_hti``  overlap of the high-entropy segments: masked min-sum over the
             per-curve top-20% raw entropies.
``sim_pl``   agreement of global linear trends: |cos(angle difference of
             fitted slopes)| weighted by both Pearson coefficients.

The scalar functions define the values. ``kl_similarity_matrix``,
``hti_similarity_matrix`` and ``pl_similarity_matrix`` score every (row,
col) pair of two lists of curves at once and are bit-identical to them.
They tell curves apart by object identity, so a curve that is both a row
and a col is handled once. The kl and hti kernels group pairs by aligned
length m: each distinct curve is gathered to m (one integer resample map,
the one ``_resample_values`` uses) and prepared once per aligned length it
is needed at, and bounded tiles of pairs are scored from the prepared
arrays. The pl kernel fits each distinct curve once. Memory is O(n*L) for
the curves prepared at one aligned length plus one pair tile. The EDA
reward (one call per batch), the heatmap and the evaluation distance all
go through them.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .entropy import softmax_probs
from .errors import ValidationError

# Normalized weights below this contribute 0 to KL sums (underflow guard).
KL_ZERO = 1e-300

# Fraction of steps counted as "high entropy" when selecting top segments.
TOP_FRACTION = 0.20


def _resample_index(length, target_len: int) -> np.ndarray:
    """Nearest-neighbor index map idx(j) = round-half-up(j*(L-1)/(m-1)).

    Computed exactly in integers as (2j(L-1) + (m-1)) // (2(m-1)).
    ``length`` may be a column of lengths; the map then has one row each.
    """
    steps = np.arange(target_len) * (2 * (np.asarray(length) - 1))
    if target_len == 1:
        return steps  # j = 0 only: every map starts at index 0
    steps += target_len - 1
    steps //= 2 * (target_len - 1)
    return steps


def _ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + c) over (s, c) pairs."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(offsets[-1] + counts[-1])


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
    """Negative KL divergence between aligned, softmax-normalized curves.

    Both curves are 1-d float64 arrays, non-empty, finite and >= 0.
    Always <= 0; equals 0 exactly iff the normalized aligned forms coincide.
    Invariant under adding a per-curve constant (softmax shift invariance).
    """
    wi, wj = _aligned_normalized(tau_i, tau_j)
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


def sim_hti(tau_i: np.ndarray, tau_j: np.ndarray) -> float:
    """Overlap of the high-entropy segments of two aligned curves.

    Both curves are 1-d float64 arrays, non-empty, finite and >= 0.
    Each sequence keeps only its own top-20% raw entropies (minimum one);
    the similarity is the elementwise min-sum of the two masked sequences.
    Symmetric, >= 0, and 0 whenever the top index sets are disjoint.
    """
    n = max(tau_i.size, tau_j.size)
    a = _resample_values(tau_i, n)
    b = _resample_values(tau_j, n)
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


def sim_pl(tau_i: np.ndarray, tau_j: np.ndarray) -> float:
    """Similarity of global linear trends, in [0, 1]; needs no length alignment.

    Both curves are 1-d float64 arrays, non-empty, finite and >= 0.
    |cos(arctan k_i - arctan k_j)| measures the angle between the fitted
    lines; the product of Pearson coefficients discounts unreliable fits.
    """
    k_i, d_i = _line_fit(tau_i)
    k_j, d_j = _line_fit(tau_j)
    value = abs(math.cos(math.atan(k_i) - math.atan(k_j)) * d_i * d_j)
    return min(value, 1.0)


SIMILARITIES: dict[str, Callable[[np.ndarray, np.ndarray], float]] = {
    "kl": sim_kl,
    "hti": sim_hti,
    "pl": sim_pl,
}


def get_similarity(name: str) -> Callable[[np.ndarray, np.ndarray], float]:
    try:
        return SIMILARITIES[name]
    except KeyError:
        raise ValidationError(
            f"unknown similarity {name!r}; expected one of {sorted(SIMILARITIES)}"
        ) from None


def pairwise_distance_matrix(curves: list[np.ndarray]) -> np.ndarray:
    """Distance matrix D[i][j] = -sim_kl(tau_i, tau_j); zero diagonal, >= 0.

    Generally asymmetric because KL is. One ``kl_similarity_matrix`` call
    (curves as there); the +0.0 keeps zero cells positively signed.
    """
    if not curves:
        raise ValidationError("empty curve list")
    out = -kl_similarity_matrix(curves, curves) + 0.0
    np.fill_diagonal(out, 0.0)
    return out


# Elements of one (rows, cols, aligned length) pair tile: each float64
# temporary of a matrix kernel stays within 8 MiB whatever the batch shape.
_TILE_ELEMS = 1 << 20


def _take(parts: list[np.ndarray], pos: np.ndarray, distinct: bool) -> list[np.ndarray]:
    """Rows ``pos`` (sorted; ``distinct`` if no row repeats) of each prepared
    array: views when they are consecutive."""
    lo = int(pos[0])
    if distinct and pos[-1] - lo == pos.size - 1:
        return [a[lo : lo + pos.size] for a in parts]
    return [a[pos] for a in parts]


def _aligned_matrix(rows, cols, source, at_length, pair) -> np.ndarray:
    """out[i, j] = pair(rows[i], cols[j]) with both resampled to their max length.

    Curves are told apart by object identity, so one that is both a row and
    a col (or listed twice) is one curve. They are laid out flat by length,
    and pairs are grouped by aligned length m. Two rectangles cover each m:
    rows of length m x cols of length <= m, and rows shorter than m x cols of
    length m. The curves these need are gathered to m in one index op
    (upsampling only, so every source entry survives) and prepared once:

    - ``source(flat, starts, lens)`` maps the concatenated values to the flat
      per-entry arrays that are gathered (once per call);
    - ``at_length(flats, starts, lens, at)`` prepares the curves at
      ``starts`` (with lengths ``lens``) in those arrays at m; ``at`` is
      their (k, m) resample map into them, which it may overwrite;
    - ``pair(row_parts, col_parts, terms)`` scores a (r, c) tile of them,
      using the (r, c, m) float64 array ``terms`` as its workspace.

    Tiles stay within ``_TILE_ELEMS`` elements along both axes, and they
    share one workspace, so the pair loop does not fault in fresh pages.
    """
    out = np.empty((len(rows), len(cols)))
    if not rows or not cols:
        return out

    both = [*rows, *cols]
    by_id = dict(zip(map(id, both), both))  # distinct curves, first seen first
    slot = dict(zip(by_id, range(len(by_id))))
    row_slot = np.fromiter(map(slot.__getitem__, map(id, rows)), np.int64, len(rows))
    col_slot = np.fromiter(map(slot.__getitem__, map(id, cols)), np.int64, len(cols))
    rows_distinct = len(set(map(id, rows))) == len(rows)
    cols_distinct = len(set(map(id, cols))) == len(cols)
    curves = list(by_id.values())
    lens = np.array([c.size for c in curves], dtype=np.int64)
    by_len = np.argsort(lens, kind="stable")
    place = np.empty_like(by_len)
    place[by_len] = np.arange(by_len.size)
    lens = lens[by_len]
    starts = np.cumsum(lens) - lens
    flats = source(np.concatenate([curves[i] for i in by_len]), starts, lens)

    def entries(slots_):
        """A side's positions sorted by their curve's place, and those places."""
        p = place[slots_]
        order = np.argsort(p, kind="stable")
        return order, p[order]

    r_idx, r_place = entries(row_slot)
    c_idx, c_place = entries(col_slot)
    # The prepared rows at m are ordered by group: row-only curves of length
    # m (0), row-only shorter (1), shared shorter (2), shared of length m
    # (3), col-only, longest first (4). Then the first rectangle's cols
    # (2-4), the second one's rows (1-2) and cols (3 and the head of 4) are
    # consecutive rows, which the tiles take as views, not copies.
    is_row = np.zeros(lens.size, dtype=bool)
    is_row[r_place] = True
    is_col = np.zeros(lens.size, dtype=bool)
    is_col[c_place] = True
    group = np.where(is_row, np.where(is_col, 2, 1), 4)
    shift = np.where(is_row, np.where(is_col, 1, -1), 0)

    def prepared(need, m):
        """The needed places in block order, and their prepared arrays."""
        sel = np.flatnonzero(need)
        g = group[sel] + shift[sel] * (lens[sel] == m)
        block = sel[np.lexsort((np.where(g == 4, -sel, sel), g))]
        sl = lens[block]
        at = _resample_index(sl[:, None], m)
        at += starts[block, None]
        return block, at_length(flats, starts[block], sl, at)

    workspace = np.empty(0)

    def fill(ri, rpos, ci, cpos, parts, m):
        nonlocal workspace
        if not ri.size or not ci.size:
            return
        ro, co = np.argsort(rpos, kind="stable"), np.argsort(cpos, kind="stable")
        ri, rpos, ci, cpos = ri[ro], rpos[ro], ci[co], cpos[co]
        tc = min(ci.size, max(1, _TILE_ELEMS // m))
        tr = max(1, _TILE_ELEMS // (m * tc))
        for r0 in range(0, ri.size, tr):
            rp = _take(parts, rpos[r0 : r0 + tr], rows_distinct)
            for c0 in range(0, ci.size, tc):
                cp = _take(parts, cpos[c0 : c0 + tc], cols_distinct)
                r, c = rp[0].shape[0], cp[0].shape[0]
                if workspace.size < r * c * m:
                    workspace = np.empty(r * c * m)
                tile = pair(rp, cp, workspace[: r * c * m].reshape(r, c, m))
                out[np.ix_(ri[r0 : r0 + tr], ci[c0 : c0 + tc])] = tile

    def score(m):
        # A function per m, so that one length's prepared arrays are freed
        # before the next length's are built.
        lo, hi = np.searchsorted(lens, [m, m + 1]).tolist()
        r_lo, r_hi = np.searchsorted(r_place, [lo, hi]).tolist()
        c_lo, c_hi = np.searchsorted(c_place, [lo, hi]).tolist()
        need = np.zeros(hi, dtype=bool)
        if r_hi > r_lo:  # rows of length m x cols no longer than m
            need[r_place[r_lo:r_hi]] = True
            need[c_place[:c_hi]] = True
        if c_hi > c_lo:  # rows shorter than m x cols of length m
            need[r_place[:r_lo]] = True
            need[c_place[c_lo:c_hi]] = True
        block, parts = prepared(need, m)
        pos = np.empty(hi, dtype=np.int64)  # place -> row of the prepared arrays
        pos[block] = np.arange(block.size)
        fill(r_idx[r_lo:r_hi], pos[r_place[r_lo:r_hi]], c_idx[:c_hi], pos[c_place[:c_hi]], parts, m)
        fill(r_idx[:r_lo], pos[r_place[:r_lo]], c_idx[c_lo:c_hi], pos[c_place[c_lo:c_hi]], parts, m)

    for m in np.union1d(lens[r_place], lens[c_place]).tolist():
        score(m)
    return out


def _kl_source(flat: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> list[np.ndarray]:
    # Upsampling keeps every entry, so the max-shifted exponentials of a
    # sequence are those of its resampled form, gathered.
    return [np.exp(flat - np.repeat(np.maximum.reduceat(flat, starts), lens))]


def _kl_at_length(flats, starts, lens, at) -> list[np.ndarray]:
    w = flats[0][at]
    w /= w.sum(axis=1, keepdims=True)
    return [w, np.log(w)]


def _kl_pair(row_parts, col_parts, terms) -> np.ndarray:
    w, log_w = row_parts
    np.subtract(log_w[:, None, :], col_parts[1][None, :, :], out=terms)
    terms *= w[:, None, :]
    if w.min() < KL_ZERO:
        np.copyto(terms, 0.0, where=w[:, None, :] < KL_ZERO)
    return -np.maximum(terms.sum(axis=2), 0.0) + 0.0


def kl_similarity_matrix(rows: list[np.ndarray], cols: list[np.ndarray]) -> np.ndarray:
    """sim_kl for every (row, col) pair, bit-identical to the scalar function.

    Rows and cols are lists of 1-d float64 curves, non-empty, finite, >= 0.
    Each distinct curve (by object identity, so a row that is also a col
    counts once) is softmax-normalized once per aligned length it is needed
    at. Memory is O(n*L) for the curves prepared at one aligned length plus
    one bounded pair tile.
    """
    # Underflowed weights: log(0) = -inf, and 0 * inf in their masked terms.
    with np.errstate(divide="ignore", invalid="ignore"):
        return _aligned_matrix(rows, cols, _kl_source, _kl_at_length, _kl_pair)


def _hti_source(flat: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> list[np.ndarray]:
    """Values; each sequence's entries (indices within it) in its stable
    descending order, the order ``top_fraction_indices`` uses; and the
    values with every entry masked out (0.0 * v, signed zeros kept).

    The resample map is monotone, so the stable descending order of a
    resampled sequence runs through the entries in this order, each one's
    copies in their positions' order.
    """
    by_rank = [np.argsort(-flat[s : s + n], kind="stable") for s, n in zip(starts.tolist(), lens.tolist())]
    index = np.int16 if lens.max() <= 1 << 15 else np.int64
    return [flat, np.concatenate(by_rank, dtype=index), flat * 0.0]


def _hti_top(by_rank, starts, lens, at):
    """The top ``size`` positions of each curve resampled by ``at``, found on
    its entries.

    In rank order each entry covers its run of copies, so the top set is
    every entry up to the one where the running copy count reaches
    ``size``; of that boundary entry only the first copies are kept. Every
    entry has a copy, so the boundary lies within the first ``size`` ranks,
    and only those are looked at. Returns the kept entries, and per curve
    where the dropped copies of its boundary entry start in the flattened
    (k, m) result and how many there are.
    """
    k, m = at.shape
    size = max(1, math.ceil(TOP_FRACTION * m))
    # Copies of each entry, counted with the curves laid end to end; then
    # where each one's last copy ends in the flattened result (m per row).
    local = np.cumsum(lens) - lens
    shift = (starts - local)[:, None]
    at -= shift
    copies = np.bincount(at.reshape(-1), minlength=int(lens.sum()))
    at += shift
    top = np.minimum(lens, size)
    entry = by_rank[_ragged_arange(starts, top)]
    head = np.repeat(local, top)
    head += entry
    counts = copies[head]
    ends = np.cumsum(copies, out=copies)
    lead = np.cumsum(top) - top
    goal = size - counts[lead]
    cum = np.cumsum(counts, out=counts)
    goal += cum[lead]
    edge = np.searchsorted(cum, goal)
    kept = np.repeat(starts, edge - lead + 1) + entry[_ragged_arange(lead, edge - lead + 1)]
    extra = cum[edge] - goal
    return kept, ends[head[edge]] - extra, extra


def _hti_at_length(flats, starts, lens, at) -> list[np.ndarray]:
    flat, by_rank, dropped = flats
    kept, cut, extra = _hti_top(by_rank, starts, lens, at)
    # 0.0 * v with the kept entries put back: the scalar mask product (0.0
    # or 1.0 times v), bit for bit. ``dropped`` is restored after the gather.
    dropped[kept] = flat[kept]
    masked = dropped[at]
    dropped[kept] *= 0.0
    if extra.any():
        masked.reshape(-1)[_ragged_arange(cut, extra)] *= 0.0
    return [masked]


def _hti_pair(row_parts, col_parts, terms) -> np.ndarray:
    return np.minimum(row_parts[0][:, None, :], col_parts[0][None, :, :], out=terms).sum(axis=2)


def hti_similarity_matrix(rows: list[np.ndarray], cols: list[np.ndarray]) -> np.ndarray:
    """sim_hti for every (row, col) pair, bit-identical to the scalar function.

    Rows and cols are lists of 1-d float64 curves, non-empty, finite, >= 0.
    Each distinct curve is masked once per aligned length it is needed at.
    """
    return _aligned_matrix(rows, cols, _hti_source, _hti_at_length, _hti_pair)


def pl_similarity_matrix(rows: list[np.ndarray], cols: list[np.ndarray]) -> np.ndarray:
    """sim_pl for every (row, col) pair, bit-identical to the scalar function.

    Rows and cols are lists of 1-d float64 curves, non-empty, finite, >= 0.
    Each distinct curve (by object identity) is fitted once; the angle is
    taken with ``math.atan`` as in ``sim_pl``, and the product keeps its
    (cos * d_i) * d_j order.
    """
    fitted: dict[int, tuple[float, float]] = {}

    def fits(seqs):
        for s in seqs:
            if id(s) not in fitted:
                k, d = _line_fit(s)
                fitted[id(s)] = (math.atan(k), d)
        pairs = [fitted[id(s)] for s in seqs]
        return (
            np.array([a for a, _ in pairs], dtype=np.float64),
            np.array([d for _, d in pairs], dtype=np.float64),
        )

    angle_r, corr_r = fits(rows)
    angle_c, corr_c = fits(cols)
    value = np.cos(angle_r[:, None] - angle_c[None, :]) * corr_r[:, None] * corr_c[None, :]
    return np.minimum(np.abs(value), 1.0)
