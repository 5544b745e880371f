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

None sees an entropy level, though PAPER.md says EDA captures "both entropy
magnitude and fine-grained variation": a lift c >= 0 of one curve moves
``sim_kl`` and ``sim_pl`` only by rounding, and ``sim_hti(a, a + c) ==
sim_hti(a, a)`` exactly, unless rounding ``a + c`` merges two steps of ``a``.

The matrix kernels define the values. ``kl_similarity_matrix``,
``hti_similarity_matrix`` and ``pl_similarity_matrix`` score every (row,
col) pair of two lists of curves at once, and ``sim_kl``, ``sim_hti`` and
``sim_pl`` are one-pair views of them. ``tests/similarity_oracle.py``
holds the scalar definitions, written pair by pair, that the kernels are
tested against bit for bit. The kernels' rows are the leading entries of
their cols, the same objects: the EDA reward scores targets against
targets followed by generals, and the heatmap and the evaluation distance
score curves against themselves. Any other pair of lists raises
ValidationError. So each col is prepared once and the rows reuse it. The
kl and hti kernels group pairs by aligned length m: each col is gathered
to m (one integer resample map, ``_resample_index``) and prepared once per
aligned length it is needed at, and bounded tiles of pairs are scored from
the prepared arrays, as views. Each pair's terms are summed in the order
``np.sum`` sums one pair's terms. Below 8 steps that is a left-to-right
loop, so short curves are laid out steps-first, (m, rows, cols), and their
tiles are summed over the outer axis, one whole plane per step. From 8
steps on it is numpy's pairwise sum, so tiles are (rows, cols, m) and are
summed over the contiguous last axis. The pl kernel fits each col once.
Memory is two fixed budgets plus O(sum of lengths) plus the result: the
curves resampled to an aligned length are prepared in blocks of at most
``_BLOCK_ELEMS`` steps, two at a time, and pairs are scored in tiles of
at most ``_TILE_ELEMS`` terms; the flat per-call sources and the curves of
the aligned length itself, at their own length, take O(sum of lengths).
"""

from __future__ import annotations

import math
import operator
from typing import Callable

import numpy as np

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


def sim_kl(tau_i: np.ndarray, tau_j: np.ndarray) -> float:
    """Negative KL divergence between aligned, softmax-normalized curves.

    Both curves are 1-d float64 arrays, non-empty, finite and >= 0.
    Always <= 0; equals 0 exactly iff the normalized aligned forms coincide.
    Invariant under adding a per-curve constant (softmax shift invariance).
    """
    return float(kl_similarity_matrix([tau_i], [tau_i, tau_j])[0, 1])


def _top_count(n: int) -> int:
    """How many of n steps count as high entropy: ceil(TOP_FRACTION * n), min 1."""
    return max(1, math.ceil(TOP_FRACTION * n))


def top_fraction_indices(values: np.ndarray) -> np.ndarray:
    """Indices of the ``_top_count`` largest values, ties to lower index."""
    order = np.argsort(-values, kind="stable")
    return order[: _top_count(values.size)]


def sim_hti(tau_i: np.ndarray, tau_j: np.ndarray) -> float:
    """Overlap of the high-entropy segments of two aligned curves.

    Both curves are 1-d float64 arrays, non-empty, finite and >= 0.
    Each sequence keeps only its own top-20% raw entropies (minimum one);
    the similarity is the elementwise min-sum of the two masked sequences.
    Symmetric, >= 0, and 0 whenever the top index sets are disjoint.
    """
    return float(hti_similarity_matrix([tau_i], [tau_i, tau_j])[0, 1])


def _line_fit(v: np.ndarray) -> tuple[float, float]:
    """Least-squares slope against the step index, plus Pearson correlation.

    Constant and length-1 sequences have no reliable trend: both come back
    as (0, 0), and so do sequences whose spread is so small (subnormal
    steps) that ``sxx * syy`` underflows to 0.
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
    if sxx * syy == 0.0:
        return 0.0, 0.0
    slope = sxy / sxx
    corr = sxy / math.sqrt(sxx * syy)
    return slope, corr


def sim_pl(tau_i: np.ndarray, tau_j: np.ndarray) -> float:
    """Similarity of global linear trends, in [0, 1]; needs no length alignment.

    Both curves are 1-d float64 arrays, non-empty, finite and >= 0.
    |cos(arctan k_i - arctan k_j)| measures the angle between the fitted
    lines; the product of Pearson coefficients discounts unreliable fits.
    """
    return float(pl_similarity_matrix([tau_i], [tau_i, tau_j])[0, 1])


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


# Elements of one (rows, cols, aligned length) pair tile: 1 MiB of float64
# terms, which fits a core's L2 cache together with its operands (2 MiB per
# core on the Xeon it was tuned on) and holds every rectangle of a heal
# training batch (up to 80 targets x 256 curves of up to 6 steps) whole.
_TILE_ELEMS = 1 << 17

# Steps of the curves resampled to one aligned length in one block: the map
# and each array prepared for them stay within 256 KiB. (The first block of
# a length also holds the curves of that length, which need no resampling.)
_BLOCK_ELEMS = 1 << 15

# numpy sums fewer than 8 float64 values in a plain left-to-right loop, and a
# reduction over an outer axis adds whole planes in that same order. From 8
# values on, a 1-d sum is numpy's unrolled pairwise sum, which only a
# reduction over the contiguous last axis reproduces. Curves aligned to
# fewer steps than this are laid out steps-first.
_STEPS_FIRST_BELOW = 8


def _check_prefix(rows, cols) -> None:
    """Raise ValidationError unless rows are the leading entries of cols."""
    if len(rows) > len(cols) or any(map(operator.is_not, rows, cols)):
        raise ValidationError(
            "similarity kernels take rows that are the leading entries of cols, "
            f"the same curve objects; got {len(rows)} rows that are not the first "
            f"{len(rows)} of {len(cols)} cols"
        )


def _curve_order(n_rows, cols):
    """The cols in the kernels' order: those after the rows longest first,
    then the rows shortest first, ties in list order. Also returns their
    lengths and each col's place in that order.
    """
    lens = np.fromiter(map(len, cols), np.int64, len(cols))
    is_row = np.arange(lens.size) < n_rows
    order = np.lexsort((np.where(is_row, lens, -lens), is_row))
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    return [cols[i] for i in order.tolist()], lens[order], place


def _gather_map(starts: np.ndarray, lens: np.ndarray, m: int) -> np.ndarray:
    """(k, m) positions in the flat arrays of k curves resampled to m."""
    at = _resample_index(lens[:, None], m)
    at += starts[:, None]
    return at


def _aligned_matrix(rows, cols, source, at_length, pair) -> np.ndarray:
    """out[i, j] = the sum of pair's terms for rows[i] and cols[j], both
    resampled to their max length; rows are the leading entries of cols.

    The result is built as ``res`` over the rows and the cols in
    ``_curve_order``'s order, so the other cols come first and then the
    rows; one gather at the end puts it in the callers' order.

    Pairs are grouped by aligned length m: rows of length m x cols no longer
    than m, and rows shorter than m x cols of length m. So every pair holds
    a curve of length m, and the shorter curves are only ever paired with
    those. In the curve order the curves up to m are one run, with those of
    length m at its two ends. The first block prepared at m holds the
    length-m curves and as many of the shorter ones next to them as fit in
    ``_BLOCK_ELEMS`` steps; the other shorter curves follow in blocks of at
    most that many steps, each prepared once and scored against the first
    block's length-m curves. So at most two blocks of resampled curves are
    held at a time, besides the length-m curves, which need no resampling;
    a length whose curves fit one block is prepared in one gather, as every
    length of the simulator's short batches is. Every tile takes its
    operands from the prepared arrays as views and is summed straight into
    ``res``:

    - ``source(flat, starts, lens)`` maps the concatenated values, which it
      may overwrite, to the flat per-entry arrays that are gathered (once
      per call);
    - ``at_length(flats, starts, lens, at, axis)`` prepares the curves at
      ``starts`` (with lengths ``lens``) in those arrays at m; ``at`` is
      their resample map into them (upsampling only, so every source entry
      survives), with the steps along ``axis``; it may overwrite ``at``,
      and it holds the only reference, so ``at`` is freed once gathered; the
      prepared arrays have the shape of ``at``;
    - ``pair(row_parts)`` takes one row tile's operands and returns the
      function that fills the float64 workspace ``terms`` with the per-step
      terms of that row tile against one col tile, ``(col_parts, terms)``,
      and returns it.

    Below ``_STEPS_FIRST_BELOW`` steps the prepared arrays are (m, k), the
    tiles (m, r, c) and the sums run over axis 0; from there on they are
    (k, m) and (r, c, m), summed over axis 2. Either way a pair's terms are
    summed in the order of ``np.sum`` over them, whichever block and tile
    hold the pair. Tiles stay within ``_TILE_ELEMS`` elements along both
    axes and share one workspace, and blocks recur at bounded sizes, so
    neither the pair loop nor the preparation faults in fresh pages at
    each length.
    """
    _check_prefix(rows, cols)
    if not rows:
        return np.empty((0, len(cols)))

    curves, lens, col_at = _curve_order(len(rows), cols)
    s0 = len(cols) - len(rows)  # where the rows start
    row_at = col_at[: len(rows)] - s0
    starts = np.cumsum(lens) - lens
    flats = source(np.concatenate(curves), starts, lens)

    lengths = np.unique(lens)
    bounds = [
        np.searchsorted(run, lengths, side).tolist()
        for run in (lens[:s0][::-1], lens[s0:])
        for side in ("left", "right")
    ]
    res = np.empty((len(rows), len(cols)))
    workspace = np.empty(0)

    def score(m, c_lo, c_hi, s_lo, s_hi):
        # A function per m, so that one length's prepared arrays are freed
        # before the next length's are built. Each pair of counts gives a
        # run's curves shorter than m and no longer than m.
        at_m = s_hi > s_lo  # rows of length m x cols <= m
        below_m = s_lo > 0 and c_hi + s_hi > c_lo + s_lo  # rows < m x cols of length m
        if not (at_m or below_m):
            return
        steps_first = m < _STEPS_FIRST_BELOW

        def prepare(block):
            # The map is made in the call, so at_length holds its only
            # reference and frees it once gathered.
            sl, st = lens[block], starts[block]
            if steps_first:
                return at_length(flats, st, sl, _gather_map(st, sl, m).T, 0)
            return at_length(flats, st, sl, _gather_map(st, sl, m), 1)

        def tiles(row_run, col_run):
            # Each run: (prepared arrays, position in them, position in the
            # curve order, count).
            nonlocal workspace
            (r_parts, rp, ro, rn), (c_parts, cp, co, cn) = row_run, col_run
            if not rn or not cn:
                return
            ro -= s0  # rows of ``res``
            tc = min(cn, max(1, _TILE_ELEMS // m))
            tr = max(1, _TILE_ELEMS // (m * tc))
            for i in range(0, rn, tr):
                r = min(tr, rn - i)
                if steps_first:
                    terms_of = pair([x[:, rp + i : rp + i + r, None] for x in r_parts])
                else:
                    terms_of = pair([x[rp + i : rp + i + r, None, :] for x in r_parts])
                for j in range(0, cn, tc):
                    c = min(tc, cn - j)
                    if steps_first:
                        cop = [x[:, None, cp + j : cp + j + c] for x in c_parts]
                    else:
                        cop = [x[None, cp + j : cp + j + c, :] for x in c_parts]
                    if workspace.size < r * c * m:
                        workspace = np.empty(r * c * m)
                    terms = workspace[: r * c * m]
                    terms = terms.reshape((m, r, c) if steps_first else (r, c, m))
                    out = res[ro + i : ro + i + r, co + j : co + j + c]
                    np.add.reduce(terms_of(cop, terms), axis=0 if steps_first else 2, out=out)

        # The curves up to m are the run [a, e) of the curve order: the other
        # cols of length m, [a, a + n1); the shorter curves needed, [lo, hi),
        # the rows among them from s0 on; the rows of length m, [hi, e).
        a, e = s0 - c_hi, s0 + s_hi
        n1, hi = c_hi - c_lo, s0 + s_lo
        lo = a + n1 if at_m else s0
        step = max(1, _BLOCK_ELEMS // m)  # curves per block
        q = max(lo, hi - max(0, step - n1 - (e - hi)))  # [q, hi) join the first block
        block = slice(a, e) if q == a + n1 else np.r_[a : a + n1, q:e]
        first = prepare(block)
        k = n1 + e - q
        m_rows = (first, k - (e - hi), hi, e - hi)
        m_cols = (first, 0, a, n1), m_rows

        def rows_below(parts, p, lo, hi):
            # The rows among the shorter curves [lo, hi), at p in ``parts``,
            # against the length-m cols.
            r0 = max(lo, s0)
            for run in m_cols:
                tiles((parts, p + r0 - lo, r0, hi - r0), run)

        # The length-m rows against the first block, one rectangle if it is
        # one run, then against each later block.
        for run in [(first, 0, a, k)] if q == a + n1 else [m_cols[0], (first, n1, q, e - q)]:
            tiles(m_rows, run)
        rows_below(first, n1, q, hi)
        for end in range(q, lo, -step):
            start = max(lo, end - step)
            parts = prepare(slice(start, end))
            tiles(m_rows, (parts, 0, start, end - start))
            rows_below(parts, 0, start, end)
            del parts  # freed before the next block is prepared

    for m, *counts in zip(lengths.tolist(), *bounds):
        score(m, *counts)
    workspace = None  # freed before the result is gathered
    res = res.take(row_at, axis=0)  # rebound, so at most two copies are held
    return res.take(col_at, axis=1)


def _kl_source(flat: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> list[np.ndarray]:
    # Upsampling keeps every entry, so the max-shifted exponentials of a
    # sequence are those of its resampled form, gathered. ``flat`` is the
    # call's own concatenation, so it is shifted and exponentiated in place.
    flat -= np.repeat(np.maximum.reduceat(flat, starts), lens)
    return [np.exp(flat, out=flat)]


def _kl_at_length(flats, starts, lens, at, axis) -> list[np.ndarray]:
    # take, unlike indexing, returns a C-ordered array for a transposed map.
    w = flats[0].take(at)
    del at  # the map's memory is free again before the log is allocated
    w /= w.sum(axis=axis, keepdims=True)
    return [w, np.log(w)]


def _kl_pair(row_parts):
    w, log_w = row_parts
    zero = w < KL_ZERO if w.min() < KL_ZERO else None

    def terms_of(col_parts, terms):
        np.subtract(log_w, col_parts[1], out=terms)
        terms *= w
        if zero is not None:
            np.copyto(terms, 0.0, where=zero)
        return terms

    return terms_of


def kl_similarity_matrix(rows: list[np.ndarray], cols: list[np.ndarray]) -> np.ndarray:
    """sim_kl for every (row, col) pair.

    Rows and cols are lists of 1-d float64 curves, non-empty, finite, >= 0;
    rows are the leading entries of cols, the same objects. Each col is
    softmax-normalized once per aligned length it is needed at.
    """
    # Underflowed weights: log(0) = -inf, and 0 * inf in their masked terms.
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _aligned_matrix(rows, cols, _kl_source, _kl_at_length, _kl_pair)
    # -max(kl, 0.0) in place: rounding can leave a tiny negative KL for
    # near-identical inputs. The trailing +0.0 turns -0.0 into a plain 0.0.
    np.maximum(out, 0.0, out=out)
    np.negative(out, out=out)
    out += 0.0
    return out


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


def _copy_span(entry, lens, m):
    """Where entry e of a length-L curve lies in the curve resampled to
    m >= L: positions [C(e-1), C(e)). idx(j) = (2j(L-1) + (m-1)) // (2(m-1))
    is at most e for j < (m-1)(2e+1) / (2(L-1)), so C(e) is
    ((m-1)(2e+1) - 1) // (2(L-1)) + 1 clipped to [0, m]: C(-1) = 0 and
    C(L-1) = m. The one entry of a length-1 curve spans all m. Elementwise
    over the int64 arrays ``entry`` and ``lens``.
    """
    den = np.maximum(lens - 1, 1)
    den *= 2
    num = entry * (2 * (m - 1))
    num += m - 2
    end = num // den
    num -= 2 * (m - 1)
    first = num // den
    end += 1
    np.minimum(end, m, out=end)
    end[lens == 1] = m
    first += 1
    np.maximum(first, 0, out=first)
    return first, end


def _hti_top(by_rank, starts, lens, m):
    """The top ``size`` positions of each curve resampled to m, found on its
    entries.

    In rank order each entry covers its run of copies, so the top set is
    every entry up to the one where the running copy count reaches
    ``size``; of that boundary entry only the first copies are kept. Entry
    e has C(e) - C(e-1) copies (``_copy_span``). Each end entry has at
    least one and every other entry at least q = (m-1) // (L-1), so the
    boundary lies within the first min(L, size, 2 + ceil(size / q)) ranks,
    and only those are looked at. Returns the kept entries, and per curve
    where the dropped copies of its boundary entry start in the flattened
    (k, m) result and how many there are.
    """
    size = _top_count(m)
    q = (m - 1) // np.maximum(lens - 1, 1)  # copies of an interior entry, at least
    top = np.minimum(np.minimum(lens, size), 2 - (-size // np.maximum(q, 1)))
    entry = by_rank[_ragged_arange(starts, top)].astype(np.int64)
    first, end = _copy_span(entry, np.repeat(lens, top), m)
    counts = end - first
    lead = np.cumsum(top) - top
    goal = size - counts[lead]
    cum = np.cumsum(counts, out=counts)
    goal += cum[lead]
    edge = np.searchsorted(cum, goal)
    kept = np.repeat(starts, edge - lead + 1) + entry[_ragged_arange(lead, edge - lead + 1)]
    extra = cum[edge] - goal
    return kept, np.arange(lens.size) * m + end[edge] - extra, extra


def _hti_at_length(flats, starts, lens, at, axis) -> list[np.ndarray]:
    flat, by_rank, dropped = flats
    at = at if axis == 1 else at.T  # (curve, step)
    kept, cut, extra = _hti_top(by_rank, starts, lens, at.shape[1])
    # 0.0 * v with the kept entries put back: a 0/1 mask times v (0.0 or
    # 1.0 times v), bit for bit. ``dropped`` is restored after the gather.
    dropped[kept] = flat[kept]
    masked = dropped[at]
    del at
    dropped[kept] *= 0.0
    if extra.any():
        masked.reshape(-1)[_ragged_arange(cut, extra)] *= 0.0
    return [masked if axis == 1 else np.ascontiguousarray(masked.T)]


def _hti_pair(row_parts):
    masked = row_parts[0]
    return lambda col_parts, terms: np.minimum(masked, col_parts[0], out=terms)


def hti_similarity_matrix(rows: list[np.ndarray], cols: list[np.ndarray]) -> np.ndarray:
    """sim_hti for every (row, col) pair.

    Rows and cols are lists of 1-d float64 curves, non-empty, finite, >= 0;
    rows are the leading entries of cols, the same objects. Each col is
    masked once per aligned length it is needed at.
    """
    return _aligned_matrix(rows, cols, _hti_source, _hti_at_length, _hti_pair)


def pl_similarity_matrix(rows: list[np.ndarray], cols: list[np.ndarray]) -> np.ndarray:
    """sim_pl for every (row, col) pair.

    Rows and cols are lists of 1-d float64 curves, non-empty, finite, >= 0;
    rows are the leading entries of cols, the same objects. Each col is
    fitted once and the rows take the first fits; the angle is taken with
    ``math.atan``, and the product is taken in (cos * d_i) * d_j order.
    """
    _check_prefix(rows, cols)
    fits = [_line_fit(s) for s in cols]
    angle = np.array([math.atan(k) for k, _ in fits], dtype=np.float64)
    corr = np.array([d for _, d in fits], dtype=np.float64)
    n = len(rows)
    value = np.cos(angle[:n, None] - angle[None, :]) * corr[:n, None] * corr[None, :]
    return np.minimum(np.abs(value), 1.0)
