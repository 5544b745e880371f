"""Matrix similarity kernels against the scalar definitions, bit for bit.

The expected values come from ``similarity_oracle``, which scores one pair
at a time; ``heal.dynamics``' own ``sim_*`` are views of the kernels.

Values are compared as int64 bit patterns, so -0.0 differs from 0.0 and
every last-bit rounding difference shows.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from heal import dynamics
from heal.dynamics import (
    _BLOCK_ELEMS,
    _STEPS_FIRST_BELOW,
    _TILE_ELEMS,
    hti_similarity_matrix,
    kl_similarity_matrix,
    pairwise_distance_matrix,
    pl_similarity_matrix,
)
from heal.eda import batch_rewards
from heal.errors import ValidationError
from heal.rollouts import Trajectory

from eda_oracle import naive_rewards
from similarity_oracle import sim_hti, sim_kl, sim_pl

KERNELS = {
    "kl": (sim_kl, kl_similarity_matrix),
    "hti": (sim_hti, hti_similarity_matrix),
    "pl": (sim_pl, pl_similarity_matrix),
}


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


# Short lengths (1 included) and lengths past numpy's 128-element
# pairwise-summation block.
_LENGTHS = st.one_of(st.integers(1, 9), st.integers(120, 300))


def _values(kind: str, length: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(0, 3, length)
    if kind == "ties":  # hti rank ties, signed zeros
        return rng.choice(np.array([-0.0, 0.0, 1.0, 2.0]), length)
    if kind == "constant":  # hti all-tied, pl zero fits
        return np.full(length, rng.uniform(0, 3))
    # Spreads past ~700 nats underflow the softmax: zero weights take the
    # KL_ZERO branch and give -inf similarities.
    return rng.uniform(0, 800, length)


@st.composite
def dynamics_lists(draw, min_size=1, max_size=8, lengths=None):
    """Sequences drawn from a few shared lengths, so lengths repeat."""
    lengths = lengths or draw(st.lists(_LENGTHS, min_size=1, max_size=3))
    n = draw(st.integers(min_size, max_size))
    out = []
    for _ in range(n):
        kind = draw(st.sampled_from(["uniform", "ties", "constant", "wide"]))
        values = _values(kind, draw(st.sampled_from(lengths)), draw(st.integers(0, 2**32 - 1)))
        out.append(values)
    return out


@st.composite
def _with_repeat(draw, seqs, pool=None):
    """Maybe list one curve object of ``pool`` (default ``seqs``) a second
    time among ``seqs``."""
    pool = pool or seqs
    if pool and draw(st.booleans()):
        seqs = list(seqs)
        seqs.insert(draw(st.integers(0, len(seqs))), draw(st.sampled_from(pool)))
    return seqs


@st.composite
def row_col_pairs(draw):
    """Rows and cols in the call shapes the kernels take: the same list (as
    the heatmap calls them), or rows followed by other curves (as
    ``batch_rewards`` calls them). One curve object may be listed twice
    among the rows or among the other cols, and a length may be present
    among the rows or the other cols only."""
    pool = draw(st.lists(_LENGTHS, min_size=1, max_size=4))
    row_lengths = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    col_lengths = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    rows = draw(_with_repeat(draw(dynamics_lists(lengths=row_lengths))))
    if draw(st.sampled_from(["same", "prefix"])) == "same":
        return rows, rows
    others = draw(dynamics_lists(min_size=0, lengths=col_lengths))
    return rows, rows + draw(_with_repeat(others, rows + others))


@given(row_col_pairs())
def test_matrix_kernels_match_scalar_bitwise(pair):
    rows, cols = pair
    for name, (scalar, matrix) in KERNELS.items():
        want = np.array([[scalar(a, b) for b in cols] for a in rows])
        got = matrix(rows, cols)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want)), name


@given(row_col_pairs())
def test_one_pair_views_match_scalar_bitwise(pair):
    # heal.dynamics' sim_* score one pair as the kernel's [a] x [a, b] cell;
    # (a, a) lists one curve object twice.
    rows, cols = pair
    pairs = [(rows[0], rows[0])] + [(a, b) for a in rows[:2] for b in cols[:3]]
    for name, (scalar, _) in KERNELS.items():
        view = dynamics.get_similarity(name)
        got = [view(a, b) for a, b in pairs]
        assert all(type(x) is float for x in got), name
        assert np.array_equal(_bits(got), _bits([scalar(a, b) for a, b in pairs])), name


def test_matrix_kernels_reject_rows_that_do_not_lead_cols():
    rng = np.random.default_rng(3)
    curves = [rng.uniform(0, 3, n) for n in (3, 5, 9, 4)]
    shapes = {
        "permuted shared curves": (curves[:2], [curves[1], curves[0], *curves[2:]]),
        "unrelated lists": (curves[:2], curves[2:]),
        "cols shorter than rows": (curves, curves[:3]),
        "equal-valued copies": ([c.copy() for c in curves[:2]], curves),
    }
    for name, (rows, cols) in shapes.items():
        for kernel, (_, matrix) in KERNELS.items():
            with pytest.raises(ValidationError, match="leading entries of cols"):
                matrix(rows, cols)
                pytest.fail(f"{kernel} accepted {name}")


def test_short_sums_run_left_to_right():
    # The kernels sum the terms of curves aligned to fewer than
    # _STEPS_FIRST_BELOW steps over the outer axis of a steps-first tile.
    # That matches np.sum of one pair's terms, as the scalar definitions take
    # it, only while numpy sums so few float64 values in a left-to-right
    # loop from 0.0.
    rng = np.random.default_rng(0)
    for n in range(1, _STEPS_FIRST_BELOW):
        values = rng.standard_normal((2000, n)) * 10.0 ** rng.integers(-8, 9, (2000, n))
        values[rng.random(values.shape) < 0.05] = -0.0
        loop = np.zeros(len(values))
        for step in values.T:
            loop += step
        sums = np.array([np.sum(v) for v in values])
        assert np.array_equal(_bits(sums), _bits(loop)), (
            f"np.sum of {n} float64 values is no longer a left-to-right loop, so the "
            "steps-first tiles of heal.dynamics no longer match the scalar definitions"
        )
        steps_first = np.ascontiguousarray(values.T)
        assert np.array_equal(_bits(np.add.reduce(steps_first, axis=0)), _bits(loop)), n


def test_steps_first_tiles_split_rows_bitwise():
    # Rows of length 7 x cols of length <= 7 hold more terms than one tile,
    # so that rectangle is scored in more than one row tile; rows are a prefix of
    # the cols, and a fifth of the curves have spreads that underflow the
    # softmax (zero weights, -inf similarities).
    rng = np.random.default_rng(11)
    n_rows, n_cols = 500, 600
    lengths = rng.choice([5, 6, 7], n_cols, p=[0.1, 0.1, 0.8])
    spreads = np.where(rng.random(n_cols) < 0.2, 800.0, 3.0)
    cols = [rng.uniform(0, s, n) for s, n in zip(spreads, lengths)]
    rows = cols[:n_rows]
    assert np.sum(lengths[:n_rows] == 7) * n_cols * 7 > _TILE_ELEMS
    i, j = rng.integers(0, n_rows, 2000), rng.integers(0, n_cols, 2000)
    for name in ("kl", "hti"):
        scalar, matrix = KERNELS[name]
        want = [scalar(rows[a], cols[b]) for a, b in zip(i.tolist(), j.tolist())]
        assert np.array_equal(_bits(matrix(rows, cols)[i, j]), _bits(want)), name


@st.composite
def upsampled_tie_pairs(draw):
    """Short curves aligned to lengths more than twice theirs, with values from
    a few-value alphabet (signed zeros included) or constant, so that the
    top-20% boundary falls inside a run of copies of one tied entry."""
    short = draw(st.integers(1, 12))
    long_ = draw(st.integers(2 * short + 1, 8 * short + 8))
    alphabet = draw(st.sampled_from([(-0.0, 0.0), (-0.0, 0.0, 1.0), (1.0, 2.0), (0.5,)]))

    def curve(length):
        return np.array(draw(st.lists(st.sampled_from(alphabet), min_size=length,
                                      max_size=length)), dtype=np.float64)

    rows = [curve(draw(st.sampled_from([short, long_]))) for _ in range(draw(st.integers(1, 4)))]
    cols = rows + [curve(draw(st.sampled_from([short, long_])))
                   for _ in range(draw(st.integers(0, 3)))]
    return rows, cols


def _prefix_pair(rows, others):
    rows = [np.array(x, dtype=np.float64) for x in rows]
    return rows, rows + [np.array(x, dtype=np.float64) for x in others]


@given(upsampled_tie_pairs())
# m = 1: every curve has one step.
@example(_prefix_pair([[0.5], [2.0]], [[-0.0], [0.5]]))
# L = 1 against longer curves: one entry covers every aligned step.
@example(_prefix_pair([[1.5], [0.0, 3.0, 1.0, 2.0, 2.0, 0.5, 1.0]], [np.linspace(0, 3, 301)]))
# L = m: no resampling; ties at the boundary (the top 2 of 10).
@example(_prefix_pair([[2.0, 2.0, 2.0, 1.0, 0.0, 1.0, 2.0, 0.0, 1.0, 1.0]],
                      [[0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0]]))
# The top entry's copies overrun the boundary: 2 steps to 10 keep 2 of 5.
@example(_prefix_pair([[2.0, 1.0], [1.0, 2.0]], [np.arange(10.0)]))
# Tied entries at the boundary: 4 equal steps to 13, where entries 0 and 1
# hold 2 and 4 copies and the top 3 cut the second.
@example(_prefix_pair([[1.0] * 4, [-0.0, 0.0, 0.0, -0.0]], [np.full(13, 1.0)]))
def test_hti_kernel_boundary_ties_under_upsampling(pair):
    rows, cols = pair
    want = np.array([[sim_hti(a, b) for b in cols] for a in rows])
    assert np.array_equal(_bits(hti_similarity_matrix(rows, cols)), _bits(want))


def test_hti_copy_spans_match_the_resample_map():
    # [C(e-1), C(e)), the closed form the hti kernel counts copies with,
    # against the integer resample map itself, for every length L <= m.
    for m in range(1, 70):
        for length in range(1, m + 1):
            copies = np.bincount(dynamics._resample_index(length, m), minlength=length)
            first, end = dynamics._copy_span(np.arange(length), np.full(length, length), m)
            assert np.array_equal(end, np.cumsum(copies)), (length, m)
            assert np.array_equal(first, end - copies), (length, m)


@given(dynamics_lists(max_size=6))
def test_pairwise_distance_matrix_matches_scalar_bitwise(dyns):
    want = np.array(
        [[0.0 if i == j else -sim_kl(a, b) + 0.0 for j, b in enumerate(dyns)]
         for i, a in enumerate(dyns)]
    )
    assert np.array_equal(_bits(pairwise_distance_matrix(dyns)), _bits(want))


def _same(a, b):
    return a is None and b is None or (
        a is not None and b is not None and _bits(a) == _bits(b)
    )


@st.composite
def batches(draw):
    """Mixed batches, plus a lone target with generals, targets only and
    generals only."""
    lengths = draw(st.lists(_LENGTHS, min_size=1, max_size=3))
    shape = draw(st.sampled_from(["mixed", "lone target", "targets only", "generals only"]))
    n_target = {"lone target": (1, 1), "generals only": (0, 0)}.get(shape, (1, 6))
    n_general = {"lone target": (1, 4), "targets only": (0, 0)}.get(shape, (0, 4))
    target = draw(dynamics_lists(*n_target, lengths=lengths)) if n_target[1] else []
    general = draw(dynamics_lists(*n_general, lengths=lengths)) if n_general[1] else []
    if not target and not general:
        general = draw(dynamics_lists(lengths=lengths))
    batch = [
        Trajectory(prompt_id=f"p{i}", domain=domain, step_entropies=tau,
                   correct=i % 2)
        for i, (domain, tau) in enumerate(
            [("target", t) for t in target] + [("general", g) for g in general]
        )
    ]
    return draw(st.permutations(batch))


def _check_batch_rewards(batch, sim):
    wants = naive_rewards(batch, sim)
    # Large entropies can make a KL divergence infinite: batch_rewards then
    # names the first such target, in batch order, and its first such pool.
    non_finite = [
        (t, name, value)
        for t, want in zip(batch, wants) if t.domain == "target"
        for name, value in zip(("s_intra", "s_inter"), want[2:])
        if value is not None and not math.isfinite(value)
    ]
    if non_finite:
        t, name, value = non_finite[0]
        message = f"target {t.trajectory_id}: {name} is {value}, not a finite {sim} similarity"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            batch_rewards(batch, sim)
        return
    for t, r, want in zip(batch, batch_rewards(batch, sim), wants):
        if t.domain == "general":
            assert r.s_intra is None and r.s_inter is None and r.r_eda == 0.0
            continue
        _, r_eda, s_intra, s_inter = want
        assert _same(r.s_intra, s_intra) and _same(r.s_inter, s_inter)
        assert r.r_eda == r_eda


@given(batches(), st.sampled_from(sorted(KERNELS)))
# A flat target's KL to spiked curves is inf: its s_intra and s_inter are -inf.
@example([Trajectory(prompt_id=p, domain=d, step_entropies=np.array(e), correct=1)
          for p, d, e in [("b", "target", [1000.0, 0.0]), ("a", "target", [0.0, 0.0]),
                          ("g", "general", [1000.0, 0.0])]], "kl")
def test_batch_rewards_match_scalar_pool_loop(batch, sim):
    _check_batch_rewards(batch, sim)


@given(row_col_pairs(), batches(), st.integers(1, 32), st.integers(1, 48))
def test_kernels_match_scalar_bitwise_under_small_budgets(pair, batch, block_elems, tile_elems):
    # Budgets of at most a few hundred bytes: the aligned lengths are
    # prepared in several blocks, down to one curve each, and scored in
    # several tiles, down to one pair each, in both layouts (below
    # _STEPS_FIRST_BELOW steps and from there on). A pair's bits must not
    # depend on which block and tile hold it.
    rows, cols = pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_BLOCK_ELEMS", block_elems)
        mp.setattr(dynamics, "_TILE_ELEMS", tile_elems)
        for name in ("kl", "hti"):
            scalar, matrix = KERNELS[name]
            want = np.array([[scalar(a, b) for b in cols] for a in rows])
            assert np.array_equal(_bits(matrix(rows, cols)), _bits(want)), name
        want = np.array(
            [[0.0 if i == j else -sim_kl(a, b) + 0.0 for j, b in enumerate(cols)]
             for i, a in enumerate(cols)]
        )
        assert np.array_equal(_bits(pairwise_distance_matrix(cols)), _bits(want))
        for sim in ("kl", "hti"):
            _check_batch_rewards(batch, sim)


def test_batch_rewards_absent_pools():
    lone = [Trajectory(prompt_id="p", domain="target", step_entropies=np.array([1.0, 2.0]),
                       correct=1)]
    for sim in KERNELS:
        (r,) = batch_rewards(lone, sim)
        assert r.s_intra is None and r.s_inter is None and r.r_eda == 0.0
        pair = lone + [Trajectory(prompt_id="q", domain="target",
                                  step_entropies=np.array([0.5]), correct=0)]
        assert all(r.s_inter is None and r.s_intra is not None
                   for r in batch_rewards(pair, sim))


def test_kernel_memory_stays_within_tile_budget():
    # The kernels hold a few prepared blocks of _BLOCK_ELEMS steps and one
    # tile of _TILE_ELEMS terms, plus O(sum of lengths) for the per-call
    # sources and for the curves of the aligned length, at their own
    # length, plus the result and its reordered copy. Shapes:
    # - 64 equal lengths, which the untiled kernel held as two
    #   64 x 64 x 4000 float64 temporaries (131 MB each);
    # - batch_rewards' call shape, rows a prefix of cols, unequal lengths;
    # - one curve of 4000 steps among 255 of 100-200: every curve is
    #   resampled to 4000 steps, 32 times the block budget, while the sum
    #   of lengths stays near 42,000.
    n, length = 64, 4000
    rng = np.random.default_rng(0)
    dyns = [rng.uniform(0, 3, length) for _ in range(n)]
    mixed = [rng.uniform(0, 3, rng.integers(length // 2, length + 1)) for _ in range(n)]
    skew = [rng.uniform(0, 3, length)] + [rng.uniform(0, 3, rng.integers(100, 201))
                                          for _ in range(255)]
    assert len(skew) * length >= 8 * _BLOCK_ELEMS
    for matrix in (kl_similarity_matrix, hti_similarity_matrix):
        for rows, cols in ((dyns, dyns), (mixed[: n // 2], mixed), (skew[:n], skew)):
            total = sum(map(len, cols))
            bound = 8 * (_TILE_ELEMS + 4 * _BLOCK_ELEMS + 5 * total + 2 * len(rows) * len(cols))
            assert bound <= 8 * (_TILE_ELEMS + 8 * n * length)  # the earlier bound
            tracemalloc.start()
            try:
                matrix(rows, cols)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound, (matrix.__name__, len(rows), peak, bound)
