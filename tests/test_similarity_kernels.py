"""Matrix similarity kernels against the scalar similarities, bit for bit.

Values are compared as int64 bit patterns, so -0.0 differs from 0.0 and
every last-bit rounding difference shows.
"""

import tracemalloc

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from heal.dynamics import (
    _TILE_ELEMS,
    hti_similarity_matrix,
    kl_similarity_matrix,
    pairwise_distance_matrix,
    pl_similarity_matrix,
    sim_hti,
    sim_kl,
    sim_pl,
)
from heal.eda import batch_rewards
from heal.rollouts import Trajectory

from eda_oracle import naive_rewards

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
def row_col_pairs(draw):
    lengths = draw(st.lists(_LENGTHS, min_size=1, max_size=4))
    rows = draw(dynamics_lists(lengths=lengths))
    cols = rows if draw(st.booleans()) else draw(dynamics_lists(lengths=lengths))
    return rows, cols


@given(row_col_pairs())
def test_matrix_kernels_match_scalar_bitwise(pair):
    rows, cols = pair
    for name, (scalar, matrix) in KERNELS.items():
        want = np.array([[scalar(a, b) for b in cols] for a in rows])
        got = matrix(rows, cols)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want)), name


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
    lengths = draw(st.lists(_LENGTHS, min_size=1, max_size=3))
    target = draw(dynamics_lists(min_size=1, max_size=6, lengths=lengths))
    general = draw(dynamics_lists(min_size=0, max_size=4, lengths=lengths))
    batch = [
        Trajectory(prompt_id=f"p{i}", domain=domain, step_entropies=tau,
                   correct=i % 2)
        for i, (domain, tau) in enumerate(
            [("target", t) for t in target] + [("general", g) for g in general]
        )
    ]
    return draw(st.permutations(batch))


@given(batches(), st.sampled_from(sorted(KERNELS)))
def test_batch_rewards_match_scalar_pool_loop(batch, sim):
    for t, r, want in zip(batch, batch_rewards(batch, sim), naive_rewards(batch, sim)):
        if t.domain == "general":
            assert r.s_intra is None and r.s_inter is None and r.r_eda == 0.0
            continue
        _, r_eda, s_intra, s_inter = want
        assert _same(r.s_intra, s_intra) and _same(r.s_inter, s_inter)
        assert r.r_eda == r_eda


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
    # 64 equal lengths: the old kernel held two 64 x 64 x 4000 float64
    # temporaries (131 MB each); the tiled one holds one tile plus O(n*L).
    n, length = 64, 4000
    rng = np.random.default_rng(0)
    dyns = [rng.uniform(0, 3, length) for _ in range(n)]
    bound = 8 * (_TILE_ELEMS + 8 * n * length)
    for matrix in (kl_similarity_matrix, hti_similarity_matrix):
        tracemalloc.start()
        try:
            matrix(dyns, dyns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (matrix.__name__, peak, bound)
