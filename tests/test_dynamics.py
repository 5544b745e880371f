"""Entropy-dynamics resampling, normalization, and similarities.

``sim_kl``, ``sim_hti`` and ``sim_pl`` are one-pair views of the matrix
kernels; bitwise expectations come from ``similarity_oracle``.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from heal.dynamics import (
    _resample_index,
    get_similarity,
    kl_similarity_matrix,
    pairwise_distance_matrix,
    sim_hti,
    sim_kl,
    sim_pl,
)
from heal.entropy import softmax_probs
from heal.errors import ValidationError

import similarity_oracle
from similarity_oracle import _resample_values, top_fraction_indices


def _dyn(values):
    return np.asarray(values, dtype=np.float64)


def test_resample_upsamples_by_nearest_index():
    out = _resample_values(_dyn([1.0, 2.0]), 4)
    np.testing.assert_array_equal(out, [1.0, 1.0, 2.0, 2.0])


def test_resample_singleton_broadcast():
    out = _resample_values(_dyn([5.0]), 3)
    np.testing.assert_array_equal(out, [5.0, 5.0, 5.0])


def test_resample_equal_length_is_identity():
    v = np.array([1.0, 3.0, 2.0])
    out = _resample_values(_dyn(v), 3)
    np.testing.assert_array_equal(out, v)
    np.testing.assert_array_equal(_resample_index(3, 3), [0, 1, 2])


def test_resample_to_length_one_takes_first():
    out = _resample_values(_dyn([4.0, 9.0, 2.0]), 1)
    np.testing.assert_array_equal(out, [4.0])
    # A column of lengths maps every row to index 0.
    np.testing.assert_array_equal(_resample_index(np.array([[1], [3], [7]]), 1), [[0], [0], [0]])


def _float_resample_index(length: int, target_len: int) -> np.ndarray:
    """The float form of the map, floor(j*(L-1)/(m-1) + 0.5): the oracle."""
    steps = np.arange(target_len) * (length - 1)
    if target_len == 1:
        return steps
    return np.floor(steps / (target_len - 1) + 0.5).astype(np.int64)


_SIZES = st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 10**6))


@given(_SIZES, _SIZES, st.booleans())
@example(1, 1, False)
@example(1, 10**6, False)
@example(10**6, 1, False)
@example(10**6, 10**6, False)
@example(999_999, 10**6, False)
@example(10**6, 999_999, False)
@example(4, 3, False)  # j*(L-1)/(m-1) = 1.5: exact halves round up
def test_integer_resample_index_matches_float_form(length, target_len, same):
    if same:
        target_len = length
    got = _resample_index(length, target_len)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, _float_resample_index(length, target_len))
    column = _resample_index(np.array([[length], [1]]), target_len)
    np.testing.assert_array_equal(column[0], got)
    np.testing.assert_array_equal(column[1], np.zeros(target_len, dtype=np.int64))


def test_resample_output_entries_come_from_input():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.uniform(0, 3, rng.integers(1, 15))
        m = int(rng.integers(1, 15))
        out = _resample_values(_dyn(v), m)
        assert out.size == m
        assert all(x in v for x in out)


def test_resample_up_then_down_keeps_endpoints():
    rng = np.random.default_rng(9)
    for _ in range(50):
        v = rng.uniform(0, 3, rng.integers(2, 10))
        up = _resample_values(_dyn(v), v.size + int(rng.integers(0, 10)))
        back = _resample_values(up, v.size)
        assert back[0] == v[0]
        assert back[-1] == v[-1]


def test_normalize_constant_is_uniform():
    w = softmax_probs(_dyn([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(w, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_normalize_is_softmax_of_values():
    w = softmax_probs(_dyn([0.0, math.log(3)]))
    np.testing.assert_allclose(w, [0.25, 0.75], atol=1e-15)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_normalize_shift_invariant():
    k = 1.7
    for c in (0.0, 3.0, 12.0):
        w = softmax_probs(_dyn([c, c + k]))
        expected = [1 / (1 + math.exp(k)), math.exp(k) / (1 + math.exp(k))]
        np.testing.assert_allclose(w, expected, atol=1e-12)


def test_sim_kl_self_is_zero():
    d = _dyn([0.3, 1.2, 0.7])
    assert sim_kl(d, d) == 0.0
    assert not np.signbit(sim_kl(d, d))


def test_sim_kl_hand_value():
    # softmax(0, ln3) = (1/4, 3/4) vs softmax(ln3, 0) = (3/4, 1/4):
    # KL = 0.25*ln(1/3) + 0.75*ln(3) = 0.5*ln 3
    got = sim_kl(_dyn([0.0, math.log(3)]), _dyn([math.log(3), 0.0]))
    assert got == pytest.approx(-0.5 * math.log(3), abs=1e-14)


def test_sim_kl_nonpositive():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = _dyn(rng.uniform(0, 3, rng.integers(1, 12)))
        b = _dyn(rng.uniform(0, 3, rng.integers(1, 12)))
        assert sim_kl(a, b) <= 0.0


def test_sim_kl_resamples_shorter_onto_longer():
    a = _dyn([1.0, 2.0])
    b = _dyn([1.0, 1.0, 2.0, 2.0])
    assert sim_kl(a, b) == 0.0


def test_sim_kl_shift_invariance():
    rng = np.random.default_rng(4)
    for _ in range(100):
        v = rng.uniform(0, 3, rng.integers(2, 10))
        w = rng.uniform(0, 3, rng.integers(2, 10))
        base = sim_kl(_dyn(v), _dyn(w))
        shifted = sim_kl(_dyn(v + rng.uniform(0, 10)), _dyn(w + rng.uniform(0, 10)))
        assert shifted == pytest.approx(base, abs=1e-9)


# A constant lift c >= 0 of one curve moves no similarity in real arithmetic:
# the softmax of sim_kl is shift invariant, the line fit of sim_pl centres
# each curve, and the min-sum of sim_hti is capped by the lower curve. So
# none of them sees an entropy level, only the shape of the curves.
#
# In float64 the lift survives as rounding alone, and the tolerance is fixed
# by that, not by measured differences. Rounding a step plus c, and removing
# c again (the softmax's max shift, the fit's centring), moves each step by
# at most an ulp of the largest value involved: u = eps * (1 + M), with M
# the largest lifted step. A value summed over the n aligned steps passes on
# at most n such moves, each scaled by the value's gain per step: for kl,
# 1 + S + log n, since its terms are weights times log-ratios of at most the
# larger spread S of the curves plus log n; for pl, 1 + 1/s, since it is a
# ratio of sums of centred steps whose smaller root-sum-square is s. The
# tolerance is 4 * n * u * gain; the 4 covers the two roundings of each move
# and the value's own roundings, on each side of the comparison.
_CURVES = st.lists(st.floats(0.0, 3.0), min_size=1, max_size=40).map(_dyn)
_LIFTS = st.floats(0.0, 10.0)


def _lift_tolerance(a, b, c, gain):
    n = max(a.size, b.size)
    return 4 * n * np.finfo(np.float64).eps * (1 + max(a.max(), b.max()) + c) * gain


def _lifted(a, b, c, first):
    return (a + c, b) if first else (a, b + c)


@given(_CURVES, _CURVES, _LIFTS, st.booleans())
def test_sim_kl_does_not_see_a_constant_lift(a, b, c, first):
    gain = 1 + max(np.ptp(a), np.ptp(b)) + math.log(max(a.size, b.size))
    diff = abs(sim_kl(*_lifted(a, b, c, first)) - sim_kl(a, b))
    assert diff <= _lift_tolerance(a, b, c, gain)


def _centred_norm(v):
    return math.sqrt(float(np.sum((v - v.mean()) ** 2)))


@given(_CURVES, _CURVES, _LIFTS, st.booleans())
def test_sim_pl_does_not_see_a_constant_lift(a, b, c, first):
    s = min(_centred_norm(a), _centred_norm(b))
    gain = 1 + 1 / s if s else math.inf  # a constant curve has pl 0, lifted or not
    diff = abs(sim_pl(*_lifted(a, b, c, first)) - sim_pl(a, b))
    assert diff <= _lift_tolerance(a, b, c, gain)


@given(_CURVES, _LIFTS)
def test_sim_hti_of_a_curve_and_its_lift_is_its_self_similarity(a, c):
    lifted = a + c
    # Rounding a + c can merge two close steps into a tie, which moves the
    # top-20% set to the lower index; the min-sum then covers other steps.
    assume(np.array_equal(top_fraction_indices(lifted), top_fraction_indices(a)))
    assert sim_hti(a, lifted) == sim_hti(a, a)


def test_top_fraction_indices_ceil_and_ties():
    # ceil(0.2 * 6) = 2; ties broken toward the lower index
    idx = top_fraction_indices(np.array([1.0, 3.0, 3.0, 0.0, 2.0, 1.0]))
    np.testing.assert_array_equal(sorted(idx), [1, 2])


def test_top_fraction_indices_min_count():
    idx = top_fraction_indices(np.array([1.0, 2.0]))
    assert len(idx) == 1 and idx[0] == 1


def test_sim_hti_symmetry():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a = _dyn(rng.uniform(0, 3, rng.integers(1, 15)))
        b = _dyn(rng.uniform(0, 3, rng.integers(1, 15)))
        assert sim_hti(a, b) == pytest.approx(sim_hti(b, a), abs=1e-12)


def test_sim_hti_identical_sums_top_entropies():
    # identical sequences with distinct entries: min-sum reduces to the sum
    # of the top-ceil(0.2*N) raw entropies; here ceil(0.2*5) = 1, max = 2.0
    v = np.array([2.0, 0.5, 1.5, 0.2, 0.9])
    d = _dyn(v)
    assert sim_hti(d, d) == pytest.approx(2.0, abs=1e-15)


def test_sim_hti_identical_longer_prefix_sum():
    # ceil(0.2 * 10) = 2: the two largest entries
    v = np.arange(10, dtype=np.float64)
    d = _dyn(v)
    assert sim_hti(d, d) == pytest.approx(9.0 + 8.0, abs=1e-15)


def test_sim_hti_disjoint_top_sets_give_zero():
    a = _dyn([3.0, 0.0, 0.0, 0.0, 0.0])
    b = _dyn([0.0, 3.0, 0.0, 0.0, 0.0])
    assert sim_hti(a, b) == 0.0


def test_sim_hti_all_zero_gives_zero():
    a = _dyn([0.0, 0.0, 0.0])
    assert sim_hti(a, a) == 0.0


def test_sim_pl_identical_lines_give_one():
    a = _dyn(np.linspace(0.1, 2.0, 9))
    assert sim_pl(a, a) == pytest.approx(1.0, abs=1e-12)


def test_sim_pl_perpendicular_lines_give_zero():
    # slopes tan(+45) and tan(-45): angle difference 90 degrees
    n = 8
    up = _dyn(np.arange(n, dtype=np.float64))
    down = _dyn(np.arange(n, dtype=np.float64)[::-1].copy())
    assert sim_pl(up, down) == pytest.approx(0.0, abs=1e-12)


def test_sim_pl_in_unit_interval():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a = _dyn(rng.uniform(0, 3, rng.integers(1, 12)))
        b = _dyn(rng.uniform(0, 3, rng.integers(1, 12)))
        assert 0.0 <= sim_pl(a, b) <= 1.0


def test_sim_pl_constant_sequence_gives_zero():
    a = _dyn([1.0, 1.0, 1.0])
    b = _dyn([0.5, 1.5, 2.5])
    assert sim_pl(a, b) == 0.0


def test_sim_pl_subnormal_spread_gives_zero():
    # The deviations' squares underflow, so Pearson's denominator is 0.
    b = _dyn([0.5, 1.5, 2.5])
    for a in ([0.0, 5e-324], [1e-320, 0.0, 1e-320]):
        assert sim_pl(_dyn(a), b) == 0.0


def test_get_similarity_names():
    assert get_similarity("kl") is sim_kl
    assert get_similarity("hti") is sim_hti
    assert get_similarity("pl") is sim_pl
    with pytest.raises(ValidationError):
        get_similarity("cosine")


def test_pairwise_distance_matrix_degenerate_cases():
    one = pairwise_distance_matrix([_dyn([1.0, 2.0])])
    np.testing.assert_array_equal(one, [[0.0]])
    d = _dyn([0.5, 1.5, 1.0])
    two = pairwise_distance_matrix([d, d])
    np.testing.assert_array_equal(two, np.zeros((2, 2)))


def test_pairwise_distance_matrix_diagonal_and_sign():
    rng = np.random.default_rng(10)
    dyns = [_dyn(rng.uniform(0, 3, rng.integers(1, 9))) for i in range(7)]
    mat = pairwise_distance_matrix(dyns)
    assert mat.shape == (7, 7)
    assert np.all(np.diag(mat) == 0.0)
    assert np.all(mat >= 0.0)
    assert not np.any(np.signbit(mat))
    for i in range(7):
        for j in range(7):
            assert mat[i, j] == -similarity_oracle.sim_kl(dyns[i], dyns[j]) + 0.0


def test_kl_similarity_matrix_matches_scalar_bitwise():
    rng = np.random.default_rng(12)
    rows = [_dyn(rng.uniform(0, 3, rng.integers(1, 20))) for i in range(15)]
    others = [_dyn(rng.uniform(0, 3, rng.integers(1, 20))) for i in range(11)]
    cols = rows + others
    mat = kl_similarity_matrix(rows, cols)
    want = np.array([[similarity_oracle.sim_kl(a, b) for b in cols] for a in rows])
    # Bit patterns, so a -0.0 cell where the scalar definition gives 0.0 fails.
    assert np.array_equal(mat.view(np.int64), want.view(np.int64))


def test_kl_similarity_matrix_empty():
    assert kl_similarity_matrix([], []).shape == (0, 0)
