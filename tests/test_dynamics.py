"""Entropy-dynamics resampling, normalization, and similarities."""

import math

import numpy as np
import pytest

from heal.dynamics import (
    EntropyDynamics,
    get_similarity,
    kl_similarity_matrix,
    normalize_dynamics,
    pairwise_distance_matrix,
    resample_nearest,
    sim_hti,
    sim_kl,
    sim_pl,
    top_fraction_indices,
)
from heal.errors import ValidationError


def _dyn(values, source_id="t", domain="target"):
    return EntropyDynamics(np.asarray(values, dtype=np.float64), source_id, domain)


def test_resample_upsamples_by_nearest_index():
    out = resample_nearest(_dyn([1.0, 2.0]), 4)
    np.testing.assert_array_equal(out.values, [1.0, 1.0, 2.0, 2.0])


def test_resample_singleton_broadcast():
    out = resample_nearest(_dyn([5.0]), 3)
    np.testing.assert_array_equal(out.values, [5.0, 5.0, 5.0])


def test_resample_equal_length_is_identity():
    v = np.array([1.0, 3.0, 2.0])
    out = resample_nearest(_dyn(v), 3)
    np.testing.assert_array_equal(out.values, v)


def test_resample_to_length_one_takes_first():
    out = resample_nearest(_dyn([4.0, 9.0, 2.0]), 1)
    np.testing.assert_array_equal(out.values, [4.0])


def test_resample_rejects_bad_target():
    with pytest.raises(ValidationError):
        resample_nearest(_dyn([1.0]), 0)


def test_resample_output_entries_come_from_input():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.uniform(0, 3, rng.integers(1, 15))
        m = int(rng.integers(1, 15))
        out = resample_nearest(_dyn(v), m)
        assert all(x in v for x in out.values)


def test_resample_up_then_down_keeps_endpoints():
    rng = np.random.default_rng(9)
    for _ in range(50):
        v = rng.uniform(0, 3, rng.integers(2, 10))
        up = resample_nearest(_dyn(v), v.size + int(rng.integers(0, 10)))
        back = resample_nearest(up, v.size)
        assert back.values[0] == v[0]
        assert back.values[-1] == v[-1]


def test_normalize_constant_is_uniform():
    nd = normalize_dynamics(_dyn([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(nd.weights, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_normalize_is_softmax_of_values():
    nd = normalize_dynamics(_dyn([0.0, math.log(3)]))
    np.testing.assert_allclose(nd.weights, [0.25, 0.75], atol=1e-15)
    assert nd.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_normalize_shift_invariant():
    k = 1.7
    for c in (0.0, 3.0, 12.0):
        nd = normalize_dynamics(_dyn([c, c + k]))
        expected = [1 / (1 + math.exp(k)), math.exp(k) / (1 + math.exp(k))]
        np.testing.assert_allclose(nd.weights, expected, atol=1e-12)


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


def test_top_fraction_indices_ceil_and_ties():
    # ceil(0.2 * 6) = 2; ties broken toward the lower index
    idx = top_fraction_indices(np.array([1.0, 3.0, 3.0, 0.0, 2.0, 1.0]), 0.2)
    np.testing.assert_array_equal(sorted(idx), [1, 2])


def test_top_fraction_indices_min_count():
    idx = top_fraction_indices(np.array([1.0, 2.0]), 0.2)
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
    dyns = [_dyn(rng.uniform(0, 3, rng.integers(1, 9)), f"t{i}") for i in range(7)]
    mat = pairwise_distance_matrix(dyns)
    assert mat.shape == (7, 7)
    assert np.all(np.diag(mat) == 0.0)
    assert np.all(mat >= 0.0)
    assert not np.any(np.signbit(mat))
    for i in range(7):
        for j in range(7):
            assert mat[i, j] == -sim_kl(dyns[i], dyns[j]) + 0.0


def test_kl_similarity_matrix_matches_scalar_bitwise():
    rng = np.random.default_rng(12)
    rows = [_dyn(rng.uniform(0, 3, rng.integers(1, 20)), f"r{i}") for i in range(15)]
    cols = [_dyn(rng.uniform(0, 3, rng.integers(1, 20)), f"c{i}") for i in range(11)]
    mat = kl_similarity_matrix(rows, cols)
    want = np.array([[sim_kl(a, b) for b in cols] for a in rows])
    # Bit patterns, so a -0.0 cell where sim_kl gives 0.0 fails.
    assert np.array_equal(mat.view(np.int64), want.view(np.int64))


def test_kl_similarity_matrix_empty():
    assert kl_similarity_matrix([], []).shape == (0, 0)
