"""Token-entropy and distribution primitives."""

import math

import numpy as np
import pytest

from heal.entropy import (
    entropy_from_logits,
    entropy_of_prob_rows,
    mean_vocab_entropy,
    softmax_probs,
)
from heal.errors import ValidationError
from heal.regularizers import kl_penalty_term
from heal.rollouts import Trajectory


def test_uniform_entropy_is_log_v():
    assert entropy_of_prob_rows(np.full(4, 0.25)) == pytest.approx(math.log(4), abs=1e-15)


def test_one_hot_entropy_is_zero():
    assert entropy_of_prob_rows(np.array([1.0, 0.0, 0.0, 0.0])) == 0.0


def test_two_point_uniform_entropy():
    p = np.array([0.5, 0.5, 0.0, 0.0])
    assert entropy_of_prob_rows(p) == pytest.approx(math.log(2), abs=1e-15)


def test_tiny_probabilities_contribute_exact_zero():
    # Components below 1e-15 are treated as 0 * log 0 = 0, so the entropy
    # of (1, 1e-16, 0) is exactly 0.
    assert entropy_of_prob_rows(np.array([1.0, 1e-16, 0.0])) == 0.0


def test_entropy_never_negative():
    h = entropy_of_prob_rows(np.array([1.0 - 1e-13, 1e-13]))
    assert h >= 0.0


def test_kl_divergence_hand_value():
    # 0.5*ln(0.5/0.75) + 0.5*ln(0.5/0.25) = 0.5*ln(4/3), one row through
    # the kl_cov penalty
    p = np.array([[0.5, 0.5]])
    q = np.array([[0.75, 0.25]])
    assert kl_penalty_term(p, q, 1.0) == pytest.approx(0.5 * math.log(4 / 3), abs=1e-15)


def test_kl_divergence_identical_is_zero():
    p = np.array([[0.3, 0.7]])
    assert kl_penalty_term(p, p, 1.0) == 0.0


def test_softmax_hand_value():
    p = softmax_probs(np.array([math.log(2), 0.0]), 1.0)
    np.testing.assert_allclose(p, [2 / 3, 1 / 3], atol=1e-15)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = rng.normal(size=8) * 5
        c = rng.normal() * 100
        a = softmax_probs(z, 0.7)
        b = softmax_probs(z + c, 0.7)
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_rejects_nonpositive_temperature():
    with pytest.raises(ValidationError):
        softmax_probs(np.array([1.0, 2.0]), 0.0)


def test_entropy_monotone_in_temperature():
    rng = np.random.default_rng(11)
    temps = (0.1, 0.7, 1.0, 5.0, 50.0)
    for _ in range(20):
        z = rng.normal(size=6) * 3
        hs = [entropy_of_prob_rows(softmax_probs(z, t)) for t in temps]
        assert all(hs[i] <= hs[i + 1] + 1e-12 for i in range(len(hs) - 1))


def _traj(prompt_id, entropies):
    return Trajectory(
        prompt_id=prompt_id,
        domain="target",
        step_entropies=np.asarray(entropies, dtype=np.float64),
    )


def test_mean_vocab_entropy_token_weighted():
    a = _traj("a", [1.0, 2.0, 3.0])
    b = _traj("b", [5.0])
    # concat mean = (1+2+3+5)/4, not mean of per-trajectory means
    assert mean_vocab_entropy([a, b]) == pytest.approx(11 / 4, abs=1e-15)


def test_mean_vocab_entropy_concat_equals_weighted_subbatches():
    rng = np.random.default_rng(3)
    batches = []
    for _ in range(4):
        batches.append([_traj(f"p{i}", rng.uniform(0, 2, rng.integers(1, 9)))
                        for i in range(rng.integers(1, 5))])
    whole = mean_vocab_entropy([t for b in batches for t in b])
    counts = [sum(t.length for t in b) for b in batches]
    parts = [mean_vocab_entropy(b) for b in batches]
    weighted = sum(c * v for c, v in zip(counts, parts)) / sum(counts)
    assert whole == pytest.approx(weighted, abs=1e-12)


def test_mean_vocab_entropy_empty_batch_rejected():
    with pytest.raises(ValidationError):
        mean_vocab_entropy([])


def test_entropy_from_logits_matches_prob_form():
    rng = np.random.default_rng(13)
    z = rng.normal(size=(200, 12)) * 4
    for t in (0.1, 0.7, 1.0, 5.0):
        lse = entropy_from_logits(z, t)
        plain = entropy_of_prob_rows(softmax_probs(z, t))
        np.testing.assert_allclose(lse, plain, atol=1e-12)


def test_entropy_from_logits_exact_at_constant_rows():
    h = entropy_from_logits(np.zeros((3, 12)), 0.7)
    assert np.all(h == math.log(12))
