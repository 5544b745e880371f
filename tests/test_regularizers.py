"""Entropy-regularization baselines: formulas, constants, edge cases."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heal.entropy import entropy_from_logits, softmax_probs
from heal.errors import ValidationError
from heal.regularizers import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_EPS_HIGH,
    DEFAULT_EPS_LOW,
    DEFAULT_GAMMA,
    DEFAULT_K_FRAC,
    REGULARIZER_NAMES,
    clip_ratio_asymmetric,
    entropy_loss_term,
    high_entropy_mask,
    kl_cov_select,
    kl_penalty_term,
)
from heal.simulator import TabularPolicy, TrainConfig, VOCAB_SIZE, make_task_suite, rollout_tasks
from heal.simulator.tasks import MAX_GENERAL, N_PROMPTS


def _validated(**fields):
    """A training config carrying the given regularizer settings, validated."""
    cfg = TrainConfig(mode="fewshot", **fields)
    cfg.validate()
    return cfg


def test_reference_defaults_exact():
    cfg = _validated()
    assert cfg.alpha == 0.001
    assert cfg.gamma == 0.20
    assert cfg.eps_high == 0.28
    assert cfg.eps_low == 0.20
    assert cfg.k_frac == 0.0002
    assert cfg.beta == 1.0
    assert REGULARIZER_NAMES == ("none", "entropy_loss", "mask_8020", "clip_higher", "kl_cov")


def test_config_validation():
    with pytest.raises(ValidationError):
        _validated(gamma=0.0)
    with pytest.raises(ValidationError):
        _validated(k_frac=1.5)
    with pytest.raises(ValidationError):
        _validated(beta=-1.0)
    with pytest.raises(ValidationError):
        _validated(alpha=math.inf)


@pytest.mark.parametrize("field", ["alpha", "gamma", "eps_low", "eps_high", "k_frac", "beta",
                                   "steps", "max_len", "seed", "batch_size"])
def test_config_rejects_nan(field):
    with pytest.raises(ValidationError, match=f"^{field} must"):
        _validated(**{field: math.nan})
    with pytest.raises(ValidationError, match=f"^{field} must"):
        dataclasses.replace(_validated(), **{field: math.nan})


# NaN, the infinities, and each bound (0 and 1) with its neighbours on both sides.
_EDGE_VALUES = [math.nan, math.inf, -math.inf] + [
    float(x)
    for bound in (0.0, 1.0)
    for x in (np.nextafter(bound, -1.0), bound, np.nextafter(bound, 2.0))
]
_REAL = (_EDGE_VALUES, st.floats())
_TASKS = make_task_suite(0, 1, 0)


def _counts(cap):
    """Counts at each bound of the suite (0 and ``cap``), and small ones drawn."""
    return ([-1, 0, 1, cap - 1, cap, cap + 1], st.integers(-3, 3))


# Per TrainConfig setting: the values to try (edge values, then a strategy) and
# the functions that take the setting and check it by their own rule.
_SETTING_CHECKS = {
    "alpha": (_REAL, [lambda v: entropy_loss_term(np.ones(2), np.array([2]), v)]),
    "gamma": (_REAL, [lambda v: high_entropy_mask([np.ones(2)], v)]),
    "eps_low": (_REAL, [lambda v: clip_ratio_asymmetric(1.0, v, DEFAULT_EPS_HIGH)]),
    "eps_high": (_REAL, [lambda v: clip_ratio_asymmetric(1.0, DEFAULT_EPS_LOW, v)]),
    "k_frac": (_REAL, [lambda v: kl_cov_select(np.zeros(2), np.zeros(2), v)]),
    "beta": (_REAL, [lambda v: kl_penalty_term(np.full((1, 2), 0.5), np.full((1, 2), 0.5), v)]),
    "temperature": (_REAL, [lambda v: softmax_probs(np.zeros((1, 2)), v),
                            lambda v: entropy_from_logits(np.zeros((1, 2)), v)]),
    "context_window": (([0, 1, 3, 4], st.integers(-3, 6)),
                       [lambda v: TabularPolicy(VOCAB_SIZE, v)]),
    "max_len": (([0, 1], st.integers(-3, 6)),
                [lambda v: rollout_tasks(TabularPolicy(), _TASKS, 2, 1.0, v, 0, "t", 0)]),
    "n_target": (_counts(N_PROMPTS), [lambda v: make_task_suite(0, v, 0)]),
    "n_general": (_counts(MAX_GENERAL), [lambda v: make_task_suite(0, 1, v)]),
}


def _refusal(check):
    """None when ``check()`` accepts, else its ValidationError message."""
    try:
        check()
    except ValidationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("field", sorted(_SETTING_CHECKS))
def test_config_and_regularizer_agree_on_settings(field):
    (edges, values), checks = _SETTING_CHECKS[field]
    # A config without targets, so that n_target = 0 meets no rule of the mode.
    mode = {"mode": "onlygeneral", "n_general": 1} if field == "n_target" else {"mode": "fewshot"}

    def agree(value):
        config = _refusal(lambda: TrainConfig(**mode, **{field: value}))
        for check in checks:
            function = _refusal(lambda: check(value))
            assert config == function

    for value in edges:
        agree(value)
    given(value=values)(agree)()


def test_infinite_eps_high_means_no_upper_clip():
    assert _validated(eps_high=math.inf).eps_high == math.inf
    assert clip_ratio_asymmetric(1e300, 0.2, math.inf) == 1e300
    with pytest.raises(ValidationError):
        _validated(beta=math.inf)
    with pytest.raises(ValidationError):
        clip_ratio_asymmetric(1.0, 0.2, math.nan)
    with pytest.raises(ValidationError):
        kl_penalty_term(np.ones((1, 2)) / 2, np.ones((1, 2)) / 2, math.nan)


def _flat(batch):
    """Per-trajectory step entropies as the flat array plus lengths."""
    return np.concatenate(batch), np.array([h.size for h in batch])


def test_entropy_loss_zero_entropies():
    assert entropy_loss_term(*_flat([np.zeros(3), np.zeros(5)]), 0.001) == 0.0


def test_entropy_loss_hand_value():
    got = entropy_loss_term(*_flat([np.array([1.0, 3.0])]), 0.001)
    assert got == pytest.approx(-0.002, abs=1e-15)


def test_entropy_loss_matches_double_loop():
    rng = np.random.default_rng(43)
    batch = [rng.uniform(0, 3, rng.integers(1, 12)) for _ in range(9)]
    alpha = 0.37
    expected = -(alpha / len(batch)) * sum(sum(h) / len(h) for h in batch)
    assert entropy_loss_term(*_flat(batch), alpha) == pytest.approx(expected, abs=1e-12)


def test_entropy_loss_linear_in_alpha():
    rng = np.random.default_rng(45)
    batch = _flat([rng.uniform(0, 3, 6) for _ in range(4)])
    assert entropy_loss_term(*batch, 0.002) == pytest.approx(
        2 * entropy_loss_term(*batch, 0.001), abs=1e-12
    )


def test_entropy_loss_nonpositive_and_empty_batch():
    rng = np.random.default_rng(47)
    assert entropy_loss_term(*_flat([rng.uniform(0, 3, 5)]), 0.01) <= 0.0
    with pytest.raises(ValidationError):
        entropy_loss_term(np.zeros(0), np.zeros(0, dtype=np.int64), 0.01)


def test_entropy_loss_rejects_lengths_that_do_not_split():
    h = np.ones(5)
    for lengths in ([2, 2], [5, 0], [6]):
        with pytest.raises(ValidationError):
            entropy_loss_term(h, np.array(lengths), 0.01)


def test_mask_gamma_one_selects_everything():
    masks = high_entropy_mask([np.array([1.0, 2.0]), np.array([3.0])], 1.0)
    assert all(m.all() for m in masks)


def test_mask_selects_strict_top():
    batch = [np.array([0.1, 0.2, 9.0, 0.3, 0.4]), np.array([0.5, 8.0, 0.6, 0.7, 0.8])]
    masks = high_entropy_mask(batch, 0.2)
    np.testing.assert_array_equal(masks[0], [False, False, True, False, False])
    np.testing.assert_array_equal(masks[1], [False, True, False, False, False])


def test_mask_tie_break_scan_order():
    batch = [np.ones(5), np.ones(5)]
    masks = high_entropy_mask(batch, 0.2)
    np.testing.assert_array_equal(masks[0], [True, True, False, False, False])
    np.testing.assert_array_equal(masks[1], [False] * 5)


def test_mask_count_is_ceil():
    rng = np.random.default_rng(49)
    for _ in range(20):
        batch = [rng.uniform(0, 3, rng.integers(1, 9)) for _ in range(rng.integers(1, 6))]
        total = sum(h.size for h in batch)
        gamma = float(rng.uniform(0.05, 1.0))
        masks = high_entropy_mask(batch, gamma)
        assert sum(int(m.sum()) for m in masks) == math.ceil(gamma * total)


def test_mask_monotone_in_gamma_without_ties():
    rng = np.random.default_rng(51)
    batch = [rng.permutation(20).astype(np.float64)]
    small = high_entropy_mask(batch, 0.2)[0]
    large = high_entropy_mask(batch, 0.5)[0]
    assert np.all(large[small])


def test_clip_constants_exact():
    assert clip_ratio_asymmetric(1.5) == 1.28
    assert clip_ratio_asymmetric(0.5) == 0.8
    assert clip_ratio_asymmetric(1.0) == 1.0


def test_clip_monotone_and_idempotent():
    xs = np.linspace(0.0, 2.5, 101)
    ys = clip_ratio_asymmetric(xs)
    assert np.all(np.diff(ys) >= 0)
    np.testing.assert_array_equal(clip_ratio_asymmetric(ys), ys)


def test_kl_cov_all_equal_advantages():
    lp = np.log(np.array([0.2, 0.5, 0.3]))
    assert kl_cov_select(lp, np.array([1.0, 1.0, 1.0]), 0.0002) == [0]
    assert kl_cov_select(lp, np.array([1.0, 1.0, 1.0]), 0.5) == [0, 1]


def test_kl_cov_single_token():
    assert kl_cov_select(np.array([-0.5]), np.array([2.0]), 0.0002) == [0]


def test_kl_cov_matches_sort_oracle():
    rng = np.random.default_rng(53)
    lp = rng.uniform(-5, 0, 1000)
    adv = rng.normal(size=1000)
    got = kl_cov_select(lp, adv, 0.002)
    scores = (lp - lp.mean()) * (adv - adv.mean())
    expected = sorted(np.argsort(-scores, kind="stable")[:2].tolist())
    assert got == expected
    assert len(got) == 2


def test_kl_cov_length_mismatch():
    with pytest.raises(ValidationError):
        kl_cov_select(np.zeros(3), np.zeros(4), 0.01)


def test_kl_penalty_identical_dists_zero():
    d = np.array([[0.25, 0.75], [0.25, 0.75]])
    assert kl_penalty_term(d, d, 1.0) == 0.0


def test_kl_penalty_empty_selection_zero():
    assert kl_penalty_term(np.zeros((0, 2)), np.zeros((0, 2)), 1.0) == 0.0


def test_kl_penalty_hand_value():
    old = np.array([[0.5, 0.5]])
    new = np.array([[0.75, 0.25]])
    got = kl_penalty_term(old, new, 1.0)
    assert got == pytest.approx(0.5 * math.log(4 / 3), abs=1e-12)


def test_kl_penalty_nonnegative_random_pairs():
    rng = np.random.default_rng(55)
    for _ in range(200):
        v = rng.dirichlet(np.ones(6))
        w = rng.dirichlet(np.ones(6))
        got = kl_penalty_term(v[None], w[None], 1.0)
        assert got >= 0.0


def test_kl_penalty_validates_indices_and_dists():
    # Old and new rows must pair up one to one, as (k, |V|) arrays.
    d = np.array([[0.5, 0.5]])
    with pytest.raises(ValidationError):
        kl_penalty_term(d, np.repeat(d, 3, axis=0), 1.0)
    with pytest.raises(ValidationError):
        kl_penalty_term(d[0], d[0], 1.0)
    with pytest.raises(ValidationError):
        kl_penalty_term(d, d, -1.0)
