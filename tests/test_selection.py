"""Prompt scoring by uncertainty x diversity and top-K selection."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from heal.errors import ValidationError
from heal.rollouts import RolloutGroup, Trajectory
from heal.selection import (
    DEFAULT_ROLLOUTS_PER_PROMPT,
    DEFAULT_SELECT_K,
    DEFAULT_TEMPERATURE,
    SelectionScore,
    composite_score,
    diversity,
    score_group,
    select_top_k,
    uncertainty,
)

from similarity_oracle import top_fraction_indices


def _group(prompt_id, entropy_rows, verdicts):
    trajs = [
        Trajectory(
            prompt_id=prompt_id,
            domain="general",
            step_entropies=np.asarray(row, dtype=np.float64),
            trajectory_index=i,
            correct=v,
        )
        for i, (row, v) in enumerate(zip(entropy_rows, verdicts))
    ]
    return RolloutGroup(prompt_id=prompt_id, domain="general", trajectories=trajs)


def _score(prompt_id, composite):
    return SelectionScore(
        prompt_id=prompt_id, accuracy=0.5, uncertainty=1.0,
        diversity=composite, composite=composite,
    )


def test_accuracy_counts_verdicts():
    g = _group("p", [[1.0]] * 8, [1, 1, 1, 1, 1, 1, 0, 0])
    assert g.accuracy() == 0.75
    # c / n has the bits of the mean of the 0/1 verdicts.
    for n in range(1, 40):
        for c in range(n + 1):
            verdicts = [1] * c + [0] * (n - c)
            assert _group("p", [[1.0]] * n, verdicts).accuracy() == float(np.mean(verdicts))
    assert _group("p", [[1.0]] * 4, [1, 1, 1, 1]).accuracy() == 1.0
    assert _group("p", [[1.0]] * 4, [0, 0, 0, 0]).accuracy() == 0.0


def test_accuracy_requires_verdicts():
    g = _group("p", [[1.0], [1.0]], [1, None])
    with pytest.raises(ValidationError, match="^trajectory p/1 has no correctness verdict$"):
        g.accuracy()


def test_uncertainty_formula_points():
    assert uncertainty(0.5) == 1.0
    assert uncertainty(0.0) == 0.0
    assert uncertainty(1.0) == 0.0
    assert uncertainty(0.75) == 0.5


def test_uncertainty_symmetry_exact():
    # dyadic grid: both a and 1-a are exactly representable, so the
    # symmetry must hold bitwise
    for k in range(129):
        a = k / 128
        assert uncertainty(a) == uncertainty(1 - a)


def test_uncertainty_rejects_out_of_range():
    with pytest.raises(ValidationError):
        uncertainty(1.2)
    with pytest.raises(ValidationError):
        uncertainty(-0.1)


def test_diversity_top_fraction_single_trajectory():
    # ceil(0.2*5) = 1 -> top entropy only
    g = _group("p", [[1.0, 2.0, 3.0, 4.0, 10.0]], [1])
    assert diversity(g) == 10.0


def test_diversity_pools_across_trajectories():
    g = _group("p", [[1.0, 2.0, 3.0, 4.0, 10.0], [0.0, 6.0, 1.0, 2.0, 3.0]], [1, 0])
    assert diversity(g) == pytest.approx(8.0, abs=1e-15)


def test_diversity_zero_entropies():
    g = _group("p", [[0.0, 0.0], [0.0]], [1, 0])
    assert diversity(g) == 0.0


def test_diversity_permutation_invariant():
    rows = [[0.4, 2.2, 1.1, 0.9, 3.3], [1.5, 0.2, 2.8]]
    a = diversity(_group("p", rows, [1, 0]))
    b = diversity(_group("p", rows[::-1], [0, 1]))
    c = diversity(_group("p", [row[::-1] for row in rows], [1, 0]))
    assert a == b == c


# Signed zeros, ties, subnormals and values whose pooled mean overflows.
_ENTROPY_EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0, 2.5, 1e308,
                  1.7976931348623157e308]
_ENTROPIES = st.one_of(st.sampled_from(_ENTROPY_EDGES),
                       st.floats(0.0, allow_nan=False, allow_infinity=False))


def _diversity_oracle(group):
    """The mean of each rollout's entries at its stable top-fraction indices."""
    pool = [t.step_entropies[top_fraction_indices(t.step_entropies)] for t in group.trajectories]
    return float(np.mean(np.concatenate(pool)))


@given(st.lists(st.lists(_ENTROPIES, min_size=1, max_size=40), min_size=1, max_size=8))
@example([[0.0, -0.0, -0.0, 0.0, -0.0, 0.0]])
@example([[-0.0], [-0.0, -0.0]])
@example([[1e308, 1.7976931348623157e308], [1e308]])
@example([[2.5, 1.0, 2.5, 5e-324, 2.5, 1.0, 0.0]])
def test_diversity_has_the_bits_of_the_stable_argsort_pool(rows):
    # Only equal values can change places between the two pools, and the
    # only equal floats with different bits are 0.0 and -0.0.
    g = _group("p", rows, [1] * len(rows))
    with np.errstate(over="ignore"):
        assert repr(diversity(g)) == repr(_diversity_oracle(g))


def test_composite_products():
    assert composite_score(1.0, 2.0) == 2.0
    assert composite_score(0.0, 123.0) == 0.0
    assert composite_score(0.5, 1.2) == pytest.approx(0.6, abs=1e-15)


def test_composite_validates_ranges():
    with pytest.raises(ValidationError):
        composite_score(1.5, 1.0)
    with pytest.raises(ValidationError):
        composite_score(0.5, -1.0)


def test_score_group_consistency():
    g = _group("p", [[1.0, 2.0, 3.0, 4.0, 10.0]] * 8, [1, 1, 1, 1, 1, 1, 0, 0])
    s = score_group(g)
    assert s.prompt_id == "p"
    assert s.accuracy == 0.75
    assert s.uncertainty == 0.5
    assert s.diversity == 10.0
    assert s.composite == pytest.approx(s.uncertainty * s.diversity, abs=1e-12)


def test_select_top_k_order_statistics():
    scores = [_score("a", 0.9), _score("b", 0.1), _score("c", 0.5)]
    assert select_top_k(scores, 2) == ["a", "c"]
    assert select_top_k(scores, 10) == ["a", "c", "b"]


def test_select_top_k_stable_ties():
    scores = [_score("a", 0.5), _score("b", 0.5), _score("c", 0.5)]
    assert select_top_k(scores, 2) == ["a", "b"]


def test_select_top_k_empty_and_bad_k():
    assert select_top_k([], 3) == []
    with pytest.raises(ValidationError):
        select_top_k([_score("a", 1.0)], 0)


def test_select_top_k_ignores_strictly_smaller_newcomer():
    scores = [_score("a", 0.9), _score("b", 0.7), _score("c", 0.8)]
    base = select_top_k(scores, 2)
    extended = select_top_k(scores + [_score("d", 0.69)], 2)
    assert base == extended


def test_select_top_k_matches_exhaustive_subsets():
    rng = np.random.default_rng(21)
    for trial in range(20):
        n = int(rng.integers(1, 13))
        scores = [_score(f"p{i}", float(rng.uniform(0, 5))) for i in range(n)]
        k = int(rng.integers(1, n + 1))
        chosen = select_top_k(scores, k)
        best = max(
            itertools.combinations(range(n), k),
            key=lambda subset: sum(scores[i].composite for i in subset),
        )
        assert sum(s.composite for s in scores if s.prompt_id in chosen) == pytest.approx(
            sum(scores[i].composite for i in best), abs=1e-12
        )


def test_paper_defaults():
    assert DEFAULT_SELECT_K == 384
    assert DEFAULT_ROLLOUTS_PER_PROMPT == 8
    assert DEFAULT_TEMPERATURE == 0.7
