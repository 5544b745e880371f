"""Intra/inter-domain similarity maxima and the binary alignment bonus."""

import re
import warnings

import numpy as np
import pytest

from heal.eda import batch_rewards
from heal.errors import ValidationError
from heal.rollouts import Trajectory

from eda_oracle import naive_rewards
from similarity_oracle import sim_kl


def _traj(prompt_id, domain, entropies, correct=0, index=0):
    return Trajectory(
        prompt_id=prompt_id,
        domain=domain,
        step_entropies=np.asarray(entropies, dtype=np.float64),
        trajectory_index=index,
        correct=correct,
    )


def _first(batch):
    """The reward record of the batch's first trajectory."""
    return batch_rewards(batch)[0]


def test_intra_excludes_only_self():
    t = _traj("p", "target", [1.0, 2.0])
    dup = _traj("p", "target", [1.0, 2.0], index=1)
    assert _first([t, dup]).s_intra == 0.0


def test_intra_alone_is_absent():
    t = _traj("p", "target", [1.0, 2.0])
    assert _first([t]).s_intra is None


def test_intra_matches_explicit_loop():
    rng = np.random.default_rng(31)
    targets = [_traj(f"p{i}", "target", rng.uniform(0, 3, rng.integers(1, 9)), index=i)
               for i in range(8)]
    for t, r in zip(targets, batch_rewards(targets)):
        expected = max(sim_kl(t.step_entropies, o.step_entropies) for o in targets if o is not t)
        assert r.s_intra == expected


def test_inter_empty_pool_absent():
    t = _traj("p", "target", [1.0, 2.0])
    assert _first([t]).s_inter is None


def test_inter_with_exact_copy_is_zero():
    t = _traj("p", "target", [1.0, 2.0])
    g = _traj("g", "general", [1.0, 2.0])
    assert _first([t, g]).s_inter == 0.0


def test_inter_no_self_exclusion():
    rng = np.random.default_rng(33)
    t = _traj("p", "target", rng.uniform(0, 3, 5))
    generals = [_traj(f"g{i}", "general", rng.uniform(0, 3, rng.integers(1, 9)))
                for i in range(6)]
    assert _first([t] + generals).s_inter == max(
        sim_kl(t.step_entropies, g.step_entropies) for g in generals
    )


def test_bonus_inter_must_strictly_exceed_intra():
    # target pair is mutually dissimilar, general pool holds an exact copy:
    # s_inter = 0 > s_intra < 0 -> bonus
    t = _traj("p", "target", [3.0, 0.0, 3.0, 0.0])
    far = _traj("q", "target", [0.0, 3.0, 0.0, 3.0], index=1)
    g = _traj("g", "general", [3.0, 0.0, 3.0, 0.0])
    assert _first([t, far, g]).r_eda == 1


def test_bonus_tie_gives_zero():
    # duplicate in both pools: s_intra = s_inter = 0 exactly
    t = _traj("p", "target", [1.0, 2.0])
    dup = _traj("p", "target", [1.0, 2.0], index=1)
    g = _traj("g", "general", [1.0, 2.0])
    assert _first([t, dup, g]).r_eda == 0


def test_bonus_empty_general_gives_zero():
    t = _traj("p", "target", [1.0, 2.0])
    dup = _traj("p", "target", [1.0, 2.0], index=1)
    assert _first([t, dup]).r_eda == 0


def test_bonus_lone_target_with_general_pool():
    # absent intra compares as -inf, any real inter wins
    t = _traj("p", "target", [1.0, 2.0])
    g = _traj("g", "general", [2.0, 1.0])
    assert _first([t, g]).r_eda == 1


def test_bonus_both_absent_gives_zero():
    t = _traj("p", "target", [1.0, 2.0])
    assert _first([t]).r_eda == 0


def test_batch_rewards_all_target_batch():
    rng = np.random.default_rng(35)
    batch = [_traj(f"p{i}", "target", rng.uniform(0, 3, 4), correct=int(rng.integers(2)),
                   index=i) for i in range(6)]
    records = batch_rewards(batch)
    for t, r in zip(batch, records):
        assert r.r_eda == 0
        assert r.total == r.r_acc == int(t.correct)
        assert r.s_inter is None


def test_batch_rewards_requires_verdicts():
    t = _traj("p", "target", [1.0], correct=None)
    with pytest.raises(ValidationError, match="^trajectory p/0 has no correctness verdict$"):
        batch_rewards([t])


def test_batch_rewards_general_rows_carry_no_similarities():
    batch = [
        _traj("p", "target", [1.0, 2.0], correct=1),
        _traj("g", "general", [2.0, 1.0], correct=0),
    ]
    records = batch_rewards(batch)
    by_id = {r.trajectory_id: r for r in records}
    assert by_id["g/0"].r_eda == 0
    assert by_id["g/0"].s_intra is None and by_id["g/0"].s_inter is None
    assert by_id["p/0"].r_eda == 1  # lone target, general pool present


def test_batch_rewards_invariant_bonus_implies_inter_above_intra():
    rng = np.random.default_rng(37)
    batch = []
    for i in range(40):
        domain = "target" if rng.random() < 0.6 else "general"
        batch.append(_traj(f"p{i}", domain, rng.uniform(0, 3, rng.integers(1, 12)),
                           correct=int(rng.integers(2))))
    for r in batch_rewards(batch):
        assert r.total == r.r_acc + r.r_eda
        if r.r_eda == 1 and r.s_intra is not None and r.s_inter is not None:
            assert r.s_inter > r.s_intra


def test_batch_rewards_matches_brute_force_all_sims():
    rng = np.random.default_rng(39)
    for sim_name in ("kl", "hti", "pl"):
        for _ in range(5):
            batch = []
            for i in range(int(rng.integers(2, 33))):
                domain = "target" if rng.random() < 0.5 else "general"
                batch.append(_traj(f"p{i}", domain,
                                   rng.uniform(0, np.log(32), rng.integers(1, 20)),
                                   correct=int(rng.integers(2))))
            got = [(r.trajectory_id, r.r_acc, r.r_eda, r.total, r.s_intra, r.s_inter)
                   for r in batch_rewards(batch, sim_name)]
            want = [(t.trajectory_id, a, e, a + e, s_i, s_o)
                    for t, (a, e, s_i, s_o) in zip(batch, naive_rewards(batch, sim_name))]
            assert got == want


def test_batch_rewards_shift_invariance_of_bonus():
    rng = np.random.default_rng(41)
    batch = []
    for i in range(20):
        domain = "target" if i % 2 else "general"
        batch.append(_traj(f"p{i}", domain, rng.uniform(0, 2, rng.integers(2, 9)),
                           correct=int(rng.integers(2))))
    base = [r.r_eda for r in batch_rewards(batch)]
    shifted_batch = [
        _traj(t.prompt_id, t.domain, t.step_entropies + 0.9, correct=t.correct)
        for t in batch
    ]
    shifted = [r.r_eda for r in batch_rewards(shifted_batch)]
    assert base == shifted


@pytest.mark.parametrize("sim, curves, message", [
    # A flat target's KL to spiked curves is inf (their softmax weights
    # underflow to 0), so its s_intra and s_inter are -inf; b and c are finite.
    ("kl", [("b", "target", [1000.0, 0.0]), ("g", "general", [1000.0, 0.0]),
            ("a", "target", [0.0, 0.0]), ("c", "target", [1000.0, 0.0])],
     "target a/0: s_intra is -inf, not a finite kl similarity"),
    # No intra pool: the first non-finite value is an s_inter.
    ("kl", [("a", "target", [0.0, 0.0]), ("g", "general", [1000.0, 0.0])],
     "target a/0: s_inter is -inf, not a finite kl similarity"),
    # Two top-20% steps of 1e308 each: the min-sum overflows to inf.
    ("hti", [("a", "target", [1e308] * 10), ("b", "target", [1e308] * 10)],
     "target a/0: s_intra is inf, not a finite hti similarity"),
], ids=["kl-intra", "kl-inter", "hti"])
def test_batch_rewards_rejects_non_finite_similarity(sim, curves, message):
    batch = [_traj(p, d, e, correct=1) for p, d, e in curves]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            batch_rewards(batch, sim)
