"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Each test computes its criterion verdict, records a PASS/FAIL line for the
terminal summary, and only then asserts, so a failing criterion still
reports a line instead of vanishing into a traceback.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from heal.analysis import pass_at_k
from heal.dynamics import TOP_FRACTION, sim_hti, sim_kl, sim_pl
from heal.eda import batch_rewards
from heal.regularizers import (
    REGULARIZER_NAMES,
    clip_ratio_asymmetric,
    kl_penalty_term,
)
from heal.rollouts import Trajectory
from heal.selection import (
    DEFAULT_ROLLOUTS_PER_PROMPT,
    DEFAULT_SELECT_K,
    DEFAULT_TEMPERATURE,
    SelectionScore,
    composite_score,
    select_top_k,
    uncertainty,
)
from heal.simulator import TrainConfig, make_task_suite, rollout_tasks, train
from heal.simulator.training import _flatten_batch, _loss_and_grad
from heal.trace_io import read_trace_records, write_traces

from eda_oracle import naive_rewards
from trace_oracle import trace_mismatches

MAX_ENTROPY = math.log(32.0)


def _report(criteria_log, number, label, failures):
    verdict = "PASS" if not failures else "FAIL"
    line = f"criterion {number} [{label}]: {verdict}"
    criteria_log.append(line)
    print(line)
    assert not failures, f"{line} :: " + "; ".join(failures)


def _random_batch(rng):
    batch = []
    size = int(rng.integers(1, 65))
    for i in range(size):
        domain = "target" if rng.random() < 0.6 else "general"
        length = int(rng.integers(1, 41))
        batch.append(
            Trajectory(
                prompt_id=f"p{i}",
                domain=domain,
                step_entropies=rng.uniform(0.0, MAX_ENTROPY, length),
                trajectory_index=0,
                correct=int(rng.integers(0, 2)),
            )
        )
    return batch


def _close_or_both_none(x, y, tol):
    if x is None or y is None:
        return x is None and y is None
    return abs(x - y) <= tol


def test_criterion_1_eda_reward_oracle(criteria_log):
    rng = np.random.default_rng(12345)
    failures = []
    started = time.monotonic()
    for batch_i in range(50):
        sim_name = ("kl", "hti", "pl")[batch_i % 3]
        batch = _random_batch(rng)
        got = batch_rewards(batch, sim_name)
        want = naive_rewards(batch, sim_name)
        for rec, (r_acc, r_eda, s_intra, s_inter) in zip(got, want):
            if rec.r_acc != r_acc or rec.r_eda != r_eda:
                failures.append(
                    f"batch {batch_i} ({sim_name}) {rec.trajectory_id}: "
                    f"r=({rec.r_acc},{rec.r_eda}) want ({r_acc},{r_eda})"
                )
            if not _close_or_both_none(rec.s_intra, s_intra, 1e-12):
                failures.append(f"batch {batch_i} {rec.trajectory_id}: s_intra off")
            if not _close_or_both_none(rec.s_inter, s_inter, 1e-12):
                failures.append(f"batch {batch_i} {rec.trajectory_id}: s_inter off")
    elapsed = time.monotonic() - started
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    _report(criteria_log, 1, "EDA rewards match the brute-force oracle", failures[:5])


def test_criterion_2_similarity_identities(criteria_log):
    rng = np.random.default_rng(22)
    failures = []
    for _ in range(1000):
        a = rng.uniform(0, MAX_ENTROPY, rng.integers(2, 41))
        b = rng.uniform(0, MAX_ENTROPY, rng.integers(2, 41))
        if abs(sim_kl(a, a)) > 1e-12:
            failures.append("sim_kl self-similarity nonzero")
        c1, c2 = rng.uniform(0, 5), rng.uniform(0, 5)
        shifted = sim_kl(a + c1, b + c2)
        if abs(shifted - sim_kl(a, b)) > 1e-9:
            failures.append("sim_kl not shift invariant")
        if abs(sim_hti(a, b) - sim_hti(b, a)) > 1e-12:
            failures.append("sim_hti asymmetric")
        pl = sim_pl(a, b)
        if not 0.0 <= pl <= 1.0:
            failures.append(f"sim_pl {pl} outside [0, 1]")
        if failures:
            break
    t = np.arange(9.0)
    for m in (0.5, 1.0, 2.0):
        line_a = 1.0 + m * t
        line_b = 1.0 + 2 * t.max() / m + (-1.0 / m) * t
        if abs(sim_pl(line_a, line_b)) > 1e-12:
            failures.append(f"perpendicular lines (slope {m}) give sim_pl != 0")
    _report(criteria_log, 2, "similarity identities", failures[:5])


def test_criterion_3_selection_formulas(criteria_log):
    rng = np.random.default_rng(33)
    failures = []
    for k in range(257):
        a = k / 256.0
        if uncertainty(a) != uncertainty(1.0 - a):
            failures.append(f"uncertainty asymmetric at {a}")
    for c in range(9):
        if uncertainty(c / 8) != uncertainty((8 - c) / 8):
            failures.append(f"uncertainty asymmetric at {c}/8")
    for _ in range(200):
        u, d = float(rng.uniform(0, 1)), float(rng.uniform(0, 4))
        if abs(composite_score(u, d) - u * d) > 1e-12:
            failures.append("composite is not uncertainty * diversity")
    for trial in range(60):
        n = int(rng.integers(1, 13))
        values = rng.choice([0.0, 0.25, 0.5, 1.0, rng.uniform(0, 2)], size=n)
        scores = [
            SelectionScore(f"p{i}", 0.5, 1.0, float(v), float(v))
            for i, v in enumerate(values)
        ]
        by_id = {s.prompt_id: s.composite for s in scores}
        for k in range(1, n + 1):
            chosen = select_top_k(scores, k)
            got = sum(by_id[pid] for pid in chosen)
            best = max(
                sum(values[i] for i in combo)
                for combo in itertools.combinations(range(n), k)
            )
            if len(chosen) != k or got < best - 1e-12:
                failures.append(f"top-{k} of {n} is not subset-optimal")
    if (DEFAULT_SELECT_K, DEFAULT_ROLLOUTS_PER_PROMPT) != (384, 8):
        failures.append("selection pool defaults changed")
    if DEFAULT_TEMPERATURE != 0.7 or TOP_FRACTION != 0.20:
        failures.append("sampling temperature or top-step fraction changed")
    _report(criteria_log, 3, "selection formulas and exhaustive top-k", failures[:5])


def _fabricated_flat_batch(rng, n_ctx, vocab):
    batch = []
    for i in range(int(rng.integers(2, 5))):
        length = int(rng.integers(1, 6))
        batch.append(
            (
                Trajectory(
                    prompt_id=f"p{i}",
                    domain="target",
                    step_entropies=rng.uniform(0, 2, length),
                    tokens=[int(v) for v in rng.integers(0, vocab, length)],
                    step_logprobs=-rng.uniform(0.1, 3, length),
                    ctx_ids=rng.integers(0, n_ctx, length),
                ),
                float(rng.normal()),
            )
        )
    return batch


def test_criterion_4_gradient_correctness(criteria_log):
    rng = np.random.default_rng(44)
    vocab = 9  # 9 x 9 logit table: 81 parameters
    failures = []
    h = 1e-5
    for trial in range(20):
        table = rng.normal(0.0, 0.7, (vocab, vocab))
        temperature = float(rng.uniform(0.5, 1.5))
        alpha = float(rng.uniform(0.1, 1.0))
        batch = _fabricated_flat_batch(rng, vocab, vocab)
        zeroed = [(t, 0.0) for t, _ in batch]
        cases = [
            ("policy gradient", "none", batch),
            ("entropy term", "entropy_loss", zeroed),
            ("combined", "entropy_loss", batch),
        ]
        for label, name, data in cases:
            flat = _flatten_batch(data)
            cfg = TrainConfig(
                mode="fewshot", temperature=temperature, regularizer=name, alpha=alpha
            )

            whole = slice(0, flat.ctx.size)

            def loss_of(tbl):
                return _loss_and_grad(tbl, flat, whole, cfg)[0]

            _, grad = _loss_and_grad(table, flat, whole, cfg)
            fd = np.zeros_like(table)
            for i in range(vocab):
                for j in range(vocab):
                    up, dn = table.copy(), table.copy()
                    up[i, j] += h
                    dn[i, j] -= h
                    fd[i, j] = (loss_of(up) - loss_of(dn)) / (2 * h)
            rel = np.max(np.abs(fd - grad)) / max(np.max(np.abs(grad)), 1e-12)
            if rel >= 1e-4:
                failures.append(f"trial {trial} {label}: relative error {rel:.2e}")
    _report(criteria_log, 4, "gradients match finite differences", failures[:5])


def test_criterion_5_regularizer_constants(criteria_log):
    rng = np.random.default_rng(55)
    failures = []
    cfg = TrainConfig(mode="fewshot")
    constants = (cfg.alpha, cfg.gamma, cfg.eps_high, cfg.eps_low, cfg.k_frac, cfg.beta)
    if constants != (0.001, 0.20, 0.28, 0.20, 0.0002, 1.0):
        failures.append(f"default constants {constants}")
    if REGULARIZER_NAMES != ("none", "entropy_loss", "mask_8020", "clip_higher", "kl_cov"):
        failures.append("regularizer name set changed")
    if clip_ratio_asymmetric(1.5) != 1.28 or clip_ratio_asymmetric(0.5) != 0.8:
        failures.append("asymmetric clip values moved")
    for _ in range(1000):
        old = rng.dirichlet(np.ones(8))[None]
        new = rng.dirichlet(np.ones(8))[None]
        if kl_penalty_term(old, new, 1.0) < 0.0:
            failures.append("kl penalty went negative")
            break
    for _ in range(100):
        d = rng.dirichlet(np.ones(8))[None]
        if abs(kl_penalty_term(d, d, 1.0)) > 1e-12:
            failures.append("kl penalty nonzero on identical pair")
            break
    _report(criteria_log, 5, "regularizer constants and penalties", failures[:5])


def _phenomena_config(mode, seed):
    kwargs = dict(
        mode=mode, steps=200, learning_rate=5.0, batch_size=32, max_len=6,
        log_every=200, seed=seed,
    )
    if mode == "fewshot":
        kwargs.update(n_target=4)
    elif mode == "fullshot":
        kwargs.update(n_target=256)
    else:
        kwargs.update(n_target=4, n_general=32, general_fraction=0.7)
    return TrainConfig(**kwargs)


def _final_target_accuracy(cfg, policy):
    """The fraction correct in the final metrics row's target rollouts: the
    eval target prompts sampled again with that row's own streams."""
    eval_target = make_task_suite(cfg.seed, cfg.n_target, 0)[: cfg.eval_prompts]
    groups = rollout_tasks(policy, eval_target, cfg.rollouts_per_prompt, cfg.temperature,
                           cfg.max_len, cfg.seed, "eval-target", cfg.steps)
    return float(np.mean([g.accuracy() for g in groups]))


@pytest.fixture(scope="module")
def phenomena_runs():
    """Final-step target entropy, dynamics spread and target accuracy for
    the four data regimes over five seeds; shared by the three qualitative
    criteria."""
    started = time.monotonic()
    results = {}
    for mode in ("fewshot", "fullshot", "hybrid", "heal"):
        for seed in range(1, 6):
            cfg = _phenomena_config(mode, seed)
            record = train(cfg)
            last = record.metrics[-1]
            results[(mode, seed)] = (last.mean_entropy_target, last.mean_ed_distance,
                                     _final_target_accuracy(cfg, record.policy))
    results["elapsed"] = time.monotonic() - started
    return results


def test_criterion_6_entropy_collapse_ordering(criteria_log, phenomena_runs):
    failures = []
    seeds = range(1, 6)
    few_below_full = sum(
        phenomena_runs[("fewshot", s)][0] < phenomena_runs[("fullshot", s)][0]
        for s in seeds
    )
    hybrid_above_few = sum(
        phenomena_runs[("hybrid", s)][0] > phenomena_runs[("fewshot", s)][0]
        for s in seeds
    )
    heal_at_least_hybrid = sum(
        phenomena_runs[("heal", s)][0] >= phenomena_runs[("hybrid", s)][0]
        for s in seeds
    )
    if few_below_full < 4:
        failures.append(f"few-shot below full-shot in only {few_below_full}/5 seeds")
    if hybrid_above_few < 4:
        failures.append(f"hybrid above few-shot in only {hybrid_above_few}/5 seeds")
    if heal_at_least_hybrid < 4:
        failures.append(f"heal at/above hybrid in only {heal_at_least_hybrid}/5 seeds")
    if phenomena_runs["elapsed"] >= 300.0:
        failures.append(f"runs took {phenomena_runs['elapsed']:.0f}s, budget 300s")
    _report(criteria_log, 6, "entropy-collapse ordering across data regimes", failures)


def test_criterion_7_dynamics_diversity_trend(criteria_log, phenomena_runs):
    failures = []
    wins = sum(
        phenomena_runs[("heal", s)][1] > phenomena_runs[("fewshot", s)][1]
        for s in range(1, 6)
    )
    if wins < 4:
        failures.append(f"heal spread above few-shot in only {wins}/5 seeds")
    _report(criteria_log, 7, "dynamics diversity under alignment training", failures)


def test_criterion_8_pass_at_k_exactness(criteria_log):
    failures = []
    for n in range(1, 13):
        for c in range(n + 1):
            for k in range(1, n + 1):
                hits = sum(
                    1
                    for combo in itertools.combinations(range(n), k)
                    if any(i < c for i in combo)
                )
                exact = float(Fraction(hits, math.comb(n, k)))
                if pass_at_k(n, c, k) != exact:
                    failures.append(f"pass@{k} wrong at n={n} c={c}")
    for n in range(1, 21):
        for c in range(n + 1):
            values = [pass_at_k(n, c, k) for k in range(1, n + 1)]
            if any(b < a for a, b in zip(values, values[1:])):
                failures.append(f"not monotone in k at n={n} c={c}")
        for k in range(1, n + 1):
            values = [pass_at_k(n, c, k) for c in range(n + 1)]
            if any(b < a for a, b in zip(values, values[1:])):
                failures.append(f"not monotone in c at n={n} k={k}")
    _report(criteria_log, 8, "pass@k matches subset enumeration", failures[:5])


def _fuzz_records(rng, count):
    # A valid trace gives each prompt one domain and each (prompt_id,
    # trajectory_index) pair once: the first draw fixes a prompt's domain and
    # indices count up within each prompt.
    trajectories = []
    domains: dict[str, str] = {}
    seen: dict[str, int] = {}
    for i in range(count):
        length = int(rng.integers(1, 13))
        tokens = None
        logprobs = None
        answer = None
        extras = None
        if rng.random() < 0.5:
            tokens = [int(v) for v in rng.integers(0, 12, length)]
        if rng.random() < 0.5:
            logprobs = [float(v) for v in -rng.uniform(0, 8, length)]
        if rng.random() < 0.5:
            answer = f"ans-{i}"
        if rng.random() < 0.3:
            extras = {"tag": int(rng.integers(0, 1000))}
        prompt_id = f"p{int(rng.integers(0, 500))}"
        domain = domains.setdefault(prompt_id, "target" if rng.random() < 0.5 else "general")
        seen[prompt_id] = seen.get(prompt_id, -1) + 1
        trajectories.append(
            Trajectory(
                prompt_id=prompt_id,
                domain=domain,
                trajectory_index=seen[prompt_id],
                step_entropies=[float(v) for v in rng.uniform(0, MAX_ENTROPY, length)],
                correct=int(rng.integers(0, 2)),
                tokens=tokens,
                step_logprobs=logprobs,
                answer=answer,
                extras=extras,
            )
        )
    return trajectories


def test_criterion_9_determinism_and_round_trip(criteria_log, tmp_path):
    failures = []
    cfg = TrainConfig(
        mode="heal", n_target=2, n_general=4, rollouts_per_prompt=4,
        batch_size=8, steps=10, learning_rate=1.0, max_len=4, log_every=2,
        eval_prompts=4,
    )
    train(cfg, tmp_path / "a")
    train(cfg, tmp_path / "b")
    first = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    second = (tmp_path / "b" / "metrics.jsonl").read_bytes()
    if first != second:
        failures.append("metrics.jsonl differs between identical runs")
    rng = np.random.default_rng(99)
    trajectories = _fuzz_records(rng, 10_000)
    path = tmp_path / "fuzz.jsonl"
    write_traces(trajectories, path)
    mismatches = trace_mismatches(read_trace_records(path), trajectories)
    if mismatches:
        failures.append(
            f"{len(mismatches)} of 10000 records changed in round-trip, first {mismatches[0]}"
        )
    _report(criteria_log, 9, "bit-identical reruns and trace round-trip", failures)


def test_criterion_10_heal_learns_the_target(criteria_log, phenomena_runs):
    # HEAL's claim is few-shot performance, and entropy is its mechanism. A
    # heal run trains on the few-shot target prompts plus general data, so it
    # must keep at least half of few-shot's final target accuracy on the
    # same seed; the threshold is that half, fixed by this principle.
    failures = []
    wins = sum(
        phenomena_runs[("heal", s)][2] >= 0.5 * phenomena_runs[("fewshot", s)][2]
        for s in range(1, 6)
    )
    if wins < 4:
        failures.append(f"heal at half of few-shot's target accuracy in only {wins}/5 seeds")
    _report(criteria_log, 10, "heal learns the target", failures)
