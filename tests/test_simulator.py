"""Synthetic tasks, tabular policy, rollout engine, and training loop."""

import copy
import dataclasses
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from heal.entropy import LOG_FLOOR, entropy_from_logits, entropy_of_prob_rows, softmax_probs
from heal.errors import DivergenceError, ValidationError
from heal.regularizers import REGULARIZER_NAMES, high_entropy_mask, kl_cov_select
from heal.rollouts import Trajectory
from heal.simulator import (
    END_TOKEN,
    PAD_TOKEN,
    VOCAB_SIZE,
    TabularPolicy,
    TrainConfig,
    config_text,
    grpo_advantages,
    ground_truth_for,
    load_config,
    make_task_suite,
    parse_config,
    policy_gradient_step,
    rollout_tasks,
    train,
)
from heal.simulator.policy import MAGIC
from heal.simulator.rollout import (
    _verdicts,
    prompt_uid,
    rng_stream,
    rollout_slots,
    slot_uniforms,
)
from heal.simulator.training import (
    _flatten_batch,
    _loss_and_grad,
    _row_factors,
    _term_buffers,
)
from heal.trace_io import read_metrics, read_trace_records, write_traces

from eda_oracle import naive_rewards
from gradient_oracle import (
    oracle_plain_loss_and_grad,
    oracle_policy_gradient_step,
    oracle_ratio_chunk_grad,
)
from similarity_oracle import sim_kl
from trace_oracle import trace_mismatches


# The per-sequence verdict: the oracle for the rollout's vectorized verdicts.
def extract_answer(tokens: list[int]) -> tuple[int, ...]:
    """Generated tokens up to (excluding) the first end token."""
    if END_TOKEN in tokens:
        return tuple(tokens[: tokens.index(END_TOKEN)])
    return tuple(tokens)


def check_answer(task, answer_tokens: tuple[int, ...]) -> int:
    """1 when the extracted answer matches the ground truth exactly, else 0."""
    return int(tuple(answer_tokens) == task.ground_truth)


def test_task_suite_deterministic_and_counted():
    a = make_task_suite(3, 5, 7)
    b = make_task_suite(3, 5, 7)
    assert a == b
    assert sum(t.domain == "target" for t in a) == 5
    assert sum(t.domain == "general" for t in a) == 7
    assert len({t.prompt_id for t in a}) == 12
    families = [t.family for t in a if t.domain == "general"]
    assert families[:3] == ["reverse", "copy", "parity"]


def test_task_ground_truths():
    assert ground_truth_for("modsum", (1, 2, 3)) == (6,)
    assert ground_truth_for("modsum", (9, 9, 9)) == (7,)
    assert ground_truth_for("reverse", (1, 2, 3)) == (3, 2, 1)
    assert ground_truth_for("copy", (4, 0, 4)) == (4, 0, 4)
    assert ground_truth_for("parity", (1, 2, 3)) == (0,)
    assert ground_truth_for("parity", (1, 2, 4)) == (1,)
    for task in make_task_suite(0, 4, 6):
        assert check_answer(task, task.ground_truth) == 1
        assert check_answer(task, task.ground_truth + (0,)) == 0


def test_task_validation():
    with pytest.raises(ValidationError):
        ground_truth_for("sort", (1, 2, 3))
    with pytest.raises(ValidationError):
        ground_truth_for("modsum", (1, 2, 10))
    with pytest.raises(ValidationError):
        make_task_suite(0, -1, 0)
    with pytest.raises(ValidationError):
        make_task_suite(0, 1001, 0)


def test_extract_answer_stops_at_end_token():
    assert extract_answer([1, 2, END_TOKEN, 5]) == (1, 2)
    assert extract_answer([END_TOKEN]) == ()
    assert extract_answer([7, 8]) == (7, 8)


def test_policy_context_encoding():
    policy = TabularPolicy(VOCAB_SIZE, 2)
    assert policy.context_id([]) == PAD_TOKEN * VOCAB_SIZE + PAD_TOKEN
    assert policy.context_id([3]) == PAD_TOKEN * VOCAB_SIZE + 3
    assert policy.context_id([1, 2, 3]) == 2 * VOCAB_SIZE + 3


def test_policy_advance_matches_reencoding():
    rng = np.random.default_rng(11)
    policy = TabularPolicy(VOCAB_SIZE, 2)
    seqs = [list(rng.integers(0, VOCAB_SIZE, 5)) for _ in range(10)]
    ctx = np.array([policy.context_id(s) for s in seqs])
    nxt = rng.integers(0, VOCAB_SIZE, 10)
    moved = policy.advance_context(ctx, nxt)
    expected = np.array([policy.context_id(s + [int(t)]) for s, t in zip(seqs, nxt)])
    np.testing.assert_array_equal(moved, expected)


def test_policy_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    policy = TabularPolicy(VOCAB_SIZE, 2, rng.normal(size=(VOCAB_SIZE**2, VOCAB_SIZE)))
    path = tmp_path / "policy.bin"
    policy.save(path)
    loaded = TabularPolicy.load(path)
    assert loaded.vocab_size == policy.vocab_size
    assert loaded.context_window == policy.context_window
    np.testing.assert_array_equal(loaded.table, policy.table)


def test_policy_load_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTAPOLICYFILE bytes")
    with pytest.raises(ValidationError):
        TabularPolicy.load(bad)
    good = tmp_path / "short.bin"
    policy = TabularPolicy(VOCAB_SIZE, 1)
    policy.save(good)
    good.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(ValidationError):
        TabularPolicy.load(good)
    # A header the constructor would refuse is refused before its table size is computed.
    header = tmp_path / "header.bin"
    for vocab, window, message in [(33, 1, "vocab_size must lie in [2, 32], got 33"),
                                   (VOCAB_SIZE, 4, "context_window must lie in [1, 3], got 4")]:
        header.write_bytes(MAGIC + struct.pack("<II", vocab, window))
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{header}: {message}')}$"):
            TabularPolicy.load(header)


def test_policy_validation():
    with pytest.raises(ValidationError):
        TabularPolicy(1, 1)
    with pytest.raises(ValidationError):
        TabularPolicy(VOCAB_SIZE, 4)
    with pytest.raises(ValidationError):
        TabularPolicy(VOCAB_SIZE, 1, np.zeros((3, 3)))
    table = np.zeros((VOCAB_SIZE, VOCAB_SIZE))
    table[0, 0] = np.inf
    with pytest.raises(ValidationError):
        TabularPolicy(VOCAB_SIZE, 1, table)


def _random_policy(seed, scale=0.5):
    rng = np.random.default_rng(seed)
    return TabularPolicy(VOCAB_SIZE, 1, rng.normal(0.0, scale, (VOCAB_SIZE, VOCAB_SIZE)))


def test_rollout_deterministic():
    policy = _random_policy(17)
    tasks = make_task_suite(0, 2, 2)
    a = rollout_tasks(policy, tasks, 3, 0.9, 5, seed=4, tag="t", step=2)
    b = rollout_tasks(policy, tasks, 3, 0.9, 5, seed=4, tag="t", step=2)
    for ga, gb in zip(a, b):
        for ta, tb in zip(ga.trajectories, gb.trajectories):
            np.testing.assert_array_equal(ta.tokens, tb.tokens)
            np.testing.assert_array_equal(ta.step_entropies, tb.step_entropies)
            np.testing.assert_array_equal(ta.step_logprobs, tb.step_logprobs)


def test_rollout_slot_independent_of_batch_neighbors():
    policy = _random_policy(19)
    tasks = make_task_suite(0, 2, 1)
    together = rollout_tasks(policy, tasks, 2, 0.9, 5, seed=1, tag="t", step=0)
    alone = rollout_tasks(policy, tasks[:1], 2, 0.9, 5, seed=1, tag="t", step=0)
    for ta, tb in zip(together[0].trajectories, alone[0].trajectories):
        np.testing.assert_array_equal(ta.tokens, tb.tokens)
        np.testing.assert_array_equal(ta.step_logprobs, tb.step_logprobs)


def test_rollout_repeated_prompt_gets_fresh_draws():
    policy = _random_policy(23)
    task = make_task_suite(0, 1, 0)[0]
    groups = rollout_tasks(policy, [task, task], 2, 0.9, 6, seed=0, tag="t", step=0)
    first = [t.tokens.tolist() for t in groups[0].trajectories]
    second = [t.tokens.tolist() for t in groups[1].trajectories]
    assert first != second


def test_rollout_numbers_a_repeated_prompt_by_occurrence():
    # A prompt's k-th slot in one call takes trajectory indices k*n to k*n + n - 1.
    a, b = make_task_suite(0, 2, 0)
    groups = rollout_tasks(_random_policy(29), [a, b, a, a, b], 3, 0.9, 4,
                           seed=0, tag="t", step=0)
    assert [(g.prompt_id, [t.trajectory_index for t in g.trajectories]) for g in groups] == [
        (a.prompt_id, [0, 1, 2]), (b.prompt_id, [0, 1, 2]), (a.prompt_id, [3, 4, 5]),
        (a.prompt_id, [6, 7, 8]), (b.prompt_id, [3, 4, 5]),
    ]


def test_training_batch_with_repeated_prompts_writes_as_a_trace(tmp_path, monkeypatch):
    # The heal phenomena config at seed 1 samples its step-1 batch with
    # replacement: 32 slots over 22 distinct prompts, 256 trajectories.
    import heal.simulator.training as training

    batches = []

    def recording(*args):
        groups = rollout_tasks(*args)
        if args[6:] == ("rollout", 1):
            batches.append([t for g in groups for t in g.trajectories])
        return groups

    monkeypatch.setattr(training, "rollout_tasks", recording)
    train(TrainConfig(mode="heal", n_target=4, n_general=32, general_fraction=0.7, steps=1,
                      learning_rate=5.0, batch_size=32, max_len=6, log_every=200, seed=1))
    (batch,) = batches
    assert (len(batch), len({t.prompt_id for t in batch})) == (256, 22)
    path = tmp_path / "step1.jsonl"
    write_traces(batch, path)
    # A trace line has no context-id channel.
    written = [dataclasses.replace(t, ctx_ids=None) for t in batch]
    assert trace_mismatches(read_trace_records(path), written) == []


def test_rollout_zero_table_entropy_is_exact_uniform():
    policy = TabularPolicy(VOCAB_SIZE, 2)
    tasks = make_task_suite(0, 1, 0)
    groups = rollout_tasks(policy, tasks, 2, 0.7, 4, seed=0, tag="t", step=0)
    for t in groups[0].trajectories:
        assert np.all(t.step_entropies == np.log(float(VOCAB_SIZE)))


def test_rollout_channels_are_consistent():
    policy = _random_policy(31)
    tasks = make_task_suite(0, 2, 2)
    groups = rollout_tasks(policy, tasks, 3, 0.8, 6, seed=5, tag="t", step=1)
    by_id = {t.prompt_id: t for t in tasks}
    for g in groups:
        for t in g.trajectories:
            assert t.tokens.dtype == t.ctx_ids.dtype == np.int64
            # The policy table and the context ids give back every stored
            # channel: entropies to rounding, logprobs bit for bit.
            p = softmax_probs(policy.table[t.ctx_ids], 0.8)
            recomputed = entropy_of_prob_rows(p)
            assert np.max(np.abs(t.step_entropies - recomputed)) <= 1e-12
            picked = p[np.arange(t.length), t.tokens]
            np.testing.assert_array_equal(t.step_logprobs, np.log(picked))
            answer = extract_answer(t.tokens.tolist())
            assert t.correct == check_answer(by_id[t.prompt_id], answer)
            assert 1 <= t.length <= 6


def test_rollout_of_no_slots_is_empty():
    policy = TabularPolicy(VOCAB_SIZE, 2)
    assert rollout_tasks(policy, [], 4, 0.7, 6, seed=0, tag="rollout", step=1) == []


@pytest.mark.parametrize("n, max_len", [(0, 4), (-1, 4), (2, 0), (2, -3)])
@pytest.mark.parametrize("n_tasks", [0, 2])
def test_rollout_rejects_bad_sizes_before_seeding(n, max_len, n_tasks):
    tasks = make_task_suite(0, n_tasks, 0)
    with pytest.raises(ValidationError, match="must be >= 1"):
        rollout_tasks(TabularPolicy(VOCAB_SIZE, 2), tasks, n, 0.7, max_len, 0, "t", 0)


def _stream_uniforms(seed, tag, step, prompt_ids, n, max_len):
    """The oracle: one rng_stream per slot, keyed by its prompt's occurrence."""
    seen = {}
    blocks = [np.zeros((0, max_len))]
    for pid in prompt_ids:
        seen[pid] = seen.get(pid, -1) + 1
        blocks.append(rng_stream(seed, tag, step, prompt_uid(pid), seen[pid]).random((n, max_len)))
    return np.concatenate(blocks)


@given(
    st.integers(0, 2**70),
    st.text(max_size=6),
    st.integers(0, 2**40),
    st.lists(st.sampled_from(["t000", "t001", "g002", "", "é"]), max_size=40),
    st.integers(1, 8),
    st.integers(1, 8),
)
@example(2**32, "rollout", 7, ["t000", "t001", "t000"], 2, 3)
@example(3, "eval-target", 2**40, ["g002"] * 5, 1, 8)
@example(2**70, "", 0, [], 4, 6)
def test_slot_uniforms_equal_one_stream_per_slot(seed, tag, step, prompt_ids, n, max_len):
    got = slot_uniforms(seed, tag, step, prompt_ids, n, max_len)
    want = _stream_uniforms(seed, tag, step, prompt_ids, n, max_len)
    assert got.shape == want.shape == (len(prompt_ids) * n, max_len)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


# Every family: the suite's one target family, then the general ones in turn.
_SUITE = make_task_suite(5, 3, 6)
_ROW_KINDS = ("random", "truth", "truth_end", "end_first")


def _answer_case(slots, n, max_len, kinds, rows, lengths):
    """Padded token rows, n per slot; a row of kind truth/truth_end/end_first
    starts with the slot's ground truth, the truth then END, or END (cut to
    max_len), and is at least that long."""
    tokens = np.array(rows, dtype=np.int64).reshape(len(slots) * n, max_len)
    lengths = np.array(lengths, dtype=np.int64)
    for r, kind in enumerate(kinds):
        head = {"random": [], "truth": list(slots[r // n].ground_truth),
                "truth_end": list(slots[r // n].ground_truth) + [END_TOKEN],
                "end_first": [END_TOKEN]}[kind][:max_len]
        tokens[r, : len(head)] = head
        lengths[r] = max(lengths[r], len(head))
    return dict(slots=slots, n=n, tokens=tokens, lengths=lengths)


@st.composite
def answer_cases(draw):
    slots = draw(st.lists(st.sampled_from(_SUITE), min_size=1, max_size=4))
    n = draw(st.integers(1, 3))
    max_len = draw(st.integers(1, 5))
    n_seq = len(slots) * n
    return _answer_case(
        slots, n, max_len,
        draw(st.lists(st.sampled_from(_ROW_KINDS), min_size=n_seq, max_size=n_seq)),
        draw(st.lists(st.integers(0, VOCAB_SIZE - 1),
                      min_size=n_seq * max_len, max_size=n_seq * max_len)),
        draw(st.lists(st.integers(1, max_len), min_size=n_seq, max_size=n_seq)),
    )


@given(answer_cases())
@example(_answer_case(_SUITE[3:5], 1, 2, ["truth", "truth_end"], [1] * 4, [1, 1]))
@example(_answer_case(_SUITE[:1], 2, 3, ["truth_end", "end_first"], [7] * 6, [3, 3]))
@example(_answer_case(_SUITE[4:6], 1, 4, ["truth", "truth"], [5, 6, 7, 8] * 2, [3, 1]))
def test_vectorized_verdicts_match_per_sequence_check(case):
    correct = _verdicts(case["slots"], case["n"], case["tokens"], case["lengths"])
    assert correct.dtype == bool and correct.shape == case["lengths"].shape
    for r, (row, length) in enumerate(zip(case["tokens"].tolist(), case["lengths"].tolist())):
        answer = extract_answer(row[:length])
        assert correct[r] == check_answer(case["slots"][r // case["n"]], answer)


def test_rollout_stops_on_end_token():
    table = np.zeros((VOCAB_SIZE, VOCAB_SIZE))
    table[:, END_TOKEN] = 30.0
    policy = TabularPolicy(VOCAB_SIZE, 1, table)
    tasks = make_task_suite(0, 2, 0)
    groups = rollout_tasks(policy, tasks, 2, 0.7, 6, seed=0, tag="t", step=0)
    for g in groups:
        for t in g.trajectories:
            assert t.tokens.tolist() == [END_TOKEN]
            assert t.answer is None
            assert t.correct == 0


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


# Logit scales up to 800 at temperatures down to 0.05 underflow most of a
# row's probabilities to exact zeros.
_SCALES = (0.0, 0.5, 3.0, 40.0, 800.0)


def _policy_table(seed, context_window, scale):
    rng = np.random.default_rng(seed)
    shape = (VOCAB_SIZE**context_window, VOCAB_SIZE)
    table = rng.normal(0.0, scale, shape)
    # Spikes make some contexts near-deterministic, a few of them on END.
    spikes = rng.random(shape) < 0.05
    return np.where(spikes, scale * 4.0, table)


def _oracle_rollout(policy, tasks, uniforms, n, temperature, max_len):
    """One token at a time: softmax, entropy and cumsum of the one gathered
    logit row, then the log of the chosen probability."""
    V, base = policy.vocab_size, policy.vocab_size ** (policy.context_window - 1)
    seqs = []
    for s, task in enumerate(tasks):
        for j in range(n):
            r = s * n + j
            ctx = policy.context_id(task.prompt_tokens)
            seq = dict(tokens=[], entropies=[], logprobs=[], ctx=[])
            for step_i in range(max_len):
                row = policy.table[[ctx]]
                p = softmax_probs(row, temperature)[0]
                cdf = np.cumsum(p)
                above = cdf > uniforms[r, step_i]
                tok = int(above.argmax()) if above.any() else V - 1
                seq["tokens"].append(tok)
                seq["entropies"].append(entropy_from_logits(row, temperature)[0])
                seq["logprobs"].append(np.log(p[tok]))
                seq["ctx"].append(ctx)
                ctx = (ctx % base) * V + tok
                if tok == END_TOKEN:
                    break
            seq["correct"] = check_answer(task, extract_answer(seq["tokens"]))
            seqs.append(seq)
    return seqs


@st.composite
def sampler_cases(draw):
    context_window = draw(st.integers(1, 3))
    policy = TabularPolicy(
        VOCAB_SIZE, context_window,
        _policy_table(draw(st.integers(0, 2**16)), context_window, draw(st.sampled_from(_SCALES))),
    )
    tasks = draw(st.lists(st.sampled_from(_SUITE), min_size=1, max_size=6))
    n = draw(st.integers(1, 3))
    max_len = draw(st.integers(1, 12))
    uniforms = np.random.default_rng(draw(st.integers(0, 2**16))).random((len(tasks) * n, max_len))
    # A uniform of 0 ties a CDF that starts with underflowed zeros, and the
    # largest uniform below 1 can exceed a rounded last CDF entry, so the
    # sampler falls back to the last token.
    edge_values = st.sampled_from([0.0, np.nextafter(1.0, 0.0)])
    for i, u in draw(st.lists(st.tuples(st.integers(0, uniforms.size - 1), edge_values),
                              max_size=3)):
        uniforms.flat[i] = u
    temperature = draw(st.floats(0.05, 5.0))
    return policy, tasks, uniforms, n, temperature, max_len


_ZERO_FIRST = np.zeros((VOCAB_SIZE, VOCAB_SIZE))
_ZERO_FIRST[:, 0] = -1000.0
# Seven equal tokens, the rest underflowed: the CDF ends at 1 - 2**-52.
_SHORT_CDF = np.full((VOCAB_SIZE, VOCAB_SIZE), -1000.0)
_SHORT_CDF[:, :7] = 0.0
# END all but certain: every sequence ends at its first step.
_END_FIRST = np.zeros((VOCAB_SIZE, VOCAB_SIZE))
_END_FIRST[:, END_TOKEN] = 30.0
# END's probability underflows to 0: no sequence ends before max_len.
_NEVER_END = np.zeros((VOCAB_SIZE, VOCAB_SIZE))
_NEVER_END[:, END_TOKEN] = -1000.0


@given(sampler_cases())
# Token 0's probability underflows to 0, so a uniform of 0 ties its CDF entry.
@example((TabularPolicy(VOCAB_SIZE, 1, _ZERO_FIRST), _SUITE[:2], np.zeros((4, 3)), 2, 1.0, 3))
# No CDF entry exceeds the uniform, and the fallback token has probability 0.
@example((TabularPolicy(VOCAB_SIZE, 1, _SHORT_CDF), _SUITE[:1],
          np.full((1, 2), np.nextafter(1.0, 0.0)), 1, 1.0, 2))
# The loop stops after one step of twelve.
@example((TabularPolicy(VOCAB_SIZE, 1, _END_FIRST), _SUITE[:3],
          np.random.default_rng(3).random((6, 12)), 2, 1.0, 12))
# The loop runs to max_len, every sequence without an END.
@example((TabularPolicy(VOCAB_SIZE, 1, _NEVER_END), _SUITE[:3],
          np.random.default_rng(4).random((6, 12)), 2, 1.0, 12))
def test_sampler_matches_per_token_oracle(case):
    policy, tasks, uniforms, n, temperature, max_len = case
    with warnings.catch_warnings(record=True) as oracle_warnings:
        warnings.simplefilter("always")
        want = _oracle_rollout(*case)
    with warnings.catch_warnings(record=True) as sampler_warnings:
        warnings.simplefilter("always")
        if all(np.isfinite(seq["logprobs"]).all() for seq in want):
            groups = rollout_slots(*case)
        else:
            # A chosen probability that underflowed to 0 has no finite log.
            with pytest.raises(ValidationError, match="log-probabilities must be finite"):
                rollout_slots(*case)
            return
    if not [w for w in oracle_warnings if issubclass(w.category, RuntimeWarning)]:
        sampler_runtime = [w for w in sampler_warnings if issubclass(w.category, RuntimeWarning)]
        assert not sampler_runtime, [str(w.message) for w in sampler_runtime]
    got = [t for g in groups for t in g.trajectories]
    assert len(got) == len(want)
    for t, seq in zip(got, want):
        assert t.tokens.tolist() == seq["tokens"]
        assert t.length == len(seq["tokens"])
        np.testing.assert_array_equal(_bits(t.step_entropies), _bits(seq["entropies"]))
        np.testing.assert_array_equal(_bits(t.step_logprobs), _bits(seq["logprobs"]))
        np.testing.assert_array_equal(t.ctx_ids, seq["ctx"])
        assert t.correct == seq["correct"]


def test_grpo_zero_variance_group():
    np.testing.assert_array_equal(grpo_advantages([1.0, 1.0, 1.0, 1.0]), np.zeros(4))


def test_grpo_two_point_group():
    adv = grpo_advantages([0.0, 2.0])
    np.testing.assert_allclose(adv, [-1 / (1 + 1e-6), 1 / (1 + 1e-6)], atol=1e-15)


def test_grpo_centers_to_zero():
    rng = np.random.default_rng(37)
    for _ in range(20):
        adv = grpo_advantages(rng.normal(size=rng.integers(2, 12)))
        assert abs(adv.sum()) < 1e-10


def test_grpo_validation():
    with pytest.raises(ValidationError, match=r"^need at least 2 rewards in a group, got 1$"):
        grpo_advantages([1.0])
    with pytest.raises(ValidationError, match=r"^need at least 2 rewards in a group, got 4$"):
        grpo_advantages([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValidationError, match=r"^rewards contain non-finite entries$"):
        grpo_advantages([0.0, np.inf])
    with pytest.raises(ValidationError, match=r"^rewards contain non-finite entries$"):
        grpo_advantages([np.nan, 1.0])


_MAGNITUDES = st.floats(1e-300, 1e300)


@given(
    st.one_of(
        st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=2, max_size=64),
        st.lists(st.one_of(_MAGNITUDES, _MAGNITUDES.map(lambda x: -x)), min_size=2, max_size=64),
        st.lists(st.integers(-1000, 1000).map(lambda i: i / 7), min_size=2, max_size=64),
    )
)
@example([1.0, 1.0])
@example([0.1] * 10)
@example([1e300] * 64)
@example([1e-300, 2e-300])
def test_grpo_matches_numpy_mean_and_std(rewards):
    r = np.array(rewards)
    with np.errstate(all="ignore"):
        std = r.std()
        want = np.zeros(r.size) if std == 0.0 else (r - r.mean()) / (std + 1e-6)
        got = grpo_advantages(rewards)
    np.testing.assert_array_equal(_bits(got), _bits(want))


def _gradcheck_batch(seed, perturb=0.0, temperature=0.9):
    """Rollouts from a random table plus random advantages, and an optional
    perturbed evaluation point so importance ratios sit away from 1."""
    rng = np.random.default_rng(seed)
    policy = _random_policy(seed)
    tasks = make_task_suite(seed, 2, 2)
    groups = rollout_tasks(policy, tasks, 2, temperature, 3, seed, "fd", 0)
    trajs = [t for g in groups for t in g.trajectories]
    batch = list(zip(trajs, rng.normal(size=len(trajs)).tolist()))
    eval_table = policy.table + perturb * rng.normal(size=policy.table.shape)
    return policy, batch, eval_table


@given(
    st.integers(1, 3), st.integers(0, 2**16), st.sampled_from(_SCALES),
    st.floats(0.05, 5.0), st.integers(1, 64),
)
def test_gradient_rows_match_per_token_forms(context_window, seed, scale, temperature, n_ctx):
    table = _policy_table(seed, context_window, scale)
    ctx = np.random.default_rng(seed).integers(0, table.shape[0], n_ctx)
    p_tab, log_p_tab, h_tab, b_tab = _row_factors(table, temperature, True)
    want_p = softmax_probs(table[ctx], temperature)
    want_log_p = np.log(np.maximum(want_p, LOG_FLOOR))
    want_h = entropy_of_prob_rows(want_p)
    # Also kl_cov's selected rows: a table gather in place of a softmax of gathered logits.
    np.testing.assert_array_equal(_bits(p_tab[ctx]), _bits(want_p))
    np.testing.assert_array_equal(_bits(log_p_tab[ctx]), _bits(want_log_p))
    np.testing.assert_array_equal(_bits(h_tab[ctx]), _bits(want_h))
    np.testing.assert_array_equal(_bits(b_tab[ctx]), _bits(want_log_p + want_h[:, None]))


def _step_config(regularizer="none", temperature=0.9, **fields):
    """The settings a gradient test names; the rest are TrainConfig defaults."""
    return TrainConfig(mode="fewshot", regularizer=regularizer, temperature=temperature,
                       **fields)


def _finite_difference(loss_fn, table, h=1e-6):
    fd = np.zeros_like(table)
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            up, dn = table.copy(), table.copy()
            up[i, j] += h
            dn[i, j] -= h
            fd[i, j] = (loss_fn(up) - loss_fn(dn)) / (2 * h)
    return fd


def _assert_gradient_matches(loss_and_grad, table):
    loss, grad = loss_and_grad(table)
    assert math.isfinite(loss)
    fd = _finite_difference(lambda t: loss_and_grad(t)[0], table)
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-7)


def test_plain_gradients_match_finite_differences():
    _, batch, _ = _gradcheck_batch(41)
    flat = _flatten_batch(batch)
    masks = high_entropy_mask([t.step_entropies for t, _ in batch], 0.4)
    mask_flat = np.concatenate(masks)
    cases = [("none", None), ("entropy_loss", None), ("mask_8020", mask_flat)]
    whole = slice(0, flat.ctx.size)
    for name, mf in cases:
        cfg = _step_config(name, alpha=0.3, beta=0.7)
        _assert_gradient_matches(
            lambda t: _loss_and_grad(t, flat, whole, cfg, mf),
            _gradcheck_batch(41)[0].table,
        )


def test_plain_gradient_zero_on_unvisited_rows():
    policy, batch, _ = _gradcheck_batch(43)
    flat = _flatten_batch(batch)
    _, grad = _loss_and_grad(policy.table, flat, slice(0, flat.ctx.size), _step_config())
    unvisited = np.setdiff1d(np.arange(VOCAB_SIZE), np.unique(flat.ctx))
    assert np.all(grad[unvisited] == 0.0)


def test_ratio_gradients_match_finite_differences():
    policy, batch, eval_table = _gradcheck_batch(47, perturb=0.05)
    flat = _flatten_batch(batch)
    rows = np.arange(flat.ctx.size)
    # Guard: no ratio close enough to a clip boundary for the finite
    # difference to straddle the kink.
    p = softmax_probs(eval_table[flat.ctx], 0.9)
    lp = np.log(p[rows, flat.tok])
    ratio = np.exp(lp - flat.old_logprob)
    assert np.min(np.abs(ratio - 0.8)) > 1e-3 and np.min(np.abs(ratio - 1.28)) > 1e-3
    whole = slice(0, flat.ctx.size)
    _assert_gradient_matches(
        lambda t: _loss_and_grad(t, flat, whole, _step_config("clip_higher")),
        eval_table,
    )
    selected = np.array(kl_cov_select(flat.old_logprob, flat.adv, 0.25), dtype=np.int64)
    old_probs = softmax_probs(policy.table[flat.ctx[selected]], 0.9)
    _assert_gradient_matches(
        lambda t: _loss_and_grad(
            t, flat, whole, _step_config("kl_cov", beta=0.7), None, selected, old_probs
        ),
        eval_table,
    )


def test_step_with_zero_advantages_is_a_no_op():
    policy, batch, _ = _gradcheck_batch(53)
    zeroed = [(t, 0.0) for t, _ in batch]
    new = policy_gradient_step(policy, zeroed, _step_config(learning_rate=0.5))
    np.testing.assert_array_equal(new.table, policy.table)


def test_entropy_bonus_pushes_toward_uniform():
    table = np.zeros((VOCAB_SIZE, VOCAB_SIZE))
    table[:, 0] = 4.0
    policy = TabularPolicy(VOCAB_SIZE, 1, table)
    tasks = make_task_suite(0, 1, 0)
    groups = rollout_tasks(policy, tasks, 2, 1.0, 3, seed=0, tag="ent", step=0)
    batch = [(t, 0.0) for g in groups for t in g.trajectories]
    cfg = _step_config("entropy_loss", 1.0, alpha=0.5, learning_rate=1.0)
    new = policy_gradient_step(policy, batch, cfg)
    ctxs = np.unique(np.concatenate([t.ctx_ids for t, _ in batch]))
    h_old = entropy_of_prob_rows(softmax_probs(policy.table[ctxs], 1.0)).mean()
    h_new = entropy_of_prob_rows(softmax_probs(new.table[ctxs], 1.0)).mean()
    assert h_new > h_old


def test_ratio_objectives_reduce_to_plain_at_ratio_one():
    policy, batch, _ = _gradcheck_batch(59)
    plain = policy_gradient_step(policy, batch, _step_config(learning_rate=0.3))
    clip = policy_gradient_step(
        policy, batch, _step_config("clip_higher", learning_rate=0.3, micro_chunks=1)
    )
    klcov = policy_gradient_step(
        policy, batch,
        _step_config("kl_cov", learning_rate=0.3, micro_chunks=1, k_frac=0.25),
    )
    np.testing.assert_array_equal(clip.table, plain.table)
    np.testing.assert_array_equal(klcov.table, plain.table)


def test_micro_chunks_change_the_update():
    policy, batch, _ = _gradcheck_batch(61)
    one = policy_gradient_step(
        policy, batch, _step_config("clip_higher", learning_rate=0.5, micro_chunks=1)
    )
    four = policy_gradient_step(
        policy, batch, _step_config("clip_higher", learning_rate=0.5, micro_chunks=4)
    )
    assert not np.array_equal(one.table, four.table)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_step_divergence_raises():
    policy, batch, _ = _gradcheck_batch(67)
    huge = [(t, 1e308) for t, _ in batch]
    with pytest.raises(DivergenceError):
        policy_gradient_step(policy, huge, _step_config("none", 1.0, learning_rate=10.0))


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_sampler_divergence_names_the_step_and_tag():
    # Finite logits that overflow once scaled by 1 / temperature.
    policy = TabularPolicy(VOCAB_SIZE, 1, np.full((VOCAB_SIZE, VOCAB_SIZE), 1e308))
    message = ("step 7 (eval-target): sampling distribution at temperature 0.5 is not "
               "finite: the policy table's logits overflow")
    with pytest.raises(DivergenceError, match="^" + re.escape(message) + "$"):
        rollout_tasks(policy, make_task_suite(0, 2, 0), 2, 0.5, 4, 0, "eval-target", 7)


def _set_after(t, **channels):
    """A copy of ``t`` with ``channels`` set after construction, so the
    constructor's rules do not see them."""
    t = copy.copy(t)
    vars(t).update(channels)
    return t


def test_step_validation():
    policy, batch, _ = _gradcheck_batch(71)
    cfg = _step_config(learning_rate=0.1)
    with pytest.raises(ValidationError):
        policy_gradient_step(policy, batch, _step_config("dropout", learning_rate=0.1))
    with pytest.raises(ValidationError):
        policy_gradient_step(policy, batch, _step_config(learning_rate=0.0))
    with pytest.raises(ValidationError, match="^empty batch$"):
        policy_gradient_step(policy, [], cfg)
    # Trajectories 1 and 2 both break each rule; the refusal names the first.
    n_rows = policy.table.shape[0]
    replace = dataclasses.replace
    refusals = [
        (lambda t, a, i: (replace(t, ctx_ids=None), a),
         "trajectory {id} carries no context-id channel"),
        (lambda t, a, i: (replace(t, tokens=None), a),
         "trajectory {id} needs tokens and step_logprobs"),
        (lambda t, a, i: (replace(t, step_logprobs=None), a),
         "trajectory {id} needs tokens and step_logprobs"),
        (lambda t, a, i: (t, [math.nan, math.inf][i - 1]),
         "non-finite advantage for {id}"),
        (lambda t, a, i: (_set_after(t, ctx_ids=np.r_[[n_rows, -1][i - 1], t.ctx_ids[1:]]), a),
         "trajectory {id}: context ids outside the policy table"),
        # The constructor refuses ids that are not integers in [0, 2**63) and
        # stores int64 arrays (tests/test_rollouts.py); the step refuses a
        # channel set after it that is not int64.
        (lambda t, a, i: (_set_after(t, tokens=[0.5] * t.length), a),
         "trajectory {id}: token ids must be int64 integers"),
        (lambda t, a, i: (_set_after(t, tokens=np.full(t.length, 1.7)), a),
         "trajectory {id}: token ids must be int64 integers"),
        (lambda t, a, i: (_set_after(t, tokens=["1"] * t.length), a),
         "trajectory {id}: token ids must be int64 integers"),
        (lambda t, a, i: (_set_after(t, tokens=[True] * t.length), a),
         "trajectory {id}: token ids must be int64 integers"),
        (lambda t, a, i: (_set_after(t, tokens=np.ones(t.length, dtype=bool)), a),
         "trajectory {id}: token ids must be int64 integers"),
        (lambda t, a, i: (_set_after(t, tokens=[2**63] * t.length), a),
         "trajectory {id}: token ids must be int64 integers"),
        (lambda t, a, i: (_set_after(t, tokens=t.tokens.astype(np.int32)), a),
         "trajectory {id}: token ids must be int64 integers"),
        (lambda t, a, i: (_set_after(t, ctx_ids=t.ctx_ids.astype(np.float64)), a),
         "trajectory {id}: context ids must be int64 integers"),
        (lambda t, a, i: (_set_after(t, ctx_ids=np.ones(t.length, dtype=bool)), a),
         "trajectory {id}: context ids must be int64 integers"),
        # The first trajectory is named, whichever channel fails to convert first.
        (lambda t, a, i: (_set_after(t, tokens=[0.5] * t.length) if i == 1
                          else _set_after(t, ctx_ids=t.ctx_ids + 0.5), a),
         "trajectory {id}: token ids must be int64 integers"),
    ]
    for breaks, message in refusals:
        bad = list(batch)
        for i in (1, 2):
            bad[i] = breaks(*batch[i], i)
        match = "^" + re.escape(message.format(id=batch[1][0].trajectory_id)) + "$"
        for regularizer in ("none", "kl_cov"):
            with pytest.raises(ValidationError, match=match):
                policy_gradient_step(policy, bad, _step_config(regularizer, learning_rate=0.1))


@pytest.mark.parametrize("token", [-1, VOCAB_SIZE])
def test_step_rejects_token_ids_outside_the_vocabulary(token):
    policy, batch, _ = _gradcheck_batch(73)
    t = batch[1][0]
    tokens = t.tokens.copy()
    tokens[-1] = token
    # Set after construction: the constructor itself refuses a negative id.
    batch[1] = (_set_after(t, tokens=tokens), batch[1][1])
    match = re.escape(
        f"trajectory {t.trajectory_id}: token ids outside the vocabulary of {VOCAB_SIZE}"
    )
    for regularizer in ("none", "kl_cov"):
        with pytest.raises(ValidationError, match=match):
            policy_gradient_step(policy, batch, _step_config(regularizer, learning_rate=0.1))


@pytest.mark.parametrize("channel", ["ctx_ids", "tokens", "step_logprobs"])
def test_step_rejects_channels_that_do_not_match_the_lengths(channel):
    policy, batch, _ = _gradcheck_batch(79)
    t = batch[2][0]
    # Channels set after construction skip the constructor's length checks.
    setattr(t, channel, getattr(t, channel)[:-1])
    with pytest.raises(ValidationError, match=rf"trajectory {re.escape(t.trajectory_id)}: "
                       rf".* vs {t.length} entropy steps"):
        policy_gradient_step(policy, batch, _step_config(learning_rate=0.1))


# Both zeros, magnitudes from 1e-300 to 1e300 of either sign, and values of
# one scale, whose sums round differently in a different order.
_SCATTER_WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda m, e, sign: sign * m * 10.0**e,
              st.floats(1.0, 9.99), st.integers(-300, 299), st.sampled_from([1.0, -1.0])),
    st.floats(-1.0, 1.0),
)


@st.composite
def scatter_cases(draw):
    n_rows, V = draw(st.integers(1, 6)), draw(st.integers(2, 6))

    def ids(k, limit):
        # Few rows and many ids: context ids repeat within and across terms.
        return np.array(draw(st.lists(st.integers(0, limit - 1), min_size=k, max_size=k)),
                        dtype=np.int64)

    def weights(*shape):
        size = math.prod(shape)
        values = draw(st.lists(_SCATTER_WEIGHTS, min_size=size, max_size=size))
        return np.array(values, dtype=np.float64).reshape(shape)

    n = draw(st.integers(0, 10))
    ctx, tok = ids(n, n_rows), ids(n, V)
    extra = draw(st.sampled_from(["none", "same", "other"]))
    extra_ctx = {"none": None, "same": ctx, "other": ids(draw(st.integers(0, 10)), n_rows)}[extra]
    terms = [(ctx, weights(n, V)), ((ctx, tok), weights(n))]
    if extra_ctx is not None:
        terms.append((extra_ctx, weights(extra_ctx.size, V)))
    return (n_rows, V), ctx, tok, extra_ctx, terms


@given(scatter_cases())
def test_scatter_equals_sequential_add_at(case):
    shape, ctx, tok, extra_ctx, terms = case
    want = np.zeros(shape)
    for index, w in terms:
        np.add.at(want, index, w)
    keys, weights, views = _term_buffers(shape[1], ctx, tok, extra_ctx)
    for view, (_, w) in zip(views, terms):
        view[...] = w
    got = np.bincount(keys, weights, minlength=want.size).reshape(shape)
    np.testing.assert_array_equal(_bits(got), _bits(want))


@st.composite
def gradient_step_cases(draw, regularizer):
    """A valid batch over a random table, and a config for the objective.

    Batches hold 1-8 trajectories of 1-6 steps; entropies come from a few
    values so the 80/20 mask ties; kl_cov keeps up to every token, so its
    selections straddle micro-chunk boundaries; micro_chunks runs past the
    trajectory count."""
    context_window = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2**16))
    table = _policy_table(seed, context_window, draw(st.sampled_from(_SCALES)))
    rng = np.random.default_rng(seed)
    n_traj = draw(st.integers(1, 8))
    # Near-exact log-probs put ratios at or near 1, noisy ones on both clip sides.
    noise = draw(st.sampled_from([0.0, 1e-3, 0.5]))
    # At 0.05 the larger scales underflow softmax entries to exact zeros.
    temperature = draw(st.sampled_from([0.05, 0.9, 3.0]))
    log_p = np.log(np.maximum(softmax_probs(table, temperature), LOG_FLOOR))
    advantage = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0))
    batch = []
    for i in range(n_traj):
        length = draw(st.integers(1, 6))
        ctx = rng.integers(0, table.shape[0], length)
        tok = rng.integers(0, VOCAB_SIZE, length)
        old = np.minimum(log_p[ctx, tok] + noise * rng.normal(size=length), 0.0)
        traj = Trajectory(
            prompt_id=f"p{i}", domain="target",
            step_entropies=rng.integers(0, 4, length) / 2.0,
            tokens=tok.tolist(), step_logprobs=old, ctx_ids=ctx,
        )
        batch.append((traj, draw(advantage)))
    cfg = _step_config(
        regularizer, temperature,
        learning_rate=draw(st.sampled_from([0.05, 1.0])),
        micro_chunks=draw(st.integers(1, n_traj + 2)),
        alpha=draw(st.floats(0.001, 2.0)),
        beta=draw(st.floats(0.0, 2.0)),
        gamma=draw(st.floats(0.05, 1.0)),
        k_frac=draw(st.floats(0.01, 1.0)),
    )
    policy = TabularPolicy(VOCAB_SIZE, context_window, table)
    return policy, batch, cfg


@pytest.mark.parametrize("regularizer", REGULARIZER_NAMES)
@given(data=st.data())
def test_gradient_step_equals_per_token_oracle(regularizer, data):
    policy, batch, cfg = data.draw(gradient_step_cases(regularizer))
    got = policy_gradient_step(policy, batch, cfg)
    want = oracle_policy_gradient_step(policy, batch, cfg)
    np.testing.assert_array_equal(_bits(got.table), _bits(want.table))


@pytest.mark.parametrize("regularizer", REGULARIZER_NAMES)
@given(data=st.data())
def test_gradient_helpers_equal_per_token_oracle(regularizer, data):
    policy, batch, cfg = data.draw(gradient_step_cases(regularizer))
    flat = _flatten_batch(batch)
    table = policy.table
    if cfg.regularizer in ("clip_higher", "kl_cov"):
        # One chunk of the whole batch, every token selected for kl_cov, and
        # old distributions (of reversed logit rows) unlike the current ones.
        rows = np.arange(flat.ctx.size)
        kl_rows = rows if cfg.regularizer == "kl_cov" else rows[:0]
        old_probs = softmax_probs(table[flat.ctx[kl_rows], ::-1], cfg.temperature)
        got = _loss_and_grad(
            table, flat, slice(0, flat.ctx.size), cfg, None, kl_rows, old_probs
        )
        want = oracle_ratio_chunk_grad(table, flat, rows, cfg, kl_rows, old_probs)
    else:
        mask_flat = np.concatenate(
            high_entropy_mask([t.step_entropies for t, _ in batch], cfg.gamma)
        )
        n_masked = int(mask_flat.sum())
        got = _loss_and_grad(table, flat, slice(0, flat.ctx.size), cfg, mask_flat)
        want = oracle_plain_loss_and_grad(table, flat, cfg, mask_flat, n_masked)
    assert _bits(got[0]) == _bits(want[0])
    np.testing.assert_array_equal(_bits(got[1]), _bits(want[1]))


def test_config_text_round_trip():
    cfg = TrainConfig(
        mode="hybrid",
        n_target=3,
        n_general=5,
        general_fraction=0.25,
        regularizer="kl_cov",
        learning_rate=0.125,
        steps=7,
    )
    assert parse_config(config_text(cfg)) == cfg
    # Numpy scalars are written by their setting's kind: a float32 as the
    # float64 it widens to, so the echo reads back the value the run used.
    for name, value in [("learning_rate", np.float64(0.5)), ("temperature", np.float32(0.1)),
                        ("seed", np.int64(3))]:
        numpy_cfg = dataclasses.replace(cfg, **{name: value})
        back = parse_config(config_text(numpy_cfg))
        assert back == numpy_cfg
        assert getattr(back, name) == value.item()


def test_config_parse_errors():
    with pytest.raises(ValidationError):
        parse_config("mode = fewshot\nbogus = 3\n")
    with pytest.raises(ValidationError):
        parse_config("mode = fewshot\nsteps = 5\nsteps = 6\n")
    with pytest.raises(ValidationError):
        parse_config("mode = fewshot\nsteps = soon\n")
    with pytest.raises(ValidationError):
        parse_config("steps = 5\n")
    with pytest.raises(ValidationError):
        parse_config("mode fewshot\n")
    with pytest.raises(ValidationError):
        parse_config("mode = warmup\n")


def test_config_parse_ignores_comments_and_blanks():
    cfg = parse_config("# a comment\n\nmode = fewshot\n  # indented comment\nsteps = 3\n")
    assert cfg.mode == "fewshot"
    assert cfg.steps == 3


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("mode = onlygeneral\nn_general = 4\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.mode == "onlygeneral"
    assert cfg.n_general == 4


def test_config_validation_rules():
    with pytest.raises(ValidationError):
        TrainConfig(mode="fewshot", n_target=0).validate()
    with pytest.raises(ValidationError):
        TrainConfig(mode="hybrid", n_target=2, n_general=0).validate()
    with pytest.raises(ValidationError):
        TrainConfig(mode="fewshot", rollouts_per_prompt=1).validate()
    with pytest.raises(ValidationError):
        TrainConfig(mode="fewshot", temperature=0.0).validate()
    with pytest.raises(ValidationError):
        TrainConfig(mode="fewshot", general_fraction=1.5).validate()
    with pytest.raises(ValidationError):
        TrainConfig(mode="fewshot", regularizer="dropout").validate()
    # The pools must fit in the task suite: 1,000 prompts, once per family.
    with pytest.raises(ValidationError, match="^n_target must be <= 1000, got 1001$"):
        TrainConfig(mode="fullshot", n_target=1001).validate()
    with pytest.raises(ValidationError, match="^n_general must be <= 3000, got 3001$"):
        TrainConfig(mode="hybrid", n_general=3001).validate()
    TrainConfig(mode="heal", n_general=1500, selection_pool_factor=2.0).validate()
    with pytest.raises(ValidationError, match=r"^n_general \* selection_pool_factor .* 3001$"):
        TrainConfig(mode="heal", n_general=1500, selection_pool_factor=2.0001).validate()
    # Each setting is refused by its kind first: an integer setting takes no
    # fraction, bool or infinity, and a real setting no text.
    for field, value in [("batch_size", 2.5), ("log_every", True), ("micro_chunks", math.inf),
                         ("learning_rate", "0.5")]:
        with pytest.raises(ValidationError, match=f"^{field} must be an? "):
            TrainConfig(mode="fewshot", **{field: value})
        with pytest.raises(ValidationError, match=f"^{field} must be an? "):
            dataclasses.replace(TrainConfig(mode="fewshot"), **{field: value})
    assert TrainConfig(mode="fewshot", steps=np.int64(3), learning_rate=1).steps == 3


def test_config_is_frozen_and_checked_when_made():
    cfg = TrainConfig(mode="fewshot")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 3
    with pytest.raises(ValidationError, match="^seed must be >= 0$"):
        dataclasses.replace(cfg, seed=-1)
    assert dataclasses.replace(cfg, seed=3).seed == 3


def _tiny_config(**overrides):
    base = dict(
        mode="fewshot",
        n_target=2,
        rollouts_per_prompt=2,
        batch_size=4,
        steps=2,
        learning_rate=0.5,
        max_len=4,
        log_every=1,
        eval_prompts=2,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_train_zero_steps(tmp_path):
    rec = train(_tiny_config(steps=0), tmp_path / "run")
    assert rec.status == "completed"
    assert rec.steps_completed == 0
    assert [row.step for row in rec.metrics] == [0]
    np.testing.assert_array_equal(rec.policy.table, 0.0)
    assert (tmp_path / "run" / "metrics.jsonl").exists()
    assert (tmp_path / "run" / "policy.bin").exists()
    echo = (tmp_path / "run" / "config.echo").read_text(encoding="utf-8")
    assert echo.startswith("# status = completed\n# steps_completed = 0\n")
    assert parse_config(echo) == rec.config


def test_train_runs_are_bit_identical(tmp_path):
    cfg = _tiny_config(steps=3)
    train(cfg, tmp_path / "a")
    train(cfg, tmp_path / "b")
    for name in ("metrics.jsonl", "config.echo", "policy.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_train_logging_schedule():
    rec = train(_tiny_config(steps=5, log_every=2))
    assert [row.step for row in rec.metrics] == [0, 2, 4, 5]
    assert rec.steps_completed == 5


def test_train_reward_improves_on_small_target_pool():
    initial, final = [], []
    for seed in range(3):
        cfg = _tiny_config(
            steps=60, batch_size=16, rollouts_per_prompt=4, learning_rate=5.0,
            log_every=60, seed=seed,
        )
        rec = train(cfg)
        initial.append(rec.metrics[0].reward_rate)
        final.append(rec.metrics[-1].reward_rate)
    assert np.mean(final) > np.mean(initial) + 0.2


def test_train_onlygeneral_has_no_target_curve():
    cfg = TrainConfig(
        mode="onlygeneral", n_target=0, n_general=3, rollouts_per_prompt=2,
        batch_size=4, steps=1, learning_rate=0.5, max_len=4, log_every=1,
        eval_prompts=2,
    )
    rec = train(cfg)
    for row in rec.metrics:
        assert row.mean_entropy_target is None
        assert row.mean_entropy_general is not None
        assert 0.0 <= row.reward_rate <= 1.0


def test_train_heal_selects_and_reports_alignment(tmp_path):
    cfg = TrainConfig(
        mode="heal", n_target=2, n_general=3, rollouts_per_prompt=2,
        batch_size=4, steps=2, learning_rate=0.5, max_len=4, log_every=1,
        eval_prompts=4, selection_pool_factor=2.0,
    )
    rec = train(cfg, tmp_path / "run")
    assert len(rec.selected_general_ids) == 3
    assert all(pid.startswith("gen-") for pid in rec.selected_general_ids)
    for row in rec.metrics:
        assert 0.0 <= row.reward_rate <= 2.0
        assert 0.0 <= row.eda_rate <= 1.0
        assert row.mean_ed_distance is not None


def test_train_curve_distance_matches_pairwise_matrix():
    cfg = TrainConfig(
        mode="heal", n_target=2, n_general=2, rollouts_per_prompt=2,
        batch_size=4, steps=1, learning_rate=0.5, max_len=4, log_every=1,
        eval_prompts=2,
    )
    rec = train(cfg)
    # The final evaluation's target rollouts, drawn again from the final policy.
    tasks = make_task_suite(cfg.seed, cfg.n_target, 0)[: cfg.eval_prompts]
    groups = rollout_tasks(rec.policy, tasks, cfg.rollouts_per_prompt, cfg.temperature,
                           cfg.max_len, cfg.seed, "eval-target", cfg.steps)
    curves = [t.step_entropies for g in groups for t in g.trajectories]
    # The pairwise distance matrix, from the scalar definition of sim_kl.
    matrix = np.array([[0.0 if i == j else -sim_kl(a, b) + 0.0 for j, b in enumerate(curves)]
                       for i, a in enumerate(curves)])
    n = len(curves)
    assert n == 4
    expected = float(matrix.sum() / (n * (n - 1)))
    assert rec.metrics[-1].mean_ed_distance == expected


def test_train_divergence_persists_partial_record(tmp_path, monkeypatch):
    import heal.simulator.training as training

    calls = {"n": 0}
    real = training.policy_gradient_step

    def explode(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise DivergenceError("forced for the persistence test")
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "policy_gradient_step", explode)
    out = tmp_path / "run"
    with pytest.raises(DivergenceError):
        train(_tiny_config(steps=5), out)
    echo = (out / "config.echo").read_text(encoding="utf-8")
    assert echo.startswith("# status = diverged\n# steps_completed = 1\n")
    rows = read_metrics(out / "metrics.jsonl")
    assert [row.step for row in rows] == [0, 1]
    TabularPolicy.load(out / "policy.bin")


def _heal_config(**overrides):
    return _tiny_config(mode="heal", n_general=2, **overrides)


@pytest.mark.parametrize("sim", ["kl", "hti", "pl"])
def test_train_heal_rewards_match_the_oracle_under_each_similarity(tmp_path, monkeypatch, sim):
    # Every EDA call of a heal run, on its training and evaluation batches,
    # gives the records of the pairwise loop over the scalar definitions;
    # repr tells -0.0 from 0.0.
    import heal.simulator.training as training

    real = training.batch_rewards
    batches = []

    def checked(batch, sim_choice):
        records = real(batch, sim_choice)
        got = [(r.r_acc, r.r_eda, r.s_intra, r.s_inter) for r in records]
        assert sim_choice == sim and repr(got) == repr(naive_rewards(batch, sim))
        batches.append({t.domain for t in batch})
        return records

    monkeypatch.setattr(training, "batch_rewards", checked)
    cfg = _heal_config(sim_choice=sim, steps=3)
    train(cfg, tmp_path / "a")
    train(cfg, tmp_path / "b")
    # Per run: 3 training steps and 4 evaluations, each on both domains.
    assert batches == [{"target", "general"}] * 14
    for name in ("metrics.jsonl", "policy.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_train_eda_start_step_gates_training_and_evaluation(monkeypatch):
    # A training step uses the bonus once step - 1 >= eda_start_step, an
    # evaluation once step >= eda_start_step.
    import heal.simulator.training as training

    phase = []
    calls = []
    for name in ("_train_step", "_eval_row"):
        def logged(self, step, real=getattr(training._Trainer, name), name=name):
            phase[:] = [(name, step)]
            return real(self, step)
        monkeypatch.setattr(training._Trainer, name, logged)
    real = training.batch_rewards

    def counted(batch, sim_choice):
        calls.extend(phase)
        return real(batch, sim_choice)

    monkeypatch.setattr(training, "batch_rewards", counted)
    rec = train(_heal_config(steps=4, eda_start_step=2))
    assert calls == [("_eval_row", 2), ("_train_step", 3), ("_eval_row", 3),
                     ("_train_step", 4), ("_eval_row", 4)]
    assert [row.step for row in rec.metrics] == [0, 1, 2, 3, 4]
    assert [row.eda_rate for row in rec.metrics[:2]] == [0.0, 0.0]


def test_eval_rows_report_the_shared_reward_path(monkeypatch):
    # An evaluation row averages the rewards of its own rollouts: their
    # verdicts, and in heal mode, once the policy has taken eda_start_step
    # updates, verdict plus bonus, with eda_rate the targets' bonus rate.
    import heal.simulator.training as training

    real = training.rollout_tasks
    evaluated: dict = {}

    def captured(policy, tasks, n, temperature, max_len, seed, tag, step):
        groups = real(policy, tasks, n, temperature, max_len, seed, tag, step)
        if tag.startswith("eval-"):
            evaluated.setdefault(step, []).extend(t for g in groups for t in g.trajectories)
        return groups

    monkeypatch.setattr(training, "rollout_tasks", captured)
    # One-token answers, so that some verdicts are 1 from the start.
    rows = train(_tiny_config(steps=3, max_len=1, rollouts_per_prompt=8)).metrics
    assert sorted(evaluated) == [row.step for row in rows]
    for row in rows:
        verdicts = [t.correct for t in evaluated[row.step]]
        assert (row.reward_rate, row.eda_rate) == (float(np.mean(verdicts)), 0.0)
    assert any(row.reward_rate > 0.0 for row in rows)

    evaluated.clear()
    cfg = _heal_config(steps=3, eda_start_step=2, rollouts_per_prompt=8, learning_rate=5.0,
                       seed=4)
    rows = train(cfg).metrics
    assert sorted(evaluated) == [row.step for row in rows]
    paid = 0
    for row in rows:
        trajectories = evaluated[row.step]
        verdicts = [t.correct for t in trajectories]
        if row.step < 2:
            assert (row.reward_rate, row.eda_rate) == (float(np.mean(verdicts)), 0.0)
            continue
        oracle = naive_rewards(trajectories, "kl")
        bonus = [r_eda for t, (_, r_eda, _, _) in zip(trajectories, oracle)
                 if t.domain == "target"]
        assert row.reward_rate == float(np.mean([r_acc + r_eda for r_acc, r_eda, _, _ in oracle]))
        assert row.eda_rate == float(np.mean(bonus))
        paid += row.reward_rate != float(np.mean(verdicts))
    # The bonus moves reward_rate away from the mean verdict on these rows.
    assert paid
