"""Trajectory sampling from the tabular policy.

All sequences of a batch advance in lockstep, vectorized across the batch.
The policy's probability rows, their cumulative sums and their entropies
are computed once per call for every table row; each step gathers them by
context id and takes one sampling draw per active sequence. Every
prompt slot consumes only its own pre-drawn uniforms, so sampling order
across slots cannot change any trajectory and parallel or sequential
execution produce identical results.
"""

from __future__ import annotations

import zlib

import numpy as np

from ..entropy import entropy_from_logits, softmax_probs
from ..errors import DivergenceError, ValidationError
from ..rollouts import RolloutGroup, trajectory_block
# The traced benchmark (perfbench/tracer.py) wraps heal.simulator.rollout.Trajectory by name.
from ..rollouts import Trajectory  # noqa: F401
from .policy import TabularPolicy
from .tasks import END_TOKEN, SynthTask


def prompt_uid(prompt_id: str) -> int:
    """Stable 32-bit id used to key per-prompt RNG streams."""
    return zlib.crc32(prompt_id.encode("utf-8"))


def rng_stream(seed: int, tag: str, *parts: int) -> np.random.Generator:
    """Independent deterministic generator keyed by (seed, tag, parts)."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(tag.encode("utf-8")), *parts])
    )


def _verdicts(
    tasks: list[SynthTask], n: int, tokens: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Verdict of each padded token row; rows come n per task.

    A row's answer is its tokens before the first END, all ``lengths[r]`` of
    them without one; its verdict is whether that answer equals the task's
    ground truth.
    """
    steps = np.arange(tokens.shape[1])
    is_end = (tokens == END_TOKEN) & (steps < lengths[:, None])
    answer_len = np.where(is_end.any(axis=1), is_end.argmax(axis=1), lengths)
    truths = [task.ground_truth for task in tasks]
    width = min(max(map(len, truths), default=0), tokens.shape[1])
    truth = np.array([(g + (-1,) * width)[:width] for g in truths], dtype=np.int64)
    answer = np.where(steps[:width] < answer_len[:, None], tokens[:, :width], -1)
    return (answer_len == np.repeat([len(g) for g in truths], n)) & (
        answer == np.repeat(truth.reshape(len(tasks), width), n, axis=0)
    ).all(axis=1)


def rollout_slots(
    policy: TabularPolicy,
    tasks: list[SynthTask],
    uniforms: np.ndarray,
    n: int,
    temperature: float,
    max_len: int,
) -> list[RolloutGroup]:
    """Sample n trajectories per task slot, lockstep across all sequences.

    ``uniforms`` has shape (len(tasks) * n, max_len), rows grouped by slot.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if max_len < 1:
        raise ValidationError(f"max_len must be >= 1, got {max_len}")
    n_seq = len(tasks) * n
    if uniforms.shape != (n_seq, max_len):
        raise ValidationError(
            f"uniforms shape {uniforms.shape} != {(n_seq, max_len)}"
        )
    V = policy.vocab_size
    ctx = np.repeat(
        np.array([policy.context_id(t.prompt_tokens) for t in tasks], dtype=np.int64), n
    )
    tokens = np.zeros((n_seq, max_len), dtype=np.int64)
    entropies = np.zeros((n_seq, max_len))
    logprobs = np.zeros((n_seq, max_len))
    ctx_store = np.zeros((n_seq, max_len), dtype=np.int64)
    lengths = np.zeros(n_seq, dtype=np.int64)
    active = np.ones(n_seq, dtype=bool)
    # Every function below reduces one row, so a row evaluated inside the
    # whole table has the same bits as the same row gathered first.
    probs = softmax_probs(policy.table, temperature)
    row_entropy = entropy_from_logits(policy.table, temperature)
    row_cdf = np.cumsum(probs, axis=1)
    # A finite table can still overflow once scaled by 1 / temperature.
    if not (np.isfinite(row_entropy).all() and np.isfinite(row_cdf[:, -1]).all()):
        raise DivergenceError(
            f"sampling distribution at temperature {temperature} is not finite: "
            "the policy table's logits overflow"
        )

    for step_i in range(max_len):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        c = ctx[idx]
        above = row_cdf[c] > uniforms[idx, step_i][:, None]
        choice = np.where(above.any(axis=1), above.argmax(axis=1), V - 1)
        tokens[idx, step_i] = choice
        entropies[idx, step_i] = row_entropy[c]
        # The log of the chosen entries only: an underflowed 0 elsewhere in
        # the table would warn on a log it never needed.
        logprobs[idx, step_i] = np.log(probs[c, choice])
        ctx_store[idx, step_i] = c
        lengths[idx] += 1
        ctx[idx] = policy.advance_context(c, choice)
        active[idx[choice == END_TOKEN]] = False

    # The valid steps of every sequence, row-major: trajectory order is kept.
    valid = np.arange(max_len) < lengths[:, None]
    trajectories = trajectory_block(
        prompt_ids=[task.prompt_id for task in tasks for _ in range(n)],
        indices=list(range(n)) * len(tasks),
        domains=[task.domain for task in tasks for _ in range(n)],
        lengths=lengths,
        step_entropies=entropies[valid],
        step_logprobs=logprobs[valid],
        tokens=tokens[valid],
        ctx_ids=ctx_store[valid],
        correct=_verdicts(tasks, n, tokens, lengths),
    )
    return [
        RolloutGroup(
            prompt_id=task.prompt_id,
            domain=task.domain,
            trajectories=trajectories[s * n : (s + 1) * n],
        )
        for s, task in enumerate(tasks)
    ]


def rollout_tasks(
    policy: TabularPolicy,
    tasks: list[SynthTask],
    n: int,
    temperature: float,
    max_len: int,
    seed: int,
    tag: str,
    step: int,
) -> list[RolloutGroup]:
    """Batch rollout with one RNG stream per (prompt, occurrence) slot.

    Repeated prompts within a batch get decorrelated streams through the
    occurrence counter while staying deterministic for a fixed slot list.
    """
    seen: dict[str, int] = {}
    blocks = []
    for task in tasks:
        occurrence = seen.get(task.prompt_id, 0)
        seen[task.prompt_id] = occurrence + 1
        g = rng_stream(seed, tag, step, prompt_uid(task.prompt_id), occurrence)
        blocks.append(g.random((n, max_len)))
    uniforms = np.concatenate(blocks, axis=0) if blocks else np.zeros((0, max_len))
    return rollout_slots(policy, tasks, uniforms, n, temperature, max_len)
