"""Trajectory sampling from the tabular policy.

All sequences of a batch advance in lockstep, vectorized across the batch.
The policy's probability rows, their cumulative sums and their entropies
are computed once per call for every table row. Each step takes one draw
for every sequence, finished or not: the token is the count of CDF entries
at or below the sequence's uniform, capped at V - 1. A CDF never decreases,
so that count is the first entry above the uniform, and V - 1 is the token
taken when none is. The loop stops once every sequence has emitted END.
A sequence's length is then its first END plus one (or the whole loop), and
its entropies and log-probabilities are gathered once, over its valid steps
only, so no log is taken of a step drawn after END. Every prompt slot
consumes only its own pre-drawn uniforms, so sampling order across slots
cannot change any trajectory and parallel or sequential execution produce
identical results.

A slot's uniforms are those of its own stream, ``rng_stream(seed, tag,
step, prompt_uid, occurrence)``. ``slot_uniforms`` derives them for every
slot of a call in one pass: it runs numpy's SeedSequence hash as uint32
array operations over all slot keys at once, then seeds one PCG64 per slot
from the hashed words, with the same bits as building each stream.
"""

from __future__ import annotations

import functools
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64
# seeding (pcg64.h). NEP 19 keeps both streams stable across numpy versions;
# the tests compare slot_uniforms with rng_stream slot by slot.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# The pool words that each mixing round updates from the remaining one.
_OTHERS = [[d for d in range(_POOL_SIZE) if d != src] for src in range(_POOL_SIZE)]


def _const_run(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..count, as uint32."""
    run = [init]
    for _ in range(count):
        run.append(run[-1] * mult & 0xFFFFFFFF)
    return np.array(run, dtype=np.uint32)


# generate_state(4, uint64) hashes the pool twice round into 8 words.
_STATE_CONSTS = _const_run(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


@functools.cache
def _mix_consts(width: int) -> np.ndarray:
    """The hash constants of mixing ``width`` entropy words into the pool.

    The sequence does not depend on the data: 4 words fill the pool, 12
    cross-mix it and each further word mixes into all 4, so 4 * width
    hashes in all, the k-th one using entries k and k + 1. Every call
    shares the result, so it is read-only.
    """
    consts = _const_run(_INIT_A, _MULT_A, _POOL_SIZE * width)
    consts.flags.writeable = False
    return consts


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's hashmix over uint32 arrays; the last axis of ``values`` takes
    consecutive hashes, the j-th one with constants ``consts[j:j + 2]``."""
    out = (values ^ consts[:-1]) * consts[1:]
    return out ^ (out >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ (out >> _XSHIFT)


def _seed_words(value: int) -> list[int]:
    """A seed int's words as numpy takes them: little-endian uint32, 0 as one word."""
    if value < 0:
        raise ValidationError(f"seed values must be >= 0, got {value}")
    words = [value & 0xFFFFFFFF]
    while value >> 32:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def slot_uniforms(
    seed: int, tag: str, step: int, prompt_ids: list[str], n: int, max_len: int
) -> np.ndarray:
    """The (len(prompt_ids) * n, max_len) uniforms of a rollout call.

    Slot s takes rows s * n to (s + 1) * n, equal to
    ``rng_stream(seed, tag, step, prompt_uid(prompt_ids[s]), occurrence)
    .random((n, max_len))``, where occurrence counts the earlier slots of
    the same prompt.
    """
    seen: dict[str, int] = {}
    keys = []
    for pid in prompt_ids:
        occurrence = seen.get(pid, 0)
        seen[pid] = occurrence + 1
        keys.append((prompt_uid(pid), occurrence))
    prefix = _seed_words(seed) + _seed_words(zlib.crc32(tag.encode("utf-8"))) + _seed_words(step)
    # A prompt uid is below 2**32 and an occurrence below the slot count, so
    # both are one word and every slot has the same entropy width (>= 5).
    width = len(prefix) + 2
    entropy = np.empty((len(keys), width), dtype=np.uint32)
    entropy[:, :-2] = prefix
    entropy[:, -2:] = np.array(keys, dtype=np.uint32).reshape(len(keys), 2)
    # SeedSequence.mix_entropy over all slots: fill the pool, cross-mix it,
    # then mix each further word into every pool word.
    consts = _mix_consts(width)
    pool = _hashmix(entropy[:, :_POOL_SIZE], consts[: _POOL_SIZE + 1])
    k = _POOL_SIZE
    for src, dst in enumerate(_OTHERS):
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], consts[k : k + 4]))
        k += 3
    for src in range(_POOL_SIZE, width):
        pool = _mix(pool, _hashmix(entropy[:, src, None], consts[k : k + 5]))
        k += 4
    # generate_state(4, uint64): uint32 word pairs, low word first.
    words = _hashmix(np.concatenate((pool, pool), axis=1), _STATE_CONSTS).astype(np.uint64)
    seeds = words[:, 0::2] | words[:, 1::2] << np.uint64(32)

    uniforms = np.empty((len(keys) * n, max_len))
    bit_generator = np.random.PCG64(0)  # its state is set for every slot
    generator = np.random.Generator(bit_generator)
    pcg = {"state": 0, "inc": 0}
    full_state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for block, (state_hi, state_lo, seq_hi, seq_lo) in zip(
        uniforms.reshape(len(keys), n, max_len), seeds.tolist()
    ):
        # pcg64_set_seed: the state and the odd increment from the 128-bit pair.
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        pcg["inc"] = inc
        pcg["state"] = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = full_state
        generator.random(out=block)
    return uniforms


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


def _check_sizes(n: int, max_len: int) -> None:
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if max_len < 1:
        raise ValidationError(f"max_len must be >= 1, got {max_len}")


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
    _check_sizes(n, max_len)
    n_seq = len(tasks) * n
    if uniforms.shape != (n_seq, max_len):
        raise ValidationError(
            f"uniforms shape {uniforms.shape} != {(n_seq, max_len)}"
        )
    V = policy.vocab_size
    ctx = np.repeat(
        np.array([policy.context_id(t.prompt_tokens) for t in tasks], dtype=np.int64), n
    )
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
    # The CDF never decreases, so the entries <= u are a prefix and their
    # count is the first entry above u. Counting over the first V - 1 entries
    # caps it at V - 1, the token taken when no entry lies above u.
    cdf_head = row_cdf[:, : V - 1].copy()
    tokens = np.empty((n_seq, max_len), dtype=np.int64)
    ctx_store = np.empty((n_seq, max_len), dtype=np.int64)
    ended = np.zeros(n_seq, dtype=bool)
    # Every sequence draws until all have emitted END; what one draws after
    # its own END is never read.
    for step_i in range(max_len):
        ctx_store[:, step_i] = ctx
        choice = np.add.reduce(cdf_head[ctx] <= uniforms[:, step_i, None], axis=1)
        tokens[:, step_i] = choice
        ctx = policy.advance_context(ctx, choice)
        ended |= choice == END_TOKEN
        if ended.all():
            break
    steps = step_i + 1
    tokens, ctx_store = tokens[:, :steps], ctx_store[:, :steps]
    # A sequence ends at its first END, or runs every step without one.
    is_end = tokens == END_TOKEN
    lengths = np.where(is_end.any(axis=1), is_end.argmax(axis=1) + 1, steps)
    # The valid steps of every sequence, row-major: trajectory order is kept.
    valid = np.arange(steps) < lengths[:, None]
    step_ctx, step_tokens = ctx_store[valid], tokens[valid]
    trajectories = trajectory_block(
        prompt_ids=[task.prompt_id for task in tasks for _ in range(n)],
        indices=list(range(n)) * len(tasks),
        domains=[task.domain for task in tasks for _ in range(n)],
        lengths=lengths,
        step_entropies=row_entropy[step_ctx],
        # The log of the chosen entries only: an underflowed 0 elsewhere in
        # the table, or after a sequence's END, would warn on a log it never
        # needed.
        step_logprobs=np.log(probs[step_ctx, step_tokens]),
        tokens=step_tokens,
        ctx_ids=step_ctx,
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
    _check_sizes(n, max_len)
    uniforms = slot_uniforms(seed, tag, step, [t.prompt_id for t in tasks], n, max_len)
    return rollout_slots(policy, tasks, uniforms, n, temperature, max_len)
