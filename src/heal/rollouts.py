"""Shared containers for sampled trajectories and per-prompt rollout groups.

A trajectory records, per generated step, the full-vocabulary entropy of the
sampling distribution (always present) and optionally the realized token ids
and their log-probabilities. Groups collect the N trajectories sampled for
one prompt and expose the empirical accuracy used by data selection. A
sampled batch is built in one call, ``trajectory_block``, which applies the
same rules as the ``Trajectory`` constructor once to the whole batch.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError

DOMAINS = ("target", "general")


def trajectory_id(prompt_id: str, trajectory_index: int) -> str:
    return f"{prompt_id}/{trajectory_index}"


def _decoded_array(raw, typecode: str):
    """A sequence as an array of C doubles (``"d"``) or int64s (``"q"``), or
    None where ``array`` refuses an entry or one is a bool.

    A list decoded from JSON holds only float, int, bool, str, None, list and
    dict, and ``array`` refuses all of them but int, float and bool, raising
    OverflowError for an int out of its range. A bool converts to exactly 0
    or 1, so only the entries equal to 0 or 1 need their type looked at.
    ``array`` converts any other number through ``float()`` or
    ``__index__``, so under ``"q"`` a numpy integer converts and a numpy bool
    or float is refused. The trace reader converts its real lists here, and
    the ``Trajectory`` constructor its id channels.
    """
    try:
        arr = np.frombuffer(array(typecode, raw), dtype=typecode)
    except (TypeError, OverflowError):
        return None
    for i in np.flatnonzero((arr == 0) | (arr == 1)).tolist():
        if type(raw[i]) is bool:
            return None
    return arr


def _id_channel(t: Trajectory, name: str, noun: str, n: int):
    """The id channel ``name`` of ``t`` as an int64 array of ``n`` entries,
    or None when absent. Each entry must be an integer >= 0 within int64 and
    not a bool; a refusal names the first entry that is not."""
    raw = getattr(t, name)
    if raw is None:
        return None
    arr = _decoded_array(raw, "q")
    if arr is None or (arr < 0).any():
        for v in raw:
            one = _decoded_array([v], "q")
            if one is None or one[0] < 0:
                raise ValidationError(f"trajectory {t.trajectory_id}: bad {noun} {v!r}", name)
    if arr.size != n:
        raise ValidationError(
            f"trajectory {t.trajectory_id}: {arr.size} {noun}s vs {n} entropy steps", name
        )
    return arr


def _check_channels(prompt_ids, indices, domains, lengths, entropies, logprobs=None) -> None:
    """Raise the ValidationError, with its trace field, of the first
    trajectory that breaks a rule. Trajectory i owns ``lengths[i]``
    consecutive steps of the flat ``entropies`` (and ``logprobs``, when
    given). Its rules, in the order reported: known domain, at least one
    step, entropies finite and >= 0, log-probabilities finite and <= 0.
    """
    if lengths.size == 0:
        return
    if (
        set(domains) <= set(DOMAINS)
        and lengths.min() > 0
        and entropies.min() >= 0
        and entropies.max() < np.inf
        and (logprobs is None or (logprobs.max() <= 0 and logprobs.min() > -np.inf))
    ):
        return
    ends = np.cumsum(lengths)

    def owners(bad_steps):
        bad = np.zeros(lengths.size, dtype=bool)
        bad[np.searchsorted(ends, np.flatnonzero(bad_steps), side="right")] = True
        return bad

    rules = [
        ([d not in DOMAINS for d in domains], "domain",
         "unknown domain {domain!r}; expected one of {DOMAINS}"),
        (lengths == 0, "entropies", "trajectory {id}: step_entropies must be non-empty and 1-d"),
        (owners(~((entropies >= 0) & (entropies < np.inf))), "entropies",
         "trajectory {id}: step entropies must be finite and >= 0"),
    ]
    if logprobs is not None:
        rules.append((owners(~((logprobs <= 0) & (logprobs > -np.inf))), "logprobs",
                      "trajectory {id}: log-probabilities must be finite and <= 0"))
    broken = np.array([bad for bad, _, _ in rules], dtype=bool)
    i = int(broken.any(axis=0).argmax())
    _, field, message = rules[int(broken[:, i].argmax())]
    raise ValidationError(message.format(
        domain=domains[i], DOMAINS=DOMAINS, id=trajectory_id(prompt_ids[i], indices[i])
    ), field)


@dataclass
class Trajectory:
    """One sampled completion with its per-step entropy channel.

    ``step_entropies`` is required and defines the length. It is the
    entropy-dynamics curve that the ``heal.dynamics`` similarities take as
    is, so it is validated here (non-empty, 1-d, finite, >= 0). ``tokens``,
    ``step_logprobs`` and ``ctx_ids`` (the policy-table row of each sampled
    step) are optional channels that must match that length when present.
    ``tokens`` and ``ctx_ids`` take integers >= 0 within int64, not bools,
    and are stored as int64 arrays.
    ``trajectory_index`` is an integer >= 0, as in a trace file, and is
    stored as ``int``. ``correct`` is None when no verifier ran
    (general-domain data). ``answer`` and ``extras`` (a trace line's answer
    text and unknown JSON keys) are None on sampled trajectories.

    These rules are also the value rules of a trace line, whose reader checks
    only JSON kinds. A refusal's ``field`` is the trace field of the rule.
    """

    prompt_id: str
    domain: str
    step_entropies: np.ndarray
    trajectory_index: int = 0
    tokens: Optional[np.ndarray] = None
    step_logprobs: Optional[np.ndarray] = None
    correct: Optional[int] = None
    answer: Optional[str] = None
    ctx_ids: Optional[np.ndarray] = None
    extras: Optional[dict] = None

    def __post_init__(self):
        index = self.trajectory_index
        if isinstance(index, bool) or not isinstance(index, (int, np.integer)) or index < 0:
            raise ValidationError(
                f"trajectory {self.trajectory_id}: trajectory_index must be an integer "
                f">= 0, got {index!r}", "trajectory_index"
            )
        self.trajectory_index = int(index)
        ent = np.asarray(self.step_entropies, dtype=np.float64)
        if ent.ndim != 1:
            raise ValidationError(
                f"trajectory {self.trajectory_id}: step_entropies must be non-empty and 1-d",
                "entropies",
            )
        self.tokens = _id_channel(self, "tokens", "token", ent.size)
        self.ctx_ids = _id_channel(self, "ctx_ids", "context id", ent.size)
        lp = None
        if self.step_logprobs is not None:
            lp = np.asarray(self.step_logprobs, dtype=np.float64)
            if lp.shape != ent.shape:
                raise ValidationError(
                    f"trajectory {self.trajectory_id}: step_logprobs length {lp.size} "
                    f"vs {ent.size} entropy steps", "logprobs"
                )
        _check_channels(
            [self.prompt_id], [self.trajectory_index], [self.domain],
            np.array([ent.size]), ent, lp,
        )
        self.step_entropies = ent
        self.step_logprobs = lp
        if self.correct is not None and self.correct not in (0, 1):
            raise ValidationError(
                f"trajectory {self.trajectory_id}: correct must be 0, 1, or absent", "correct"
            )

    @property
    def trajectory_id(self) -> str:
        return trajectory_id(self.prompt_id, self.trajectory_index)

    @property
    def length(self) -> int:
        return self.step_entropies.size


def trajectory_block(
    prompt_ids: list[str],
    indices: list[int],
    domains: list[str],
    lengths: np.ndarray,
    step_entropies: np.ndarray,
    step_logprobs: np.ndarray,
    tokens: np.ndarray,
    ctx_ids: np.ndarray,
    correct: np.ndarray,
) -> list[Trajectory]:
    """One sampled batch as Trajectory objects, validated once.

    The channels are flat: trajectory i owns the next ``lengths[i]`` steps
    of ``step_entropies``, ``step_logprobs``, ``tokens`` and ``ctx_ids``.
    ``correct`` holds boolean verdicts. The rules and messages are those of
    ``Trajectory(...)`` called on each trajectory in order, so the first
    one that breaks a rule is named. ``tokens`` and ``ctx_ids`` must be
    int64, as the sampler makes them; their sign is not checked here. A
    trajectory's arrays are views into the flat ones.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    ent = np.asarray(step_entropies, dtype=np.float64)
    lp = np.asarray(step_logprobs, dtype=np.float64)
    correct = np.asarray(correct)
    n, total = lengths.size, int(lengths.sum())
    if not (len(prompt_ids) == len(indices) == len(domains) == n
            and lengths.shape == correct.shape == (n,) and correct.dtype == bool
            and ent.shape == lp.shape == tokens.shape == ctx_ids.shape == (total,)
            and tokens.dtype == ctx_ids.dtype == np.int64
            and (n == 0 or lengths.min() >= 0)):
        raise ValidationError("trajectory block: channels do not match the lengths")
    _check_channels(prompt_ids, indices, domains, lengths, ent, lp)
    ends = np.cumsum(lengths).tolist()
    starts = [0] + ends[:-1]
    verdicts = correct.astype(np.int64).tolist()
    new = object.__new__
    out = []
    for pid, j, dom, a, b, c in zip(prompt_ids, indices, domains, starts, ends, verdicts):
        t = new(Trajectory)
        t.__dict__ = {
            "prompt_id": pid, "domain": dom, "step_entropies": ent[a:b],
            "trajectory_index": j, "tokens": tokens[a:b], "step_logprobs": lp[a:b],
            "correct": c, "answer": None, "ctx_ids": ctx_ids[a:b], "extras": None,
        }
        out.append(t)
    return out


def verdict(t: Trajectory) -> int:
    """A trajectory's correctness verdict as 0 or 1; a missing one raises
    ValidationError. Scoring, rewards and the trace writer read it here."""
    if t.correct is None:
        raise ValidationError(f"trajectory {t.trajectory_id} has no correctness verdict")
    return int(t.correct)


@dataclass
class RolloutGroup:
    """All trajectories sampled for one prompt, in sampling order, of one domain."""

    prompt_id: str
    domain: str
    trajectories: list[Trajectory]

    def __post_init__(self):
        if not self.trajectories:
            raise ValidationError(f"group {self.prompt_id}: no trajectories")
        for t in self.trajectories:
            if t.prompt_id != self.prompt_id:
                raise ValidationError(
                    f"group {self.prompt_id}: trajectory {t.trajectory_id} belongs elsewhere"
                )
            if t.domain != self.domain:
                raise ValidationError(
                    f"group {self.prompt_id}: mixed domains "
                    f"({self.domain!r} vs {t.domain!r} on {t.trajectory_id})"
                )

    def __len__(self) -> int:
        return len(self.trajectories)

    def accuracy(self) -> float:
        """Fraction of verified-correct trajectories; needs verdicts on all."""
        return sum(map(verdict, self.trajectories)) / len(self.trajectories)
