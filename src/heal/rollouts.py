"""Shared containers for sampled trajectories and per-prompt rollout groups.

A trajectory records, per generated step, the full-vocabulary entropy of the
sampling distribution (always present) and optionally the realized token ids
and their log-probabilities. Groups collect the N trajectories sampled for
one prompt and expose the empirical accuracy used by data selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ValidationError

DOMAINS = ("target", "general")


@dataclass
class Trajectory:
    """One sampled completion with its per-step entropy channel.

    ``step_entropies`` is required and defines the length. It is the
    entropy-dynamics curve that the ``heal.dynamics`` similarities take as
    is, so it is validated here (non-empty, 1-d, finite, >= 0). ``tokens``
    and ``step_logprobs`` are optional channels that must match that length
    when present. ``correct`` is None when no verifier ran (general-domain data).
    """

    prompt_id: str
    domain: str
    step_entropies: np.ndarray
    trajectory_index: int = 0
    tokens: Optional[list[int]] = None
    step_logprobs: Optional[np.ndarray] = None
    correct: Optional[int] = None
    answer: Optional[str] = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise ValidationError(f"unknown domain {self.domain!r}; expected one of {DOMAINS}")
        ent = np.asarray(self.step_entropies, dtype=np.float64)
        if ent.ndim != 1 or ent.size == 0:
            raise ValidationError(
                f"trajectory {self.trajectory_id}: step_entropies must be non-empty and 1-d"
            )
        if not np.all(np.isfinite(ent)) or np.any(ent < 0):
            raise ValidationError(
                f"trajectory {self.trajectory_id}: step entropies must be finite and >= 0"
            )
        self.step_entropies = ent
        if self.tokens is not None and len(self.tokens) != ent.size:
            raise ValidationError(
                f"trajectory {self.trajectory_id}: {len(self.tokens)} tokens "
                f"vs {ent.size} entropy steps"
            )
        if self.step_logprobs is not None:
            lp = np.asarray(self.step_logprobs, dtype=np.float64)
            if lp.shape != ent.shape:
                raise ValidationError(
                    f"trajectory {self.trajectory_id}: step_logprobs length {lp.size} "
                    f"vs {ent.size} entropy steps"
                )
            if not np.all(np.isfinite(lp)) or np.any(lp > 0):
                raise ValidationError(
                    f"trajectory {self.trajectory_id}: log-probabilities must be finite and <= 0"
                )
            self.step_logprobs = lp
        if self.correct is not None and self.correct not in (0, 1):
            raise ValidationError(
                f"trajectory {self.trajectory_id}: correct must be 0, 1, or absent"
            )

    @property
    def trajectory_id(self) -> str:
        return f"{self.prompt_id}/{self.trajectory_index}"

    @property
    def length(self) -> int:
        return self.step_entropies.size


@dataclass
class RolloutGroup:
    """All trajectories sampled for one prompt, in sampling order."""

    prompt_id: str
    domain: str
    trajectories: list[Trajectory]
    ground_truth: Optional[str] = None

    def __post_init__(self):
        if not self.trajectories:
            raise ValidationError(f"group {self.prompt_id}: no trajectories")
        if self.domain not in DOMAINS:
            raise ValidationError(f"unknown domain {self.domain!r}; expected one of {DOMAINS}")
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
        flags = []
        for t in self.trajectories:
            if t.correct is None:
                raise ValidationError(
                    f"group {self.prompt_id}: trajectory {t.trajectory_id} has no verdict"
                )
            flags.append(t.correct)
        return float(np.mean(flags))
