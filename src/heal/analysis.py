"""Pass@k estimation and plot-ready extraction of training curves."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import ValidationError
from .rollouts import Trajectory
from .trace_io import MetricsRow, read_metrics


@dataclass(frozen=True)
class PassAtKInput:
    """n samples per problem, c of them correct, subset size k."""

    n: int
    c: int
    k: int

    def __post_init__(self) -> None:
        for name in ("n", "c", "k"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.c <= self.n:
            raise ValidationError(f"c must lie in [0, n], got c={self.c}, n={self.n}")
        if not 1 <= self.k <= self.n:
            raise ValidationError(f"k must lie in [1, n], got k={self.k}, n={self.n}")


def pass_at_k(inp: PassAtKInput) -> float:
    """Probability that a random size-k subset contains a correct sample.

    1 - C(n-c, k)/C(n, k) with exact integer binomials; C(a, b) = 0 when
    b > a, so c = 0 gives 0 and k > n - c gives 1.
    """
    from fractions import Fraction  # only pass@k needs it, not every command's start-up

    miss = Fraction(math.comb(inp.n - inp.c, inp.k), math.comb(inp.n, inp.k))
    return float(1 - miss)


def pass_at_k_per_prompt(
    trajectories: list[Trajectory], ks: list[int]
) -> list[tuple[str, int, int, list[float]]]:
    """Group trajectories by prompt and evaluate pass@k for each k.

    Returns (prompt_id, n, c, values) per prompt in first-appearance order.
    Every trajectory needs a correctness verdict; every k must not exceed
    the smallest per-prompt sample count.
    """
    if not trajectories:
        raise ValidationError("no trajectories to score")
    if not ks:
        raise ValidationError("no k values given")
    counts: dict[str, list[int]] = {}
    for t in trajectories:
        if t.correct is None:
            raise ValidationError(f"trajectory {t.trajectory_id} has no correctness verdict")
        counts.setdefault(t.prompt_id, []).append(int(t.correct))
    out = []
    for prompt_id, verdicts in counts.items():
        n, c = len(verdicts), sum(verdicts)
        try:
            values = [pass_at_k(PassAtKInput(n=n, c=c, k=k)) for k in ks]
        except ValidationError as exc:
            raise ValidationError(f"prompt {prompt_id!r} ({n} samples): {exc}") from None
        out.append((prompt_id, n, c, values))
    return out


def curve_rows(run_dir) -> list[MetricsRow]:
    """Load the metrics series persisted by a training run."""
    path = os.path.join(run_dir, "metrics.jsonl")
    if not os.path.isfile(path):
        raise FileNotFoundError(f"no metrics.jsonl under {run_dir}")
    return read_metrics(path)


def curve_table(run_dirs: list, labels: list[str] | None = None):
    """Concatenate runs into (header, rows) ready for CSV emission.

    A single run emits (step, mean_entropy_target, mean_entropy_general,
    reward_rate, eda_rate); multiple runs prepend a run-label column.
    """
    if not run_dirs:
        raise ValidationError("no run directories given")
    if labels is None:
        labels = [os.path.basename(os.path.normpath(str(d))) for d in run_dirs]
    if len(labels) != len(run_dirs):
        raise ValidationError("labels and run directories differ in length")
    columns = [
        "step",
        "mean_entropy_target",
        "mean_entropy_general",
        "reward_rate",
        "eda_rate",
    ]
    multi = len(run_dirs) > 1
    header = (["run"] if multi else []) + columns
    rows = []
    for label, run_dir in zip(labels, run_dirs):
        for row in curve_rows(run_dir):
            cells = [getattr(row, name) for name in columns]
            rows.append(([label] if multi else []) + cells)
    return header, rows
