"""Pass@k estimation and plot-ready extraction of training curves."""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import ValidationError
from .rollouts import RolloutGroup, verdict
from .trace_io import _METRICS_FIELDS, MetricsRow, read_metrics


def pass_at_k(n: int, c: int, k: int) -> float:
    """Probability that a random size-k subset of n samples, c of them
    correct, contains a correct sample.

    1 - C(n-c, k)/C(n, k) with exact integer binomials; C(a, b) = 0 when
    b > a, so c = 0 gives 0 and k > n - c gives 1.
    """
    for name, value in (("n", n), ("c", c), ("k", k)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    n, c, k = int(n), int(c), int(k)
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if not 0 <= c <= n:
        raise ValidationError(f"c must lie in [0, n], got c={c}, n={n}")
    if not 1 <= k <= n:
        raise ValidationError(f"k must lie in [1, n], got k={k}, n={n}")
    from fractions import Fraction  # only pass@k needs it, not every command's start-up

    return float(1 - Fraction(math.comb(n - c, k), math.comb(n, k)))


def pass_at_k_per_prompt(
    groups: list[RolloutGroup], ks: list[int]
) -> list[tuple[str, int, int, list[float]]]:
    """Evaluate pass@k for each prompt group and each k.

    Returns (prompt_id, n, c, values) per group, in order. Every trajectory
    needs a correctness verdict; every k must not exceed the smallest group.
    """
    if not groups:
        raise ValidationError("no trajectories to score")
    if not ks:
        raise ValidationError("no k values given")
    counts = [(g.prompt_id, len(g), sum(map(verdict, g.trajectories))) for g in groups]
    out = []
    for prompt_id, n, c in counts:
        try:
            values = [pass_at_k(n, c, k) for k in ks]
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

    The columns are a metrics line's fields in file order (step, then the
    mean entropies, reward and EDA rates and mean dynamics distance); an
    absent value is None. Multiple runs prepend a run-label column.
    """
    if not run_dirs:
        raise ValidationError("no run directories given")
    if labels is None:
        labels = [os.path.basename(os.path.normpath(str(d))) for d in run_dirs]
    if len(labels) != len(run_dirs):
        raise ValidationError("labels and run directories differ in length")
    multi = len(run_dirs) > 1
    header = (["run"] if multi else []) + list(_METRICS_FIELDS)
    rows = []
    for label, run_dir in zip(labels, run_dirs):
        for row in curve_rows(run_dir):
            cells = [getattr(row, name) for name in _METRICS_FIELDS]
            rows.append(([label] if multi else []) + cells)
    return header, rows
