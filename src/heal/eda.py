"""Entropy-dynamics alignment (EDA) reward shaping.

``batch_rewards`` compares each target-domain trajectory, through an
entropy-dynamics similarity function, against two pools drawn from the
same training batch:

- every other target-domain trajectory of the batch (``s_intra``), and
- the general-domain trajectories (``s_inter``).

The binary bonus pays 1 exactly when the trajectory's entropy dynamics
resemble general-domain behavior more than they resemble any other
target-domain rollout: ``r_eda = 1[s_inter > s_intra]``, an absent maximum
comparing as -inf on either side and both-absent yielding 0. Ties yield 0
(strict inequality). The total reward is the verifier reward plus the
bonus, so it lands in {0, 1, 2}. General-domain trajectories never receive
the bonus and carry no similarity fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import (
    get_similarity,
    hti_similarity_matrix,
    kl_similarity_matrix,
    pl_similarity_matrix,
)
# The traced benchmark (perfbench/tracer.py) wraps heal.eda.sim_kl by name.
from .dynamics import sim_kl  # noqa: F401
from .errors import ValidationError
from .rollouts import Trajectory, verdict


@dataclass
class RewardRecord:
    """Reward breakdown for one trajectory; ``total = r_acc + r_eda``. The
    fields are a ``reward`` output line's keys in order; an absent pool's
    similarity (None) is left out of the line."""

    trajectory_id: str
    prompt_id: str
    domain: str
    r_acc: float
    r_eda: float
    total: float
    s_intra: Optional[float] = None
    s_inter: Optional[float] = None


def _bonus(s_intra: Optional[float], s_inter: Optional[float]) -> int:
    a = -np.inf if s_intra is None else s_intra
    b = -np.inf if s_inter is None else s_inter
    return int(b > a)


def _row_max(s: np.ndarray) -> np.ndarray:
    """Each row's maximum, taken at its first maximal column like a ``>`` scan."""
    return s[np.arange(s.shape[0]), np.argmax(s, axis=1)]


def _check_finite(targets: list[Trajectory], pools: dict, sim: str) -> None:
    """Raise ValidationError naming the first target, in batch order, whose
    ``s_intra`` or ``s_inter`` (``pools``: name -> row maxima) is not finite:
    an infinite KL divergence when a softmax weight underflows, or an hti
    min-sum past float64. No bonus compares such values, and JSON has no
    spelling for them."""
    bad = {name: ~np.isfinite(m) for name, m in pools.items()}
    anywhere = np.logical_or.reduce(list(bad.values()))
    if not anywhere.any():
        return
    i = int(anywhere.argmax())
    name = next(name for name, b in bad.items() if b[i])
    raise ValidationError(
        f"target {targets[i].trajectory_id}: {name} is {float(pools[name][i])}, "
        f"not a finite {sim} similarity"
    )


def batch_rewards(batch: list[Trajectory], sim: str = "kl") -> list[RewardRecord]:
    """Score one training batch; records come back in batch order.

    One kernel call scores the targets against the targets followed by the
    generals. ``s_intra`` is the row maximum of the leading target x target
    block with its diagonal excluded, ``s_inter`` the row maximum of the
    rest. Each kernel cell is its pair's similarity, and a row maximum is
    taken at its first maximal column, so every value equals a scan of the
    batch in order that keeps the first strictly larger similarity. A target whose ``s_intra`` or ``s_inter`` is not
    finite raises ValidationError.
    """
    if not batch:
        raise ValidationError("empty batch")
    get_similarity(sim)
    # Looked up per call, so a wrapper patched onto this module's names (as
    # the traced benchmark does) sees the kernel calls.
    matrix = {
        "kl": kl_similarity_matrix,
        "hti": hti_similarity_matrix,
        "pl": pl_similarity_matrix,
    }[sim]
    targets = [t for t in batch if t.domain == "target"]
    target = [t.step_entropies for t in targets]
    general = [t.step_entropies for t in batch if t.domain == "general"]
    n = len(target)
    maxima = {}
    if n > 1 or (target and general):
        # An overflow gives an infinite similarity, which _check_finite names.
        with np.errstate(over="ignore"):
            s = matrix(target, target + general)
        if n > 1:
            s_tt = s[:, :n]
            np.fill_diagonal(s_tt, -np.inf)
            maxima["s_intra"] = _row_max(s_tt)
        if general:
            maxima["s_inter"] = _row_max(s[:, n:])
        _check_finite(targets, maxima, sim)
    s_intra = maxima["s_intra"].tolist() if "s_intra" in maxima else [None] * n
    s_inter = maxima["s_inter"].tolist() if "s_inter" in maxima else [None] * n
    pools = iter(zip(s_intra, s_inter))

    records = []
    for t in batch:
        r_acc = float(verdict(t))
        if t.domain == "target":
            s_i, s_o = next(pools)
            r_eda = float(_bonus(s_i, s_o))
        else:
            s_i = s_o = None
            r_eda = 0.0
        records.append(
            RewardRecord(
                trajectory_id=t.trajectory_id,
                prompt_id=t.prompt_id,
                domain=t.domain,
                r_acc=r_acc,
                r_eda=r_eda,
                total=r_acc + r_eda,
                s_intra=s_i,
                s_inter=s_o,
            )
        )
    return records
