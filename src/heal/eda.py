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
from .rollouts import Trajectory


@dataclass
class RewardRecord:
    """Reward breakdown for one trajectory; ``total = r_acc + r_eda``."""

    trajectory_id: str
    r_acc: float
    r_eda: float
    total: float
    s_intra: Optional[float] = None
    s_inter: Optional[float] = None
    prompt_id: str = ""
    domain: str = "target"


def _bonus(s_intra: Optional[float], s_inter: Optional[float]) -> int:
    a = -np.inf if s_intra is None else s_intra
    b = -np.inf if s_inter is None else s_inter
    return int(b > a)


def _row_max(s: np.ndarray) -> list[float]:
    """Each row's maximum, taken at its first maximal column like a ``>`` scan."""
    return s[np.arange(s.shape[0]), np.argmax(s, axis=1)].tolist()


def batch_rewards(batch: list[Trajectory], sim: str = "kl") -> list[RewardRecord]:
    """Score one training batch; records come back in batch order.

    One kernel call scores the targets against the targets followed by the
    generals. ``s_intra`` is the row maximum of the leading target x target
    block with its diagonal excluded, ``s_inter`` the row maximum of the
    rest. The matrix kernels are bit-identical to the scalar similarities
    and a row maximum is taken at its first maximal column, so every value
    equals a scan of the batch in order that keeps the first strictly
    larger similarity.
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
    target = [t.step_entropies for t in batch if t.domain == "target"]
    general = [t.step_entropies for t in batch if t.domain == "general"]
    n = len(target)
    s_intra: list[Optional[float]] = [None] * n
    s_inter: list[Optional[float]] = [None] * n
    if n > 1 or (target and general):
        s = matrix(target, target + general)
        if n > 1:
            s_tt = s[:, :n]
            np.fill_diagonal(s_tt, -np.inf)
            s_intra = _row_max(s_tt)
        if general:
            s_inter = _row_max(s[:, n:])
    pools = iter(zip(s_intra, s_inter))

    records = []
    for t in batch:
        if t.correct is None:
            raise ValidationError(f"trajectory {t.trajectory_id} has no correctness verdict")
        r_acc = float(t.correct)
        if t.domain == "target":
            s_i, s_o = next(pools)
            r_eda = float(_bonus(s_i, s_o))
        else:
            s_i = s_o = None
            r_eda = 0.0
        records.append(
            RewardRecord(
                trajectory_id=t.trajectory_id,
                r_acc=r_acc,
                r_eda=r_eda,
                total=r_acc + r_eda,
                s_intra=s_i,
                s_inter=s_o,
                prompt_id=t.prompt_id,
                domain=t.domain,
            )
        )
    return records
