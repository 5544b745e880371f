"""Entropy-dynamics alignment (EDA) reward shaping.

Each target-domain trajectory is compared, through an entropy-dynamics
similarity function, against two pools drawn from the same training batch:

- the other target-domain trajectories (``s_intra``), and
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

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import (
    EntropyDynamics,
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
class DynamicsBuffer:
    """Per-batch pools of target- and general-domain entropy dynamics."""

    target: list[EntropyDynamics] = field(default_factory=list)
    general: list[EntropyDynamics] = field(default_factory=list)

    def __post_init__(self):
        for tau in self.target:
            if tau.domain != "target":
                raise ValidationError(
                    f"dynamics {tau.source_id!r} tagged {tau.domain!r} in the target pool"
                )
        for tau in self.general:
            if tau.domain != "general":
                raise ValidationError(
                    f"dynamics {tau.source_id!r} tagged {tau.domain!r} in the general pool"
                )

    @classmethod
    def from_batch(cls, batch: list[Trajectory]) -> "DynamicsBuffer":
        buf = cls()
        for t in batch:
            (buf.target if t.domain == "target" else buf.general).append(t.dynamics)
        return buf


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


def _locate(tau_i: EntropyDynamics, pool: list[EntropyDynamics]) -> int:
    for idx, tau in enumerate(pool):
        if tau is tau_i:
            return idx
    raise ValidationError(
        f"dynamics {tau_i.source_id!r} not found in the buffer's target pool"
    )


def _pool_max(tau: EntropyDynamics, pool: list[EntropyDynamics], sim) -> Optional[float]:
    best = None
    for other in pool:
        value = sim(tau, other)
        if best is None or value > best:
            best = value
    return best


def intra_similarity(
    tau_i: EntropyDynamics, buffer: DynamicsBuffer, sim: str = "kl"
) -> Optional[float]:
    """Max similarity of a target trajectory to every *other* target one.

    Only the trajectory itself is excluded; same-prompt siblings count.
    None when it is the only target trajectory in the buffer.
    """
    idx = _locate(tau_i, buffer.target)
    others = buffer.target[:idx] + buffer.target[idx + 1 :]
    return _pool_max(tau_i, others, get_similarity(sim))


def inter_similarity(
    tau_i: EntropyDynamics, buffer: DynamicsBuffer, sim: str = "kl"
) -> Optional[float]:
    """Max similarity of a target trajectory to the general-domain pool.

    No self-exclusion applies; None when the general pool is empty.
    """
    _locate(tau_i, buffer.target)
    return _pool_max(tau_i, buffer.general, get_similarity(sim))


def _bonus(s_intra: Optional[float], s_inter: Optional[float]) -> int:
    a = -np.inf if s_intra is None else s_intra
    b = -np.inf if s_inter is None else s_inter
    return int(b > a)


def eda_reward(tau_i: EntropyDynamics, buffer: DynamicsBuffer, sim: str = "kl") -> int:
    """1 when s_inter strictly exceeds s_intra, absent values comparing as -inf."""
    return _bonus(intra_similarity(tau_i, buffer, sim), inter_similarity(tau_i, buffer, sim))


def _row_max(s: np.ndarray) -> list[float]:
    """Each row's maximum, taken at its first maximal column like a ``>`` scan."""
    return s[np.arange(s.shape[0]), np.argmax(s, axis=1)].tolist()


def batch_rewards(batch: list[Trajectory], sim: str = "kl") -> list[RewardRecord]:
    """Score one training batch; records come back in batch order.

    The similarity pools are the target- and general-domain trajectories of
    this same batch. ``s_intra`` is the row maximum of the target x target
    similarity matrix with its diagonal excluded, ``s_inter`` the row
    maximum of the target x general one; the matrix kernels are
    bit-identical to the scalar similarities, so every value equals the
    naive pairwise loop of ``intra_similarity``/``inter_similarity``.
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
    buffer = DynamicsBuffer.from_batch(batch)
    target, general = buffer.target, buffer.general
    s_intra: list[Optional[float]] = [None] * len(target)
    s_inter: list[Optional[float]] = [None] * len(target)
    if len(target) > 1:
        s_tt = matrix(target, target)
        np.fill_diagonal(s_tt, -np.inf)
        s_intra = _row_max(s_tt)
    if target and general:
        s_inter = _row_max(matrix(target, general))
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
