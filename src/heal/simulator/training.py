"""Deterministic policy-gradient training loop over the synthetic tasks.

One step: sample a batch of prompt slots for the mode's data mixture, roll
out N trajectories per slot, compute verifier rewards (plus the alignment
bonus under the "heal" mode), normalize rewards within each slot's group,
and take one exact-gradient step on the logit table. Metrics rows come from
separate evaluation rollouts on fixed prompt subsets so that curves are
comparable across modes; evaluation consumes its own RNG streams and leaves
training trajectories untouched.

Everything is a pure function of (config, seed): two runs with the same
config produce bit-identical metrics files.
"""

from __future__ import annotations

import dataclasses
import math
import os
import typing
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ..dynamics import kl_similarity_matrix
from ..eda import batch_rewards
from ..entropy import LOG_FLOOR, entropy_of_prob_rows, mean_vocab_entropy, softmax_probs
from ..errors import DivergenceError, ValidationError
from ..regularizers import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_EPS_HIGH,
    DEFAULT_EPS_LOW,
    DEFAULT_GAMMA,
    DEFAULT_K_FRAC,
    REGULARIZER_NAMES,
    clip_ratio_asymmetric,
    entropy_loss_term,
    high_entropy_mask,
    kl_cov_select,
    kl_penalty_term,
)
from ..rollouts import Trajectory
from ..selection import DEFAULT_ROLLOUTS_PER_PROMPT, DEFAULT_TEMPERATURE
from ..selection import score_groups, select_top_k
from ..trace_io import MetricsRow, write_metrics
from .policy import TabularPolicy
from .rollout import rng_stream, rollout_tasks
from .tasks import MAX_GENERAL, N_PROMPTS, VOCAB_SIZE, SynthTask, make_task_suite

MODES = ("fewshot", "fullshot", "onlygeneral", "hybrid", "heal")
SIM_CHOICES = ("kl", "hti", "pl")


@dataclass
class TrainConfig:
    """Flat, file-serializable training configuration: every setting of a run."""

    mode: str
    n_target: int = 4
    n_general: int = 0
    rollouts_per_prompt: int = DEFAULT_ROLLOUTS_PER_PROMPT
    temperature: float = DEFAULT_TEMPERATURE
    batch_size: int = 128
    steps: int = 200
    learning_rate: float = 0.05
    seed: int = 0
    regularizer: str = "none"
    sim_choice: str = "kl"
    max_len: int = 8
    context_window: int = 2
    log_every: int = 10
    eda_start_step: int = 0
    general_fraction: float = -1.0
    selection_pool_factor: float = 2.0
    micro_chunks: int = 4
    eval_prompts: int = 16
    mask_ref_kl: bool = False
    alpha: float = DEFAULT_ALPHA
    gamma: float = DEFAULT_GAMMA
    eps_low: float = DEFAULT_EPS_LOW
    eps_high: float = DEFAULT_EPS_HIGH
    k_frac: float = DEFAULT_K_FRAC
    beta: float = DEFAULT_BETA

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.regularizer not in REGULARIZER_NAMES:
            raise ValidationError(
                f"regularizer must be one of {REGULARIZER_NAMES}, got {self.regularizer!r}"
            )
        if self.sim_choice not in SIM_CHOICES:
            raise ValidationError(
                f"sim_choice must be one of {SIM_CHOICES}, got {self.sim_choice!r}"
            )
        if self.n_target < 0 or self.n_general < 0:
            raise ValidationError("sample counts must be >= 0")
        if self.mode in ("fewshot", "fullshot") and self.n_target < 1:
            raise ValidationError(f"mode {self.mode} needs n_target >= 1")
        if self.mode == "onlygeneral" and self.n_general < 1:
            raise ValidationError("mode onlygeneral needs n_general >= 1")
        if self.mode in ("hybrid", "heal") and (self.n_target < 1 or self.n_general < 1):
            raise ValidationError(f"mode {self.mode} needs both sample counts >= 1")
        if self.rollouts_per_prompt < 2:
            raise ValidationError("rollouts_per_prompt must be >= 2 (group normalization)")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValidationError(f"temperature must be > 0, got {self.temperature}")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if self.mode in ("hybrid", "heal") and self.batch_size < 2:
            raise ValidationError("mixed-domain batches need batch_size >= 2")
        if self.steps < 0:
            raise ValidationError("steps must be >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.max_len < 1:
            raise ValidationError("max_len must be >= 1")
        if not 1 <= self.context_window <= 3:
            raise ValidationError("context_window must lie in [1, 3]")
        if self.log_every < 1:
            raise ValidationError("log_every must be >= 1")
        if self.eda_start_step < 0:
            raise ValidationError("eda_start_step must be >= 0")
        if not (math.isfinite(self.general_fraction) and self.general_fraction <= 1.0):
            raise ValidationError(
                "general_fraction must be finite and <= 1 (or negative for proportional), "
                f"got {self.general_fraction}"
            )
        if not (math.isfinite(self.selection_pool_factor) and self.selection_pool_factor >= 1.0):
            raise ValidationError(
                f"selection_pool_factor must be finite and >= 1, got {self.selection_pool_factor}"
            )
        if self.n_target > N_PROMPTS:
            raise ValidationError(f"n_target must be <= {N_PROMPTS}, got {self.n_target}")
        if self.mode == "heal" and self.n_candidates > MAX_GENERAL:
            raise ValidationError(
                f"n_general * selection_pool_factor must be <= {MAX_GENERAL}, "
                f"got {self.n_general} * {self.selection_pool_factor} -> {self.n_candidates}"
            )
        if self.mode != "heal" and self.n_general > MAX_GENERAL:
            raise ValidationError(f"n_general must be <= {MAX_GENERAL}, got {self.n_general}")
        if self.micro_chunks < 1:
            raise ValidationError("micro_chunks must be >= 1")
        if self.eval_prompts < 1:
            raise ValidationError("eval_prompts must be >= 1")
        if not math.isfinite(self.alpha):
            raise ValidationError(f"alpha must be finite, got {self.alpha}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValidationError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not 0.0 < self.k_frac <= 1.0:
            raise ValidationError(f"k_frac must lie in (0, 1], got {self.k_frac}")
        if not 0.0 <= self.eps_low <= 1.0:
            raise ValidationError(f"eps_low must lie in [0, 1], got {self.eps_low}")
        # Each check is written so that NaN fails it; eps_high = inf means no upper clip.
        if not self.eps_high >= 0.0:
            raise ValidationError(f"eps_high must be >= 0, got {self.eps_high}")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValidationError(f"beta must be finite and >= 0, got {self.beta}")

    @property
    def n_candidates(self) -> int:
        """General prompts heal mode scores before it keeps n_general of them."""
        return math.ceil(self.n_general * self.selection_pool_factor)


_FIELD_TYPES = typing.get_type_hints(TrainConfig)


def config_text(cfg: TrainConfig) -> str:
    """Render a config as flat ``key = value`` lines, one per field."""
    lines = []
    for f in dataclasses.fields(TrainConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> TrainConfig:
    """Parse ``key = value`` lines; # starts a comment line."""
    values: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"config line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ValidationError(f"config line {line_no}: unknown key {key!r}")
        if key in values:
            raise ValidationError(f"config line {line_no}: duplicate key {key!r}")
        kind = _FIELD_TYPES[key]
        try:
            if kind is bool:
                if value.lower() not in ("true", "false"):
                    raise ValueError(f"expected true/false, got {value!r}")
                values[key] = value.lower() == "true"
            elif kind is int:
                values[key] = int(value)
            elif kind is float:
                values[key] = float(value)
            else:
                values[key] = value
        except ValueError as exc:
            raise ValidationError(f"config line {line_no}: bad value for {key!r}: {exc}") from None
    if "mode" not in values:
        raise ValidationError("config is missing the required 'mode' key")
    cfg = TrainConfig(**values)
    cfg.validate()
    return cfg


def load_config(path) -> TrainConfig:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Numbered as parse_config numbers lines: the bad byte's line is the last.
        line_no = len((blob[: exc.start].decode("utf-8") + "x").splitlines())
        raise ValidationError(
            f"config line {line_no}: not UTF-8: byte 0x{blob[exc.start]:02x}"
        ) from None
    return parse_config(text)


def grpo_advantages(rewards) -> np.ndarray:
    """Group-normalized advantages (r - mean) / (population std + 1e-6).

    A zero-variance group gets all-zero advantages; groups need N >= 2.
    The mean and std are numpy's own ``mean``/``std`` steps for a 1-d
    float64 array, written out as ufunc calls so that one small group does
    not pay for their generic dispatch; the bits are the same.
    """
    r = np.asarray(rewards, dtype=np.float64)
    if r.ndim != 1 or r.size < 2:
        raise ValidationError(f"need at least 2 rewards in a group, got {r.size}")
    if not np.isfinite(r).all():
        raise ValidationError("rewards contain non-finite entries")
    d = r - np.add.reduce(r) / r.size
    std = float(np.sqrt(np.add.reduce(d * d) / r.size))
    if std == 0.0:
        return np.zeros(r.size)
    return d / (std + 1e-6)


@dataclass
class _FlatBatch:
    """Step-level view of a batch: one row per generated token."""

    ctx: np.ndarray
    tok: np.ndarray
    adv: np.ndarray
    inv_len: np.ndarray
    old_logprob: np.ndarray
    lengths: np.ndarray
    n_traj: int


def _flatten_batch(batch: list[tuple[Trajectory, float]]) -> _FlatBatch:
    if not batch:
        raise ValidationError("empty batch")
    for t, a in batch:
        if not math.isfinite(a):
            raise ValidationError(f"non-finite advantage for {t.trajectory_id}")
        if t.ctx_ids is None:
            raise ValidationError(
                f"trajectory {t.trajectory_id} carries no context-id channel"
            )
        if t.tokens is None or t.step_logprobs is None:
            raise ValidationError(
                f"trajectory {t.trajectory_id} needs tokens and step_logprobs"
            )
    trajs = [t for t, _ in batch]
    lengths = np.array([t.length for t in trajs], dtype=np.int64)
    return _FlatBatch(
        ctx=np.concatenate([t.ctx_ids for t in trajs], dtype=np.int64),
        # The token lists in one pass: concatenating lists converts each to an array.
        tok=np.fromiter(chain.from_iterable(t.tokens for t in trajs), np.int64, lengths.sum()),
        adv=np.repeat(np.array([a for _, a in batch], dtype=np.float64), lengths),
        inv_len=np.repeat(1.0 / lengths, lengths),
        old_logprob=np.concatenate([t.step_logprobs for t in trajs]),
        lengths=lengths,
        n_traj=len(batch),
    )


def _softmax_rows(table: np.ndarray, ctx: np.ndarray, temperature: float):
    """Softmax rows and their ``LOG_FLOOR``-floored logs at context ids ``ctx``.

    Both are evaluated once per table row and then gathered. Each operation
    is elementwise or reduces one row, so a gathered row has the same bits
    as the softmax of the gathered logits.
    """
    p = softmax_probs(table, temperature)
    log_p = np.log(np.maximum(p, LOG_FLOOR))
    return p[ctx], log_p[ctx]


def _entropy_rows(table: np.ndarray, ctx: np.ndarray, temperature: float) -> np.ndarray:
    """``entropy_of_prob_rows`` of the softmax rows at ``ctx``, taken per table row."""
    return entropy_of_prob_rows(softmax_probs(table, temperature))[ctx]


def _accumulate(grad, ctx, tok, row_coeff, row_probs, chosen_coeff):
    """grad[ctx] += row_coeff * row_probs, grad[ctx, tok] += chosen_coeff."""
    np.add.at(grad, ctx, row_coeff[:, None] * row_probs)
    np.add.at(grad, (ctx, tok), chosen_coeff)


def _plain_loss_and_grad(
    table: np.ndarray, flat: _FlatBatch, cfg: TrainConfig, mask_flat, n_masked: int
):
    """Loss and exact gradient for the non-ratio objectives.

    Policy loss: -(1/G) * sum_i A_i * mean_t log pi(o_t); the entropy bonus
    subtracts alpha times the batch-mean step entropy; the masked variant
    averages A_i log pi over the selected tokens only.
    """
    V = table.shape[1]
    regularizer, temperature = cfg.regularizer, cfg.temperature
    p, log_p = _softmax_rows(table, flat.ctx, temperature)
    rows = np.arange(flat.ctx.size)
    chosen_lp = log_p[rows, flat.tok]
    grad = np.zeros_like(table)
    if regularizer == "mask_8020":
        coeff = np.where(mask_flat, flat.adv / n_masked, 0.0)
    else:
        coeff = flat.adv * flat.inv_len / flat.n_traj
    loss = -float(np.sum(coeff * chosen_lp))
    row_coeff = coeff / temperature
    _accumulate(grad, flat.ctx, flat.tok, row_coeff, p, -row_coeff)
    if regularizer == "entropy_loss":
        h = _entropy_rows(table, flat.ctx, temperature)
        loss += entropy_loss_term(h, flat.lengths, cfg.alpha)
        e = cfg.alpha * flat.inv_len / flat.n_traj
        np.add.at(grad, flat.ctx, (e / temperature)[:, None] * p * (log_p + h[:, None]))
    if regularizer == "mask_8020" and cfg.mask_ref_kl:
        h = _entropy_rows(table, flat.ctx, temperature)
        w = np.where(mask_flat, cfg.beta / n_masked, 0.0)
        loss += float(np.sum(w * (math.log(V) - h)))
        np.add.at(grad, flat.ctx, (w / temperature)[:, None] * p * (log_p + h[:, None]))
    return loss, grad


def _ratio_chunk_grad(
    table: np.ndarray,
    flat: _FlatBatch,
    rows: np.ndarray,
    cfg: TrainConfig,
    kl_rows: np.ndarray,
    old_probs_rows: np.ndarray,
):
    """Loss and gradient for one micro-chunk of a ratio-based objective.

    ``kl_rows`` are the chunk's kl_cov-selected tokens and ``old_probs_rows``
    the pre-step policy's distributions at them.
    """
    ctx, tok = flat.ctx[rows], flat.tok[rows]
    regularizer, temperature, g_total = cfg.regularizer, cfg.temperature, flat.n_traj
    p, log_p = _softmax_rows(table, ctx, temperature)
    r_idx = np.arange(rows.size)
    ratio = np.exp(log_p[r_idx, tok] - flat.old_logprob[rows])
    adv = flat.adv[rows]
    base = adv * flat.inv_len[rows] / g_total
    grad = np.zeros_like(table)
    if regularizer == "clip_higher":
        clipped = clip_ratio_asymmetric(ratio, cfg.eps_low, cfg.eps_high)
        loss = -float(np.sum(np.minimum(ratio * adv, clipped * adv) * flat.inv_len[rows] / g_total))
        # The surrogate is min(ratio*A, clip(ratio)*A); gradient flows only
        # where the unclipped branch attains the min.
        lo, hi = 1.0 - cfg.eps_low, 1.0 + cfg.eps_high
        flows = np.where(adv >= 0, ratio <= hi, ratio >= lo)
        coeff = np.where(flows, base * ratio, 0.0)
    else:
        coeff = base * ratio
        loss = -float(np.sum(coeff))
    row_coeff = coeff / temperature
    _accumulate(grad, ctx, tok, row_coeff, p, -row_coeff)
    if regularizer == "kl_cov" and kl_rows.size:
        sel_ctx = flat.ctx[kl_rows]
        p_sel = softmax_probs(table[sel_ctx], temperature)
        loss += kl_penalty_term(old_probs_rows, p_sel, cfg.beta)
        np.add.at(grad, sel_ctx, (cfg.beta / temperature) * (p_sel - old_probs_rows))
    return loss, grad


def policy_gradient_step(
    policy: TabularPolicy,
    batch: list[tuple[Trajectory, float]],
    cfg: TrainConfig,
    step: int = 0,
) -> TabularPolicy:
    """One exact-gradient update from a batch of (trajectory, advantage).

    Every setting (learning rate, temperature, regularizer and its
    hyperparameters, micro-chunks) comes from ``cfg``, validated here.
    Trajectories must carry tokens, step_logprobs, and the ``ctx_ids``
    channel written by the rollout engine; kl_cov's old distributions are
    recomputed from ``policy.table`` at those contexts. The ratio-based
    regularizers (clip_higher, kl_cov) process the batch in
    ``cfg.micro_chunks`` sequential sub-updates so importance ratios move
    away from 1 within the step; all other objectives take a single exact
    step. Raises on non-finite loss or gradient.
    """
    cfg.validate()
    regularizer = cfg.regularizer
    flat = _flatten_batch(batch)
    if np.any(flat.ctx < 0) or np.any(flat.ctx >= policy.table.shape[0]):
        raise ValidationError("context ids outside the policy table")
    table = policy.table.copy()

    if regularizer in ("clip_higher", "kl_cov"):
        selected = np.array([], dtype=np.int64)
        if regularizer == "kl_cov":
            selected = np.array(
                kl_cov_select(flat.old_logprob, flat.adv, cfg.k_frac), dtype=np.int64
            )
        # The pre-step policy's distributions at the selected tokens.
        old_probs = softmax_probs(policy.table[flat.ctx[selected]], cfg.temperature)
        ends = np.cumsum(flat.lengths)

        def loss_and_grad(table, chunk):
            rows = np.arange(ends[chunk[0]] - flat.lengths[chunk[0]], ends[chunk[-1]])
            in_chunk = np.isin(selected, rows)
            return _ratio_chunk_grad(
                table, flat, rows, cfg, selected[in_chunk], old_probs[in_chunk]
            )

        chunks = np.array_split(np.arange(flat.n_traj), min(cfg.micro_chunks, flat.n_traj))
    else:
        mask_flat = None
        n_masked = 0
        if regularizer == "mask_8020":
            masks = high_entropy_mask([t.step_entropies for t, _ in batch], cfg.gamma)
            mask_flat = np.concatenate(masks)
            n_masked = int(mask_flat.sum())

        def loss_and_grad(table, chunk):
            return _plain_loss_and_grad(table, flat, cfg, mask_flat, n_masked)

        chunks = [None]  # the whole batch in one update
    for chunk in chunks:
        loss, grad = loss_and_grad(table, chunk)
        if not (math.isfinite(loss) and np.all(np.isfinite(grad))):
            raise DivergenceError(
                f"non-finite loss or gradient at step {step} (regularizer {regularizer})"
            )
        table = table - cfg.learning_rate * grad
        if not np.all(np.isfinite(table)):
            raise DivergenceError(f"policy table became non-finite at step {step}")
    return TabularPolicy(policy.vocab_size, policy.context_window, table)


@dataclass
class RunRecord:
    """Everything a finished (or aborted) run leaves behind."""

    config: TrainConfig
    metrics: list[MetricsRow]
    policy: TabularPolicy
    status: str = "completed"
    steps_completed: int = 0
    selected_general_ids: list[str] = field(default_factory=list)

    def save(self, out_dir) -> None:
        """Write metrics.jsonl, config.echo, and policy.bin into out_dir."""
        os.makedirs(out_dir, exist_ok=True)
        write_metrics(self.metrics, os.path.join(out_dir, "metrics.jsonl"))
        with open(os.path.join(out_dir, "config.echo"), "w", encoding="utf-8") as fh:
            fh.write(f"# status = {self.status}\n")
            fh.write(f"# steps_completed = {self.steps_completed}\n")
            fh.write(config_text(self.config))
        self.policy.save(os.path.join(out_dir, "policy.bin"))


def _mean_offdiag_distance(trajectories: list[Trajectory]):
    """Mean pairwise dynamics distance over distinct ordered pairs."""
    if len(trajectories) < 2:
        return None
    curves = [t.step_entropies for t in trajectories]
    dist = -kl_similarity_matrix(curves, curves)
    np.fill_diagonal(dist, 0.0)
    n = len(curves)
    return float(dist.sum() / (n * (n - 1)) + 0.0)


class _Trainer:
    """Holds the pools and config; train() drives it."""

    def __init__(self, cfg: TrainConfig):
        cfg.validate()
        self.cfg = cfg
        self.selected_general_ids: list[str] = []
        self.policy = TabularPolicy(VOCAB_SIZE, cfg.context_window)
        self._build_pools()

    def _build_pools(self) -> None:
        cfg = self.cfg
        if cfg.mode == "heal":
            suite = make_task_suite(cfg.seed, cfg.n_target, cfg.n_candidates)
            target = [t for t in suite if t.domain == "target"]
            candidates = [t for t in suite if t.domain == "general"]
            groups = rollout_tasks(
                self.policy, candidates, cfg.rollouts_per_prompt,
                cfg.temperature, cfg.max_len, cfg.seed, "select", 0,
            )
            scores = score_groups(groups)
            chosen = select_top_k(scores, cfg.n_general)
            by_id = {t.prompt_id: t for t in candidates}
            general = [by_id[pid] for pid in chosen]
            self.selected_general_ids = list(chosen)
        else:
            suite = make_task_suite(cfg.seed, cfg.n_target, cfg.n_general)
            target = [t for t in suite if t.domain == "target"]
            general = [t for t in suite if t.domain == "general"]
        self.target_pool = target
        self.general_pool = general
        if cfg.mode in ("fewshot", "fullshot"):
            self.train_target, self.train_general = target, []
        elif cfg.mode == "onlygeneral":
            self.train_target, self.train_general = [], general
        else:
            self.train_target, self.train_general = target, general
        self.eval_target = target[: cfg.eval_prompts]
        self.eval_general = general[: cfg.eval_prompts]

    def _batch_split(self) -> tuple[int, int]:
        cfg = self.cfg
        n_t, n_g = len(self.train_target), len(self.train_general)
        if n_g == 0:
            return cfg.batch_size, 0
        if n_t == 0:
            return 0, cfg.batch_size
        if cfg.general_fraction >= 0.0:
            n_gen = int(round(cfg.batch_size * cfg.general_fraction))
        else:
            n_gen = int(round(cfg.batch_size * n_g / (n_t + n_g)))
        n_gen = min(max(n_gen, 1), cfg.batch_size - 1)
        return cfg.batch_size - n_gen, n_gen

    def _sample_slots(self, step: int) -> list[SynthTask]:
        n_tgt, n_gen = self._batch_split()
        rng = rng_stream(self.cfg.seed, "batch", step)
        slots: list[SynthTask] = []
        if n_tgt:
            idx = rng.integers(0, len(self.train_target), size=n_tgt)
            slots.extend(self.train_target[i] for i in idx)
        if n_gen:
            idx = rng.integers(0, len(self.train_general), size=n_gen)
            slots.extend(self.train_general[i] for i in idx)
        return slots

    def _eval_row(self, step: int) -> MetricsRow:
        cfg = self.cfg
        tgt_trajs: list[Trajectory] = []
        gen_trajs: list[Trajectory] = []
        if self.eval_target:
            groups = rollout_tasks(
                self.policy, self.eval_target, cfg.rollouts_per_prompt,
                cfg.temperature, cfg.max_len, cfg.seed, "eval-target", step,
            )
            tgt_trajs = [t for g in groups for t in g.trajectories]
        if self.eval_general:
            groups = rollout_tasks(
                self.policy, self.eval_general, cfg.rollouts_per_prompt,
                cfg.temperature, cfg.max_len, cfg.seed, "eval-general", step,
            )
            gen_trajs = [t for g in groups for t in g.trajectories]
        all_trajs = tgt_trajs + gen_trajs
        eda_rate = 0.0
        if cfg.mode == "heal" and tgt_trajs and step >= cfg.eda_start_step:
            records = batch_rewards(all_trajs, cfg.sim_choice)
            reward_rate = float(np.mean([r.total for r in records]))
            target_records = [r for r in records if r.domain == "target"]
            eda_rate = float(np.mean([r.r_eda for r in target_records]))
        else:
            reward_rate = float(np.mean([t.correct for t in all_trajs]))
        return MetricsRow(
            step=step,
            reward_rate=reward_rate,
            eda_rate=eda_rate,
            mean_entropy_target=mean_vocab_entropy(tgt_trajs) if tgt_trajs else None,
            mean_entropy_general=mean_vocab_entropy(gen_trajs) if gen_trajs else None,
            mean_ed_distance=_mean_offdiag_distance(tgt_trajs),
        )

    def _train_step(self, step: int) -> None:
        cfg = self.cfg
        slots = self._sample_slots(step)
        groups = rollout_tasks(
            self.policy, slots, cfg.rollouts_per_prompt,
            cfg.temperature, cfg.max_len, cfg.seed, "rollout", step,
        )
        flat = [t for g in groups for t in g.trajectories]
        use_eda = cfg.mode == "heal" and (step - 1) >= cfg.eda_start_step
        if use_eda:
            records = batch_rewards(flat, cfg.sim_choice)
            totals = [float(r.total) for r in records]
        else:
            totals = [float(t.correct) for t in flat]
        batch: list[tuple[Trajectory, float]] = []
        pos = 0
        for g in groups:
            n = len(g)
            adv = grpo_advantages(totals[pos : pos + n])
            batch.extend(zip(g.trajectories, adv.tolist()))
            pos += n
        self.policy = policy_gradient_step(self.policy, batch, cfg, step)


def train(config: TrainConfig, out_dir=None) -> RunRecord:
    """Run the loop; persist a RunRecord into out_dir when given.

    On divergence the partial record (status "diverged") is persisted
    before the error propagates.
    """
    trainer = _Trainer(config)
    cfg = trainer.cfg
    metrics: list[MetricsRow] = []
    record = RunRecord(
        config=cfg,
        metrics=metrics,
        policy=trainer.policy,
        selected_general_ids=trainer.selected_general_ids,
    )
    metrics.append(trainer._eval_row(0))
    try:
        for step in range(1, cfg.steps + 1):
            trainer._train_step(step)
            record.steps_completed = step
            if step % cfg.log_every == 0 or step == cfg.steps:
                metrics.append(trainer._eval_row(step))
    except DivergenceError:
        record.status = "diverged"
        record.policy = trainer.policy
        if out_dir is not None:
            record.save(out_dir)
        raise
    record.policy = trainer.policy
    if out_dir is not None:
        record.save(out_dir)
    return record
