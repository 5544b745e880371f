"""Deterministic policy-gradient training loop over the synthetic tasks.

One step: sample a batch of prompt slots for the mode's data mixture, roll
out N trajectories per slot, compute verifier rewards (plus the alignment
bonus under the "heal" mode), normalize rewards within each slot's group,
and take one exact-gradient step on the logit table. One function builds
the loss and gradient of all five objectives (none and the four
regularizers): they differ only in the per-token coefficient, the loss and
an optional third term. Each (sub)update computes its factors once per
table row (softmax rows, their logs and, for the entropy terms, row
entropies) and gathers them by context id. Its
gradient is one ``np.bincount`` over flat ``row * V + col`` table
positions: every term writes its keys and weights into one buffer of each,
in the order separate ``np.add.at`` calls would apply them, and bincount
adds each weight into its bin in input order from 0.0, so the sums have the
same bits as those calls. Metrics rows come from
separate evaluation rollouts on fixed prompt subsets so that curves are
comparable across modes; evaluation consumes its own RNG streams and leaves
training trajectories untouched.

Everything is a pure function of (config, seed): two runs with the same
config produce bit-identical metrics files.
"""

from __future__ import annotations

import math
import os
import typing
from dataclasses import dataclass, field

import numpy as np

from ..dynamics import SIMILARITIES, kl_similarity_matrix
from ..eda import batch_rewards
from ..entropy import LOG_FLOOR, check_temperature, entropy_of_prob_rows
from ..entropy import mean_vocab_entropy, softmax_probs
from ..errors import DivergenceError, ValidationError
from ..regularizers import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_EPS_HIGH,
    DEFAULT_EPS_LOW,
    DEFAULT_GAMMA,
    DEFAULT_K_FRAC,
    REGULARIZER_NAMES,
    SETTING_RULES,
    check_setting,
    clip_ratio_asymmetric,
    entropy_loss_term,
    high_entropy_mask,
    kl_cov_select,
    kl_penalty_term,
)
from ..rollouts import Trajectory, verdict
from ..selection import DEFAULT_ROLLOUTS_PER_PROMPT, DEFAULT_TEMPERATURE
from ..selection import score_groups, select_top_k
from ..trace_io import MetricsRow, write_metrics
from .policy import TabularPolicy, check_context_window
from .rollout import check_sizes, rng_stream, rollout_tasks
from .tasks import MAX_GENERAL, VOCAB_SIZE, SynthTask, check_suite_size, make_task_suite

MODES = ("fewshot", "fullshot", "onlygeneral", "hybrid", "heal")
SIM_CHOICES = tuple(SIMILARITIES)
# Per annotated kind of a setting: its name in messages and the types it takes
# (a bool is refused for every kind).
_KINDS = {
    int: ("an integer", (int, np.integer)),
    float: ("a real number", (int, float, np.integer, np.floating)),
    str: ("a string", (str,)),
}
# The names each choice setting takes, and the floor of each integer setting
# that no library function takes.
_CHOICES = {"mode": MODES, "regularizer": REGULARIZER_NAMES, "sim_choice": SIM_CHOICES}
_FLOORS = {"batch_size": 1, "steps": 0, "seed": 0, "log_every": 1, "eda_start_step": 0,
           "micro_chunks": 1, "eval_prompts": 1}


@dataclass(frozen=True)
class TrainConfig:
    """Flat, file-serializable training configuration: every setting of a run.

    Frozen and checked once, when it is made (``dataclasses.replace`` makes a
    new one, so an override is checked too). A setting that a library function
    also takes is checked by that function's own check.
    """

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
    alpha: float = DEFAULT_ALPHA
    gamma: float = DEFAULT_GAMMA
    eps_low: float = DEFAULT_EPS_LOW
    eps_high: float = DEFAULT_EPS_HIGH
    k_frac: float = DEFAULT_K_FRAC
    beta: float = DEFAULT_BETA

    def validate(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            noun, kinds = _KINDS[kind]
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValidationError(f"{name} must be {noun}, got {value!r}")
        for name, choices in _CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ValidationError(f"{name} must be one of {choices}, got {value!r}")
        check_suite_size(self.n_target, self.n_general)
        if self.mode in ("fewshot", "fullshot") and self.n_target < 1:
            raise ValidationError(f"mode {self.mode} needs n_target >= 1")
        if self.mode == "onlygeneral" and self.n_general < 1:
            raise ValidationError("mode onlygeneral needs n_general >= 1")
        if self.mode in ("hybrid", "heal") and (self.n_target < 1 or self.n_general < 1):
            raise ValidationError(f"mode {self.mode} needs both sample counts >= 1")
        if self.rollouts_per_prompt < 2:
            raise ValidationError("rollouts_per_prompt must be >= 2 (group normalization)")
        check_temperature(self.temperature)
        for name, floor in _FLOORS.items():
            if getattr(self, name) < floor:
                raise ValidationError(f"{name} must be >= {floor}")
        if self.mode in ("hybrid", "heal") and self.batch_size < 2:
            raise ValidationError("mixed-domain batches need batch_size >= 2")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError(f"learning_rate must be > 0, got {self.learning_rate}")
        check_sizes(self.rollouts_per_prompt, self.max_len)  # rollouts_per_prompt >= 2 holds
        check_context_window(self.context_window)
        if not (math.isfinite(self.general_fraction) and self.general_fraction <= 1.0):
            raise ValidationError(
                "general_fraction must be finite and <= 1 (or negative for proportional), "
                f"got {self.general_fraction}"
            )
        if not (math.isfinite(self.selection_pool_factor) and self.selection_pool_factor >= 1.0):
            raise ValidationError(
                f"selection_pool_factor must be finite and >= 1, got {self.selection_pool_factor}"
            )
        # The cap is an integer, so this is the ceiling's test without its overflow.
        pool = self.n_general * self.selection_pool_factor
        if self.mode == "heal" and pool > MAX_GENERAL:
            raise ValidationError(
                f"n_general * selection_pool_factor must be <= {MAX_GENERAL}, "
                f"got {self.n_general} * {self.selection_pool_factor} -> "
                f"{pool if math.isinf(pool) else math.ceil(pool)}"
            )
        for name in SETTING_RULES:
            check_setting(name, getattr(self, name))

    __post_init__ = validate

    @property
    def n_candidates(self) -> int:
        """General prompts heal mode scores before it keeps n_general of them."""
        return math.ceil(self.n_general * self.selection_pool_factor)


_FIELD_TYPES = typing.get_type_hints(TrainConfig)


def config_text(cfg: TrainConfig) -> str:
    """Render a config as flat ``key = value`` lines, one per field, each
    value written by its setting's kind so that ``parse_config`` reads it back."""
    lines = []
    for name, kind in _FIELD_TYPES.items():
        value = getattr(cfg, name)
        text = repr(float(value)) if kind is float else str(kind(value))
        lines.append(f"{name} = {text}")
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
        try:
            values[key] = _FIELD_TYPES[key](value)
        except ValueError as exc:
            raise ValidationError(f"config line {line_no}: bad value for {key!r}: {exc}") from None
    if "mode" not in values:
        raise ValidationError("config is missing the required 'mode' key")
    return TrainConfig(**values)


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
    lengths = []
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
        n = t.length
        if not len(t.ctx_ids) == len(t.tokens) == len(t.step_logprobs) == n:
            raise ValidationError(
                f"trajectory {t.trajectory_id}: {len(t.ctx_ids)} context ids, "
                f"{len(t.tokens)} tokens and {len(t.step_logprobs)} log-probabilities "
                f"vs {n} entropy steps"
            )
        lengths.append(n)
    trajs = [t for t, _ in batch]
    lengths = np.array(lengths, dtype=np.int64)
    # The constructor stores int64 arrays; a channel set after it must match,
    # since int64 would truncate a float, parse a str or map a bool to 0 or 1.
    try:
        ctx = np.concatenate([t.ctx_ids for t in trajs], dtype=np.int64, casting="no")
        tok = np.concatenate([t.tokens for t in trajs], dtype=np.int64, casting="no")
    except TypeError:
        # Only now is each trajectory converted alone, to name the first refused.
        for t in trajs:
            for name, ids in (("context", t.ctx_ids), ("token", t.tokens)):
                try:
                    np.concatenate([ids], dtype=np.int64, casting="no")
                except TypeError:
                    raise ValidationError(
                        f"trajectory {t.trajectory_id}: {name} ids must be int64 integers"
                    ) from None
        raise
    return _FlatBatch(
        ctx=ctx,
        tok=tok,
        adv=np.repeat(np.array([a for _, a in batch], dtype=np.float64), lengths),
        inv_len=np.repeat(1.0 / lengths, lengths),
        old_logprob=np.concatenate([t.step_logprobs for t in trajs]),
        lengths=lengths,
        n_traj=len(batch),
    )


def _check_ids(batch, flat: _FlatBatch, ids: np.ndarray, limit: int, what: str) -> None:
    """Raise for the first trajectory with one of its steps' ``ids`` outside [0, limit)."""
    bad = (ids < 0) | (ids >= limit)
    if bad.any():
        owner = int(np.searchsorted(np.cumsum(flat.lengths), bad.argmax(), side="right"))
        raise ValidationError(f"trajectory {batch[owner][0].trajectory_id}: {what}")


def _row_factors(table: np.ndarray, temperature: float, entropy: bool):
    """Per-table-row factors of the step: softmax rows, their
    ``LOG_FLOOR``-floored logs and, when ``entropy``, the row entropies and
    ``log p + h``, the factor of the entropy term's gradient.

    The step gathers these by context id. Each operation is elementwise or
    reduces one row, so a gathered row has the same bits as the same
    operations on the gathered logits.
    """
    p = softmax_probs(table, temperature)
    log_p = np.log(np.maximum(p, LOG_FLOOR))
    if not entropy:
        return p, log_p, None, None
    h = entropy_of_prob_rows(p)
    return p, log_p, h, log_p + h[:, None]


def _term_buffers(V: int, ctx: np.ndarray, tok: np.ndarray, extra_ctx):
    """The gradient's bincount input, keyed by flat ``row * V + col`` positions.

    Three terms fill it, in the order separate ``np.add.at`` calls would
    apply them: a row term (each context id in ``ctx`` takes a row of V
    weights), a ``(ctx, tok)`` term of one weight per token, and, unless
    ``extra_ctx`` is None, a second row term at ``extra_ctx`` (when that is
    ``ctx`` itself, its keys are copied from the first). The keys are
    written here; the caller writes each term's weights into the views
    returned beside the flat arrays. ``np.bincount`` adds each weight into
    its bin in input order starting from 0.0: the same additions, bit for
    bit, that the ``add.at`` calls make in turn.
    """
    n = ctx.size
    k = 0 if extra_ctx is None else extra_ctx.size
    nv = n * V
    keys = np.empty(nv + n + k * V, dtype=np.int64)
    weights = np.empty(keys.size)
    ctx_v = ctx * V
    cols = np.arange(V)
    np.add(ctx_v[:, None], cols, out=keys[:nv].reshape(n, V))
    np.add(ctx_v, tok, out=keys[nv : nv + n])
    if extra_ctx is ctx:
        keys[nv + n :] = keys[:nv]
    elif k:
        np.add((extra_ctx * V)[:, None], cols, out=keys[nv + n :].reshape(k, V))
    views = (
        weights[:nv].reshape(n, V),
        weights[nv : nv + n],
        weights[nv + n :].reshape(k, V),
    )
    return keys, weights, views


def _loss_and_grad(
    table: np.ndarray,
    flat: _FlatBatch,
    rows: slice,
    cfg: TrainConfig,
    mask=None,
    selected=None,
    old_probs=None,
):
    """Loss and exact gradient of ``cfg.regularizer``'s objective over the
    tokens ``flat`` holds in the range ``rows``.

    Every objective is the policy loss -sum_t c_t log pi(o_t) with a
    per-token coefficient c_t, plus an optional third term. c_t is
    A_i / (G |o_i|) for none and entropy_loss, and mask_8020 spreads A_i
    evenly over the tokens of ``mask`` (its top-entropy mask over the
    batch). The ratio objectives weight that same base by the importance
    ratio: clip_higher keeps it only where the unclipped branch attains
    min(ratio * A, clip(ratio) * A), and kl_cov takes it as is. The third
    term subtracts alpha times the batch-mean step entropy (entropy_loss)
    or adds beta times the KL from ``old_probs``, the pre-step policy's
    distributions at kl_cov's ``selected`` tokens, to the current ones at
    the selected tokens in ``rows``.
    """
    V = table.shape[1]
    regularizer, temperature, g_total = cfg.regularizer, cfg.temperature, flat.n_traj
    ctx, tok = flat.ctx[rows], flat.tok[rows]
    adv, inv_len = flat.adv[rows], flat.inv_len[rows]
    entropy = regularizer == "entropy_loss"
    p_tab, log_p_tab, h_tab, b_tab = _row_factors(table, temperature, entropy)
    log_p = log_p_tab[ctx, tok]
    extra_ctx = ctx if entropy else None
    if regularizer == "mask_8020":
        coeff = np.where(mask[rows], adv / int(mask.sum()), 0.0)
    else:
        coeff = adv * inv_len / g_total
    if regularizer == "clip_higher":
        ratio = np.exp(log_p - flat.old_logprob[rows])
        clipped = clip_ratio_asymmetric(ratio, cfg.eps_low, cfg.eps_high)
        loss = -float(np.sum(np.minimum(ratio * adv, clipped * adv) * inv_len / g_total))
        flows = np.where(adv >= 0, ratio <= clipped, ratio >= clipped)
        coeff = np.where(flows, coeff * ratio, 0.0)
    elif regularizer == "kl_cov":
        coeff = coeff * np.exp(log_p - flat.old_logprob[rows])
        loss = -float(np.sum(coeff))
        in_rows = (selected >= rows.start) & (selected < rows.stop)
        if in_rows.any():
            extra_ctx, old_probs = flat.ctx[selected[in_rows]], old_probs[in_rows]
    else:
        loss = -float(np.sum(coeff * log_p))
    row_coeff = coeff / temperature
    keys, weights, (row_w, tok_w, extra_w) = _term_buffers(V, ctx, tok, extra_ctx)
    # The gathered p rows go straight into the weight buffer.
    np.take(p_tab, ctx, axis=0, out=row_w)
    if entropy:
        loss += entropy_loss_term(h_tab[ctx], flat.lengths, cfg.alpha)
        e = cfg.alpha * inv_len / g_total
        # A product commutes bit for bit, but ((e / T) * p) * (log p + h)
        # must keep this association, not take p * (log p + h) per table row.
        np.multiply(row_w, (e / temperature)[:, None], out=extra_w)
        extra_w *= b_tab[ctx]
    elif extra_ctx is not None:
        p_sel = p_tab[extra_ctx]
        loss += kl_penalty_term(old_probs, p_sel, cfg.beta)
        np.subtract(p_sel, old_probs, out=extra_w)
        extra_w *= cfg.beta / temperature
    row_w *= row_coeff[:, None]
    np.negative(row_coeff, out=tok_w)
    return loss, np.bincount(keys, weights, minlength=table.size).reshape(table.shape)


def policy_gradient_step(
    policy: TabularPolicy,
    batch: list[tuple[Trajectory, float]],
    cfg: TrainConfig,
    step: int = 0,
) -> TabularPolicy:
    """One exact-gradient update from a batch of (trajectory, advantage).

    Every setting (learning rate, temperature, regularizer and its
    hyperparameters, micro-chunks) comes from ``cfg``.
    Trajectories must carry tokens, step_logprobs, and the ``ctx_ids``
    channel written by the rollout engine; kl_cov's old distributions are
    recomputed from ``policy.table`` at those contexts. The ratio-based
    regularizers (clip_higher, kl_cov) process the batch in
    ``cfg.micro_chunks`` sequential sub-updates so importance ratios move
    away from 1 within the step; all other objectives take a single exact
    step. Raises on non-finite loss or gradient.
    """
    regularizer = cfg.regularizer
    flat = _flatten_batch(batch)
    n_rows, V = policy.table.shape
    _check_ids(batch, flat, flat.ctx, n_rows, "context ids outside the policy table")
    _check_ids(batch, flat, flat.tok, V, f"token ids outside the vocabulary of {V}")
    mask = selected = old_probs = None
    if regularizer == "mask_8020":
        mask = np.concatenate(high_entropy_mask([t.step_entropies for t, _ in batch], cfg.gamma))
    elif regularizer == "kl_cov":
        selected = np.array(kl_cov_select(flat.old_logprob, flat.adv, cfg.k_frac), dtype=np.int64)
        # The pre-step policy's distributions at the selected tokens.
        old_probs = softmax_probs(policy.table[flat.ctx[selected]], cfg.temperature)
    # Contiguous token ranges at np.array_split's trajectory boundaries: the
    # first n_traj % k chunks hold one trajectory more (k = 1 is the batch).
    k = min(cfg.micro_chunks, flat.n_traj) if regularizer in ("clip_higher", "kl_cov") else 1
    q, r = divmod(flat.n_traj, k)
    starts = np.concatenate(([0], np.cumsum(flat.lengths)))
    bounds = starts[[i * q + min(i, r) for i in range(k + 1)]].tolist()
    table = policy.table
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        loss, grad = _loss_and_grad(table, flat, slice(lo, hi), cfg, mask, selected, old_probs)
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
        self.cfg = cfg
        self.selected_general_ids: list[str] = []
        self.policy = TabularPolicy(VOCAB_SIZE, cfg.context_window)
        self._build_pools()

    def _build_pools(self) -> None:
        cfg = self.cfg
        heal = cfg.mode == "heal"
        n_general = cfg.n_candidates if heal else cfg.n_general
        suite = make_task_suite(cfg.seed, cfg.n_target, n_general)
        target = [t for t in suite if t.domain == "target"]
        general = [t for t in suite if t.domain == "general"]
        if heal:
            # The general pool: the n_general best-scoring candidates.
            groups = rollout_tasks(
                self.policy, general, cfg.rollouts_per_prompt,
                cfg.temperature, cfg.max_len, cfg.seed, "select", 0,
            )
            self.selected_general_ids = select_top_k(score_groups(groups), cfg.n_general)
            by_id = {t.prompt_id: t for t in general}
            general = [by_id[pid] for pid in self.selected_general_ids]
        self.train_target = [] if cfg.mode == "onlygeneral" else target
        self.train_general = [] if cfg.mode in ("fewshot", "fullshot") else general
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
        rng = rng_stream(self.cfg.seed, "batch", step)
        slots: list[SynthTask] = []
        for pool, n in zip((self.train_target, self.train_general), self._batch_split()):
            if n:
                slots.extend(pool[i] for i in rng.integers(0, len(pool), size=n))
        return slots

    def _rewards(self, trajectories: list[Trajectory], updates: int):
        """Each trajectory's reward, in order, and the EDA records (None
        without EDA), for a policy that has taken ``updates`` steps.

        The reward is the verdict. From ``eda_start_step`` updates on, heal
        mode adds the alignment bonus that ``batch_rewards`` assigns over the
        whole list.
        """
        if self.cfg.mode != "heal" or updates < self.cfg.eda_start_step:
            return [verdict(t) for t in trajectories], None
        records = batch_rewards(trajectories, self.cfg.sim_choice)
        return [r.total for r in records], records

    def _eval_row(self, step: int) -> MetricsRow:
        cfg = self.cfg
        sampled = []
        for tag, tasks in (("eval-target", self.eval_target), ("eval-general", self.eval_general)):
            groups = rollout_tasks(
                self.policy, tasks, cfg.rollouts_per_prompt,
                cfg.temperature, cfg.max_len, cfg.seed, tag, step,
            ) if tasks else []
            sampled.append([t for g in groups for t in g.trajectories])
        tgt_trajs, gen_trajs = sampled
        rewards, records = self._rewards(tgt_trajs + gen_trajs, step)
        eda_rate = 0.0
        if records is not None:
            eda_rate = float(np.mean([r.r_eda for r in records if r.domain == "target"]))
        return MetricsRow(
            step=step,
            reward_rate=float(np.mean(rewards)),
            eda_rate=eda_rate,
            mean_entropy_target=mean_vocab_entropy(tgt_trajs) if tgt_trajs else None,
            mean_entropy_general=mean_vocab_entropy(gen_trajs) if gen_trajs else None,
            mean_ed_distance=_mean_offdiag_distance(tgt_trajs),
        )

    def _train_step(self, step: int) -> None:
        cfg = self.cfg
        groups = rollout_tasks(
            self.policy, self._sample_slots(step), cfg.rollouts_per_prompt,
            cfg.temperature, cfg.max_len, cfg.seed, "rollout", step,
        )
        rewards, _ = self._rewards([t for g in groups for t in g.trajectories], step - 1)
        batch: list[tuple[Trajectory, float]] = []
        pos = 0
        for g in groups:
            adv = grpo_advantages(rewards[pos : pos + len(g)])
            batch.extend(zip(g.trajectories, adv.tolist()))
            pos += len(g)
        self.policy = policy_gradient_step(self.policy, batch, cfg, step)


def train(config: TrainConfig, out_dir=None) -> RunRecord:
    """Run the loop; persist a RunRecord into out_dir when given.

    out_dir is created first, so an unusable one fails before any training.
    On divergence the partial record (status "diverged") is persisted
    before the error propagates.
    """
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
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
