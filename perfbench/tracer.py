"""Layer spans for the traced run, recorded from outside the package.

``install`` wraps the public entry points each ``heal`` module calls, in the
namespace of the caller (``heal.simulator.training`` sees its own
``rollout_tasks``, ``heal.cli`` its own ``batch_rewards``, ...), so the
package's code stays untouched. A span holds its name, start, end, parent
span, run id and phase: the tag class of the latest ``rollout_tasks`` call,
which attributes EDA and distance work to training or evaluation. Spans
live in flat in-memory arrays and are written once, when the pass ends.
Counters are taken at the same boundaries.

``layer_metrics`` reduces spans to per-layer self time: a span's duration
minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from collections import defaultdict

import numpy as np

PHASES = ("none", "train", "eval", "select")
_TAG_PHASE = {"rollout": "train", "select": "select"}


def _phase_of(tag: str) -> str:
    return _TAG_PHASE.get(tag, "eval" if tag.startswith("eval") else "none")


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.phase = array("b")
        self._stack: list[int] = []
        self.phase_now = 0
        self.counters: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name) -> int:
        nid = name if isinstance(name, int) else self.name_id(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.phase.append(self.phase_now)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; ``after(args, result)`` runs once the span is closed."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            phases=np.array(PHASES, dtype=str),
            name=np.array(self.name, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int32),
            phase=np.array(self.phase, dtype=np.int8),
            run=np.full(len(self.start), self.run_id, dtype=np.int32),
        )


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point in the namespace that calls it."""
    import heal.cli as cli
    import heal.dynamics as dynamics
    import heal.eda as eda
    import heal.simulator.training as training
    import heal.trace_io as trace_io

    # heal.simulator re-exports a function named rollout over the submodule.
    rollout = importlib.import_module("heal.simulator.rollout")

    count = tracer.counters

    def patch(module, attr, name, after=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), after))

    # Rollout sampling, one span name per tag class.
    inner_rollout = training.rollout_tasks
    rollout_ids = {p: tracer.name_id(f"rollout.{p}") for p in ("train", "eval", "select")}

    def rollout_tasks(policy, tasks, n, *args, **kwargs):
        tag = args[3] if len(args) > 3 else kwargs["tag"]
        phase = _phase_of(tag)
        tracer.phase_now = PHASES.index(phase)
        idx = tracer.open(rollout_ids[phase])
        try:
            groups = inner_rollout(policy, tasks, n, *args, **kwargs)
        finally:
            tracer.close(idx)
        count["rollout.tokens"] += sum(t.length for g in groups for t in g.trajectories)
        return groups

    training.rollout_tasks = rollout_tasks

    # Trajectory construction, as the rollout engine and trace ingest see it.
    for module in (rollout, trace_io):
        patch(module, "Trajectory", "rollouts.trajectory_build")

    def after_rewards(args, records):
        batch = args[0]
        t = sum(1 for x in batch if x.domain == "target")
        g = len(batch) - t
        count["eda.trajectories_scored"] += len(batch)
        count["eda.pairs"] += t * (t - 1) + t * g
        count["eda.targets"] += t
        count["eda.bonuses"] += sum(r.r_eda for r in records if r.domain == "target")

    for module in (training, cli):
        patch(module, "batch_rewards", "eda.batch_rewards", after_rewards)

    def after_kl_matrix(args, _):
        rows, cols = args[0], args[1]
        if not rows or not cols:
            return
        cells, peak = kl_matrix_work([len(x) for x in rows], [len(x) for x in cols])
        count["dynamics.kl_matrix_cells"] += cells
        count["dynamics.kl_matrix_bytes"] = max(count["dynamics.kl_matrix_bytes"], peak)

    for module in (training, eda):
        patch(module, "kl_similarity_matrix", "dynamics.kl_matrix", after_kl_matrix)

    # Scalar similarities: eda's re-score and pair loops, the heatmap loop.
    sim_wrapped: dict = {}

    def traced_sim(fn):
        if fn not in sim_wrapped:
            sim_wrapped[fn] = tracer.wrap("dynamics.sim", fn)
        return sim_wrapped[fn]

    eda.sim_kl = traced_sim(eda.sim_kl)
    dynamics.sim_kl = traced_sim(dynamics.sim_kl)
    inner_get = eda.get_similarity
    eda.get_similarity = lambda name: traced_sim(inner_get(name))
    patch(trace_io, "pairwise_distance_matrix", "dynamics.distance_matrix")
    patch(training, "_mean_offdiag_distance", "dynamics.offdiag")

    def after_grpo(args, adv):
        count["training.groups"] += 1
        count["training.zero_groups"] += int(not np.any(adv))

    def after_pg(args, _):
        count["training.pg_tokens"] += sum(t.length for t, _ in args[1])

    def after_kl_cov(args, selected):
        count["regularizers.selected"] += len(selected)
        count["regularizers.considered"] += len(args[0])

    def after_mask(args, masks):
        count["regularizers.selected"] += int(sum(int(m.sum()) for m in masks))
        count["regularizers.considered"] += int(sum(m.size for m in masks))

    patch(training, "grpo_advantages", "training.grpo", after_grpo)
    patch(training, "policy_gradient_step", "training.pg_step", after_pg)
    patch(training, "kl_cov_select", "regularizers.select", after_kl_cov)
    patch(training, "high_entropy_mask", "regularizers.select", after_mask)

    def after_score(args, scores):
        count["selection.prompts_scored"] += len(scores)

    for module in (training, cli):
        patch(module, "score_groups", "selection.score", after_score)

    def after_read(args, result):
        count["trace_io.bytes_read"] += os.path.getsize(args[0])
        count["trace_io.records"] += sum(
            len(x.trajectories) if hasattr(x, "trajectories") else 1 for x in result
        )

    patch(cli, "read_trace_records", "trace_io.read", after_read)
    patch(cli, "load_traces", "trace_io.read", after_read)
    patch(cli, "trajectory_from_record", "trace_io.read")
    patch(cli, "export_heatmap", "trace_io.write")
    patch(training, "write_metrics", "trace_io.write")
    patch(cli, "pass_at_k_per_prompt", "analysis.passk")


def kl_matrix_work(row_lens, col_lens, row_chunk: int = 256) -> tuple[int, int]:
    """(cells, peak bytes) of one kl_similarity_matrix call, from its shapes.

    cells: sum over (row, col) pairs of the aligned length max(la, lb), the
    kernel's operation count. Peak bytes: what the kernel at this commit
    holds at once: its cache of one float64 vector per (sequence, aligned
    length), plus the two (chunk, cols, length) float64 temporaries of the
    largest row chunk. Computed, not measured; peak_rss_mb is the measure.
    """
    ra = np.asarray(row_lens, dtype=np.int64)
    cb = np.asarray(col_lens, dtype=np.int64)
    cells = int(np.maximum.outer(ra, cb).sum())
    ua, na = np.unique(ra, return_counts=True)
    ub, nb = np.unique(cb, return_counts=True)
    aligned = np.maximum.outer(ua, ub)
    cache = sum(int(c) * int(np.unique(aligned[i]).sum()) for i, c in enumerate(na))
    cache += sum(int(c) * int(np.unique(aligned[:, j]).sum()) for j, c in enumerate(nb))
    chunk = np.minimum(na, row_chunk)
    temp = int((2 * chunk[:, None] * nb[None, :] * aligned).max())
    return cells, 8 * (cache + temp)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    out = end - start
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(np.asarray(parent).tolist()):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_a = cur_b = None
        for k in sorted(kids, key=lambda k: start[k]):
            a, b = max(start[k], lo), min(end[k], hi)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[p] -= covered
    return out


# Per-layer self-time metrics: metric name -> span names summed into it.
SELF_TIME = {
    "rollout.train_s": ("rollout.train",),
    "rollout.eval_s": ("rollout.eval",),
    "rollout.select_s": ("rollout.select",),
    "rollouts.trajectory_build_s": ("rollouts.trajectory_build",),
    "eda.batch_rewards_s": ("eda.batch_rewards",),
    "dynamics.kl_matrix_s": ("dynamics.kl_matrix",),
    "dynamics.sim_s": ("dynamics.sim",),
    "dynamics.distance_matrix_s": ("dynamics.distance_matrix",),
    "training.pg_step_s": ("training.pg_step",),
    "training.grpo_s": ("training.grpo",),
    "training.loop_s": ("training.train",),
    "regularizers.select_s": ("regularizers.select",),
    "selection.score_s": ("selection.score",),
    "trace_io.read_s": ("trace_io.read",),
    "trace_io.write_s": ("trace_io.write",),
    "analysis.passk_s": ("analysis.passk",),
    "cli.reward_kl_s": ("cli.reward_kl",),
    "cli.reward_hti_s": ("cli.reward_hti",),
    "cli.reward_pl_s": ("cli.reward_pl",),
    "cli.heatmap_s": ("cli.heatmap",),
    "cli.select_s": ("cli.select",),
    "cli.passk_s": ("cli.passk",),
}

# Inclusive time of one span name within one phase.
PHASE_TIME = {
    "eda.batch_rewards_train_incl_s": ("eda.batch_rewards", "train"),
    "eda.batch_rewards_eval_incl_s": ("eda.batch_rewards", "eval"),
    "dynamics.offdiag_eval_incl_s": ("dynamics.offdiag", "eval"),
}

# Span counts.
CALLS = {
    "rollout.calls": ("rollout.train", "rollout.eval", "rollout.select"),
    "rollouts.trajectories_built": ("rollouts.trajectory_build",),
    "eda.calls": ("eda.batch_rewards",),
    "dynamics.kl_matrix_calls": ("dynamics.kl_matrix",),
    "dynamics.sim_calls": ("dynamics.sim",),
    "training.grpo_calls": ("training.grpo",),
}

COUNTERS = (
    "rollout.tokens",
    "eda.trajectories_scored",
    "eda.pairs",
    "dynamics.kl_matrix_cells",
    "dynamics.kl_matrix_bytes",
    "training.pg_tokens",
    "selection.prompts_scored",
    "trace_io.bytes_read",
    "trace_io.records",
)

# Ratio metric -> (numerator counter, denominator counter); 0 when nothing was counted.
RATIOS = {
    "eda.bonus_frac": ("eda.bonuses", "eda.targets"),
    "training.zero_signal_frac": ("training.zero_groups", "training.groups"),
    "regularizers.selected_frac": ("regularizers.selected", "regularizers.considered"),
}


def load_spans(path) -> dict:
    with np.load(path, allow_pickle=False) as z:
        return {k: z[k] for k in z.files}


def layer_metrics(spans: dict, counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    names = [str(n) for n in spans["names"]]
    phases = [str(p) for p in spans["phases"]]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    incl = spans["end"] - spans["start"]
    span_name = np.array(names, dtype=object)[spans["name"]] if names else np.array([])

    def mask(*wanted):
        return np.isin(span_name, list(wanted)) if span_name.size else np.zeros(0, bool)

    out: dict[str, float] = {}
    for metric, wanted in SELF_TIME.items():
        out[metric] = float(own[mask(*wanted)].sum())
    for metric, (wanted, phase) in PHASE_TIME.items():
        in_phase = spans["phase"] == phases.index(phase)
        out[metric] = float(incl[mask(wanted) & in_phase].sum())
    for metric, wanted in CALLS.items():
        out[metric] = float(mask(*wanted).sum())
    for metric in COUNTERS:
        out[metric] = float(counters.get(metric, 0.0))
    for metric, (num, den) in RATIOS.items():
        d = counters.get(den, 0.0)
        out[metric] = float(counters.get(num, 0.0) / d) if d else 0.0
    out["trace.spans"] = float(len(own))
    return out
