"""Self-tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    INPUT_SEEDS,
    OFFLINE_PROMPTS,
    OFFLINE_ROLLOUTS,
    WORKLOADS,
    make_trace_records,
    trace_bytes,
)


def test_generator_is_byte_deterministic():
    first = trace_bytes(make_trace_records(5))
    assert first == trace_bytes(make_trace_records(5))
    assert first == trace_bytes(make_trace_records(5 + INPUT_SEEDS))
    assert first != trace_bytes(make_trace_records(6))
    records = [json.loads(line) for line in first.decode().splitlines()]
    assert len(records) == OFFLINE_PROMPTS * OFFLINE_ROLLOUTS
    assert sum(r["domain"] == "target" for r in records) == len(records) // 2
    assert all(200 <= len(r["entropies"]) <= 2000 for r in records)
    # Seeds move lengths between trajectories; every domain keeps the same set.
    lengths = {d: sorted(len(r["entropies"]) for r in records if r["domain"] == d)
               for d in ("target", "general")}
    other = [json.loads(line) for line in trace_bytes(make_trace_records(6)).decode().splitlines()]
    assert lengths["target"] == lengths["general"]
    assert lengths["target"] == sorted(len(r["entropies"]) for r in other if r["domain"] == "target")
    assert all(min(r["entropies"]) >= 0 and max(r["logprobs"]) <= 0 for r in records)


def _small_batch(rng):
    from heal.rollouts import Trajectory

    batch = []
    for p in range(6):
        domain = "target" if p < 4 else "general"
        for j in range(3):
            batch.append(Trajectory(
                prompt_id=f"p{p}", domain=domain, trajectory_index=j,
                step_entropies=rng.uniform(0.0, 3.0, int(rng.integers(1, 40))),
                correct=int(rng.integers(0, 2)),
            ))
    return batch


@pytest.mark.parametrize("sim", ["kl", "hti", "pl"])
def test_oracle_agrees_with_batch_rewards(sim):
    from heal.eda import batch_rewards

    batch = _small_batch(np.random.default_rng(3))
    curves = [t.step_entropies for t in batch]
    domains = [t.domain for t in batch]
    for i, rec in enumerate(batch_rewards(batch, sim)):
        if rec.domain != "target":
            assert rec.s_intra is None and rec.s_inter is None and rec.r_eda == 0.0
            continue
        s_intra, s_inter = oracle.pool_maxima(i, curves, domains, sim)
        assert math.isclose(rec.s_intra, s_intra, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(rec.s_inter, s_inter, rel_tol=0, abs_tol=1e-12)
        assert rec.r_eda == float(s_inter > s_intra)


def test_oracle_pass_at_k_edges():
    assert oracle.pass_at_k(8, 0, 4) == 0.0
    assert oracle.pass_at_k(8, 5, 4) == 1.0
    assert oracle.pass_at_k(8, 1, 1) == 0.125


def test_self_time_on_hand_built_tree():
    #   0 root [0, 10]
    #   1   a  [1, 4]      3   b [3, 6] overlaps a   4   c [8, 12] overruns root
    #   2     a1 [2, 3]
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    got = tracer.self_times(start, end, parent)
    # root: 10 - |[1, 6] U [8, 10]| = 3; a: 3 - 1 = 2.
    assert got.tolist() == [3.0, 2.0, 1.0, 3.0, 4.0]


def test_layer_metrics_sums_self_time_by_layer_and_phase():
    phases = list(tracer.PHASES)
    names = ["training.train", "eda.batch_rewards", "dynamics.kl_matrix"]
    spans = {
        "names": np.array(names), "phases": np.array(phases),
        "name": np.array([0, 1, 2, 1, 2]),
        "start": np.array([0.0, 1.0, 1.5, 5.0, 5.5]),
        "end": np.array([10.0, 3.0, 2.5, 8.0, 7.5]),
        "parent": np.array([-1, 0, 1, 0, 3]),
        "phase": np.array([0, phases.index("train"), phases.index("train"),
                           phases.index("eval"), phases.index("eval")]),
    }
    counters = {"eda.bonuses": 3.0, "eda.targets": 4.0}
    got = tracer.layer_metrics(spans, counters)
    assert got["training.loop_s"] == 5.0
    assert got["eda.batch_rewards_s"] == 2.0
    assert got["dynamics.kl_matrix_s"] == 3.0
    assert got["eda.batch_rewards_train_incl_s"] == 2.0
    assert got["eda.batch_rewards_eval_incl_s"] == 3.0
    assert got["eda.calls"] == 2.0 and got["dynamics.kl_matrix_calls"] == 2.0
    assert got["eda.bonus_frac"] == 0.75
    assert got["training.zero_signal_frac"] == 0.0
    assert got["cli.heatmap_s"] == 0.0


def test_kl_matrix_work_counts_aligned_cells():
    cells, peak = tracer.kl_matrix_work([2, 3], [3])
    assert cells == 6
    # cache: rows at 3 and 3, the column at 3; temporaries 2 x (1 x 1 x 3) twice.
    assert peak == 8 * (3 + 3 + 3 + 6)


def test_scaled_segments_divide_by_reference_slowdown():
    import refclock

    slow = 2 * refclock.NUMERIC_UNIT_MS
    p = {"numeric_ref": True, "ops": [
        {"segments_ms": [10.0, 30.0], "ref_ms": [slow, slow], "first_step": 1},
        # No units of its own: scaled by every unit of the pass.
        {"segments_ms": [8.0], "ref_ms": [], "first_step": 0},
    ]}
    assert run.scaled_segments(p) == [([5.0, 15.0], 1), ([4.0], 0)]
    assert run.scaled_run_s(p) == pytest.approx(0.024)


def test_benchmark_json_names_what_the_code_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    layer = tracer.layer_metrics(
        {"names": np.array([], dtype=str), "phases": np.array(tracer.PHASES),
         "name": np.zeros(0, int), "start": np.zeros(0), "end": np.zeros(0),
         "parent": np.zeros(0, int), "phase": np.zeros(0, int)}, {})
    printed = set(layer) | {"trace.overhead_s", "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == printed
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    described = json.loads((BENCH / "workloads.json").read_text())
    assert list(described) == list(WORKLOADS)
