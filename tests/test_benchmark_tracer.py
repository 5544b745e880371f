"""The benchmark's tracer still finds every name and call shape it wraps.

``perfbench/tracer.py`` wraps package functions by attribute name and reads
their arguments and results positionally. A refactor that renames one, or
changes what it takes or returns, would leave a traced benchmark run
counting nothing. This test installs the tracer in a fresh interpreter, runs
a few tiny training runs and every offline command, and checks that each
layer it counts saw work.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer as tracing

tr = tracing.Tracer(0)
tracing.install(tr)

from heal.cli import main
from heal.simulator import TrainConfig, train
from heal.trace_io import TraceRecord, write_traces

tiny = dict(n_target=2, rollouts_per_prompt=2, batch_size=4, steps=2,
            learning_rate=0.5, max_len=4, log_every=1, eval_prompts=2)
train(TrainConfig(mode="heal", n_general=2, **tiny))
train(TrainConfig(mode="fewshot", regularizer="mask_8020", **tiny))
train(TrainConfig(mode="fewshot", regularizer="kl_cov", **tiny))

records = [
    TraceRecord(prompt_id=pid, domain=domain, trajectory_index=j,
                entropies=[0.5 + 0.1 * j, 1.0, 0.25 * (i + 1)], correct=j % 2)
    for i, (pid, domain) in enumerate([("t0", "target"), ("t1", "target"), ("g0", "general")])
    for j in range(2)
]
write_traces(records, "traces.jsonl")
for args in (["reward", "--out", "reward.jsonl"], ["heatmap", "--out", "heatmap.csv"],
             ["select", "--k", "1", "--out", "select.jsonl"], ["passk", "--k", "1,2"]):
    try:
        main([args[0], "--traces", "traces.jsonl", *args[1:]], standalone_mode=False)
    except SystemExit as exc:
        assert exc.code in (None, 0), (args, exc.code)

tr.save("spans.npz")
print(json.dumps(tracing.layer_metrics(tracing.load_spans("spans.npz"), tr.counters)))
"""


def test_tracer_counts_work_in_every_layer_it_wraps(tmp_path):
    # No bytecode is written, so the benchmark directory is only read.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "perfbench")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    metrics = json.loads(result.stdout.splitlines()[-1])
    for name in ("rollout.calls", "training.grpo_calls", "training.pg_tokens",
                 "eda.calls", "trace_io.records"):
        assert metrics[name] > 0, (name, metrics)
