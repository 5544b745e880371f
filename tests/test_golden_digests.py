"""The package's outputs are still the benchmark's recorded reference.

``perfbench/golden.json`` holds the SHA-256 digests of every sim workload
run's ``metrics.jsonl`` and ``policy.bin``, and of every offline-score
command's output. Training each sim config here, for two input seeds, checks
on every test run that a change to the sampler, the gradient step or the
regularizers left the outputs bit-identical. Running the six offline
commands on input seed 0 checks the same for trace ingest, the similarity
kernels, the reward, heatmap, select and passk. The benchmark's files are
only read.
"""

import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

from heal.cli import main
from heal.simulator import TrainConfig, train

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_bench(*names):
    """Import benchmark modules by name, writing no bytecode under perfbench/."""
    sys.path.insert(0, str(BENCH))
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.dont_write_bytecode = writes_bytecode
        sys.path.remove(str(BENCH))


workloads, checks = _load_bench("workloads", "checks")
GOLDEN = json.loads((BENCH / "golden.json").read_text())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", ["sim-sweep", "sim-heal"])
def test_sim_outputs_match_golden_digests(workload, seed, tmp_path):
    golden = GOLDEN[workload][str(seed)]
    configs = workloads.sim_configs(workload, seed)
    assert sorted(name for name, _ in configs) == sorted(golden)
    for name, kwargs in configs:
        record = train(TrainConfig(**kwargs), tmp_path / name)
        assert record.status == "completed", name
        digests = {file: _sha256(tmp_path / name / file) for file in golden[name]}
        assert digests == golden[name], name


def test_offline_outputs_match_golden_digests(tmp_path):
    golden = dict(GOLDEN["offline-score"]["0"])
    data = workloads.trace_bytes(workloads.make_trace_records(0))
    assert workloads.sha256_bytes(data) == golden.pop("input")
    traces = tmp_path / workloads.TRACE_FILE
    traces.write_bytes(data)
    for _, argv, out_file in workloads.OFFLINE_COMMANDS:
        args = [argv[0], "--traces", str(traces), *argv[1:], "--out", str(tmp_path / out_file)]
        try:
            main(args, standalone_mode=False)
        except SystemExit as exc:
            assert exc.code in (None, 0), argv
    # Reward files are compared by their canonical rows, the others byte for byte.
    assert checks.offline_digests(tmp_path) == golden
