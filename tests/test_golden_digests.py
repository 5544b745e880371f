"""The simulator's outputs are still the benchmark's recorded reference.

``perfbench/golden.json`` holds the SHA-256 digests of every sim workload
run's ``metrics.jsonl`` and ``policy.bin``. Training each of those configs
here, for two input seeds, checks on every test run that a change to the
sampler, the gradient step or the regularizers left the outputs
bit-identical. The benchmark's files are only read.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from heal.simulator import TrainConfig, train

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


workloads = _load_workloads()
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
