"""End-to-end CLI behavior: outputs, exit codes, determinism."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import heal
from heal.analysis import pass_at_k
from heal.cli import main
from heal.eda import RewardRecord, batch_rewards
from heal.errors import DivergenceError
from heal.selection import SelectionScore, score_groups, select_top_k
from heal.rollouts import Trajectory
from heal.simulator import TrainConfig, train
from heal.trace_io import load_traces, read_metrics, write_traces

from cli_oracle import brute_force_top_k, enumerated_pass_at_k, heatmap_outcome, reward_outcome


@pytest.fixture
def runner():
    return CliRunner()


def _make_trajectories(seed=3):
    rng = np.random.default_rng(seed)
    trajectories = []
    for p in range(3):
        for j in range(4):
            length = int(rng.integers(2, 7))
            trajectories.append(
                Trajectory(
                    prompt_id=f"tgt-{p}", domain="target", trajectory_index=j,
                    step_entropies=[float(v) for v in rng.uniform(0, 2.5, length)],
                    correct=int(rng.integers(0, 2)),
                    tokens=[int(v) for v in rng.integers(0, 12, length)],
                    step_logprobs=[float(v) for v in -rng.uniform(0.1, 3, length)],
                    answer="1 2",
                )
            )
    for p in range(2):
        for j in range(2):
            length = int(rng.integers(2, 7))
            trajectories.append(
                Trajectory(
                    prompt_id=f"gen-{p}", domain="general", trajectory_index=j,
                    step_entropies=[float(v) for v in rng.uniform(0, 2.5, length)],
                    correct=int(rng.integers(0, 2)),
                )
            )
    return trajectories


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "traces.jsonl"
    write_traces(_make_trajectories(), path)
    return path


def test_help_lists_subcommands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for name in ("select", "reward", "sim", "passk", "curves", "heatmap"):
        assert name in result.output


def test_installed_entry_point():
    exe = shutil.which("heal")
    assert exe, "console script 'heal' not on PATH"
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "select" in proc.stdout


def _src_env(**overrides) -> dict:
    """This checkout's environment for a fresh interpreter, without HEAL_LOG
    unless given."""
    src = str(Path(heal.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "HEAL_LOG"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env.update(overrides)
    return env


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use, and the trace reader loads orjson
    # on its first read; only ``sim`` needs the simulator (and the
    # regularizers it trains with), logging loads only under HEAL_LOG, and
    # fractions only for pass@k. Loading any of them at import time, or for
    # --help, would add its import cost to every command's start-up.
    code = (
        "import sys, heal, heal.cli; "
        "lazy = ('numpy.random', 'orjson', 'heal.simulator', 'heal.regularizers', "
        "'logging', 'fractions'); "
        "print([m for m in lazy if m in sys.modules]); "
        "heal.cli.main(['--help'], standalone_mode=False); "
        "print([m for m in lazy if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "[]"
    for name in ("select", "reward", "sim", "passk", "curves", "heatmap"):
        assert any(line.split()[:1] == [name] for line in lines[1:-1]), name


@pytest.mark.parametrize("level", ["info", None])
def test_heal_log_info_reports_progress(tmp_path, trace_path, level):
    env = _src_env(**({"HEAL_LOG": level} if level else {}))
    proc = subprocess.run(
        [sys.executable, "-m", "heal.cli", "reward", "--traces", str(trace_path),
         "--out", str(tmp_path / "rewards.jsonl")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    info = [line for line in proc.stderr.splitlines() if line.startswith("INFO")]
    n = len(_make_trajectories())
    assert info == ([f"INFO heal: rewarded {n} trajectories"] if level else [])


def test_select_scores_and_keeps_top_k(runner, tmp_path, trace_path):
    out = tmp_path / "selected.jsonl"
    result = runner.invoke(main, ["select", "--traces", str(trace_path),
                                  "--k", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "command = select" in result.stderr
    lines = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    scores = score_groups(load_traces(trace_path))
    assert len(lines) == len(scores) + 1
    for line, s in zip(lines, scores):
        # A score line is the SelectionScore, its fields in order.
        assert list(line) == [f.name for f in dataclasses.fields(SelectionScore)]
        assert line == dataclasses.asdict(s)
    assert lines[-1] == {"selected": select_top_k(scores, 2)}


def test_select_is_idempotent(runner, tmp_path, trace_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        result = runner.invoke(main, ["select", "--traces", str(trace_path),
                                      "--k", "3", "--out", str(out)])
        assert result.exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_select_rejects_bad_k(runner, tmp_path, trace_path):
    # --k is checked before the trace is opened, so a missing path gives the same error,
    # and a non-integer k is the same one error line after the settings echo.
    out = tmp_path / "x"
    for traces in (trace_path, tmp_path / "missing.jsonl"):
        for k in ("0", "-3", "x", "1.5", "1,2", ""):
            result = runner.invoke(main, ["select", "--traces", str(traces),
                                          "--k", k, "--out", str(out)])
            assert result.exit_code == 2
            assert result.stderr.splitlines()[0] == "command = select"
            assert result.stderr.splitlines()[-1] == f"error: --k must be an integer >= 1, got {k}"
    assert not out.exists()


def test_select_rejects_overflowing_diversity(runner, tmp_path):
    # Finite entropies whose top-fraction mean overflows float64: the score
    # would be Infinity (NaN composite when accuracy is 0 or 1).
    big = [Trajectory(prompt_id="huge", domain="general", trajectory_index=j,
                      step_entropies=[1e308, 1.5e308], correct=1) for j in range(2)]
    path = tmp_path / "big.jsonl"
    write_traces(_make_trajectories() + big, path)
    out = tmp_path / "selected.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, ["select", "--traces", str(path),
                                      "--k", "2", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "error: prompt 'huge': diversity" in result.stderr
    assert "overflows float64" in result.stderr
    assert not out.exists()


def test_reward_matches_library(runner, tmp_path, trace_path):
    # A reward line is the RewardRecord, its fields in order, without the
    # similarity of an empty pool: a general trajectory has neither, and so
    # has a lone target.
    fields = ["trajectory_id", "prompt_id", "domain", "r_acc", "r_eda", "total",
              "s_intra", "s_inter"]
    assert [f.name for f in dataclasses.fields(RewardRecord)] == fields
    general_only = [Trajectory(prompt_id="g", domain="general", trajectory_index=0,
                               step_entropies=[1.0, 2.0], correct=1)]
    single_target = [Trajectory(prompt_id="t", domain="target", trajectory_index=0,
                                step_entropies=[1.0, 2.0], correct=0)]
    for trajectories in (_make_trajectories(), general_only, single_target):
        write_traces(trajectories, trace_path)
        out = tmp_path / "rewards.jsonl"
        result = runner.invoke(main, ["reward", "--traces", str(trace_path),
                                      "--sim", "kl", "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        expected = batch_rewards(trajectories, "kl")
        assert len(lines) == len(expected)
        for line, r in zip(lines, expected):
            no_pool = r.domain == "general" or len(trajectories) == 1
            assert list(line) == (fields[:-2] if no_pool else fields)
            assert line == {k: v for k, v in dataclasses.asdict(r).items() if v is not None}


def _summary_line(stderr):
    (line,) = [l for l in stderr.splitlines() if l.startswith("reward summary:")]
    return dict(field.split("=") for field in line.split()[2:])


def test_reward_prints_one_summary_line(runner, tmp_path, trace_path):
    out = tmp_path / "rewards.jsonl"
    result = runner.invoke(main, ["reward", "--traces", str(trace_path),
                                  "--sim", "kl", "--out", str(out)])
    assert result.exit_code == 0, result.output
    expected = [r for r in batch_rewards(_make_trajectories(), "kl") if r.domain == "target"]
    summary = _summary_line(result.stderr)
    assert summary == {
        "targets": "12",
        "bonus_rate": f"{sum(r.r_eda for r in expected) / 12:.4f}",
        "ties": str(sum(r.s_inter == r.s_intra for r in expected)),
        "empty_intra": "0",
        "empty_inter": "0",
    }
    assert result.stdout == ""


def test_reward_summary_counts_ties_and_empty_pools(runner, tmp_path):
    # Two identical target curves tie each other and have no inter pool; a
    # lone general-only file has no targets.
    targets = [
        Trajectory(prompt_id="t", domain="target", trajectory_index=j,
                   step_entropies=[1.0, 2.0, 0.5], correct=1)
        for j in range(2)
    ]
    path = tmp_path / "t.jsonl"
    write_traces(targets, path)
    result = runner.invoke(main, ["reward", "--traces", str(path), "--out", str(tmp_path / "r")])
    assert result.exit_code == 0, result.output
    assert _summary_line(result.stderr) == {
        "targets": "2", "bonus_rate": "0.0000", "ties": "0", "empty_intra": "0", "empty_inter": "2",
    }
    write_traces(targets + [Trajectory(prompt_id="g", domain="general", trajectory_index=0,
                                       step_entropies=[1.0, 2.0, 0.5], correct=0)], path)
    result = runner.invoke(main, ["reward", "--traces", str(path), "--out", str(tmp_path / "r")])
    assert _summary_line(result.stderr)["ties"] == "2"
    write_traces([Trajectory(prompt_id="g", domain="general", trajectory_index=0,
                             step_entropies=[1.0], correct=0)], path)
    result = runner.invoke(main, ["reward", "--traces", str(path), "--out", str(tmp_path / "r")])
    assert _summary_line(result.stderr) == {
        "targets": "0", "bonus_rate": "n/a", "ties": "0", "empty_intra": "0", "empty_inter": "0",
    }


@pytest.mark.parametrize("sim, curves, message", [
    # The flat curve's softmax weights are positive where the spiked ones
    # underflow to 0, so its KL to either is inf: s_intra = s_inter = -inf.
    ("kl", [("a", "target", [0.0, 0.0]), ("b", "target", [1000.0, 0.0]),
            ("c", "general", [1000.0, 0.0])],
     "error: target a/0: s_intra is -inf, not a finite kl similarity"),
    # Two top-20% steps of 1e308 each: the min-sum is inf.
    ("hti", [("a", "target", [1e308] * 10), ("b", "target", [1e308] * 10)],
     "error: target a/0: s_intra is inf, not a finite hti similarity"),
], ids=["kl", "hti"])
def test_reward_rejects_non_finite_similarity(runner, tmp_path, sim, curves, message):
    # JSON has no spelling for an infinite s_intra or s_inter, and the trace
    # reader's own decoder refuses -Infinity.
    path = tmp_path / "t.jsonl"
    write_traces([Trajectory(prompt_id=p, domain=d, trajectory_index=0,
                             step_entropies=e, correct=1) for p, d, e in curves], path)
    out = tmp_path / "rewards.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, ["reward", "--traces", str(path), "--sim", sim,
                                      "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert message in result.stderr
    assert not out.exists()


def test_heatmap_rejects_non_finite_distance(runner, tmp_path):
    # The flat curve's softmax weights are positive where the spiked ones
    # underflow to 0, so its KL distance to either is inf; many CSV readers
    # do not parse an "inf" cell.
    path = tmp_path / "t.jsonl"
    curves = [("a", "target", [0.0, 0.0]), ("b", "target", [1000.0, 0.0]),
              ("c", "general", [1000.0, 0.0])]
    write_traces([Trajectory(prompt_id=p, domain=d, trajectory_index=0,
                             step_entropies=e, correct=1) for p, d, e in curves], path)
    out = tmp_path / "heat.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, ["heatmap", "--traces", str(path), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "error: heatmap row a/0, column b/0: distance is inf, not finite" in result.stderr
    assert not out.exists()


def test_reward_missing_file_exits_3(runner, tmp_path):
    result = runner.invoke(main, ["reward", "--traces", str(tmp_path / "nope.jsonl"),
                                  "--out", str(tmp_path / "out.jsonl")])
    assert result.exit_code == 3


def test_reward_malformed_traces_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"prompt_id": "p"}\n', encoding="utf-8")
    result = runner.invoke(main, ["reward", "--traces", str(bad),
                                  "--out", str(tmp_path / "out.jsonl")])
    assert result.exit_code == 2


# (prompt_id, domain, trajectory_index) per line; the second line breaks a
# file-level trace rule, so write_traces refuses it and the test writes JSON.
_TRACE_FAULTS = {
    "duplicate_index": [("p", "target", 0), ("p", "target", 0)],
    "mixed_domains": [("p", "target", 0), ("p", "general", 1)],
}


@pytest.mark.parametrize("command", ["reward", "heatmap", "passk", "select"])
@pytest.mark.parametrize("fault", sorted(_TRACE_FAULTS))
def test_trace_rule_faults_exit_2_naming_the_line(runner, tmp_path, command, fault):
    path = tmp_path / "traces.jsonl"
    path.write_text("".join(
        json.dumps({"prompt_id": p, "domain": d, "trajectory_index": i,
                    "entropies": [1.0, 0.5], "correct": 1}) + "\n"
        for p, d, i in _TRACE_FAULTS[fault]
    ), encoding="utf-8")
    result = runner.invoke(main, [command, "--traces", str(path),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "error: line 2" in result.stderr


@pytest.mark.parametrize("command", ["reward", "heatmap", "passk", "select"])
@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank_lines"])
def test_trace_file_without_records_exits_2_naming_it(runner, tmp_path, command, text):
    path = tmp_path / "traces.jsonl"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--traces", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert f"error: {path}: trace file holds no records" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["reward", "heatmap", "passk", "select"])
@pytest.mark.parametrize("field", ["entropies", "logprobs"])
def test_oversized_integer_exits_2_naming_line_and_field(runner, tmp_path, command, field):
    good = {"prompt_id": "p", "domain": "target", "trajectory_index": 0,
            "entropies": [1.0, 0.5], "logprobs": [-1.0, -0.5], "correct": 1}
    bad = dict(good, trajectory_index=1)
    bad[field] = [0.5, 10**400] if field == "entropies" else [-0.5, -(10**400)]
    path = tmp_path / "traces.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    result = runner.invoke(main, [command, "--traces", str(path),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert f"error: line 2, field '{field}': non-finite or non-numeric entry" in result.stderr


@pytest.mark.parametrize("command", ["reward", "heatmap", "passk", "select"])
def test_trace_file_not_utf8_exits_2_naming_the_line(runner, tmp_path, command):
    good = {"prompt_id": "p", "domain": "target", "trajectory_index": 0,
            "entropies": [1.0, 0.5], "correct": 1}
    path = tmp_path / "traces.jsonl"
    bad = json.dumps(dict(good, trajectory_index=1)).encode().replace(b'"p"', b'"p\xff"')
    path.write_bytes(json.dumps(good).encode() + b"\n" + bad + b"\n")
    result = runner.invoke(main, [command, "--traces", str(path),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "error: line 2, field 'json': not UTF-8: byte 0xff at column 17" in result.stderr


@pytest.mark.parametrize("command", ["reward", "heatmap", "passk", "select", "curves"])
def test_deeply_nested_line_exits_2_naming_the_line(runner, tmp_path, command):
    # An extras value nested 3,000 deep, past the JSON decoder's recursion limit.
    nested = ', "extras": ' + "[" * 3000 + "]" * 3000 + "}"
    if command == "curves":
        first = {"step": 0, "reward_rate": 0.5, "eda_rate": 0.0}
        second = dict(first, step=1)
        path = tmp_path / "metrics.jsonl"
        args = ["curves", "--run", str(tmp_path)]
    else:
        first = {"prompt_id": "p", "domain": "target", "trajectory_index": 0,
                 "entropies": [1.0, 0.5], "correct": 1}
        second = dict(first, trajectory_index=1)
        path = tmp_path / "traces.jsonl"
        args = [command, "--traces", str(path), "--out", str(tmp_path / "out")]
    lines = [json.dumps(first), json.dumps(second)[:-1] + nested]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "error: line 2, field 'json': maximum recursion depth exceeded" in result.stderr


_SIM_CONFIG = """\
mode = fewshot
n_target = 2
rollouts_per_prompt = 2
batch_size = 4
steps = 2
learning_rate = 0.5
max_len = 4
log_every = 1
eval_prompts = 2
"""


def test_sim_trains_and_persists(runner, tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_SIM_CONFIG, encoding="utf-8")
    out = tmp_path / "run"
    result = runner.invoke(main, ["sim", "--config", str(cfg_path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "mode = fewshot" in result.stderr
    for name in ("metrics.jsonl", "config.echo", "policy.bin"):
        assert (out / name).exists()


def test_sim_seed_override(runner, tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_SIM_CONFIG, encoding="utf-8")
    out = tmp_path / "run"
    result = runner.invoke(main, ["sim", "--config", str(cfg_path),
                                  "--out", str(out), "--seed", "7"])
    assert result.exit_code == 0
    assert "seed = 7" in (out / "config.echo").read_text(encoding="utf-8")


def test_sim_reruns_bit_identical(runner, tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_SIM_CONFIG, encoding="utf-8")
    for out in ("a", "b"):
        result = runner.invoke(main, ["sim", "--config", str(cfg_path),
                                      "--out", str(tmp_path / out)])
        assert result.exit_code == 0
    assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == \
        (tmp_path / "b" / "metrics.jsonl").read_bytes()
    assert (tmp_path / "a" / "policy.bin").read_bytes() == \
        (tmp_path / "b" / "policy.bin").read_bytes()


def test_sim_bad_config_exits_2(runner, tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("mode = warp\n", encoding="utf-8")
    result = runner.invoke(main, ["sim", "--config", str(cfg_path),
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 2


def test_sim_config_not_utf8_exits_2_naming_the_line(runner, tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_bytes(b"mode = fewshot\n# caf\xe9\n" + _SIM_CONFIG.encode())
    result = runner.invoke(main, ["sim", "--config", str(cfg_path),
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 2
    assert "error: config line 2: not UTF-8: byte 0xe9" in result.stderr
    assert not (tmp_path / "run").exists()


# NaN fails every < and > test, so each check must be written to reject it.
@pytest.mark.parametrize(
    "field, value",
    [("general_fraction", "nan"), ("general_fraction", "-inf"),
     ("selection_pool_factor", "nan"), ("selection_pool_factor", "inf"),
     ("eps_high", "nan"), ("beta", "nan"), ("beta", "inf")],
)
def test_sim_non_finite_config_field_exits_2_naming_it(runner, tmp_path, field, value):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        _SIM_CONFIG.replace("mode = fewshot", "mode = heal\nn_general = 2\n"
                            "regularizer = clip_higher")
        + f"{field} = {value}\n",
        encoding="utf-8",
    )
    result = runner.invoke(main, ["sim", "--config", str(cfg_path),
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith(f"error: {field} must be")
    assert not (tmp_path / "run").exists()


def test_sim_missing_config_exits_3(runner, tmp_path):
    result = runner.invoke(main, ["sim", "--config", str(tmp_path / "nope.cfg"),
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 3


def test_sim_out_naming_a_file_exits_3_before_training(runner, tmp_path, monkeypatch):
    import heal.simulator.training as training

    steps = []
    monkeypatch.setattr(training._Trainer, "_train_step", lambda self, step: steps.append(step))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_SIM_CONFIG, encoding="utf-8")
    out = tmp_path / "taken"
    out.write_text("not a directory\n", encoding="utf-8")
    result = runner.invoke(main, ["sim", "--config", str(cfg_path), "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert result.stderr.splitlines()[-1].startswith("error: [Errno 17] File exists")
    assert steps == []
    assert out.read_text(encoding="utf-8") == "not a directory\n"


def test_sim_divergence_exits_4(runner, tmp_path, monkeypatch):
    # ``sim`` looks the trainer up in its module when it runs.
    import heal.simulator.training as training

    def explode(cfg, out_dir):
        raise DivergenceError("forced for the exit-code test")

    monkeypatch.setattr(training, "train", explode)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_SIM_CONFIG, encoding="utf-8")
    result = runner.invoke(main, ["sim", "--config", str(cfg_path),
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 4


@pytest.mark.parametrize("command, library_call", [
    ("select", "heal.cli.score_groups"),
    ("reward", "heal.cli.batch_rewards"),
    ("passk", "heal.cli.pass_at_k_per_prompt"),
    ("heatmap", "heal.trace_io.pairwise_distance_matrix"),
])
def test_out_of_memory_exits_5_without_a_traceback(runner, tmp_path, trace_path, monkeypatch,
                                                   command, library_call):
    # The library call raises as an allocation that fails would; nothing is allocated.
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 EiB for an array")

    monkeypatch.setattr(library_call, exhausted)
    out = tmp_path / "out"
    result = runner.invoke(main, [command, "--traces", str(trace_path), "--out", str(out)])
    assert result.exit_code == 5, result.output
    # Past the echoed settings, one error line and no traceback.
    assert [line for line in result.stderr.splitlines() if " = " not in line] == [
        "error: out of memory: Unable to allocate 8.00 EiB for an array"
    ]
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sim_sampler_overflow_exits_4_and_persists_the_run(runner, tmp_path):
    # A finite table that overflows once divided by the temperature: the
    # sampler's distribution goes non-finite, which is divergence, not bad input.
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "mode = fewshot\nsteps = 5\nbatch_size = 8\nmax_len = 4\n"
        "temperature = 0.05\nlearning_rate = 1e308\n",
        encoding="utf-8",
    )
    out = tmp_path / "run"
    result = runner.invoke(main, ["sim", "--config", str(cfg_path), "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert "temperature 0.05" in result.stderr
    assert (out / "config.echo").read_text(encoding="utf-8").startswith("# status = diverged\n")
    assert [row.step for row in read_metrics(out / "metrics.jsonl")] == [0]


@pytest.mark.parametrize("n_general, factor", [(2000, 2.0), (2, 1e308)])
def test_sim_heal_candidate_pool_too_large_exits_2_naming_the_factor(
    runner, tmp_path, n_general, factor
):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"mode = heal\nn_general = {n_general}\nselection_pool_factor = {factor!r}\n",
        encoding="utf-8",
    )
    result = runner.invoke(main, ["sim", "--config", str(cfg_path),
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: n_general * selection_pool_factor must be <= 3000")
    assert result.stderr.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_passk_table(runner, tmp_path, trace_path):
    out = tmp_path / "passk.csv"
    result = runner.invoke(main, ["passk", "--traces", str(trace_path),
                                  "--k", "1,2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["prompt_id", "n", "c", "pass@1", "pass@2"]
    body, mean_row = rows[1:-1], rows[-1]
    assert [r[0] for r in body] == ["tgt-0", "tgt-1", "tgt-2", "gen-0", "gen-1"]
    for row in body:
        n, c = int(row[1]), int(row[2])
        assert float(row[3]) == pass_at_k(n, c, 1)
        assert float(row[4]) == pass_at_k(n, c, 2)
    assert mean_row[0] == "mean"
    assert mean_row[1] == "" and mean_row[2] == ""
    assert float(mean_row[3]) == pytest.approx(
        np.mean([float(r[3]) for r in body]), abs=1e-12
    )


def test_passk_stdout_default(runner, trace_path):
    result = runner.invoke(main, ["passk", "--traces", str(trace_path), "--k", "1"])
    assert result.exit_code == 0
    assert "prompt_id,n,c,pass@1" in result.output


def test_passk_rejects_bad_k(runner, tmp_path, trace_path):
    # --k is checked before the trace is opened, so a missing path gives the same error.
    out = tmp_path / "x.csv"
    for traces in (trace_path, tmp_path / "missing.jsonl"):
        for ks in ("0", "", ",", "1,x", "2,-1", "1.5"):
            result = runner.invoke(main, ["passk", "--traces", str(traces), "--k", ks,
                                          "--out", str(out)])
            assert result.exit_code == 2
            assert result.stderr.splitlines()[-1] == (
                f"error: --k must be comma-separated integers >= 1, got {ks!r}"
            )
    assert not out.exists()
    # A k above a prompt's sample count is that prompt's error.
    result = runner.invoke(main, ["passk", "--traces", str(trace_path), "--k", "999"])
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1].startswith("error: prompt 'tgt-0' (4 samples): ")


def test_passk_k_above_a_prompt_sample_count_names_the_prompt(runner, tmp_path):
    path = tmp_path / "traces.jsonl"
    write_traces(
        [Trajectory(prompt_id=pid, domain="target", trajectory_index=j,
                    step_entropies=[1.0], correct=j % 2)
         for pid, n in (("q", 3), ("p", 2)) for j in range(n)],
        path,
    )
    result = runner.invoke(main, ["passk", "--traces", str(path), "--k", "3"])
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == (
        "error: prompt 'p' (2 samples): k must lie in [1, n], got k=3, n=2"
    )


# Entropies in halves: sums of a few are exact, so every mean is one rounding
# and its bits do not depend on the order of summation, and composites tie often.
_HALVES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])


@st.composite
def _scoring_cases(draw):
    """1-5 prompts of 1-6 rollouts each, their lines shuffled through the
    file, plus a passk k list (some k may exceed a prompt's n) and a select k."""
    trajectories = []
    for p in range(draw(st.integers(1, 5))):
        domain = draw(st.sampled_from(["target", "general"]))
        for j in range(draw(st.integers(1, 6))):
            trajectories.append(Trajectory(
                prompt_id=f"p{p}", domain=domain, trajectory_index=j,
                step_entropies=draw(st.lists(_HALVES, min_size=1, max_size=6)),
                correct=draw(st.integers(0, 1)),
            ))
    order = draw(st.permutations(range(len(trajectories))))
    ks = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3))
    return [trajectories[i] for i in order], ks, draw(st.integers(1, 6))


def _run_in_process(args):
    """(exit code, last stderr line) of one command run through ``main``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            main(args, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue().splitlines()[-1]


@given(_scoring_cases())
def test_passk_and_select_match_enumeration_oracles(case):
    trajectories, ks, select_k = case
    groups: dict = {}
    for t in trajectories:
        groups.setdefault(t.prompt_id, []).append(t)
    counts = [(pid, len(g), sum(t.correct for t in g)) for pid, g in groups.items()]
    with tempfile.TemporaryDirectory() as tmp:
        traces, out = os.path.join(tmp, "traces.jsonl"), os.path.join(tmp, "out")
        write_traces(trajectories, traces)

        code, last = _run_in_process(["passk", "--traces", traces,
                                      "--k", ",".join(map(str, ks)), "--out", out])
        too_big = [(pid, n, k) for pid, n, _ in counts for k in ks if k > n]
        if too_big:
            pid, n, k = too_big[0]
            assert (code, last) == (2, f"error: prompt {pid!r} ({n} samples): "
                                       f"k must lie in [1, n], got k={k}, n={n}")
        else:
            assert code == 0, last
            table = [[enumerated_pass_at_k(n, c, k) for k in ks] for _, n, c in counts]
            means = [sum(row[i] for row in table) / len(table) for i in range(len(ks))]
            lines = ["prompt_id,n,c," + ",".join(f"pass@{k}" for k in ks)]
            lines += [f"{pid},{n},{c}," + ",".join(map(repr, row))
                      for (pid, n, c), row in zip(counts, table)]
            lines.append("mean,,," + ",".join(map(repr, means)))
            with open(out, "rb") as fh:
                assert fh.read() == ("\n".join(lines) + "\n").encode()

        code, last = _run_in_process(["select", "--traces", traces,
                                      "--k", str(select_k), "--out", out])
        assert code == 0, last
        lines, composites = [], []
        for (pid, n, c), g in zip(counts, groups.values()):
            accuracy = c / n
            u = 1.0 - 2.0 * abs(accuracy - 0.5)
            top = [v for t in g for v in sorted(t.step_entropies.tolist(), reverse=True)
                   [: max(1, math.ceil(0.2 * t.length))]]
            d = sum(top) / len(top)
            composites.append(u * d)
            lines.append(json.dumps({"prompt_id": pid, "accuracy": accuracy, "uncertainty": u,
                                     "diversity": d, "composite": u * d}))
        lines.append(json.dumps({"selected": brute_force_top_k(list(groups), composites,
                                                               select_k)}))
        with open(out, "rb") as fh:
            assert fh.read() == ("\n".join(lines) + "\n").encode()


# Entropy values with signed zeros, subnormals, and one large enough that a
# softmax weight underflows and a KL distance is infinite.
_ENTROPIES = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 0.5, 1.0, 2.5, 1000.0])


@st.composite
def _reward_cases(draw):
    """1-6 trajectories of up to three prompts, one or both domains, whose
    curves (1-4 steps) are often shared, so that pools tie."""
    mixes = [["target"] * 3, ["general"] * 3] + [["target", "general", "target"],
                                                   ["target", "general", "general"]] * 2
    prompt_domains = dict(zip(["p0", "p1", "p2"], draw(st.sampled_from(mixes))))
    curve = st.lists(_ENTROPIES, min_size=1, max_size=4)
    shared = draw(st.lists(curve, min_size=1, max_size=3))
    rows = draw(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(shared) | curve,
                                   st.integers(0, 1)), min_size=1, max_size=6))
    trajectories, counts = [], {}
    for k, (shift, entropies, correct) in enumerate(rows):
        pid = f"p{(k + shift) % 3}"
        counts[pid] = counts.get(pid, -1) + 1
        trajectories.append(Trajectory(prompt_id=pid, domain=prompt_domains[pid],
                                       trajectory_index=counts[pid], step_entropies=entropies,
                                       correct=correct))
    return trajectories


def _run_with_output(args, out):
    """(exit code, last stderr line, bytes of ``out`` or None) of one command."""
    code, last = _run_in_process(args)
    if not os.path.exists(out):
        return code, last, None
    with open(out, "rb") as fh:
        data = fh.read()
    os.remove(out)
    return code, last, data


@settings(deadline=None)
@given(_reward_cases())
def test_reward_and_heatmap_match_pairwise_oracles(trajectories):
    with tempfile.TemporaryDirectory() as tmp:
        traces, out = os.path.join(tmp, "traces.jsonl"), os.path.join(tmp, "out")
        write_traces(trajectories, traces)
        for sim in ("kl", "hti", "pl"):
            got = _run_with_output(["reward", "--traces", traces, "--sim", sim, "--out", out], out)
            assert got == reward_outcome(trajectories, sim), sim
        code, last, data = _run_with_output(["heatmap", "--traces", traces, "--out", out], out)
        want_code, want_error, want_data = heatmap_outcome(trajectories)
        assert (code, data) == (want_code, want_data)
        if want_error is not None:
            assert last == want_error


def _tiny_run(tmp_path, name, seed):
    cfg = TrainConfig(
        mode="fewshot", n_target=2, rollouts_per_prompt=2, batch_size=4,
        steps=2, learning_rate=0.5, max_len=4, log_every=1, eval_prompts=2,
        seed=seed,
    )
    out = tmp_path / name
    train(cfg, out)
    return out


# The metrics fields in file order.
CURVE_COLUMNS = ["step", "mean_entropy_target", "mean_entropy_general",
                 "reward_rate", "eda_rate", "mean_ed_distance"]


def test_curves_single_and_multi_run(runner, tmp_path):
    a = _tiny_run(tmp_path, "run-a", 0)
    b = _tiny_run(tmp_path, "run-b", 1)
    single = tmp_path / "single.csv"
    result = runner.invoke(main, ["curves", "--run", str(a), "--out", str(single)])
    assert result.exit_code == 0, result.output
    with open(single, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CURVE_COLUMNS
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert all(r[2] == "" for r in rows[1:])

    multi = tmp_path / "multi.csv"
    result = runner.invoke(main, ["curves", "--run", str(a), "--run", str(b),
                                  "--label", "base", "--label", "alt",
                                  "--out", str(multi)])
    assert result.exit_code == 0
    with open(multi, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run"] + CURVE_COLUMNS
    assert {r[0] for r in rows[1:]} == {"base", "alt"}


def test_curves_oversized_integer_exits_2(runner, tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    (run / "metrics.jsonl").write_text(
        json.dumps({"step": 0, "reward_rate": 10**400, "eda_rate": 0.0}) + "\n",
        encoding="utf-8",
    )
    result = runner.invoke(main, ["curves", "--run", str(run)])
    assert result.exit_code == 2
    assert "error: line 1, field 'reward_rate': must be a finite real" in result.stderr


def test_curves_metrics_not_utf8_exits_2_naming_the_line(runner, tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    row = json.dumps({"step": 0, "reward_rate": 0.5, "eda_rate": 0.0}).encode()
    (run / "metrics.jsonl").write_bytes(row + b"\n" + row.replace(b"0", b"1", 1) + b" \x80\n")
    result = runner.invoke(main, ["curves", "--run", str(run)])
    assert result.exit_code == 2
    assert "error: line 2, field 'json': not UTF-8: byte 0x80" in result.stderr


def test_curves_missing_run_exits_3(runner, tmp_path):
    result = runner.invoke(main, ["curves", "--run", str(tmp_path / "ghost")])
    assert result.exit_code == 3


def test_heatmap_square_and_idempotent(runner, tmp_path, trace_path):
    a, b = tmp_path / "heat-a.csv", tmp_path / "heat-b.csv"
    for out in (a, b):
        result = runner.invoke(main, ["heatmap", "--traces", str(trace_path),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
    assert a.read_bytes() == b.read_bytes()
    with open(a, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    n = len(_make_trajectories())
    assert len(rows) == n + 1
    assert all(len(r) == n + 1 for r in rows)
    ids = rows[0][1:]
    diag = [rows[1 + i][1 + i] for i in range(n)]
    assert all(v == "0" for v in diag)
    assert ids[0] == "tgt-0/0"
