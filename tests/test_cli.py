"""End-to-end CLI behavior: outputs, exit codes, determinism."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import heal
from heal.analysis import PassAtKInput, pass_at_k
from heal.cli import main
from heal.eda import batch_rewards
from heal.errors import DivergenceError
from heal.selection import score_groups, select_top_k
from heal.rollouts import Trajectory
from heal.simulator import TrainConfig, train
from heal.trace_io import load_traces, read_metrics, write_traces


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


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use; loading it at import time would
    # add its import cost to every command's start-up.
    src = str(Path(heal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, heal, heal.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
        assert line["prompt_id"] == s.prompt_id
        assert line["composite"] == s.composite
    assert lines[-1] == {"selected": select_top_k(scores, 2)}


def test_select_is_idempotent(runner, tmp_path, trace_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        result = runner.invoke(main, ["select", "--traces", str(trace_path),
                                      "--k", "3", "--out", str(out)])
        assert result.exit_code == 0
    assert a.read_bytes() == b.read_bytes()


def test_select_rejects_bad_k(runner, tmp_path, trace_path):
    result = runner.invoke(main, ["select", "--traces", str(trace_path),
                                  "--k", "0", "--out", str(tmp_path / "x")])
    assert result.exit_code == 2
    assert "error:" in result.stderr


def test_reward_matches_library(runner, tmp_path, trace_path):
    out = tmp_path / "rewards.jsonl"
    result = runner.invoke(main, ["reward", "--traces", str(trace_path),
                                  "--sim", "kl", "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    expected = batch_rewards(_make_trajectories(), "kl")
    assert len(lines) == len(expected)
    for line, r in zip(lines, expected):
        assert line["trajectory_id"] == r.trajectory_id
        assert line["r_acc"] == r.r_acc
        assert line["r_eda"] == r.r_eda
        assert line["total"] == r.total
        if r.domain == "general":
            assert "s_intra" not in line and "s_inter" not in line
        else:
            assert line["s_intra"] == r.s_intra
            assert line["s_inter"] == r.s_inter


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


def test_sim_divergence_exits_4(runner, tmp_path, monkeypatch):
    import heal.cli as cli

    def explode(cfg, out_dir):
        raise DivergenceError("forced for the exit-code test")

    monkeypatch.setattr(cli, "train", explode)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_SIM_CONFIG, encoding="utf-8")
    result = runner.invoke(main, ["sim", "--config", str(cfg_path),
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 4


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


def test_sim_heal_candidate_pool_too_large_exits_2_naming_the_factor(runner, tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "mode = heal\nn_general = 2000\nselection_pool_factor = 2.0\n", encoding="utf-8"
    )
    result = runner.invoke(main, ["sim", "--config", str(cfg_path),
                                  "--out", str(tmp_path / "run")])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: n_general * selection_pool_factor must be <= 3000")
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
        assert float(row[3]) == pass_at_k(PassAtKInput(n=n, c=c, k=1))
        assert float(row[4]) == pass_at_k(PassAtKInput(n=n, c=c, k=2))
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
    result = runner.invoke(main, ["passk", "--traces", str(trace_path), "--k", "1,x"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["passk", "--traces", str(trace_path), "--k", "999"])
    assert result.exit_code == 2


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


def _tiny_run(tmp_path, name, seed):
    cfg = TrainConfig(
        mode="fewshot", n_target=2, rollouts_per_prompt=2, batch_size=4,
        steps=2, learning_rate=0.5, max_len=4, log_every=1, eval_prompts=2,
        seed=seed,
    )
    out = tmp_path / name
    train(cfg, out)
    return out


def test_curves_single_and_multi_run(runner, tmp_path):
    a = _tiny_run(tmp_path, "run-a", 0)
    b = _tiny_run(tmp_path, "run-b", 1)
    single = tmp_path / "single.csv"
    result = runner.invoke(main, ["curves", "--run", str(a), "--out", str(single)])
    assert result.exit_code == 0, result.output
    with open(single, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "mean_entropy_target", "mean_entropy_general",
                       "reward_rate", "eda_rate"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert all(r[2] == "" for r in rows[1:])

    multi = tmp_path / "multi.csv"
    result = runner.invoke(main, ["curves", "--run", str(a), "--run", str(b),
                                  "--label", "base", "--label", "alt",
                                  "--out", str(multi)])
    assert result.exit_code == 0
    with open(multi, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "run"
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
