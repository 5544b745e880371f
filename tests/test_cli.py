"""End-to-end CLI behavior: outputs, exit codes, determinism."""

import csv
import json
import shutil
import subprocess

import numpy as np
import pytest
from click.testing import CliRunner

from heal.analysis import PassAtKInput, pass_at_k
from heal.cli import main
from heal.eda import batch_rewards
from heal.errors import DivergenceError
from heal.selection import score_groups, select_top_k
from heal.simulator import TrainConfig, train
from heal.trace_io import TraceRecord, load_traces, trajectory_from_record, write_traces


@pytest.fixture
def runner():
    return CliRunner()


def _make_records(seed=3):
    rng = np.random.default_rng(seed)
    records = []
    for p in range(3):
        for j in range(4):
            length = int(rng.integers(2, 7))
            records.append(
                TraceRecord(
                    prompt_id=f"tgt-{p}", domain="target", trajectory_index=j,
                    entropies=[float(v) for v in rng.uniform(0, 2.5, length)],
                    correct=int(rng.integers(0, 2)),
                    tokens=[int(v) for v in rng.integers(0, 12, length)],
                    logprobs=[float(v) for v in -rng.uniform(0.1, 3, length)],
                    answer="1 2",
                )
            )
    for p in range(2):
        for j in range(2):
            length = int(rng.integers(2, 7))
            records.append(
                TraceRecord(
                    prompt_id=f"gen-{p}", domain="general", trajectory_index=j,
                    entropies=[float(v) for v in rng.uniform(0, 2.5, length)],
                    correct=int(rng.integers(0, 2)),
                )
            )
    return records


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "traces.jsonl"
    write_traces(_make_records(), path)
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
    trajectories = [trajectory_from_record(r) for r in _make_records()]
    expected = batch_rewards(trajectories, "kl")
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
# file-level trace rule.
_TRACE_FAULTS = {
    "duplicate_index": [("p", "target", 0), ("p", "target", 0)],
    "mixed_domains": [("p", "target", 0), ("p", "general", 1)],
}


@pytest.mark.parametrize("command", ["reward", "heatmap", "passk", "select"])
@pytest.mark.parametrize("fault", sorted(_TRACE_FAULTS))
def test_trace_rule_faults_exit_2_naming_the_line(runner, tmp_path, command, fault):
    path = tmp_path / "traces.jsonl"
    write_traces(
        [TraceRecord(prompt_id=p, domain=d, trajectory_index=i, entropies=[1.0, 0.5], correct=1)
         for p, d, i in _TRACE_FAULTS[fault]],
        path,
    )
    result = runner.invoke(main, [command, "--traces", str(path),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "error: line 2" in result.stderr


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
    n = len(_make_records())
    assert len(rows) == n + 1
    assert all(len(r) == n + 1 for r in rows)
    ids = rows[0][1:]
    diag = [rows[1 + i][1 + i] for i in range(n)]
    assert all(v == "0" for v in diag)
    assert ids[0] == "tgt-0/0"
