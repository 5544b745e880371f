"""Exact pass@k and training-curve extraction."""

import itertools

import numpy as np
import pytest

from heal.analysis import curve_rows, curve_table, pass_at_k, pass_at_k_per_prompt
from heal.errors import ValidationError
from heal.rollouts import RolloutGroup, Trajectory
from heal.trace_io import MetricsRow, load_traces, write_metrics, write_traces


def test_pass_at_k_hand_values():
    assert pass_at_k(1, 1, 1) == 1.0
    assert pass_at_k(2, 1, 1) == 0.5
    assert pass_at_k(4, 2, 2) == 5 / 6
    assert pass_at_k(10, 0, 3) == 0.0
    assert pass_at_k(10, 10, 1) == 1.0
    # Any subset of size > n - c must contain a correct sample.
    assert pass_at_k(6, 2, 5) == 1.0


def test_pass_at_k_matches_subset_enumeration():
    for n in range(1, 9):
        for c in range(n + 1):
            for k in range(1, n + 1):
                hits = 0
                total = 0
                for subset in itertools.combinations(range(n), k):
                    total += 1
                    hits += any(i < c for i in subset)
                assert pass_at_k(n, c, k) == hits / total


def test_pass_at_k_monotone():
    for c in range(0, 13):
        values = [pass_at_k(12, c, k) for k in range(1, 13)]
        assert all(b >= a for a, b in zip(values, values[1:]))
    for k in (1, 4, 12):
        values = [pass_at_k(12, c, k) for c in range(13)]
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_pass_at_k_input_validation():
    for n, c, k, message in [
        (0, 0, 1, "n must be >= 1, got 0"),
        (4, 5, 1, r"c must lie in \[0, n\], got c=5, n=4"),
        (4, 2, 0, r"k must lie in \[1, n\], got k=0, n=4"),
        (4, 2, 5, r"k must lie in \[1, n\], got k=5, n=4"),
        (4.0, 2, 1, "n must be an integer, got 4.0"),
        (4, True, 1, "c must be an integer, got True"),
    ]:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            pass_at_k(n, c, k)
    # A numpy integer is an integer.
    assert pass_at_k(np.int64(8), np.int32(3), np.uint8(1)) == 3 / 8


def _traj(prompt_id, index, correct):
    return Trajectory(
        prompt_id=prompt_id, domain="target", step_entropies=np.array([1.0]),
        trajectory_index=index, correct=correct,
    )


def _one_group(*trajectories):
    return RolloutGroup(prompt_id=trajectories[0].prompt_id, domain="target",
                        trajectories=list(trajectories))


def test_per_prompt_grouping_and_order(tmp_path):
    # Grouping is the trace reader's: prompts in first-appearance order.
    path = tmp_path / "traces.jsonl"
    write_traces([
        _traj("b", 0, 1), _traj("a", 0, 0), _traj("b", 1, 0),
        _traj("a", 1, 1), _traj("b", 2, 1),
    ], path)
    rows = pass_at_k_per_prompt(load_traces(path), [1, 2])
    assert [r[0] for r in rows] == ["b", "a"]
    b = rows[0]
    assert (b[1], b[2]) == (3, 2)
    assert b[3] == [pass_at_k(3, 2, 1), pass_at_k(3, 2, 2)]
    a = rows[1]
    assert (a[1], a[2]) == (2, 1)


def test_per_prompt_validation():
    with pytest.raises(ValidationError, match="no trajectories to score"):
        pass_at_k_per_prompt([], [1])
    with pytest.raises(ValidationError, match="no k values given"):
        pass_at_k_per_prompt([_one_group(_traj("a", 0, 1))], [])
    with pytest.raises(ValidationError, match="^trajectory a/1 has no correctness verdict$"):
        pass_at_k_per_prompt([_one_group(_traj("a", 0, 1), _traj("a", 1, None))], [1])
    with pytest.raises(ValidationError, match=r"^prompt 'a' \(1 samples\): k must lie"):
        pass_at_k_per_prompt([_one_group(_traj("a", 0, 1))], [2])


def _write_run(tmp_path, name, rows):
    run = tmp_path / name
    run.mkdir()
    write_metrics(rows, run / "metrics.jsonl")
    return run


def test_curve_rows_round_trip(tmp_path):
    rows = [
        MetricsRow(step=0, reward_rate=0.0, eda_rate=0.0, mean_entropy_target=2.0),
        MetricsRow(step=5, reward_rate=0.5, eda_rate=0.25, mean_entropy_target=1.0),
    ]
    run = _write_run(tmp_path, "run-a", rows)
    assert curve_rows(run) == rows
    with pytest.raises(FileNotFoundError):
        curve_rows(tmp_path / "missing")


# A metrics line's keys in file order: the columns of every curve table.
METRICS_COLUMNS = ["step", "mean_entropy_target", "mean_entropy_general",
                   "reward_rate", "eda_rate", "mean_ed_distance"]


def test_curve_table_single_run(tmp_path):
    rows = [MetricsRow(step=0, reward_rate=0.5, eda_rate=0.0, mean_entropy_target=2.0)]
    run = _write_run(tmp_path, "run-a", rows)
    header, table = curve_table([run])
    assert header == METRICS_COLUMNS
    assert table == [[0, 2.0, None, 0.5, 0.0, None]]


def test_curve_table_multi_run_labels(tmp_path):
    a = _write_run(tmp_path, "run-a",
                   [MetricsRow(step=0, reward_rate=0.1, eda_rate=0.0)])
    b = _write_run(tmp_path, "run-b",
                   [MetricsRow(step=0, reward_rate=0.9, eda_rate=0.5)])
    header, table = curve_table([a, b])
    assert header == ["run"] + METRICS_COLUMNS
    assert [row[0] for row in table] == ["run-a", "run-b"]
    header2, table2 = curve_table([a, b], ["base", "ours"])
    assert [row[0] for row in table2] == ["base", "ours"]
    with pytest.raises(ValidationError):
        curve_table([a, b], ["only-one"])
    with pytest.raises(ValidationError):
        curve_table([])
