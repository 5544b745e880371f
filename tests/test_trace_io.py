"""JSONL trace/metrics round trips, schema validation, heatmap export."""

import json

import numpy as np
import pytest

from heal.dynamics import EntropyDynamics, pairwise_distance_matrix
from heal.errors import TraceFormatError, ValidationError
from heal.rollouts import Trajectory
from heal.trace_io import (
    MetricsRow,
    TraceRecord,
    export_heatmap,
    load_traces,
    read_metrics,
    read_trace_records,
    record_from_trajectory,
    trajectory_from_record,
    write_metrics,
    write_traces,
)


def _random_records(rng, count):
    records = []
    for i in range(count):
        length = int(rng.integers(1, 9))
        records.append(
            TraceRecord(
                prompt_id=f"p{i % 3}",
                domain="target" if i % 3 else "general",
                trajectory_index=i,
                entropies=[float(v) for v in rng.uniform(0, 3, length)],
                correct=int(rng.integers(0, 2)),
                tokens=[int(v) for v in rng.integers(0, 12, length)],
                logprobs=[float(v) for v in -rng.uniform(0, 5, length)],
                answer=f"a{i}",
            )
        )
    return records


def test_trace_round_trip_is_field_exact(tmp_path):
    rng = np.random.default_rng(0)
    records = _random_records(rng, 40)
    path = tmp_path / "traces.jsonl"
    write_traces(records, path)
    assert read_trace_records(path) == records


def test_trace_optional_fields_are_omitted(tmp_path):
    record = TraceRecord(
        prompt_id="p0", domain="target", trajectory_index=0,
        entropies=[1.0, 0.5], correct=1,
    )
    path = tmp_path / "traces.jsonl"
    write_traces([record], path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert set(obj) == {"prompt_id", "domain", "trajectory_index", "entropies", "correct"}
    assert read_trace_records(path) == [record]


def test_trace_unknown_keys_survive_round_trip(tmp_path):
    record = TraceRecord(
        prompt_id="p0", domain="general", trajectory_index=0,
        entropies=[2.0], correct=0, extras={"note": "keep", "score": 1.5},
    )
    path = tmp_path / "traces.jsonl"
    write_traces([record], path)
    back = read_trace_records(path)
    assert back[0].extras == {"note": "keep", "score": 1.5}


def test_trace_blank_lines_skipped(tmp_path):
    first, second = (
        json.dumps({"prompt_id": "p", "domain": "target", "trajectory_index": i,
                    "entropies": [1.0], "correct": 1})
        for i in (0, 1)
    )
    path = tmp_path / "traces.jsonl"
    path.write_text(f"\n{first}\n\n{second}\n", encoding="utf-8")
    assert len(read_trace_records(path)) == 2


def _write_lines(tmp_path, *objs):
    path = tmp_path / "bad.jsonl"
    text = "\n".join(o if isinstance(o, str) else json.dumps(o) for o in objs)
    path.write_text(text + "\n", encoding="utf-8")
    return path


_VALID = {
    "prompt_id": "p", "domain": "target", "trajectory_index": 0,
    "entropies": [1.0, 0.5], "correct": 1,
}


@pytest.mark.parametrize(
    "patch",
    [
        {"prompt_id": None},
        {"domain": "held_out"},
        {"trajectory_index": -1},
        {"trajectory_index": True},
        {"entropies": []},
        {"entropies": [1.0, -0.5]},
        {"entropies": [1.0, "x"]},
        {"logprobs": [-1.0]},
        {"logprobs": [-1.0, 0.5]},
        {"tokens": [1]},
        {"tokens": [1, -2]},
        {"tokens": [1, True]},
        {"correct": 2},
        {"correct": True},
        {"answer": 7},
    ],
)
def test_trace_schema_rejections(tmp_path, patch):
    obj = dict(_VALID)
    obj.update(patch)
    for key, value in patch.items():
        if value is None:
            del obj[key]
    path = _write_lines(tmp_path, obj)
    with pytest.raises(TraceFormatError):
        read_trace_records(path)


def test_trace_errors_name_the_line(tmp_path):
    bad = dict(_VALID, domain="held_out")
    path = _write_lines(tmp_path, _VALID, bad)
    with pytest.raises(TraceFormatError) as info:
        read_trace_records(path)
    assert info.value.line_no == 2
    assert info.value.field == "domain"
    path2 = _write_lines(tmp_path, _VALID, "{not json")
    with pytest.raises(TraceFormatError):
        read_trace_records(path2)
    path3 = _write_lines(tmp_path, [1, 2])
    with pytest.raises(TraceFormatError):
        read_trace_records(path3)


def test_load_traces_groups_in_file_order(tmp_path):
    rows = [
        dict(_VALID, prompt_id="b", trajectory_index=0),
        dict(_VALID, prompt_id="a", domain="general", trajectory_index=0, correct=0),
        dict(_VALID, prompt_id="b", trajectory_index=1),
    ]
    path = _write_lines(tmp_path, *rows)
    groups = load_traces(path)
    assert [g.prompt_id for g in groups] == ["b", "a"]
    assert [g.domain for g in groups] == ["target", "general"]
    assert [len(g) for g in groups] == [2, 1]
    first = groups[0].trajectories[0]
    assert isinstance(first.step_entropies, np.ndarray)
    assert first.step_entropies.dtype == np.float64


@pytest.mark.parametrize(
    "second, field",
    [
        (dict(_VALID, entropies=[0.1]), "trajectory_index"),
        (dict(_VALID, domain="general", trajectory_index=1), "domain"),
    ],
)
def test_read_trace_records_applies_file_rules(tmp_path, second, field):
    rows = [dict(_VALID, prompt_id="q"), dict(_VALID), second]
    path = _write_lines(tmp_path, *rows)
    with pytest.raises(TraceFormatError) as info:
        read_trace_records(path)
    assert (info.value.line_no, info.value.field) == (3, field)


def test_load_traces_rejects_mixed_domain_prompt(tmp_path):
    rows = [dict(_VALID), dict(_VALID, domain="general")]
    path = _write_lines(tmp_path, *rows)
    with pytest.raises(TraceFormatError) as info:
        load_traces(path)
    assert info.value.line_no == 2


def test_record_trajectory_round_trip():
    t = Trajectory(
        prompt_id="p", domain="target", step_entropies=np.array([1.0, 0.25]),
        trajectory_index=3, tokens=[4, 10], step_logprobs=np.array([-0.5, -1.5]),
        correct=1, answer="4",
    )
    back = trajectory_from_record(record_from_trajectory(t))
    assert back.prompt_id == t.prompt_id
    assert back.tokens == t.tokens
    np.testing.assert_array_equal(back.step_entropies, t.step_entropies)
    np.testing.assert_array_equal(back.step_logprobs, t.step_logprobs)
    assert back.correct == 1
    assert back.answer == "4"


def test_record_from_trajectory_needs_verdict():
    t = Trajectory(prompt_id="p", domain="general", step_entropies=np.array([1.0]))
    with pytest.raises(ValidationError, match="verdict"):
        record_from_trajectory(t)


def _metrics_rows():
    return [
        MetricsRow(step=0, reward_rate=0.25, eda_rate=0.0,
                   mean_entropy_target=2.5, mean_entropy_general=2.4,
                   mean_ed_distance=0.125),
        MetricsRow(step=10, reward_rate=1.75, eda_rate=0.875,
                   extras={"wallclock": 1.5}),
    ]


def test_metrics_round_trip_exact(tmp_path):
    path = tmp_path / "metrics.jsonl"
    rows = _metrics_rows()
    write_metrics(rows, path)
    assert read_metrics(path) == rows
    obj = json.loads(path.read_text(encoding="utf-8").splitlines()[1])
    assert "mean_entropy_target" not in obj
    assert obj["wallclock"] == 1.5


def test_write_metrics_validation(tmp_path):
    path = tmp_path / "metrics.jsonl"
    with pytest.raises(ValidationError):
        write_metrics([MetricsRow(step=0, reward_rate=2.5, eda_rate=0.0)], path)
    with pytest.raises(ValidationError):
        write_metrics([MetricsRow(step=0, reward_rate=0.5, eda_rate=-0.1)], path)
    with pytest.raises(ValidationError):
        write_metrics(
            [MetricsRow(step=5, reward_rate=0.5, eda_rate=0.0),
             MetricsRow(step=5, reward_rate=0.5, eda_rate=0.0)],
            path,
        )
    with pytest.raises(ValidationError):
        write_metrics([MetricsRow(step=0, reward_rate=None, eda_rate=0.0)], path)


@pytest.mark.parametrize(
    "line",
    [
        '{"step": -1, "reward_rate": 0.5, "eda_rate": 0.0}',
        '{"step": 0, "reward_rate": 2.5, "eda_rate": 0.0}',
        '{"step": 0, "reward_rate": 0.5}',
        '{"step": 0, "reward_rate": 0.5, "eda_rate": 0.0, "mean_ed_distance": -0.1}',
        '{"step": 0, "reward_rate": NaN, "eda_rate": 0.0}',
    ],
)
def test_read_metrics_rejections(tmp_path, line):
    path = tmp_path / "metrics.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(TraceFormatError):
        read_metrics(path)


def test_read_metrics_requires_increasing_steps(tmp_path):
    path = tmp_path / "metrics.jsonl"
    path.write_text(
        '{"step": 3, "reward_rate": 0.5, "eda_rate": 0.0}\n'
        '{"step": 3, "reward_rate": 0.5, "eda_rate": 0.0}\n',
        encoding="utf-8",
    )
    with pytest.raises(TraceFormatError) as info:
        read_metrics(path)
    assert info.value.line_no == 2


def test_heatmap_matches_distance_matrix(tmp_path):
    rng = np.random.default_rng(7)
    dyns = [
        EntropyDynamics(rng.uniform(0, 3, rng.integers(2, 9)),
                        source_id=f"t{i}", domain="target")
        for i in range(4)
    ]
    path = tmp_path / "heat.csv"
    export_heatmap(dyns, path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    assert header == ["id", "t0", "t1", "t2", "t3"]
    matrix = pairwise_distance_matrix(dyns)
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == f"t{i}"
        for j, cell in enumerate(cells[1:]):
            assert cell == "%.9g" % matrix[i, j]
    with pytest.raises(ValidationError):
        export_heatmap([], tmp_path / "empty.csv")
