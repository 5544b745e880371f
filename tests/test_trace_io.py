"""JSONL trace/metrics round trips, schema validation, heatmap export."""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heal.dynamics import pairwise_distance_matrix
from heal.errors import TraceFormatError, ValidationError
from heal.rollouts import DOMAINS, Trajectory
from heal.trace_io import (
    MetricsRow,
    export_heatmap,
    load_traces,
    read_metrics,
    read_trace_records,
    trajectory_from_record,
    trajectory_to_record,
    write_metrics,
    write_traces,
)

from trace_oracle import (
    channel_matches,
    ids_match,
    oracle_channels,
    record_mismatches,
    trace_mismatches,
)


def _random_trajectories(rng, count):
    trajectories = []
    for i in range(count):
        length = int(rng.integers(1, 9))
        trajectories.append(
            Trajectory(
                prompt_id=f"p{i % 3}",
                domain="target" if i % 3 else "general",
                trajectory_index=i,
                step_entropies=[float(v) for v in rng.uniform(0, 3, length)],
                correct=int(rng.integers(0, 2)),
                tokens=[int(v) for v in rng.integers(0, 12, length)],
                step_logprobs=[float(v) for v in -rng.uniform(0, 5, length)],
                answer=f"a{i}",
            )
        )
    return trajectories


def test_trace_round_trip_is_field_exact(tmp_path):
    rng = np.random.default_rng(0)
    trajectories = _random_trajectories(rng, 40)
    path = tmp_path / "traces.jsonl"
    write_traces(trajectories, path)
    back = read_trace_records(path)
    assert trace_mismatches(back, trajectories) == []
    path2 = tmp_path / "again.jsonl"
    write_traces(back, path2)
    assert path2.read_bytes() == path.read_bytes()


def test_trace_optional_fields_are_omitted(tmp_path):
    t = Trajectory(
        prompt_id="p0", domain="target", trajectory_index=0,
        step_entropies=[1.0, 0.5], correct=1,
    )
    path = tmp_path / "traces.jsonl"
    write_traces([t], path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert set(obj) == {"prompt_id", "domain", "trajectory_index", "entropies", "correct"}
    assert trace_mismatches(read_trace_records(path), [t]) == []


def test_trace_unknown_keys_survive_round_trip(tmp_path):
    t = Trajectory(
        prompt_id="p0", domain="general", trajectory_index=0,
        step_entropies=[2.0], correct=0, extras={"note": "keep", "score": 1.5},
    )
    path = tmp_path / "traces.jsonl"
    write_traces([t], path)
    back = read_trace_records(path)
    assert back[0].extras == {"note": "keep", "score": 1.5}


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"extras": {"entropies": [9.0]}}, "extras key 'entropies' is a trace field"),
        ({"extras": {"correct": 7}}, "extras key 'correct' is a trace field"),
        ({"trajectory_index": -3}, "line 2, field 'trajectory_index': trajectory p/-3: "
                                   "trajectory_index must be an integer >= 0, got -3"),
        ({"trajectory_index": 0}, "line 2, field 'trajectory_index': prompt 'p' repeats"),
        ({"domain": "general"}, "line 2, field 'domain': prompt 'p' mixes domains"),
        ({"correct": None}, "trajectory p/1 has no correctness verdict"),
    ],
    ids=["extras_entropies", "extras_correct", "negative_index", "repeated_index",
         "mixed_domains", "no_verdict"],
)
def test_write_traces_rejects_what_the_reader_rejects(tmp_path, patch, message):
    valid = dict(prompt_id="p", domain="target", step_entropies=[1.0], correct=1)
    first = Trajectory(**valid)
    # Set after construction: the constructor itself refuses a negative index.
    second = Trajectory(**valid, trajectory_index=1)
    for name, value in patch.items():
        setattr(second, name, value)
    path = tmp_path / "traces.jsonl"
    with pytest.raises(ValidationError, match=message):
        write_traces([first, second], path)
    assert not path.exists()


def test_numpy_integer_tokens_are_written_as_json_integers(tmp_path):
    tokens = np.array([3, 0, 2**40], dtype=np.int64)
    t = Trajectory(prompt_id="p", domain="target", step_entropies=[1.0, 0.5, 0.25],
                   tokens=tokens, correct=1)
    path = tmp_path / "traces.jsonl"
    write_traces([t], path)
    assert json.loads(path.read_text(encoding="utf-8"))["tokens"] == [3, 0, 2**40]
    (back,) = read_trace_records(path)
    assert ids_match(back.tokens, [3, 0, 2**40])
    # Set after construction, which refuses each of these.
    bad_tokens = (np.array([True, False, True]), np.array([3, -1, 2]),
                  np.array([3, 2**63, 2], dtype=np.uint64))
    for bad in bad_tokens:
        t.tokens = bad
        with pytest.raises(ValidationError, match="bad token"):
            write_traces([t], tmp_path / "bad.jsonl")
    assert not (tmp_path / "bad.jsonl").exists()


def _nested_list(depth):
    outer = inner = []
    for _ in range(depth - 1):
        inner.append([])
        inner = inner[0]
    return outer


@pytest.mark.parametrize("extras, message", [
    ({"seed": np.int64(3)}, "int64 is not JSON serializable"),
    ({"deep": _nested_list(5000)}, "maximum recursion depth exceeded"),
], ids=["numpy_scalar", "deeply_nested"])
def test_write_traces_names_a_trajectory_json_cannot_encode(tmp_path, extras, message):
    valid = dict(prompt_id="p", domain="target", step_entropies=[1.0], correct=1)
    batch = [Trajectory(**valid), Trajectory(**valid, trajectory_index=1, extras=extras)]
    path = tmp_path / "traces.jsonl"
    with pytest.raises(ValidationError, match=f"trajectory p/1: cannot encode as JSON: .*{message}"):
        write_traces(batch, path)
    assert not path.exists()


def test_write_traces_refuses_an_empty_batch(tmp_path):
    path = tmp_path / "traces.jsonl"
    with pytest.raises(ValidationError) as info:
        write_traces([], path)
    assert str(info.value) == f"{path}: trace file holds no records"
    assert not path.exists()


@pytest.mark.parametrize("text", ["", "\n \t\n\r\n"], ids=["empty", "blank_lines"])
def test_readers_refuse_a_file_without_records(tmp_path, text):
    path = tmp_path / "traces.jsonl"
    path.write_text(text, encoding="utf-8")
    for reader in (read_trace_records, load_traces):
        with pytest.raises(ValidationError) as info:
            reader(path)
        assert str(info.value) == f"{path}: trace file holds no records"


_FAULTS = ["none", "empty", "negative_index", "bad_token", "repeated_pair", "mixed_domains",
           "no_verdict", "unencodable"]


@st.composite
def faulty_batches(draw):
    """A valid batch of 1-4 trajectories over two prompts, with at most one
    fault: a writer rule or a file rule broken after construction, or
    extras that JSON cannot encode."""
    domains = {"p": draw(st.sampled_from(DOMAINS)), "q": draw(st.sampled_from(DOMAINS))}
    batch = []
    for index in range(draw(st.integers(1, 4))):
        pid = draw(st.sampled_from(["p", "q"]))
        n = draw(st.integers(1, 3))
        batch.append(Trajectory(
            prompt_id=pid, domain=domains[pid], trajectory_index=index,
            step_entropies=draw(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 0.5, 2.0]),
                                         min_size=n, max_size=n)),
            tokens=draw(st.none() | st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n)),
            correct=draw(st.integers(0, 1)),
        ))
    fault = draw(st.sampled_from(_FAULTS))
    t = draw(st.sampled_from(batch))
    if fault == "empty":
        batch = []
    elif fault == "negative_index":
        t.trajectory_index = -draw(st.integers(1, 3))
    elif fault == "bad_token":
        bad = draw(st.sampled_from([True, False, -1]))
        t.tokens = np.zeros(t.length, dtype=type(bad))
        t.tokens[draw(st.integers(0, t.length - 1))] = bad
    elif fault == "repeated_pair":
        batch.append(Trajectory(prompt_id=t.prompt_id, domain=t.domain,
                                trajectory_index=t.trajectory_index, step_entropies=[1.0],
                                correct=1))
    elif fault == "mixed_domains":
        other = "general" if t.domain == "target" else "target"
        batch.append(Trajectory(prompt_id=t.prompt_id, domain=other, trajectory_index=9,
                                step_entropies=[1.0], correct=1))
    elif fault == "no_verdict":
        t.correct = None
    elif fault == "unencodable":
        t.extras = {"seed": draw(st.sampled_from([np.int64(3), {1}, b"x"]))}
    return batch


def _dumps_lines(batch):
    """(text, None): each trajectory's ``json.dumps`` line; or (None, message)
    when a record cannot be made or encoded."""
    lines = []
    for t in batch:
        try:
            obj = trajectory_to_record(t)
        except ValidationError as exc:
            return None, str(exc)
        try:
            lines.append(json.dumps(obj) + "\n")
        except TypeError as exc:
            return None, f"trajectory {t.trajectory_id}: cannot encode as JSON: {exc}"
    return "".join(lines), None


@settings(max_examples=150)
@given(faulty_batches())
def test_write_traces_fails_exactly_as_reading_its_lines_back(batch):
    text, want_error = _dumps_lines(batch)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "traces.jsonl")
        try:
            write_traces(batch, path)
            got_error = None
            with open(path, "rb") as fh:
                assert fh.read() == text.encode("utf-8")
        except ValidationError as exc:
            got_error = str(exc)
            assert not os.path.exists(path)
        if text is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            try:
                read_trace_records(path)
            except ValidationError as exc:
                want_error = str(exc)
    assert got_error == want_error


def test_trace_blank_lines_skipped(tmp_path):
    first, second = (
        json.dumps({"prompt_id": "p", "domain": "target", "trajectory_index": i,
                    "entropies": [1.0], "correct": 1})
        for i in (0, 1)
    )
    path = tmp_path / "traces.jsonl"
    path.write_text(f"\n{first}\n\n{second}\n", encoding="utf-8")
    assert len(read_trace_records(path)) == 2
    # Lines of other whitespace, CRLF-ended or not, are blank too, and still
    # count toward the line numbers of later errors.
    blank = ["\t", "\x0c", "\x1c", "\u2003", "\r", " \t\r", "\u2003\x1c\x0c"]
    lines = [first] + blank + [second]
    path.write_bytes("\n".join(lines + [""]).encode("utf-8"))
    assert len(read_trace_records(path)) == 2
    path.write_bytes("\n".join(lines + [first, ""]).encode("utf-8"))
    with pytest.raises(TraceFormatError) as info:
        read_trace_records(path)
    assert str(info.value).startswith("line 10, field 'trajectory_index'")


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
    path = _write_lines(tmp_path, dict(_VALID, prompt_id="q"), obj)
    with pytest.raises(TraceFormatError) as info:
        read_trace_records(path)
    # One fault: the refusal names its line and the field it broke.
    assert (info.value.line_no, info.value.field) == (2, *patch)


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


@st.composite
def trace_files(draw):
    """(blank-line flags, records): a few prompts and indices, so pairs and
    domains collide often; half the draws are repaired into a valid file."""
    rows = draw(st.lists(
        st.tuples(st.sampled_from(["p0", "p1", "p2"]), st.sampled_from(["target", "general"]),
                  st.integers(0, 2), st.booleans()),
        max_size=10,
    ))
    if draw(st.booleans()):
        domains, counts = {}, {}
        repaired = []
        for pid, domain, _, blank in rows:
            counts[pid] = counts.get(pid, -1) + 1
            repaired.append((pid, domains.setdefault(pid, domain), counts[pid], blank))
        rows = repaired
    trajectories = [
        Trajectory(prompt_id=pid, domain=domain, trajectory_index=index,
                   step_entropies=[0.25 * (k + 1)], correct=k % 2)
        for k, (pid, domain, index, _) in enumerate(rows)
    ]
    return [blank for *_, blank in rows], trajectories


def _first_offending_line(blanks, records):
    """1-based line of the first record that repeats a (prompt, index) pair
    or changes its prompt's domain; None for a valid file."""
    seen, domains, line = set(), {}, 0
    for blank, r in zip(blanks, records):
        line += 1 + blank
        if (r.prompt_id, r.trajectory_index) in seen:
            return line
        if domains.setdefault(r.prompt_id, r.domain) != r.domain:
            return line
        seen.add((r.prompt_id, r.trajectory_index))
    return None


@given(trace_files())
def test_trace_file_rules_property(drawn):
    blanks, records = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "traces.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for blank, r in zip(blanks, records):
                fh.write("\n" * blank + json.dumps(trajectory_to_record(r)) + "\n")
        if not records:
            for reader in (read_trace_records, load_traces):
                with pytest.raises(ValidationError) as info:
                    reader(path)
                assert str(info.value) == f"{path}: trace file holds no records"
            return
        bad_line = _first_offending_line(blanks, records)
        if bad_line is not None:
            for reader in (read_trace_records, load_traces):
                with pytest.raises(TraceFormatError) as info:
                    reader(path)
                assert info.value.line_no == bad_line
            return
        assert trace_mismatches(read_trace_records(path), records) == []
        groups = load_traces(path)
    prompts = list(dict.fromkeys(r.prompt_id for r in records))
    assert [g.prompt_id for g in groups] == prompts
    for g in groups:
        mine = [r for r in records if r.prompt_id == g.prompt_id]
        assert g.domain == mine[0].domain
        assert [t.trajectory_index for t in g.trajectories] == [
            r.trajectory_index for r in mine
        ]


class _Token(int):
    """An int subclass, which ``json.dumps`` writes as a plain integer."""


# One float64 past the largest finite one: float() of an int at or above
# this midpoint overflows.
_OVERFLOW_INT = 2**1024 - 2**970
_ENTRY_EDGES = [
    -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf,
    2**53 + 1, 2**63, 2**64 - 1, 2**64 + 1, _OVERFLOW_INT - 1, _OVERFLOW_INT, 10**400,
]
_ANY_ENTRY = st.one_of(
    st.floats(),
    st.sampled_from(_ENTRY_EDGES),
    st.integers(-(2**1030), 2**1030),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
    st.lists(st.floats(0, 1), max_size=2),
    st.floats(0, 3).map(np.float64),
    st.integers(0, 9).map(np.int64),
)


def _clean_reals(n, sign):
    """n plain JSON numbers of one sign: the lists real traces hold."""
    mag = st.one_of(
        st.floats(min_value=0.0, allow_infinity=False),
        st.integers(0, 2**70),
        st.integers(2**1000, _OVERFLOW_INT - 1),
        st.sampled_from([0.0, 5e-324, 1.7976931348623157e308]),
    )
    return st.lists(mag.map(lambda v: sign * v), min_size=n, max_size=n)


# Draw weights: clean lists most often, so the accepted path gets examples;
# "edge" is a clean list with one entry swapped for an edge value or a bool.
_KINDS = ["clean"] * 4 + ["edge"] * 2 + ["mixed"] * 3 + ["absent", "not_a_list"]


def _channel(draw, kind, n, sign):
    if kind in ("clean", "edge"):
        values = draw(_clean_reals(n, sign))
        if kind == "edge":
            edge = draw(st.sampled_from(_ENTRY_EDGES + [True, False]))
            values[draw(st.integers(0, n - 1))] = edge
        return values
    if kind == "mixed":
        entry = st.one_of(st.floats(min_value=0.0).map(lambda v: sign * v), _ANY_ENTRY)
        return draw(st.lists(entry, max_size=n + 1))
    return draw(st.sampled_from([1.5, "x", {"a": 1}]))


# Token entries at and past the int64 edges, and the kinds next to them.
_TOKEN_EDGES = [0, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**80, -1, True, False, 1.0, "1"]


def _tokens(draw, kind, n):
    if kind in ("clean", "edge"):
        values = draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n))
        if kind == "edge":
            values[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_TOKEN_EDGES))
        return values
    if kind == "mixed":
        entry = st.one_of(st.integers(-3, 2**80), st.integers(0, 9).map(_Token), _ANY_ENTRY)
        return draw(st.lists(entry, max_size=n + 1))
    return draw(st.sampled_from([1.5, "x", {"a": 1}]))


@st.composite
def channel_objs(draw):
    """A trace line whose fields before ``entropies`` are valid; each
    numeric channel is a clean, mixed or malformed value, or absent."""
    n = draw(st.integers(1, 5))
    obj = {"prompt_id": "p", "domain": "target", "trajectory_index": 0, "correct": 1}
    kind = draw(st.sampled_from([k for k in _KINDS if k != "absent"]))
    obj["entropies"] = _channel(draw, kind, n, 1)
    for key in ("logprobs", "tokens"):
        kind = draw(st.sampled_from(_KINDS))
        if kind == "absent":
            continue
        obj[key] = _channel(draw, kind, n, -1) if key == "logprobs" else _tokens(draw, kind, n)
    return obj


def _check_against_oracle(read, obj, line_no):
    """``read()`` must accept exactly what the oracle accepts on ``obj``,
    bit for bit, and reject the rest with the oracle's line, field and
    message."""
    try:
        entropies, logprobs, tokens = oracle_channels(obj, line_no)
    except TraceFormatError as want:
        with pytest.raises(TraceFormatError) as info:
            read()
        got = info.value
        assert (got.line_no, got.field, str(got)) == (want.line_no, want.field, str(want))
        return
    t = read()
    assert channel_matches(t.step_entropies, entropies)
    assert channel_matches(t.step_logprobs, logprobs)
    assert ids_match(t.tokens, tokens)
    # Each channel is a new array of exactly its dtype, not a view of a buffer.
    for arr, dtype in ((t.step_entropies, np.float64), (t.step_logprobs, np.float64),
                       (t.tokens, np.int64)):
        if arr is not None:
            assert arr.dtype.type is dtype
            assert arr.flags.c_contiguous and arr.flags.writeable and arr.flags.owndata


# A numeric channel in a container no JSON line holds: the reader refuses it
# by its kind before any entry is converted, as the oracle does.
_RECASTS = st.none() | st.tuples(st.sampled_from(["entropies", "logprobs", "tokens"]),
                                 st.sampled_from([tuple, bytes, bytearray]),
                                 st.binary(max_size=5))


@settings(max_examples=200)
@given(channel_objs(), st.integers(1, 3), _RECASTS)
@example({**_VALID, "entropies": [1.0, True]}, 1, None)
@example({**_VALID, "entropies": [0.5, -5e-324]}, 1, None)
@example({**_VALID, "logprobs": [-0.5, 5e-324]}, 2, None)
@example({**_VALID, "entropies": [1.0, math.nan]}, 1, None)
@example({**_VALID, "entropies": [1.0, 10**400]}, 1, None)
@example({**_VALID, "entropies": [0.5, _OVERFLOW_INT]}, 1, None)
@example({**_VALID, "logprobs": [-1.0, -(10**400)]}, 1, None)
@example({**_VALID, "logprobs": [-0.0, np.float64(-0.5)]}, 1, None)
@example({**_VALID, "tokens": [1, True]}, 1, None)
@example({**_VALID, "tokens": [_Token(1), 2**70]}, 1, None)
@example({**_VALID, "tokens": [2**63 - 1, 2**63]}, 1, None)
@example({**_VALID, "tokens": [7]}, 1, ("tokens", bytes, b"\x07" + b"\x00" * 7))
@example({**_VALID, "entropies": [0.5, 1.0]}, 1, ("entropies", tuple, b""))
def test_channel_validation_matches_per_entry_oracle(obj, line_no, recast):
    # A trace line is JSON text: every draw goes through it, and the reader
    # and trajectory_from_record see what json.loads makes of it. Then one
    # channel of the decoded object is recast as a tuple of its entries, or
    # as drawn bytes or a bytearray, and handed to trajectory_from_record.
    try:
        line = json.dumps(obj)
    except TypeError:
        return  # out of contract: np.int64 entries have no JSON form
    decoded = json.loads(line)
    _check_against_oracle(lambda: trajectory_from_record(decoded, line_no), decoded, line_no)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "traces.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for index in range(1, line_no):
                fh.write(json.dumps(dict(_VALID, trajectory_index=index)) + "\n")
            fh.write(line + "\n")
        _check_against_oracle(lambda: read_trace_records(path)[-1], decoded, line_no)
    if recast is None or not isinstance(decoded.get(recast[0]), list):
        return
    key, container, payload = recast
    value = tuple(decoded[key]) if container is tuple else container(payload)
    recast_obj = dict(decoded, **{key: value})
    _check_against_oracle(lambda: trajectory_from_record(recast_obj, line_no), recast_obj, line_no)


# The value faults a line of valid JSON kinds can hold, each breaking one
# Trajectory rule, with the trace field of that rule.
_VALUE_FAULTS = {
    "domain": "domain", "index": "trajectory_index", "empty": "entropies",
    "entropy": "entropies", "logprobs_length": "logprobs", "logprob": "logprobs",
    "token": "tokens", "tokens_length": "tokens", "correct": "correct",
}


@st.composite
def one_fault_lines(draw):
    """(line object of valid JSON kinds, fault or None): the line breaks
    exactly the one Trajectory rule of its fault, or none."""
    n = draw(st.integers(1, 4))
    finite = dict(allow_nan=False, allow_infinity=False)
    obj = {
        "prompt_id": draw(st.text(max_size=3)),
        "domain": draw(st.sampled_from(DOMAINS)),
        "trajectory_index": draw(st.integers(0, 2**70)),
        "entropies": draw(st.lists(st.floats(0.0, **finite), min_size=n, max_size=n)),
        "correct": draw(st.integers(0, 1)),
    }
    if draw(st.booleans()):
        obj["logprobs"] = draw(st.lists(st.floats(max_value=0.0, **finite),
                                        min_size=n, max_size=n))
    if draw(st.booleans()):
        obj["tokens"] = draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        obj["answer"] = draw(st.text(max_size=3))
    fault = draw(st.sampled_from([None, *_VALUE_FAULTS]))
    i = draw(st.integers(0, n - 1))
    if fault == "domain":
        obj["domain"] = draw(st.text(max_size=8).filter(lambda d: d not in DOMAINS))
    elif fault == "index":
        obj["trajectory_index"] = draw(st.integers(-(2**70), -1))
    elif fault == "empty":
        for key in ("entropies", "logprobs", "tokens"):
            if key in obj:
                obj[key] = []
    elif fault == "entropy":
        obj["entropies"][i] = draw(st.floats(max_value=-5e-324, **finite))
    elif fault == "logprobs_length":
        obj["logprobs"] = draw(st.lists(st.floats(max_value=0.0, **finite), max_size=n + 2)
                               .filter(lambda lp: len(lp) != n))
    elif fault == "logprob":
        obj.setdefault("logprobs", [-1.0] * n)[i] = draw(st.floats(5e-324, **finite))
    elif fault == "token":
        obj.setdefault("tokens", [0] * n)[i] = draw(st.one_of(
            st.integers(-(2**70), -1), st.integers(2**63, 2**70), st.booleans(),
            st.floats(), st.text(max_size=2)))
    elif fault == "tokens_length":
        obj["tokens"] = draw(st.lists(st.integers(0, 9), max_size=n + 2)
                             .filter(lambda tokens: len(tokens) != n))
    elif fault == "correct":
        obj["correct"] = draw(st.integers(-(2**70), 2**70).filter(lambda c: c not in (0, 1)))
    return obj, fault


@settings(max_examples=200)
@given(one_fault_lines(), st.integers(1, 3))
def test_reader_refuses_what_the_constructor_refuses(line, line_no):
    # The reader checks JSON kinds alone; every value rule is the
    # constructor's, so the two refuse the same lines, by the same rule.
    obj, fault = line
    decoded = json.loads(json.dumps(obj))
    logprobs = decoded.get("logprobs")
    try:
        want = Trajectory(
            prompt_id=decoded["prompt_id"], domain=decoded["domain"],
            trajectory_index=decoded["trajectory_index"],
            step_entropies=np.array(decoded["entropies"], dtype=np.float64),
            step_logprobs=None if logprobs is None else np.array(logprobs, dtype=np.float64),
            tokens=decoded.get("tokens"), correct=decoded["correct"],
            answer=decoded.get("answer"),
        )
    except ValidationError as exc:
        assert exc.field == _VALUE_FAULTS.get(fault), str(exc)
        with pytest.raises(TraceFormatError) as info:
            trajectory_from_record(decoded, line_no)
        got = info.value
        assert (got.line_no, got.field) == (line_no, exc.field)
        assert str(got) == f"line {line_no}, field '{exc.field}': {exc}"
        return
    assert fault is None
    assert record_mismatches(trajectory_from_record(decoded, line_no), want) == []


@pytest.mark.parametrize("field, sign", [("entropies", 1), ("logprobs", -1)])
def test_oversized_integer_names_line_and_field(tmp_path, field, sign):
    big = sign * 10**400
    bad = dict(_VALID, trajectory_index=1, logprobs=[-0.5, -1.0])
    bad[field] = [sign * 0.5, big]
    path = _write_lines(tmp_path, _VALID, bad)
    with pytest.raises(TraceFormatError) as info:
        read_trace_records(path)
    assert str(info.value) == f"line 2, field '{field}': non-finite or non-numeric entry {big!r}"


def test_integer_past_digit_limit_is_a_json_error(tmp_path):
    path = _write_lines(tmp_path, _VALID, '{"prompt_id": ' + "9" * 5000 + "}")
    with pytest.raises(TraceFormatError) as info:
        read_trace_records(path)
    assert (info.value.line_no, info.value.field) == (2, "json")


def test_read_trajectories_hold_float64_arrays(tmp_path):
    path = _write_lines(tmp_path, dict(_VALID, logprobs=[-1.0, 0], tokens=[3, 4]))
    (t,) = read_trace_records(path)
    for arr in (t.step_entropies, t.step_logprobs):
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64 and arr.ndim == 1
    assert ids_match(t.tokens, [3, 4])
    assert t.extras is None and t.ctx_ids is None


def test_record_trajectory_round_trip():
    t = Trajectory(
        prompt_id="p", domain="target", step_entropies=np.array([1.0, 0.25]),
        trajectory_index=3, tokens=[4, 10], step_logprobs=np.array([-0.5, -1.5]),
        correct=1, answer="4", extras={"seed": 11},
    )
    back = trajectory_from_record(trajectory_to_record(t), 1)
    assert record_mismatches(back, t) == []


def test_write_traces_needs_verdict(tmp_path):
    t = Trajectory(prompt_id="p", domain="general", step_entropies=np.array([1.0]))
    path = tmp_path / "traces.jsonl"
    with pytest.raises(ValidationError, match="verdict"):
        write_traces([t], path)
    assert not path.exists()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=5,
)


@st.composite
def drawn_trajectories(draw):
    """A constructible Trajectory; some draws break a writer rule (no
    verdict, an extras key that is a field)."""
    n = draw(st.integers(1, 4))
    reals = st.floats(min_value=0.0, allow_infinity=False, allow_nan=False)
    entropies = draw(st.lists(reals, min_size=n, max_size=n))
    logprobs = draw(st.none() | st.lists(reals.map(lambda v: -v), min_size=n, max_size=n))
    token = st.integers(0, 2**63 - 1)
    extras_key = st.text(max_size=3) | st.sampled_from(["entropies", "correct", "answer"])
    return Trajectory(
        prompt_id=draw(st.text()),
        domain=draw(st.sampled_from(["target", "general"])),
        step_entropies=entropies,
        trajectory_index=draw(st.integers(0, 2**70)),
        tokens=draw(st.none() | st.lists(token, min_size=n, max_size=n)),
        step_logprobs=logprobs,
        correct=draw(st.sampled_from([None, 0, 1])),
        answer=draw(st.none() | st.text()),
        extras=draw(st.none() | st.dictionaries(extras_key, _JSON_VALUES, min_size=1)),
    )


@given(drawn_trajectories())
def test_written_trajectory_reads_back_field_exact_or_is_rejected(t):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "traces.jsonl")
        try:
            write_traces([t], path)
        except ValidationError:
            assert not os.path.exists(path)
            return
        assert trace_mismatches(read_trace_records(path), [t]) == []


def _metrics_rows():
    return [
        MetricsRow(step=0, reward_rate=0.25, eda_rate=0.0,
                   mean_entropy_target=2.5, mean_entropy_general=2.4,
                   mean_ed_distance=0.125),
        MetricsRow(step=10, reward_rate=1.75, eda_rate=0.875),
    ]


def test_metrics_round_trip_exact(tmp_path):
    path = tmp_path / "metrics.jsonl"
    rows = _metrics_rows()
    write_metrics(rows, path)
    assert read_metrics(path) == rows
    lines = path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[1])
    assert "mean_entropy_target" not in obj
    # An unknown key is accepted and ignored: the line reads back as the row.
    lines[1] = json.dumps(obj | {"wallclock": 1.5})
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert read_metrics(path) == rows


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


@pytest.mark.parametrize("rows", [
    [dict(step=-1)],
    [dict(step=True)],
    [dict(step=1.0)],
    [dict(step=5), dict(step=5)],
    [dict(reward_rate=2.5)],
    [dict(reward_rate=True)],
    [dict(eda_rate=False)],
    [dict(eda_rate=-0.1)],
    [dict(reward_rate=None)],
    [dict(mean_entropy_target="1.0")],
    [dict(mean_ed_distance=math.inf)],
    [dict(step=0), dict(step=1, mean_entropy_general=math.nan)],
])
def test_write_metrics_rejects_what_read_metrics_rejects(tmp_path, rows):
    # The writer checks each row, values as given, by the reader's own
    # per-line rules, so it fails with the error reading those values gives.
    rows = [dict(step=0, reward_rate=0.5, eda_rate=0.0) | r for r in rows]
    path = tmp_path / "by_hand.jsonl"
    path.write_text("".join(json.dumps({k: v for k, v in r.items() if v is not None}) + "\n"
                            for r in rows), encoding="utf-8")
    with pytest.raises(TraceFormatError) as read_error:
        read_metrics(path)
    out = tmp_path / "written.jsonl"
    with pytest.raises(TraceFormatError) as write_error:
        write_metrics([MetricsRow(**r) for r in rows], out)
    assert str(write_error.value) == str(read_error.value)
    assert not out.exists()


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


def test_metrics_oversized_integer_rejected(tmp_path):
    big = 10**400
    path = tmp_path / "metrics.jsonl"
    path.write_text(
        json.dumps({"step": 0, "reward_rate": 0.5, "eda_rate": 0.0}) + "\n"
        + json.dumps({"step": 1, "reward_rate": 0.5, "eda_rate": 0.0, "mean_ed_distance": big})
        + "\n",
        encoding="utf-8",
    )
    with pytest.raises(TraceFormatError) as info:
        read_metrics(path)
    assert (info.value.line_no, info.value.field) == (2, "mean_ed_distance")
    assert str(info.value).endswith(f"must be a finite real, got {big!r}")
    with pytest.raises(ValidationError, match="finite real"):
        write_metrics([MetricsRow(step=0, reward_rate=big, eda_rate=0.0)], tmp_path / "out.jsonl")


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
    trajs = [
        Trajectory(prompt_id=f"t{i}", domain="target", trajectory_index=i % 2,
                   step_entropies=rng.uniform(0, 3, rng.integers(2, 9)))
        for i in range(4)
    ]
    path = tmp_path / "heat.csv"
    export_heatmap(trajs, path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    assert header == ["id", "t0/0", "t1/1", "t2/0", "t3/1"]
    matrix = pairwise_distance_matrix([t.step_entropies for t in trajs])
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == trajs[i].trajectory_id
        for j, cell in enumerate(cells[1:]):
            assert cell == "%.9g" % matrix[i, j]
    with pytest.raises(ValidationError):
        export_heatmap([], tmp_path / "empty.csv")
