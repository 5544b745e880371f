"""The trace reader decodes lines with orjson but must read every file exactly
as a reader that decodes each line with ``json.loads``: the same
trajectories, bit for bit, or the same error message.

The lines are drawn as JSON text, so they hold what ``json.dumps`` of a
Python value cannot: arbitrary decimal literals, integers past the int64 and
uint64 edges, ``NaN``/``Infinity``, lone-surrogate escapes, duplicate keys
and nesting near both decoders' depth limits.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import heal
import heal.trace_io as trace_io
from heal.errors import ValidationError
from heal.trace_io import _ORJSON_MAX_OPENERS, _few_openers, read_trace_records

from trace_oracle import oracle_read_trace_records, trace_mismatches

_INT_EDGES = [
    0, 1, 2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1,
    -1, -(2**63), -(2**63) - 1, -(2**64), 10**30, 10**400,
]
_INT = st.one_of(st.sampled_from(_INT_EDGES), st.integers(-(2**70), 2**70)).map(str)
_DECIMAL = st.from_regex(r"(0|[1-9][0-9]{0,19})(\.[0-9]{1,40})?([eE][+-]?[0-9]{1,3})?",
                         fullmatch=True)
# A number's magnitude: shortest-repr floats (json.dumps spells the
# non-finite ones NaN and Infinity), arbitrary decimals and integer literals.
_MAGNITUDE = st.one_of(
    st.floats(min_value=0.0).map(json.dumps), _DECIMAL, _INT.map(lambda s: s.lstrip("-")),
)
_STRING = st.one_of(
    st.text(max_size=4).map(json.dumps),
    st.sampled_from(['"\\ud800"', '"a\\udfff"', '"\\ud83d\\ude00"', '"\\u0000"']),
)
# Nesting depths on both sides of json's recursion limit (about 1000 frames,
# less the caller's) and of the reader's bound of 1000 openers per orjson line.
_DEPTH = st.sampled_from([1, 2, 500, 900, 950, 980, 1000, 1010, 1023, 1024, 1025, 1100])


@st.composite
def _nested(draw):
    depth = draw(_DEPTH)
    inner = draw(st.sampled_from(["", "1", str(2**64), "NaN"]))
    if draw(st.booleans()):
        return "[" * depth + inner + "]" * depth
    return '{"k":' * depth + (inner or "0") + "}" * depth


_SCALAR = st.one_of(
    _INT, _MAGNITUDE, _MAGNITUDE.map(lambda s: "-" + s), _STRING,
    st.sampled_from(["true", "false", "null", "NaN", "Infinity", "-Infinity"]),
)
_EXTRA_VALUE = st.one_of(_SCALAR, _nested(), st.lists(_SCALAR, max_size=3).map(
    lambda items: "[" + ",".join(items) + "]"))
_NOT_AN_OBJECT = st.sampled_from(
    ["[1, 2]", "1", str(2**64), "null", '"x"', "NaN", "[]", "{", '{"a": 1} {}', "{'a': 1}"]
)


def _int_field(draw, valid):
    """An integer literal: ``valid`` three times in four, else an edge value."""
    return draw(_INT) if draw(st.integers(0, 3)) == 0 else str(valid)


@st.composite
def trace_line(draw, index):
    """One trace line as text: a record whose numbers, strings and unknown
    keys are drawn at and past both decoders' edges, or a non-object."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(_NOT_AN_OBJECT, _nested()))
    n = draw(st.integers(1, 3))
    pairs = [
        ("prompt_id", draw(st.one_of(st.just('"p"'), _STRING))),
        ("domain", '"target"'),
        ("trajectory_index", _int_field(draw, index)),
        ("entropies", "[" + ",".join(draw(st.lists(_MAGNITUDE, min_size=n, max_size=n))) + "]"),
        ("correct", _int_field(draw, 1)),
    ]
    if draw(st.booleans()):
        magnitudes = draw(st.lists(_MAGNITUDE, min_size=n, max_size=n))
        pairs.append(("logprobs", "[" + ",".join("-" + m for m in magnitudes) + "]"))
    if draw(st.booleans()):
        tokens = [_int_field(draw, 7) for _ in range(n)]
        pairs.append(("tokens", "[" + ",".join(tokens) + "]"))
    for key in draw(st.lists(st.sampled_from(["note", "seed", "meta", "x\\ud800"]), max_size=3)):
        pairs.append((key, draw(_EXTRA_VALUE)))
    if draw(st.booleans()):
        key, _ = draw(st.sampled_from(pairs))
        pairs.append((key, draw(st.one_of(_SCALAR, st.sampled_from(["[0.5]", "[2.5, 1]"])))))
    order = draw(st.permutations(range(len(pairs))))
    return "{" + ", ".join(f'"{pairs[i][0]}": {pairs[i][1]}' for i in order) + "}"


@st.composite
def trace_text(draw):
    return "".join(draw(trace_line(index)) + "\n" for index in range(draw(st.integers(1, 3))))


def _outcome(reader, path):
    """(trajectories, None) or (None, (error type, message))."""
    try:
        return reader(path), None
    except ValidationError as exc:
        return None, (type(exc), str(exc))


_LINE = '{"prompt_id": "p", "domain": "target", "trajectory_index": 0, "correct": 1, '


@settings(max_examples=300)
@given(trace_text())
@example(_LINE + '"entropies": [NaN]}\n')
@example(_LINE + '"entropies": [Infinity, 1]}\n')
@example(_LINE + '"entropies": [1e400]}\n')
@example(_LINE + '"entropies": [18446744073709551616], "tokens": [18446744073709551616]}\n')
@example(_LINE + '"entropies": [1.5], "tokens": [9223372036854775808]}\n')
# Integers halfway between two float64s: orjson's float must round to even as
# numpy's float64 of json's int does.
@example(_LINE + f'"entropies": [{2**64 + 2**11}, {2**64 + 3 * 2**11}]}}\n')
@example(_LINE + f'"entropies": [1.5, 2.5], "logprobs": [{-(2**63) - 2**9}, {-(2**63) - 3 * 2**9}]}}\n')
@example(_LINE.replace("0", "18446744073709551616", 1) + '"entropies": [1.5]}\n')
@example(_LINE + '"entropies": [1.5], "seed": 18446744073709551616}\n')
@example(_LINE + '"entropies": [1.5], "seed": -9223372036854775809}\n')
@example(_LINE + '"entropies": [1.5], "seed": [18446744073709551616]}\n')
@example(_LINE + '"entropies": [1.5], "note": "\\ud800"}\n')
@example(_LINE + '"entropies": [1.5], "seed": NaN}\n')
@example(_LINE + '"entropies": [1.5], "deep": ' + "[" * 1010 + "]" * 1010 + "}\n")
@example(_LINE + '"entropies": [1.5], "entropies": [2.5], "note": 1, "note": 2}\n')
@example("[" * 1010 + "]" * 1010 + "\n")
# Bools next to the numbers they convert to, and strings, in every channel:
# the array conversion accepts a bool as 0 or 1 and must not let one through.
@example(_LINE + '"entropies": [0, true]}\n')
@example(_LINE + '"entropies": [1.0, false, -0.0]}\n')
@example(_LINE + '"entropies": [true]}\n')
@example(_LINE + '"entropies": [1, "1.5"]}\n')
@example(_LINE + '"entropies": [0.5, 1], "logprobs": [-0.0, false]}\n')
@example(_LINE + '"entropies": [0.5, 1], "logprobs": [0, true]}\n')
@example(_LINE + '"entropies": [0.5, 1], "logprobs": [-1.0, "1.5"]}\n')
@example(_LINE + '"entropies": [0.5, 1], "tokens": [0, true]}\n')
@example(_LINE + '"entropies": [0.5, 1], "tokens": [false, 1]}\n')
@example(_LINE + '"entropies": [0.5, 1], "tokens": [1.0, 1]}\n')
@example(_LINE + '"entropies": [0.5, 1], "tokens": [1, "1.5"]}\n')
def test_reader_matches_json_loads_reader(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "traces.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        got, got_error = _outcome(read_trace_records, path)
        want, want_error = _outcome(oracle_read_trace_records, path)
    assert got_error == want_error
    if want is not None:
        assert trace_mismatches(got, want) == []


def _opener_count(line):
    return line.count("[") + line.count("{")


@st.composite
def _opener_text(draw):
    """Text with about the bound's number of openers, split between ``[`` and
    ``{`` and shuffled among closers, quotes and letters."""
    n = draw(st.one_of(st.integers(0, 1100), st.integers(995, 1005)))
    squares = draw(st.integers(0, n))
    parts = ["["] * squares + ["{"] * (n - squares)
    parts += draw(st.lists(st.sampled_from(["]", "}", '"', "a", " ", "\\["]), max_size=50))
    random.Random(draw(st.integers(0, 2**32))).shuffle(parts)
    return "".join(parts)


@given(st.one_of(_opener_text(), st.text(alphabet="[{]}a", max_size=30)))
@example("[" * 999)
@example("{" * 999 + "[")
@example("[" * 1000)
@example("[" * 500 + "{" * 500)
@example("[{" * 500)
@example("[" * 1001)
@example("{" * 501 + "[" * 500)
@example("{[" * 500 + "{")
# Openers inside string values count as well.
@example('{"answer": "' + "[" * 999 + '"}')
@example('{"answer": "' + "[" * 1001 + '"}')
@example('{"answer": "' + "{" * 500 + "[" * 500 + '"}')
def test_bounded_opener_scan_equals_the_count(text):
    assert _few_openers(text) == (_opener_count(text) <= _ORJSON_MAX_OPENERS)


def test_line_with_openers_past_the_bound_reads_through_json(tmp_path, monkeypatch):
    line = _LINE + '"entropies": [1.5, 0.25], "answer": "' + "[" * 1001 + '"}'
    assert _opener_count(line) == 1003
    path = tmp_path / "traces.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    want = oracle_read_trace_records(path)
    decoded = []

    def json_value(line_no, text):
        decoded.append(line_no)
        return json.loads(text)

    monkeypatch.setattr(trace_io, "_json_value", json_value)
    got = read_trace_records(path)
    assert decoded == [1]
    assert trace_mismatches(got, want) == []
    assert got[0].answer == "[" * 1001


def test_line_nested_a_million_deep_is_the_json_error(tmp_path):
    # orjson would overflow the C stack on this line, so the reader runs in a
    # child process: a crash fails this test instead of the whole run.
    path = tmp_path / "deep.jsonl"
    path.write_text(_LINE + '"entropies": [1.5]}\n' + "[" * 10**6 + "]" * 10**6 + "\n",
                    encoding="utf-8")
    _, want = _outcome(oracle_read_trace_records, path)
    assert want[1].startswith("line 2, field 'json': maximum recursion depth exceeded")
    code = ("import sys\n"
            "from heal.errors import TraceFormatError\n"
            "from heal.trace_io import read_trace_records\n"
            "try:\n"
            "    read_trace_records(sys.argv[1])\n"
            "except TraceFormatError as exc:\n"
            "    print(exc)\n")
    src = str(Path(heal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code, str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == want[1]
