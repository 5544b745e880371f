"""Trace, metrics, and heatmap file formats.

Traces and metrics are JSONL: one JSON object per line, reals encoded with
Python's shortest round-trip float representation so that write then load
reproduces every value bit-exactly. Every line reads as ``json.loads``
decodes it: trace lines are decoded by orjson, and again by ``json`` wherever
the two could differ. A trace line is read into a ``Trajectory`` and
written from one, under the same rules both ways. Unknown
JSON keys carry no meaning: a trace line's are preserved across a round-trip
(``Trajectory.extras``), a metrics line's are accepted and ignored. Heatmaps
are CSV because they are dense rectangular numeric data.

Validation failures name the 1-based line number and the offending field.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import pairwise_distance_matrix
from .errors import TraceFormatError, ValidationError
from .rollouts import RolloutGroup, Trajectory, _decoded_array, verdict

_TRACE_FIELDS = (
    "prompt_id",
    "domain",
    "trajectory_index",
    "tokens",
    "entropies",
    "logprobs",
    "correct",
    "answer",
)

# The real-valued metrics fields in file order: (name, lo, hi, required).
_METRICS_REALS = (
    ("mean_entropy_target", 0.0, math.inf, False),
    ("mean_entropy_general", 0.0, math.inf, False),
    ("reward_rate", 0.0, 2.0, True),
    ("eda_rate", 0.0, 1.0, True),
    ("mean_ed_distance", 0.0, math.inf, False),
)
# A metrics line's keys in file order, and the columns of ``heal curves``.
_METRICS_FIELDS = ("step",) + tuple(rule[0] for rule in _METRICS_REALS)
# The required fields are checked first, then the rest in file order.
_METRICS_CHECKS = sorted(_METRICS_REALS, key=lambda rule: not rule[3])


@dataclass
class MetricsRow:
    """One logged training step; optional fields are omitted when absent."""

    step: int
    reward_rate: float
    eda_rate: float
    mean_entropy_target: Optional[float] = None
    mean_entropy_general: Optional[float] = None
    mean_ed_distance: Optional[float] = None


def _want(obj: dict, line_no: int, key: str, kinds, required: bool = False):
    if key not in obj:
        if required:
            raise TraceFormatError(line_no, key, "missing required field")
        return None
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TraceFormatError(line_no, key, f"expected {kinds}, got {type(value).__name__}")
    return value


def _finite_real(value) -> bool:
    """The one real-number rule of trace and metrics files: an int or float,
    not a bool, whose float64 value is finite. An integer too large for a
    float64 fails it instead of raising OverflowError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _real_array(obj: dict, line_no: int, key: str, required: bool = False):
    """A JSON number list as a finite float64 array, or None when absent.

    The list is converted and checked as one array by ``_decoded_array``;
    where that refuses it, the entries are checked one by one, so the error
    names the first offending entry.
    """
    raw = _want(obj, line_no, key, list, required=required)
    if raw is None:
        return None
    arr = _decoded_array(raw, "d")
    if arr is not None and np.isfinite(arr).all():
        return arr
    for v in raw:
        if not _finite_real(v):
            raise TraceFormatError(line_no, key, f"non-finite or non-numeric entry {v!r}")
    return np.array([float(v) for v in raw], dtype=np.float64)


def trajectory_from_record(obj: dict, line_no: int) -> Trajectory:
    """One parsed JSON object of a trace line as a Trajectory; unknown keys
    become ``extras``. Here each field's presence and JSON kind are checked,
    in file order; its values are checked by the ``Trajectory`` constructor,
    whose refusal is raised with this line's number and the rule's field."""
    if not isinstance(obj, dict):
        raise TraceFormatError(line_no, "json", "line is not a JSON object")
    # Decoded outside the try below: a TraceFormatError is a ValidationError.
    fields = dict(
        prompt_id=_want(obj, line_no, "prompt_id", str, required=True),
        domain=_want(obj, line_no, "domain", str, required=True),
        trajectory_index=_want(obj, line_no, "trajectory_index", int, required=True),
        step_entropies=_real_array(obj, line_no, "entropies", required=True),
        step_logprobs=_real_array(obj, line_no, "logprobs"),
        tokens=_want(obj, line_no, "tokens", list),
        correct=_want(obj, line_no, "correct", int, required=True),
        answer=_want(obj, line_no, "answer", str),
    )
    extras = {k: v for k, v in obj.items() if k not in _TRACE_FIELDS}
    try:
        return Trajectory(**fields, extras=extras or None)
    except ValidationError as exc:
        raise TraceFormatError(line_no, exc.field, str(exc)) from None


def trajectory_to_record(t: Trajectory) -> dict:
    """A trajectory's trace line as a JSON object, without ``ctx_ids``; it needs a
    verdict, and an ``extras`` key may not be a schema field."""
    correct = verdict(t)
    extras = t.extras or {}
    for key in _TRACE_FIELDS:
        if key in extras:
            raise ValidationError(
                f"trajectory {t.trajectory_id}: extras key {key!r} is a trace field"
            )
    obj = {
        "prompt_id": t.prompt_id,
        "domain": t.domain,
        "trajectory_index": t.trajectory_index,
    }
    if t.tokens is not None:
        obj["tokens"] = t.tokens.tolist()
    obj["entropies"] = t.step_entropies.tolist()
    if t.step_logprobs is not None:
        obj["logprobs"] = t.step_logprobs.tolist()
    obj["correct"] = correct
    if t.answer is not None:
        obj["answer"] = t.answer
    obj.update(extras)
    return obj


def _text_lines(path):
    """(1-based line number, text) for each non-blank line of a file.

    Bytes that are not UTF-8 decode to lone surrogates, so the error names
    the line that holds them rather than failing inside the decoder.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise TraceFormatError(
                        line_no, "json", f"not UTF-8: byte 0x{byte:02x} at column {exc.start + 1}"
                    ) from None
            yield line_no, line


def _json_value(line_no: int, line: str):
    """One line decoded by Python's ``json`` module: the decoding every file
    format here is defined by."""
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as exc:
        # A JSONDecodeError, an integer longer than Python's
        # int-from-string digit limit, or values nested deeper than
        # the decoder's recursion limit.
        raise TraceFormatError(line_no, "json", str(exc)) from None


def _json_lines(path):
    """(1-based line number, parsed value) for each non-blank line of a file."""
    for line_no, line in _text_lines(path):
        yield line_no, _json_value(line_no, line)


# orjson has no nesting limit: a line nested about a million deep overflows
# the C stack and kills the process. A line with no more openers than this
# nests no deeper than json's recursion limit, and only such lines reach it.
_ORJSON_MAX_OPENERS = 1000
_TRACE_FIELD_SET = frozenset(_TRACE_FIELDS)


def _few_openers(line: str) -> bool:
    """``line.count("[") + line.count("{") <= _ORJSON_MAX_OPENERS``, found by
    ``str.find`` steps that stop at the first opener past the bound."""
    left = _ORJSON_MAX_OPENERS
    for opener in "[{":
        i = line.find(opener)
        while i >= 0:
            if not left:
                return False
            left -= 1
            i = line.find(opener, i + 1)
    return True


def _trace_lines(path):
    """(1-based line number, trajectory) for each non-blank line of a trace file.

    A line is decoded by orjson, several times faster than ``json.loads``,
    and decoded again by ``json.loads`` wherever the two could differ, so
    every result and error message is that of ``json``. orjson refuses
    ``NaN``/``Infinity``, lone surrogates and numbers past +-1.8e308, reads
    integers outside [-2**63, 2**64) as floats, and accepts nesting past
    json's recursion limit. So only a line with at most
    ``_ORJSON_MAX_OPENERS`` openers, that orjson decodes to an object of
    trace fields alone, and whose record passes every check keeps orjson's
    result. A big integer in an integer field fails its type check, and in
    ``tokens`` the token rule. In ``entropies`` and ``logprobs`` it passes as
    orjson's float, which equals the float64 that json's int converts to
    because both round to nearest, ties to even.
    """
    import orjson  # imported on first read, off every command's start-up path

    for line_no, line in _text_lines(path):
        t = None
        if _few_openers(line):
            try:
                obj = orjson.loads(line)
            except orjson.JSONDecodeError:
                obj = None
            if type(obj) is dict and _TRACE_FIELD_SET.issuperset(obj):
                try:
                    t = trajectory_from_record(obj, line_no)
                except TraceFormatError:
                    pass
        if t is None:
            t = trajectory_from_record(_json_value(line_no, line), line_no)
        yield line_no, t


def _checked_trajectories(lines, path) -> list[Trajectory]:
    """(1-based line number, trajectory) pairs of the file ``path`` as a list,
    checked by the file rules of ``read_trace_records``."""
    trajectories = []
    domains: dict[str, str] = {}
    seen: set[tuple[str, int]] = set()
    for line_no, t in lines:
        key = (t.prompt_id, t.trajectory_index)
        if key in seen:
            raise TraceFormatError(
                line_no,
                "trajectory_index",
                f"prompt {t.prompt_id!r} repeats trajectory_index "
                f"{t.trajectory_index}",
            )
        seen.add(key)
        domain = domains.setdefault(t.prompt_id, t.domain)
        if domain != t.domain:
            raise TraceFormatError(
                line_no,
                "domain",
                f"prompt {t.prompt_id!r} mixes domains "
                f"{domain!r} and {t.domain!r}",
            )
        trajectories.append(t)
    if not trajectories:
        raise ValidationError(f"{path}: trace file holds no records")
    return trajectories


def read_trace_records(path) -> list[Trajectory]:
    """Parse and validate a JSONL trace file into trajectories, in file order.

    Every command reads traces through here, under one rule set: each line
    must satisfy the schema, each (prompt_id, trajectory_index) pair may
    appear once, all records of a prompt must carry one domain tag, and the
    file holds at least one record. The error names the first offending
    line, or the file when it holds no record.
    """
    return _checked_trajectories(_trace_lines(path), path)


def write_traces(trajectories: list[Trajectory], path) -> None:
    """One trace line per trajectory, each the ``json.dumps`` text of its
    record. Before ``path`` is opened, every line is decoded again and checked
    by the reader's own rules: a batch that ``read_trace_records`` would
    reject, or that JSON cannot encode, raises ValidationError and writes
    nothing."""
    lines = []

    def decoded():
        for line_no, t in enumerate(trajectories, start=1):
            obj = trajectory_to_record(t)
            try:
                line = json.dumps(obj)
            except (TypeError, ValueError, RecursionError) as exc:
                # Only ``extras`` can hold such a value: a numpy scalar, or a
                # circular or too deeply nested container.
                raise ValidationError(
                    f"trajectory {t.trajectory_id}: cannot encode as JSON: {exc}"
                ) from None
            lines.append(line + "\n")
            yield line_no, trajectory_from_record(_json_value(line_no, line), line_no)

    _checked_trajectories(decoded(), path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def load_traces(path) -> list[RolloutGroup]:
    """Read a trace file and group its trajectories by prompt_id, in file order."""
    by_prompt: dict[str, list[Trajectory]] = {}
    for t in read_trace_records(path):
        by_prompt.setdefault(t.prompt_id, []).append(t)
    return [
        RolloutGroup(prompt_id=pid, domain=group[0].domain, trajectories=group)
        for pid, group in by_prompt.items()
    ]


def metrics_row_to_obj(row: MetricsRow) -> dict:
    """A row as its JSON object, values as given: fields in file order, an
    absent (None) real omitted; ``step`` is always written."""
    values = ((name, getattr(row, name)) for name in _METRICS_FIELDS)
    return {name: v for name, v in values if v is not None or name == "step"}


def write_metrics(rows: list[MetricsRow], path) -> None:
    """One JSON line per row, checked by the reader's rules first: rows that
    ``read_metrics`` would reject raise ValidationError and write nothing."""
    prev = None
    lines = []
    for line_no, row in enumerate(rows, start=1):
        # The values as given are checked, so a bool fails before float()
        # could make it 0.0 or 1.0; the checked row holds the floats.
        row = _metrics_row_from_record(metrics_row_to_obj(row), line_no, prev)
        prev = row.step
        lines.append(json.dumps(metrics_row_to_obj(row)) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _metrics_real(obj: dict, line_no: int, key: str, lo: float, hi: float, required: bool):
    if key not in obj:
        if required:
            raise TraceFormatError(line_no, key, "missing required field")
        return None
    value = obj[key]
    if not _finite_real(value):
        raise TraceFormatError(line_no, key, f"must be a finite real, got {value!r}")
    if not lo <= float(value) <= hi:
        raise TraceFormatError(line_no, key, f"{value} outside [{lo}, {hi}]")
    return float(value)


def _metrics_row_from_record(obj, line_no: int, prev_step: Optional[int]) -> MetricsRow:
    """Validate one parsed JSON object against the metrics schema, after a line
    whose step was ``prev_step`` (None on the first line); unknown keys are
    ignored."""
    if not isinstance(obj, dict):
        raise TraceFormatError(line_no, "json", "line is not a JSON object")
    step = _want(obj, line_no, "step", int, required=True)
    if step < 0:
        raise TraceFormatError(line_no, "step", f"must be >= 0, got {step}")
    if prev_step is not None and step <= prev_step:
        raise TraceFormatError(
            line_no, "step", f"steps must strictly increase ({prev_step} then {step})"
        )
    reals = {rule[0]: _metrics_real(obj, line_no, *rule) for rule in _METRICS_CHECKS}
    return MetricsRow(step=step, **reals)


def read_metrics(path) -> list[MetricsRow]:
    rows = []
    prev = None
    for line_no, obj in _json_lines(path):
        rows.append(_metrics_row_from_record(obj, line_no, prev))
        prev = rows[-1].step
    return rows


def export_heatmap(trajectories: list[Trajectory], path) -> None:
    """Pairwise distance CSV: header row/column of ids, 9 significant digits.

    Rows are labelled by ``trajectory_id``. Cell (i, j) holds
    -sim_kl(tau_i, tau_j) of the step-entropy curves, exactly the pairwise
    distance matrix entries (one ``kl_similarity_matrix`` call), row-major.
    A distance that is not finite (an infinite KL divergence when a softmax
    weight underflows) raises ValidationError, naming its row and column,
    before ``path`` is opened.
    """
    matrix = pairwise_distance_matrix([t.step_entropies for t in trajectories])
    ids = [t.trajectory_id for t in trajectories]
    bad = ~np.isfinite(matrix)
    if bad.any():
        i, j = divmod(int(bad.argmax()), len(ids))
        raise ValidationError(
            f"heatmap row {ids[i]}, column {ids[j]}: distance is {float(matrix[i, j])}, "
            "not finite"
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + ids)
        for i, row_id in enumerate(ids):
            writer.writerow([row_id] + ["%.9g" % v for v in matrix[i]])
