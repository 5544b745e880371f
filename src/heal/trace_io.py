"""Trace, metrics, and heatmap file formats.

Traces and metrics are JSONL: one JSON object per line, reals encoded with
Python's shortest round-trip float representation so that write then load
reproduces every value bit-exactly. Unknown JSON keys are preserved across
a round-trip but carry no meaning. Heatmaps are CSV because they are dense
rectangular numeric data.

Validation failures name the 1-based line number and the offending field.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import pairwise_distance_matrix
from .errors import TraceFormatError, ValidationError
from .rollouts import DOMAINS, RolloutGroup, Trajectory

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
_METRICS_FIELDS = ("step",) + tuple(rule[0] for rule in _METRICS_REALS)
_METRICS_REQUIRED = tuple(rule[0] for rule in _METRICS_REALS if rule[3])
# Writer and reader check the required fields first, then the rest in file order.
_METRICS_CHECKS = sorted(_METRICS_REALS, key=lambda rule: not rule[3])


@dataclass
class TraceRecord:
    """One trajectory as stored on disk; ``extras`` holds unknown keys.

    Records read from a file hold ``entropies`` and ``logprobs`` as validated
    1-d float64 arrays; the writer takes any sequence of reals there.
    """

    prompt_id: str
    domain: str
    trajectory_index: int
    entropies: np.ndarray
    correct: int
    tokens: Optional[list[int]] = None
    logprobs: Optional[np.ndarray] = None
    answer: Optional[str] = None
    extras: dict = field(default_factory=dict)


@dataclass
class MetricsRow:
    """One logged training step; optional fields are omitted when absent."""

    step: int
    reward_rate: float
    eda_rate: float
    mean_entropy_target: Optional[float] = None
    mean_entropy_general: Optional[float] = None
    mean_ed_distance: Optional[float] = None
    extras: dict = field(default_factory=dict)


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

    Lists of plain floats and ints, the whole of a real trace, are converted
    and checked as one array; anything else is checked entry by entry, so
    the error names the first offending entry.
    """
    raw = _want(obj, line_no, key, list, required=required)
    if raw is None:
        return None
    if set(map(type, raw)) <= {float, int}:
        try:
            arr = np.array(raw, dtype=np.float64)
        except OverflowError:
            pass  # an integer too large for a float64: the loop names it
        else:
            if np.isfinite(arr).all():
                return arr
    for v in raw:
        if not _finite_real(v):
            raise TraceFormatError(line_no, key, f"non-finite or non-numeric entry {v!r}")
    return np.array([float(v) for v in raw], dtype=np.float64)


def _token_list(obj: dict, line_no: int):
    """The ``tokens`` list as given (any integers >= 0), or None when absent."""
    raw = _want(obj, line_no, "tokens", list)
    if raw is None or (set(map(type, raw)) <= {int} and min(raw, default=0) >= 0):
        return raw
    for v in raw:
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise TraceFormatError(line_no, "tokens", f"bad token {v!r}")
    return raw


def trace_record_from_obj(obj: dict, line_no: int) -> TraceRecord:
    """Validate one parsed JSON object against the trace schema."""
    if not isinstance(obj, dict):
        raise TraceFormatError(line_no, "json", "line is not a JSON object")
    prompt_id = _want(obj, line_no, "prompt_id", str, required=True)
    domain = _want(obj, line_no, "domain", str, required=True)
    if domain not in DOMAINS:
        raise TraceFormatError(line_no, "domain", f"must be one of {DOMAINS}, got {domain!r}")
    index = _want(obj, line_no, "trajectory_index", int, required=True)
    if index < 0:
        raise TraceFormatError(line_no, "trajectory_index", f"must be >= 0, got {index}")
    entropies = _real_array(obj, line_no, "entropies", required=True)
    if entropies.size == 0:
        raise TraceFormatError(line_no, "entropies", "must be non-empty")
    if (entropies < 0).any():
        raise TraceFormatError(line_no, "entropies", "entries must be >= 0")
    logprobs = _real_array(obj, line_no, "logprobs")
    if logprobs is not None:
        if logprobs.size != entropies.size:
            raise TraceFormatError(
                line_no,
                "logprobs",
                f"length {logprobs.size} != entropies length {entropies.size}",
            )
        if (logprobs > 0).any():
            raise TraceFormatError(line_no, "logprobs", "entries must be <= 0")
    tokens = _token_list(obj, line_no)
    if tokens is not None and len(tokens) != entropies.size:
        raise TraceFormatError(
            line_no, "tokens", f"length {len(tokens)} != entropies length {entropies.size}"
        )
    correct = _want(obj, line_no, "correct", int, required=True)
    if correct not in (0, 1):
        raise TraceFormatError(line_no, "correct", f"must be 0 or 1, got {correct}")
    answer = _want(obj, line_no, "answer", str)
    extras = {k: v for k, v in obj.items() if k not in _TRACE_FIELDS}
    return TraceRecord(
        prompt_id=prompt_id,
        domain=domain,
        trajectory_index=index,
        entropies=entropies,
        correct=correct,
        tokens=tokens,
        logprobs=logprobs,
        answer=answer,
        extras=extras,
    )


def trace_record_to_obj(record: TraceRecord) -> dict:
    obj = {
        "prompt_id": record.prompt_id,
        "domain": record.domain,
        "trajectory_index": record.trajectory_index,
    }
    if record.tokens is not None:
        obj["tokens"] = list(record.tokens)
    obj["entropies"] = np.asarray(record.entropies, dtype=np.float64).tolist()
    if record.logprobs is not None:
        obj["logprobs"] = np.asarray(record.logprobs, dtype=np.float64).tolist()
    obj["correct"] = record.correct
    if record.answer is not None:
        obj["answer"] = record.answer
    obj.update(record.extras)
    return obj


def _json_lines(path):
    """(1-based line number, parsed value) for each non-blank line of a file.

    Bytes that are not UTF-8 decode to lone surrogates, so the error names
    the line that holds them rather than failing inside the decoder.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise TraceFormatError(
                        line_no, "json", f"not UTF-8: byte 0x{byte:02x} at column {exc.start + 1}"
                    ) from None
            try:
                obj = json.loads(line)
            except ValueError as exc:
                # A JSONDecodeError, or an integer longer than Python's
                # int-from-string digit limit.
                raise TraceFormatError(line_no, "json", str(exc)) from None
            yield line_no, obj


def read_trace_records(path) -> list[TraceRecord]:
    """Parse and validate a JSONL trace file into flat records, in file order.

    Every command reads traces through here, under one rule set: each line
    must satisfy the schema, each (prompt_id, trajectory_index) pair may
    appear once, and all records of a prompt must carry one domain tag. The
    error names the first offending line.
    """
    records = []
    domains: dict[str, str] = {}
    seen: set[tuple[str, int]] = set()
    for line_no, obj in _json_lines(path):
        record = trace_record_from_obj(obj, line_no)
        key = (record.prompt_id, record.trajectory_index)
        if key in seen:
            raise TraceFormatError(
                line_no,
                "trajectory_index",
                f"prompt {record.prompt_id!r} repeats trajectory_index "
                f"{record.trajectory_index}",
            )
        seen.add(key)
        domain = domains.setdefault(record.prompt_id, record.domain)
        if domain != record.domain:
            raise TraceFormatError(
                line_no,
                "domain",
                f"prompt {record.prompt_id!r} mixes domains "
                f"{domain!r} and {record.domain!r}",
            )
        records.append(record)
    return records


def write_traces(records: list[TraceRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(trace_record_to_obj(record)) + "\n")


def trajectory_from_record(record: TraceRecord) -> Trajectory:
    return Trajectory(
        prompt_id=record.prompt_id,
        domain=record.domain,
        step_entropies=record.entropies,
        trajectory_index=record.trajectory_index,
        tokens=record.tokens,
        step_logprobs=record.logprobs,
        correct=record.correct,
        answer=record.answer,
    )


def record_from_trajectory(t: Trajectory) -> TraceRecord:
    if t.correct is None:
        raise ValidationError(f"trajectory {t.trajectory_id} has no correctness verdict")
    return TraceRecord(
        prompt_id=t.prompt_id,
        domain=t.domain,
        trajectory_index=t.trajectory_index,
        entropies=t.step_entropies,
        correct=int(t.correct),
        tokens=list(t.tokens) if t.tokens is not None else None,
        logprobs=t.step_logprobs,
        answer=t.answer,
    )


def load_traces(path) -> list[RolloutGroup]:
    """Read a trace file and group its records by prompt_id, in file order."""
    by_prompt: dict[str, list[TraceRecord]] = {}
    for record in read_trace_records(path):
        by_prompt.setdefault(record.prompt_id, []).append(record)
    return [
        RolloutGroup(
            prompt_id=pid,
            domain=group[0].domain,
            trajectories=[trajectory_from_record(r) for r in group],
        )
        for pid, group in by_prompt.items()
    ]


def _validate_metrics_row(row: MetricsRow, prev_step: Optional[int]) -> None:
    if isinstance(row.step, bool) or not isinstance(row.step, int) or row.step < 0:
        raise ValidationError(f"metrics step must be a non-negative integer, got {row.step!r}")
    if prev_step is not None and row.step <= prev_step:
        raise ValidationError(
            f"metrics steps must strictly increase ({prev_step} then {row.step})"
        )
    for name, lo, hi, _ in _METRICS_CHECKS:
        value = getattr(row, name)
        if value is None:
            continue
        if not _finite_real(value):
            raise ValidationError(f"metrics step {row.step}: {name} must be a finite real")
        if not lo <= float(value) <= hi:
            raise ValidationError(f"metrics step {row.step}: {name}={value} outside [{lo}, {hi}]")
    if any(getattr(row, name) is None for name in _METRICS_REQUIRED):
        raise ValidationError(
            f"metrics step {row.step}: {' and '.join(_METRICS_REQUIRED)} are required"
        )


def metrics_row_to_obj(row: MetricsRow) -> dict:
    """A validated row as its JSON object: fields in file order, absent ones omitted."""
    obj: dict = {"step": row.step}
    for name, *_ in _METRICS_REALS:
        value = getattr(row, name)
        if value is not None:
            obj[name] = float(value)
    obj.update(row.extras)
    return obj


def write_metrics(rows: list[MetricsRow], path) -> None:
    prev = None
    for row in rows:
        _validate_metrics_row(row, prev)
        prev = row.step
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(metrics_row_to_obj(row)) + "\n")


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


def read_metrics(path) -> list[MetricsRow]:
    rows = []
    prev = None
    for line_no, obj in _json_lines(path):
        if not isinstance(obj, dict):
            raise TraceFormatError(line_no, "json", "line is not a JSON object")
        step = _want(obj, line_no, "step", int, required=True)
        if step < 0:
            raise TraceFormatError(line_no, "step", f"must be >= 0, got {step}")
        if prev is not None and step <= prev:
            raise TraceFormatError(
                line_no, "step", f"steps must strictly increase ({prev} then {step})"
            )
        prev = step
        reals = {rule[0]: _metrics_real(obj, line_no, *rule) for rule in _METRICS_CHECKS}
        rows.append(MetricsRow(
            step=step, **reals,
            extras={k: v for k, v in obj.items() if k not in _METRICS_FIELDS},
        ))
    return rows


def export_heatmap(trajectories: list[Trajectory], path) -> None:
    """Pairwise distance CSV: header row/column of ids, 9 significant digits.

    Rows are labelled by ``trajectory_id``. Cell (i, j) holds
    -sim_kl(tau_i, tau_j) of the step-entropy curves, exactly the pairwise
    distance matrix entries (one ``kl_similarity_matrix`` call), row-major.
    """
    matrix = pairwise_distance_matrix([t.step_entropies for t in trajectories])
    ids = [t.trajectory_id for t in trajectories]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + ids)
        for i, row_id in enumerate(ids):
            writer.writerow([row_id] + ["%.9g" % v for v in matrix[i]])
