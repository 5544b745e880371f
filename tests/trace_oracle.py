"""Reference trace-channel validation, and a bit-exact trajectory comparison.

``oracle_channels`` is the per-entry reader: it checks ``entropies``,
``logprobs`` and ``tokens`` one value at a time, in the order and with the
messages of ``heal.trace_io`` (JSON kinds and entries) and of the
``Trajectory`` constructor (values). The reader's array path is checked
against it. The one rule the array path adds is that an integer too large
for a float64 is rejected like a non-finite entry; here that is the caught
``OverflowError``.

``record_mismatches`` compares a trajectory read from a file with the one
that was written, field by field, and the float channels by dtype and bit
pattern, so a sign flip of ``-0.0`` counts as a change.

``oracle_read_trace_records`` is the reader with every line decoded by
``json.loads``, the decoding the trace format is defined by; the reader's
orjson fast path is checked against it.
"""

import dataclasses
import math
import struct

import numpy as np

from heal.errors import TraceFormatError
from heal.rollouts import Trajectory
from heal.trace_io import _checked_trajectories, _json_lines, trajectory_from_record


def oracle_read_trace_records(path):
    """``read_trace_records`` as it reads with ``json.loads`` alone."""
    return _checked_trajectories(
        ((line_no, trajectory_from_record(obj, line_no)) for line_no, obj in _json_lines(path)),
        path,
    )


def _is_finite_real(v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def oracle_real_list(obj, line_no, key, required=False):
    if key not in obj:
        if required:
            raise TraceFormatError(line_no, key, "missing required field")
        return None
    raw = obj[key]
    if not isinstance(raw, list):
        raise TraceFormatError(line_no, key, f"expected {list}, got {type(raw).__name__}")
    out = []
    for v in raw:
        if not _is_finite_real(v):
            raise TraceFormatError(line_no, key, f"non-finite or non-numeric entry {v!r}")
        out.append(float(v))
    return out


def oracle_channels(obj, line_no):
    """(entropies, logprobs, tokens) as lists, or the TraceFormatError the
    reader must raise; ``obj`` must pass every rule but the channels'.

    Each channel's JSON kind and entries are checked first, then its values,
    by the rules and in the order of the ``Trajectory`` constructor.
    """
    entropies = oracle_real_list(obj, line_no, "entropies", required=True)
    logprobs = oracle_real_list(obj, line_no, "logprobs")
    tokens = None
    if "tokens" in obj:
        raw = obj["tokens"]
        if isinstance(raw, bool) or not isinstance(raw, list):
            raise TraceFormatError(
                line_no, "tokens", f"expected {list}, got {type(raw).__name__}"
            )
        tokens = []
        for v in raw:
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise TraceFormatError(line_no, "tokens", f"bad token {v!r}")
            tokens.append(v)
    tid = f"trajectory {obj['prompt_id']}/{obj['trajectory_index']}"
    if tokens is not None and len(tokens) != len(entropies):
        raise TraceFormatError(
            line_no, "tokens", f"{tid}: {len(tokens)} tokens vs {len(entropies)} entropy steps"
        )
    if logprobs is not None and len(logprobs) != len(entropies):
        raise TraceFormatError(
            line_no,
            "logprobs",
            f"{tid}: step_logprobs length {len(logprobs)} vs {len(entropies)} entropy steps",
        )
    if not entropies:
        raise TraceFormatError(
            line_no, "entropies", f"{tid}: step_entropies must be non-empty and 1-d"
        )
    if any(v < 0 for v in entropies):
        raise TraceFormatError(
            line_no, "entropies", f"{tid}: step entropies must be finite and >= 0"
        )
    if logprobs is not None and any(v > 0 for v in logprobs):
        raise TraceFormatError(
            line_no, "logprobs", f"{tid}: log-probabilities must be finite and <= 0"
        )
    return entropies, logprobs, tokens


def float_bits(values):
    """The int64 bit patterns of ``float(v)`` for each value."""
    return np.array([float(v) for v in values], dtype=np.float64).view(np.int64)


def channel_matches(read, written):
    """``read`` is a 1-d float64 array with the bits of ``float(v)`` for each
    written value, or both are None."""
    if written is None:
        return read is None
    return (
        isinstance(read, np.ndarray)
        and read.dtype == np.float64
        and read.ndim == 1
        and np.array_equal(read.view(np.int64), float_bits(written))
    )


def same_value(a, b):
    """``a`` equals ``b`` with the same type at every level of nesting, dict
    keys in the same order and floats bit for bit (so NaN equals NaN and
    ``-0.0`` differs from ``0.0``). Iterative, so values nested as deep as a
    decoder accepts compare without recursion."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b):
            return False
        if type(a) is float:
            if struct.pack("<d", a) != struct.pack("<d", b):
                return False
        elif type(a) is list:
            if len(a) != len(b):
                return False
            stack.extend(zip(a, b))
        elif type(a) is dict:
            if list(a) != list(b):
                return False
            stack.extend((a[k], b[k]) for k in a)
        elif a != b:
            return False
    return True


def record_mismatches(read, written):
    """Names of the ``Trajectory`` fields where ``read`` differs from ``written``.

    ``step_entropies`` and ``step_logprobs`` must be 1-d float64 arrays whose
    bits equal those of the written values; every other field must be the
    ``same_value``.
    """
    out = []
    for f in dataclasses.fields(Trajectory):
        a, b = getattr(read, f.name), getattr(written, f.name)
        if f.name in ("step_entropies", "step_logprobs"):
            same = channel_matches(a, b)
        else:
            same = same_value(a, b)
        if not same:
            out.append(f.name)
    return out


def trace_mismatches(read, written):
    """(index, field names) of every trajectory pair that differs; a length
    difference is reported as index -1."""
    if len(read) != len(written):
        return [(-1, ["length"])]
    return [
        (i, names)
        for i, (a, b) in enumerate(zip(read, written))
        if (names := record_mismatches(a, b))
    ]
