"""Reference trace-channel validation, and a bit-exact trajectory comparison.

``oracle_channels`` is the per-entry reader: it checks ``entropies``,
``logprobs`` and ``tokens`` one value at a time, in the order and with the
messages of ``heal.trace_io``. The reader's array path is checked against
it. The one rule the array path adds is that an integer too large for a
float64 is rejected like a non-finite entry; here that is the caught
``OverflowError``.

``record_mismatches`` compares a trajectory read from a file with the one
that was written, field by field, and the float channels by dtype and bit
pattern, so a sign flip of ``-0.0`` counts as a change.
"""

import dataclasses
import math

import numpy as np

from heal.errors import TraceFormatError
from heal.rollouts import Trajectory


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
    reader must raise; ``obj`` must already pass the fields read before."""
    entropies = oracle_real_list(obj, line_no, "entropies", required=True)
    if not entropies:
        raise TraceFormatError(line_no, "entropies", "must be non-empty")
    if any(v < 0 for v in entropies):
        raise TraceFormatError(line_no, "entropies", "entries must be >= 0")
    logprobs = oracle_real_list(obj, line_no, "logprobs")
    if logprobs is not None:
        if len(logprobs) != len(entropies):
            raise TraceFormatError(
                line_no,
                "logprobs",
                f"length {len(logprobs)} != entropies length {len(entropies)}",
            )
        if any(v > 0 for v in logprobs):
            raise TraceFormatError(line_no, "logprobs", "entries must be <= 0")
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
        if len(tokens) != len(entropies):
            raise TraceFormatError(
                line_no, "tokens", f"length {len(tokens)} != entropies length {len(entropies)}"
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


def record_mismatches(read, written):
    """Names of the ``Trajectory`` fields where ``read`` differs from ``written``.

    ``step_entropies`` and ``step_logprobs`` must be 1-d float64 arrays whose
    bits equal those of the written values; every other field compares with
    ``==`` and must keep its type.
    """
    out = []
    for f in dataclasses.fields(Trajectory):
        a, b = getattr(read, f.name), getattr(written, f.name)
        if f.name in ("step_entropies", "step_logprobs"):
            same = channel_matches(a, b)
        else:
            same = type(a) is type(b) and a == b
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
