"""Reference clock: the speed of the CPU a measurement ran on, measured with it.

On a shared host the speed a process gets drifts by tens of percent over
seconds to minutes, for the benchmark's work and for anything else alike.
``unit()`` is a fixed piece of pure-Python interpreter work (integer and
float arithmetic, list, dict and string operations; no numpy, so that it can
run before ``heal`` is imported without importing numpy early);
``numeric_unit()`` is a fixed piece of small-array numpy work, for the
offline commands, whose speed follows the host's drift more closely than
pure-Python work does. The benchmark runs units between, and on
offline-score during, the timed pieces of work, leaves their time out of
the work's, and reports each time scaled to reference speed:

    reported = measured * UNIT_MS / mean(unit times measured around it)

so a reported time is what the work would have taken on a CPU that runs one
``unit()`` in UNIT_MS milliseconds (NUMERIC_UNIT_MS for numeric units). Work
that gets faster or slower relative to the reference moves the reported
time; the host's drift moves both and cancels.
"""

from __future__ import annotations

import time

# Milliseconds one unit() takes at reference speed: a round figure between its
# fast (0.6 ms) and slow (1.2 ms) times on the 2-vCPU machine the benchmark
# was tuned on (Python 3.11).
UNIT_MS = 1.0


def unit() -> int:
    acc = 0
    table: dict[int, float] = {}
    items: list[str] = []
    for i in range(2400):
        x = (i * 2654435761) & 0xFFFF
        acc += x % 7
        table[x & 63] = table.get(x & 63, 0.0) + x * 0.5
        if i % 10 == 0:
            items.append(str(x))
    return acc + len(table) + len(",".join(items))


def numeric_unit() -> float:
    """A fixed piece of small-array numpy work (softmax, log, argsort,
    elementwise min), for work that spends much of its time in numpy calls.
    Imports numpy on first use."""
    import numpy as np

    v = np.linspace(0.0, 3.0, 1500) % 1.7
    acc = 0.0
    for _ in range(8):
        w = np.exp(v - v.max())
        w /= w.sum()
        acc += float(np.sum(w * np.log(w)))
        top = np.argsort(-v, kind="stable")[:300]
        acc += float(np.minimum(w[top], v[top]).sum())
    return acc


# Milliseconds one numeric_unit() takes at reference speed, as for UNIT_MS:
# its fast and slow times there are 0.3 and 0.5 ms.
NUMERIC_UNIT_MS = 0.4


def sample(count: int, numeric: bool = False) -> list[float]:
    """Times, in ms, of ``count`` consecutive units (numeric units if asked)."""
    fn = numeric_unit if numeric else unit
    out = []
    for _ in range(count):
        t = time.perf_counter()
        fn()
        out.append((time.perf_counter() - t) * 1e3)
    return out


def slowdown(samples_ms: list[float], numeric: bool = False) -> float:
    """How many times slower than reference speed the samples ran, on average.

    A mean, not a median: the speed flips between levels every few ms, so
    the median jumps from one level to the other, while the mean follows the
    share of time spent at each, as the work's own time does.
    """
    nominal = NUMERIC_UNIT_MS if numeric else UNIT_MS
    return sum(samples_ms) / len(samples_ms) / nominal
