"""One workload pass in a fresh interpreter; run.py starts it, never a user.

Usage: worker.py --workload W --inputs DIR --out DIR --trace 0|1 --run-id N

Reads the inputs run.py wrote into DIR, runs every operation of the pass
against the ``heal`` package on PYTHONPATH, leaves each operation's output
files under the out directory and writes ``result.json`` there. With
``--trace 1`` it also wraps the package's layer entry points (tracer.py) and
writes the spans to ``spans.npz``. Output checks happen in run.py, after
this process has exited.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import time
import traceback
from pathlib import Path

import heal
import heal.cli
import heal.simulator.training as training

import refclock
from workloads import OFFLINE_COMMANDS, TRACE_FILE

# Numeric reference units (refclock.py) run between two CLI commands on
# offline-score, whose commands spend much of their time in numpy calls, and
# the pause between two units run during a command (RefTimer).
REF_BURST = 10
REF_PERIOD_S = 0.015


class StepProbe:
    """Marks each training step at its ``tag="rollout"`` sampling call.

    The only hook in an untraced pass. At each mark it runs one reference
    unit (refclock.py) and keeps its time; the step before the mark ends
    where the unit starts and the step after it begins where the unit ends,
    so the unit's time is in no step. It also counts the trajectories
    sampled.
    """

    def __init__(self):
        self.marks: list[tuple[float, float]] = []
        self.trajectories = 0

    def install(self) -> None:
        inner = training.rollout_tasks

        def rollout_tasks(policy, tasks, n, *args, **kwargs):
            tag = args[3] if len(args) > 3 else kwargs["tag"]
            if tag == "rollout":
                t = time.perf_counter()
                refclock.unit()
                self.marks.append((t, time.perf_counter()))
            self.trajectories += len(tasks) * n
            return inner(policy, tasks, n, *args, **kwargs)

        training.rollout_tasks = rollout_tasks

    def take_marks(self) -> list[tuple[float, float]]:
        marks, self.marks = self.marks, []
        return marks


class RefTimer:
    """Runs a numeric reference unit every REF_PERIOD_S of wall time while
    on, from a SIGALRM handler, and keeps each unit's start and end.

    A CLI command runs for up to seconds, over which the host's speed
    changes; units run during it sample that speed evenly in time. The
    handler runs between two bytecodes of the main thread, so a long numpy
    or json call delays a unit but is never cut. The timer is re-armed when
    a unit ends, so units never pile up.
    """

    def __init__(self):
        self.marks: list[tuple[float, float]] = []
        self.on = False

    def _fire(self, signum, frame) -> None:
        if not self.on:
            return
        t = time.perf_counter()
        refclock.numeric_unit()
        self.marks.append((t, time.perf_counter()))
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._fire)
        self.on = True
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S)

    def stop(self) -> list[tuple[float, float]]:
        self.on = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        marks, self.marks = self.marks, []
        return marks


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _segments_ms(marks: list[tuple[float, float]]) -> list[float]:
    """Times between consecutive marks: from one mark's end to the next's start."""
    return [(b[0] - a[1]) * 1e3 for a, b in zip(marks, marks[1:])]


def _ref_ms(marks: list[tuple[float, float]]) -> list[float]:
    return [(end - start) * 1e3 for start, end in marks]


def run_sim(inputs: dict, out: Path, probe: StepProbe, tracer) -> list:
    """One op per config. Its segments: set-up up to the first training step,
    then one per step, each from its sampling call to the next one or, for
    the last step, to the return of train() (final eval and save). Its
    reference samples: the units run at the step marks."""
    ops = []
    for name, kwargs in inputs["configs"]:
        error = None
        started = time.perf_counter()
        span = tracer.open("training.train") if tracer else None
        try:
            record = training.train(training.TrainConfig(**kwargs), out / name)
            if record.status != "completed":
                error = f"run status {record.status}"
        except Exception as exc:  # an operation failure is data, not a crash
            error = _failure(exc)
        finally:
            if tracer:
                tracer.close(span)
        ended = time.perf_counter()
        marks = probe.take_marks()
        ops.append({"name": name, "segments_ms": _segments_ms([(0, started), *marks, (ended, 0)]),
                    "ref_ms": _ref_ms(marks), "first_step": 1, "error": error})
    return ops


def run_offline(inputs_dir: Path, out: Path, tracer, timer: RefTimer | None) -> tuple[list, float]:
    """One op, and one step, per CLI command; and the seconds the timer's
    units took. An op's time leaves out the units run during it. Its
    reference samples: those units and the bursts of units run right
    before and right after it. Traced passes run no timer, so that no unit
    lands in a span."""
    ops = []
    traces = str(inputs_dir / TRACE_FILE)
    timer_s = 0.0
    before = refclock.sample(REF_BURST, numeric=True)
    for name, argv, out_file in OFFLINE_COMMANDS:
        args = [argv[0], "--traces", traces, *argv[1:], "--out", str(out / out_file)]
        error = None
        if timer:
            timer.start()
        started = time.perf_counter()
        span = tracer.open(f"cli.{name}") if tracer else None
        try:
            heal.cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (None, 0):
                error = f"exit code {exc.code}"
        except Exception as exc:
            error = _failure(exc)
        finally:
            if tracer:
                tracer.close(span)
        ended = time.perf_counter()
        marks = timer.stop() if timer else []
        timer_s += sum(_ref_ms(marks)) / 1e3
        during = _ref_ms([m for m in marks if started <= m[0] and m[1] <= ended])
        after = refclock.sample(REF_BURST, numeric=True)
        ops.append({"name": name, "segments_ms": [(ended - started) * 1e3 - sum(during)],
                    "ref_ms": before + during + after, "first_step": 0, "error": error})
        before = after
    return ops, timer_s


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", type=int, default=0)
    args = parser.parse_args()
    with open(args.inputs / "inputs.json", encoding="utf-8") as fh:
        inputs = json.load(fh)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(args.run_id)
        tracing.install(tracer)
    probe = StepProbe()
    probe.install()

    started = time.perf_counter()
    timer_s = 0.0
    root = tracer.open("bench.pass") if tracer else None
    if args.workload == "offline-score":
        ops, timer_s = run_offline(args.inputs, args.out, tracer, None if tracer else RefTimer())
        trajectories = inputs["records"] * len(ops)
    else:
        ops = run_sim(inputs, args.out, probe, tracer)
        trajectories = probe.trajectories
    if tracer:
        tracer.close(root)
    run_s = time.perf_counter() - started - timer_s
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "heal_file": os.path.abspath(heal.__file__),
        "run_s": run_s,
        "peak_rss_kb": peak_rss_kb,
        "trajectories": trajectories,
        "numeric_ref": args.workload == "offline-score",
        "ops": ops,
    }
    if tracer:
        tracer.save(args.out / "spans.npz")
        result["counters"] = tracer.counters
    with open(args.out / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
