"""heal benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload sim-sweep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Run from anywhere inside a checkout that holds ``src/heal``; nothing needs
installing. Workloads (workloads.py; reasons and predictions in
workloads.json):

- ``sim-sweep``: train() on the criterion-6 fewshot/fullshot/hybrid configs
  and fewshot under each of the four regularizers, 30 steps each;
- ``sim-heal``: train() on the criterion-6 heal config, 30 steps, on three
  consecutive training seeds;
- ``offline-score``: the reward (kl, hti, pl), heatmap, select and passk
  commands, in-process through ``heal.cli.main``, on a seeded 128-trajectory
  trace file with lengths in [200, 2000].

The inputs are made from ``--seed``, outside any timing. Then passes of the
workload run one after another, each in a fresh child process (worker.py,
closed loop, single thread, BLAS pools pinned to 1 thread), at least
MIN_PASSES of them and more while the next is predicted to end within
``--seconds``. Every output of every pass is checked (checks.py); a failed
check, exception or non-zero exit fails its operation (one train() run or
one CLI command).

On the 2-vCPU virtual machine this benchmark was tuned on, each CPU's speed
drifts by up to about 1.8x within seconds, for the benchmark's work and for
any other work alike, and process CPU time drifts with it. So every pass
repeats the same deterministic work, each unit of it is timed (a training
step on sim-*, from one ``tag="rollout"`` sampling call to the next, the last
one ending when train() returns, plus each run's set-up before its first
step; a CLI command on offline-score), and reference units of fixed
interpreter or numpy work (refclock.py) run between and during the units:
one at every step mark on sim-*, one every 15 ms of a command (from a timer
signal) and a burst between two commands on offline-score. A unit's time
leaves the reference work out and is reported at reference speed
(scaled_segments): divided by how much slower than nominal the reference
units around it ran. The passes take turns on the CPUs the benchmark may
use.

End-to-end metrics (``--trace 0``), times at reference speed:
- setup_s: time for a fresh interpreter to import ``heal`` and ``heal.cli``,
  the median of the samples taken before each pass, each scaled by
  reference units run before and after the import in that interpreter;
- run_s: seconds of one pass, the sum of its units' times, median over the
  passes;
- step_ms_p50, step_ms_p95: nearest-rank percentiles over the steps of a
  pass, each step's time the median of its repetitions;
- traj_per_s: trajectories per pass over run_s: sampled and scored on sim-*,
  scored and summed over the commands on offline-score;
- peak_rss_mb: the median ru_maxrss of the pass children.
fail_frac is reported as ``failed``/``attempted``.

``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the traced ones (tracer.py), plus the tracing overhead:
traced minus untraced mean pass wall time.

Only per-process measurement is used: no system-wide tracing, no cache
dropping, no cgroup changes. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import refclock  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import (  # noqa: E402
    OFFLINE_COMMANDS,
    TRACE_FILE,
    WORKLOADS,
    input_seed,
    make_trace_records,
    sha256_bytes,
    sim_configs,
    trace_bytes,
)

ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
GOLDEN = BENCH / "golden.json"
SETUP_SAMPLES_FIRST = 5  # before the first pass, after one warm-up import
SETUP_SAMPLES_LATER = 2  # before each later pass
SETUP_REF_UNITS = 20  # reference units before, and again after, each import
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "traj_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HEAL_LOG"}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def env_stamp() -> dict:
    """Where the numbers come from; the checkout need not be a git repository."""
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "heal").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_heal_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
        "measurement": "per-process only (perf_counter, ru_maxrss); no system "
                       "tracing, cache dropping or cgroup changes",
    }


def measure_setup(env: dict, samples: int) -> list[float]:
    """Import time of heal and heal.cli, once per fresh interpreter, in seconds
    at reference speed: scaled by reference units run right before and after
    the import in the same interpreter (refclock.py imports only ``time``)."""
    code = (f"import json, sys, time; sys.path.insert(0, {str(BENCH)!r}); import refclock; "
            f"ref = refclock.sample({SETUP_REF_UNITS}); t = time.perf_counter(); "
            "import heal, heal.cli; s = time.perf_counter() - t; "
            f"ref += refclock.sample({SETUP_REF_UNITS}); print(json.dumps([s, ref]))")
    out = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, ref = json.loads(proc.stdout)
        out.append(seconds / refclock.slowdown(ref))
    return out


def prepare_inputs(workload: str, seed: int, inputs_dir: Path) -> dict:
    inputs_dir.mkdir(parents=True)
    if workload == "offline-score":
        records = make_trace_records(seed)
        data = trace_bytes(records)
        (inputs_dir / TRACE_FILE).write_bytes(data)
        spec = {"records": len(records)}
        info = {"records": records, "digest": sha256_bytes(data),
                "size": f"{len(records)} trajectories, {len(data)} bytes"}
    else:
        configs = sim_configs(workload, seed)
        spec = {"configs": configs}
        info = {"names": [name for name, _ in configs],
                "size": f"{len(configs)} train() runs of {configs[0][1]['steps']} steps"}
    with open(inputs_dir / "inputs.json", "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return info


def run_pass(workload: str, inputs_dir: Path, out: Path, trace: int, run_id: int,
             env: dict) -> dict:
    """Run one pass in a child; returns its result.json, or an 'error' entry."""
    out.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--inputs", str(inputs_dir), "--out", str(out), "--trace", str(trace),
           "--run-id", str(run_id)]
    with open(out / "child.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=log, stderr=log,
                                  timeout=CHILD_TIMEOUT_S)
            error = None if proc.returncode == 0 else f"worker exit code {proc.returncode}"
        except subprocess.TimeoutExpired:
            error = f"worker ran over {CHILD_TIMEOUT_S} s"
    result_path = out / "result.json"
    if error is None and not result_path.is_file():
        error = "worker wrote no result"
    if error is not None:
        return {"error": error, "log": (out / "child.log").read_text()[-2000:]}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    expected = ROOT / "src" / "heal" / "__init__.py"
    if Path(result["heal_file"]) != expected:
        return {"error": f"worker imported heal from {result['heal_file']}"}
    return result


def check_pass(workload: str, out: Path, info: dict, golden: dict | None,
               offline_oracle) -> dict:
    if workload == "offline-score":
        return checks.check_offline(out, offline_oracle, golden)
    return checks.check_sim(out, info["names"], golden)


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def load_golden(workload: str, seed: int) -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)[workload][str(input_seed(seed))]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    env = child_env()
    measure_setup(env, 1)  # writes the bytecode caches
    info = prepare_inputs(workload, seed, work / "inputs")
    golden = load_golden(workload, seed)
    if workload == "offline-score" and info["digest"] != golden["input"]:
        raise SystemExit("generated trace differs from the recorded input digest")
    orc = checks.OfflineOracle(info["records"], seed) if workload == "offline-score" else None
    n_ops = len(OFFLINE_COMMANDS) if workload == "offline-score" else len(info["names"])

    modes = (0, 1) if trace else (0,)
    cpus = sorted(os.sched_getaffinity(0))
    passes, failures, setup, walls = [], [], [], []
    started = time.monotonic()
    try:
        while True:
            mode = modes[len(passes) % len(modes)]
            t0 = time.monotonic()
            # Children inherit the CPU; the CPUs take turns, one round of modes each.
            os.sched_setaffinity(0, {cpus[len(passes) // len(modes) % len(cpus)]})
            setup += measure_setup(env, SETUP_SAMPLES_LATER if passes else SETUP_SAMPLES_FIRST)
            result = run_pass(workload, work / "inputs", work / f"pass{len(passes)}", mode,
                              len(passes), env)
            if "error" in result:
                failures += [f"pass {len(passes)}: {result['error']}"] * n_ops
                print(result.get("log", ""), file=sys.stderr)
            else:
                op_errors = {op["name"]: op["error"] for op in result["ops"]}
                checked = check_pass(workload, work / f"pass{len(passes)}", info, golden, orc)
                for name, failure in checked.items():
                    failure = op_errors.get(name) or failure
                    if failure:
                        failures.append(f"pass {len(passes)} {name}: {failure}")
            result["trace"] = mode
            passes.append(result)
            walls.append(time.monotonic() - t0)
            predicted_end = time.monotonic() - started + statistics.mean(walls)
            if len(passes) >= MIN_PASSES and predicted_end > seconds:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    return {"workload": workload, "seed": seed, "input_seed": input_seed(seed),
            "size": info["size"], "setup": setup, "passes": passes, "failures": failures,
            "attempted": n_ops * len(passes), "work": work}


def scaled_segments(p: dict) -> list[tuple[list[float], int]]:
    """Per op of one pass: its segment times in ms at reference speed (each
    op scaled by the reference units run during or around it), and its
    first step."""
    every_ref = [ms for op in p["ops"] for ms in op["ref_ms"]]
    out = []
    for op in p["ops"]:
        # An op that failed before its first step ran no unit of its own.
        ref = op["ref_ms"] or every_ref or [refclock.UNIT_MS]
        slowdown = refclock.slowdown(ref, p["numeric_ref"])
        out.append(([ms / slowdown for ms in op["segments_ms"]], op["first_step"]))
    return out


def scaled_run_s(p: dict) -> float:
    """Seconds of one pass at reference speed: the sum of its scaled segments."""
    return sum(sum(segments) for segments, _ in scaled_segments(p)) / 1e3


def end_to_end(run: dict) -> tuple[dict, dict]:
    """(metric -> value, metric -> sample count) from the untraced passes.

    Times are at reference speed (refclock.py). run_s is the median pass.
    Every pass repeats the same deterministic work, step for step (the
    output checks hold it to the recorded digests), so each step's time is
    the median of its repetitions, and the percentiles are over the steps.
    """
    ok = [p for p in run["passes"] if p["trace"] == 0]
    scaled = [scaled_segments(p) for p in ok]
    run_s = statistics.median(scaled_run_s(p) for p in ok)
    steps = []
    for i, (_, first) in enumerate(scaled[0]):
        repeats = [ops[i][0][first:] for ops in scaled]
        if len({len(r) for r in repeats}) != 1:
            raise SystemExit(f"{ok[0]['ops'][i]['name']}: passes differ in step count")
        steps += [statistics.median(column) for column in zip(*repeats)]
    values = {
        "setup_s": statistics.median(run["setup"]),
        "run_s": run_s,
        "step_ms_p50": nearest_rank(steps, 0.50),
        "step_ms_p95": nearest_rank(steps, 0.95),
        "traj_per_s": ok[0]["trajectories"] / run_s,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024 for p in ok),
    }
    counts = {k: len(ok) for k in values}
    counts["setup_s"] = len(run["setup"])
    counts["step_ms_p50"] = counts["step_ms_p95"] = len(steps)
    return values, counts


def per_layer(run: dict) -> tuple[dict, dict]:
    """Median per-layer metrics over the traced passes, plus tracing overhead:
    mean traced minus mean untraced wall time of a pass. Wall time, not time
    at reference speed: a traced offline pass runs no reference units during
    its commands (worker.RefTimer), so it cannot be scaled as finely as an
    untraced one. It is as noisy as the host."""
    ok = [p for p in run["passes"] if "error" not in p]
    traced = [i for i, p in enumerate(run["passes"]) if p["trace"] == 1 and "error" not in p]
    per_pass = [
        tracing.layer_metrics(
            tracing.load_spans(run["work"] / f"pass{i}" / "spans.npz"),
            run["passes"][i]["counters"],
        )
        for i in traced
    ]
    values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    plain = statistics.mean(p["run_s"] for p in ok if p["trace"] == 0)
    overhead = statistics.mean(run["passes"][i]["run_s"] for i in traced) - plain
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = overhead / plain
    counts = {k: len(per_pass) for k in values}
    return values, counts


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("_bytes") or metric.endswith("bytes_read"):
        return "B"
    return "count"


def report(run: dict, values: dict, counts: dict, stamp: dict) -> None:
    print(f"heal benchmark: workload={run['workload']} seed={run['seed']} "
          f"(input seed {run['input_seed']}), input: {run['size']}")
    print("env: " + json.dumps(stamp, sort_keys=True))
    for metric, value in values.items():
        print(f"  {metric:34s} {value:>16.6f} {unit_of(metric):6s} (n={counts[metric]})")
    failed = len(run["failures"])
    print(f"  {'fail_frac':34s} {failed / run['attempted']:>16.6f} ratio  "
          f"({failed} of {run['attempted']} operations)")
    for failure in run["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="heal benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "heal" / "__init__.py").is_file():
        print(f"no heal package under {ROOT / 'src'}; run from a heal checkout",
              file=sys.stderr)
        return 2
    stamp = env_stamp()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, correct, attempted, failed = {}, True, 0, 0
    for workload in names:
        run = run_workload(workload, args.seed, args.seconds, args.trace)
        if any("error" in p for p in run["passes"]):
            print("\n".join(run["failures"]), file=sys.stderr)
            return 1
        values, counts = per_layer(run) if args.trace else end_to_end(run)
        report(run, values, counts, stamp)
        prefix = f"{workload}:" if args.workload == "all" else ""
        for metric, value in values.items():
            metrics[prefix + metric] = {"value": value, "unit": unit_of(metric)}
        correct &= not run["failures"]
        attempted += run["attempted"]
        failed += len(run["failures"])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
