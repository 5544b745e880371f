"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload sim-heal --seeds 1-10 [--trace 1] [--out FILE]

Spread is the distance between the first and third quartile of the runs'
values (statistics.quantiles, n=4) as a share of their median; for an
end-to-end metric it should stay under a third of its BENCHMARK.json bound.
With --out, the per-run values and their summary are stored in FILE under
"trace<0|1>" -> workload, next to the environment stamp.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=run.ROOT, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: incorrect output\n{proc.stdout}")
        runs.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            if k in bounds or args.trace), flush=True)
    summary = {}
    for metric in runs[0]["metrics"]:
        summary[metric] = summarize([r["metrics"][metric]["value"] for r in runs])
        s = summary[metric]
        if metric in bounds and "spread" in s:
            verdict = "ok" if s["spread"] < bounds[metric] / 3 else "TOO WIDE"
            print(f"{metric:14s} median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"(bound/3 {bounds[metric] / 3:.4f}) {verdict}")
    if args.out:
        data = json.loads(args.out.read_text()) if args.out.is_file() else {}
        data["env"] = run.env_stamp()
        data.setdefault(f"trace{args.trace}", {})[args.workload] = {
            "seeds": parse_seeds(args.seeds), "run_seconds": spec["run_seconds"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "metrics": summary,
        }
        args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
