"""Record golden.json: the digests every benchmark pass is checked against.

    python3 perfbench/record_golden.py [--workload W ...]

For each input seed and workload, runs one untraced pass, requires every
oracle check to pass, and stores the digests of the outputs (and of the
offline trace input). Run it only on a commit whose outputs are the
reference; entries of workloads not named are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil

import checks
import run
from workloads import INPUT_SEEDS, WORKLOADS


def record(workload: str, seed: int) -> dict:
    work = run.WORK / "golden" / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    info = run.prepare_inputs(workload, seed, work / "inputs")
    orc = checks.OfflineOracle(info["records"], seed) if workload == "offline-score" else None
    out = work / "pass"
    result = run.run_pass(workload, work / "inputs", out, 0, 0, run.child_env())
    if "error" in result:
        raise SystemExit(f"{workload} seed {seed}: {result['error']}\n{result.get('log', '')}")
    failures = {op["name"]: op["error"] for op in result["ops"] if op["error"]}
    failures.update({k: v for k, v in run.check_pass(workload, out, info, None, orc).items() if v})
    if failures:
        raise SystemExit(f"{workload} seed {seed}: {failures}")
    if workload == "offline-score":
        digests = {"input": info["digest"], **checks.offline_digests(out)}
    else:
        digests = checks.sim_digests(out, info["names"])
    shutil.rmtree(work)
    return digests


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    for workload in args.workload or WORKLOADS:
        entries = {}
        for seed in range(INPUT_SEEDS):
            entries[str(seed)] = record(workload, seed)
            print(f"{workload} input seed {seed}: recorded", flush=True)
        golden = json.loads(run.GOLDEN.read_text()) if run.GOLDEN.is_file() else {}
        golden[workload] = entries
        run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
