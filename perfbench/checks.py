"""Output checks of one pass; a failed check fails its operation.

sim-*: the SHA-256 digests of every run's metrics.jsonl and policy.bin must
equal the ones golden.json recorded for the input seed.

offline-score, per command:
- reward: ids, domains and r_acc must equal the input, total must equal
  r_acc + r_eda, and ids, r_acc, r_eda and total must match the recorded
  digest exactly. On a seeded sample of target rows, s_intra and s_inter
  must agree with oracle.py within TOL (relative above magnitude 1), and
  r_eda with the oracle's verdict;
- heatmap: the CSV bytes must match the recorded digest (cells at %.9g),
  and the sampled rows must agree with the oracle to the 9 digits written;
- select: the file must match its digest, accuracies must equal the input's
  and the selection must hold the top SELECT_K prompt ids;
- passk: the file must match its digest and every value the exact oracle.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracle
from workloads import OFFLINE_COMMANDS, PASSK_KS, SELECT_K, input_seed, sha256_bytes, sha256_file

TOL = 1e-12
SAMPLED_TARGETS = 6


def sim_digests(out: Path, names: list[str]) -> dict:
    digests = {}
    for name in names:
        digests[name] = {}
        for file in ("metrics.jsonl", "policy.bin"):
            path = out / name / file
            digests[name][file] = sha256_file(path) if path.is_file() else None
    return digests


def _jsonl_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _canonical_rewards(rows: list[dict]) -> bytes:
    keys = ("trajectory_id", "prompt_id", "domain", "r_acc", "r_eda", "total")
    return "".join(json.dumps([r.get(k) for k in keys]) + "\n" for r in rows).encode()


def offline_digests(out: Path) -> dict:
    digests = {}
    for name, _, out_file in OFFLINE_COMMANDS:
        path = out / out_file
        if not path.is_file():
            digests[name] = None
        elif name.startswith("reward_"):
            digests[name] = sha256_bytes(_canonical_rewards(_jsonl_rows(path)))
        else:
            digests[name] = sha256_file(path)
    return digests


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= TOL * max(1.0, abs(want))


class OfflineOracle:
    """Expected offline-score values for one input, computed once per run."""

    def __init__(self, records: list[dict], seed: int):
        self.records = records
        self.ids = [f"{r['prompt_id']}/{r['trajectory_index']}" for r in records]
        self.domains = [r["domain"] for r in records]
        self.curves = [np.array(r["entropies"], dtype=np.float64) for r in records]
        targets = [i for i, d in enumerate(self.domains) if d == "target"]
        rng = np.random.default_rng([input_seed(seed), 7])
        self.sample = sorted(rng.choice(targets, size=SAMPLED_TARGETS, replace=False).tolist())
        self._maxima: dict = {}
        self._distances = None

    def maxima(self, sim: str) -> dict:
        if sim not in self._maxima:
            self._maxima[sim] = {
                i: oracle.pool_maxima(i, self.curves, self.domains, sim) for i in self.sample
            }
        return self._maxima[sim]

    def distances(self) -> dict:
        if self._distances is None:
            self._distances = {
                i: [-oracle.sim_kl(self.curves[i], c) + 0.0 for c in self.curves]
                for i in self.sample
            }
        return self._distances

    def prompts(self) -> dict:
        """prompt id -> (n, c) in first-appearance order."""
        out: dict = {}
        for r in self.records:
            n, c = out.get(r["prompt_id"], (0, 0))
            out[r["prompt_id"]] = (n + 1, c + r["correct"])
        return out


def check_reward(path: Path, sim: str, orc: OfflineOracle) -> str | None:
    rows = _jsonl_rows(path)
    if [r["trajectory_id"] for r in rows] != orc.ids:
        return "trajectory ids differ from the input"
    for r, rec in zip(rows, orc.records):
        if r["domain"] != rec["domain"] or r["prompt_id"] != rec["prompt_id"]:
            return f"{r['trajectory_id']}: prompt or domain differs from the input"
        if r["r_acc"] != float(rec["correct"]) or r["total"] != r["r_acc"] + r["r_eda"]:
            return f"{r['trajectory_id']}: r_acc or total wrong"
        if r["r_eda"] not in (0.0, 1.0) or (rec["domain"] == "general" and r["r_eda"] != 0.0):
            return f"{r['trajectory_id']}: r_eda out of range"
    for i, (s_intra, s_inter) in orc.maxima(sim).items():
        r = rows[i]
        if not (_close(r.get("s_intra"), s_intra) and _close(r.get("s_inter"), s_inter)):
            return f"{r['trajectory_id']}: s_intra/s_inter disagree with the oracle ({sim})"
        a = -math.inf if s_intra is None else s_intra
        b = -math.inf if s_inter is None else s_inter
        if abs(b - a) > TOL * max(1.0, abs(a)) and r["r_eda"] != float(b > a):
            return f"{r['trajectory_id']}: r_eda disagrees with the oracle ({sim})"
    return None


def check_heatmap(path: Path, orc: OfflineOracle) -> str | None:
    with open(path, encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    if table[0] != ["id"] + orc.ids or [row[0] for row in table[1:]] != orc.ids:
        return "heatmap ids differ from the input"
    for i, want in orc.distances().items():
        got = [float(x) for x in table[1 + i][1:]]
        for g, w in zip(got, want):
            if abs(g - w) > 5e-9 * abs(w) + TOL:
                return f"heatmap row {orc.ids[i]}: {g!r} vs oracle {w!r}"
    return None


def check_select(path: Path, orc: OfflineOracle) -> str | None:
    rows = _jsonl_rows(path)
    prompts = orc.prompts()
    scores, selected = rows[:-1], rows[-1].get("selected")
    if [s["prompt_id"] for s in scores] != list(prompts):
        return "select: prompt ids differ from the input"
    for s in scores:
        n, c = prompts[s["prompt_id"]]
        if s["accuracy"] != c / n:
            return f"select: accuracy of {s['prompt_id']} wrong"
    ranked = sorted(scores, key=lambda s: -s["composite"])
    if selected is None or len(selected) != SELECT_K:
        return "select: wrong number of selected prompts"
    if sorted(selected) != sorted(s["prompt_id"] for s in ranked[:SELECT_K]):
        return "select: selection is not the top composite scores"
    return None


def check_passk(path: Path, orc: OfflineOracle) -> str | None:
    with open(path, encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    want = [[pid, str(n), str(c)] + [repr(oracle.pass_at_k(n, c, k)) for k in PASSK_KS]
            for pid, (n, c) in orc.prompts().items()]
    means = [sum(float(row[3 + i]) for row in want) / len(want) for i in range(len(PASSK_KS))]
    want = [["prompt_id", "n", "c"] + [f"pass@{k}" for k in PASSK_KS]] + want
    want.append(["mean", "", ""] + [repr(m) for m in means])
    return None if table == want else "passk table differs from the exact oracle"


def check_offline(out: Path, orc: OfflineOracle, golden: dict | None) -> dict:
    """operation name -> failure text, or None when it passed.

    Without ``golden`` (while recording it) the digests are not compared.
    """
    digests = offline_digests(out)
    failures = {}
    for name, argv, out_file in OFFLINE_COMMANDS:
        path = out / out_file
        if digests[name] is None:
            failures[name] = "no output file"
            continue
        try:
            if name.startswith("reward_"):
                failure = check_reward(path, argv[2], orc)
            else:
                failure = {"heatmap": check_heatmap, "select": check_select,
                           "passk": check_passk}[name](path, orc)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            failure = f"unreadable output: {exc!r}"
        if failure is None and golden is not None and digests[name] != golden.get(name):
            failure = "output differs from the recorded digest"
        failures[name] = failure
    return failures


def check_sim(out: Path, names: list[str], golden: dict | None) -> dict:
    failures = {}
    for name, digests in sim_digests(out, names).items():
        if None in digests.values():
            failures[name] = "missing metrics.jsonl or policy.bin"
        elif golden is not None and digests != golden.get(name):
            failures[name] = "digest differs from golden.json"
        else:
            failures[name] = None
    return failures
