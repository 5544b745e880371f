"""The three benchmark workloads and the inputs they are built from.

Everything here is a pure function of the workload seed. ``heal`` never sees
the seed itself, only the training configs and the trace file made from it.
Only standard-library and numpy code runs here, and no transcendental numpy
function touches the generated trace, so its bytes are the same on every
machine with the same numpy bit generator.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

WORKLOADS = ("sim-sweep", "sim-heal", "offline-score")

# Workload seeds are folded onto this many input seeds, so that every input
# the benchmark can make has recorded golden digests in golden.json.
INPUT_SEEDS = 16

# The criterion-6 phenomena settings of tests/test_acceptance.py.
PHENOMENA = dict(steps=200, learning_rate=5.0, batch_size=32, max_len=6, log_every=200)
SWEEP_REGULARIZERS = ("entropy_loss", "mask_8020", "clip_higher", "kl_cov")
# Both sim workloads train for 30 of the criterion-6 steps, so that a 36 s
# run repeats its pass about five times (see run.end_to_end). sim-heal
# trains on HEAL_SEEDS consecutive training seeds per pass: its cost varies
# by about 15 % from one seed to another, and the sum varies less.
SIM_STEPS = 30
HEAL_SEEDS = 3

# Offline trace shape: prompts x rollouts, half of the prompts target-domain.
OFFLINE_PROMPTS = 16
OFFLINE_ROLLOUTS = 8
OFFLINE_MIN_LEN = 200
OFFLINE_MAX_LEN = 2000
TRACE_FILE = "traces.jsonl"

# (operation name, CLI arguments after --traces, output file).
OFFLINE_COMMANDS = (
    ("reward_kl", ["reward", "--sim", "kl"], "reward_kl.jsonl"),
    ("reward_hti", ["reward", "--sim", "hti"], "reward_hti.jsonl"),
    ("reward_pl", ["reward", "--sim", "pl"], "reward_pl.jsonl"),
    ("heatmap", ["heatmap"], "heatmap.csv"),
    ("select", ["select", "--k", "8"], "select.jsonl"),
    ("passk", ["passk", "--k", "1,4,8"], "passk.csv"),
)
PASSK_KS = (1, 4, 8)
SELECT_K = 8


def input_seed(seed: int) -> int:
    return seed % INPUT_SEEDS


def sim_configs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """(run name, TrainConfig keyword arguments) for a sim workload."""
    base = dict(PHENOMENA, seed=input_seed(seed), steps=SIM_STEPS)
    mixed = dict(n_target=4, n_general=32, general_fraction=0.7)
    if workload == "sim-sweep":
        fewshot = dict(base, mode="fewshot", n_target=4)
        runs = [
            ("fewshot", fewshot),
            ("fullshot", dict(base, mode="fullshot", n_target=256)),
            ("hybrid", dict(base, mode="hybrid", **mixed)),
        ]
        runs += [(f"fewshot-{r}", dict(fewshot, regularizer=r)) for r in SWEEP_REGULARIZERS]
        return runs
    if workload == "sim-heal":
        heal = dict(base, mode="heal", sim_choice="kl", **mixed)
        seeds = [input_seed(seed + k) for k in range(HEAL_SEEDS)]
        return [(f"heal-seed{s}", dict(heal, seed=s)) for s in seeds]
    raise ValueError(f"{workload} is not a sim workload")


def make_trace_records(seed: int) -> list[dict]:
    """Synthetic rollout log: per-prompt entropy level and drift, noise, spikes.

    Each trajectory's entropy curve drifts linearly from its prompt's level,
    with uniform noise and rare spikes, so the high-entropy minority that
    ``hti`` and selection look at is present. Each domain's lengths are the
    same evenly spaced grid over [OFFLINE_MIN_LEN, OFFLINE_MAX_LEN], in a
    seeded order: the seed moves lengths between trajectories but keeps the
    work of every all-pairs loop (a sum over all target-target and
    target-general pairs) the same.
    """
    rng = np.random.default_rng([input_seed(seed), 0x4EA1])
    per_domain = OFFLINE_PROMPTS // 2 * OFFLINE_ROLLOUTS
    grid = np.linspace(OFFLINE_MIN_LEN, OFFLINE_MAX_LEN, per_domain).round().astype(int)
    lengths = {d: iter(rng.permutation(grid).tolist()) for d in ("target", "general")}
    records = []
    for p in range(OFFLINE_PROMPTS):
        domain = "target" if p < OFFLINE_PROMPTS // 2 else "general"
        prompt_id = f"{domain[0]}{p:03d}"
        accuracy = float(rng.random())
        level = 0.2 + 2.0 * float(rng.random())
        for j in range(OFFLINE_ROLLOUTS):
            length = next(lengths[domain])
            drift = 1.8 * float(rng.random()) - 0.9
            ramp = np.arange(length) / length
            noise = rng.random(length)
            spikes = (rng.random(length) < 0.05) * (1.0 + 2.0 * rng.random(length))
            entropies = level * (1.0 + drift * ramp) * (0.6 + 0.8 * noise) + spikes
            logprobs = -entropies * rng.random(length)
            tokens = rng.integers(0, 32000, length)
            correct = int(rng.random() < accuracy)
            records.append(
                {
                    "prompt_id": prompt_id,
                    "domain": domain,
                    "trajectory_index": j,
                    "tokens": tokens.tolist(),
                    "entropies": entropies.tolist(),
                    "logprobs": logprobs.tolist(),
                    "correct": correct,
                    "answer": str(int(rng.integers(0, 100))),
                }
            )
    return records


def trace_bytes(records: list[dict]) -> bytes:
    return "".join(json.dumps(r) + "\n" for r in records).encode("utf-8")


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())
