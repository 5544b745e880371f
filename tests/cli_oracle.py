"""Reference outputs of the trace commands, built from definitions.

``enumerated_pass_at_k`` and ``brute_force_top_k`` are criteria 8 and 3 as
stated: subset enumeration and exhaustive search. ``reward_outcome`` and
``heatmap_outcome`` rebuild what ``heal reward`` and ``heal heatmap`` print
and write from the pair-by-pair oracles, ``eda_oracle.naive_rewards`` and
``similarity_oracle.sim_kl``, not from the package's matrix kernels.
"""

import csv
import io
import itertools
import json
import math
from fractions import Fraction

from eda_oracle import naive_rewards
from similarity_oracle import sim_kl


def enumerated_pass_at_k(n, c, k):
    """Criterion 8's definition: the share of the size-k subsets of n samples,
    the first c of them correct, that hold a correct sample."""
    hits = sum(1 for combo in itertools.combinations(range(n), k) if any(i < c for i in combo))
    return float(Fraction(hits, math.comb(n, k)))


def brute_force_top_k(ids, composites, k):
    """Criterion 3's exhaustive search: the size-k subset whose composites,
    sorted descending, are largest (the earliest indices among equals),
    listed by composite descending with ties in input order."""
    best = max(itertools.combinations(range(len(ids)), min(k, len(ids))),
               key=lambda combo: sorted((composites[i] for i in combo), reverse=True))
    return [ids[i] for i in sorted(best, key=lambda i: -composites[i])]


def reward_outcome(batch, sim_name):
    """(exit code, last stderr line, bytes of ``--out`` or None) of
    ``heal reward`` on a trace file holding ``batch``."""
    rows = naive_rewards(batch, sim_name)
    for t, (_, _, s_intra, s_inter) in zip(batch, rows):
        for name, value in (("s_intra", s_intra), ("s_inter", s_inter)):
            if value is not None and not math.isfinite(value):
                return 2, (f"error: target {t.trajectory_id}: {name} is {value}, "
                           f"not a finite {sim_name} similarity"), None
    lines = []
    for t, (r_acc, r_eda, s_intra, s_inter) in zip(batch, rows):
        obj = {"trajectory_id": t.trajectory_id, "prompt_id": t.prompt_id, "domain": t.domain,
               "r_acc": r_acc, "r_eda": r_eda, "total": r_acc + r_eda}
        for name, value in (("s_intra", s_intra), ("s_inter", s_inter)):
            if value is not None:
                obj[name] = value
        lines.append(json.dumps(obj) + "\n")
    targets = [row for t, row in zip(batch, rows) if t.domain == "target"]
    rate = f"{sum(row[1] for row in targets) / len(targets):.4f}" if targets else "n/a"
    ties = sum(s_intra is not None and s_inter == s_intra for _, _, s_intra, s_inter in targets)
    summary = (f"reward summary: targets={len(targets)} bonus_rate={rate} ties={ties} "
               f"empty_intra={sum(row[2] is None for row in targets)} "
               f"empty_inter={sum(row[3] is None for row in targets)}")
    return 0, summary, "".join(lines).encode()


def heatmap_outcome(batch):
    """(exit code, error line or None, bytes of ``--out`` or None) of
    ``heal heatmap`` on a trace file holding ``batch``: cell (i, j) is
    ``-sim_kl(tau_i, tau_j)``, 0 on the diagonal, and the first cell in
    row-major order that is not finite is the error."""
    ids = [t.trajectory_id for t in batch]
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["id"] + ids)
    for i, a in enumerate(batch):
        row = [ids[i]]
        for j, b in enumerate(batch):
            d = 0.0 if i == j else -sim_kl(a.step_entropies, b.step_entropies) + 0.0
            if not math.isfinite(d):
                return 2, f"error: heatmap row {ids[i]}, column {ids[j]}: distance is {d}, not finite", None
            row.append("%.9g" % d)
        writer.writerow(row)
    return 0, None, out.getvalue().encode()
