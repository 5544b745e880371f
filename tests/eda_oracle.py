"""Reference EDA rewards: a literal pairwise loop over the batch.

``batch_rewards`` is checked against this oracle. Its similarities are
the scalar definitions of ``similarity_oracle``, one pair at a time, not the
matrix kernels. It scans the batch in order, keeping the first strictly
larger similarity, so its maxima carry the same bits (first maximum, signed
zeros) as the kernel's.
"""

import math

from similarity_oracle import SIMILARITIES


def naive_rewards(batch, sim_name):
    """Per trajectory, in batch order: (r_acc, r_eda, s_intra, s_inter)."""
    sim = SIMILARITIES[sim_name]
    out = []
    for t in batch:
        if t.domain != "target":
            out.append((float(t.correct), 0.0, None, None))
            continue
        s_intra = None
        s_inter = None
        for o in batch:
            if o is t:
                continue
            value = sim(t.step_entropies, o.step_entropies)
            if o.domain == "target":
                if s_intra is None or value > s_intra:
                    s_intra = value
            else:
                if s_inter is None or value > s_inter:
                    s_inter = value
        a = -math.inf if s_intra is None else s_intra
        b = -math.inf if s_inter is None else s_inter
        out.append((float(t.correct), float(b > a), s_intra, s_inter))
    return out
