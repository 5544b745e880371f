"""Reference gradient step: the per-token formulation the training step's
per-table-row one is held to, bit for bit.

Every term is built as its own array from per-token gathered ``p``,
``log p`` and ``h`` rows, and added into a zero table by one ``np.add.at``
call per term, in order. Micro-chunks are ``np.array_split`` over the
trajectories and kl_cov's in-chunk tokens are found with ``np.isin``. Only
valid batches are fed here, so the checks of ``policy_gradient_step`` are
not repeated.
"""

import numpy as np

from heal.entropy import LOG_FLOOR, entropy_of_prob_rows, softmax_probs
from heal.regularizers import (
    clip_ratio_asymmetric,
    entropy_loss_term,
    high_entropy_mask,
    kl_cov_select,
    kl_penalty_term,
)
from heal.simulator.policy import TabularPolicy
from heal.simulator.training import _flatten_batch


def _token_rows(table, ctx, temperature):
    """Softmax rows, their floored logs and their entropies, one per token."""
    p = softmax_probs(table[ctx], temperature)
    return p, np.log(np.maximum(p, LOG_FLOOR)), entropy_of_prob_rows(p)


def _add_terms(shape, terms):
    grad = np.zeros(shape)
    for index, weights in terms:
        np.add.at(grad, index, weights)
    return grad


def oracle_plain_loss_and_grad(table, flat, cfg, mask_flat, n_masked):
    regularizer, temperature = cfg.regularizer, cfg.temperature
    p, log_p, h = _token_rows(table, flat.ctx, temperature)
    chosen_lp = log_p[np.arange(flat.ctx.size), flat.tok]
    if regularizer == "mask_8020":
        coeff = np.where(mask_flat, flat.adv / n_masked, 0.0)
    else:
        coeff = flat.adv * flat.inv_len / flat.n_traj
    loss = -float(np.sum(coeff * chosen_lp))
    row_coeff = coeff / temperature
    terms = [(flat.ctx, row_coeff[:, None] * p), ((flat.ctx, flat.tok), -row_coeff)]
    if regularizer == "entropy_loss":
        loss += entropy_loss_term(h, flat.lengths, cfg.alpha)
        e = cfg.alpha * flat.inv_len / flat.n_traj
        terms.append((flat.ctx, (e / temperature)[:, None] * p * (log_p + h[:, None])))
    return loss, _add_terms(table.shape, terms)


def oracle_ratio_chunk_grad(table, flat, rows, cfg, kl_rows, old_probs_rows):
    ctx, tok = flat.ctx[rows], flat.tok[rows]
    regularizer, temperature, g_total = cfg.regularizer, cfg.temperature, flat.n_traj
    p, log_p, _ = _token_rows(table, ctx, temperature)
    ratio = np.exp(log_p[np.arange(ctx.size), tok] - flat.old_logprob[rows])
    adv = flat.adv[rows]
    base = adv * flat.inv_len[rows] / g_total
    if regularizer == "clip_higher":
        clipped = clip_ratio_asymmetric(ratio, cfg.eps_low, cfg.eps_high)
        loss = -float(np.sum(np.minimum(ratio * adv, clipped * adv) * flat.inv_len[rows] / g_total))
        lo, hi = 1.0 - cfg.eps_low, 1.0 + cfg.eps_high
        flows = np.where(adv >= 0, ratio <= hi, ratio >= lo)
        coeff = np.where(flows, base * ratio, 0.0)
    else:
        coeff = base * ratio
        loss = -float(np.sum(coeff))
    row_coeff = coeff / temperature
    terms = [(ctx, row_coeff[:, None] * p), ((ctx, tok), -row_coeff)]
    if regularizer == "kl_cov" and kl_rows.size:
        sel_ctx = flat.ctx[kl_rows]
        p_sel = softmax_probs(table[sel_ctx], temperature)
        loss += kl_penalty_term(old_probs_rows, p_sel, cfg.beta)
        terms.append((sel_ctx, (cfg.beta / temperature) * (p_sel - old_probs_rows)))
    return loss, _add_terms(table.shape, terms)


def oracle_policy_gradient_step(policy, batch, cfg):
    """``policy_gradient_step`` on a valid batch."""
    flat = _flatten_batch(batch)
    table = policy.table.copy()
    if cfg.regularizer in ("clip_higher", "kl_cov"):
        selected = np.array([], dtype=np.int64)
        if cfg.regularizer == "kl_cov":
            selected = np.array(
                kl_cov_select(flat.old_logprob, flat.adv, cfg.k_frac), dtype=np.int64
            )
        old_probs = softmax_probs(policy.table[flat.ctx[selected]], cfg.temperature)
        ends = np.cumsum(flat.lengths)
        for chunk in np.array_split(np.arange(flat.n_traj), min(cfg.micro_chunks, flat.n_traj)):
            rows = np.arange(ends[chunk[0]] - flat.lengths[chunk[0]], ends[chunk[-1]])
            in_chunk = np.isin(selected, rows)
            _, grad = oracle_ratio_chunk_grad(
                table, flat, rows, cfg, selected[in_chunk], old_probs[in_chunk]
            )
            table = table - cfg.learning_rate * grad
    else:
        mask_flat, n_masked = None, 0
        if cfg.regularizer == "mask_8020":
            mask_flat = np.concatenate(
                high_entropy_mask([t.step_entropies for t, _ in batch], cfg.gamma)
            )
            n_masked = int(mask_flat.sum())
        _, grad = oracle_plain_loss_and_grad(table, flat, cfg, mask_flat, n_masked)
        table = table - cfg.learning_rate * grad
    return TabularPolicy(policy.vocab_size, policy.context_window, table)
