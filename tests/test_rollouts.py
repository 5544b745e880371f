"""Trajectory and trajectory_block apply one rule set to a curve and its channels."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from heal.errors import ValidationError
from heal.rollouts import DOMAINS, Trajectory, trajectory_block

GOOD = dict(prompt_id="p7", domain="target", trajectory_index=3,
            step_entropies=[0.5, 1.0, 0.0], tokens=[1, 2, 3],
            step_logprobs=[-0.1, -2.0, 0.0], correct=1, ctx_ids=np.array([0, 5, 7]))


@pytest.mark.parametrize("field, value, named", [
    ("step_entropies", [], "p7/3"),
    ("step_entropies", [[0.5, 1.0, 0.0]], "p7/3"),
    ("step_entropies", [0.5, np.nan, 0.0], "p7/3"),
    ("step_entropies", [0.5, np.inf, 0.0], "p7/3"),
    ("step_entropies", [0.5, -1e-9, 0.0], "p7/3"),
    ("tokens", [1, 2], "p7/3"),
    ("ctx_ids", np.array([0, 5]), "p7/3"),
    ("step_logprobs", [-0.1, -2.0], "p7/3"),
    ("step_logprobs", [-0.1, 1e-9, 0.0], "p7/3"),
    ("step_logprobs", [-0.1, np.nan, 0.0], "p7/3"),
    ("domain", "code", "'code'"),
    ("correct", 2, "p7/3"),
], ids=["empty", "2d", "nan", "inf", "negative", "tokens_length", "ctx_ids_length",
        "logprobs_length", "positive_logprob", "nan_logprob", "unknown_domain", "correct_2"])
def test_trajectory_rejects_bad_input(field, value, named):
    Trajectory(**GOOD)  # the unmodified input is accepted
    with pytest.raises(ValidationError, match=named):
        Trajectory(**dict(GOOD, **{field: value}))


def _old_rules_error(block):
    """The per-trajectory rules as scalar Python, the oracle for both paths.

    ``trajectory_block`` and ``Trajectory.__post_init__`` share one vectorized
    check, so holding one to the other cannot show a rule both got wrong.
    """
    for i, length in enumerate(block["lengths"].tolist()):
        tid = f"{block['prompt_ids'][i]}/{block['indices'][i]}"
        if block["domains"][i] not in DOMAINS:
            return f"unknown domain {block['domains'][i]!r}; expected one of {DOMAINS}"
        if length == 0:
            return f"trajectory {tid}: step_entropies must be non-empty and 1-d"
        if not all(math.isfinite(h) and h >= 0 for h in block["ent"][i, :length].tolist()):
            return f"trajectory {tid}: step entropies must be finite and >= 0"
        if not all(math.isfinite(x) and x <= 0 for x in block["lp"][i, :length].tolist()):
            return f"trajectory {tid}: log-probabilities must be finite and <= 0"
    return None


def _block(ent, lp, lengths, domains=None, max_len=1):
    """A padded block of len(lengths) rows of max_len steps, entries row-major."""
    n_seq = len(lengths)
    ent = np.array(ent, dtype=np.float64).reshape(n_seq, max_len)
    return dict(
        prompt_ids=[f"p{i // 2}" for i in range(n_seq)],
        indices=[i % 2 for i in range(n_seq)],
        domains=list(domains or ["target"] * n_seq),
        lengths=np.array(lengths, dtype=np.int64),
        ent=ent,
        lp=np.array(lp, dtype=np.float64).reshape(n_seq, max_len),
        tokens=np.arange(n_seq * max_len, dtype=np.int64).reshape(n_seq, max_len) % 12,
        ctx=np.arange(n_seq * max_len, dtype=np.int64).reshape(n_seq, max_len) * 7,
        correct=np.arange(n_seq) % 3 == 0,
    )


_GOOD_H = st.one_of(st.sampled_from([0.0, -0.0, 5e-324]), st.floats(0, 10))
_GOOD_LP = st.one_of(st.sampled_from([0.0, -0.0, -5e-324]), st.floats(-50, 0))
_BAD_H = st.sampled_from([math.nan, math.inf, -math.inf, -1e-9, -5e-324, -3.0])
_BAD_LP = st.sampled_from([math.nan, math.inf, -math.inf, 1e-9, 5e-324, 2.0])


@st.composite
def padded_blocks(draw):
    """Blocks of 0-5 sequences, valid but for up to three planted faults.

    A fault in the padding past a sequence's length must change nothing.
    """
    n_seq = draw(st.integers(0, 5))
    max_len = draw(st.integers(1, 4))
    cells = n_seq * max_len
    block = _block(
        draw(st.lists(_GOOD_H, min_size=cells, max_size=cells)),
        draw(st.lists(_GOOD_LP, min_size=cells, max_size=cells)),
        draw(st.lists(st.integers(1, max_len), min_size=n_seq, max_size=n_seq)),
        draw(st.lists(st.sampled_from(DOMAINS), min_size=n_seq, max_size=n_seq)),
        max_len,
    )
    for _ in range(draw(st.integers(0, 3)) if n_seq else 0):
        r = draw(st.integers(0, n_seq - 1))
        c = draw(st.integers(0, max_len - 1))
        kind = draw(st.sampled_from(["entropy", "logprob", "empty", "domain"]))
        if kind == "entropy":
            block["ent"][r, c] = draw(_BAD_H)
        elif kind == "logprob":
            block["lp"][r, c] = draw(_BAD_LP)
        elif kind == "empty":
            block["lengths"][r] = 0
        else:
            block["domains"][r] = "code"
    return block


def _build(construct):
    try:
        return construct(), None
    except ValidationError as exc:
        return None, str(exc)


def _same_bits(a, b):
    same_layout = a.dtype == b.dtype and a.shape == b.shape
    return same_layout and (a.view(np.int64) == b.view(np.int64)).all()


@given(padded_blocks())
@example(_block([0.0, 1.0], [-1.0, -np.inf], [1, 1]))
@example(_block([0.5, -0.0, 0.0], [0.0, -0.0, -1.0], [1, 1, 1]))
@example(_block([0.0, np.nan, 1.0], [-1.0, -1.0, -1.0], [1, 1, 1]))
@example(_block([1.0, 1.0, 1.0], [-1.0, 0.0, 0.0], [1, 1, 1]))
@example(_block([1.0, -1.0, 1.0, np.inf], [-1.0] * 4, [1, 1, 1, 1]))
@example(_block([1.0, 2.0, 0.5, 0.5], [-1.0, np.nan, -2.0, -2.0], [1, 2], max_len=2))
def test_trajectory_block_matches_per_object_constructor(block):
    valid = np.arange(block["ent"].shape[1]) < block["lengths"][:, None]
    flat = {key: block[key][valid] for key in ("ent", "lp", "tokens", "ctx")}
    built, block_error = _build(lambda: trajectory_block(
        block["prompt_ids"], block["indices"], block["domains"], block["lengths"],
        flat["ent"], flat["lp"], flat["tokens"], flat["ctx"], block["correct"],
    ))

    def one_by_one():
        out = []
        for i, length in enumerate(block["lengths"].tolist()):
            out.append(Trajectory(
                prompt_id=block["prompt_ids"][i], domain=block["domains"][i],
                step_entropies=block["ent"][i, :length], trajectory_index=block["indices"][i],
                tokens=block["tokens"][i, :length].tolist(),
                step_logprobs=block["lp"][i, :length], correct=int(block["correct"][i]),
                ctx_ids=block["ctx"][i, :length],
            ))
        return out

    expected, object_error = _build(one_by_one)
    assert block_error == object_error == _old_rules_error(block)
    if block_error is not None:
        return
    assert len(built) == len(expected)
    for got, want in zip(built, expected):
        assert (got.prompt_id, got.domain, got.trajectory_index) == (
            want.prompt_id, want.domain, want.trajectory_index)
        assert got.answer is None
        assert got.tokens == want.tokens and type(got.correct) is int
        assert got.correct == want.correct
        assert _same_bits(got.step_entropies, want.step_entropies)
        assert _same_bits(got.step_logprobs, want.step_logprobs)
        assert _same_bits(got.ctx_ids, want.ctx_ids)
        assert np.shares_memory(got.step_entropies, flat["ent"])
        assert np.shares_memory(got.step_logprobs, flat["lp"])


def test_trajectory_block_rejects_channels_that_do_not_match_lengths():
    block = _block([0.5, 1.0], [-1.0, -1.0], [1, 1])
    with pytest.raises(ValidationError, match="do not match the lengths"):
        trajectory_block(
            block["prompt_ids"], block["indices"], block["domains"], np.array([1, 2]),
            np.array([0.5, 1.0]), np.array([-1.0, -1.0]), np.array([1, 2]),
            np.array([0, 0]), block["correct"],
        )
