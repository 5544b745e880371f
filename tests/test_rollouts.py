"""Trajectory and trajectory_block apply one rule set to a curve and its channels."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from heal.errors import ValidationError
from heal.rollouts import DOMAINS, RolloutGroup, Trajectory, trajectory_block
from heal.trace_io import read_trace_records, write_traces

from trace_oracle import is_id

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
    ("trajectory_index", -1, "p7/-1: trajectory_index"),
    ("trajectory_index", 2.0, "p7/2.0: trajectory_index"),
    ("trajectory_index", True, "p7/True: trajectory_index"),
    ("trajectory_index", np.float64(2.0), "trajectory_index"),
    ("trajectory_index", np.int64(-1), "trajectory_index"),
    # Ids that int64 would truncate (0.5 -> 0), parse, map to 0 or 1, or
    # could not hold; the first bad entry is named.
    ("tokens", [1, 0.5, 0.5], "p7/3: bad token 0.5$"),
    ("tokens", np.full(3, 1.7), r"p7/3: bad token np.float64\(1.7\)$"),
    ("tokens", ["1", 2, 3], "p7/3: bad token '1'$"),
    ("tokens", [1, True, 3], "p7/3: bad token True$"),
    ("tokens", np.ones(3, dtype=bool), r"p7/3: bad token np.True_$"),
    ("tokens", [1, 2**63, 3], f"p7/3: bad token {2**63}$"),
    ("tokens", [1, -2, 3], "p7/3: bad token -2$"),
    ("ctx_ids", np.ones(3, dtype=bool), r"p7/3: bad context id np.True_$"),
    ("ctx_ids", np.array([0.0, 5.0, 7.0]), r"p7/3: bad context id np.float64\(0.0\)$"),
    ("ctx_ids", np.array([0, -1, 7]), r"p7/3: bad context id np.int64\(-1\)$"),
], ids=["empty", "2d", "nan", "inf", "negative", "tokens_length", "ctx_ids_length",
        "logprobs_length", "positive_logprob", "nan_logprob", "unknown_domain", "correct_2",
        "negative_index", "float_index", "bool_index", "numpy_float_index",
        "numpy_negative_index", "float_token", "numpy_float_tokens", "str_token",
        "bool_token", "numpy_bool_tokens", "token_past_int64", "negative_token",
        "bool_ctx_ids", "float_ctx_ids", "negative_ctx_id"])
def test_trajectory_rejects_bad_input(field, value, named):
    Trajectory(**GOOD)  # the unmodified input is accepted
    with pytest.raises(ValidationError, match=named):
        Trajectory(**dict(GOOD, **{field: value}))


_ID_EDGES = [0, 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**70, -1, -(2**63), -(2**63) - 1,
             True, False, 1.0, -0.0, "1"]
_ANY_ID = st.one_of(st.sampled_from(_ID_EDGES), st.integers(-(2**70), 2**70),
                    st.floats(), st.text(max_size=2), st.none())
_ID_DTYPES = [np.int64, np.int32, np.uint64, np.bool_, np.float64]


@st.composite
def id_channels(draw):
    """An id channel of 1-4 entries: a list of integers in [0, 2**63) with at
    most one entry of any kind planted, or a numpy array of any values of one
    of five dtypes."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n))
        if draw(st.booleans()):
            values[draw(st.integers(0, n - 1))] = draw(_ANY_ID)
        return values
    return draw(arrays(draw(st.sampled_from(_ID_DTYPES)), n))


@given(st.sampled_from([("tokens", "token"), ("ctx_ids", "context id")]), id_channels())
@example(("tokens", "token"), np.array([7, 2**63], dtype=np.uint64))
@example(("ctx_ids", "context id"), np.array([3, -1], dtype=np.int32))
@example(("ctx_ids", "context id"), np.array([0, 1], dtype=np.int32))
def test_id_channels_refuse_exactly_what_the_entry_rule_refuses(channel, raw):
    # Both channels take integers >= 0 within int64, not bools, stored as
    # int64 arrays; a refusal names the first entry the per-entry rule refuses.
    name, noun = channel
    kwargs = dict(GOOD, tokens=None, ctx_ids=None, step_logprobs=None,
                  step_entropies=np.ones(len(raw)))
    bad = [v for v in raw if not is_id(v)]
    if bad:
        with pytest.raises(ValidationError) as info:
            Trajectory(**dict(kwargs, **{name: raw}))
        message = f"trajectory p7/3: bad {noun} {bad[0]!r}"
        assert (info.value.field, str(info.value)) == (name, message)
        return
    got = getattr(Trajectory(**dict(kwargs, **{name: raw})), name)
    assert isinstance(got, np.ndarray) and got.dtype == np.int64 and got.ndim == 1
    assert got.tolist() == [int(v) for v in raw]


@pytest.mark.parametrize("prompt_id, domain, members, message", [
    ("p7", "target", [], "group p7: no trajectories"),
    ("p8", "target", [GOOD], "group p8: trajectory p7/3 belongs elsewhere"),
    ("p7", "general", [GOOD], "group p7: mixed domains ('general' vs 'target' on p7/3)"),
    # Each member's constructor checked its domain, so an unknown group tag
    # differs from its members' tags.
    ("p7", "code", [GOOD], "group p7: mixed domains ('code' vs 'target' on p7/3)"),
], ids=["empty", "foreign_prompt", "mixed_domains", "unknown_domain"])
def test_rollout_group_rejects_members_of_another_prompt_or_domain(
    prompt_id, domain, members, message
):
    trajectories = [Trajectory(**kwargs) for kwargs in members]
    assert len(RolloutGroup("p7", "target", [Trajectory(**GOOD)])) == 1
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        RolloutGroup(prompt_id, domain, trajectories)


def test_numpy_integer_index_is_stored_as_int(tmp_path):
    t = Trajectory(**dict(GOOD, trajectory_index=np.int64(2)))
    assert t.trajectory_index == 2 and type(t.trajectory_index) is int
    path = tmp_path / "traces.jsonl"
    write_traces([t], path)
    (back,) = read_trace_records(path)
    assert back.trajectory_id == "p7/2" and type(back.trajectory_index) is int


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
        assert type(got.correct) is int
        assert got.correct == want.correct
        assert _same_bits(got.step_entropies, want.step_entropies)
        assert _same_bits(got.step_logprobs, want.step_logprobs)
        assert _same_bits(got.tokens, want.tokens)
        assert _same_bits(got.ctx_ids, want.ctx_ids)
        assert np.shares_memory(got.step_entropies, flat["ent"])
        assert np.shares_memory(got.step_logprobs, flat["lp"])
        assert np.shares_memory(got.tokens, flat["tokens"])
        assert np.shares_memory(got.ctx_ids, flat["ctx"])


def test_trajectory_block_rejects_channels_that_do_not_match_lengths():
    block = _block([0.5, 1.0], [-1.0, -1.0], [1, 1])
    with pytest.raises(ValidationError, match="do not match the lengths"):
        trajectory_block(
            block["prompt_ids"], block["indices"], block["domains"], np.array([1, 2]),
            np.array([0.5, 1.0]), np.array([-1.0, -1.0]), np.array([1, 2]),
            np.array([0, 0]), block["correct"],
        )
