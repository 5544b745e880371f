"""Short training runs outside the benchmark still write the same bytes.

``tests/test_golden_digests.py`` pins the benchmark's own configs. The runs
here reach the settings those leave out: three micro-chunks, a larger
kl_cov k_frac, a large learning rate, clip-higher with no upper clip,
context windows 1 and 3, heal under the hti and pl similarities and with a
late EDA start, and kl_cov on general prompts only. At the base learning
rate of 0.05 the fewshot and onlygeneral runs earn no reward and end with a
policy that has barely moved (no logit past 0.006 in magnitude), so their
digests would pin little more than near-uniform entropies. Every such run
here takes the large rate of 20.0 instead, where the policy moves and some
runs earn reward. The heal runs keep the base rate: their policies move as
little, but their reward rates hold the alignment bonus, so their digests
pin the reward path.
Each run's ``metrics.jsonl``, ``policy.bin`` and ``config.echo`` must keep
the SHA-256 digests recorded below, so a change meant to leave outputs
alone (a refactor of the gradient step, the sampler or the reward path) is
checked bit for bit. One micro-chunk is the plain step by construction,
and is checked as that. The whole file runs in well under a second.
"""

import hashlib

import pytest

from heal.simulator import TrainConfig, train

BASE = dict(
    mode="fewshot", n_target=4, batch_size=16, rollouts_per_prompt=4,
    steps=8, log_every=4, max_len=6, eval_prompts=4,
)
MIXED = dict(BASE, n_general=8)

CONFIGS = {
    "kl_cov-chunks3": dict(BASE, regularizer="kl_cov", micro_chunks=3, learning_rate=20.0),
    "kl_cov-k_frac0.01": dict(BASE, regularizer="kl_cov", k_frac=0.01, learning_rate=20.0),
    "entropy_loss-lr20": dict(BASE, regularizer="entropy_loss", learning_rate=20.0),
    "clip_higher-eps_high-inf": dict(
        BASE, regularizer="clip_higher", eps_high=float("inf"), learning_rate=20.0
    ),
    "none-window1": dict(BASE, context_window=1, learning_rate=20.0),
    "mask_8020-window3": dict(
        BASE, regularizer="mask_8020", context_window=3, learning_rate=20.0
    ),
    "heal-hti": dict(MIXED, mode="heal", sim_choice="hti"),
    "heal-pl": dict(MIXED, mode="heal", sim_choice="pl"),
    "onlygeneral-kl_cov": dict(
        BASE, mode="onlygeneral", n_target=0, n_general=8, regularizer="kl_cov",
        learning_rate=20.0,
    ),
    "heal-eda_start3": dict(MIXED, mode="heal", eda_start_step=3),
}

FILES = ("metrics.jsonl", "policy.bin", "config.echo")

# SHA-256 of FILES, in order, per run.
DIGESTS = {
    "kl_cov-chunks3": (
        "38f0506d69c1ac6243249a1f7e26da46e4249b3b8cb8a98ee395a10f0793046c",
        "e4b81f7e9a4acd8dc2f8074787d9279bc54a622b8e9cc3e40f9b11198496d5c3",
        "b4f9e426222d482f7b38d43883149178e66694df62064dd0685a17b8909b247e",
    ),
    "kl_cov-k_frac0.01": (
        "d14d186c6fd8b0e67e02326129d77ca4d8f48e42a0ff647b081bb88b2a367d85",
        "c421ab974368e1fb3400a9b09a97d30c55101c4ce029b3110a877a83f3aec531",
        "0adbab0496024c0557b6fb044b61755929e170419c98a8163f048b4a859d6ebf",
    ),
    "entropy_loss-lr20": (
        "f65c3acef0b0c61fa116a4fa627a432213b5c36c8a3b21c8dabee62a6e4736f5",
        "b01943e90584b11fa9d18f30dbc094fbf0db5516ce5a4c2c071c09883c882d79",
        "49fb742a6fa7908b9788764635fa9e61e94a2f739981f27175ed79a35c868ca4",
    ),
    "clip_higher-eps_high-inf": (
        "ca10d35826aa3ea9070031d4e797a628973f0f4cd257997234817024a61279cd",
        "7288d31c2ca81bcb7f6c2e134fe9085c7173a192affb0e0e0a8102e44ef6e481",
        "7f717229ca1e0c04f00590ff0e947f052faf2198d494f56aab9f2f7e66de9484",
    ),
    "none-window1": (
        "621e04b67f9c7100b5bbe4b8b3401dfda4b825db5ea1698ff803fed2f3f6c4d2",
        "fb0d37755a844d066dee481b88cd0c3d3fadd3a16addf843b0d6b336ea7fc914",
        "74784d5420de67327bf216c18b2e19bbff9e9b4a90b395b9fcde5f4e68908984",
    ),
    "mask_8020-window3": (
        "2f03d6a64bc9b6705710335f356e3d29361990e1c0291f5db3a3d457365e82a1",
        "790877a7a6c1611b87225045db0b16ed75e193e0c44ca11e94c4ba86eccbd790",
        "427cf4150e33a64dd11e8136680423c577bee0b08b1e6a92bcbd03814c9587a7",
    ),
    "heal-hti": (
        "807b1a50230a747c4df6346b30e5925629bc0f1e17537de88fb657b6bb3105ed",
        "968a111bb0cd93da9aadc5672a8f7f30c07cf2f68c183604dba85b3f78041d10",
        "2becefe3d7caaa5c798e49fe1d7b1a46212da7da864374f54189ad9c63331242",
    ),
    "heal-pl": (
        "748288c7a21f80517b9e28eec5d6759f0c0a0f8208a715b293c5d4917bc66182",
        "908723eadf90530c2beb7a943db33f9d1c69403f53de03dcf8fc04953752b4b2",
        "23fe396e5e695ce3f063b18bf4b2b37cc1ce2849a4511039826c7637e486a5cc",
    ),
    "onlygeneral-kl_cov": (
        "a3d7f7eb9bb77e6bf9c0cf40d3af4bfb7437790f1aa04bb0124f9d89019e1e66",
        "7e4b9749abef89b7382710e0a16a1acb2625a9a20170b8f788e2f97caec25e2a",
        "2d43fccd8956f79e7925bd19a75d95f67df77c1ecba28d0ea09b72368aa28365",
    ),
    "heal-eda_start3": (
        "aef0331ec694dd9d005344b6b7b309b45734fe05f8e8090da6ff5756ac9043a2",
        "c02f042585f891b9c4fc242586d5692f14c7abd99e61d32ff89ed87d3d783dbc",
        "4ac93eccf2a7354355b64bed1525dc3a8b14077edc9b6284c44c990a1cbe73fa",
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_outputs_match_recorded_digests(name, tmp_path):
    record = train(TrainConfig(**CONFIGS[name]), tmp_path)
    assert record.status == "completed"
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in FILES)
    assert got == DIGESTS[name]


def test_one_micro_chunk_is_the_plain_step(tmp_path):
    # The first chunk's importance ratios are exactly 1, so clip_higher over
    # one chunk takes the plain objective's step, bit for bit.
    fast = dict(BASE, learning_rate=20.0)
    plain = train(TrainConfig(**fast), tmp_path / "none")
    train(TrainConfig(**fast, regularizer="clip_higher", micro_chunks=1), tmp_path / "chunk")
    assert plain.policy.table.any(), "the policy did not move: the check is empty"
    for f in ("metrics.jsonl", "policy.bin"):
        assert (tmp_path / "chunk" / f).read_bytes() == (tmp_path / "none" / f).read_bytes()
