"""Short training runs outside the benchmark still write the same bytes.

``tests/test_golden_digests.py`` pins the benchmark's own configs. The runs
here reach the settings those leave out: three micro-chunks, a larger
kl_cov k_frac, clip-higher with no upper clip, context windows 1 and 3,
heal under the hti and pl similarities and with a late EDA start, and
kl_cov on general prompts only. At the base learning rate of 0.05 every
one of them ends with a policy that has barely moved (no logit past 0.006
in magnitude), and the fewshot and onlygeneral runs earn no reward, so
their digests would pin little more than near-uniform entropies. All take
the large rate of 20.0 instead, where the policy moves (the heal runs end
with largest logits of 1.1 to 2.2) and the heal runs' reward rates hold
the alignment bonus, so the digests pin the gradient step under every
objective and the reward path.
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
    steps=8, log_every=4, max_len=6, eval_prompts=4, learning_rate=20.0,
)
MIXED = dict(BASE, n_general=8)

CONFIGS = {
    "kl_cov-chunks3": dict(BASE, regularizer="kl_cov", micro_chunks=3),
    "kl_cov-k_frac0.01": dict(BASE, regularizer="kl_cov", k_frac=0.01),
    "entropy_loss-lr20": dict(BASE, regularizer="entropy_loss"),
    "clip_higher-eps_high-inf": dict(BASE, regularizer="clip_higher", eps_high=float("inf")),
    "none-window1": dict(BASE, context_window=1),
    "mask_8020-window3": dict(BASE, regularizer="mask_8020", context_window=3),
    "heal-hti": dict(MIXED, mode="heal", sim_choice="hti"),
    "heal-pl": dict(MIXED, mode="heal", sim_choice="pl"),
    "onlygeneral-kl_cov": dict(
        BASE, mode="onlygeneral", n_target=0, n_general=8, regularizer="kl_cov"
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
        "b3425e4daab09ad3ab5ee1c6c4abd0981f17c1f2bd435fb0cf091f38946b6470",
        "76c5b87e07fd10abc238631ccc9ae54072957023a2555cf0c0fb67945c57c875",
        "9bdae62d825ff1661b861ca9f3f5e5a2e5d19165876839b479a3dfb3f65ebce5",
    ),
    "heal-pl": (
        "32f10a276c547da9655faba084def1ea43280b54c7388dc725348c9a993f864f",
        "d759bf1f3c8c02f4a8936229880606619b7edd9fd52da52a1f9c5e5762777ae5",
        "0fc9eb8604d37be17ff137cd539f8ecdb49f9ad68fdcda71a0d6b7e97415d908",
    ),
    "onlygeneral-kl_cov": (
        "a3d7f7eb9bb77e6bf9c0cf40d3af4bfb7437790f1aa04bb0124f9d89019e1e66",
        "7e4b9749abef89b7382710e0a16a1acb2625a9a20170b8f788e2f97caec25e2a",
        "2d43fccd8956f79e7925bd19a75d95f67df77c1ecba28d0ea09b72368aa28365",
    ),
    "heal-eda_start3": (
        "ff2f59a44b5a5b4a588c81aa558977dd121317658f42ec08e989207dd2d23e45",
        "4e526f0482e96417c7d02ac33cfcf256352937a316038ae79c5c4703a016a2b5",
        "ad53b5f75f9b47794f90a5ba6b663a02816cba0f89c62aa17b78792d3832004d",
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
    plain = train(TrainConfig(**BASE), tmp_path / "none")
    train(TrainConfig(**BASE, regularizer="clip_higher", micro_chunks=1), tmp_path / "chunk")
    assert plain.policy.table.any(), "the policy did not move: the check is empty"
    for f in ("metrics.jsonl", "policy.bin"):
        assert (tmp_path / "chunk" / f).read_bytes() == (tmp_path / "none" / f).read_bytes()
