"""Short training runs outside the benchmark still write the same bytes.

``tests/test_golden_digests.py`` pins the benchmark's own configs. The runs
here reach the settings those leave out: mask_8020 with its reference KL
term, one and three micro-chunks, a larger kl_cov k_frac, a large learning
rate, clip-higher with no upper clip, context windows 1 and 3, heal under
the hti and pl similarities and with a late EDA start, and kl_cov on
general prompts only. Each run's ``metrics.jsonl``, ``policy.bin`` and
``config.echo`` must keep the SHA-256 digests recorded below, so a change
meant to leave outputs alone (a refactor of the gradient step, the sampler
or the reward path) is checked bit for bit. The whole file runs in well
under a second.
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
    "mask_8020-ref-kl": dict(BASE, regularizer="mask_8020", mask_ref_kl=True),
    "clip_higher-chunks1": dict(BASE, regularizer="clip_higher", micro_chunks=1),
    "kl_cov-chunks3": dict(BASE, regularizer="kl_cov", micro_chunks=3),
    "kl_cov-k_frac0.01": dict(BASE, regularizer="kl_cov", k_frac=0.01),
    "entropy_loss-lr20": dict(BASE, regularizer="entropy_loss", learning_rate=20.0),
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
    "mask_8020-ref-kl": (
        "4153c775d105a74b5bdde5ff5fa13733d92bcabfebf5da8817a0d00e5f1ce12f",
        "4660234e483b8332aa3291c863daa3e96de185f87d4ba334814c98506e0cef2e",
        "4421ce6e090db43f8ac1563e0dd041d9573b2d5379443d914d3c6faad37ec951",
    ),
    "clip_higher-chunks1": (
        "9d23af73eca242b9328b66ccf8737e39f83b188f723f0542f26fc5c4a26f21cb",
        "c0bccd8abda6ebd74eb830af685e180c0450834373c943ab6c27481f060c9582",
        "ea75e1b428d7ee2ce96dc60558a26572466864c81bae17ea84bcf00f9fad03bb",
    ),
    "kl_cov-chunks3": (
        "9d23af73eca242b9328b66ccf8737e39f83b188f723f0542f26fc5c4a26f21cb",
        "c0bccd8abda6ebd74eb830af685e180c0450834373c943ab6c27481f060c9582",
        "00957549a1cc78533baf5baf1816470ccc02c16ccb41e826d9449756f6b802d6",
    ),
    "kl_cov-k_frac0.01": (
        "6529700fea6f6f7123bdafd5904c0fa540ef6248822da75cfc9b0d2168127467",
        "028bba4343bd830d2d318877923f9cbb2941b611a902b020e6f38245824b2702",
        "b0e416e6ce8a0214d688c7ebb00ab71a546a11dab5e3981d8c7e1382129d8c23",
    ),
    "entropy_loss-lr20": (
        "f65c3acef0b0c61fa116a4fa627a432213b5c36c8a3b21c8dabee62a6e4736f5",
        "b01943e90584b11fa9d18f30dbc094fbf0db5516ce5a4c2c071c09883c882d79",
        "d8a0e1784cb2557122bb30cc5fbe81b12eb8668bdeed04ba1aada666fcd21370",
    ),
    "clip_higher-eps_high-inf": (
        "9d23af73eca242b9328b66ccf8737e39f83b188f723f0542f26fc5c4a26f21cb",
        "c0bccd8abda6ebd74eb830af685e180c0450834373c943ab6c27481f060c9582",
        "a39740486309dd96d15297092c74a4e0c3efed1073cffc5b05a33dc84045c3e6",
    ),
    "none-window1": (
        "2870afb517606d5800209faf62abff93e2ff3a390a3583058db8f5bf9b7907f9",
        "9aa5fb1bfcd88944f753c7cf3e381c8aafff6ceeb30de50912f6886b0fa0262d",
        "dba623174c20cf6b47d2b92440b383a684cb0aaad960b702427a9c7e9df8e53a",
    ),
    "mask_8020-window3": (
        "0bb8fe9e3a7f957a10de1ab325d332cd9825be4f7e0cb9b535cfda6d00c4c2e1",
        "9374796283a935b653bba69107d7a346cb492d0feef5defe543758009b78ddb1",
        "b4645d382b98d17afc3e5ce78e549d43a7f3582b91b91e702105aaef11aba9f0",
    ),
    "heal-hti": (
        "807b1a50230a747c4df6346b30e5925629bc0f1e17537de88fb657b6bb3105ed",
        "968a111bb0cd93da9aadc5672a8f7f30c07cf2f68c183604dba85b3f78041d10",
        "c2458130a52620afb558ddf63b1581fdba52e3d5f10fe95879076b90772d01ee",
    ),
    "heal-pl": (
        "748288c7a21f80517b9e28eec5d6759f0c0a0f8208a715b293c5d4917bc66182",
        "908723eadf90530c2beb7a943db33f9d1c69403f53de03dcf8fc04953752b4b2",
        "6ee3b8aa1864c419bd947341424e90aba2196115350a97d44a31b4e30621e061",
    ),
    "onlygeneral-kl_cov": (
        "266335839e6184bf568266cef05e3028f3eadc399c2a49404c94643cf2cbde73",
        "4ce1aa34f76f3762b3e452cf8585ea603d04b5134f67231e9a1aaa147b106753",
        "c9b0b455f55e5fea4fb603d59a5c36a54c3229adf2203899d17da821f14af109",
    ),
    "heal-eda_start3": (
        "aef0331ec694dd9d005344b6b7b309b45734fe05f8e8090da6ff5756ac9043a2",
        "c02f042585f891b9c4fc242586d5692f14c7abd99e61d32ff89ed87d3d783dbc",
        "7604c14ca0c4e540d59fe24e41e04e3cee51b6491273405ae6880ce7b083d17d",
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_outputs_match_recorded_digests(name, tmp_path):
    record = train(TrainConfig(**CONFIGS[name]), tmp_path)
    assert record.status == "completed"
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in FILES)
    assert got == DIGESTS[name]
