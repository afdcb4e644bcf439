"""Byte-identity guard: the trained ensemble and its evaluation, per variant.

Each of the 14 variant tokens is trained on one small synthetic data set
(with group ids, so PA runs) and evaluated on the held-out half. The sha256
of the ensemble's JSON record and of its metrics row must stay as pinned: a
change that claims to keep behaviour keeps both. A change that alters the
numbers on purpose re-pins them and says so in CHANGES.md.

The SMO fits above the Gram-cache limit compute kernel rows on demand, a
path the variant data sets are too small to reach; a few small fits with the
limit forced to 0 pin that path's models the same way.
"""

import hashlib
import json

import numpy as np
import pytest

from pboost import svm
from pboost.datagen import SynthConfig, gen_synthetic, split_design_test
from pboost.experiment import (
    ExperimentConfig,
    evaluate_ensemble,
    parse_variant,
    train_variant,
)
from pboost.rng import RngStream
from pboost.svm import LearnerConfig, rbf_kappa_heuristic, train_svm

from conftest import make_blobs

SEED = 5

# token: (sha256 of to_record() JSON, sha256 of the metrics row JSON)
DIGESTS = {
    "ADA": (
        "c8a3ea2d83660f49f8229c2e0e503aae9dc24843ae5a8ec9544725a2a6db6582",
        "f83d003ccfcde9a9767375c302d52cf45d852fad57a791d43270c5b56b226448",
    ),
    "ADA-F": (
        "5f2db4e5ae4be2f4c6536837a45d501e3dab37d8f6da6eaad3f90f29e0495a69",
        "ce66cac45ced05f69ddf36d8a2581b530d13a4834bb435470b8b89bc4b4572e9",
    ),
    "SMT": (
        "968b1db5c74c9249b914ac7e3d575bf4d1e780a83130b3fbbb35f66d54d494fc",
        "20fb05838af5b061c9ff8419a56b7353700daece10298007ee3a7d5e9e409bc0",
    ),
    "SMT-F": (
        "dcc155ec59daca064b011456b9accbb9f5e13e69725fddede830c91b858a3e62",
        "dafb529d3fb4413408f2cc010872bb1488bf7def4d0db860b153292ba14a426b",
    ),
    "RUS": (
        "eec4829224aa138e183216de5caaa213e9e401f4b9419b4a2d5e1e47d526db8e",
        "08186ea27b757f24fc7065d3fd11d887328ee4032829bca02010177ae64f315b",
    ),
    "RUS-F": (
        "cb116caa963aa1777152b2db1d664258ba1c9def071e7d82d038804f0f51e2bb",
        "efb8f97fbb12996f4315cb9335d71d517f2d409003b06af86acb5e610d698601",
    ),
    "RB": (
        "c3f195f27965c0ae3fe54008c07716d10096f5b56f69af6b2f225aa7ed33d03c",
        "7592842f12254e2ebeac853167d90c2f6ee2df1fc067e64fce693f6148afcfb3",
    ),
    "RB-F": (
        "09facd0bf79810b012bb4c0bdde6bce1e93ab8832fef1048ca01be89a3f85c56",
        "bfd1195e40999c2f64e255a7b29ba095efeed84dac229f00d9a49c612ff259a1",
    ),
    "PRUS": (
        "09cee1583aa5289eab8f1543cb86db7624b3ef2909bc1a09b9f648f5dee405a9",
        "fe3e6edadd3d7f1227bec1e1db10b9dc8ee911c994ad2acb88b2b452b9eb0276",
    ),
    "PRUS-F": (
        "3777a40e7201347bd780280d757e7103d0ff036f726a113e06e344a5afd9948d",
        "5e966d3c9b6d48b4fb934a4fb965da8587e763e1b065ae2b0856beccbb49ba11",
    ),
    "PCUS": (
        "cf0be214baba3bda5fa75e805938021d45804fc4c4a643f9024e7c9fceb3a276",
        "fb93a75d2eec542e9afcb93046779fdd3863e24e55d7abf7004e4f6b97a1d865",
    ),
    "PCUS-F": (
        "bb2542e3865477e5240f92481d332cfe42eadd40ba74c217e1733d4cbd1ba04b",
        "e8700a1089a91597a92247cdfa0cdfa1f2cd8220825f3442ca17e88dc8c7f38b",
    ),
    "PA": (
        "f2ca998938811b57cdedfaa887f18dd163d340799e6e07c56f23bec2d99c38e0",
        "6fc2e641b6ef781ec9339ab0a11e4bc9f8d506fe3bbea64f33a09387ed9ca602",
    ),
    "PA-F": (
        "82e506bc61fe3d0864615d0133c276db87b2c4036071077fef17a29585b4c256",
        "6774b13b778b2b5f8f5ff3bc4426a64ef77c38139322c86f3480321b322b8777",
    ),
}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def split():
    data = gen_synthetic(SynthConfig(delta=0.1, t_neg=10, per_cluster=30, seed=SEED))
    design, test = split_design_test(data, RngStream(SEED).child("split"))
    return data.select(design), data.select(test)


@pytest.mark.parametrize("token", list(DIGESTS))
def test_variant_digests(token, split):
    train, test = split
    cfg = ExperimentConfig(
        source="synthetic", variants=(token,), out_dir="unused", ensemble_size=4
    )
    spec = parse_variant(token)
    ensemble = train_variant(
        spec, train, cfg, LearnerConfig(), RngStream(SEED).child(token)
    )
    metrics = evaluate_ensemble(ensemble, test, test, cfg.beta)
    metrics.pop("curve")
    assert (_sha(ensemble.to_record()), _sha(metrics)) == DIGESTS[token]


# name: (positives, negatives, blob separation, seed, C, max_passes,
#        sha256 of the model's to_record() JSON)
UNCACHED_FITS = {
    "duplicates-c1": (
        60, 180, 1.5, 3, 1.0, None,
        "52baf092415df0cc8ed8deb058a163f2345f2a27668b0ea5d7f022c6825c58fd",
    ),
    "c10": (
        30, 90, 1.0, 4, 10.0, None,
        "ba0af14272340d00c71a2c5cb6210e29ef4011fc30ff7d43b980370b5fb10635",
    ),
    "c50": (
        30, 150, 1.5, 5, 50.0, None,
        "9470abd1fd21a3beb057b85c3a972e2fe47300f1034742c7c1ae0bb12ee50d44",
    ),
    "c10-unconverged": (
        40, 360, 1.0, 6, 10.0, 2,
        "fdc7041c419a1ec8b8ea17e5675ef47e650243ee690dbf293f6924913dd7cab1",
    ),
}


@pytest.mark.parametrize("name", list(UNCACHED_FITS))
def test_uncached_smo_digests(name, monkeypatch):
    n_pos, n_neg, separation, seed, c, max_passes, digest = UNCACHED_FITS[name]
    monkeypatch.setattr(svm, "_KERNEL_CACHE_LIMIT", 0)
    data = make_blobs(n_pos, n_neg, separation=separation, seed=seed, d=3)
    x, y = data.features, data.labels
    if name.startswith("duplicates"):
        idx = np.concatenate([np.arange(y.size), np.arange(0, y.size, 7)])
        x, y = x[idx], y[idx]
    model = train_svm(
        x,
        y,
        LearnerConfig(c_penalty=c, max_passes=max_passes),
        rbf_kappa_heuristic(x),
        RngStream(seed).child(name),
    )
    assert model.converged == (max_passes is None)
    assert _sha(model.to_record()) == digest
