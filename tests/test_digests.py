"""Byte-identity guard: the trained ensemble and its evaluation, per variant.

Each of the 14 variant tokens is trained on one small synthetic data set
(with group ids, so PA runs) and evaluated on the held-out half. The sha256
of the ensemble's JSON record and of its metrics row must stay as pinned: a
change that claims to keep behaviour keeps both. A change that alters the
numbers on purpose re-pins them and says so in CHANGES.md.

A few direct SMO fits pin the solver's models the same way: duplicated
rows, several penalties, and one fit whose pass budget runs out; three more
pin fits the size of the criterion-3 benchmark's.

The 2 x 5 protocol is pinned as the bytes of every replication that
`load_replications` builds, for one synthetic and one CSV source.

The k-means partitions that PCUS chooses on D1 are pinned as the chosen k
and the bytes of the parts, for all ten replications.

One whole `run_experiment` directory (results, complexity, aggregate,
summary, PR curves and --dump-models JSON) is pinned file by file.
"""

import hashlib
import json

import numpy as np
import pytest

from pboost.datagen import SynthConfig, gen_synthetic, split_design_test
from pboost.experiment import (
    ExperimentConfig,
    evaluate_ensemble,
    load_replications,
    parse_variant,
    run_experiment,
    train_variant,
)
from pboost.rng import RngStream
from pboost.sampling import default_k_range, partition_cus
from pboost.svm import LearnerConfig, rbf_kappa_heuristic, train_svm

from conftest import make_blobs, write_csv

SEED = 5

# token: (sha256 of to_record() JSON, sha256 of the metrics row JSON)
DIGESTS = {
    "ADA": (
        "896e7e886d7e2d64a90b232ccfc0a3add6ffc94cd879584bcc179478f3d13174",
        "02f50a25e87e8ee049c0f30e4d8c251b0ca82480e119e21e784b70968ff25fc5",
    ),
    "ADA-F": (
        "c74717d0b6027068c92805925b112ba5ccc4af63ee28bba4c9bfc2d92628fe41",
        "821f413888417ce24b715c991520c029e9a1cd8c759f7ef240a623eb8662b67c",
    ),
    "SMT": (
        "630f3b373cbbe8c9bbdac0a361b468670c08696a0ad27b3b4e874507b7362890",
        "aa58f969c15d41311950b6d6c4a66c2da4ba848ca833540d478228616379161c",
    ),
    "SMT-F": (
        "b8b70041f338a054dc36588d1b3c002803b37538666e730480087b6974a5be6f",
        "ad49eb727bdb0735ff03212de9982f9aceebd0e11d02eaccf10ad04f7d759c76",
    ),
    "RUS": (
        "c01c72d8c1ba3fba3e9646a5e002474e2d52eb8ebef3627fb516d2255a098262",
        "8f5ce3fcdfd6d5abe3a16a1467aad6be85a2a6e69057331c09e541acf4dd167b",
    ),
    "RUS-F": (
        "91c43e91dbb906b486d90228d90d4280a80cd6298b7a642c1ed46d1aa1902bc2",
        "15648b375bce96c8f21c8d661a4053e33aca825de73c370dc99963411bee68a4",
    ),
    "RB": (
        "e735798875ce681b77462922583493ce52bbd8058780989dd65c449af46cbd47",
        "7c4b33e175f7c69cc274d6fb2609ffb7fb5dd9d92f3780b50388f60ae989c2f1",
    ),
    "RB-F": (
        "44737d3132d9a53eff6fb4ae8c5129f1298cf222cea481e72b7a518a89c7a5a9",
        "495fa711faec8560d2c4a8a39804f25181db59ddee8f26889e91a22984965714",
    ),
    "PRUS": (
        "496e7ee538f47edbc49624cc440f730c6ccfd88da027cfa769281e8e541a990d",
        "b6aa52f74af50cbb088ddf12a3ad5929b1e44fd0e0d3d014e460c58a1ddc0fb0",
    ),
    "PRUS-F": (
        "8c087d5e9623c5eee78e3ae32f5aa239d531d0889401ba2110fbde1f946a567e",
        "1298dc075c6dfe9485912f146bcfcb5e4483c1bb3945fd2b533a9c3e9b7d8225",
    ),
    "PCUS": (
        "16b11854b7ffde4dba921b924d822a9f333c27cfa6662b9f2addb9d9b9680f90",
        "51a0fb99c7f0dfb6402fc752f8cdd31aac1109ca46896dbe505fc06da7141138",
    ),
    "PCUS-F": (
        "28f619230c090d7de415ba5094a1992f164f949d1d6e51ed45389b3099fd1cb7",
        "201ca04b3f7a5607ed506b158be84e820395b7b6c53e6d8117e92303a6c5443b",
    ),
    "PA": (
        "13c320def57bf63504cf7ffc3b7365a810def18db9acf00c495fcb2ebe31b24d",
        "6f4f19c910b0f9461ed18ead993d4f528c7fa26f13b25ce43c41eb925cf3d2e5",
    ),
    "PA-F": (
        "543f4dbf6522410575fd45b676735797bda1cadbb59a8f9fae2dec17bc352c86",
        "f40a58686735483e741c3379f393487b1ae9ddb2ff471b03311f37abaf40ee38",
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
SMO_FITS = {
    "duplicates-c1": (
        60, 180, 1.5, 3, 1.0, None,
        "92b9f944695503f35fce746fa153713888b3ba7660e2c144614e011897bf7ed1",
    ),
    "c10": (
        30, 90, 1.0, 4, 10.0, None,
        "6f87259187a0c9fc58b390877e4985ced8dcdea127b2456c04ec2dcfa247d1d7",
    ),
    "c50": (
        30, 150, 1.5, 5, 50.0, None,
        "3eb7a99915987dd333511ec2cfcbfbb828bdfd42402c53dc71091733cc8e4853",
    ),
    "c10-unconverged": (
        40, 360, 1.0, 6, 10.0, 2,
        "54d05e5a0df1e1161a66b50b3bb026633312ed759270add3bea13d22663574b6",
    ),
}


@pytest.mark.parametrize("name", list(SMO_FITS))
def test_smo_digests(name):
    n_pos, n_neg, separation, seed, c, max_passes, digest = SMO_FITS[name]
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
    )
    assert model.converged == (max_passes is None)
    assert _sha(model.to_record()) == digest


# The criterion-3 training set (100 positives, 5000 negatives) fitted at the
# benchmark's C = 50, max_passes = 10: as drawn, resampled with replacement
# (rng 4, as the kernel-width tests draw it), and balanced to 10 000 rows by
# repeating each positive 50 times, the size of a SMOTE member.
# name: sha256 of the model's to_record() JSON
C3_FITS = {
    "c3-set": "f4bccee755088cf6202d0687f2e9f227a69555a234d6bad0a44163a5e415fbbc",
    "c3-resample": "4946a52884c5f58bdfe5792ce1b897b85442ad9e9f584981e4d8e8692182887b",
    "c3-balanced": "9cf0dedae9b4a2be235604873d4012fd59a9b650548995daab9319f9fa8ca1ba",
}


@pytest.fixture(scope="module")
def c3_set():
    return gen_synthetic(SynthConfig(delta=0.1, t_neg=50, per_cluster=100, seed=0))


@pytest.mark.parametrize("name", list(C3_FITS))
def test_c3_smo_digests(name, c3_set):
    if name == "c3-set":
        idx = np.arange(c3_set.m)
    elif name == "c3-resample":
        idx = np.random.default_rng(4).integers(c3_set.m, size=c3_set.m)
    else:
        idx = np.concatenate([np.repeat(c3_set.pos_indices, 50), c3_set.neg_indices])
    x, y = c3_set.features[idx], c3_set.labels[idx]
    model = train_svm(
        x, y, LearnerConfig(c_penalty=50.0, max_passes=10), rbf_kappa_heuristic(x)
    )
    assert model.converged
    assert _sha(model.to_record()) == C3_FITS[name]


# source: sha256 over the features, labels and group ids of the train set,
# validation pool and test pool of all ten replications, in order
PROTOCOL_DIGESTS = {
    "synthetic": "6adc68741c8a66b72d2c51ce825f6d05a83c19cc8f8e26945fce4e6189545067",
    "csv": "9ab91edc078c63dc035c78b87b805af9e9cb7096e87ac63e9a4d91e0daa8d782",
}


@pytest.mark.parametrize("source", list(PROTOCOL_DIGESTS))
def test_protocol_digests(source, tmp_path):
    if source == "synthetic":
        cfg = ExperimentConfig(
            source="synthetic", variants=("RUS",), out_dir="unused", setting="D1"
        )
    else:
        path = tmp_path / "blobs.csv"
        write_csv(make_blobs(24, 240, separation=5.0, seed=3), path)
        cfg = ExperimentConfig(
            source="csv", variants=("RUS",), out_dir="unused",
            data_path=str(path), positive_token="1", seed=7,
        )
    reps = load_replications(cfg)
    assert len(reps) == 10
    sha = hashlib.sha256()
    for rep in reps:
        for part in (rep.train, rep.validation_pool, rep.test_pool):
            for arr in (part.features, part.labels, part.group_ids):
                if arr is not None:
                    sha.update(arr.tobytes())
    assert sha.hexdigest() == PROTOCOL_DIGESTS[source]


# D1, D2 and D3, seed 0, replications 0-9, the PCUS-F streams: the k that
# partition_cus chooses on each training set's negatives, and the sha256 over
# the bytes of every part of every replication, in order
PCUS_KS = [19, 9, 16, 18, 20, 20, 9, 20, 17, 16]
PCUS_PARTS_DIGEST = "96b21f6f8eca40bf8766d1f76f51930208f0b2b7ce9ccd976b3a7a8721d2f6fc"
PCUS_PINS = {
    "D1": (PCUS_KS, PCUS_PARTS_DIGEST),
    "D2": (
        [19, 12, 18, 18, 20, 16, 18, 20, 18, 18],
        "058d3efdcf53c9c99615f30d38d5312a933ef79c947562a6b7364500fc729584",
    ),
    "D3": (
        [11, 12, 10, 10, 10, 12, 12, 2, 12, 12],
        "afaa2e127a21d6b0f8d9f51bb2e3b1e6af3b58a8affcfaf07eb41b42709690a9",
    ),
}


def test_pcus_partition_digests():
    got = {}
    for setting in PCUS_PINS:
        cfg = ExperimentConfig(
            source="synthetic", variants=("PCUS-F",), out_dir="unused", setting=setting
        )
        ks = []
        sha = hashlib.sha256()
        for rep in load_replications(cfg):
            stream = RngStream(cfg.seed).child("rep", rep.index, "PCUS-F").child("part")
            train = rep.train
            part = partition_cus(
                train.features[train.neg_indices], default_k_range(train.m_neg), stream
            )
            ks.append(part.count)
            for p in part.parts:
                sha.update(p.tobytes())
        got[setting] = (ks, sha.hexdigest())
    assert got == PCUS_PINS


# sha256 over every file of one run directory, each as its relative path, a
# NUL byte and its bytes, in sorted order
RUN_DIR_DIGEST = "1a38ad5e4e807f37765b13e64f4b750bf2cceb6e68ca7a7db5b3fc002508dd93"


def test_run_directory_digest(tmp_path):
    path = tmp_path / "blobs.csv"
    write_csv(make_blobs(24, 240, separation=5.0, seed=3), path)
    cfg = ExperimentConfig(
        source="csv", variants=("RUS", "PRUS-F", "PCUS-F", "RB-F", "SMT", "ADA-F"),
        out_dir=str(tmp_path / "out"), data_path=str(path), positive_token="1",
        seed=7, ensemble_size=2, lambda_tests=(1.0, 3.0), dump_models=True,
    )
    out = run_experiment(cfg, LearnerConfig(max_passes=30))
    sha = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        if p.is_file():
            sha.update(p.relative_to(out).as_posix().encode() + b"\0")
            sha.update(p.read_bytes())
    assert sha.hexdigest() == RUN_DIR_DIGEST
