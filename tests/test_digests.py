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
        "fddbaf9cd053f6a74e9622060bebf2797b18ede7941dfdeeb26ffbab4bb7be73",
        "2968a9beea9466cdc25be06aa4b33db8beca4d33c4b8eb40af12ea65e466737f",
    ),
    "ADA-F": (
        "1ff355e55bea7beefee3da72bc4c1fe9ced195e3ec9518aa2648ad629d65b8ca",
        "9800a448c65f7d678ff83cefbc9f0191573cacf8e580a4d04f90e5ebf37a6002",
    ),
    "SMT": (
        "929cb2fbb486b5eb7e06422362e6b18b6cd003a235976d159678ad3786bbf1e6",
        "ee916d33e39232f21426cb922b2f97d936a2c47c054cde30ab797d013a46d47a",
    ),
    "SMT-F": (
        "93d7481bd8751df0c1b1778d26685e80db390baf01b60e04024019b0f8815eba",
        "9f6f60af7191d64d201aa100c326045d17fccdcbb8f7db0ea1d7e82fe7f9989c",
    ),
    "RUS": (
        "2c6330025df0a8e3e680b6d2b86316c9910d8a6b248f3b4f8e0566c68b2aa7b9",
        "e67b7de990d43a1b3b982ce33d622f9fd8e841b939c314dd996423c50183e1ff",
    ),
    "RUS-F": (
        "7893a5832076c870659e79a62aa040a5f1da859358b3d9f82eb8131f6cf5dcac",
        "34959aba85851b16c2649db8d7b002a759171e82051f73d0ce63b50e7e85d212",
    ),
    "RB": (
        "28d4133f092515be1539a5db3a8b86e2d6f499d67c645dee305412d2a70ddb03",
        "4f7f6a45f9e7cdeb9f91c84a9ee959a2ef51d9433ab88c9379f60387a1cd6c61",
    ),
    "RB-F": (
        "8630c87727f7cad100807d5608386b55b12b72030f09df1d26c8dbfc57e1f7dc",
        "6ef242466f3cc675a44c9903aa761660a2ffe6677b20e9459de0961d67ae5740",
    ),
    "PRUS": (
        "072b3713e5f60da26772cba1f7274fe26356b1a37efd1aa36fe15eee68d3edc8",
        "3e59d4a389da29d74526f7f27a3a9dbef0ead913037a2e69cfafa3db921227fc",
    ),
    "PRUS-F": (
        "a1990d4aeabfcf37fe531d237dc4440c149063458d972b80ccff871cc6759070",
        "9bd716a728a868e46036c6adcf0b7d63f3cbd3fd119dde6c29e49a701bf7134c",
    ),
    "PCUS": (
        "d202525433542e93016d233ddf312660a4ed8bcd4e0bf11b1f2a0725d90f9a71",
        "520c967fb0813690863118e547128db5933933e46151d88d9fd15e82d0ad1bb4",
    ),
    "PCUS-F": (
        "18c1018dbb795f268e30d2d4341d0d9f8a21da26a68e2a0111c6695b369f1136",
        "b9cf7a9f6a5e14cdc405e6aa16ec5e33499d8edb692a3c9816d3e88785ece4e2",
    ),
    "PA": (
        "d7451e1247f82bb6d9d68ed1dfd120df1fcbe2c37c0fb408fd835400512b029b",
        "6f4f19c910b0f9461ed18ead993d4f528c7fa26f13b25ce43c41eb925cf3d2e5",
    ),
    "PA-F": (
        "d9530e92a3b01dc50e51c308c575cfe823c502dccab3accb5ade23f941c4ead8",
        "37d2399ec021ed96729f9b213d82652264b01ac87feb92ad9080a796395d8646",
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
        "7d96aa21ae06be36353e1b5869b0767fb6d464cb80d5b5cbd1a4c5494fbb7530",
    ),
    "c10": (
        30, 90, 1.0, 4, 10.0, None,
        "d80fb0a341e01a4553d1020f6ce43ffd54cd0a82b2340898925f9434de86b031",
    ),
    "c50": (
        30, 150, 1.5, 5, 50.0, None,
        "4dc4705ae3a205492eaea449aa4de13bcd1a9927de6828e1064ad1fed45f40f7",
    ),
    "c10-unconverged": (
        40, 360, 1.0, 6, 10.0, 2,
        "07d3c0ce8c5afeca27b24b9b9d40b188731c2cd115d479102ec7f2469a861502",
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
    "c3-set": "9f2789001d7c8685643580144c8c952c9950be0be7c13f0d0d7c4c4e83d693e1",
    "c3-resample": "d1ff178def870ce1b7fcc225fe34891ac13184c2c0119c4f03e47fc873b47d0c",
    "c3-balanced": "e2c33df82805cf9a49605ab6ee8c287cd9d6006b515b8c5fa956cccd18013b62",
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


# D1, seed 0, replications 0-9, the PCUS-F streams: the k that partition_cus
# chooses on each training set's negatives, and the sha256 over the bytes of
# every part of every replication, in order
PCUS_KS = [19, 9, 16, 18, 20, 20, 9, 20, 17, 16]
PCUS_PARTS_DIGEST = "96b21f6f8eca40bf8766d1f76f51930208f0b2b7ce9ccd976b3a7a8721d2f6fc"


def test_pcus_partition_digests():
    cfg = ExperimentConfig(
        source="synthetic", variants=("PCUS-F",), out_dir="unused", setting="D1"
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
    assert (ks, sha.hexdigest()) == (PCUS_KS, PCUS_PARTS_DIGEST)


# sha256 over every file of one run directory, each as its relative path, a
# NUL byte and its bytes, in sorted order
RUN_DIR_DIGEST = "3b274a697f57096f3373033010d831c16769467271317494be7637f60fa92fdb"


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
