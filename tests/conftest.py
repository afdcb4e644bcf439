import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pboost import Dataset, RngStream
from pboost import data as data_module


@pytest.fixture
def rng():
    return RngStream(1234)


def make_blobs(n_pos, n_neg, separation=4.0, seed=0, d=2):
    """Two well-separated Gaussian blobs as a Dataset."""
    gen = np.random.default_rng(seed)
    pos = gen.normal(0.0, 1.0, (n_pos, d))
    neg = gen.normal(separation, 1.0, (n_neg, d))
    features = np.vstack([pos, neg])
    labels = np.concatenate(
        [np.ones(n_pos, dtype=np.int64), -np.ones(n_neg, dtype=np.int64)]
    )
    return Dataset(features, labels)


def write_csv(data: Dataset, path) -> None:
    """Write rows the parse_csv reader accepts: features then a ±1 label."""
    with open(path, "w") as fh:
        for row, label in zip(data.features, data.labels):
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write(f",{int(label)}\n")


@pytest.fixture
def sq_dists_entries(monkeypatch):
    """The entry count (rows of a times rows of b) of every data.sq_dists
    call made while the test runs, in call order."""
    entries = []
    inner = data_module.sq_dists

    def counting(a, b):
        entries.append(a.shape[0] * b.shape[0])
        return inner(a, b)

    monkeypatch.setattr(data_module, "sq_dists", counting)
    return entries


@pytest.fixture
def blobs():
    return make_blobs(25, 100)


def integer_grid(n, rows_per_block, seed):
    """n rows of small-integer coordinates, where every product and sum in a
    squared distance is exact. Row b * rows_per_block repeats the row before
    it, so a duplicated pair straddles every block boundary."""
    x = np.random.default_rng(seed).integers(-20, 21, (n, 3)).astype(np.float64)
    x[rows_per_block::rows_per_block] = x[rows_per_block - 1 : -1 : rows_per_block]
    return x
