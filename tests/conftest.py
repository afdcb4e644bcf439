import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pboost import Dataset, RngStream
from pboost import data as data_module
from pboost import sampling as sampling_module
from pboost import svm as svm_module


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
    """The entry count of every distance block data._sq_dist_blocks fills
    while the test runs, in order: sq_dists and every blocked reduction."""
    entries = []
    inner = data_module._sq_dist_blocks

    def counting(*args, **kwargs):
        for start, block in inner(*args, **kwargs):
            entries.append(block.size)
            yield start, block

    for module in (data_module, sampling_module, svm_module):
        monkeypatch.setattr(module, "_sq_dist_blocks", counting)
    return entries


# Rows per distance block for the 300-row integer grids: one row, seven, a
# short last block, one block, and the default size.
BLOCK_ROWS = [1, 7, 299, 300, pytest.param(None, id="default")]


def set_block_rows(monkeypatch, rows, width):
    """Patch data._BLOCK to blocks of `rows` rows against `width` rows of b
    (None keeps the default size); return the rows per block."""
    if rows is not None:
        monkeypatch.setattr(data_module, "_BLOCK", rows * width)
    return max(1, data_module._BLOCK // width)


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
