"""Two-dimensional synthetic generator: one positive Gaussian blob at the
origin surrounded by a ring of negative Gaussian clusters at a margin."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import UnknownSetting
from .rng import RngStream

POSITIVE_GROUP = 0  # sentinel group id carried by positive samples

_SETTINGS = {
    "D1": {"lambda_train": 50.0, "delta": 0.2},
    "D2": {"lambda_train": 50.0, "delta": 0.1},
    "D3": {"lambda_train": 20.0, "delta": 0.2},
}


@dataclass(frozen=True)
class SynthConfig:
    delta: float
    t_neg: int = 100
    per_cluster: int = 100
    lambda_train: float = 50.0
    seed: int = 0
    # Radial band for negative cluster means: the band starts inner_standoff
    # beyond the margin so the nearest clusters overlap the positive tails
    # without sitting inside the blob, and extends outer_radius further out.
    inner_standoff: float = 2.0
    outer_radius: float = 12.0

    def __post_init__(self):
        if self.delta <= 0 or self.t_neg < 1 or self.per_cluster < 1:
            raise ValueError("invalid synthetic configuration")
        if self.inner_standoff < 0 or self.outer_radius <= 0:
            raise ValueError("invalid radial band")


def make_setting(name: str, seed: int = 0) -> SynthConfig:
    """Named settings: D1 (1:50, 0.2), D2 (1:50, 0.1), D3 (1:20, 0.2)."""
    try:
        params = _SETTINGS[name]
    except KeyError:
        raise UnknownSetting(f"unknown setting {name!r}; expected D1, D2, or D3")
    return SynthConfig(seed=seed, **params)


def gen_synthetic(cfg: SynthConfig) -> Dataset:
    """Generate the full positive blob plus every negative cluster.

    Positives are N((0,0), I) with group id 0; cluster j of negatives is
    N(m_j, I) with group id j. Cluster means are uniform over the annulus
    with radii [delta + inner_standoff, delta + inner_standoff +
    outer_radius] (area-uniform, so the density of means does not pile up
    at the inner edge); every mean therefore keeps at least the margin
    delta from the positive mean.
    """
    gen = RngStream(cfg.seed).child("synth").generator()
    pos = gen.standard_normal((cfg.per_cluster, 2))
    angles = gen.uniform(0.0, 2.0 * np.pi, size=cfg.t_neg)
    r_in = cfg.delta + cfg.inner_standoff
    r_out = r_in + cfg.outer_radius
    radii = np.sqrt(
        gen.uniform(0.0, 1.0, size=cfg.t_neg) * (r_out**2 - r_in**2) + r_in**2
    )
    means = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    neg_blocks = [
        means[j] + gen.standard_normal((cfg.per_cluster, 2)) for j in range(cfg.t_neg)
    ]
    features = np.vstack([pos] + neg_blocks)
    labels = np.concatenate(
        [
            np.ones(cfg.per_cluster, dtype=np.int64),
            -np.ones(cfg.t_neg * cfg.per_cluster, dtype=np.int64),
        ]
    )
    group_ids = np.concatenate(
        [np.full(cfg.per_cluster, POSITIVE_GROUP, dtype=np.int64)]
        + [np.full(cfg.per_cluster, j + 1, dtype=np.int64) for j in range(cfg.t_neg)]
    )
    return Dataset(features, labels, group_ids)


def split_design_test(data: Dataset, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Halve every group at random, preserving group ids on both sides.

    Returns (design indices, test indices). Odd groups put the extra sample
    on the design side.
    """
    if data.group_ids is None:
        raise ValueError("design/test split needs group ids")
    gen = rng.generator()
    design, test = [], []
    for gid in np.unique(data.group_ids):
        idx = gen.permutation(np.flatnonzero(data.group_ids == gid))
        half = (idx.size + 1) // 2
        design.append(idx[:half])
        test.append(idx[half:])
    return np.sort(np.concatenate(design)), np.sort(np.concatenate(test))
