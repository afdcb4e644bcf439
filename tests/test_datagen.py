import numpy as np
import pytest

from pboost import RngStream
from pboost.datagen import (
    POSITIVE_GROUP,
    SynthConfig,
    gen_synthetic,
    make_setting,
    split_design_test,
)
from pboost.sampling import partition_apriori


class TestMakeSetting:
    def test_d1(self):
        cfg = make_setting("D1")
        assert cfg.lambda_train == 50.0 and cfg.delta == 0.2

    def test_d2(self):
        cfg = make_setting("D2")
        assert cfg.lambda_train == 50.0 and cfg.delta == 0.1

    def test_d3(self):
        cfg = make_setting("D3")
        assert cfg.lambda_train == 20.0 and cfg.delta == 0.2

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown setting 'D9'; expected D1, D2, or D3"):
            make_setting("D9")


class TestGenSynthetic:
    def test_paper_scale_counts(self):
        data = gen_synthetic(SynthConfig(delta=0.2, t_neg=100, per_cluster=100))
        assert data.m_pos == 100
        assert data.m_neg == 10000
        assert np.unique(data.group_ids[data.labels == -1]).size == 100

    def test_cluster_margin(self):
        cfg = SynthConfig(delta=0.7, t_neg=40, per_cluster=50, seed=5)
        data = gen_synthetic(cfg)
        for gid in range(1, cfg.t_neg + 1):
            block = data.features[data.group_ids == gid]
            center = block.mean(axis=0)
            # empirical mean of 50 draws stays within ~4 sigma/sqrt(50) of m_j,
            # and ||m_j|| >= delta, so allow that much slack
            assert np.linalg.norm(center) >= cfg.delta - 4.0 / np.sqrt(50)

    def test_deterministic(self):
        cfg = SynthConfig(delta=0.2, t_neg=10, per_cluster=20, seed=9)
        a = gen_synthetic(cfg)
        b = gen_synthetic(cfg)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.group_ids, b.group_ids)

    def test_positive_mean_near_origin(self):
        data = gen_synthetic(SynthConfig(delta=0.2, t_neg=1, per_cluster=10000))
        pos_mean = data.features[data.labels == 1].mean(axis=0)
        assert np.all(np.abs(pos_mean) < 4.0 / np.sqrt(10000))

    def test_group_sizes_feed_apriori_partitioning(self):
        cfg = SynthConfig(delta=0.3, t_neg=7, per_cluster=15, seed=2)
        data = gen_synthetic(cfg)
        neg_gids = data.group_ids[data.labels == -1]
        part = partition_apriori(neg_gids)
        assert len(part.parts) == 7
        assert part.sizes == [15] * 7
        assert np.array_equal(np.sort(np.concatenate(part.parts)), np.arange(7 * 15))


class TestSplitDesignTest:
    def test_halves_preserve_groups(self):
        cfg = SynthConfig(delta=0.2, t_neg=6, per_cluster=10, seed=3)
        data = gen_synthetic(cfg)
        design, test = split_design_test(data, RngStream(4))
        assert design.size + test.size == data.m
        assert np.intersect1d(design, test).size == 0
        for gid in range(cfg.t_neg + 1):
            members = np.flatnonzero(data.group_ids == gid)
            assert np.intersect1d(design, members).size == 5
            assert np.intersect1d(test, members).size == 5

    def test_positive_sentinel_distinct_from_clusters(self):
        data = gen_synthetic(SynthConfig(delta=0.2, t_neg=3, per_cluster=5))
        assert np.all(data.group_ids[data.labels == 1] == POSITIVE_GROUP)
        assert np.all(data.group_ids[data.labels == -1] > POSITIVE_GROUP)
