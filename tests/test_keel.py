import numpy as np
import pytest

from pboost import Dataset
from pboost.errors import (
    MalformedHeader,
    MoreThanTwoClasses,
    NonNumericAttribute,
    TooFewSamples,
)
from pboost.keel import (
    DatasetManifest,
    load_manifest,
    make_2x5_folds,
    parse_csv,
    parse_keel,
    write_csv,
)

from conftest import make_blobs

KEEL_SAMPLE = """\
@relation toy
@attribute A1 real [0.0, 10.0]
@attribute A2 real [0.0, 10.0]
@attribute Class {positive, negative}
@inputs A1, A2
@outputs Class
@data
1.0, 2.0, positive
2.0, 3.0, negative
3.5, 1.5, negative
0.5, 0.5, positive
4.0, 4.0, negative
"""


class TestParseKeel:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "toy.dat"
        path.write_text(KEEL_SAMPLE)
        data = parse_keel(path, "positive")
        assert data.m == 5 and data.n_features == 2
        assert data.m_pos == 2 and data.m_neg == 3
        assert np.array_equal(data.labels, [1, -1, -1, 1, -1])

    def test_case_insensitive_token(self, tmp_path):
        path = tmp_path / "toy.dat"
        path.write_text(KEEL_SAMPLE.replace("positive", " Positive "))
        data = parse_keel(path, "positive")
        assert data.m_pos == 2

    def test_three_classes(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text(KEEL_SAMPLE.replace("4.0, 4.0, negative", "4.0, 4.0, other"))
        with pytest.raises(MoreThanTwoClasses):
            parse_keel(path, "positive")

    def test_missing_value_rejected(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text(KEEL_SAMPLE.replace("2.0, 3.0", "<null>, 3.0"))
        with pytest.raises(NonNumericAttribute):
            parse_keel(path, "positive")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("@attribute A real\n1.0, positive\n")
        with pytest.raises(MalformedHeader):
            parse_keel(path, "positive")

    def test_row_width_checked(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text(KEEL_SAMPLE.replace("1.0, 2.0, positive", "1.0, positive"))
        with pytest.raises(MalformedHeader):
            parse_keel(path, "positive")


class TestCsv:
    def test_round_trip(self, tmp_path):
        data = make_blobs(6, 14)
        path = tmp_path / "data.csv"
        write_csv(data, path)
        back = parse_csv(path, "1")
        assert np.allclose(back.features, data.features)
        assert np.array_equal(back.labels, data.labels)

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,label\n1.0,2.0,yes\n2.0,1.0,no\n")
        data = parse_csv(path, "yes")
        assert data.m == 2 and data.m_pos == 1


class TestManifest:
    def test_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            '{"name": "toy", "path": "toy.dat",'
            ' "positive_label_token": "positive", "expected_lambda": 1.5}'
        )
        manifest = load_manifest(path)
        assert manifest.name == "toy"
        assert manifest.expected_lambda == 1.5

    def test_key_value(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("name=toy\npath=toy.dat\npositive_label_token=positive\n")
        manifest = load_manifest(path)
        assert manifest.positive_label_token == "positive"

    def test_empty_token_rejected(self):
        with pytest.raises(ValueError):
            DatasetManifest(name="x", path="y", positive_label_token="")


class TestMake2x5Folds:
    def test_counts(self):
        data = make_blobs(20, 200)
        reps = make_2x5_folds(data, seed=0)
        assert len(reps) == 10
        for rep in reps:
            train_labels = data.labels[rep.train]
            assert (train_labels == 1).sum() == 8
            assert (train_labels == -1).sum() == 80

    def test_disjoint_and_consistent(self):
        data = make_blobs(20, 60)
        reps = make_2x5_folds(data, seed=1)
        for rep in reps:
            assert np.intersect1d(rep.train, rep.validation).size == 0
            assert np.intersect1d(rep.train, rep.test).size == 0
            assert np.intersect1d(rep.validation, rep.test).size == 0

    def test_validation_folds_cover_design_half(self):
        data = make_blobs(20, 60)
        reps = make_2x5_folds(data, seed=2)
        # first five replications share a design half (train + validation)
        half = np.sort(np.concatenate([reps[0].train, reps[0].validation]))
        union = np.sort(np.unique(np.concatenate([r.validation for r in reps[:5]])))
        assert np.array_equal(union, half)

    def test_deterministic(self):
        data = make_blobs(12, 40)
        a = make_2x5_folds(data, seed=3)
        b = make_2x5_folds(data, seed=3)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.train, rb.train)
            assert np.array_equal(ra.test, rb.test)

    def test_too_few(self):
        data = make_blobs(6, 40)
        with pytest.raises(TooFewSamples):
            make_2x5_folds(data, seed=0)

    def test_lambda_consistent_across_sets(self):
        data = make_blobs(20, 200)
        for rep in make_2x5_folds(data, seed=4):
            for idx in (rep.train, rep.validation, rep.test):
                labels = data.labels[idx]
                lam = (labels == -1).sum() / (labels == 1).sum()
                assert lam == pytest.approx(10.0, abs=0.5)
