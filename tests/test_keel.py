import numpy as np
import pytest

from pboost import Dataset
from pboost.errors import (
    MalformedHeader,
    MoreThanTwoClasses,
    NonNumericAttribute,
    NoPositives,
)
from pboost.keel import (
    DatasetManifest,
    load_manifest,
    parse_csv,
    parse_keel,
)

from conftest import make_blobs, write_csv

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
        assert data.m == 5 and data.features.shape[1] == 2
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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_rejected(self, tmp_path, cell):
        path = tmp_path / "bad.dat"
        path.write_text(KEEL_SAMPLE.replace("2.0, 3.0", f"{cell}, 3.0"))
        with pytest.raises(NonNumericAttribute):
            parse_keel(path, "positive")

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text(KEEL_SAMPLE.split("@data")[0] + "@data\n")
        with pytest.raises(MalformedHeader):
            parse_keel(path, "positive")

    def test_positive_token_must_name_a_row(self, tmp_path):
        path = tmp_path / "toy.dat"
        path.write_text(KEEL_SAMPLE)
        with pytest.raises(NoPositives):
            parse_keel(path, "maybe")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("@attribute A real\n1.0, positive\n")
        with pytest.raises(MalformedHeader):
            parse_keel(path, "positive")

    @pytest.mark.parametrize("line", ["@attribute", "@output", "@attribute [0.0, 1.0]"])
    def test_header_line_naming_no_attribute(self, tmp_path, line):
        path = tmp_path / "bad.dat"
        path.write_text(KEEL_SAMPLE.replace("@inputs A1, A2", line))
        with pytest.raises(MalformedHeader, match="names no attribute"):
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

    @pytest.mark.parametrize(
        "text, token, error",
        [
            ("a,b,label\n", "yes", MalformedHeader),
            ("1.0,nan,yes\n2.0,1.0,no\n", "yes", NonNumericAttribute),
            ("1.0,2.0,yes\ninf,1.0,no\n", "yes", NonNumericAttribute),
            ("a,b,label\n1.0,2.0,yes\n2.0,1.0,no\n", "maybe", NoPositives),
        ],
        ids=["header-only", "nan", "inf", "unknown-token"],
    )
    def test_bad_file_rejected(self, tmp_path, text, token, error):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(error):
            parse_csv(path, token)


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
