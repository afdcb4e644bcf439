import numpy as np
import pytest

from pboost import Dataset
from pboost.errors import DataError
from pboost.experiment import tabular_replications
from pboost.keel import parse_csv, parse_keel

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
        with pytest.raises(DataError, match="found class tokens"):
            parse_keel(path, "positive")

    def test_missing_value_rejected(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text(KEEL_SAMPLE.replace("2.0, 3.0", "<null>, 3.0"))
        with pytest.raises(DataError, match=r":9: column A1: '<null>'"):
            parse_keel(path, "positive")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_rejected(self, tmp_path, cell):
        path = tmp_path / "bad.dat"
        path.write_text(KEEL_SAMPLE.replace("2.0, 3.0", f"{cell}, 3.0"))
        with pytest.raises(DataError, match=f":9: column A1: '{cell}'"):
            parse_keel(path, "positive")

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text(KEEL_SAMPLE.split("@data")[0] + "@data\n")
        with pytest.raises(DataError, match="file has no data rows"):
            parse_keel(path, "positive")

    def test_positive_token_must_name_a_row(self, tmp_path):
        path = tmp_path / "toy.dat"
        path.write_text(KEEL_SAMPLE)
        with pytest.raises(DataError, match="positive token 'maybe' not among"):
            parse_keel(path, "maybe")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("@attribute A real\n1.0, positive\n")
        with pytest.raises(DataError, match=":2: unrecognised header line"):
            parse_keel(path, "positive")

    @pytest.mark.parametrize("line", ["@attribute", "@output", "@attribute [0.0, 1.0]"])
    def test_header_line_naming_no_attribute(self, tmp_path, line):
        path = tmp_path / "bad.dat"
        path.write_text(KEEL_SAMPLE.replace("@inputs A1, A2", line))
        with pytest.raises(DataError, match="names no attribute"):
            parse_keel(path, "positive")

    def test_row_width_checked(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text(KEEL_SAMPLE.replace("1.0, 2.0, positive", "1.0, positive"))
        with pytest.raises(DataError, match=":8: 2 values, expected 3"):
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
        "text, token, message",
        [
            ("a,b,label\n", "yes", "file has no data rows"),
            ("1.0,nan,yes\n2.0,1.0,no\n", "yes", ":1: column 1: 'nan'"),
            ("1.0,2.0,yes\ninf,1.0,no\n", "yes", ":2: column 0: 'inf'"),
            ("a,b,label\n1.0,2.0,yes\n2.0,1.0,no\n", "maybe", "positive token 'maybe' not among"),
        ],
        ids=["header-only", "nan", "inf", "unknown-token"],
    )
    def test_bad_file_rejected(self, tmp_path, text, token, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            parse_csv(path, token)


class TestUnreadableFile:
    """Both readers turn a file that cannot be read or decoded into one
    DataError that names the path once."""

    @pytest.mark.parametrize("parse", [parse_csv, parse_keel], ids=["csv", "keel"])
    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_is_data_error_naming_the_path(self, tmp_path, parse, kind):
        path = tmp_path / "data"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"\xff\xfe1.0,2.0,1\n2.0,1.0,0\n")
        with pytest.raises(DataError) as exc:
            parse(path, "1")
        assert str(exc.value).count(str(path)) == 1

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["1.0,2.0,1", "2.0,-1"], ":2: 2 values, expected 3"),
            (["1.0,x,1", "2.0,1.0,-1"], ":1: column 1: 'x'"),
            (["1.0,2.0,1", "2.0,1.0,-1", "3.0,3.0,0"], r"found class tokens \['-1', '0', '1'\]"),
            (["1.0,2.0,-1", "2.0,1.0,-1"], "positive token '1' not among"),
            (None, r"class \+1 needs at least 10 samples"),
        ],
        ids=["MalformedHeader", "NonNumericAttribute", "MoreThanTwoClasses", "NoPositives",
             "TooFewSamples"],
    )
    def test_data_error_classes(self, tmp_path, rows, message):
        # each kind of unusable data file, named by the type it once had, is
        # one DataError told apart by its message
        path = tmp_path / "data.csv"
        if rows is None:
            write_csv(make_blobs(6, 40), path)
        else:
            path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match=message):
            tabular_replications(parse_csv(path, "1"), seed=0)
