import json
from pathlib import Path

import numpy as np
import pytest

from pboost import Dataset, RngStream
from pboost.cli import _config_from_args, build_parser, main
from pboost.errors import PBoostError
from pboost.experiment import (
    ExperimentConfig,
    aggregate_rows,
    emit_reports,
    parse_variant,
    run_experiment,
    synthetic_replications,
    train_variant,
)
from pboost.keel import write_csv
from pboost.svm import LearnerConfig

from conftest import make_blobs

FAST_SVM = LearnerConfig(max_passes=30)


def _csv_config(tmp_path, **overrides):
    data = make_blobs(24, 240, separation=5.0, seed=3)
    csv_path = tmp_path / "data.csv"
    write_csv(data, csv_path)
    defaults = dict(
        source="csv",
        data_path=str(csv_path),
        positive_token="1",
        variants=("RUS", "PRUS-F"),
        ensemble_size=2,
        lambda_tests=(),
        seed=7,
        out_dir=str(tmp_path / "out"),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestVariantParsing:
    def test_tokens(self):
        assert parse_variant("rus-f").sampler == "rus"
        assert parse_variant("rus-f").fbeta_loss
        assert parse_variant("PRUS").sampler == "prus"
        assert not parse_variant("PRUS").fbeta_loss
        assert parse_variant("PA-F").sampler == "pa"

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_variant("XYZ")
        with pytest.raises(ValueError):
            parse_variant("RUS-G")


class TestRunExperiment:
    def test_outputs_and_shape(self, tmp_path):
        cfg = _csv_config(tmp_path)
        out = run_experiment(cfg, FAST_SVM)
        results = (out / "results.csv").read_text().splitlines()
        # 10 replications x 2 variants x 1 native skew + header
        assert len(results) == 1 + 10 * 2
        assert (out / "complexity.csv").exists()
        assert (out / "aggregate.csv").exists()
        assert (out / "summary.md").exists()
        assert list((out / "pr_curves").glob("*.csv"))

    def test_byte_identical_rerun(self, tmp_path):
        cfg_a = _csv_config(tmp_path, out_dir=str(tmp_path / "a"))
        cfg_b = _csv_config(tmp_path, out_dir=str(tmp_path / "b"))
        out_a = run_experiment(cfg_a, FAST_SVM)
        out_b = run_experiment(cfg_b, FAST_SVM)
        for name in ("results.csv", "aggregate.csv", "complexity.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_experiment(
            _csv_config(tmp_path, out_dir=str(tmp_path / "s")), FAST_SVM
        )
        parallel = run_experiment(
            _csv_config(tmp_path, out_dir=str(tmp_path / "p"), jobs=2), FAST_SVM
        )
        assert (serial / "results.csv").read_bytes() == (
            parallel / "results.csv"
        ).read_bytes()

    def test_aggregates_match_recomputed(self, tmp_path):
        cfg = _csv_config(tmp_path)
        out = run_experiment(cfg, FAST_SVM)
        lines = (out / "results.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        agg_lines = (out / "aggregate.csv").read_text().splitlines()
        agg_header = agg_lines[0].split(",")
        for line in agg_lines[1:]:
            agg = dict(zip(agg_header, line.split(",")))
            group = [
                float(r["aupr"])
                for r in rows
                if r["variant"] == agg["variant"]
                and r["lambda_test"] == agg["lambda_test"]
            ]
            assert float(agg["aupr_mean"]) == pytest.approx(np.mean(group), abs=1e-12)
            assert float(agg["aupr_std"]) == pytest.approx(np.std(group), abs=1e-12)

    def test_lambda_tests_subsample_evaluation(self, tmp_path):
        cfg = _csv_config(
            tmp_path, variants=("RUS",), lambda_tests=(2.0, 5.0)
        )
        out = run_experiment(cfg, FAST_SVM)
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 10 * 2  # two skews per replication
        header = lines[0].split(",")
        lams = {row.split(",")[header.index("lambda_test")] for row in lines[1:]}
        assert lams == {"2.0", "5.0"}

    def test_partial_results_preserved_on_failure(self, tmp_path):
        # PA has no group ids in CSV data, so its cells fail after RUS's
        # cells have completed; their rows must still land on disk
        cfg = _csv_config(tmp_path, variants=("RUS", "PA"))
        with pytest.raises(PBoostError):
            run_experiment(cfg, FAST_SVM)
        lines = (Path(cfg.out_dir) / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 10  # RUS rows survived
        assert all(",RUS," in line for line in lines[1:])

    def test_dump_models(self, tmp_path):
        cfg = _csv_config(tmp_path, dump_models=True, variants=("RUS",))
        out = run_experiment(cfg, FAST_SVM)
        dumps = list((out / "ensembles").glob("*.json"))
        assert len(dumps) == 10
        record = json.loads(dumps[0].read_text())
        assert record["members"]


class TestAutoEnsembleSize:
    def test_partition_driven_counts(self):
        gen = np.random.default_rng(0)
        pos = gen.normal(0, 1, (12, 2))
        negs = np.vstack([gen.normal((8 * g, 8), 0.4, (10, 2)) for g in range(3)])
        data = Dataset(
            np.vstack([pos, negs]),
            np.concatenate([np.ones(12, int), -np.ones(30, int)]),
            np.concatenate([np.zeros(12, int), np.repeat([1, 2, 3], 10)]),
        )
        cfg = ExperimentConfig(
            source="csv", data_path="", variants=("PA-F",), out_dir="unused"
        )
        ens = train_variant(
            parse_variant("PA-F"), data, cfg, FAST_SVM, RngStream(0)
        )
        assert ens.size == 3  # one member per a-priori group

    def test_baseline_auto_rounds(self):
        data = make_blobs(10, 52, separation=6.0)
        cfg = ExperimentConfig(
            source="csv", data_path="", variants=("RUS",), out_dir="unused"
        )
        ens = train_variant(parse_variant("RUS"), data, cfg, FAST_SVM, RngStream(0))
        assert ens.size == 5  # round(52/10)

    def test_pa_without_groups_fails(self):
        data = make_blobs(10, 40)
        cfg = ExperimentConfig(
            source="csv", data_path="", variants=("PA",), out_dir="unused"
        )
        with pytest.raises(PBoostError):
            train_variant(parse_variant("PA"), data, cfg, FAST_SVM, RngStream(0))


class TestSyntheticProtocol:
    def test_replication_counts_small_setting(self):
        # full-size protocol: 10 replications, training skew from the setting
        cfg = ExperimentConfig(
            source="synthetic",
            setting="D3",
            variants=("RUS",),
            out_dir="unused",
            seed=1,
        )
        reps = synthetic_replications(cfg)
        assert len(reps) == 10
        first = reps[0]
        assert first.train.m_pos == 40
        assert first.train.m_neg == 40 * 20  # first 20 clusters at D3
        assert first.validation_pool.m_pos == 10
        assert first.test_pool.m_pos == 50
        assert first.test_pool.m_neg == 5000

    def test_replications_disjoint(self):
        cfg = ExperimentConfig(
            source="synthetic",
            setting="D3",
            variants=("RUS",),
            out_dir="unused",
            seed=2,
        )
        rep = synthetic_replications(cfg)[0]
        train_rows = set(map(tuple, rep.train.features))
        val_rows = set(map(tuple, rep.validation_pool.features))
        test_rows = set(map(tuple, rep.test_pool.features))
        assert not train_rows & val_rows
        assert not train_rows & test_rows
        assert not val_rows & test_rows


class TestEmitReports:
    def test_missing_results(self, tmp_path):
        from pboost.errors import MissingResults

        with pytest.raises(MissingResults):
            emit_reports(tmp_path)

    def test_summary_lists_variants(self, tmp_path):
        cfg = _csv_config(tmp_path)
        out = run_experiment(cfg, FAST_SVM)
        summary = (out / "summary.md").read_text()
        assert "RUS" in summary and "PRUS-F" in summary


class TestCli:
    def _write_csv(self, tmp_path):
        data = make_blobs(15, 90, separation=5.0, seed=4)
        path = tmp_path / "toy.csv"
        write_csv(data, path)
        return path

    def test_run_ok(self, tmp_path, capsys):
        csv_path = self._write_csv(tmp_path)
        code = main(
            [
                "run",
                "--csv", str(csv_path),
                "--positive-token", "1",
                "--variants", "RUS",
                "--ensemble-size", "2",
                "--svm-max-passes", "30",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_unknown_variant_is_config_error(self, tmp_path):
        csv_path = self._write_csv(tmp_path)
        code = main(
            [
                "run",
                "--csv", str(csv_path),
                "--positive-token", "1",
                "--variants", "NOPE",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2

    def test_missing_source_is_config_error(self, tmp_path):
        assert main(["run", "--variants", "RUS", "--out", str(tmp_path)]) == 2

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(
            [
                "run",
                "--csv", str(tmp_path / "absent.csv"),
                "--positive-token", "1",
                "--variants", "RUS",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 3

    def test_report_without_results(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 3

    def test_run_synthetic_end_to_end(self, tmp_path):
        code = main(
            [
                "run",
                "--synthetic", "D3",
                "--variants", "RUS,PRUS-F",
                "--ensemble-size", "2",
                "--lambda-tests", "1,20",
                "--svm-max-passes", "25",
                "--seed", "3",
                "--out", str(tmp_path / "synth"),
            ]
        )
        assert code == 0
        lines = (tmp_path / "synth" / "results.csv").read_text().splitlines()
        # 10 replications x 2 variants x 2 skews + header
        assert len(lines) == 1 + 40
        summary = (tmp_path / "synth" / "summary.md").read_text()
        assert "PRUS-F" in summary

    def test_config_file_with_flag_override(self, tmp_path):
        csv_path = self._write_csv(tmp_path)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "source=csv\n"
            f"data_path={csv_path}\n"
            "positive_token=1\n"
            "variants=RUS\n"
            "ensemble_size=2\n"
            "svm_max_passes=30\n"
            f"out={tmp_path / 'cfg_out'}\n"
        )
        assert main(["run", "--config", str(cfg_file)]) == 0
        assert (tmp_path / "cfg_out" / "results.csv").exists()


class TestCliConfigValues:
    def _config(self, tmp_path, lines, *flags):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "source=synthetic\nvariants=RUS\n"
            f"out={tmp_path / 'out'}\n" + "".join(f"{line}\n" for line in lines)
        )
        args = build_parser().parse_args(["run", "--config", str(cfg_file), *flags])
        return _config_from_args(args)

    @pytest.mark.parametrize(
        "value, expected",
        [("false", False), ("0", False), ("true", True), ("1", True), ("False", False)],
    )
    def test_dump_models_value_parsed(self, tmp_path, value, expected):
        cfg, _ = self._config(tmp_path, [f"dump_models = {value}"])
        assert cfg.dump_models is expected

    def test_dump_models_flag_overrides_file(self, tmp_path):
        cfg, _ = self._config(tmp_path, ["dump_models = false"], "--dump-models")
        assert cfg.dump_models is True

    def test_dump_models_json_bool(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(
            {"source": "synthetic", "variants": "RUS", "out": str(tmp_path),
             "dump_models": False}
        ))
        cfg, _ = _config_from_args(
            build_parser().parse_args(["run", "--config", str(cfg_file)])
        )
        assert cfg.dump_models is False

    def test_dump_models_other_value_is_config_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"source=synthetic\nvariants=RUS\nout={tmp_path}\ndump_models=yes\n"
        )
        assert main(["run", "--config", str(cfg_file)]) == 2
        assert "dump_models" in capsys.readouterr().err

    def test_svm_max_passes_default_is_none(self, tmp_path):
        _, learner_cfg = self._config(tmp_path, [])
        assert learner_cfg.max_passes is None

    def test_svm_max_passes_zero_flag_is_config_error(self, tmp_path, capsys):
        code = main(
            ["run", "--synthetic", "D3", "--variants", "RUS",
             "--svm-max-passes", "0", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "max_passes" in capsys.readouterr().err

    def test_svm_max_passes_zero_in_file_is_config_error(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"source=synthetic\nvariants=RUS\nout={tmp_path}\nsvm_max_passes=0\n"
        )
        assert main(["run", "--config", str(cfg_file)]) == 2
