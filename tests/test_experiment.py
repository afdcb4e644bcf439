import json
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from pboost import Dataset, RngStream, experiment
from pboost.cli import _config_from_args, build_parser, main
from pboost.errors import InsufficientNegatives, PBoostError, TooFewSamples
from pboost.experiment import (
    ExperimentConfig,
    aggregate_rows,
    parse_variant,
    run_experiment,
    synthetic_replications,
    tabular_replications,
    train_variant,
)
from pboost.svm import LearnerConfig

from conftest import make_blobs, write_csv

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


_REAL_CELL = experiment.run_replication_variant


def _crash_on_last_replication(rep, *args):
    """run_replication_variant, but the worker process dies on replication 9."""
    if rep.index == 9:
        os._exit(1)
    return _REAL_CELL(rep, *args)


_FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the crashing stub reaches the workers only through fork",
)


def _run_dir_files(run_dir: Path) -> dict:
    return {
        str(p.relative_to(run_dir)): p.read_bytes()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file()
    }


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
        cfg_a = _csv_config(tmp_path, out_dir=str(tmp_path / "a"), dump_models=True)
        cfg_b = _csv_config(tmp_path, out_dir=str(tmp_path / "b"), dump_models=True)
        files_a = _run_dir_files(run_experiment(cfg_a, FAST_SVM))
        files_b = _run_dir_files(run_experiment(cfg_b, FAST_SVM))
        assert {"summary.md", "ensembles/rep9_PRUS-F.json"} <= files_a.keys()
        assert any(name.startswith("pr_curves/") for name in files_a)
        assert files_a == files_b

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_experiment(
            _csv_config(tmp_path, out_dir=str(tmp_path / "s"), dump_models=True),
            FAST_SVM,
        )
        parallel = run_experiment(
            _csv_config(
                tmp_path, out_dir=str(tmp_path / "p"), jobs=2, dump_models=True
            ),
            FAST_SVM,
        )
        files = _run_dir_files(serial)
        assert len(files) == 4 + 2 + 20  # 3 CSVs and summary, 2 curves, 20 dumps
        assert files == _run_dir_files(parallel)

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

    def test_aggregate_groups_in_first_seen_order(self):
        zeros = dict.fromkeys(("f_op", "f_d", "g_mean", "expected_cost"), 0.0)
        rows = [
            {"variant": v, "lambda_test": lam, "aupr": aupr, **zeros}
            for v, lam, aupr in [
                ("B", 1.0, 0.2), ("A", 1.0, 0.4), ("B", 1.0, 0.6), ("B", 2.0, 0.1)
            ]
        ]
        agg = aggregate_rows(rows)
        assert [(a["variant"], a["lambda_test"], a["n_runs"]) for a in agg] == [
            ("B", 1.0, 2), ("A", 1.0, 1), ("B", 2.0, 1)
        ]
        assert agg[0]["aupr_mean"] == pytest.approx(0.4)
        assert agg[0]["aupr_std"] == pytest.approx(0.2)

    def test_own_skew_aggregate_pools_both_halves(self, tmp_path):
        # 21 positives: the two halves' test pools hold 10 and 11, so their
        # own skews differ
        data = make_blobs(21, 101, separation=5.0, seed=3)
        write_csv(data, tmp_path / "odd.csv")
        cfg = _csv_config(tmp_path, data_path=str(tmp_path / "odd.csv"))
        out = run_experiment(cfg, FAST_SVM)
        lines = (out / "results.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        agg_lines = (out / "aggregate.csv").read_text().splitlines()
        agg_header = agg_lines[0].split(",")
        aggs = [dict(zip(agg_header, line.split(","))) for line in agg_lines[1:]]
        assert [a["variant"] for a in aggs] == ["RUS", "PRUS-F"]
        for agg in aggs:
            group = [r for r in rows if r["variant"] == agg["variant"]]
            lams = [float(r["lambda_test"]) for r in group]
            assert len(set(lams)) == 2
            assert agg["n_runs"] == "10"
            assert float(agg["lambda_test"]) == np.mean(lams)
            aupr = [float(r["aupr"]) for r in group]
            assert float(agg["aupr_mean"]) == pytest.approx(np.mean(aupr), abs=1e-12)
        summary = (out / "summary.md").read_text()
        assert summary.count("| RUS |") == 2  # one aggregate row, one complexity row

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

    def test_numpy_lambda_tests_write_the_python_float_files(self, tmp_path):
        runs = {
            name: _run_dir_files(run_experiment(
                _csv_config(
                    tmp_path, variants=("RUS",), lambda_tests=lams,
                    out_dir=str(tmp_path / name),
                ),
                FAST_SVM,
            ))
            for name, lams in (("py", (2.0, 5.0)), ("np", tuple(np.array([2.0, 5.0]))))
        }
        assert runs["np"].keys() == runs["py"].keys()
        for name, content in runs["py"].items():
            assert runs["np"][name] == content, name

    def test_partial_results_preserved_on_failure(self, tmp_path):
        # PA has no group ids in CSV data, so its cells fail after RUS's
        # cells have completed; their rows must still land on disk
        cfg = _csv_config(tmp_path, variants=("RUS", "PA"))
        with pytest.raises(PBoostError):
            run_experiment(cfg, FAST_SVM)
        lines = (Path(cfg.out_dir) / "results.csv").read_text().splitlines()
        assert len(lines) == 1 + 10  # RUS rows survived
        assert all(",RUS," in line for line in lines[1:])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failures_csv_names_failed_cells(self, tmp_path, jobs):
        rus_only = run_experiment(
            _csv_config(tmp_path, variants=("RUS",), out_dir=str(tmp_path / "r")),
            FAST_SVM,
        )
        cfg = _csv_config(tmp_path, variants=("RUS", "PA"), jobs=jobs)
        with pytest.raises(PBoostError):
            run_experiment(cfg, FAST_SVM)
        out = Path(cfg.out_dir)
        lines = (out / "failures.csv").read_text().splitlines()
        assert lines == ["replication,variant,error_type,message"] + [
            f"{i},PA,PBoostError,a-priori partitioning needs group ids in the data"
            for i in range(10)
        ]
        for name in ("results.csv", "complexity.csv", "aggregate.csv"):
            assert (out / name).read_bytes() == (rus_only / name).read_bytes()
        note = "**Partial run: 10 of 20 cells failed; see failures.csv.**"
        assert note in (out / "summary.md").read_text()

    def test_unreachable_skew_fails_each_cell_before_training(self, tmp_path, monkeypatch):
        trained = []

        def counting_train_variant(*args):
            trained.append(args)
            return train_variant(*args)

        monkeypatch.setattr(experiment, "train_variant", counting_train_variant)
        cfg = _csv_config(tmp_path, variants=("RUS", "PRUS-F"), lambda_tests=(0.001,))
        with pytest.raises(InsufficientNegatives):
            run_experiment(cfg, FAST_SVM)
        assert trained == []
        failed = (Path(cfg.out_dir) / "failures.csv").read_text().splitlines()[1:]
        cells = [(str(i), token) for i in range(10) for token in ("RUS", "PRUS-F")]
        assert [tuple(line.split(",")[:2]) for line in failed] == cells
        assert all(",InsufficientNegatives,lambda 0.001 " in line for line in failed)

    @_FORK_ONLY
    def test_crashed_worker_keeps_finished_cells(self, tmp_path, monkeypatch):
        serial = run_experiment(
            _csv_config(tmp_path, variants=("RUS",), out_dir=str(tmp_path / "s")),
            FAST_SVM,
        )
        expected = (serial / "results.csv").read_text().splitlines()
        monkeypatch.setattr(
            experiment, "run_replication_variant", _crash_on_last_replication
        )
        cfg = _csv_config(tmp_path, variants=("RUS",), jobs=2)
        with pytest.raises(BrokenProcessPool):
            run_experiment(cfg, FAST_SVM)
        out = Path(cfg.out_dir)
        kept = (out / "results.csv").read_text().splitlines()
        failed = (out / "failures.csv").read_text().splitlines()[1:]
        assert len(kept) > 1 and set(kept) <= set(expected)
        assert len(kept) - 1 + len(failed) == 10
        assert all(",RUS,BrokenProcessPool," in line for line in failed)
        assert failed[-1].startswith("9,")

    def test_rerun_into_same_directory_leaves_no_stale_files(self, tmp_path):
        reused = str(tmp_path / "reused")
        run_experiment(
            _csv_config(tmp_path, variants=("RUS", "PRUS"), dump_models=True,
                        out_dir=reused),
            FAST_SVM,
        )
        run_experiment(
            _csv_config(tmp_path, variants=("RUS",), out_dir=reused), FAST_SVM
        )
        fresh = run_experiment(
            _csv_config(tmp_path, variants=("RUS",), out_dir=str(tmp_path / "fresh")),
            FAST_SVM,
        )
        assert _run_dir_files(Path(reused)) == _run_dir_files(fresh)

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


def _tabular_rows(data, seed):
    """tabular_replications as (train, validation, test) row ids of data."""
    indexed = Dataset(np.arange(data.m)[:, None], data.labels)
    return [
        tuple(
            part.features[:, 0].astype(np.int64)
            for part in (rep.train, rep.validation_pool, rep.test_pool)
        )
        for rep in tabular_replications(indexed, seed)
    ]


class TestTabularProtocol:
    def test_counts(self):
        data = make_blobs(20, 200)
        reps = _tabular_rows(data, seed=0)
        assert len(reps) == 10
        for train, _, _ in reps:
            train_labels = data.labels[train]
            assert (train_labels == 1).sum() == 8
            assert (train_labels == -1).sum() == 80

    def test_disjoint_and_consistent(self):
        data = make_blobs(20, 60)
        for train, validation, test in _tabular_rows(data, seed=1):
            assert np.intersect1d(train, validation).size == 0
            assert np.intersect1d(train, test).size == 0
            assert np.intersect1d(validation, test).size == 0

    def test_validation_folds_cover_design_half(self):
        data = make_blobs(20, 60)
        reps = _tabular_rows(data, seed=2)
        # first five replications share a design half (train + validation)
        half = np.sort(np.concatenate([reps[0][0], reps[0][1]]))
        union = np.sort(np.unique(np.concatenate([v for _, v, _ in reps[:5]])))
        assert np.array_equal(union, half)

    def test_deterministic(self):
        data = make_blobs(12, 40)
        a = _tabular_rows(data, seed=3)
        b = _tabular_rows(data, seed=3)
        for (train_a, _, test_a), (train_b, _, test_b) in zip(a, b):
            assert np.array_equal(train_a, train_b)
            assert np.array_equal(test_a, test_b)

    def test_too_few(self):
        data = make_blobs(6, 40)
        with pytest.raises(TooFewSamples):
            tabular_replications(data, seed=0)

    def test_lambda_consistent_across_sets(self):
        data = make_blobs(20, 200)
        for rep in _tabular_rows(data, seed=4):
            for idx in rep:
                labels = data.labels[idx]
                lam = (labels == -1).sum() / (labels == 1).sum()
                assert lam == pytest.approx(10.0, abs=0.5)


class TestEmitReports:
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

    def test_json_integers_pass_through(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(
            {"source": "synthetic", "variants": "RUS", "out": str(tmp_path),
             "seed": 3, "jobs": 2, "svm_max_passes": 40, "ensemble_size": 5}
        ))
        cfg, learner_cfg = _config_from_args(
            build_parser().parse_args(["run", "--config", str(cfg_file)])
        )
        got = (cfg.seed, cfg.jobs, cfg.ensemble_size, learner_cfg.max_passes)
        assert got == (3, 2, 5, 40) and all(type(v) is int for v in got)

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

    @pytest.mark.parametrize(
        "flag, value, key",
        [
            ("--beta", "0", "beta"),
            ("--lambda-tests", "0", "lambda_tests"),
            ("--lambda-tests", "20,-1", "lambda_tests"),
            ("--jobs", "0", "jobs"),
            ("--jobs", "-2", "jobs"),
            ("--beta", "inf", "beta"),
            ("--svm-c", "nan", "c_penalty"),
            ("--svm-c", "inf", "c_penalty"),
            ("--lambda-tests", "inf", "lambda_tests"),
            ("--seed", "-1", "seed"),
            ("--variants", "RUS,rus", "variants repeats 'RUS'"),
            ("--variants", "PRUS-F,RUS,prus-f", "variants repeats 'PRUS-F'"),
            ("--lambda-tests", "2,2", "lambda_tests repeats 2.0"),
            ("--lambda-tests", "1,20,20.0", "lambda_tests repeats 20.0"),
        ],
    )
    def test_nonpositive_run_values_are_config_errors(
        self, tmp_path, capsys, flag, value, key
    ):
        code = main(
            ["run", "--synthetic", "D3", "--variants", "RUS", "--ensemble-size", "1",
             "--svm-max-passes", "2", flag, value, "--out", str(tmp_path)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and key in err


class TestConfigIntegerValues:
    """The configs take any integer type but bool for their integer fields."""

    @pytest.mark.parametrize(
        "field, value",
        [("ensemble_size", 1.9), ("ensemble_size", True), ("ensemble_size", "3"),
         ("seed", 2.5), ("seed", True), ("jobs", 1.5), ("jobs", False)],
    )
    def test_non_integer_run_values_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(
                source="synthetic", variants=("RUS",), out_dir="x", **{field: value}
            )

    @pytest.mark.parametrize("value", [30.0, 2.5, True])
    def test_non_integer_max_passes_is_rejected(self, value):
        with pytest.raises(ValueError, match="max_passes"):
            LearnerConfig(max_passes=value)

    def test_numpy_integers_are_accepted(self):
        cfg = ExperimentConfig(
            source="synthetic", variants=("RUS",), out_dir="x",
            ensemble_size=np.int64(3), seed=np.uint8(2), jobs=np.int32(1),
        )
        assert (cfg.ensemble_size, cfg.seed, cfg.jobs) == (3, 2, 1)
        assert LearnerConfig(max_passes=np.int64(5)).max_passes == 5


class TestConfigValues:
    def test_unknown_synthetic_setting_is_rejected(self):
        with pytest.raises(ValueError, match="D9"):
            ExperimentConfig(
                source="synthetic", setting="D9", variants=("RUS",), out_dir="x"
            )


def _write_keel(data: Dataset, path: Path) -> None:
    lines = [
        "@relation toy", "@attribute A1 real", "@attribute A2 real",
        "@attribute Class {positive, negative}", "@inputs A1, A2", "@outputs Class",
        "@data",
    ]
    for (a1, a2), label in zip(data.features.tolist(), data.labels):
        lines.append(f"{a1!r}, {a2!r}, {'positive' if label == 1 else 'negative'}")
    path.write_text("\n".join(lines) + "\n")


class TestCliInputs:
    """Wrong or conflicting settings fail before any cell runs."""

    FAST = ["--variants", "RUS", "--ensemble-size", "1", "--svm-max-passes", "5"]

    def _config_text(self, tmp_path):
        csv_path = tmp_path / "toy.csv"
        write_csv(make_blobs(15, 90, separation=5.0, seed=4), csv_path)
        return (
            f"source=csv\ndata_path={csv_path}\npositive_token=1\nvariants=RUS\n"
            f"ensemble_size=1\nsvm_max_passes=5\nout={tmp_path / 'out'}\n"
        )

    def _source(self, path, token):
        """The flags that name a KEEL (.dat) or CSV data file and its token."""
        flag = "--keel" if str(path).endswith(".dat") else "--csv"
        return [flag, str(path), "--positive-token", token]

    def _assert_config_error(self, code, capsys, word):
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("config error:") and word in err, err

    @pytest.mark.parametrize(
        "line, word",
        [("lamda_tests = 5", "lamda_tests"), ("svm-c = 2", "svm-c"),
         ("source = sql", "sql"), ("data_path =", "data_path")],
    )
    def test_bad_config_key_is_config_error(self, tmp_path, capsys, line, word):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(self._config_text(tmp_path) + line + "\n")
        code = main(["run", "--config", str(cfg_file)])
        self._assert_config_error(code, capsys, word)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, word",
        [(None, "run.cfg"), ('{"source": "csv",', "line 1"),
         ('["source"]', "JSON object"), ('{"ensemble_size": 1.9}', "ensemble_size"),
         ('{"seed": true}', "seed")],
    )
    def test_missing_or_malformed_config_file_is_config_error(
        self, tmp_path, capsys, text, word
    ):
        cfg_file = tmp_path / "run.cfg"
        if text is not None:
            cfg_file.write_text(text)
        code = main(["run", "--config", str(cfg_file), *self.FAST])
        self._assert_config_error(code, capsys, word)

    def test_unknown_synthetic_setting_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--synthetic", "D9", *self.FAST, "--out", str(out)])
        self._assert_config_error(code, capsys, "D9")
        assert not out.exists()

    def test_source_flag_overrides_file_source(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(self._config_text(tmp_path))
        args = build_parser().parse_args(
            ["run", "--config", str(cfg_file), "--synthetic", "D1"]
        )
        cfg, _ = _config_from_args(args)
        assert (cfg.source, cfg.setting) == ("synthetic", "D1")

    def test_source_flags_are_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["run", "--synthetic", "D1", "--csv", "x.csv", *self.FAST,
                 "--out", str(tmp_path)]
            )
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_missing_keel_data_file_is_data_error(self, tmp_path, capsys):
        source = self._source(tmp_path / "absent.dat", "p")
        code = main(["run", *source, *self.FAST, "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err.startswith("data error:")

    @pytest.mark.parametrize(
        "name, text, token",
        [
            ("toy.csv", None, "1"),  # the data path is a directory
            ("toy.csv", "a,b,label\n", "yes"),
            ("toy.csv", "".join(f"{'yes' if i % 3 else 'no'}\n" for i in range(60)), "yes"),
            ("toy.csv", "1.0,2.0,yes\nnan,1.0,no\n", "yes"),
            ("toy.csv", "1.0,2.0,yes\n2.0,inf,no\n", "yes"),
            ("toy.csv", "a,b,label\n1.0,2.0,yes\n2.0,1.0,no\n", "maybe"),
            ("toy.dat", "@attribute a real\n@attribute c {p, n}\n@data\n", "p"),
            ("toy.dat", "@attribute\n@attribute c {p, n}\n@data\n1.0, p\n", "p"),
            ("toy.dat", "@attribute a real\n@attribute c {p, n}\n@output\n@data\n1.0, p\n", "p"),
            ("toy.dat", "@attribute c {p, n}\n@data\np\nn\np\n", "p"),
        ],
        ids=[
            "directory", "header-only", "label-only", "nan", "inf", "unknown-token",
            "keel-no-rows", "keel-bare-attribute", "keel-bare-output", "keel-label-only",
        ],
    )
    def test_bad_data_file_is_data_error(self, tmp_path, capsys, name, text, token):
        path = tmp_path / name
        if text is None:
            path.mkdir()
        else:
            path.write_text(text)
        code = main(["run", *self._source(path, token), *self.FAST,
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err.startswith("data error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name, text, token, where",
        [
            ("toy.csv", "a,b,label\n1.0,2.0,yes\n\n2.0,no\n", "yes",
             ":4: 2 values, expected 3"),
            ("toy.csv", "1.0,2.0,yes\n2.0,nan,no\n", "yes", ":2: column 1: 'nan'"),
            ("toy.dat", "@relation t\n@attribute\n@data\n1.0, p\n", "p",
             ":2: header line names no attribute: '@attribute'"),
            ("toy.dat", "@attribute a real\n@colour red\n", "p",
             ":2: unrecognised header line: '@colour red'"),
            ("toy.dat", "@attribute a real\n@attribute c {p, n}\n@data\n1.0, p\n\n2.0\n", "p",
             ":6: 1 values, expected 2"),
            ("toy.csv", "1.0,2.0,yes\n2.0,1.0,no\n", "maybe",
             ": positive token 'maybe' not among ['no', 'yes']"),
            ("toy.csv", "1.0\nyes\nno\n", "yes", ": file has no feature column"),
        ],
        ids=["width", "non-finite", "keel-bare-attribute", "keel-unknown-line",
             "keel-width", "no-line", "label-only"],
    )
    def test_parse_error_names_file_and_line(self, tmp_path, capsys, name, text, token, where):
        path = tmp_path / name
        path.write_text(text)
        code = main(["run", *self._source(path, token), *self.FAST,
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3 and err == f"data error: {path}{where}\n", err

    def test_non_utf8_data_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "toy.csv"
        path.write_bytes(b"\xff\xfe1.0,2.0,1\n2.0,1.0,0\n")
        code = main(["run", "--csv", str(path), "--positive-token", "1", *self.FAST,
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("data error:"), err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_data_error_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "toy.csv"
        path.write_bytes(b"\xff\xfe1.0,2.0,1\n2.0,1.0,0\n")
        code = main(["run", "--csv", str(path), "--positive-token", "1", *self.FAST,
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith(f"data error: {path}"), err

    def test_uncreatable_out_is_runtime_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"
        code = main(["run", "--synthetic", "D3", *self.FAST, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4 and err.startswith("runtime error:"), err
        assert str(out) in err

    def test_overflowing_kernel_width_fails_each_cell(self, tmp_path, capsys):
        # finite features that pass the reader, but whose squared distances
        # overflow; under filterwarnings = error a numpy overflow warning
        # would fail its cell with another type
        data = make_blobs(20, 100, separation=3.0, seed=4)
        path = tmp_path / "huge.csv"
        write_csv(Dataset(data.features * 1e200, data.labels), path)
        for variants, message in [
            ("RUS", "kernel width overflows"),
            # SMOTE and k-means meet the distances before the kernel width
            ("PCUS-F,SMT-F,RB-F", "squared distances overflow"),
        ]:
            out = tmp_path / variants
            code = main(["run", "--csv", str(path), "--positive-token", "1",
                         "--variants", variants, "--ensemble-size", "1",
                         "--svm-max-passes", "5", "--out", str(out)])
            err = capsys.readouterr().err
            assert code == 4 and err.startswith(f"runtime error: {message}"), err
            failed = (out / "failures.csv").read_text().splitlines()[1:]
            assert len(failed) == 10 * len(variants.split(","))
            assert all(f",DegenerateData,{message}" in line for line in failed)

    def test_keel_run_matches_csv_run(self, tmp_path):
        data = make_blobs(15, 90, separation=3.0, seed=4)
        _write_keel(data, tmp_path / "toy.dat")
        write_csv(data, tmp_path / "toy.csv")
        flags = ["--variants", "RUS,PRUS-F", "--ensemble-size", "2",
                 "--svm-max-passes", "30", "--lambda-tests", "1,4", "--dump-models"]
        assert main(["run", "--keel", str(tmp_path / "toy.dat"), *flags,
                     "--out", str(tmp_path / "keel")]) == 0
        assert main(["run", "--csv", str(tmp_path / "toy.csv"), "--positive-token", "1",
                     *flags, "--out", str(tmp_path / "csv")]) == 0
        files = _run_dir_files(tmp_path / "keel")
        assert len(files) == 4 + 4 + 20  # 3 CSVs and summary, 4 curves, 20 dumps
        assert files == _run_dir_files(tmp_path / "csv")

    def test_keel_positive_token_names_either_class(self, tmp_path):
        data = make_blobs(15, 90, separation=3.0, seed=4)
        _write_keel(data, tmp_path / "toy.dat")
        write_csv(data, tmp_path / "toy.csv")
        assert main(["run", *self._source(tmp_path / "toy.dat", "negative"),
                     *self.FAST, "--out", str(tmp_path / "keel")]) == 0
        assert main(["run", *self._source(tmp_path / "toy.csv", "-1"),
                     *self.FAST, "--out", str(tmp_path / "csv")]) == 0
        assert _run_dir_files(tmp_path / "keel") == _run_dir_files(tmp_path / "csv")

    def test_keel_config_file_matches_keel_flag(self, tmp_path):
        _write_keel(make_blobs(15, 90, separation=3.0, seed=4), tmp_path / "toy.dat")
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(
            {"source": "keel", "data_path": str(tmp_path / "toy.dat"),
             "positive_token": "positive"}
        ))
        assert main(["run", "--config", str(cfg_file), *self.FAST,
                     "--out", str(tmp_path / "config")]) == 0
        assert main(["run", "--keel", str(tmp_path / "toy.dat"), *self.FAST,
                     "--out", str(tmp_path / "flag")]) == 0
        files = _run_dir_files(tmp_path / "config")
        assert "results.csv" in files
        assert files == _run_dir_files(tmp_path / "flag")

    def test_dataset_manifest_is_not_a_keel_file(self, tmp_path, capsys):
        manifest = tmp_path / "toy.json"
        manifest.write_text(json.dumps(
            {"name": "toy", "path": "toy.dat", "positive_label_token": "positive"}
        ))
        code = main(["run", "--keel", str(manifest), *self.FAST,
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith(f"data error: {manifest}:1: unrecognised header line"), err
        assert not (tmp_path / "out").exists()

    @_FORK_ONLY
    def test_crashed_worker_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        csv_path = tmp_path / "toy.csv"
        write_csv(make_blobs(15, 90, separation=5.0, seed=4), csv_path)
        monkeypatch.setattr(
            experiment, "run_replication_variant", _crash_on_last_replication
        )
        code = main(["run", "--csv", str(csv_path), "--positive-token", "1",
                     *self.FAST, "--jobs", "2", "--out", str(tmp_path / "out")])
        assert code == 4
        assert capsys.readouterr().err.startswith("runtime error:")
        assert (tmp_path / "out" / "failures.csv").exists()
