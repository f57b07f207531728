"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.ml.datasets import read_libsvm
from repro.ml.svm import load_model


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "data.libsvm"
    exit_code = main(["generate", "breast-cancer", str(path), "--seed", "3"])
    assert exit_code == 0
    return path


@pytest.fixture
def model_file(tmp_path, dataset_file):
    path = tmp_path / "model.json"
    exit_code = main(["train", str(dataset_file), str(path), "--kernel", "linear"])
    assert exit_code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestDatasets:
    def test_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "madelon" in output
        assert "cod-rna" in output
        assert output.count("\n") >= 18  # header + 17 datasets


class TestGenerate:
    def test_writes_parseable_file(self, dataset_file):
        X, y = read_libsvm(dataset_file)
        assert X.shape[1] == 10  # breast-cancer dimensionality
        assert set(np.unique(y)) <= {-1.0, 1.0}

    def test_seed_changes_content(self, tmp_path):
        a = tmp_path / "a.libsvm"
        b = tmp_path / "b.libsvm"
        main(["generate", "diabetes", str(a), "--seed", "1"])
        main(["generate", "diabetes", str(b), "--seed", "2"])
        assert a.read_text() != b.read_text()


class TestTrain:
    def test_produces_loadable_model(self, model_file):
        model = load_model(model_file)
        assert model.is_linear()

    def test_poly_kernel_options(self, tmp_path, dataset_file, capsys):
        path = tmp_path / "poly.json"
        assert main([
            "train", str(dataset_file), str(path),
            "--kernel", "poly", "--degree", "3", "--C", "5",
        ]) == 0
        model = load_model(path)
        assert model.kernel_spec[0] == "poly"
        assert model.kernel_spec[1]["degree"] == 3
        # a0 defaults to 1/n per the paper.
        assert model.kernel_spec[1]["a0"] == pytest.approx(0.1)


class TestClassify:
    def test_plain(self, model_file, dataset_file, capsys):
        assert main(["classify", str(model_file), str(dataset_file), "--limit", "4"]) == 0
        output = capsys.readouterr().out
        assert "accuracy" in output
        sample_lines = [l for l in output.splitlines() if l.startswith("sample ")]
        assert len(sample_lines) == 4

    def test_private(self, model_file, dataset_file, capsys):
        assert main([
            "classify", str(model_file), str(dataset_file),
            "--limit", "2", "--private", "--security-degree", "1",
        ]) == 0
        output = capsys.readouterr().out
        assert "private protocol" in output
        assert " B]" in output  # byte accounting shown


class TestSimilarity:
    def test_plain_and_private_agree(self, tmp_path, dataset_file, model_file, capsys):
        other = tmp_path / "other.json"
        main(["train", str(dataset_file), str(other), "--kernel", "linear", "--C", "1"])
        capsys.readouterr()
        assert main(["similarity", str(model_file), str(other)]) == 0
        plain_out = capsys.readouterr().out
        assert main([
            "similarity", str(model_file), str(other),
            "--private", "--security-degree", "1",
        ]) == 0
        private_out = capsys.readouterr().out
        plain_t = float(plain_out.split("T = ")[1].split()[0])
        private_t = float(private_out.split("T = ")[1].split()[0])
        assert private_t == pytest.approx(plain_t, rel=1e-4)


class TestExperiment:
    def test_no_args_lists_choices(self, capsys):
        assert main(["experiment"]) == 2
        assert "table1" in capsys.readouterr().out

    def test_runs_fig6(self, capsys):
        assert main(["experiment", "fig6"]) == 0
        assert "Retrieval" in capsys.readouterr().out


class TestObserve:
    def test_traced_run_with_drift_check(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "observe", "--runs", "2", "--security-degree", "1",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ]) == 0
        output = capsys.readouterr().out
        # All three acceptance artifacts: span tree, Prometheus dump,
        # drift report.
        assert "== span tree ==" in output
        assert "ompe.interpolate" in output
        assert "== metrics (prometheus) ==" in output
        assert "repro_phase_bytes_total" in output
        assert "== cost-model drift ==" in output
        assert "ot-transfers" in output
        assert "DRIFT" not in output
        # Exported artifacts parse.
        import json

        spans = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert {span["name"] for span in spans} >= {
            "ompe", "ompe.params", "ompe.points",
            "ompe.ot_setup", "ompe.ot_transfer", "ompe.interpolate",
        }
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["repro_ompe_runs_total"]["series"][0]["value"] == 2

    def test_drift_exit_code(self, capsys):
        # An absurdly tight tolerance forces the drift verdict.
        code = main(["observe", "--security-degree", "1",
                     "--tolerance", "0.0001"])
        assert code == 3
        assert "DRIFT detected" in capsys.readouterr().err

    def test_leaves_global_observability_disabled(self):
        from repro import obs

        assert main(["observe", "--security-degree", "1"]) in (0, 3)
        assert obs.get_tracer().enabled is False
        assert obs.get_metrics().enabled is False

    def test_observe_clean_run_exits_zero(self):
        # Companion to test_drift_exit_code: the same
        # subcommand with a sane tolerance must exit 0, so automation
        # can branch on 0 (clean) / 3 (drift).
        assert main(["observe", "--security-degree", "1"]) == 0


class TestErrorHandling:
    def test_repro_error_becomes_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.libsvm"
        missing.write_text("")  # empty file → DatasetError
        assert main(["train", str(missing), str(tmp_path / "m.json")]) == 1
        assert "error:" in capsys.readouterr().err
