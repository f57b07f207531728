"""Tests for the report module (run_all, rendering, CLI flags)."""


from repro.evaluation.harness import ExperimentResult
from repro.evaluation.report import render_text, run_all


class TestRunAll:
    def test_selected_experiments_only(self):
        results = run_all(["fig6"])
        assert set(results) == {"fig6"}
        assert isinstance(results["fig6"], ExperimentResult)

    def test_render_text_contains_all(self):
        results = run_all(["fig6", "ext_expansion"])
        text = render_text(results)
        assert "Retrieval" in text
        assert "EXTENSION" in text


class TestMainEntry:
    def test_main_with_explicit_empty_args(self, capsys, monkeypatch):
        # Patch run_all to keep the smoke test fast.
        import repro.evaluation.report as report_module

        cheap = {
            "fig6": report_module.run_experiment("fig6"),
        }
        monkeypatch.setattr(report_module, "run_all", lambda: cheap)
        report_module.main([])
        assert "Retrieval" in capsys.readouterr().out

    def test_main_with_plots_flag(self, capsys, monkeypatch):
        import repro.evaluation.report as report_module

        cheap = {
            "fig5": report_module.run_experiment("fig5", train_size=200),
        }
        monkeypatch.setattr(report_module, "run_all", lambda: cheap)
        report_module.main(["--plots"])
        output = capsys.readouterr().out
        assert "direction error" in output  # the fig5 bar chart title
