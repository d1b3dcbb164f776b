"""Integration tests: every experiment runs and honours the paper's
qualitative claims in fast mode.  (The benchmarks assert the full
quantitative bands; these keep the harness itself healthy.)"""

import pytest

from repro.experiments.runner import EXPERIMENTS, main


class TestAllExperimentsRun:
    @pytest.mark.parametrize("key", sorted(EXPERIMENTS))
    def test_runs_and_renders(self, key):
        result = EXPERIMENTS[key](True)  # fast mode
        assert result.experiment_id == key
        assert result.rows
        rendered = result.render()
        assert key in rendered
        assert result.paper_expectation  # every experiment states its target


class TestRunnerCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "table2" in out and "ext1" in out

    def test_selection(self, capsys):
        assert main(["--fast", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Q6850" in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    @pytest.mark.parametrize("band", ["inf", "nan", "0", "-1", "wide"])
    def test_unusable_check_model_band_errors(self, band, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--fast", "table1", "--check-model", band])
        assert exc.value.code == 2
        assert "--check-model" in capsys.readouterr().err

    def test_json_output(self, capsys):
        import json

        assert main(["--fast", "--json", "table1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "table1"
        assert payload["rows"]
        assert payload["paper_expectation"]

    def test_legacy_jobs_flag_is_accepted_and_ignored(self, capsys):
        """Scripts written for the removed process-pool engine still
        pass a worker count; the run is the same serial run."""
        assert main(["--fast", "--json", "fig3"]) == 0
        serial = capsys.readouterr()
        assert main(["--fast", "--json", "--jobs", "2", "fig3"]) == 0
        legacy = capsys.readouterr()
        assert legacy.out == serial.out
        assert legacy.err == ""

    def test_plot_output(self, capsys):
        assert main(["--fast", "--plot", "fig6"]) == 0
        out = capsys.readouterr().out
        assert "Fig 6" in out  # the ASCII chart title
        assert "|" in out

    def test_plot_skipped_for_tables(self, capsys):
        assert main(["--fast", "--plot", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Q6850" in out  # table rendered, no chart, no crash


class TestHeadlineNumbers:
    """The claims EXPERIMENTS.md records, pinned as tests."""

    def test_fig3_worked_example(self):
        result = EXPERIMENTS["fig3"](True)
        assert "alpha* = 0.160" in result.notes[0]
        assert "52.3%" in result.notes[0]

    def test_fig7_best_point(self):
        result = EXPERIMENTS["fig7"](True)
        speedups = result.column("speedup")
        assert 4.2 < max(speedups) < 4.9

    def test_fig8_platform_maxima(self):
        result = EXPERIMENTS["fig8"](True)
        for name, lo, hi in (("HPU1", 4.3, 4.9), ("HPU2", 4.1, 4.7)):
            series = [r[2] for r in result.rows if r[0] == name]
            assert lo < max(series) < hi

    def test_fig9_bands(self):
        result = EXPERIMENTS["fig9"](True)
        assert 17.5 < max(result.column("speedup sort")) < 21.5
        assert 10.5 < max(result.column("speedup sort+transfer")) < 13.0

    def test_table2_estimates(self):
        result = EXPERIMENTS["table2"](True)
        by_platform = {row[0]: row for row in result.rows}
        assert abs(by_platform["HPU1"][3] - 160) < 16
        assert abs(by_platform["HPU2"][3] - 65) < 7
