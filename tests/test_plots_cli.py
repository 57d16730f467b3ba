"""Tests for the ASCII plots and the command-line interface."""

import pytest

from repro.cli import main
from repro.core.plots import ascii_plot
from repro.graphs.io import read_dataset


class TestAsciiPlot:
    SERIES = {
        "ggsx": [(10, 0.01), (20, 0.1), (30, 1.0)],
        "gindex": [(10, 1.0), (20, 10.0), (30, None)],
    }

    def test_contains_title_and_legend(self):
        plot = ascii_plot("Indexing time", self.SERIES)
        assert "Indexing time" in plot
        assert "o=ggsx" in plot and "x=gindex" in plot

    def test_markers_present(self):
        plot = ascii_plot("t", self.SERIES)
        assert "o" in plot and "x" in plot

    def test_missing_points_skipped(self):
        plot = ascii_plot("t", {"a": [(1, None), (2, None)]})
        assert "(no data)" in plot

    def test_log_axis_labels(self):
        plot = ascii_plot("t", self.SERIES, log_y=True)
        assert "log-y" in plot
        assert "0.01" in plot  # bottom label
        assert "10" in plot  # top label

    def test_linear_axis(self):
        plot = ascii_plot("t", self.SERIES, log_y=False)
        assert "linear-y" in plot

    def test_dimensions_respected(self):
        plot = ascii_plot("t", self.SERIES, width=30, height=8)
        body_lines = [l for l in plot.splitlines() if "|" in l]
        assert len(body_lines) == 8
        assert all(len(l.split("|", 1)[1]) == 30 for l in body_lines)

    def test_single_point(self):
        plot = ascii_plot("t", {"a": [(5, 2.0)]})
        assert "#" not in plot  # only first marker used
        assert "o" in plot


@pytest.fixture()
def dataset_file(tmp_path):
    path = tmp_path / "data.gfd"
    code = main(
        [
            "generate",
            str(path),
            "--graphs", "12",
            "--nodes", "10",
            "--density", "0.25",
            "--labels", "3",
            "--seed", "4",
        ]
    )
    assert code == 0
    return path


class TestCli:
    def test_generate_writes_dataset(self, dataset_file):
        dataset = read_dataset(dataset_file)
        assert len(dataset) == 12

    def test_generate_real_stand_in(self, tmp_path):
        path = tmp_path / "aids.gfd"
        code = main(["generate", str(path), "--real", "AIDS", "--scale", "0.002"])
        assert code == 0
        assert len(read_dataset(path)) >= 5

    def test_stats_prints_table(self, dataset_file, capsys):
        assert main(["stats", str(dataset_file)]) == 0
        out = capsys.readouterr().out
        assert "#graphs" in out and "avg degree" in out

    def test_queries_roundtrip(self, dataset_file, tmp_path):
        query_file = tmp_path / "queries.gfd"
        code = main(
            ["queries", str(dataset_file), str(query_file), "--count", "3", "--edges", "4"]
        )
        assert code == 0
        workload = read_dataset(query_file)
        assert len(workload) == 3
        assert all(q.size == 4 for q in workload)

    def test_build_and_save(self, dataset_file, tmp_path, capsys):
        index_file = tmp_path / "ggsx.idx"
        code = main(
            [
                "build", str(dataset_file),
                "--method", "ggsx",
                "--option", "max_path_edges=3",
                "--save", str(index_file),
            ]
        )
        assert code == 0
        assert index_file.exists()
        assert "built ggsx" in capsys.readouterr().out

    def test_build_unknown_method_fails(self, dataset_file, capsys):
        assert main(["build", str(dataset_file), "--method", "btree"]) == 2
        assert "unknown method" in capsys.readouterr().err

    def test_build_budget_timeout(self, dataset_file, capsys):
        code = main(
            [
                "build", str(dataset_file),
                "--method", "gindex",
                "--budget", "0.000001",
            ]
        )
        assert code == 2
        assert "budget" in capsys.readouterr().err

    def test_query_compares_methods(self, dataset_file, tmp_path, capsys):
        query_file = tmp_path / "queries.gfd"
        main(["queries", str(dataset_file), str(query_file), "--count", "2", "--edges", "3"])
        code = main(
            [
                "query", str(dataset_file), str(query_file),
                "--method", "ggsx",
                "--method", "naive",
                "--option", "max_path_edges=2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ggsx" in out and "naive" in out
        assert "DISAGREES" not in out

    def test_query_with_loaded_index(self, dataset_file, tmp_path, capsys):
        index_file = tmp_path / "saved.idx"
        main(["build", str(dataset_file), "--method", "ctindex",
              "--option", "fingerprint_bits=256", "--option", "feature_edges=2",
              "--save", str(index_file)])
        query_file = tmp_path / "queries.gfd"
        main(["queries", str(dataset_file), str(query_file), "--count", "2", "--edges", "3"])
        code = main(
            [
                "query", str(dataset_file), str(query_file),
                "--load", str(index_file),
                "--method", "naive",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ctindex" in out and "DISAGREES" not in out

    def test_missing_dataset_fails_cleanly(self, capsys):
        assert main(["stats", "/no/such/file.gfd"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_option_syntax_fails(self, dataset_file, capsys):
        code = main(
            ["build", str(dataset_file), "--method", "ggsx", "--option", "oops"]
        )
        assert code == 2
        assert "KEY=VALUE" in capsys.readouterr().err


class TestCliJobs:
    """`repro build` / `repro query` batch across methods via --jobs."""

    def test_build_multiple_methods_sequential(self, dataset_file, capsys):
        code = main(
            ["build", str(dataset_file), "--method", "ggsx", "--method", "naive",
             "--option", "max_path_edges=2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "built ggsx" in out and "built naive" in out

    def test_build_multiple_methods_parallel(self, dataset_file, capsys):
        code = main(
            ["build", str(dataset_file), "--method", "ggsx", "--method", "naive",
             "--option", "max_path_edges=2", "--jobs", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "built ggsx" in out and "built naive" in out

    def test_build_save_requires_single_method(self, dataset_file, tmp_path, capsys):
        code = main(
            ["build", str(dataset_file), "--method", "ggsx", "--method", "naive",
             "--save", str(tmp_path / "x.idx")]
        )
        assert code == 2
        assert "single --method" in capsys.readouterr().err

    def test_build_all_timeout_parallel_fails(self, dataset_file, capsys):
        code = main(
            ["build", str(dataset_file), "--method", "gindex", "--method",
             "tree+delta", "--jobs", "2", "--budget", "0.000001"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "TIMED OUT" in captured.out
        assert "budget" in captured.err

    @pytest.mark.parametrize(
        "methods", [["ggsx"], ["ggsx", "ctindex"]], ids=["one", "pooled"]
    )
    def test_build_zero_budget_fails_at_once(self, dataset_file, capsys, methods):
        """``--budget 0`` is a budget that expires at the first poll —
        as in the sweep engine — not "no budget"."""
        args = ["build", str(dataset_file), "--budget", "0", "--jobs", "2"]
        for method in methods:
            args += ["--method", method]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out.count("TIMED OUT") == len(methods)
        assert "built" not in captured.out
        assert "0s build budget" in captured.err

    def test_query_zero_budget_times_every_method_out(
        self, dataset_file, tmp_path, capsys
    ):
        query_file = tmp_path / "queries.gfd"
        main(["queries", str(dataset_file), str(query_file),
              "--count", "2", "--edges", "3"])
        capsys.readouterr()
        code = main(["query", str(dataset_file), str(query_file),
                     "--method", "ggsx", "--method", "naive", "--budget", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("TIMED OUT") == 2 and " avg " not in out

    def test_build_partial_timeout_still_fails(self, dataset_file, capsys):
        """One timed-out method fails the command even when others
        finish — same contract as the single-method path."""
        code = main(
            ["build", str(dataset_file), "--method", "gindex", "--method",
             "naive", "--jobs", "2", "--budget", "0.000001"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "built naive" in captured.out
        assert "gindex" in captured.err and "budget" in captured.err

    def test_build_rejects_option_no_method_accepts(self, dataset_file, capsys):
        code = main(
            ["build", str(dataset_file), "--method", "ggsx", "--method",
             "naive", "--option", "mx_path_edges=2"]
        )
        assert code == 2
        assert "not accepted by any selected method" in capsys.readouterr().err

    def test_query_parallel_matches_sequential(self, dataset_file, tmp_path, capsys):
        query_file = tmp_path / "queries.gfd"
        main(["queries", str(dataset_file), str(query_file),
              "--count", "3", "--edges", "3"])
        capsys.readouterr()
        args = ["query", str(dataset_file), str(query_file),
                "--method", "ggsx", "--method", "naive", "--method", "ctindex",
                "--option", "max_path_edges=2", "--option", "fingerprint_bits=256"]
        assert main(args) == 0
        sequential = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out

        def measured(text):
            # Strip the timing column; everything else must agree.
            rows = []
            for line in text.splitlines()[1:]:
                name, _, rest = line.strip().partition(" avg ")
                rows.append((name.strip(), rest.split("candidates", 1)[-1]))
            return rows

        assert measured(parallel) == measured(sequential)
        assert "DISAGREES" not in parallel

    @pytest.mark.parametrize("mode", ["in-process", "pooled", "loaded"])
    def test_query_admits_the_workload_once_as_csr(
        self, dataset_file, tmp_path, monkeypatch, mode
    ):
        """Every index — built in process, in a pool worker, or loaded
        from disk — receives already-converted ``CSRGraph`` queries."""
        from repro.indexes.base import GraphIndex

        query_file = tmp_path / "queries.gfd"
        main(["queries", str(dataset_file), str(query_file),
              "--count", "3", "--edges", "3"])
        args = ["query", str(dataset_file), str(query_file),
                "--method", "ggsx", "--method", "naive"]
        if mode == "loaded":
            index_file = tmp_path / "saved.idx"
            main(["build", str(dataset_file), "--method", "ggsx",
                  "--save", str(index_file)])
            args += ["--load", str(index_file)]
        args += ["--jobs", "2" if mode == "pooled" else "1"]
        # A file, not a list: pool workers are forked with this patch.
        received = tmp_path / "received.log"
        original = GraphIndex.query

        def logged_query(self, query, **kwargs):
            with open(received, "a", encoding="utf-8") as log:
                log.write(type(query).__name__ + "\n")
            return original(self, query, **kwargs)

        monkeypatch.setattr(GraphIndex, "query", logged_query)
        assert main(args) == 0
        assert received.read_text(encoding="utf-8").split() == ["CSRGraph"] * 6

    def test_query_rejects_negative_jobs(self, dataset_file, tmp_path, capsys):
        query_file = tmp_path / "queries.gfd"
        main(["queries", str(dataset_file), str(query_file),
              "--count", "2", "--edges", "3"])
        code = main(["query", str(dataset_file), str(query_file),
                     "--method", "naive", "--jobs", "-1"])
        assert code == 2
        assert "--jobs" in capsys.readouterr().err
