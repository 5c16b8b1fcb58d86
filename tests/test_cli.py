"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.graph.generators import paper_example_graph
from repro.graph.io import write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    write_edge_list(paper_example_graph(), path)
    return str(path)


@pytest.fixture
def index_dir(graph_file, tmp_path):
    out = str(tmp_path / "index")
    assert main(["build", graph_file, "-o", out]) == 0
    return out


class TestStatsAndGenerate:
    def test_stats(self, graph_file, capsys):
        assert main(["stats", graph_file]) == 0
        out = capsys.readouterr().out
        assert "vertices:   13" in out
        assert "edges:      27" in out

    @pytest.mark.parametrize("model", ["ssca", "power-law", "gnm"])
    def test_generate(self, model, tmp_path, capsys):
        out = str(tmp_path / "g.txt")
        assert main(["generate", model, "-n", "100", "-o", out]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["stats", out]) == 0


class TestBuildQueryUpdate:
    def test_sc_query(self, index_dir, capsys):
        assert main(["query", index_dir, "--sc", "0", "3", "4"]) == 0
        assert "sc([0, 3, 4]) = 4" in capsys.readouterr().out

    def test_smcc_query(self, index_dir, capsys):
        assert main(["query", index_dir, "--smcc", "0", "3", "6"]) == 0
        out = capsys.readouterr().out
        assert "9 vertices" in out
        assert "connectivity 3" in out

    def test_smcc_l_query(self, index_dir, capsys):
        assert main(
            ["query", index_dir, "--smcc-l", "0", "3", "--size-bound", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "9 vertices" in out

    def test_query_requires_a_mode(self, index_dir, capsys):
        assert main(["query", index_dir]) == 2

    def test_update_roundtrip(self, index_dir, capsys):
        assert main(["update", index_dir, "--insert", "6", "9"]) == 0
        capsys.readouterr()
        assert main(["query", index_dir, "--sc", "0", "9"]) == 0
        assert "= 3" in capsys.readouterr().out

    def test_query_error_reported(self, index_dir, capsys):
        # vertex 99 does not exist -> ReproError -> exit code 1
        assert main(["query", index_dir, "--sc", "0", "99"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBenchCommand:
    def test_unknown_experiment(self, capsys):
        assert main(["bench", "table99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err
