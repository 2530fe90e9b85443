import json

import pytest

import geodesic.cli as cli
import geodesic.parallel as parallel
from geodesic.cli import MAX_DECIDE_VERTICES, MAX_THREADS, _default_threads, main
from geodesic.hypergraphs import based_hypergraph, complete_graph, cycle_graph
from geodesic.serialization import dumps, graph_to_dict, hypergraph_to_dict


@pytest.fixture
def c5_file(tmp_path):
    p = tmp_path / "c5.json"
    p.write_text(dumps(hypergraph_to_dict(based_hypergraph(cycle_graph(5)))))
    return str(p)


@pytest.fixture
def c6_file(tmp_path):
    p = tmp_path / "c6.json"
    p.write_text(dumps(hypergraph_to_dict(based_hypergraph(cycle_graph(6)))))
    return str(p)


class TestDecideCommand:
    def test_metric_exit_zero(self, c5_file, capsys):
        assert main(["decide", c5_file]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "metric"
        assert "witness" in data and "stats" in data

    def test_nonmetric_exit_ten(self, c6_file, capsys):
        assert main(["decide", c6_file]) == 10
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "nonmetric"

    def test_malformed_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"n\": 3}")
        assert main(["decide", str(bad)]) == 2

    def test_naive_flag(self, tmp_path, capsys):
        p = tmp_path / "h.json"
        p.write_text(dumps({"n": 3, "triples": [[0, 1, 2]]}))
        assert main(["decide", str(p), "--naive"]) == 0

    def test_output_file(self, c5_file, tmp_path):
        out = tmp_path / "verdict.json"
        assert main(["decide", c5_file, "-o", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == "metric"

    def test_huge_n_rejected_before_any_work(self, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("decision started on an over-size hypergraph")

        monkeypatch.setattr(cli, "decide_metric", no_work)
        monkeypatch.setattr(cli, "decide_metric_naive", no_work)
        p = tmp_path / "huge.json"
        p.write_text(dumps({"n": 1000000000, "triples": []}))
        assert main(["decide", str(p)]) == 2
        assert main(["decide", str(p), "--naive"]) == 2
        assert "at most" in capsys.readouterr().err

    def test_vertex_cap_boundary(self, tmp_path, capsys):
        for n, code in ((MAX_DECIDE_VERTICES, 0), (MAX_DECIDE_VERTICES + 1, 2)):
            p = tmp_path / f"empty{n}.json"
            p.write_text(dumps({"n": n, "triples": []}))
            assert main(["decide", str(p)]) == code


class TestThreadBound:
    @pytest.fixture(autouse=True)
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", refuse)

    def test_default_reads_environment(self, monkeypatch):
        monkeypatch.delenv("GEODESIC_THREADS", raising=False)
        assert _default_threads() == "1"
        monkeypatch.setenv("GEODESIC_THREADS", "3")
        assert _default_threads() == "3"

    @pytest.mark.parametrize("value", [str(MAX_THREADS + 1), "1000000", "0", "-1", "many"])
    def test_flag_out_of_range(self, c5_file, value, capsys):
        assert main(["decide", c5_file, "-j", value]) == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [str(MAX_THREADS + 1), "1000000", "0", "many"])
    def test_environment_out_of_range(self, c5_file, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GEODESIC_THREADS", value)
        assert main(["decide", c5_file]) == 2
        g = tmp_path / "c5g.json"
        g.write_text(dumps(graph_to_dict(cycle_graph(5))))
        assert main(["obstacle", str(g)]) == 2

    def test_flag_overrides_environment(self, c5_file, monkeypatch, capsys):
        monkeypatch.setenv("GEODESIC_THREADS", str(MAX_THREADS + 1))
        assert main(["decide", c5_file, "-j", "1"]) == 0


class TestConstructCommand:
    def test_c4_chart(self, capsys):
        assert main(["construct", "c4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["points"] == ["a", "b", "c", "d", "x"]
        assert data["dist"][1][4] == "3"
        assert data["dist"][0][2] == "2"

    def test_odd_cycle(self, capsys):
        assert main(["construct", "odd-cycle", "--s", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["points"]) == 8

    def test_path_bad_param(self, capsys):
        assert main(["construct", "path", "--k", "1"]) == 2

    def test_missing_param(self, capsys):
        assert main(["construct", "odd-cycle"]) == 2


class TestAnalyzeCommand:
    def test_c4_chart_lists_facts(self, tmp_path, capsys):
        main(["construct", "c4", "-o", str(tmp_path / "c4.json")])
        assert main(["analyze", str(tmp_path / "c4.json")]) == 0
        out = capsys.readouterr().out
        assert "betweenness facts (8):" in out
        assert "[x a b]" in out or "[b a x]" in out

    def test_two_point_file(self, tmp_path, capsys):
        (tmp_path / "two.json").write_text(dumps({"points": ["p", "q"], "dist": [["0", "1"], ["1", "0"]]}))
        assert main(["analyze", str(tmp_path / "two.json")]) == 0
        assert "betweenness facts (0):" in capsys.readouterr().out

    def test_invalid_metric(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text(dumps({"points": ["p", "q"], "dist": [["0", "1"], ["2", "0"]]}))
        assert main(["analyze", str(tmp_path / "bad.json")]) == 2


class TestObstacleCommand:
    def test_c6_certificate(self, tmp_path, capsys):
        p = tmp_path / "c6g.json"
        p.write_text(dumps(graph_to_dict(cycle_graph(6))))
        assert main(["obstacle", str(p)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "certified"
        assert data["based_verdict"]["verdict"] == "nonmetric"
        assert data["complement_based_verdict"]["verdict"] == "nonmetric"

    def test_c4_undetermined(self, tmp_path, capsys):
        p = tmp_path / "c4g.json"
        p.write_text(dumps(graph_to_dict(cycle_graph(4))))
        assert main(["obstacle", str(p)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "undetermined"
        assert "metric" in data["reason"]

    def test_k3_inapplicable(self, tmp_path, capsys):
        p = tmp_path / "k3.json"
        p.write_text(dumps(graph_to_dict(complete_graph(3))))
        assert main(["obstacle", str(p)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "inapplicable"
        assert "complement" in data["reason"]


class TestEnumerateCommand:
    def test_n3_empty_catalog(self, tmp_path, capsys):
        out = tmp_path / "catalog"
        assert main(["enumerate", "3", "--out", str(out)]) == 0
        index = json.loads((out / "index.json").read_text())
        assert index["count"] == 0 and not index["truncated"]

    def test_out_of_range(self, capsys):
        assert main(["enumerate", "9"]) == 2


class TestVerifyPaperCommand:
    def test_single_claim(self, capsys):
        assert main(["verify-paper", "--claim", "c4-chart"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "c4-chart" in out

    def test_unknown_claim(self, capsys):
        assert main(["verify-paper", "--claim", "no-such-claim"]) == 2
