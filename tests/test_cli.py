import ast
import json
import re
import shlex
from pathlib import Path

import pytest

import geodesic
import geodesic.cli as cli
import geodesic.serialization as ser
from geodesic.cli import MAX_CHART_POINTS, MAX_DECIDE_VERTICES, main
from geodesic.hypergraphs import based_hypergraph, complete_graph, cycle_graph
from geodesic.serialization import dumps, graph_to_dict, hypergraph_to_dict


def equilateral_chart(points: int) -> dict:
    labels = [f"p{i}" for i in range(points)]
    return {"points": labels, "dist": [["0" if i == j else "1" for j in range(points)] for i in range(points)]}


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

    def test_output_file(self, c5_file, tmp_path):
        out = tmp_path / "verdict.json"
        assert main(["decide", c5_file, "-o", str(out)]) == 0
        assert json.loads(out.read_text())["verdict"] == "metric"

    def test_huge_n_rejected_before_any_work(self, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("decision started on an over-size hypergraph")

        monkeypatch.setattr(cli, "decide_metric", no_work)
        p = tmp_path / "huge.json"
        p.write_text(dumps({"n": 1000000000, "triples": []}))
        assert main(["decide", str(p)]) == 2
        assert "at most" in capsys.readouterr().err

    def test_vertex_cap_boundary(self, tmp_path, capsys):
        for n, code in ((MAX_DECIDE_VERTICES, 0), (MAX_DECIDE_VERTICES + 1, 2)):
            p = tmp_path / f"empty{n}.json"
            p.write_text(dumps({"n": n, "triples": []}))
            assert main(["decide", str(p)]) == code


# Valid JSON nested deeper than the parser recurses.
NESTED_JSON = "[" * 100_000 + "]" * 100_000

# Each input error: the command line, with FILE standing for a path in a
# fresh directory, and the text written there first (None: no file).
INPUT_ERRORS = {
    "analyze-missing-file": (["analyze", "FILE"], None),
    "analyze-malformed-json": (["analyze", "FILE"], "{not json"),
    "analyze-invalid-metric": (["analyze", "FILE"], dumps({"points": ["p", "q"], "dist": [["0", "1"], ["2", "0"]]})),
    "analyze-over-cap": (["analyze", "FILE"], dumps(equilateral_chart(MAX_CHART_POINTS + 1))),
    "analyze-nested-json": (["analyze", "FILE"], NESTED_JSON),
    "decide-missing-file": (["decide", "FILE"], None),
    "decide-malformed-json": (["decide", "FILE"], "{not json"),
    "decide-invalid-hypergraph": (["decide", "FILE"], dumps({"n": 3, "triples": [[0, 1, 5]]})),
    "decide-over-cap": (["decide", "FILE"], dumps({"n": MAX_DECIDE_VERTICES + 1, "triples": []})),
    "decide-boolean-vertex": (["decide", "FILE"], dumps({"n": 4, "triples": [[True, 2, 3]]})),
    "decide-boolean-size": (["decide", "FILE"], dumps({"n": True, "triples": []})),
    "decide-negative-size": (["decide", "FILE"], dumps({"n": -1, "triples": []})),
    "decide-nested-json": (["decide", "FILE"], NESTED_JSON),
    "obstacle-missing-file": (["obstacle", "FILE"], None),
    "obstacle-malformed-json": (["obstacle", "FILE"], "{not json"),
    "obstacle-invalid-graph": (["obstacle", "FILE"], dumps({"n": 3, "edges": [[0, 0]]})),
    "obstacle-over-cap": (["obstacle", "FILE"], dumps({"n": MAX_DECIDE_VERTICES, "edges": []})),
    "obstacle-boolean-vertex": (["obstacle", "FILE"], dumps({"n": 4, "edges": [[True, 2]]})),
    "obstacle-boolean-size": (["obstacle", "FILE"], dumps({"n": True, "edges": []})),
    "obstacle-negative-size": (["obstacle", "FILE"], dumps({"n": -1, "edges": []})),
    "obstacle-nested-json": (["obstacle", "FILE"], NESTED_JSON),
    "construct-over-cap": (["construct", "path", "--k", str(MAX_CHART_POINTS)], None),
    "enumerate-out-of-range": (["enumerate", "9", "--out", "FILE"], None),
    "enumerate-out-is-a-file": (["enumerate", "3", "--out", "FILE"], ""),
}


@pytest.mark.parametrize("argv, content", INPUT_ERRORS.values(), ids=INPUT_ERRORS.keys())
def test_input_error_exits_two_with_one_line(argv, content, tmp_path, capsys):
    path = tmp_path / "input"
    if content is not None:
        path.write_text(content)
    assert main([str(path) if a == "FILE" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("flag", [["-j", "2"], ["--naive"]], ids=["threads", "naive"])
def test_threads_flag_is_gone(c5_file, capsys, flag):
    assert main(["decide", c5_file, *flag]) == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "unrecognized arguments" in line] == [
        f"geodesic: error: unrecognized arguments: {' '.join(flag)}"
    ]


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

    def test_chart_size_cap_boundary(self, monkeypatch, capsys):
        # odd-cycle --s N has 2N + 2 points, path --k N has N + 1
        largest_s = (MAX_CHART_POINTS - 2) // 2
        assert main(["construct", "odd-cycle", "--s", str(largest_s)]) == 0
        assert main(["construct", "path", "--k", str(MAX_CHART_POINTS - 1), "--compact"]) == 0
        assert len(json.loads(capsys.readouterr().out.splitlines()[-1])["points"]) == MAX_CHART_POINTS

        def no_work(*args, **kwargs):
            raise AssertionError("an over-size chart was built")

        monkeypatch.setattr(cli, "odd_cycle_metric", no_work)
        monkeypatch.setattr(cli, "path_based_metric", no_work)
        assert main(["construct", "odd-cycle", "--s", str(largest_s + 1)]) == 2
        assert main(["construct", "path", "--k", str(MAX_CHART_POINTS)]) == 2
        assert "at most" in capsys.readouterr().err


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

    def test_point_cap_boundary(self, tmp_path, monkeypatch, capsys):
        at_cap = tmp_path / "at_cap.json"
        at_cap.write_text(dumps(equilateral_chart(MAX_CHART_POINTS)))
        assert main(["analyze", str(at_cap)]) == 0
        assert f"points ({MAX_CHART_POINTS}):" in capsys.readouterr().out

        def no_work(*args, **kwargs):
            raise AssertionError("an over-size chart was validated")

        monkeypatch.setattr(ser, "validate_metric", no_work)
        over_cap = tmp_path / "over_cap.json"
        over_cap.write_text(dumps(equilateral_chart(MAX_CHART_POINTS + 1)))
        assert main(["analyze", str(over_cap)]) == 2
        assert "at most" in capsys.readouterr().err


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

    def test_vertex_cap_boundary(self, tmp_path, monkeypatch, capsys):
        seen = []

        def no_decision(g, options=None):
            seen.append(g.n)
            raise cli.ObstacleRouteInapplicable("no decision in this test")

        monkeypatch.setattr(cli, "certify_obstacle", no_decision)
        for n, code in ((MAX_DECIDE_VERTICES - 1, 0), (MAX_DECIDE_VERTICES, 2), (1000000000, 2)):
            p = tmp_path / f"g{n}.json"
            p.write_text(dumps({"n": n, "edges": [[0, 1]]}))
            assert main(["obstacle", str(p)]) == code
        assert seen == [MAX_DECIDE_VERTICES - 1]
        assert "at most" in capsys.readouterr().err

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
        assert index["count"] == 0 and index["classes_examined"] == 2
        assert "truncated" not in index

    def test_out_of_range(self, capsys):
        assert main(["enumerate", "9"]) == 2

    def test_budget_flag_is_gone(self, tmp_path, capsys):
        assert main(["enumerate", "6", "--budget", "5", "--out", str(tmp_path)]) == 2
        assert "unrecognized arguments: --budget 5" in capsys.readouterr().err


class TestVerifyPaperCommand:
    def test_single_claim(self, capsys):
        assert main(["verify-paper", "--claim", "c4-chart"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "c4-chart" in out

    def test_unknown_claim(self, capsys):
        assert main(["verify-paper", "--claim", "no-such-claim"]) == 2


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```\n(.*?)^```", readme, re.M | re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv[:1] == ["geodesic"]]
    assert len(commands) >= 6
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def test_readme_library_names_resolve():
    # the block starts with ``from geodesic import *``, so every function
    # it calls must be a public name of the package
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Library surface\n\n```python\n(.*?)^```", readme, re.M | re.S).group(1)
    called = {
        node.func.id
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert len(called) >= 8
    missing = sorted(name for name in called if name not in geodesic.__all__ or not hasattr(geodesic, name))
    assert not missing, f"README calls names that geodesic does not export: {missing}"
