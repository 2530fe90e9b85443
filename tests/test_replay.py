import itertools
import types
from fractions import Fraction

import pytest

import geodesic.enumeration as enumeration
from geodesic.metric import validate_metric
import geodesic.replay as replay
from geodesic.replay import CLAIMS, run_manifest


class TestManifest:
    def test_claim_ids_unique(self):
        ids = [c.claim_id for c in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_single_claim_run(self):
        report = run_manifest(only="c4-chart")
        assert len(report.results) == 1
        assert report.results[0].passed
        assert report.ok

    def test_report_lines_format(self):
        report = run_manifest(only="odd-cycle-charts")
        line = report.lines()[0]
        assert line.startswith("PASS")
        assert "odd-cycle-charts" in line

    def test_unknown_claim(self):
        with pytest.raises(ValueError, match="unknown claim"):
            run_manifest(only="nope")

    def test_negative_control_corrupted_chart(self, monkeypatch):
        # a valid metric whose facts differ from the printed chart: the
        # chart claim must flag it while staying a clean failure report
        rows = [
            [0, 1, 2, 1, 2],
            [1, 0, 1, 2, 3],
            [2, 1, 0, 1, 2],
            [1, 2, 1, 0, 3],
            [2, 3, 2, 3, 0],
        ]
        rows[0][4] = rows[4][0] = Fraction(5, 2)  # nudge d(a,x)
        corrupted = validate_metric(["a", "b", "c", "d", "x"], rows)
        monkeypatch.setattr(replay, "c4_based_metric", lambda: corrupted)
        report = run_manifest(only="c4-chart")
        assert not report.ok
        assert not report.results[0].passed
        assert "FAIL" in report.lines()[0]

    def test_crashing_claims_report_as_failures(self, monkeypatch):
        # unknown-claim errors raise, but a claim body crash must not
        # abort the harness; simulate by handing the claim a non-metric chart
        monkeypatch.setattr(replay, "c4_based_metric", lambda: "not a metric")
        report = run_manifest(only="c4-chart")
        assert not report.ok
        assert "Error" in report.results[0].detail or ":" in report.results[0].detail


@pytest.mark.parametrize("claim_id", ["odd-cycles-metric", "even-cycles-nonmetric", "enumeration-n3-empty"])
def test_claims_ignore_the_clock(claim_id, monkeypatch):
    # a clock that jumps 10^4 s per reading: timing is reported, never judged
    clock = types.SimpleNamespace(monotonic=itertools.count(0.0, 1e4).__next__)
    monkeypatch.setattr(replay, "time", clock)
    monkeypatch.setattr(enumeration, "time", clock)
    (result,) = run_manifest(only=claim_id).results
    assert result.passed, result.detail
    assert result.elapsed >= 1e4
