from fractions import Fraction

from geodesic.metric import validate_metric
from geodesic.replay import CLAIMS, ReplayContext, run_manifest


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
        import pytest

        with pytest.raises(ValueError, match="unknown claim"):
            run_manifest(only="nope")

    def test_negative_control_corrupted_chart(self):
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
        ctx = ReplayContext(c4_chart_override=corrupted)
        report = run_manifest(only="c4-chart", ctx=ctx)
        assert not report.ok
        assert not report.results[0].passed
        assert "FAIL" in report.lines()[0]

    def test_crashing_claims_report_as_failures(self):
        # unknown-claim errors raise, but a claim body crash must not
        # abort the harness; simulate by running with a hostile override
        ctx = ReplayContext(c4_chart_override="not a metric")  # type: ignore[arg-type]
        report = run_manifest(only="c4-chart", ctx=ctx)
        assert not report.ok
        assert "Error" in report.results[0].detail or ":" in report.results[0].detail
