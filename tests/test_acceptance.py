"""Acceptance suite: one test per claim of the ``verify-paper`` manifest,
each printing its PASS/FAIL line (run with -s to watch them).

The claims live in ``geodesic.replay.CLAIMS``; a claim appended there is
tested here with no edit to this file.
"""

import pytest

from geodesic.replay import CLAIMS, run_manifest


@pytest.mark.parametrize("claim_id", [c.claim_id for c in CLAIMS])
def test_claim(claim_id):
    report = run_manifest(only=claim_id)
    print(report.lines()[0])
    result = report.results[0]
    assert result.passed, result.detail


def test_criterion_9_enumeration():
    # criterion 9 (empty at 3 vertices, rediscovery at 6) must stay in the
    # manifest: dropping either claim from CLAIMS fails here, not silently
    for claim_id in ("enumeration-n3-empty", "enumeration-n6-rediscovery"):
        report = run_manifest(only=claim_id)
        print(report.lines()[0])
        result = report.results[0]
        assert result.passed, result.detail
