"""Verification suites: a suite that meets a disagreement reports it."""

from gluecount import SurfaceSignature, count_closed
from gluecount.verify import suite_brute_oracle


def test_brute_oracle_reports_first_disagreement(monkeypatch):
    # (g=1, ns=[1]) is the 12th signature with a polygon of at most 6 edges.
    def off_by_one(sig):
        return count_closed(sig) + (sig == SurfaceSignature(1, (1,)))

    monkeypatch.setattr("gluecount.verify.count_closed", off_by_one)
    result = suite_brute_oracle(6)
    assert (result.passed, result.checked) == (False, 12)
    assert result.failure == "sig=(g=1, ns=[1]): brute=1, closed=2"
    assert result.line() == "FAIL brute-vs-closed N<=6: sig=(g=1, ns=[1]): brute=1, closed=2"
