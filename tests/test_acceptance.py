"""The release gate: every acceptance criterion, one test each.

Each test prints its own [PASS]/[FAIL] line (visible under pytest -s or
on failure) and enforces the criterion's runtime budget.
"""
import time

import pytest

from eisenlab import acceptance

BUDGETS_S = {
    "criterion-01": 10,
    "criterion-02": 1,
    "criterion-03": 5,
    "criterion-04": 30,
    "criterion-05": 120,
    "criterion-06": 10,
    "criterion-07": 60,
    "criterion-08": 600,
    "criterion-09": 900,
    "criterion-10": 600,
}


@pytest.mark.parametrize("cid,label,fn", acceptance.CRITERIA,
                         ids=[cid for cid, _, _ in acceptance.CRITERIA])
def test_criterion(cid, label, fn):
    started = time.perf_counter()
    ok, detail = fn()
    elapsed = time.perf_counter() - started
    print(f"[{'PASS' if ok else 'FAIL'}] {cid} {label}: {detail}")
    assert ok, f"{cid} {label}: {detail}"
    assert elapsed < BUDGETS_S[cid], (
        f"{cid} took {elapsed:.1f}s, budget {BUDGETS_S[cid]}s")


def test_criterion_10_keeps_stderr_quiet(capsys):
    # its deliberate usage error must not leak an error line
    ok, detail = acceptance.criterion_10_determinism()
    assert ok, detail
    assert capsys.readouterr().err == ""
