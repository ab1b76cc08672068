"""Report bytes are the behaviour contract: the showcase script's reports
and the claims below that it does not run must reproduce the JSON
reports stored in golden/.

Together they cover an empty certificate, depth-1 and depth-2 peel
certificates (prop21_k3_n3, prop21_k4_n2), defect coefficients
(three_term_n5, and the 22 of three_term_n7, which the showcase does
not run), residual exponents (three_term_inconclusive) and the
level-10 trace, which cancels as a formal sum (hecke_5_3_level10,
recorded from the full expansion of its 56 terms).  Two claims below
the proven truncation go through the solver and end INCONCLUSIVE: a
depth-2 plus depth-1 certificate
(prop21_k4_n5_below_bound) and defect coefficients
(three_term_n5_below_bound).
"""
import contextlib
import io
import runpy
import sys
from functools import partial
from pathlib import Path

import pytest

import eisenlab
from eisenlab import acceptance
from eisenlab.cli import emit_report
from eisenlab.eisenstein import proven_truncation
from eisenlab.verifiers import (INCONCLUSIVE, LParams, TorsionPoint,
                                VerificationReport, verify_hecke_trace,
                                verify_prop21, verify_three_term_w2,
                                verify_two_term)

GOLDEN = Path(__file__).parent / "golden"
SHOWCASE = Path(__file__).parents[1] / "scripts" / "verify_showcase.py"

LAM5, MU5 = TorsionPoint(5, 1, 0), TorsionPoint(5, 0, 1)
LAM3, MU3 = TorsionPoint(3, 1, 0), TorsionPoint(3, 0, 1)
LAM2, MU2 = TorsionPoint(2, 1, 0), TorsionPoint(2, 0, 1)
ZERO = TorsionPoint(1, 0, 0)

# the golden claims at or above the proven truncation, given a truncation
# (None: the default); the showcase script runs the same claims
AT_TRUNCATION = {
    "two_term_n5": lambda b: verify_two_term(LAM5, MU5, 5, b),
    "three_term_n5": lambda b: verify_three_term_w2(LAM5, MU5, 5, b),
    "three_term_n7": lambda b: verify_three_term_w2(
        TorsionPoint(7, 1, 0), TorsionPoint(7, 0, 1), 7, b),
    "three_term_inconclusive": lambda b: verify_three_term_w2(
        TorsionPoint(5, 0, 0), MU5, 5, b),
    "prop21_k3_n3": lambda b: verify_prop21(LParams(LAM3, MU3, 2, -1, 3), 3,
                                            b),
    "prop21_k4_n2": lambda b: verify_prop21(LParams(LAM2, MU2, 1, 1, 4), 2,
                                            b),
    "hecke_5_3_w2": lambda b: verify_hecke_trace(5, 3, ZERO, ZERO, 2, 1, 1,
                                                 b),
    "hecke_2_1_w3": lambda b: verify_hecke_trace(2, 1, LAM2, MU2, 3, 1, 1, b),
    "hecke_5_3_level10": lambda b: verify_hecke_trace(5, 3, LAM2, MU2, 3, 1, 1,
                                                      b),
}

# the golden reports the showcase script does not write
DIRECT = {
    "three_term_inconclusive": lambda: AT_TRUNCATION[
        "three_term_inconclusive"](None),
    "three_term_n7": lambda: AT_TRUNCATION["three_term_n7"](None),
    "prop21_k4_n5_below_bound": lambda: verify_prop21(
        LParams(TorsionPoint(5, 1, 0), TorsionPoint(5, 0, 1), 1, 1, 4), 5,
        truncation=12),
    "three_term_n5_below_bound": lambda: verify_three_term_w2(
        TorsionPoint(5, 1, 0), TorsionPoint(5, 0, 1), 5, truncation=9),
}


def run_showcase(*args) -> None:
    """Run the showcase script in process with args, its output muted."""
    argv = sys.argv
    sys.argv = [str(SHOWCASE), *args]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(SHOWCASE), run_name="__main__")
    finally:
        sys.argv = argv


@pytest.fixture(scope="module")
def showcase_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("showcase")
    run_showcase("--out-dir", str(out))  # a clean run exits normally
    return out


def test_showcase_exits_one_on_a_claim_not_verified(monkeypatch):
    # the script imports the verifiers when it runs, so it gets the patch
    real = eisenlab.verify_prop21

    def inconclusive(*args):
        report = real(*args)
        return VerificationReport(
            report.claim_id, report.parameters, INCONCLUSIVE, report.defect,
            report.certificate, report.truncation, report.level)

    monkeypatch.setattr(eisenlab, "verify_prop21", inconclusive)
    with pytest.raises(SystemExit) as exit_:
        run_showcase()
    assert exit_.value.code == 1


def test_showcase_writes_the_golden_set(showcase_dir):
    written = {p.name for p in showcase_dir.iterdir()}
    golden = {p.name for p in GOLDEN.glob("*.json")}
    assert written == golden - {f"{name}.json" for name in DIRECT}


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_report_matches_golden(name, showcase_dir, tmp_path):
    if name in DIRECT:
        out = tmp_path / f"{name}.json"
        emit_report(DIRECT[name](), str(out))
    else:
        out = showcase_dir / f"{name}.json"
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def recorded_claims(criterion, monkeypatch):
    """The claims the acceptance criterion runs, each as (label, claim)
    with claim(b) its report at truncation b, recorded while it runs."""
    claims = []
    for name in ("verify_two_term", "verify_three_term_w2", "verify_prop21",
                 "verify_hecke_trace"):
        def record(*args, _real=getattr(acceptance, name)):
            claims.append((f"{_real.__name__}{args}", partial(_real, *args)))
            return _real(*args)
        monkeypatch.setattr(acceptance, name, record)
    ok, detail = criterion()
    monkeypatch.undo()
    assert ok, detail
    return claims


CRITERIA = {cid: fn for cid, _, fn in acceptance.CRITERIA
            if cid in ("criterion-06", "criterion-07", "criterion-08",
                       "criterion-09")}


@pytest.mark.parametrize("group", ["golden", *CRITERIA])
def test_proven_truncation_gives_the_default_verdicts(group, monkeypatch):
    # every claim of the group reaches the same verdict, defect
    # coefficients and certificate at the default truncation and at the
    # proven one: the golden claims not below the proven truncation, or
    # the claims of acceptance criteria 06-09
    golden = {p.stem for p in GOLDEN.glob("*.json")}
    assert set(AT_TRUNCATION) == {name for name in golden
                                  if not name.endswith("_below_bound")}
    claims = (list(AT_TRUNCATION.items()) if group == "golden"
              else recorded_claims(CRITERIA[group], monkeypatch))
    assert claims
    for name, claim in claims:
        default = claim(None)
        b = proven_truncation(default.defect.residual.weight, default.level)
        assert b < default.truncation, name
        proven = claim(b)
        assert proven.truncation == b
        assert proven.status == default.status, name
        assert proven.defect.coefficients == default.defect.coefficients, name
        assert proven.certificate == default.certificate, name
