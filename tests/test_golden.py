"""Report bytes are the behaviour contract: the showcase script's reports
and one INCONCLUSIVE claim must reproduce the JSON reports stored in
golden/.

Together they cover an empty certificate, depth-1 and depth-2 peel
certificates (prop21_k3_n3, prop21_k4_n2), defect coefficients
(three_term_n5) and residual exponents (three_term_inconclusive).  Two
claims below the proven truncation go through the solver and end
INCONCLUSIVE: a depth-2 plus depth-1 certificate
(prop21_k4_n5_below_bound) and defect coefficients
(three_term_n5_below_bound).
"""
import contextlib
import io
import runpy
import sys
from pathlib import Path

import pytest

from eisenlab.cli import emit_report
from eisenlab.verifiers import (LParams, TorsionPoint, verify_prop21,
                                verify_three_term_w2)

GOLDEN = Path(__file__).parent / "golden"
SHOWCASE = Path(__file__).parents[1] / "scripts" / "verify_showcase.py"

# the golden reports the showcase script does not write
DIRECT = {
    "three_term_inconclusive": lambda: verify_three_term_w2(
        TorsionPoint(5, 0, 0), TorsionPoint(5, 0, 1), 5),
    "prop21_k4_n5_below_bound": lambda: verify_prop21(
        LParams(TorsionPoint(5, 1, 0), TorsionPoint(5, 0, 1), 1, 1, 4), 5,
        truncation=12),
    "three_term_n5_below_bound": lambda: verify_three_term_w2(
        TorsionPoint(5, 1, 0), TorsionPoint(5, 0, 1), 5, truncation=9),
}


@pytest.fixture(scope="module")
def showcase_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("showcase")
    argv = sys.argv
    sys.argv = [str(SHOWCASE), "--out-dir", str(out)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(SHOWCASE), run_name="__main__")
    finally:
        sys.argv = argv
    return out


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
