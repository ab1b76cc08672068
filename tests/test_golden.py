"""Report bytes are the behaviour contract: the showcase claims and one
INCONCLUSIVE claim must reproduce the JSON reports stored in golden/.

Together they cover an empty certificate, depth-1 and depth-2 peel
certificates (prop21_k3_n3, prop21_k4_n2), defect coefficients
(three_term_n5) and residual exponents (three_term_inconclusive).
"""
from pathlib import Path

import pytest

from eisenlab.cli import emit_report
from eisenlab.verifiers import (
    LParams,
    TorsionPoint,
    verify_hecke_trace,
    verify_prop21,
    verify_three_term_w2,
    verify_two_term,
)

GOLDEN = Path(__file__).parent / "golden"

LAM5, MU5 = TorsionPoint(5, 1, 0), TorsionPoint(5, 0, 1)
LAM3, MU3 = TorsionPoint(3, 1, 0), TorsionPoint(3, 0, 1)
LAM2, MU2 = TorsionPoint(2, 1, 0), TorsionPoint(2, 0, 1)
ZERO = TorsionPoint(1, 0, 0)

CLAIMS = {
    "two_term_n5": lambda: verify_two_term(LAM5, MU5, 5),
    "three_term_n5": lambda: verify_three_term_w2(LAM5, MU5, 5),
    "prop21_k3_n3": lambda: verify_prop21(LParams(LAM3, MU3, 2, -1, 3), 3),
    "prop21_k4_n2": lambda: verify_prop21(LParams(LAM2, MU2, 1, 1, 4), 2),
    "hecke_5_3_w2": lambda: verify_hecke_trace(5, 3, ZERO, ZERO, 2, 1, 1),
    "hecke_2_1_w3": lambda: verify_hecke_trace(2, 1, LAM2, MU2, 3, 1, 1),
    "three_term_inconclusive": lambda: verify_three_term_w2(
        TorsionPoint(5, 0, 0), MU5, 5),
}


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_report_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.json"
    emit_report(CLAIMS[name](), str(out))
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
