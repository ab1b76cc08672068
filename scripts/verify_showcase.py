#!/usr/bin/env python3
"""Run the flagship verifications end to end and print their reports;
exit 1 when any of the seven claims is not VERIFIED.

The whole set, the level-10 trace instance at truncation 910 included,
takes about 0.2 s with the imports (2-core Xeon VM): that trace cancels
as a formal sum, so none of its series is expanded.
"""
from __future__ import annotations

import argparse
import time
from pathlib import Path

from eisenlab import (
    VERIFIED,
    LParams,
    TorsionPoint,
    verify_hecke_trace,
    verify_prop21,
    verify_three_term_w2,
    verify_two_term,
)
from eisenlab.cli import emit_report


def show(claim, out_dir: Path | None, tag: str) -> bool:
    """Run the claim, a call that returns its report, and time it; print
    the report, write it into out_dir if given, and say whether it is
    VERIFIED."""
    started = time.perf_counter()
    report = claim()
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    defect_n = len(report.defect.coefficients)
    print(f"{report.claim_id}: {report.status}  "
          f"(level {report.level}, truncation {report.truncation}, "
          f"defect coefficients {defect_n}, {elapsed_ms:.0f} ms)")
    for idx, value in list(report.defect.coefficients.items())[:3]:
        print(f"    defect[{idx.weight},{idx.c1},{idx.c2}] = "
              f"{value.to_string()}")
    if defect_n > 3:
        print(f"    ... {defect_n - 3} more")
    if out_dir is not None:
        path = out_dir / f"{tag}.json"
        emit_report(report, str(path))
        print(f"    report -> {path}")
    return report.status == VERIFIED


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="also write JSON reports into this directory")
    args = parser.parse_args()
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()

    lam5 = TorsionPoint(5, 1, 0)
    mu5 = TorsionPoint(5, 0, 1)
    lam3 = TorsionPoint(3, 1, 0)
    mu3 = TorsionPoint(3, 0, 1)
    lam2 = TorsionPoint(2, 1, 0)
    mu2 = TorsionPoint(2, 0, 1)
    zero = TorsionPoint(1, 0, 0)
    verified = [
        show(lambda: verify_two_term(lam5, mu5, 5), args.out_dir,
             "two_term_n5"),
        show(lambda: verify_three_term_w2(lam5, mu5, 5), args.out_dir,
             "three_term_n5"),
        show(lambda: verify_prop21(LParams(lam3, mu3, 2, -1, 3), 3),
             args.out_dir, "prop21_k3_n3"),
        show(lambda: verify_prop21(LParams(lam2, mu2, 1, 1, 4), 2),
             args.out_dir, "prop21_k4_n2"),
        show(lambda: verify_hecke_trace(5, 3, zero, zero, 2, 1, 1),
             args.out_dir, "hecke_5_3_w2"),
        show(lambda: verify_hecke_trace(2, 1, lam2, mu2, 3, 1, 1),
             args.out_dir, "hecke_2_1_w3"),
        show(lambda: verify_hecke_trace(5, 3, lam2, mu2, 3, 1, 1),
             args.out_dir, "hecke_5_3_level10"),
    ]

    print(f"total {time.perf_counter() - started:.1f} s")
    if not all(verified):
        print(f"{verified.count(False)} of {len(verified)} claims "
              "not VERIFIED")
        raise SystemExit(1)


if __name__ == "__main__":
    main()
