#!/usr/bin/env python3
"""Run the flagship verifications end to end and print their reports.

The default set finishes in under a second.  --full adds the level-10
trace instance at truncation 910, which takes about 5 s on its own
(measured on a 2-core Xeon VM with Python 3.11).
"""
from __future__ import annotations

import argparse
import time
from pathlib import Path

from eisenlab import (
    LParams,
    TorsionPoint,
    verify_hecke_trace,
    verify_prop21,
    verify_three_term_w2,
    verify_two_term,
)
from eisenlab.cli import emit_report


def show(report, out_dir: Path | None, tag: str) -> None:
    defect_n = len(report.defect.coefficients)
    print(f"{report.claim_id}: {report.status}  "
          f"(level {report.level}, truncation {report.truncation}, "
          f"defect coefficients {defect_n}, {report.elapsed_ms:.0f} ms)")
    for idx, value in list(report.defect.coefficients.items())[:3]:
        print(f"    defect[{idx.weight},{idx.c1},{idx.c2}] = "
              f"{value.to_string()}")
    if defect_n > 3:
        print(f"    ... {defect_n - 3} more")
    if out_dir is not None:
        path = out_dir / f"{tag}.json"
        emit_report(report, str(path))
        print(f"    report -> {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="also write JSON reports into this directory")
    parser.add_argument("--full", action="store_true",
                        help="include the slow level-10 trace instance")
    args = parser.parse_args()
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()

    lam5 = TorsionPoint(5, 1, 0)
    mu5 = TorsionPoint(5, 0, 1)
    show(verify_two_term(lam5, mu5, 5), args.out_dir, "two_term_n5")
    show(verify_three_term_w2(lam5, mu5, 5), args.out_dir, "three_term_n5")

    lam3 = TorsionPoint(3, 1, 0)
    mu3 = TorsionPoint(3, 0, 1)
    show(verify_prop21(LParams(lam3, mu3, 2, -1, 3), 3), args.out_dir,
         "prop21_k3_n3")
    lam2 = TorsionPoint(2, 1, 0)
    mu2 = TorsionPoint(2, 0, 1)
    show(verify_prop21(LParams(lam2, mu2, 1, 1, 4), 2), args.out_dir,
         "prop21_k4_n2")

    zero = TorsionPoint(1, 0, 0)
    show(verify_hecke_trace(5, 3, zero, zero, 2, 1, 1), args.out_dir,
         "hecke_5_3_w2")
    show(verify_hecke_trace(2, 1, lam2, mu2, 3, 1, 1), args.out_dir,
         "hecke_2_1_w3")
    if args.full:
        print("level-10 trace instance (this one is slow) ...")
        show(verify_hecke_trace(5, 3, lam2, mu2, 3, 1, 1), args.out_dir,
             "hecke_5_3_level10")

    print(f"total {time.perf_counter() - started:.1f} s")


if __name__ == "__main__":
    main()
