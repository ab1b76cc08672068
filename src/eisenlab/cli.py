"""Command-line front end: verifications, expansions, reports, figures.

Exit codes: 0 VERIFIED or plain success, 3 INCONCLUSIVE, 2 a failed
kernel proof or selftest, 1 usage and configuration errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import lcm

from .eisenstein import EisIndex
from .hull import HullChain, hull_chain, sublattice_points
from .quasiforms import QuasiForm, eis_series
from .ratfunc import KERNEL_IDS, kernel_scope
from .verifiers import (
    INCONCLUSIVE,
    VERIFIED,
    LParams,
    TorsionPoint,
    VerificationReport,
    pq_samples,
    verify_hecke_trace,
    verify_prop21,
    verify_three_term_w2,
    verify_two_term,
)


def parse_torsion(text: str) -> TorsionPoint:
    """Parse "c1,c2@M" into a torsion point.

    >>> parse_torsion("1,2@5")
    TorsionPoint(denominator=5, c1=1, c2=2)
    """
    try:
        coords, den = text.split("@")
        c1, c2 = coords.split(",")
        return TorsionPoint(int(den), int(c1), int(c2))
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected torsion point as c1,c2@M, got {text!r}") from exc


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected rational n or n/d, got {text!r}") from exc


def status_exit(status: str) -> int:
    return {VERIFIED: 0, INCONCLUSIVE: 3}[status]


# -- report serialization --------------------------------------------------


def _residual_exponents(residual: QuasiForm) -> list[list[int]]:
    out = []
    for j, comp in enumerate(residual.components):
        for n in comp.nonzero_exponents():
            out.append([j, n])
    return sorted(out)


def report_payload(report: VerificationReport) -> dict:
    coeffs = [
        {"weight": idx.weight, "c1": idx.c1, "c2": idx.c2,
         "value": value.to_string()}
        for idx, value in report.defect.coefficients.items()
    ]
    certificate = [
        {"weight": idx.weight, "c1": idx.c1, "c2": idx.c2,
         "scale": scale.to_string()}
        for idx, scale in report.certificate
    ]
    return {
        "claim_id": report.claim_id,
        "parameters": report.parameters,
        "status": report.status,
        "defect": {
            "coefficients": coeffs,
            "certificate": certificate,
            "residual_nonzero_exponents": _residual_exponents(
                report.defect.residual),
        },
        "truncation": report.truncation,
        "level": report.level,
        # wall-clock time is the one nondeterministic field; reports are
        # specified to be byte-identical across runs, so it is zeroed
        "elapsed_ms": 0,
    }


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def emit_report(report: VerificationReport, path: str) -> None:
    _write(path, json.dumps(report_payload(report), indent=2,
                            ensure_ascii=False) + "\n")


def _print_report(report: VerificationReport, suffix: str = "") -> None:
    defect_n = len(report.defect.coefficients)
    residual_n = len(_residual_exponents(report.defect.residual))
    print(f"{report.claim_id}: {report.status}  "
          f"(level {report.level}, truncation {report.truncation}, "
          f"defect coefficients {defect_n}, residual entries {residual_n})"
          f"{suffix}")
    if report.status == INCONCLUSIVE and residual_n:
        print("  residual exponents (Y-degree, q-exponent): "
              + ", ".join(f"({j},{n})"
                          for j, n in _residual_exponents(
                              report.defect.residual)[:12]))


# -- hull figure -----------------------------------------------------------


def emit_hull_svg(chain: HullChain, path: str) -> None:
    """Plot the first-quadrant sublattice points and the hull polyline."""
    n = chain.level
    margin, side = 40.0, 360.0
    step = side / n
    size = 2 * margin + side

    def x_of(v: float) -> float:
        return margin + v * step

    def y_of(v: float) -> float:
        return margin + side - v * step

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
        # axes
        f'<line x1="{x_of(0):.2f}" y1="{y_of(0):.2f}" x2="{x_of(n):.2f}" '
        f'y2="{y_of(0):.2f}" stroke="black" stroke-width="1"/>',
        f'<line x1="{x_of(0):.2f}" y1="{y_of(0):.2f}" x2="{x_of(0):.2f}" '
        f'y2="{y_of(n):.2f}" stroke="black" stroke-width="1"/>',
        f'<text x="{x_of(n) + 8:.2f}" y="{y_of(0) + 4:.2f}" '
        f'font-size="14">x</text>',
        f'<text x="{x_of(0) - 4:.2f}" y="{y_of(n) - 8:.2f}" '
        f'font-size="14">y</text>',
        f'<text x="{x_of(n):.2f}" y="{y_of(0) + 16:.2f}" font-size="11" '
        f'text-anchor="middle">{n}</text>',
        f'<text x="{x_of(0) - 10:.2f}" y="{y_of(n) + 4:.2f}" '
        f'font-size="11" text-anchor="end">{n}</text>',
    ]
    for px, py in sublattice_points(n, chain.shear):
        parts.append(
            f'<circle cx="{x_of(px):.2f}" cy="{y_of(py):.2f}" r="3" '
            f'fill="steelblue"/>')
    pts = " ".join(f"{x_of(px):.2f},{y_of(py):.2f}" for px, py in chain.vectors)
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="crimson" '
        f'stroke-width="2"/>')
    for px, py in chain.vectors:
        parts.append(
            f'<circle cx="{x_of(px):.2f}" cy="{y_of(py):.2f}" r="4" '
            f'fill="crimson"/>')
    parts.append("</svg>")
    _write(path, "\n".join(parts) + "\n")


# -- expansion dump --------------------------------------------------------


def expand_csv(idx: EisIndex, truncation: int | None = None) -> str:
    form = eis_series(idx, truncation)
    holo = form.component(0)
    lines = [
        "level,weight,c1,c2,truncation,Ydepth",
        f"{idx.level},{idx.weight},{idx.c1},{idx.c2},"
        f"{form.truncation},{form.depth}",
    ]
    for n, c in sorted(holo.coeffs.items()):
        lines.append(f"{n}, {c.to_string()}")
    return "\n".join(lines) + "\n"


# -- subcommand handlers ---------------------------------------------------


def cmd_symbolic(cfg: argparse.Namespace) -> int:
    if cfg.shear is not None and cfg.sub_level is None:
        raise ValueError("--shear needs --sub-level")
    if cfg.weight is not None and cfg.identity not in ("K23", "K34"):
        raise ValueError(f"--weight does not apply to {cfg.identity}: "
                         "only K23 and K34 read a weight")
    if cfg.sub_level is not None and cfg.identity not in ("K32", "K33", "K34"):
        raise ValueError(f"--sub-level does not apply to {cfg.identity}: "
                         "only K32, K33 and K34 read a chain")
    chain = None
    if cfg.sub_level is not None:
        chain = hull_chain(cfg.sub_level,
                           cfg.shear if cfg.shear is not None else 1)
    scope = kernel_scope(cfg.identity, cfg.weight, chain)
    for label, proof in scope:
        ok, witness = proof()
        if not ok:
            print(f"{cfg.identity}: FAIL at {label}; witness = {witness}")
            return 2
    n = len(scope)
    print(f"{cfg.identity}: PASS ({n} instance{'s' if n != 1 else ''})")
    return 0


def cmd_hull(cfg: argparse.Namespace) -> int:
    chain = hull_chain(cfg.sub_level, cfg.shear)
    print("[" + ",".join(f"({x},{y})" for x, y in chain.vectors) + "]")
    if cfg.out:
        _write(cfg.out, json.dumps([[x, y] for x, y in chain.vectors]) + "\n")
    if cfg.figure:
        emit_hull_svg(chain, cfg.figure)
    return 0


def cmd_expand(cfg: argparse.Namespace) -> int:
    idx = EisIndex(cfg.weight, cfg.lam.denominator, cfg.lam.c1, cfg.lam.c2)
    text = expand_csv(idx, cfg.prec)
    if cfg.out:
        _write(cfg.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _finish(report: VerificationReport, cfg: argparse.Namespace,
            suffix: str = "") -> int:
    _print_report(report, suffix)
    if cfg.out:
        emit_report(report, cfg.out)
    return status_exit(report.status)


def _level(cfg: argparse.Namespace) -> int:
    """A claim's working level: the lcm of its points' denominators."""
    return lcm(cfg.lam.denominator, cfg.mu.denominator)


def cmd_two_term(cfg: argparse.Namespace) -> int:
    return _finish(verify_two_term(cfg.lam, cfg.mu, _level(cfg), cfg.prec),
                   cfg)


def cmd_three_term(cfg: argparse.Namespace) -> int:
    return _finish(
        verify_three_term_w2(cfg.lam, cfg.mu, _level(cfg), cfg.prec), cfg)


def _run_claims(cfg: argparse.Namespace, verify) -> int:
    """Run verify(p, q) on the --p/--q pair, or on each sample of
    `pq_samples(cfg.weight)`, whose summary line ends with its pair.  Any
    INCONCLUSIVE (3) sets the exit code; 0 without --p/--q means the
    claim holds for every (p, q)."""
    if (cfg.p is None) != (cfg.q is None):
        print("error: provide both --p and --q, or neither", file=sys.stderr)
        return 1
    if cfg.p is None and cfg.out:
        print("error: --out needs an explicit --p/--q pair", file=sys.stderr)
        return 1
    if cfg.p is not None:
        return _finish(verify(cfg.p, cfg.q), cfg)
    codes = [_finish(verify(p, q), cfg, f"  at (p, q) = ({p}, {q})")
             for p, q in pq_samples(cfg.weight)]
    return max(codes)


def cmd_prop21(cfg: argparse.Namespace) -> int:
    n_work = _level(cfg)
    return _run_claims(cfg, lambda p, q: verify_prop21(
        LParams(cfg.lam, cfg.mu, p, q, cfg.weight), n_work, cfg.prec))


def cmd_hecke(cfg: argparse.Namespace) -> int:
    m = _level(cfg)
    lam, mu = cfg.lam.rescale(m), cfg.mu.rescale(m)
    return _run_claims(cfg, lambda p, q: verify_hecke_trace(
        cfg.sub_level, cfg.shear, lam, mu, cfg.weight, p, q, cfg.prec))


def cmd_selftest(cfg: argparse.Namespace) -> int:
    from .acceptance import run_all

    return 0 if run_all() else 2


DISPATCH = {
    "symbolic": cmd_symbolic,
    "hull": cmd_hull,
    "expand": cmd_expand,
    "two-term": cmd_two_term,
    "three-term": cmd_three_term,
    "prop21": cmd_prop21,
    "hecke": cmd_hecke,
    "selftest": cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eisenlab",
        description="Exact verification of Eisenstein-product identities.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, *, prec=True):
        if prec:
            sp.add_argument("--prec", type=int, default=None,
                            help="truncation override (q_N exponent bound)")
        sp.add_argument("--out", default=None,
                        help="write the JSON report here")

    sp = sub.add_parser("symbolic", help="prove a rational-function kernel")
    sp.add_argument("--identity", required=True, choices=KERNEL_IDS)
    sp.add_argument("--weight", type=int, default=None)
    sp.add_argument("--sub-level", dest="sub_level", type=int, default=None)
    sp.add_argument("--shear", type=int, default=None)

    sp = sub.add_parser("hull", help="print a sublattice hull chain")
    sp.add_argument("--sub-level", dest="sub_level", type=int, required=True)
    sp.add_argument("--shear", type=int, required=True)
    sp.add_argument("--figure", default=None, help="write an SVG here")
    common(sp, prec=False)

    sp = sub.add_parser("expand", help="dump one series expansion as CSV")
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--lam", type=parse_torsion, required=True,
                    metavar="c1,c2@N")
    common(sp)

    for name in ("two-term", "three-term"):
        sp = sub.add_parser(name, help=f"verify the {name} relation")
        sp.add_argument("--lam", type=parse_torsion, required=True,
                        metavar="c1,c2@M")
        sp.add_argument("--mu", type=parse_torsion, required=True,
                        metavar="c1,c2@M")
        common(sp)

    sp = sub.add_parser("prop21", help="verify the cyclic weighted sum")
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--lam", type=parse_torsion, required=True,
                    metavar="c1,c2@M")
    sp.add_argument("--mu", type=parse_torsion, required=True,
                    metavar="c1,c2@M")
    sp.add_argument("--p", type=parse_rational, default=None)
    sp.add_argument("--q", type=parse_rational, default=None)
    common(sp)

    sp = sub.add_parser("hecke", help="verify the trace identity")
    sp.add_argument("--sub-level", dest="sub_level", type=int, required=True)
    sp.add_argument("--shear", type=int, required=True)
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--lam", type=parse_torsion, required=True,
                    metavar="c1,c2@M")
    sp.add_argument("--mu", type=parse_torsion, required=True,
                    metavar="c1,c2@M")
    sp.add_argument("--p", type=parse_rational, default=None)
    sp.add_argument("--q", type=parse_rational, default=None)
    common(sp)

    sub.add_parser("selftest", help="run the acceptance suite")

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; fold the
        # latter into this tool's usage-error code
        return 0 if exc.code in (0, None) else 1
    try:
        return DISPATCH[ns.subcommand](ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
