"""Command-line front end: verifications, expansions, reports, figures.

Exit codes: 0 for VERIFIED (or plain success), 2 for REFUTED, 3 for
INCONCLUSIVE, 1 for usage and configuration errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .eisenstein import EisIndex, InvalidIndex, NotDivisible
from .hull import HullChain, NonCoprimeShear, hull_chain, sublattice_points
from .quasiforms import QuasiForm, eis_basis, eis_series
from .ratfunc import check_kernel, k33_grid
from .verifiers import (
    INCONCLUSIVE,
    PQ_SAMPLES,
    REFUTED,
    VERIFIED,
    LParams,
    TorsionPoint,
    VerificationReport,
    verify_hecke_trace,
    verify_prop21,
    verify_three_term_w2,
    verify_two_term,
)

KERNEL_IDS = ("K16", "K23", "K24", "K32", "K33", "K34")


@dataclass(frozen=True)
class CliConfig:
    subcommand: str
    level: int | None = None
    sub_level: int | None = None
    shear: int | None = None
    weight: int | None = None
    lam: TorsionPoint | None = None
    mu: TorsionPoint | None = None
    p: Fraction | None = None
    q: Fraction | None = None
    identity: str | None = None
    prec: int | None = None
    out: str | None = None
    figure: str | None = None


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
    return {VERIFIED: 0, REFUTED: 2, INCONCLUSIVE: 3}[status]


# -- report serialization --------------------------------------------------


def _generator_index(gen: QuasiForm) -> EisIndex:
    basis = eis_basis(gen.weight, gen.level, gen.truncation)
    for idx, member in basis.elements():
        if member == gen:
            return idx
    raise ValueError("certificate generator is not a basis member")


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
    certificate = []
    for gen, scale in report.certificate:
        idx = _generator_index(gen)
        certificate.append(
            {"weight": idx.weight, "c1": idx.c1, "c2": idx.c2,
             "scale": scale.to_string()})
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


def emit_report(report: VerificationReport, path: str) -> None:
    text = json.dumps(report_payload(report), indent=2, ensure_ascii=False)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def _print_report(report: VerificationReport) -> None:
    defect_n = len(report.defect.coefficients)
    residual_n = len(_residual_exponents(report.defect.residual))
    print(f"{report.claim_id}: {report.status}  "
          f"(level {report.level}, truncation {report.truncation}, "
          f"defect coefficients {defect_n}, residual entries {residual_n})")
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
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write figure to {path}: {exc}") from exc


# -- expansion dump --------------------------------------------------------


def expand_csv(idx: EisIndex, truncation: int | None = None) -> str:
    form = eis_series(idx, truncation)
    holo = form.component(0)
    lines = [
        "level,weight,c1,c2,truncation,Ydepth",
        f"{idx.level},{idx.weight},{idx.c1},{idx.c2},"
        f"{form.truncation},{form.depth}",
    ]
    for n in holo.nonzero_exponents():
        lines.append(f"{n}, {holo.coeffs[n].to_string()}")
    return "\n".join(lines) + "\n"


# -- subcommand handlers ---------------------------------------------------


def cmd_symbolic(cfg: CliConfig) -> int:
    ident = cfg.identity
    checked = 0

    def fail(label: str, witness) -> int:
        print(f"{ident}: FAIL at {label}; witness = {witness}")
        return 2

    if ident == "K16":
        ok, witness = check_kernel("K16")
        if not ok:
            return fail("K16", witness)
        checked = 1
    elif ident in ("K23", "K24"):
        weights = [cfg.weight] if cfg.weight else list(range(2, 13))
        for k in weights:
            ok, witness = check_kernel(ident, k=k)
            if not ok:
                return fail(f"k={k}", witness)
            checked += 1
    elif ident == "K33" and cfg.sub_level is None:
        ok, witness, quad = k33_grid()
        if not ok:
            return fail(f"(a,b,c,d)={quad}", witness)
        checked = 200
    else:  # chain-based: K32, K34, or K33 on one chain
        if cfg.sub_level is not None:
            chains = [hull_chain(cfg.sub_level,
                                 cfg.shear if cfg.shear is not None else 1)]
        else:
            chains = [hull_chain(n, s) for n in range(1, 13)
                      for s in range(n) if gcd(s, n) == 1]
        k = cfg.weight if cfg.weight else 3
        for chain in chains:
            kwargs = {"chain": chain}
            if ident == "K34":
                kwargs["k"] = k
            ok, witness = check_kernel(ident, **kwargs)
            if not ok:
                return fail(f"(N,S)=({chain.level},{chain.shear})", witness)
            checked += 1
    print(f"{ident}: PASS ({checked} instance{'s' if checked != 1 else ''})")
    return 0


def cmd_hull(cfg: CliConfig) -> int:
    chain = hull_chain(cfg.sub_level, cfg.shear)
    print("[" + ",".join(f"({x},{y})" for x, y in chain.vectors) + "]")
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps([[x, y] for x, y in chain.vectors]) + "\n")
    if cfg.figure:
        emit_hull_svg(chain, cfg.figure)
    return 0


def cmd_expand(cfg: CliConfig) -> int:
    idx = EisIndex(cfg.weight, cfg.lam.denominator, cfg.lam.c1, cfg.lam.c2)
    text = expand_csv(idx, cfg.prec)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _finish(report: VerificationReport, cfg: CliConfig) -> int:
    _print_report(report)
    if cfg.out:
        emit_report(report, cfg.out)
    return status_exit(report.status)


def cmd_two_term(cfg: CliConfig) -> int:
    n_work = cfg.level or lcm(cfg.lam.denominator, cfg.mu.denominator)
    return _finish(verify_two_term(cfg.lam, cfg.mu, n_work, cfg.prec), cfg)


def cmd_three_term(cfg: CliConfig) -> int:
    n_work = cfg.level or lcm(cfg.lam.denominator, cfg.mu.denominator)
    return _finish(verify_three_term_w2(cfg.lam, cfg.mu, n_work, cfg.prec),
                   cfg)


def _pq_list(cfg: CliConfig) -> list[tuple[Fraction, Fraction]] | None:
    if (cfg.p is None) != (cfg.q is None):
        print("error: provide both --p and --q, or neither", file=sys.stderr)
        return None
    if cfg.p is not None:
        return [(cfg.p, cfg.q)]
    if cfg.out:
        print("error: --out needs an explicit --p/--q pair", file=sys.stderr)
        return None
    return list(PQ_SAMPLES)


def _combine(codes: list[int]) -> int:
    if 2 in codes:
        return 2
    if 3 in codes:
        return 3
    return 0


def cmd_prop21(cfg: CliConfig) -> int:
    pq = _pq_list(cfg)
    if pq is None:
        return 1
    n_work = cfg.level or lcm(cfg.lam.denominator, cfg.mu.denominator)
    codes = []
    for p, q in pq:
        params = LParams(cfg.lam, cfg.mu, p, q, cfg.weight)
        codes.append(_finish(verify_prop21(params, n_work, cfg.prec), cfg))
    return _combine(codes)


def cmd_hecke(cfg: CliConfig) -> int:
    pq = _pq_list(cfg)
    if pq is None:
        return 1
    m = lcm(cfg.lam.denominator, cfg.mu.denominator)
    lam = cfg.lam.rescale(m)
    mu = cfg.mu.rescale(m)
    codes = []
    for p, q in pq:
        report = verify_hecke_trace(cfg.sub_level, cfg.shear, lam, mu,
                                    cfg.weight, p, q, cfg.prec)
        codes.append(_finish(report, cfg))
    return _combine(codes)


def cmd_selftest(cfg: CliConfig) -> int:
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
        sp.add_argument("--level", type=int, default=None)
        sp.add_argument("--lam", type=parse_torsion, required=True,
                        metavar="c1,c2@M")
        sp.add_argument("--mu", type=parse_torsion, required=True,
                        metavar="c1,c2@M")
        common(sp)

    sp = sub.add_parser("prop21", help="verify the cyclic weighted sum")
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--level", type=int, default=None)
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


def config_from(ns: argparse.Namespace) -> CliConfig:
    fields = ("level", "sub_level", "shear", "weight", "lam", "mu", "p", "q",
              "identity", "prec", "out", "figure")
    kwargs = {f: getattr(ns, f, None) for f in fields}
    return CliConfig(subcommand=ns.subcommand, **kwargs)


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; fold the
        # latter into this tool's usage-error code
        return 0 if exc.code in (0, None) else 1
    cfg = config_from(ns)
    try:
        return DISPATCH[cfg.subcommand](cfg)
    except (NonCoprimeShear, NotDivisible, InvalidIndex, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
