"""Acceptance suite: one callable per criterion, plus a selftest runner.

Each criterion function returns (ok, detail) and is deliberately
self-contained: the cross-checks recompute expected values through the
independent routes of the oracles module (trial-division divisor sums, a
direct truncated lattice sum, a monotone-chain hull in sheared
coordinates) rather than through the code under test.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction
from math import gcd
from pathlib import Path

from .cyclotomic import Cyclotomic
from .eisenstein import EisIndex, eis_qseries
from .hull import hull_chain, sublattice_points, verify_pair_bijection
from .oracles import (exact_rref, exact_span_solve, hull_oracle,
                      kept_members, lattice_value, naive_convolution, sigma)
from .quasiforms import (check_s_transform, combine, eis_basis, eis_series,
                         eval_at, quasi_mul)
from .ratfunc import KERNEL_IDS, kernel_scope
from .verifiers import (
    INCONCLUSIVE,
    VERIFIED,
    LParams,
    TorsionPoint,
    pq_samples,
    verify_hecke_trace,
    verify_prop21,
    verify_three_term_w2,
    verify_two_term,
)


# -- criteria --------------------------------------------------------------


def criterion_01_symbolic() -> tuple[bool, str]:
    counts = []
    for ident in KERNEL_IDS:
        scope = kernel_scope(ident)
        for label, proof in scope:
            ok, witness = proof()
            if not ok:
                return False, f"{ident} failed at {label}: {witness}"
        counts.append(f"{ident} {len(scope)}")
    return True, "instances proved: " + ", ".join(counts)


def criterion_02_hull() -> tuple[bool, str]:
    chain = hull_chain(5, 3)
    expected = ((5, 0), (3, 1), (1, 2), (0, 5))
    if chain.vectors != expected:
        return False, f"hull_chain(5,3) = {chain.vectors}"
    for (a, b), (c, d) in chain.pairs():
        if a * d - b * c != 5:
            return False, f"determinant {a * d - b * c} for (({a},{b}),({c},{d}))"
    count = 0
    for n in range(1, 13):
        for s in range(n):
            if gcd(s, n) != 1:
                continue
            got = list(hull_chain(n, s).vectors)
            want = hull_oracle(sublattice_points(n, s))
            if got != want:
                return False, f"oracle mismatch at (N,S)=({n},{s}): {got} != {want}"
            count += 1
    return True, f"(5,3) chain and determinants exact; oracle match on {count} chains"


def criterion_03_bijection() -> tuple[bool, str]:
    """Every consecutive pair of the chains with N <= 12, the chains of
    criterion-02 and of the K32/K34 kernel scopes."""
    chains = pairs = 0
    for n in range(1, 13):
        for s in range(n):
            if gcd(s, n) != 1:
                continue
            chains += 1
            for pair in hull_chain(n, s).pairs():
                if not verify_pair_bijection(n, s, pair):
                    return False, f"bijection failed at (N,S)=({n},{s}), {pair}"
                pairs += 1
    return True, f"{pairs} consecutive pairs of {chains} chains checked over N <= 12"


def criterion_04_expansion() -> tuple[bool, str]:
    for n in range(1, 7):
        for k in range(1, 7):
            for c1 in range(n):
                for c2 in range(n):
                    # both indices expanded, to check the parity that
                    # `canonical_sum` applies by `EisIndex.representative`
                    idx = EisIndex(k, n, c1, c2)
                    sign, first = idx.representative()
                    series = eis_qseries(idx, 3 * n)
                    if (eis_qseries(idx.negate(), 3 * n)
                            != series.scale((-1) ** k)
                            or eis_qseries(first, 3 * n).scale(sign) != series):
                        return False, f"parity failed at {idx}"
    for k, const in ((2, Fraction(-1, 12)), (4, Fraction(1, 120))):
        series = eis_series(EisIndex(k, 1, 0, 0), 60).component(0)
        if series.coeff(0) != Cyclotomic.from_rational(1, const):
            return False, f"weight-{k} constant term {series.coeff(0).to_string()}"
        for n in range(1, 61):
            want = Cyclotomic.from_rational(1, 2 * sigma(n, k - 1))
            if series.coeff(n) != want:
                return False, f"weight-{k} coefficient mismatch at q^{n}"
    # the integer series arithmetic against the Cyclotomic schoolbook
    f = eis_series(EisIndex(1, 7, 2, 3), 42).component(0)
    g = eis_series(EisIndex(3, 7, 1, 5), 42).component(0)
    if (f * g).coeffs != naive_convolution(f.coeffs, g.coeffs, 42):
        return False, "level-7 product differs from the schoolbook"
    c = Cyclotomic.zeta(7, 2) - Fraction(5, 3)
    if g.scale(c).coeffs != {e: x * c for e, x in g.coeffs.items()}:
        return False, "level-7 scaling differs from the coefficientwise product"
    value = eval_at(eis_series(EisIndex(4, 1, 0, 0), 60), 1j, 60)
    oracle = lattice_value(4, 1, 0, 0, 1j, 400)
    err = abs(complex(value) - oracle)
    if err > 1e-8:
        return False, f"lattice-sum oracle error {err:.3e}"
    return True, (f"parity and +- representatives exact for k<=6, N<=6; "
                  f"divisor sums to q^60; "
                  f"level-7 product and scaling equal the schoolbook; "
                  f"lattice oracle error {err:.1e}")


def criterion_05_s_transform() -> tuple[bool, str]:
    worst = 0.0
    for n in range(1, 6):
        for k in range(1, 5):
            for c1 in range(n):
                for c2 in range(n):
                    idx = EisIndex(k, n, c1, c2)
                    ok, err = check_s_transform(idx)
                    worst = max(worst, err)
                    if not ok:
                        return False, f"S-transform failed at {idx}: error {err:.3e}"
    return True, f"220 indices, worst error {worst:.1e}"


def criterion_06_two_term() -> tuple[bool, str]:
    rng = random.Random(1202)
    runs = 0
    for n in (2, 3, 5):
        for _ in range(20):
            lam = TorsionPoint(n, rng.randrange(n), rng.randrange(n))
            mu = TorsionPoint(n, rng.randrange(n), rng.randrange(n))
            report = verify_two_term(lam, mu, n)
            if report.status != VERIFIED:
                return False, (f"two-term {report.status} at N={n}, "
                               f"lam={lam.label()}, mu={mu.label()}")
            runs += 1
    return True, f"{runs} random pairs exactly zero at N in {{2,3,5}}"


def criterion_07_three_term() -> tuple[bool, str]:
    cases = {
        3: [((1, 0), (1, 1)), ((1, 0), (0, 1)), ((2, 2), (2, 1))],
        5: [((1, 0), (0, 1)), ((1, 2), (2, 1)), ((1, 1), (2, 3))],
    }
    runs = 0
    for n, pairs in cases.items():
        solved = []
        for (a1, a2), (b1, b2) in pairs:
            lam = TorsionPoint(n, a1, a2)
            mu = TorsionPoint(n, b1, b2)
            report = verify_three_term_w2(lam, mu, n)
            if report.status != VERIFIED:
                return False, (f"three-term {report.status} at N={n}, "
                               f"lam={lam.label()}, mu={mu.label()}")
            if not report.defect.residual.is_zero():
                return False, f"nonzero residual at N={n}"
            if not report.defect.coefficients:
                return False, (f"defect unexpectedly empty at N={n}, "
                               f"lam={lam.label()}, mu={mu.label()}")
            # the relation holds only modulo Eisenstein terms: the raw
            # sum itself must not be the zero series
            nu, b = -(lam + mu), report.truncation
            total = combine([(quasi_mul(eis_series(x.to_index(1), b),
                                        eis_series(y.to_index(1), b)), 1)
                             for x, y in ((lam, mu), (mu, nu), (nu, lam))],
                            2, n, b)
            if total.is_zero():
                return False, f"three-term sum collapsed to zero at N={n}"
            solved.append((total, report))
            runs += 1
        # the independent Gauss-Jordan oracle on the q-expansions checks
        # the certifier's kept members and every defect's coefficients
        basis = eis_basis(2, n, report.truncation)
        rows = exact_rref([eis_series(idx, basis.truncation)
                           for idx in basis.indices])
        if kept_members(basis.rref()) != kept_members(rows):
            return False, f"weight-2 kept members differ from the oracle's at N={n}"
        for total, report in solved:
            want = exact_span_solve(total, basis, rows)
            if report.defect.coefficients != want.coefficients:
                return False, f"defect differs from the oracle's at N={n}"
    return True, (f"{runs} cases VERIFIED with nonzero defect at N in {{3,5}}; "
                  "kept members and defects equal the oracle's")


def criterion_08_prop21() -> tuple[bool, str]:
    runs = 0
    depth2_seen = False
    for k in (3, 4, 5):
        for n in (2, 3):
            lam = TorsionPoint(n, 1, 0)
            mu = TorsionPoint(n, 0, 1)
            for p, q in pq_samples(k):
                report = verify_prop21(LParams(lam, mu, p, q, k), n)
                if report.status != VERIFIED:
                    residual = sorted(
                        (j, e)
                        for j, comp in enumerate(
                            report.defect.residual.components)
                        for e in comp.nonzero_exponents())
                    return False, (f"prop21 {report.status} at k={k}, N={n}, "
                                   f"(p,q)=({p},{q}); residual {residual[:8]}")
                if k == 4 and any(gen.weight == 2 for gen, _ in
                                  report.certificate):
                    depth2_seen = True
                runs += 1
    if not depth2_seen:
        return False, "k=4 runs never exercised the depth-2 peel"
    return True, (f"{runs} runs VERIFIED for k in {{3,4,5}}, N in {{2,3}}: "
                  "every (p, q)")


def criterion_09_hecke() -> tuple[bool, str]:
    instances = [(5, 3, TorsionPoint(1, 0, 0), TorsionPoint(1, 0, 0), 2)]
    for n_sub in (2, 3):
        for m in (1, 2):
            if m == 1:
                lam = mu = TorsionPoint(1, 0, 0)
            else:
                lam, mu = TorsionPoint(2, 1, 0), TorsionPoint(2, 0, 1)
            for k in (2, 3):
                instances.append((n_sub, 1, lam, mu, k))
    for n_sub, s, lam, mu, k in instances:
        report = verify_hecke_trace(n_sub, s, lam, mu, k, 1, 1)
        if report.status != VERIFIED:
            return False, (f"hecke {report.status} at N_sub={n_sub}, S={s}, "
                           f"M={lam.denominator}, k={k}")
    return True, f"{len(instances)} instances VERIFIED, levels <= 6"


def criterion_10_determinism() -> tuple[bool, str]:
    from .cli import emit_report, run_cli, status_exit

    lam = TorsionPoint(5, 1, 0)
    mu = TorsionPoint(5, 0, 1)
    with tempfile.TemporaryDirectory() as tmp:
        p1 = Path(tmp) / "run1.json"
        p2 = Path(tmp) / "run2.json"
        emit_report(verify_three_term_w2(lam, mu, 5), str(p1))
        emit_report(verify_three_term_w2(lam, mu, 5), str(p2))
        b1 = p1.read_bytes()
        if b1 != p2.read_bytes():
            return False, "repeated runs emitted different report bytes"
        payload = json.loads(b1)
        for entry in payload["defect"]["coefficients"]:
            parsed = Cyclotomic.from_string(entry["value"])
            if parsed.to_string() != entry["value"]:
                return False, f"coefficient did not round-trip: {entry['value']}"
    quiet = io.StringIO()
    # the hull call is a deliberate usage error; its stderr line is
    # captured along with the reports' stdout
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        codes = (
            run_cli(["two-term", "--lam", "1,2@5", "--mu", "2,1@5"]),
            run_cli(["three-term", "--lam", "0,0@5", "--mu", "0,1@5"]),
            run_cli(["hull", "--sub-level", "4", "--shear", "2"]),
        )
    expected = (0, 3, 1)
    if codes != expected:
        return False, f"exit codes {codes}, expected {expected}"
    if (status_exit(VERIFIED), status_exit(INCONCLUSIVE)) != (0, 3):
        return False, "status-to-exit map broken"
    return True, "byte-identical reports; exit codes 0/3/1 and status map exact"


CRITERIA = (
    ("criterion-01", "symbolic kernels", criterion_01_symbolic),
    ("criterion-02", "hull reproduction", criterion_02_hull),
    ("criterion-03", "pair bijection", criterion_03_bijection),
    ("criterion-04", "expansion integrity", criterion_04_expansion),
    ("criterion-05", "S-transformation", criterion_05_s_transform),
    ("criterion-06", "two-term relation", criterion_06_two_term),
    ("criterion-07", "three-term relation", criterion_07_three_term),
    ("criterion-08", "cyclic weighted sum", criterion_08_prop21),
    ("criterion-09", "Hecke trace", criterion_09_hecke),
    ("criterion-10", "determinism", criterion_10_determinism),
)


def run_all() -> bool:
    all_ok = True
    for cid, label, fn in CRITERIA:
        ok, detail = fn()
        all_ok = all_ok and ok
        print(f"[{'PASS' if ok else 'FAIL'}] {cid} {label}: {detail}")
    return all_ok
