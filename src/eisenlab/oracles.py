"""Independent recomputation routes for the unit tests and the acceptance
suite.

Everything here deliberately avoids the code paths under test: Bernoulli
numbers come from the Akiyama-Tanigawa triangle instead of the package's
power-sum recurrence, expansions from the row sums gathered by divisor
and reduced by long division by Phi_N instead of the table of reduced
powers of zeta, hulls from a monotone chain in sheared coordinates
instead of the continued-fraction recurrence, constant terms / point values from direct
(conditionally or absolutely convergent) lattice sums, and row reductions
and span solves from a plain Gauss-Jordan elimination of the q-expansions
in `Cyclotomic` arithmetic instead of the certifier's elimination of the
constant terms at the cusps and its integer solve from them.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, floor

import mpmath

from .cyclotomic import Cyclotomic, cyclo_invert, cyclotomic_poly
from .eisenstein import QSeries
from .quasiforms import MAX_DEPTH, QuasiForm, SpanSolution


def sigma(n: int, power: int) -> int:
    """Divisor-power sum by trial division."""
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** power
            if d != n // d:
                total += (n // d) ** power
        d += 1
    return total


def bernoulli_akiyama(n: int) -> Fraction:
    """Bernoulli number via the Akiyama-Tanigawa triangle.

    The triangle produces the B1 = +1/2 convention; the package uses
    B1 = -1/2, and all other odd indices vanish, so only n = 1 needs a
    sign flip.
    """
    if n == 1:
        return Fraction(-1, 2)
    row = [Fraction(1, m + 1) for m in range(n + 1)]
    for j in range(1, n + 1):
        for m in range(n + 1 - j):
            row[m] = (m + 1) * (row[m] - row[m + 1])
    return row[0]


def periodic_bernoulli(k: int, x: Fraction) -> Fraction:
    """Bbar_k(x) = B_k(x - floor(x)), Bbar_1 = 0 at the integers, from the
    Bernoulli polynomial with the Akiyama-Tanigawa numbers."""
    x -= floor(x)
    if k == 1 and x == 0:
        return Fraction(0)
    return sum((comb(k, j) * bernoulli_akiyama(j) * x ** (k - j)
                for j in range(k + 1)), Fraction(0))


def phi_remainder(n: int, raw) -> tuple:
    """The coordinates of sum raw[j] zeta_n^j on the power basis, for
    rationals raw[j]: the remainder of long division by Phi_n."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    vec = list(raw) + [0] * deg
    for top in range(len(vec) - 1, deg - 1, -1):
        c = vec[top]
        if c:
            for j, p in enumerate(phi):
                vec[top - deg + j] -= c * p
    return tuple(vec[:deg])


def row_sum_constant(idx) -> Cyclotomic:
    """The constant term of `eisenstein`'s module docstring, in Fraction
    arithmetic: -(-1)^k N^{k-1}/k sum_a zeta^{-a c2} Bbar_k(a/N) for
    c1 = 0, else 1/2 - c1/N at weight 1 and 0 above."""
    k, n, c1, c2 = idx.weight, idx.level, idx.c1, idx.c2
    if c1:
        return Cyclotomic.from_rational(
            n, -periodic_bernoulli(1, Fraction(c1, n)) if k == 1 else 0)
    raw = [Fraction(0)] * n
    for a in range(n):
        raw[-a * c2 % n] += periodic_bernoulli(k, Fraction(a, n))
    scale = Fraction(-(-1) ** k * n ** (k - 1), k)
    return Cyclotomic(n, tuple(x * scale for x in phi_remainder(n, raw)))


def row_sum_expansion(idx, truncation: int) -> QSeries:
    """The holomorphic series of idx from the row sums of `eisenstein`'s
    module docstring, gathered by m: the q_N^e coefficient is the sum of
    m^{k-1} zeta^{m c2} over the m dividing e with e/m = c1 mod N, plus
    (-1)^k m^{k-1} zeta^{-m c2} over those with e/m = -c1 mod N.  Each
    coefficient is reduced once, by long division by Phi_N
    (`phi_remainder`); the constant is `row_sum_constant`."""
    k, n, c1, c2 = idx.weight, idx.level, idx.c1, idx.c2
    raw: dict[int, list[int]] = {}
    for m in range(1, truncation + 1):
        for side, sign in ((1, 1), (-1, (-1) ** k)):
            # the quotients e/m = side c1 mod N, from the least positive one
            for a in range(side * c1 % n or n, truncation // m + 1, n):
                vec = raw.setdefault(a * m, [0] * n)
                vec[side * m * c2 % n] += sign * m ** (k - 1)
    coeffs = {e: Cyclotomic(n, phi_remainder(n, vec)) for e, vec in raw.items()}
    coeffs[0] = row_sum_constant(idx)
    return QSeries(n, truncation, coeffs)


def row_constant(k: int, n: int, c2: int) -> mpmath.mpc:
    """Constant term contributed by the horizontal lattice row.

    Sums b^{-k} over b in c2/n + Z symmetrically (paired terms make the
    k = 1 case absolutely convergent), then applies the completed-series
    normalization (k-1)! (-2 pi i)^{-k}.  Requires c2 != 0 mod n.  The
    value is computed and returned at 40 digits.
    """
    if c2 % n == 0:
        raise ValueError("row sum oracle needs a puncture-free row")
    with mpmath.workdps(40):
        def paired(j):
            j = int(j)
            return (mpmath.mpf(c2 + j * n)) ** (-k) + \
                (mpmath.mpf(c2 - j * n)) ** (-k)

        total = mpmath.mpf(c2) ** (-k) + mpmath.nsum(paired, [1, mpmath.inf])
        total *= mpmath.mpf(n) ** k
        return total * mpmath.factorial(k - 1) * (-2j * mpmath.pi) ** (-k)


def lattice_value(k: int, n: int, c1: int, c2: int, z: complex,
                  box: int = 300) -> complex:
    """Truncated double lattice sum for the completed series, k >= 3.

    The square-box tail decays like box^{2-k}; one Richardson step over
    box/2 and box removes the leading term.
    """
    if k < 3:
        raise ValueError("direct double sum needs absolute convergence")

    def raw(b: int) -> complex:
        total = 0j
        for i in range(-b, b + 1):
            a = (c1 + i * n) / n
            for j in range(-b, b + 1):
                c = (c2 + j * n) / n
                if a == 0 and c == 0:
                    continue
                total += (a * z + c) ** (-k)
        return total

    coarse, fine = raw(box // 2), raw(box)
    corrected = fine + (fine - coarse) / (2 ** (k - 2) - 1)
    with mpmath.workdps(30):
        scale = complex(mpmath.factorial(k - 1) * (-2j * mpmath.pi) ** (-k))
    return corrected * scale


def hull_oracle(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Lower-left hull boundary via a monotone chain.

    Shearing to (y - x, x + y) turns the lower-left boundary into the
    lower hull of that point set, which Andrew's scan finds directly.
    The pop is strict so collinear boundary lattice points stay listed.
    """
    pts = sorted((y - x, x + y, x, y) for x, y in points)
    hull: list[tuple[int, int, int, int]] = []
    for p in pts:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (a[0] - o[0]) * (p[1] - o[1]) - \
                (a[1] - o[1]) * (p[0] - o[0])
            if cross < 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return [(x, y) for _, _, x, y in hull]


def naive_convolution(a: dict[int, object], b: dict[int, object],
                      truncation: int) -> dict[int, object]:
    """Schoolbook product of two exponent->coefficient maps; the
    truncation bound is inclusive."""
    out: dict[int, object] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            if ea + eb > truncation:
                continue
            prod = ca * cb
            if ea + eb in out:
                out[ea + eb] = out[ea + eb] + prod
            else:
                out[ea + eb] = prod
    return {e: c for e, c in out.items() if not c.is_zero()}


def _stack(f: QuasiForm) -> dict[tuple[int, int], Cyclotomic]:
    """The form as a vector keyed by (Y-degree, q-exponent)."""
    out = {}
    for j, h in enumerate(f.components):
        for n, c in h.coeffs.items():
            out[(j, n)] = c
    return out


def _unstack(vec, weight, level, truncation) -> QuasiForm:
    comps: list[dict[int, Cyclotomic]] = [{} for _ in range(MAX_DEPTH + 1)]
    for (j, n), c in vec.items():
        comps[j][n] = c
    series = tuple(QSeries(level, truncation, d) for d in comps)
    return QuasiForm(weight, level, truncation, series)


def _axpy(vec, scale: Cyclotomic, other):
    """vec -= scale * other, in place, keeping the zero-free invariant."""
    for key, c in other.items():
        cur = vec.get(key)
        val = (-scale) * c if cur is None else cur - scale * c
        if val.is_zero():
            vec.pop(key, None)
        else:
            vec[key] = val


def exact_rref(members) -> list[tuple[tuple[int, int], dict, dict]]:
    """Gauss-Jordan over Q(zeta_N) on the stacked member vectors, keyed by
    (Y-degree, q-exponent), with tracking.

    Members are taken in order; each one is reduced against the rows so
    far and, if something is left, becomes a row whose pivot is its least
    key, normalized to 1 there and cleared from every earlier row.
    Returns the (pivot, row, track) triples in the order the rows arose;
    track maps member positions to the coefficients that combine the
    members into the row.
    """
    rows: list[tuple[tuple[int, int], dict, dict]] = []
    for pos, form in enumerate(members):
        vec = _stack(form)
        track = {pos: Cyclotomic.one(form.level)}
        for pivot, rvec, rtrack in rows:
            c = vec.get(pivot)
            if c is not None:
                _axpy(vec, c, rvec)
                _axpy(track, c, rtrack)
        if not vec:
            continue
        pivot = min(vec)
        inv = cyclo_invert(vec[pivot])
        vec = {k: c * inv for k, c in vec.items()}
        track = {k: c * inv for k, c in track.items()}
        for _, rvec, rtrack in rows:
            c = rvec.get(pivot)
            if c is not None:
                _axpy(rvec, c, vec)
                _axpy(rtrack, c, track)
        rows.append((pivot, vec, track))
    return rows


def kept_members(rows) -> list[int]:
    """The member positions that the tracks of rows use, for rows such as
    `exact_rref` or `EisBasis.rref()` returns, each ending in its track.
    For a Gauss-Jordan result these are exactly the members it keeps:
    each track combines kept members only, and the tracks together use
    every one of them."""
    return sorted({t for *_, track in rows for t in track})


def exact_span_solve(target: QuasiForm, basis, rows) -> SpanSolution:
    """Gauss-Jordan reduction of the target against rows = `exact_rref`
    of the series of basis.indices, in their order, in `Cyclotomic`
    arithmetic: the coefficients are the tracks weighted by the values
    the target has at each pivot when its row comes."""
    vec = _stack(target)
    combo: dict[int, Cyclotomic] = {}
    for pivot, rvec, rtrack in rows:
        c = vec.get(pivot)
        if c is not None:
            _axpy(vec, c, rvec)
            _axpy(combo, -c, rtrack)
    coeffs = {basis.indices[i]: combo[i] for i in sorted(combo)}
    residual = _unstack(vec, target.weight, target.level, target.truncation)
    return SpanSolution(coefficients=coeffs, residual=residual)
