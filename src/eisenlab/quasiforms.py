"""Calculus of nearly holomorphic expansions with exact coefficients.

A form of depth d is stored as components (h_0, ..., h_d), meaning
h_0 + h_1 Y + ... + h_d Y^d with Y = 1/(4 pi y) and each h_j a QSeries.
Depth is capped at 2: every expression this laboratory needs lives in
depth <= 2, and hitting Y^3 signals a modelling error, not a limit to
work around.

The two derivations used throughout:
  theta = (2 pi i)^{-1} d/dz, with theta(q_N^n) = (n/N) q_N^n and
  theta(Y) = Y^2;
  delta_w = theta - w Y, which raises weight by 2 and depth by 1.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, lcm
from operator import mul

from .cyclotomic import (Cyclotomic, _multiplier, _norm_inverse,
                         _reduce_vector, _times, cyclo_embed, euler_phi,
                         prime_divisors)
from .eisenstein import (EisIndex, QSeries, _bernoulli_row, _integral,
                         constant_term, cusps, eis_qseries, eis_sum,
                         sturm_truncation)
from .value import Value

MAX_DEPTH = 2

# decimal digits of the numeric cross-checks; the certifier itself is exact
EVAL_DIGITS = 60


class DepthOverflow(ArithmeticError):
    """An operation produced a Y-power beyond depth 2."""


class QuasiForm:
    """Weighted stack of QSeries components in powers of Y."""

    __slots__ = ("weight", "level", "truncation", "components")

    def __init__(self, weight: int, level: int, truncation: int,
                 components: tuple[QSeries, ...]):
        comps = list(components)
        while comps and comps[-1].is_zero():
            comps.pop()
        if not comps:
            comps = [QSeries.zero(level, truncation)]
        if len(comps) - 1 > MAX_DEPTH:
            raise DepthOverflow(f"depth {len(comps) - 1} exceeds {MAX_DEPTH}")
        for h in comps:
            if h.level != level or h.truncation != truncation:
                raise ValueError("component level/truncation mismatch")
        self.weight = weight
        self.level = level
        self.truncation = truncation
        self.components = tuple(comps)

    @property
    def depth(self) -> int:
        return len(self.components) - 1

    def component(self, j: int) -> QSeries:
        if j < len(self.components):
            return self.components[j]
        return QSeries.zero(self.level, self.truncation)

    def is_zero(self) -> bool:
        return all(h.is_zero() for h in self.components)

    def _check(self, other: QuasiForm):
        if self.level != other.level or self.truncation != other.truncation:
            raise ValueError("level/truncation mismatch")

    def __add__(self, other: QuasiForm) -> QuasiForm:
        self._check(other)
        if self.weight != other.weight:
            raise ValueError("cannot add forms of different weights")
        d = max(self.depth, other.depth)
        comps = tuple(self.component(j) + other.component(j) for j in range(d + 1))
        return QuasiForm(self.weight, self.level, self.truncation, comps)

    def __neg__(self) -> QuasiForm:
        return QuasiForm(self.weight, self.level, self.truncation,
                         tuple(-h for h in self.components))

    def __sub__(self, other: QuasiForm) -> QuasiForm:
        return self + (-other)

    def scale(self, factor) -> QuasiForm:
        return QuasiForm(self.weight, self.level, self.truncation,
                         tuple(h.scale(factor) for h in self.components))

    def __eq__(self, other):
        if not isinstance(other, QuasiForm):
            return NotImplemented
        return (self.weight == other.weight and self.level == other.level
                and self.truncation == other.truncation
                and self.components == other.components)

    def __repr__(self):
        return (f"QuasiForm(k={self.weight}, N={self.level}, "
                f"B={self.truncation}, depth={self.depth})")


def quasi_mul(f: QuasiForm, g: QuasiForm) -> QuasiForm:
    """Product; weights add, Y-powers convolve, depth > 2 raises."""
    f._check(g)
    d = f.depth + g.depth
    if d > MAX_DEPTH:
        raise DepthOverflow(f"product depth {d} exceeds {MAX_DEPTH}")
    comps = [QSeries.zero(f.level, f.truncation) for _ in range(d + 1)]
    for a, ha in enumerate(f.components):
        for b, hb in enumerate(g.components):
            comps[a + b] = comps[a + b] + ha * hb
    return QuasiForm(f.weight + g.weight, f.level, f.truncation, tuple(comps))


def theta(f: QuasiForm) -> QuasiForm:
    """Raising derivation: theta(h Y^j) = (theta h) Y^j + j h Y^{j+1}."""
    top = f.depth + (1 if f.depth and not f.components[-1].is_zero() else 0)
    if top > MAX_DEPTH:
        raise DepthOverflow("theta exceeds depth 2")
    comps = [QSeries.zero(f.level, f.truncation) for _ in range(top + 1)]
    for j, h in enumerate(f.components):
        comps[j] = comps[j] + h.theta()
        if j:
            comps[j + 1] = comps[j + 1] + h.scale(j)
    return QuasiForm(f.weight + 2, f.level, f.truncation, tuple(comps))


def delta(f: QuasiForm) -> QuasiForm:
    """Weight-raising operator delta_w = theta - w Y at the form's own
    weight w, the only weight under which products obey Leibniz."""
    n, b = f.level, f.truncation
    times_y = QuasiForm(f.weight + 2, n, b, (QSeries.zero(n, b),) + f.components)
    return combine([(theta(f), 1), (times_y, -f.weight)], f.weight + 2, n, b)


@lru_cache(maxsize=1024)
def eis_series(idx: EisIndex, truncation: int | None = None) -> QuasiForm:
    """Normalized Eisenstein series as a QuasiForm.

    Weight 2 carries the Hecke-summation completion: its Y-component is
    the constant series 1, independently of the torsion index.

    The index given is the one expanded.  The verifiers ask only for the
    first index of each +- pair (`verifiers.canonical_sum`), and the
    basis holds only those (`EisBasis`), so one series per pair is built.
    """
    b = sturm_truncation(idx.weight, idx.level) if truncation is None else truncation
    holo = eis_qseries(idx, b)
    if idx.weight == 2:
        comps = (holo, QSeries.const(idx.level, b, 1))
    else:
        comps = (holo,)
    return QuasiForm(idx.weight, idx.level, b, comps)


def eis_form(coefficients: dict, weight: int, level: int,
             truncation: int) -> QuasiForm:
    """sum c_v E_{k,v} over the coefficients {v: c_v}, each rational or in
    Q(zeta_level), as one form: its holomorphic part is one `eis_sum`,
    and at weight 2 the completions add up to the constant Y-component
    sum c_v.  No coefficients give the zero form.

    >>> v, w = EisIndex(2, 5, 1, 2), EisIndex(2, 5, 4, 3)
    >>> pair = eis_form({v: 1, w: 1}, 2, 5, 20)
    >>> pair == eis_series(v, 20).scale(2)
    True
    >>> pair.component(1) == QSeries.const(5, 20, 2)
    True
    """
    b = truncation
    comps = (eis_sum(coefficients, weight, level, b),)
    if weight == 2:
        comps += (QSeries.const(level, b, sum(coefficients.values())),)
    return QuasiForm(weight, level, b, comps)


class EisBasis:
    """The torsion indices of the level-N weight-k Eisenstein series at
    one truncation; a member's series is `eis_series(idx, truncation)`,
    built only for a delta-certificate entry: a solution's combination of
    members is expanded as one form (`eis_form`).

    An index is kept iff it is the first of its +- pair and its series
    is not known to be zero, that is iff `EisIndex.representative`
    returns (1, idx): E_{k,-v} = (-1)^k E_{k,v} adds nothing to the span
    of E_{k,v}, and at odd weight E_{k,v} = 0 when v = -v.

    >>> len(EisBasis(3, 4, 12)), len(EisBasis(2, 4, 12))
    (6, 10)
    """

    __slots__ = ("weight", "level", "truncation", "indices", "_rref")

    def __init__(self, weight: int, level: int, truncation: int):
        self.weight = weight
        self.level = level
        self.truncation = truncation
        self.indices = tuple(idx for idx in (EisIndex(weight, level, c1, c2)
                                             for c1 in range(level)
                                             for c2 in range(level))
                             if idx.representative() == (1, idx))
        self._rref = None

    def __len__(self):
        return len(self.indices)

    def rref(self) -> list:
        """The (pivot column, den, track) triples of a Gauss-Jordan
        elimination of the members' constant terms at the cusps, in the
        order the rows arise; built on first use.  A track maps member
        positions to den times the coefficients that combine the members
        into the row: integer vectors over Q(zeta_N) at weight 1, plain
        integers from weight 2 on.

        At weight 1, column i holds the constant term of m|gamma_i,
        gamma_i the i-th of `cusps(level)`, in Q(zeta_N) (`_cusp_row`),
        and so do the tracks.  At weight k >= 2 the cusp columns are
        changed line by line so that every entry, and every track, is
        rational (`_line_row`): the pivots index these columns, and
        `_read` maps a target's values into them.  There is one column
        per cusp at every weight.  Each member in turn is reduced against
        the rows so far and, if something is left, becomes a row, 1 at its
        least column and cleared from every earlier row.

        The value map is injective on the members' span, so the kept
        members, and the coefficients of a target in the span, are those
        of `oracles.exact_rref` at any truncation from `proven_truncation`
        on.  At weight k != 2, a combination with no constant at any cusp
        is a cusp form, and the Eisenstein series meet the cusp forms only
        in 0 (Diamond and Shurman, A First Course in Modular Forms, ch. 4).

        At weight 2 the members are completed, and their constants still
        decide, by the residue theorem.  Let F = sum c_v E_{2,v} have
        constant 0 at every cusp, and put s = sum c_v.  Every member has
        the Y-component 1, so G = F - s E_{2,0} is holomorphic of weight 2
        on Gamma(N).  Its constant at every cusp is s/12, because
        c0(E_{2,0}) = -1/12 and every gamma fixes (0, 0).  The
        differential G dz on X(N) has the residue N a0(G|gamma) / (2 pi i)
        at the cusp of gamma, since every width is N, and none elsewhere:
        at an elliptic point it is holomorphic.  The residues sum to 0, so
        s = 0.  F is then a cusp form in the Eisenstein span, so F = 0.
        So the rank at weight 2 is the number of cusps.

        The lines.  At k >= 2, c0(E_{k,v}|gamma) = 0 unless v gamma has
        first entry 0, that is unless v lies on the line {v : c1 a + c2 c
        = 0 mod N} of gamma = (a b; c d).  The cusps of one line have
        first columns u (a0, c0), u a unit mod N, up to sign: r = phi(N)/2
        of them, or r = 1 when N <= 2.  A member on it is v = (0, s)
        gamma_0^-1, for gamma_0 its first cusp, and at the cusp of u its
        constant is c0(E_{k,(0, s w)}), w = u^-1.  Column m = e, ...,
        e + r - 1 of the line, e = k mod 2, is sum_x (zeta^(m w_x) +
        (-1)^k zeta^(-m w_x)) col_x over its cusps x (the single term
        zeta^(m w_x) col_x when N <= 2, where w_x = -w_x).  With
        E_{k,-v} = (-1)^k E_{k,v} the two terms of x run over the units w
        once each, so the entry of v is
            R[s][m] = sum_{w unit} zeta^(m w) c0(E_{k,(0, s w)})
                    = -(-1)^k / (k N d) sum_a T[a] c_N(m - a s)
        by `constant_term`, (d, T) = `eisenstein._bernoulli_row(k, N)`
        and c_N(n) = sum_{w unit} zeta^(n w) the Ramanujan sum.  Every
        automorphism zeta -> zeta^u of Q(zeta_N) permutes the terms of a
        Ramanujan sum, so it is a rational algebraic integer, an integer,
        and R is rational; members off the line have 0 there.
        `_line_values` computes R by this closed form, in integers over
        k N d, with c_N from von Sterneck's formula.

        Nothing else changes, because the change is invertible on each
        line, so the row relations, the kept members and the coefficients
        are those of the cusp columns.  For N <= 2 a column is +-col_x.
        For N >= 3 put t_x = cos(2 pi w_x / N): the w_x are the units up to
        sign, so the r values t_x are distinct.  At even k the columns
        are 2 cos(m theta_x) = 2 T_m(t_x), m = 0, ..., r - 1, and at odd k
        2i sin(m theta_x) = 2i sin(theta_x) U_{m-1}(t_x), m = 1, ..., r,
        with sin(theta_x) != 0 as 2 w_x != 0 mod N.  T_m and U_{m-1} have
        degree exactly m and m - 1, so each matrix is a Vandermonde
        matrix at distinct points times a triangular one (and a nonzero
        diagonal): Chebyshev-Vandermonde, invertible.
        """
        if self._rref is None:
            self._rref = _reduce(self)
        return self._rref


@lru_cache(maxsize=32)
def eis_basis(weight: int, level: int, truncation: int) -> EisBasis:
    return EisBasis(weight, level, truncation)


def _reduce(basis: EisBasis) -> list:
    """`EisBasis.rref`, on sparse rows over one denominator each: a row
    is (den, vec, track), its values vec[col] / den, one column per cusp,
    and coefficients track[t] / den, in lowest terms.  At weight 1 an
    entry is an integer vector over Q(zeta_N), the member's constants at
    the cusps (`_cusp_row`), and a pivot is inverted over its norm
    (`cyclotomic._norm_inverse`); from weight 2 on it is one integer,
    the member's rational columns (`_line_row`), and a row is divided by
    its pivot by taking the pivot as its denominator."""
    k, n = basis.weight, basis.level
    if k == 1:
        axpy, normalize = partial(_axpy, n=n), partial(_normalize, n)
        lowest = _lowest
    else:
        axpy, normalize, lowest = _axpy_int, _normalize_int, _lowest_int
    rows: list[tuple[int, int, dict, dict]] = []
    for t, idx in enumerate(basis.indices):
        if k == 1:
            den, vec = _integral(_cusp_row(idx))
            vec = {col: list(v) for col, v in vec.items()}
            one = [den] + [0] * (euler_phi(n) - 1)
        else:
            den, vec = _line_row(k, n, idx.c1, idx.c2)
            one = den
        parts = (vec, {t: one})
        for pivot, rden, *rparts in rows:
            if pivot in vec:
                den = axpy(den, parts, vec[pivot], rden, rparts)
        if not vec:
            continue
        pivot = min(vec)
        den = normalize(parts, vec[pivot])
        for i, (p, rden, *rparts) in enumerate(rows):
            if pivot in rparts[0]:
                rden = axpy(rden, rparts, rparts[0][pivot], den, parts)
                rows[i] = (p, lowest(rden, rparts), *rparts)
        rows.append((pivot, den, *parts))
    return [(pivot, den, track) for pivot, den, _, track in rows]


def _axpy(den: int, parts, c: list, rden: int, rparts, n: int) -> int:
    """parts - (c / den) rparts, in place, for integer vectors c and
    parts over den and rparts over rden, dropping the vectors that become
    0; returns the new denominator, not yet in lowest terms (`_lowest`).
    The gcd of rden and c is divided out first, and a rational c scales
    by its one integer, with no multiplier matrix."""
    g = gcd(rden, *c)
    rden = rden // g
    c = [x // g for x in c]
    rows = _multiplier(n, c) if any(c[1:]) else None
    for part, rpart in zip(parts, rparts):
        if rden != 1:
            for v in part.values():
                v[:] = [rden * x for x in v]
        if rows is not None:
            _add_products(part, rows, rpart, -1)
            for key in rpart:
                if not any(part[key]):
                    del part[key]
            continue
        for key, w in rpart.items():
            v = part.get(key)
            if v is None:
                part[key] = [-c[0] * y for y in w]
            else:
                v[:] = [a - c[0] * y for a, y in zip(v, w)]
                if not any(v):
                    del part[key]
    return den * rden


def _normalize(n: int, parts, pivot: list) -> int:
    """Divides parts by the integer vector pivot, in place, through its
    inverse over its norm; returns the new denominator, in lowest terms,
    that of a row 1 at its pivot."""
    inv, di = _norm_inverse(n, pivot)
    times_inv = _multiplier(n, inv)
    for part in parts:
        for v in part.values():
            v[:] = [sum(map(mul, r, v)) for r in times_inv]
    return _lowest(di, parts)


def _lowest(den: int, parts) -> int:
    """Divides the gcd of den and every entry of parts out, in place;
    returns the new denominator."""
    g = den
    for part in parts:
        for v in part.values():
            g = gcd(g, *v)
            if g == 1:
                return den
    for part in parts:
        for v in part.values():
            v[:] = [x // g for x in v]
    return den // g


def _axpy_int(den: int, parts, c: int, rden: int, rparts) -> int:
    """`_axpy` for integer entries: parts - (c / den) rparts, in place,
    dropping the entries that become 0; returns the new denominator."""
    g = gcd(rden, c)
    rden, c = rden // g, c // g
    for part, rpart in zip(parts, rparts):
        if rden != 1:
            for key, x in part.items():
                part[key] = rden * x
        get = part.get
        for key, y in rpart.items():
            x = get(key, 0) - c * y
            if x:
                part[key] = x
            else:
                del part[key]
    return den * rden


def _normalize_int(parts, pivot: int) -> int:
    """Divides parts, whose entries sit over any denominator, by their
    entry pivot at the pivot column: the entries stay and the pivot is
    the new denominator, made positive; returns it in lowest terms."""
    if pivot < 0:
        for part in parts:
            for key, x in part.items():
                part[key] = -x
    return _lowest_int(abs(pivot), parts)


def _lowest_int(den: int, parts) -> int:
    """`_lowest` for integer entries."""
    g = den
    for part in parts:
        g = gcd(g, *part.values())
        if g == 1:
            return den
    for part in parts:
        for key, x in part.items():
            part[key] = x // g
    return den // g


# -- the rational columns at weight >= 2 (`EisBasis.rref`) -----------------


@lru_cache(maxsize=32)
def _lines(n: int) -> tuple:
    """The cusps of `cusps(n)` by line (`EisBasis.rref`), lines in order
    of their first cusp gamma_0: (gamma_0, terms), with one term
    (w, col, flip) per unit w mod n.  col is the cusp whose first column
    is w^-1 (flip false) or -w^-1 (flip true) times that of gamma_0; it
    enters column m of the line with zeta^(m w), times (-1)^k if flip."""
    units = [u for u in range(n) if gcd(u, n) == 1]
    found: dict[tuple[int, int], tuple[int, int]] = {}
    lines: list[tuple[tuple, list]] = []
    for col, (a, b, c, d) in enumerate(cusps(n)):
        if (a % n, c % n) not in found:
            for u in units:
                found[u * a % n, u * c % n] = (len(lines), u)
            lines.append(((a, b, c, d), []))
        line, u = found[a % n, c % n]
        w = pow(u, -1, n)
        lines[line][1].append((w, col, False))
        if -w % n != w:
            lines[line][1].append((-w % n, col, True))
    return tuple((gamma, tuple(terms)) for gamma, terms in lines)


def _zeta_sum(n: int, terms) -> Cyclotomic:
    """sum sign zeta^j x over the (j, sign, x) of terms, x in Q(zeta_n),
    in integers over one denominator: shifted coordinates, reduced once."""
    terms = [(j, sign, x) for j, sign, x in terms if x]
    den = lcm(*(x.den for _, _, x in terms))
    raw = [0] * n
    for j, sign, x in terms:
        scale = sign * (den // x.den)
        for i, y in enumerate(x.vec):
            raw[(i + j) % n] += scale * y
    return Cyclotomic._of(n, den, _reduce_vector(n, raw))


def _ramanujan(n: int) -> list[int]:
    """The Ramanujan sums c_n(j) = sum_{w unit mod n} zeta_n^(j w) for
    0 <= j < n, by von Sterneck's formula mu(q) phi(n) / phi(q),
    q = n / gcd(j, n)."""
    by_q = {}
    for q in {n // gcd(j, n) for j in range(n)}:
        primes = prime_divisors(q)
        mu = 0 if any(q % (p * p) == 0 for p in primes) else (-1) ** len(primes)
        by_q[q] = mu * euler_phi(n) // euler_phi(q)
    return [by_q[n // gcd(j, n)] for j in range(n)]


@lru_cache(maxsize=32)
def _line_values(k: int, n: int) -> tuple[int, tuple]:
    """(D, R): the entries R[s][m - e] / D of a member (0, s) gamma_0^-1
    on columns m = e, ..., e + r - 1 of its line (`EisBasis.rref`), for
    0 <= s < n, as integers over one denominator D = k n d.  They are
    the closed form proved there,
        R[s][m - e] / D = -(-1)^k / (k n d) sum_a T[a] c_n(m - a s),
    with (d, T) = `eisenstein._bernoulli_row(k, n)` and the Ramanujan
    sums c_n of `_ramanujan`: rational by construction."""
    r, e = (euler_phi(n) + 1) // 2, k % 2
    d, bern = _bernoulli_row(k, n)
    c, sign = _ramanujan(n), -(-1) ** k
    return k * n * d, tuple(
        tuple(sign * sum(t * c[(m - a * s) % n] for a, t in enumerate(bern))
              for m in range(e, e + r))
        for s in range(n))


def _line_row(k: int, n: int, c1: int, c2: int) -> tuple[int, dict[int, int]]:
    """(D, row): the nonzero entries row[col] / D of the member (c1, c2)
    on the rational columns of `EisBasis.rref`, weight k >= 2: column
    l r + j is column m = e + j of line l.  The member lies on line l iff
    (c1, c2) gamma_0 = (0, s), and then its entries there are R[s]
    (`_line_values`)."""
    r = (euler_phi(n) + 1) // 2
    den, values = _line_values(k, n)
    row = {}
    for line, ((a, b, c, d), _) in enumerate(_lines(n)):
        if (c1 * a + c2 * c) % n == 0:
            for j, x in enumerate(values[(c1 * b + c2 * d) % n]):
                if x:
                    row[line * r + j] = x
    return den, row


def _line_value(values, k: int, n: int, col: int) -> Cyclotomic:
    """Column col of `_line_row`'s columns for a target with the given
    values, one per cusp: its values at the cusps of the line, each
    zeta-shifted, summed."""
    r = (euler_phi(n) + 1) // 2
    m = k % 2 + col % r
    _, terms = _lines(n)[col // r]
    return _zeta_sum(n, [(m * w, (-1) ** k if flip else 1, values[x])
                         for w, x, flip in terms])


# -- values at the cusps ---------------------------------------------------


@lru_cache(maxsize=1024)
def _cusp_row(idx: EisIndex) -> dict[int, Cyclotomic]:
    """The nonzero constant terms of E_idx|gamma, keyed by the position
    of gamma in `cusps(level)`.

    E_{k,v}|gamma = E_{k,v gamma}, with v a row vector: the expansion
    gives it for T, and the numeric S-transform check for S.  So the
    constant at gamma is `constant_term` of the index v gamma, which is
    0 from weight 2 on unless v gamma has first entry 0, and is then not
    asked for."""
    k, n, c1, c2 = idx.weight, idx.level, idx.c1, idx.c2
    row = {}
    for col, (a, b, c, d) in enumerate(cusps(n)):
        first = (c1 * a + c2 * c) % n
        if first and k > 1:
            continue
        x = constant_term(EisIndex(k, n, first, (c1 * b + c2 * d) % n))
        if x:
            row[col] = x
    return row


def _product(n: int, a, b):
    """The product of two integer vectors over Q(zeta_n): one integer
    scaling when either is rational, else `cyclotomic._times`."""
    if not any(a[1:]):
        return [a[0] * y for y in b]
    if not any(b[1:]):
        return [b[0] * x for x in a]
    return _times(n, a, b)


def cusp_values(terms, level: int) -> list[list[Cyclotomic]]:
    """The q^0 coefficients of Y^0, Y^1 and Y^2 in F|gamma at each cusp
    gamma of `cusps(level)`, for the formal sum F of terms (scale, idx,
    ...), each scale times the product of the series E_idx.

    F|gamma = sum scale * prod E_{idx gamma} (`_cusp_row`, read per
    factor), and a Y-expansion is unique, so the q^0 part of a term at
    gamma is scale times the product of c0(E_{idx gamma}) + [weight 2] Y
    over its factors.  Its expansion is summed part by part, scale Y^j
    times the constants of the factors left, each nonzero only where
    they all are.  The products and sums run on integer vectors, over
    one denominator per value.
    """
    parts: dict[tuple, Fraction] = {}  # (j, factors left) -> scale
    for scale, *factors in terms:
        expansion = [(0, ())]
        for idx in factors:
            grown = [(j, rest + (idx,)) for j, rest in expansion]
            if idx.weight == 2:
                grown += [(j + 1, rest) for j, rest in expansion]
            expansion = grown
        for key in expansion:
            parts[key] = parts.get(key, 0) + scale
    n, every = level, range(len(cusps(level)))
    sums: dict[tuple[int, int], list] = {}  # (col, j) -> [(den, vec)]
    for (j, rest), scale in parts.items():
        if not isinstance(scale, Cyclotomic):
            scale = Cyclotomic.from_rational(n, scale)
        if not rest:
            for col in every:
                sums.setdefault((col, j), []).append((scale.den, scale.vec))
            continue
        first, *others = sorted((_cusp_row(idx) for idx in rest), key=len)
        for col, x in first.items():
            den, vec = scale.den * x.den, _product(n, scale.vec, x.vec)
            for row in others:
                y = row.get(col)
                if y is None:
                    break
                den, vec = den * y.den, _product(n, vec, y.vec)
            else:
                sums.setdefault((col, j), []).append((den, vec))
    zero = Cyclotomic.zero(n)
    out = [[zero] * (MAX_DEPTH + 1) for _ in every]
    for (col, j), found in sums.items():
        den = lcm(*(d for d, _ in found))
        acc = [0] * euler_phi(n)
        for d, vec in found:
            m = den // d
            for i, x in enumerate(vec):
                acc[i] += m * x
        out[col][j] = Cyclotomic._of(n, den, acc)
    return out


class SpanSolution(Value):
    """Outcome of projecting a form onto an Eisenstein basis.

    coefficients holds only the nonzero entries, keyed by basis index,
    in basis enumeration order.  Equal only to itself.
    """

    __slots__ = ("coefficients", "residual")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, coefficients: dict, residual: QuasiForm):
        self._set(coefficients, residual)

    @property
    def in_span(self) -> bool:
        return self.residual.is_zero()


def _read(basis: EisBasis, values) -> dict:
    """The coefficients sum_i values[p_i] T_i over the rows (p_i, den_i,
    T_i) of `EisBasis.rref()`, nonzero only, keyed by basis index in
    basis order; values has one entry per cusp of `cusps(level)`, a
    constant of one Y-degree of `cusp_values`.  At weight 1 the pivots
    index the cusps; at weight >= 2 they index the rational columns of
    `EisBasis.rref`, so the values are first mapped into those columns,
    at the pivots only (`_line_value`, the same zeta-shifts that make
    the rows).

    The rows are 1 at their own pivot and 0 at the others, so for the
    values of a combination of the members these are its own
    coefficients, the value map being injective on the span.  The
    change of columns keeps them: on each line it is invertible (a
    Chebyshev-Vandermonde matrix for N >= 3, +-1 for N <= 2), and it
    maps the members' rows to rational ones (Ramanujan sums), as
    `EisBasis.rref` proves.
    Values that are all 0 need no row reduction.  Runs in integers over
    one denominator."""
    if not any(values):
        return {}
    k, n = basis.weight, basis.level
    terms = []  # c_i T_i = (v times the entries of track) / d
    for pivot, d, track in basis.rref():
        v = values[pivot] if k == 1 else _line_value(values, k, n, pivot)
        if v:
            terms.append((v.den * d, v.vec, track))
    den = lcm(*(d for d, _, _ in terms))
    combo: dict[int, list[int]] = {}
    for d, v, track in terms:
        if k == 1:
            _add_products(combo, _multiplier(n, v), track, den // d)
            continue
        # a rational track entry scales v's coordinates
        v = [den // d * x for x in v]
        for t, y in track.items():
            acc = combo.setdefault(t, [0] * len(v))
            for p, x in enumerate(v):
                acc[p] += x * y
    return {basis.indices[t]: Cyclotomic._of(n, den, combo[t])
            for t in sorted(combo) if any(combo[t])}


def span_solve(target: QuasiForm, basis: EisBasis, values,
               certificate) -> SpanSolution:
    """Exact projection: target = sum(coefficients * members) +
    sum(scale * delta(eis_series(idx, B))) over the certificate entries
    (idx, scale) + residual, B the truncation.

    The coefficients are read (`_read`) from values, one per cusp of
    `cusps(level)`: the target's Y^0 constants there (`cusp_values`), at
    every weight.  A delta term has no Y^0 constant at any cusp, so these
    are also the values of the target less its delta terms.  The
    members' combination is expanded as one form (`eis_form`), with the
    constant Y-component sum of the coefficients at weight 2, and no
    member on its own.  The residual is one exact `combine` of the
    target, that form and the delta terms over every exponent and
    Y-degree, so no verdict rests on the values."""
    if target.level != basis.level or target.truncation != basis.truncation:
        raise ValueError("target and basis level/truncation mismatch")
    if target.weight != basis.weight:
        raise ValueError("target and basis weight mismatch")
    if len(values) != len(cusps(target.level)):
        raise ValueError("one value per cusp")
    b = target.truncation
    coefficients = _read(basis, values)
    parts = [(target, 1)]
    if coefficients:
        parts.append((eis_form(coefficients, target.weight, target.level, b),
                      -1))
    parts += [(delta(eis_series(idx, b)), -scale) for idx, scale in certificate]
    return SpanSolution(coefficients,
                        combine(parts, target.weight, target.level, b))


def combine(parts, weight: int, level: int, truncation: int) -> QuasiForm:
    """sum(scale * form) over the (form, scale) of parts, each scale
    rational or in Q(zeta_level), in integers: one common denominator per
    Y-degree.  No parts give the zero form of the given weight."""
    for form, _ in parts:
        if form.level != level or form.truncation != truncation:
            raise ValueError("level/truncation mismatch")
        if form.weight != weight:
            raise ValueError("cannot add forms of different weights")
    den, vecs = _integral({i: s if isinstance(s, Cyclotomic)
                           else Cyclotomic.from_rational(level, s)
                           for i, (_, s) in enumerate(parts)})
    comps = []
    for j in range(MAX_DEPTH + 1):
        terms = [(form.components[j], vecs[i]) for i, (form, _) in enumerate(parts)
                 if j < len(form.components) and form.components[j].vecs]
        common = lcm(*(den * g.den for g, _ in terms))
        out: dict[int, list[int]] = {}
        for g, c in terms:
            k = common // (den * g.den)
            if any(c[1:]):
                _add_products(out, _multiplier(level, c), g.vecs, k)
                continue
            k *= c[0]
            for e, v in g.vecs.items():
                acc = out.get(e)
                out[e] = ([k * x for x in v] if acc is None
                          else [a + k * x for a, x in zip(acc, v)])
        comps.append(QSeries._of(level, truncation, common,
                                 {e: tuple(v) for e, v in out.items()}))
    return QuasiForm(weight, level, truncation, tuple(comps))


def _add_products(out: dict, rows: list, vecs: dict, k: int) -> None:
    """out[key] += k times rows times vecs[key], for every key of vecs."""
    rows = [[k * x for x in row] for row in rows]
    for key, v in vecs.items():
        acc = out.setdefault(key, [0] * len(rows))
        for p, row in enumerate(rows):
            acc[p] += sum(map(mul, row, v))


# -- peeling nonholomorphic components -------------------------------------


def peel(f: QuasiForm, values) -> list[tuple[EisIndex, Cyclotomic]]:
    """The delta-certificate of f, read from its cusp values
    (`cusp_values`) alone: entries (idx, scale), idx of weight k - 2 for
    f of weight k, whose sum(scale * delta(eis_series(idx, B))) has the
    Y-part of f, B being f's truncation.  `span_solve` subtracts it in
    the exact residual, where any Y-part it leaves stays.

    Only delta_2 of a completed weight-2 series has a Y^2 part, the
    constant -1, so at weight 4 a nonzero Y^2 constant S gives E_{2,0}
    the scale -S, and the Y^1 values gain its S/6 (c0(E_{2,0}) = -1/12
    at every cusp).  delta_w sum c E has the Y^1 part -w sum c E, so from
    weight 3 on, when some Y^1 value is not 0, the c are read (`_read`)
    from them and divided by -w.

    Proof that no Y-part stays when f is a formal sum of products of at
    most two series, E_{2,v} = h_v + Y completed.  A combination of the
    weight-w members with constant 0 at every cusp is 0, at w = 2 too
    (`EisBasis.rref`), so for the values of a combination `_read` gives
    that same form.  Only a weight-2 factor brings Y, so k = 1 has none.
      k = 3, k >= 5: no term has Y^2, and the Y-part is Y sum a_g E_{k-2,g}
        over the terms a_g E_{2,u} E_{k-2,g}: the read gives that
        combination, and the delta terms take it away.
      k = 4: a term s E_{2,u} E_{2,v} has the Y-part s (h_u + h_v) Y +
        s Y^2, so the Y^2 part is the sum S of those s, which E_{2,0}
        takes.  The Y^1 part left is P = sum a_w h_w, sum a_w = 2S - 2S =
        0, so P is the completed sum a_w E_{2,w}, with the shifted values.
        The read gives sum c_v E_{2,v} = P, so sum c_v = 0: the delta
        terms take P Y away and add no Y^2.
      k = 2: nothing is peeled.  The members reach any values, their
        rank being the number of cusps, so `span_solve` reads c_v with
        H = f - sum c_v E_{2,v} of constant 0 at every cusp.  Its Y-part
        is a constant t, so H - t E_{2,0} is holomorphic with constant
        t/12 at every cusp, and its residues sum to 0: t = 0.
    """
    level, k = f.level, f.weight
    cert: list[tuple[EisIndex, Cyclotomic]] = []
    y1 = [y for _, y, _ in values]
    if k == 4 and values[0][2]:
        idx = EisIndex(2, level, 0, 0)
        scale = -values[0][2]
        cert.append((idx, scale))
        # delta commutes with slashing and theta kills constants, so at
        # every cusp delta_2(E_2) has the constants (0, -2 c0(E_2), -1):
        # (0, 0) is fixed by every gamma
        shift = 2 * scale * constant_term(idx)
        y1 = [y + shift for y in y1]
    if k >= 3 and any(y1):
        w = k - 2
        basis = eis_basis(w, level, f.truncation)
        cert += [(idx, -(coeff / w))
                 for idx, coeff in _read(basis, y1).items()]
    return cert


def certify_orthogonal(
        f: QuasiForm, terms) -> tuple[SpanSolution, list[tuple[EisIndex, Cyclotomic]]]:
    """Solve the delta-certificate (`peel`, from the Y^1 and Y^2
    constants) and the Eisenstein coefficients of f (`span_solve`, from
    the Y^0 constants) from the cusp values of its formal sum terms
    (`cusp_values`), and check both with one exact residual.  Returns
    (solution, certificate); the claim behind f holds modulo Eisenstein
    series iff solution.residual is 0.  A Y-component that no delta term
    explains stays in the residual, at every weight; `peel` proves that
    a formal sum leaves none.  A zero form needs no cusp value and no
    basis."""
    if f.is_zero():
        return SpanSolution({}, f), []
    values = cusp_values(terms, f.level)
    cert = peel(f, values)
    return span_solve(f, eis_basis(f.weight, f.level, f.truncation),
                      [y0 for y0, _, _ in values], cert), cert


# -- numerics --------------------------------------------------------------


def eval_at(f: QuasiForm, z, digits: int = EVAL_DIGITS) -> mpmath.mpc:
    """Evaluate at a point of the upper half plane by direct summation."""
    import mpmath  # only the numeric checks pay for importing it

    with mpmath.workdps(digits + 10):
        zz = mpmath.mpc(z)
        if mpmath.im(zz) <= 0:
            raise ValueError("evaluation point must have positive imaginary part")
        qn = mpmath.exp(2j * mpmath.pi * zz / f.level)
        y_val = 1 / (4 * mpmath.pi * mpmath.im(zz))
        total = mpmath.mpc(0)
        for j, h in enumerate(f.components):
            part = mpmath.mpc(0)
            for n, c in sorted(h.coeffs.items()):
                part += cyclo_embed(c, digits + 10) * qn ** n
            total += part * y_val ** j
        return total


def check_s_transform(idx: EisIndex, truncation: int | None = None,
                      tol: float = 1e-10) -> tuple[bool, float]:
    """Numeric consistency check at the fixed point i of z -> -1/z:
    the series at (c1, c2) must equal i^weight times the series at
    (c2, -c1) there.  Returns (within_tol, absolute_error)."""
    import mpmath

    b = 40 * idx.level if truncation is None else truncation
    left = eval_at(eis_series(idx, b), 1j)
    right = eval_at(eis_series(idx.s_transform(), b), 1j)
    with mpmath.workdps(EVAL_DIGITS):
        # unary plus rounds the guarded value to EVAL_DIGITS
        err = float(abs(+left - mpmath.mpc(1j) ** idx.weight * right))
    return err <= tol, err
