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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .cyclotomic import (Cyclotomic, _multiplier, _norm_inverse, cyclo_embed,
                         euler_phi)
from .eisenstein import (EisIndex, QSeries, _integral, constant_term,
                         cusp_constants, cusps, eis_qseries, eis_sum,
                         sturm_truncation)

MAX_DEPTH = 2

# decimal digits of the numeric cross-checks; the certifier itself is exact
EVAL_DIGITS = 60


class DepthOverflow(ArithmeticError):
    """An operation produced a Y-power beyond depth 2."""


class TopComponentNotEisenstein(ValueError):
    """A Y-component fell outside the span the peel step requires."""


class UnsupportedWeight(ValueError):
    """Peeling needs weight >= depth + 2 at each stage."""


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

    Only the first index of each +- pair, in (c1, c2) order, is expanded
    (`EisIndex.representative`): E_{k,-v} = (-1)^k E_{k,v}, the same
    series at even k and its negative at odd k, and zero at odd k when
    v = -v.
    """
    b = sturm_truncation(idx.weight, idx.level) if truncation is None else truncation
    sign, first = idx.representative()
    if not sign:
        return QuasiForm(idx.weight, idx.level, b, ())
    if first != idx:
        first = _eis_series(first, b)
        return first if sign == 1 else -first
    holo = eis_qseries(idx, b)
    if idx.weight == 2:
        comps = (holo, QSeries.const(idx.level, b, 1))
    else:
        comps = (holo,)
    return QuasiForm(idx.weight, idx.level, b, comps)


# the cache itself, which a wrapper set on the module name does not replace
_eis_series = eis_series


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

    Every index is kept except those `EisIndex.representative` reports
    zero, v = -v at odd weight: E_{k,v} = (-1)^k E_{k,v} is zero there,
    and a member known to be zero would only pad the basis.

    >>> len(EisBasis(3, 4, 12)), len(EisBasis(2, 4, 12))
    (12, 16)
    """

    __slots__ = ("weight", "level", "truncation", "indices", "_rref")

    def __init__(self, weight: int, level: int, truncation: int):
        self.weight = weight
        self.level = level
        self.truncation = truncation
        self.indices = tuple(idx for idx in (EisIndex(weight, level, c1, c2)
                                             for c1 in range(level)
                                             for c2 in range(level))
                             if idx.representative()[0])
        self._rref = None

    def __len__(self):
        return len(self.indices)

    def rref(self) -> list:
        """The (pivot column, den, track) triples of a Gauss-Jordan
        elimination of the members' cusp values, in the order the rows
        arise; built on first use.  A track maps member positions to
        integer vectors, den times the coefficients that combine the
        members into the row.

        Column i holds the constant term of m|gamma_i, gamma_i the i-th of
        `cusps(level)`; at weight 2 one more column holds the constant of
        the Y-component, 1 for every member.  Each member in turn is
        reduced against the rows so far and, if something is left, becomes
        a row, 1 at its least column and cleared from every earlier row.
        A member that is not the first of its +- pair is dropped
        unreduced (`EisIndex.representative`): E_{k,-v} = (-1)^k E_{k,v}.

        The value map is injective on the members' span, so the kept
        members, and the coefficients of a target in the span, are those
        of `oracles.exact_rref` at any truncation from `proven_truncation`
        on.  At weight k >= 1, a combination with no constant at any cusp
        is a cusp form, and the Eisenstein series meet the cusp forms only
        in 0 (Diamond and Shurman, A First Course in Modular Forms, ch. 4).
        At weight 2, the Y column of sum c_v E_{2,v} is sum c_v, so a zero
        there makes the combination holomorphic.
        """
        if self._rref is None:
            self._rref = _reduce(self)
        return self._rref


@lru_cache(maxsize=32)
def eis_basis(weight: int, level: int, truncation: int | None = None) -> EisBasis:
    b = sturm_truncation(weight, level) if truncation is None else truncation
    return EisBasis(weight, level, b)


def _reduce(basis: EisBasis) -> list:
    """`EisBasis.rref`, on sparse rows of integer vectors: a row is
    (den, vec, track), its values vec[col] / den and coefficients
    track[t] / den, in lowest terms.  A pivot is inverted over its norm
    (`cyclotomic._norm_inverse`)."""
    k, n = basis.weight, basis.level
    table = cusp_constants(k, n)
    rows: list[tuple[int, int, dict, dict]] = []
    for t, idx in enumerate(basis.indices):
        if idx.representative()[1] != idx:
            continue
        row = dict(table[idx.c1, idx.c2])
        if k == 2:
            row[len(cusps(n))] = Cyclotomic.one(n)
        den, vec = _integral(row)
        vec = {col: list(v) for col, v in vec.items()}
        parts = (vec, {t: [den] + [0] * (euler_phi(n) - 1)})
        for pivot, rden, *rparts in rows:
            if pivot in vec:
                den = _axpy(den, parts, vec[pivot], rden, rparts, n)
        if not vec:
            continue
        pivot = min(vec)
        inv, di = _norm_inverse(n, vec[pivot])
        times_inv = _multiplier(n, inv)
        for part in parts:
            for v in part.values():
                v[:] = [sum(map(mul, r, v)) for r in times_inv]
        den = _lowest(di, parts)
        for i, (p, rden, *rparts) in enumerate(rows):
            if pivot in rparts[0]:
                rows[i] = (p, _axpy(rden, rparts, rparts[0][pivot], den, parts,
                                    n), *rparts)
        rows.append((pivot, den, *parts))
    return [(pivot, den, track) for pivot, den, _, track in rows]


def _axpy(den: int, parts, c: list, rden: int, rparts, n: int) -> int:
    """parts - (c / den) rparts, in place, for integer vectors c and
    parts over den and rparts over rden; returns the new denominator."""
    rows = _multiplier(n, c)
    for part, rpart in zip(parts, rparts):
        for v in part.values():
            v[:] = [rden * x for x in v]
        _add_products(part, rows, rpart, -1)
    return _lowest(den * rden, parts)


def _lowest(den: int, parts) -> int:
    """Drops the zero vectors of parts and divides the gcd of den and
    every entry out, in place; returns the new denominator."""
    g = den
    for part in parts:
        for key in [key for key, v in part.items() if not any(v)]:
            del part[key]
        g = gcd(g, *(x for v in part.values() for x in v))
    if g > 1:
        for part in parts:
            for v in part.values():
                v[:] = [x // g for x in v]
    return den // g


# -- values at the cusps ---------------------------------------------------


def cusp_values(terms, level: int) -> list[list[Cyclotomic]]:
    """The q^0 coefficients of Y^0, Y^1 and Y^2 in F|gamma at each cusp
    gamma of `cusps(level)`, for the formal sum F of terms (scale, idx,
    ...), each scale times the product of the series E_idx.

    F|gamma = sum scale * prod E_{idx gamma} (`cusp_constants`), and a
    Y-expansion is unique, so the q^0 part of a term at gamma is scale
    times the product of c0(E_{idx gamma}) + [weight 2] Y over its
    factors.  Its expansion is summed part by part, scale Y^j times the
    constants of the factors left, each nonzero only where they all are.
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
    zero = Cyclotomic.zero(level)
    out = [[zero] * (MAX_DEPTH + 1) for _ in cusps(level)]
    for (j, rest), scale in parts.items():
        if not rest:
            for acc in out:
                acc[j] = acc[j] + scale
            continue
        first, *others = sorted((cusp_constants(idx.weight, level)[idx.c1, idx.c2]
                                 for idx in rest), key=len)
        for col, x in first.items():
            x = x * scale
            for row in others:
                c = row.get(col)
                if c is None:
                    break
                x = x * (c.coeffs[0] if c.is_rational() else c)
            else:
                if x:
                    out[col][j] = out[col][j] + x
    return out


def columns(values: list, weight: int, degree: int) -> list[Cyclotomic]:
    """What `span_solve` reads for the Y^degree component of a form with
    these cusp values: its constant at each cusp and, at weight 2, the
    constant of the Y^(degree+1) component, a weight-0 form and so the
    same at every cusp."""
    out = [v[degree] for v in values]
    if weight == 2:
        out.append(values[0][degree + 1])
    return out


@dataclass(frozen=True, eq=False)
class SpanSolution:
    """Outcome of projecting a form onto an Eisenstein basis.

    coefficients holds only the nonzero entries, keyed by basis index,
    in basis enumeration order.
    """

    coefficients: dict
    residual: QuasiForm

    @property
    def in_span(self) -> bool:
        return self.residual.is_zero()


def _read(basis: EisBasis, values) -> dict:
    """The coefficients sum_i values[p_i] T_i over the rows (p_i, den_i,
    T_i) of `EisBasis.rref()`, nonzero only, keyed by basis index in
    basis order; values as `columns` gives them.

    The rows are 1 at their own pivot and 0 at the others, so for the
    values of a combination of the members these are its own
    coefficients, the value map being injective on the span.  Values
    that are all 0 need no row reduction.  Runs in integers over one
    denominator."""
    if not any(values):
        return {}
    n = basis.level
    terms = []  # c_i T_i = (v times the vectors of track) / d
    for pivot, d, track in basis.rref():
        if values[pivot]:
            dv, v = _integral({0: values[pivot]})
            terms.append((dv * d, v[0], track))
    den = lcm(*(d for d, _, _ in terms))
    combo: dict[int, list[int]] = {}
    for d, v, track in terms:
        _add_products(combo, _multiplier(n, v), track, den // d)
    return {basis.indices[t]: Cyclotomic(n, tuple(Fraction(x, den)
                                                  for x in combo[t]))
            for t in sorted(combo) if any(combo[t])}


def span_solve(target: QuasiForm, basis: EisBasis, values,
               certificate) -> SpanSolution:
    """Exact projection: target = sum(coefficients * members) +
    sum(scale * delta(eis_series(idx, B))) over the certificate entries
    (idx, scale) + residual, B the truncation.

    The coefficients are read (`_read`) from the target's values on the
    columns of `EisBasis.rref()` (`columns`, Y-degree 0).  A delta term
    has no Y^0 constant at any cusp, so these are also the values of the
    target less its delta terms.  The members' combination is expanded
    as one form (`eis_form`), with the constant Y-component sum of the
    coefficients at weight 2, and no member on its own.  The residual is
    one exact `combine` of the target, that form and the delta terms over
    every exponent and Y-degree, so no verdict rests on the values."""
    if target.level != basis.level or target.truncation != basis.truncation:
        raise ValueError("target and basis level/truncation mismatch")
    if target.weight != basis.weight:
        raise ValueError("target and basis weight mismatch")
    if len(values) != len(cusps(target.level)) + (target.weight == 2):
        raise ValueError("one value per cusp, and at weight 2 one for Y")
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
    (`cusp_values`) alone: entries (idx, scale) such that f less
    sum(scale * delta(eis_series(idx, B))) is holomorphic when f is
    peelable at all, B being f's truncation.  Each idx indexes an
    Eisenstein series of weight f.weight - 2; `span_solve` checks the
    certificate with the exact residual.

    Only delta_2 of a completed weight-2 series produces Y^2, and its Y^2
    part is the constant -1, so a depth-2 form first takes minus its Y^2
    constant as the scale of E_{2,0}, and the values lose that term's.
    What is left is delta_w of a weight-(k-2) combination sum c E, whose
    Y^1 values are those of -w sum c E (at w = 2 with the Y^2 constant
    left, 0, as the Y column), so the c are read (`_read`) from them and
    divided by -w.  Raises UnsupportedWeight when no delta of the needed
    source weight exists.
    """
    level, k = f.level, f.weight
    cert: list[tuple[EisIndex, Cyclotomic]] = []
    if f.depth == 2:
        if k != 4:
            raise UnsupportedWeight(
                f"depth-2 peel needs weight 4, got {k}")
        idx = EisIndex(2, level, 0, 0)
        scale = -values[0][2]
        cert.append((idx, scale))
        # delta commutes with slashing and theta kills constants, so at
        # every cusp delta_2(E_2) has the constants (0, -2 c0(E_2), -1):
        # (0, 0) is fixed by every gamma
        shift = 2 * scale * constant_term(idx)
        values = [[y0, y1 + shift, y2 + scale] for y0, y1, y2 in values]
    if f.depth:
        if k < 3:
            raise UnsupportedWeight(
                f"depth-1 peel needs weight >= 3, got {k}")
        w = k - 2
        basis = eis_basis(w, level, f.truncation)
        cert += [(idx, -(coeff / w))
                 for idx, coeff in _read(basis, columns(values, w, 1)).items()]
    return cert


def certify_orthogonal(
        f: QuasiForm, terms) -> tuple[SpanSolution, list[tuple[EisIndex, Cyclotomic]]]:
    """Solve the delta-certificate (`peel`) and the Eisenstein
    coefficients of f from the cusp values of its formal sum terms
    (`cusp_values`), and check both with one exact residual
    (`span_solve`).  Returns (solution, certificate); the claim behind f
    holds modulo Eisenstein series iff solution.residual is 0.

    At weight 2 the basis members carry the Y-component themselves, so
    nothing is peeled.  At any other weight a Y-component left in the
    residual is a nonholomorphic part that no delta term explains, and
    raises TopComponentNotEisenstein.  A zero form needs no cusp value
    and no basis."""
    if f.is_zero():
        return SpanSolution({}, f), []
    values = cusp_values(terms, f.level)
    cert = [] if f.weight == 2 else peel(f, values)
    sol = span_solve(f, eis_basis(f.weight, f.level, f.truncation),
                     columns(values, f.weight, 0), cert)
    if f.weight != 2 and sol.residual.depth:
        raise TopComponentNotEisenstein(
            "a Y-component is outside the span of the delta terms")
    return sol, cert


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
