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

import mpmath

from .cyclotomic import Cyclotomic, cyclo_embed, cyclo_invert
from .eisenstein import EisIndex, QSeries, eis_qseries, sturm_truncation

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


def mul_y(f: QuasiForm) -> QuasiForm:
    """Multiply by Y, shifting every component up one depth."""
    if f.is_zero():
        return QuasiForm(f.weight + 2, f.level, f.truncation, ())
    if f.depth + 1 > MAX_DEPTH:
        raise DepthOverflow("Y-multiplication exceeds depth 2")
    zero = QSeries.zero(f.level, f.truncation)
    return QuasiForm(f.weight + 2, f.level, f.truncation,
                     (zero,) + f.components)


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


def delta(f: QuasiForm, w: int | None = None) -> QuasiForm:
    """Weight-raising operator delta_w = theta - w Y; w defaults to the
    form's own weight, the only value under which products obey Leibniz."""
    if w is None:
        w = f.weight
    lowered = theta(f)
    shifted = mul_y(f).scale(w)
    comps = tuple(lowered.component(j) - shifted.component(j)
                  for j in range(max(lowered.depth, shifted.depth) + 1))
    return QuasiForm(f.weight + 2, f.level, f.truncation, comps)


@lru_cache(maxsize=None)
def eis_series(idx: EisIndex, truncation: int | None = None) -> QuasiForm:
    """Normalized Eisenstein series as a QuasiForm.

    Weight 2 carries the Hecke-summation completion: its Y-component is
    the constant series 1, independently of the torsion index.
    """
    b = sturm_truncation(idx.weight, idx.level) if truncation is None else truncation
    holo = eis_qseries(idx, b)
    if idx.weight == 2:
        comps = (holo, QSeries.const(idx.level, b, 1))
    else:
        comps = (holo,)
    return QuasiForm(idx.weight, idx.level, b, comps)


class EisBasis:
    """All level-N weight-k Eisenstein series at one truncation.

    Every torsion index is retained, including indices whose series
    vanishes identically, with one exception: (0, 0) is dropped when its
    series is zero, so the basis never contains the zero form at the
    index that cannot be distinguished from "no series at all".
    """

    __slots__ = ("weight", "level", "truncation", "indices", "members",
                 "by_index", "_rref")

    def __init__(self, weight: int, level: int, truncation: int):
        self.weight = weight
        self.level = level
        self.truncation = truncation
        indices = []
        members = []
        for c1 in range(level):
            for c2 in range(level):
                idx = EisIndex(weight, level, c1, c2)
                form = eis_series(idx, truncation)
                if (c1, c2) == (0, 0) and form.is_zero():
                    continue
                indices.append(idx)
                members.append(form)
        self.indices = tuple(indices)
        self.members = tuple(members)
        self.by_index = dict(zip(self.indices, self.members))
        self._rref = None

    def __len__(self):
        return len(self.members)

    def rref(self):
        if self._rref is None:
            self._rref = _build_rref(self.members)
        return self._rref


@lru_cache(maxsize=None)
def eis_basis(weight: int, level: int, truncation: int | None = None) -> EisBasis:
    b = sturm_truncation(weight, level) if truncation is None else truncation
    return EisBasis(weight, level, b)


# -- exact linear algebra over the stacked coefficient space ---------------
#
# A QuasiForm flattens to a vector indexed by (Y-degree, q-exponent); that
# pair, ordered lexicographically, is also the pivot order, so residuals
# come out in a canonical normal form.


def _stack(f: QuasiForm) -> dict[tuple[int, int], Cyclotomic]:
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


def _build_rref(members):
    """Row-reduce the stacked member vectors, tracking the combinations.

    Returns a list of (pivot_key, row_vector, tracking_row) triples kept
    mutually reduced, so a single pass over them in any order reduces an
    arbitrary vector to its unique normal form.
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


def span_solve(target: QuasiForm, basis: EisBasis) -> SpanSolution:
    """Exact projection: target = sum(coefficients * members) + residual,
    with the residual fully reduced against the basis row space."""
    if target.level != basis.level or target.truncation != basis.truncation:
        raise ValueError("target and basis level/truncation mismatch")
    if target.weight != basis.weight:
        raise ValueError("target and basis weight mismatch")
    if target.is_zero():
        # zero is its own normal form: no row reduction needed
        return SpanSolution({}, target)
    vec = _stack(target)
    combo: dict[int, Cyclotomic] = {}
    for pivot, rvec, rtrack in basis.rref():
        c = vec.get(pivot)
        if c is not None:
            _axpy(vec, c, rvec)
            for pos, t in rtrack.items():
                cur = combo.get(pos)
                val = c * t if cur is None else cur + c * t
                if val.is_zero():
                    combo.pop(pos, None)
                else:
                    combo[pos] = val
    coeffs = {basis.indices[i]: combo[i] for i in sorted(combo)}
    residual = _unstack(vec, target.weight, target.level, target.truncation)
    return SpanSolution(coefficients=coeffs, residual=residual)


# -- peeling nonholomorphic components -------------------------------------


def peel(f: QuasiForm) -> tuple[QSeries, list[tuple[EisIndex, Cyclotomic]]]:
    """Strip the positive Y-components of f as images of delta.

    Returns (remainder, certificate) with
        f = remainder + sum(scale * delta(eis_series(idx, B)) for each
                            (idx, scale) entry),
    B being f's truncation and the remainder purely holomorphic.  Each
    idx indexes an Eisenstein series of weight f.weight - 2.  Raises
    TopComponentNotEisenstein when a Y-component is not expressible and
    UnsupportedWeight when no delta of the needed source weight exists.
    """
    level, b, k = f.level, f.truncation, f.weight
    cert: list[tuple[EisIndex, Cyclotomic]] = []
    current = f

    if current.depth == 2:
        # Only delta_2 of a weight-2 completed series produces Y^2, and
        # its Y^2 coefficient is the constant -1; the depth-2 component
        # must therefore be a constant.
        if k != 4:
            raise UnsupportedWeight(
                f"depth-2 peel needs weight 4, got {k}")
        top = current.component(2)
        if any(n != 0 for n in top.coeffs):
            raise TopComponentNotEisenstein(
                "Y^2 component is not a constant series")
        c = top.coeff(0)
        basis2 = eis_basis(2, level, b)
        scale = -c
        current = current - delta(basis2.members[0]).scale(scale)
        cert.append((basis2.indices[0], scale))

    if current.depth == 1:
        if k < 3:
            raise UnsupportedWeight(
                f"depth-1 peel needs weight >= 3, got {k}")
        w = k - 2
        basis = eis_basis(w, level, b)
        wrapped = QuasiForm(w, level, b, (current.component(1),))
        sol = span_solve(wrapped, basis)
        if not sol.in_span:
            raise TopComponentNotEisenstein(
                "Y component is outside the Eisenstein span")
        for idx, coeff in sol.coefficients.items():
            member = basis.by_index[idx]
            scale = -(coeff / w)
            current = current - delta(member).scale(scale)
            cert.append((idx, scale))

    if current.depth != 0:
        raise TopComponentNotEisenstein("peel left a nonholomorphic part")
    return current.component(0), cert


def certify_orthogonal(
        f: QuasiForm) -> tuple[SpanSolution, list[tuple[EisIndex, Cyclotomic]]]:
    """Peel Y-components, then project the remainder onto the Eisenstein
    space of f's weight.  Returns (solution, certificate); the claim
    behind f holds modulo Eisenstein series iff solution.residual is 0.

    At weight 2 the basis members carry the Y-component themselves, so
    nothing is peeled: the form is solved directly against the completed
    basis."""
    if f.weight == 2:
        return span_solve(f, eis_basis(2, f.level, f.truncation)), []
    remainder, cert = peel(f)
    basis = eis_basis(f.weight, f.level, f.truncation)
    sol = span_solve(QuasiForm(f.weight, f.level, f.truncation, (remainder,)),
                     basis)
    return sol, cert


# -- numerics --------------------------------------------------------------


def eval_at(f: QuasiForm, z, digits: int = EVAL_DIGITS) -> mpmath.mpc:
    """Evaluate at a point of the upper half plane by direct summation."""
    with mpmath.workdps(digits + 10):
        zz = mpmath.mpc(z)
        if mpmath.im(zz) <= 0:
            raise ValueError("evaluation point must have positive imaginary part")
        qn = mpmath.exp(2j * mpmath.pi * zz / f.level)
        y_val = 1 / (4 * mpmath.pi * mpmath.im(zz))
        total = mpmath.mpc(0)
        for j, h in enumerate(f.components):
            part = mpmath.mpc(0)
            for n in h.nonzero_exponents():
                part += cyclo_embed(h.coeffs[n], digits + 10) * qn ** n
            total += part * y_val ** j
        return total


def check_s_transform(idx: EisIndex, truncation: int | None = None,
                      tol: float = 1e-10) -> tuple[bool, float]:
    """Numeric consistency check at the fixed point i of z -> -1/z:
    the series at (c1, c2) must equal i^weight times the series at
    (c2, -c1) there.  Returns (within_tol, absolute_error)."""
    b = 40 * idx.level if truncation is None else truncation
    left = eval_at(eis_series(idx, b), 1j)
    right = eval_at(eis_series(idx.s_transform(), b), 1j)
    with mpmath.workdps(EVAL_DIGITS):
        # unary plus rounds the guarded value to EVAL_DIGITS
        err = float(abs(+left - mpmath.mpc(1j) ** idx.weight * right))
    return err <= tol, err
