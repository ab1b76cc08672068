"""Composite-expression builders and the verification entry points.

Every verifier writes its claim once, as a formal sum of Eisenstein
products, and hands it to one pipeline (`_verify`): it reduces the sum
to canonical products with `canonical_sum`, expands that with
`build_L`, runs the cusp-orthogonality certifier on the same canonical
sum, and wraps the outcome in a VerificationReport.
A claim whose canonical sum is empty holds formally: its form is zero,
and no series is expanded.  Statuses:

  VERIFIED      the claim holds with an explicit exact decomposition;
  INCONCLUSIVE  the certifier could not exhibit a decomposition, or
                the input degenerates outside the claim's hypotheses.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import factorial, gcd

from .cyclotomic import Cyclotomic, Rational
from .eisenstein import (EisIndex, NotDivisible, pm_representative,
                         proven_truncation, sturm_truncation)
from .hull import NonCoprimeShear, hull_chain
from .quasiforms import (
    QuasiForm,
    SpanSolution,
    certify_orthogonal,
    combine,
    eis_series,
    quasi_mul,
)
from .value import Value, _setattr

VERIFIED = "VERIFIED"
INCONCLUSIVE = "INCONCLUSIVE"


def pq_samples(k: int) -> list[tuple[Fraction, Fraction]]:
    """The first max(k - 1, 1) of (1, 1), (2, -1), (3, 5), (1, 2), (1, 3),
    ...  A prop21 or hecke claim of weight k VERIFIED at each holds for
    every (p, q).  Proof: its form is homogeneous of degree d = k - 2,
    F(p, q) = sum_i p^i q^(d-i) F_i.  The d + 1 samples have q_j != 0 and
    distinct ratios t_j = p_j / q_j, so (p_j^i q_j^(d-i)) =
    diag(q_j^d) Vandermonde(t_j) is invertible: each F_i is a rational
    (Lagrange) combination of the sample forms.  VERIFIED, at or above
    `proven_truncation`, puts each sample form in the span of Eisenstein
    series and their delta images, a vector space, so every F_i and every
    F(p, q) lies there too.  At k < 2 one pair is left, for the verifier
    to reject."""
    pairs = [(1, 1), (2, -1), (3, 5)] + [(1, j) for j in range(2, k - 2)]
    return [(Fraction(p), Fraction(q)) for p, q in pairs[:max(k - 1, 1)]]


class TorsionPoint(Value):
    """A point of M^{-1}Z^2/Z^2, stored as (c1/M, c2/M) reduced mod 1."""

    __slots__ = ("denominator", "c1", "c2")

    def __init__(self, denominator: int, c1: int, c2: int):
        if denominator < 1:
            raise ValueError("denominator must be >= 1")
        _setattr(self, "denominator", denominator)
        _setattr(self, "c1", c1 % denominator)
        _setattr(self, "c2", c2 % denominator)

    def rescale(self, new_denominator: int) -> TorsionPoint:
        if new_denominator % self.denominator:
            raise NotDivisible(
                f"{self.denominator} does not divide {new_denominator}")
        t = new_denominator // self.denominator
        return TorsionPoint(new_denominator, self.c1 * t, self.c2 * t)

    def __add__(self, other: TorsionPoint) -> TorsionPoint:
        if self.denominator != other.denominator:
            raise ValueError("denominator mismatch; rescale first")
        return TorsionPoint(self.denominator, self.c1 + other.c1,
                            self.c2 + other.c2)

    def __neg__(self) -> TorsionPoint:
        return TorsionPoint(self.denominator, -self.c1, -self.c2)

    def is_zero(self) -> bool:
        return self.c1 == 0 and self.c2 == 0

    def to_index(self, weight: int) -> EisIndex:
        return EisIndex(weight, self.denominator, self.c1, self.c2)

    def label(self) -> str:
        return f"{self.c1},{self.c2}@{self.denominator}"


class LParams(Value):
    """Data of one bilinear Eisenstein combination of total weight k."""

    __slots__ = ("lam", "mu", "p", "q", "weight")

    def __init__(self, lam: TorsionPoint, mu: TorsionPoint, p: Rational,
                 q: Rational, weight: int):
        if weight < 2:
            raise ValueError("weight must be >= 2")
        self._set(lam, mu, Fraction(p), Fraction(q), weight)


class VerificationReport(Value):
    """Outcome of one claim.  Each certificate entry (idx, scale) says that
    scale * delta(eis_series(idx, truncation)) was peeled off the claim's
    form before its holomorphic remainder was solved as the defect."""

    __slots__ = ("claim_id", "parameters", "status", "defect", "certificate",
                 "truncation", "level")

    def __init__(self, claim_id: str, parameters: dict, status: str,
                 defect: SpanSolution,
                 certificate: list[tuple[EisIndex, Cyclotomic]],
                 truncation: int, level: int):
        self._set(claim_id, parameters, status, defect, certificate,
                  truncation, level)


def _scale_table(p: Fraction, q: Fraction, k: int, unit: Rational = 1) -> list:
    """(l, m, unit * p^(l-1) q^(m-1) / ((l-1)! (m-1)!)) for each splitting
    l + m = k whose scale is not zero, built once per (p, q, k) of a claim."""
    scales = ((ell, k - ell, p ** (ell - 1) * q ** (k - ell - 1)
               / (factorial(ell - 1) * factorial(k - ell - 1)))
              for ell in range(1, k))
    return [(ell, m, unit * s) for ell, m, s in scales if s]


def _splitting_terms(table, level: int, x: tuple, y: tuple) -> list[tuple]:
    """The terms (scale, E_{l,x}, E_{m,y}) of the points x, y, integer
    pairs at level, one per entry (l, m, scale) of a `_scale_table`."""
    return [(s, EisIndex(ell, level, *x), EisIndex(m, level, *y))
            for ell, m, s in table]


def L_terms(params: LParams, n_work: int) -> list[tuple[Fraction, EisIndex, EisIndex]]:
    """The formal sum of the weighted sum over splittings l + m = k of
    p^{l-1} q^{m-1} / ((l-1)! (m-1)!) * E_{l,lam} * E_{m,mu}, lam and mu
    at denominator n_work: one (scale, index l, index m) term per entry of
    the `_scale_table` of (p, q, k).  `canonical_sum` builds an `EisIndex`
    only for a surviving product."""
    lam, mu = params.lam.rescale(n_work), params.mu.rescale(n_work)
    return _splitting_terms(_scale_table(params.p, params.q, params.weight),
                            n_work, (lam.c1, lam.c2), (mu.c1, mu.c2))


def canonical_sum(terms) -> list[tuple]:
    """The formal sum terms [(scale, idx, ...)], scales rational or in
    Q(zeta_N) and each term's factors at one level, reduced to canonical
    products with the same form.

    Each factor is normalized on its integer key (weight, c1, c2) by
    `pm_representative`, the rule of `EisIndex.representative`: the key
    becomes that of the first index of its +- pair and the scale takes
    the sign, and a zero factor, odd weight at v = -v, drops the term.
    A product's keys are sorted, as its factors commute; equal products
    merge, zero scales drop, and products keep the order of their first
    term.  An `EisIndex` is built only for a product that survives.
    E_{1,-lam} = -E_{1,lam} cancels the two-term relation:

    >>> lam, mu = TorsionPoint(3, 1, 0), TorsionPoint(3, 0, 1)
    >>> canonical_sum([(1, lam.to_index(1), mu.to_index(1)),
    ...                (1, mu.to_index(1), (-lam).to_index(1))])
    []
    """
    merged: dict[tuple, object] = {}
    for scale, *factors in terms:
        level = factors[0].level
        product = []
        for idx in factors:
            sign, c1, c2 = pm_representative(idx.weight, level, idx.c1, idx.c2)
            if not sign:
                break
            if sign < 0:
                scale = -scale
            product.append((idx.weight, c1, c2))
        else:
            key = (level, *sorted(product))
            merged[key] = merged[key] + scale if key in merged else scale
    return [(scale, *(EisIndex(w, level, c1, c2) for w, c1, c2 in product))
            for (level, *product), scale in merged.items() if scale]


def build_L(terms, weight: int, level: int, truncation: int) -> QuasiForm:
    """The form of a formal sum: scale times the product of the series
    eis_series(idx, truncation) over each term (scale, idx, ...), summed
    by one `combine`.  The verifiers pass the `canonical_sum` of their
    claim, so each product is expanded once; an empty sum is the zero
    form, built from no series.

    >>> build_L([], 2, 3, 12).is_zero()
    True
    """
    return combine([(reduce(quasi_mul, (eis_series(idx, truncation)
                                        for idx in factors)), scale)
                    for scale, *factors in terms], weight, level, truncation)


def _verify(claim_id: str, params: dict, raw_terms, weight: int, level: int,
            truncation: int | None, refuse: bool = False) -> VerificationReport:
    """The one pipeline of every verifier: reduce the claim's formal sum
    raw_terms with `canonical_sum`, expand it with `build_L` at the
    truncation, or for None at `sturm_truncation`, and certify it.  A
    certified claim is VERIFIED iff its exact residual is 0, and
    INCONCLUSIVE otherwise, a Y-component the certificate leaves included.
    A VERIFIED below `proven_truncation` proves nothing and becomes
    INCONCLUSIVE.  refuse (only `verify_three_term_w2`'s zero point)
    records INCONCLUSIVE with the whole form as the residual."""
    terms = canonical_sum(raw_terms)
    b = sturm_truncation(weight, level) if truncation is None else truncation
    total = build_L(terms, weight, level, b)
    if refuse:
        defect, certificate = SpanSolution({}, total), []
    else:
        defect, certificate = certify_orthogonal(total, terms)
    status = (VERIFIED if not refuse and defect.in_span
              and b >= proven_truncation(weight, level) else INCONCLUSIVE)
    return VerificationReport(claim_id, params, status, defect, certificate,
                              b, level)


def verify_two_term(lam: TorsionPoint, mu: TorsionPoint, n_work: int,
                    truncation: int | None = None) -> VerificationReport:
    """Certify the weight-2 two-term relation E_{1,lam} E_{1,mu} +
    E_{1,mu} E_{1,-lam} = 0: its canonical sum is empty, its form 0."""
    lam_w = lam.rescale(n_work)
    mu_w = mu.rescale(n_work)
    return _verify(
        "two_term", {"lam": lam.label(), "mu": mu.label(), "n_work": n_work},
        [(1, lam_w.to_index(1), mu_w.to_index(1)),
         (1, mu_w.to_index(1), (-lam_w).to_index(1))],
        2, n_work, truncation)


def verify_three_term_w2(lam: TorsionPoint, mu: TorsionPoint, n_work: int,
                         truncation: int | None = None) -> VerificationReport:
    """Certify the weight-2 three-term relation
    E_{1,lam} E_{1,mu} + E_{1,mu} E_{1,nu} + E_{1,nu} E_{1,lam} == 0
    modulo the weight-2 Eisenstein space, where nu = -lam-mu.  A vanishing
    torsion point collapses the claim to a statement the relation does
    not make, so it is refused, INCONCLUSIVE, rather than certified."""
    lam_w = lam.rescale(n_work)
    mu_w = mu.rescale(n_work)
    nu_w = -(lam_w + mu_w)
    return _verify(
        "three_term_w2",
        {"lam": lam.label(), "mu": mu.label(), "n_work": n_work},
        [(1, x.to_index(1), y.to_index(1))
         for x, y in ((lam_w, mu_w), (mu_w, nu_w), (nu_w, lam_w))],
        2, n_work, truncation,
        refuse=lam_w.is_zero() or mu_w.is_zero() or nu_w.is_zero())


def verify_prop21(params: LParams, n_work: int,
                  truncation: int | None = None) -> VerificationReport:
    """Certify the cyclic weighted sum
    L(lam,mu,p,q) + L(mu,nu,q,r) + L(nu,lam,r,p), with r = -p-q and
    nu = -lam-mu, against the weight-k Eisenstein space."""
    if params.weight == 2:
        # the weighted sum degenerates to the bare three-term relation
        return verify_three_term_w2(params.lam, params.mu, n_work, truncation)
    k = params.weight
    lam = params.lam.rescale(n_work)
    mu = params.mu.rescale(n_work)
    nu = -(lam + mu)
    p, q = params.p, params.q
    r = -p - q
    return _verify(
        "prop21",
        {"lam": params.lam.label(), "mu": params.mu.label(),
         "p": str(params.p), "q": str(params.q), "k": k, "n_work": n_work},
        (t for part in (LParams(lam, mu, p, q, k), LParams(mu, nu, q, r, k),
                        LParams(nu, lam, r, p, k))
         for t in L_terms(part, n_work)),
        k, n_work, truncation)


def torsion_translates(n_sub: int, m: int) -> list[TorsionPoint]:
    """The n_sub-torsion points expressed at denominator n_sub * m."""
    n_work = n_sub * m
    return [TorsionPoint(n_work, a * m, b * m)
            for a in range(n_sub) for b in range(n_sub)]


def verify_hecke_trace(n_sub: int, shear: int, lam: TorsionPoint,
                       mu: TorsionPoint, weight: int, p, q,
                       truncation: int | None = None) -> VerificationReport:
    """Certify the trace identity: the averaged translate sum
    (1/n_sub) * sum over tau of L(lam+tau, mu-shear*tau, p, q)
    equals the hull-chain sum of L(a*lam+b*mu, c*lam+d*mu, ap+bq, cp+dq)
    modulo the weight-k Eisenstein space at level n_sub * M.  The n_sub^2
    translates share one `_scale_table`, each chain pair has its own, and
    `canonical_sum` builds an `EisIndex` only for a surviving product."""
    if weight < 2:
        raise ValueError("weight must be >= 2")
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    if gcd(shear % n_sub, n_sub) != 1:
        raise NonCoprimeShear(f"gcd({shear}, {n_sub}) != 1")
    if lam.denominator != mu.denominator:
        raise ValueError("lam and mu must share a denominator")
    m = lam.denominator
    n_work = n_sub * m
    p, q = Fraction(p), Fraction(q)
    # lam and mu at level n_work, by integer coordinates
    l1, l2, m1, m2 = (n_sub * c for c in (lam.c1, lam.c2, mu.c1, mu.c2))
    lhs = _scale_table(p, q, weight, Fraction(1, n_sub))
    raw = [t for tau in torsion_translates(n_sub, m) for t in _splitting_terms(
        lhs, n_work, (l1 + tau.c1, l2 + tau.c2),
        (m1 - shear * tau.c1, m2 - shear * tau.c2))]
    for (a, b), (c, d) in hull_chain(n_sub, shear).pairs():
        rhs = _scale_table(a * p + b * q, c * p + d * q, weight, -1)
        raw += _splitting_terms(rhs, n_work, (a * l1 + b * m1, a * l2 + b * m2),
                                (c * l1 + d * m1, c * l2 + d * m2))
    return _verify(
        "hecke_trace",
        {"n_sub": n_sub, "shear": shear % n_sub, "lam": lam.label(),
         "mu": mu.label(), "p": str(p), "q": str(q), "k": weight,
         "n_work": n_work},
        raw, weight, n_work, truncation)
