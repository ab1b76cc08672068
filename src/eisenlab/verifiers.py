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
from math import comb, factorial, gcd, lcm

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


def _scale_table(P: int, Q: int, k: int, unit: int = 1) -> list:
    """(l, m, unit * C(k-2, l-1) P^(l-1) Q^(m-1)) for each splitting
    l + m = k whose entry is not zero, built once per (p, q, k) of a
    claim.  For p = P/D and q = Q/D the entry is unit (k-2)! D^(k-2)
    times the scale p^(l-1) q^(m-1) / ((l-1)! (m-1)!) of E_l E_m."""
    return [(ell, k - ell, s) for ell in range(1, k)
            if (s := unit * comb(k - 2, ell - 1) * P ** (ell - 1)
                * Q ** (k - ell - 1))]


def L_terms(table, x: tuple, y: tuple) -> list[tuple]:
    """The terms (numerator, (l, *x), (m, *y)) of the points x, y, integer
    pairs, one per entry (l, m, numerator) of a `_scale_table`: the
    weighted sum over splittings l + m = k of
    p^{l-1} q^{m-1} / ((l-1)! (m-1)!) * E_{l,x} * E_{m,y}, over the
    claim's denominator."""
    return [(s, (ell, *x), (m, *y)) for ell, m, s in table]


def canonical_sum(terms, level: int, d: int) -> list[tuple]:
    """The formal sum terms [(n, (weight, c1, c2), ...)], each term
    n / d times the product of its factors E_{weight,(c1,c2)} at level,
    reduced to canonical products [(scale, idx, ...)] with the same form.

    Each factor is normalized on its integer key by `pm_representative`,
    the rule of `EisIndex.representative`: the key becomes that of the
    first index of its +- pair and the numerator takes the sign, and a
    zero factor, odd weight at v = -v, drops the term.  A product's keys
    are sorted, as its factors commute; equal products merge, zero
    numerators drop, and products keep the order of their first term.
    A scale Fraction(n, d) and an `EisIndex` are built only for a product
    that survives.  E_{1,-lam} = -E_{1,lam} cancels the two-term relation:

    >>> canonical_sum([(1, (1, 1, 0), (1, 0, 1)),
    ...                (1, (1, 0, 1), (1, -1, 0))], 3, 1)
    []
    """
    merged: dict[tuple, int] = {}
    for n, *factors in terms:
        product = []
        for w, c1, c2 in factors:
            sign, c1, c2 = pm_representative(w, level, c1 % level, c2 % level)
            if not sign:
                break
            n *= sign
            product.append((w, c1, c2))
        else:
            key = tuple(sorted(product))
            merged[key] = merged.get(key, 0) + n
    return [(Fraction(n, d), *(EisIndex(w, level, c1, c2) for w, c1, c2 in key))
            for key, n in merged.items() if n]


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


def _verify(claim_id: str, params: dict, raw_terms, d: int, weight: int,
            level: int, truncation: int | None,
            refuse: bool = False) -> VerificationReport:
    """The one pipeline of every verifier: reduce the claim's formal sum
    raw_terms, integer numerators over its one denominator d, with
    `canonical_sum`, expand it with `build_L` at the
    truncation, or for None at `sturm_truncation`, and certify it.  A
    certified claim is VERIFIED iff its exact residual is 0, and
    INCONCLUSIVE otherwise, a Y-component the certificate leaves included.
    A VERIFIED below `proven_truncation` proves nothing and becomes
    INCONCLUSIVE.  refuse (only `verify_three_term_w2`'s zero point)
    records INCONCLUSIVE with the whole form as the residual."""
    terms = canonical_sum(raw_terms, level, d)
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
    x, y = (1, lam_w.c1, lam_w.c2), (1, mu_w.c1, mu_w.c2)
    return _verify(
        "two_term", {"lam": lam.label(), "mu": mu.label(), "n_work": n_work},
        [(1, x, y), (1, y, (1, -lam_w.c1, -lam_w.c2))], 1, 2, n_work,
        truncation)


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
        [(1, (1, x.c1, x.c2), (1, y.c1, y.c2))
         for x, y in ((lam_w, mu_w), (mu_w, nu_w), (nu_w, lam_w))],
        1, 2, n_work, truncation,
        refuse=lam_w.is_zero() or mu_w.is_zero() or nu_w.is_zero())


def verify_prop21(params: LParams, n_work: int,
                  truncation: int | None = None) -> VerificationReport:
    """Certify the cyclic weighted sum
    L(lam,mu,p,q) + L(mu,nu,q,r) + L(nu,lam,r,p), with r = -p-q and
    nu = -lam-mu, against the weight-k Eisenstein space."""
    if params.weight == 2:
        # the weighted sum degenerates to the bare three-term relation
        return verify_three_term_w2(params.lam, params.mu, n_work, truncation)
    k, p, q = params.weight, params.p, params.q
    lam, mu = params.lam.rescale(n_work), params.mu.rescale(n_work)
    x, y, z = ((t.c1, t.c2) for t in (lam, mu, -(lam + mu)))
    # p, q and r = -p-q are P/D, Q/D and R/D
    D = lcm(p.denominator, q.denominator)
    P, Q = int(p * D), int(q * D)
    R = -P - Q
    return _verify(
        "prop21",
        {"lam": params.lam.label(), "mu": params.mu.label(),
         "p": str(p), "q": str(q), "k": k, "n_work": n_work},
        [t for a, b, u, v in ((P, Q, x, y), (Q, R, y, z), (R, P, z, x))
         for t in L_terms(_scale_table(a, b, k), u, v)],
        factorial(k - 2) * D ** (k - 2), k, n_work, truncation)


def verify_hecke_trace(n_sub: int, shear: int, lam: TorsionPoint,
                       mu: TorsionPoint, weight: int, p, q,
                       truncation: int | None = None) -> VerificationReport:
    """Certify the trace identity: the averaged translate sum
    (1/n_sub) * sum over tau of L(lam+tau, mu-shear*tau, p, q)
    equals the hull-chain sum of L(a*lam+b*mu, c*lam+d*mu, ap+bq, cp+dq)
    modulo the weight-k Eisenstein space at level n_sub * M.  The n_sub^2
    translates share one `_scale_table`, each chain pair has its own, all
    over the one denominator n_sub (k-2)! D^(k-2), D that of p and q."""
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
    D = lcm(p.denominator, q.denominator)
    P, Q = int(p * D), int(q * D)
    # lam and mu at level n_work, by integer coordinates; the translates
    # tau are (i, j) for i, j in 0, m, ..., n_work - m
    l1, l2, m1, m2 = (n_sub * c for c in (lam.c1, lam.c2, mu.c1, mu.c2))
    lhs = _scale_table(P, Q, weight)
    raw = [t for i in range(0, n_work, m) for j in range(0, n_work, m)
           for t in L_terms(lhs, (l1 + i, l2 + j),
                            (m1 - shear * i, m2 - shear * j))]
    for (a, b), (c, d) in hull_chain(n_sub, shear).pairs():
        rhs = _scale_table(a * P + b * Q, c * P + d * Q, weight, -n_sub)
        raw += L_terms(rhs, (a * l1 + b * m1, a * l2 + b * m2),
                       (c * l1 + d * m1, c * l2 + d * m2))
    return _verify(
        "hecke_trace",
        {"n_sub": n_sub, "shear": shear % n_sub, "lam": lam.label(),
         "mu": mu.label(), "p": str(p), "q": str(q), "k": weight,
         "n_work": n_work},
        raw, n_sub * factorial(weight - 2) * D ** (weight - 2), weight, n_work,
        truncation)
