"""Composite-expression builders and the verification entry points.

Every verifier assembles a finite combination of Eisenstein products,
runs either an exact series comparison or the cusp-orthogonality
certifier, and wraps the outcome in a VerificationReport.  Statuses:

  VERIFIED      the claim holds with an explicit exact decomposition;
  REFUTED       an exact q-series equality failed (only exact claims
                can be refuted; a certifier residual never refutes);
  INCONCLUSIVE  the certifier could not exhibit a decomposition, or
                the input degenerates outside the claim's hypotheses.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

from .cyclotomic import Cyclotomic, Rational
from .eisenstein import (EisIndex, NotDivisible, proven_truncation,
                         sturm_truncation)
from .hull import NonCoprimeShear, hull_chain
from .quasiforms import (
    QuasiForm,
    SpanSolution,
    TopComponentNotEisenstein,
    UnsupportedWeight,
    certify_orthogonal,
    eis_series,
    quasi_mul,
)

VERIFIED = "VERIFIED"
REFUTED = "REFUTED"
INCONCLUSIVE = "INCONCLUSIVE"

# default (p, q) samples.  Both sides of a prop21 or hecke claim are
# homogeneous of degree k - 2 in (p, q), so three samples determine them
# only for k <= 4; each sample is verified on its own.
PQ_SAMPLES = (
    (Fraction(1), Fraction(1)),
    (Fraction(2), Fraction(-1)),
    (Fraction(3), Fraction(5)),
)


@dataclass(frozen=True)
class TorsionPoint:
    """A point of M^{-1}Z^2/Z^2, stored as (c1/M, c2/M) reduced mod 1."""

    denominator: int
    c1: int
    c2: int

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("denominator must be >= 1")
        object.__setattr__(self, "c1", self.c1 % self.denominator)
        object.__setattr__(self, "c2", self.c2 % self.denominator)

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

    def __sub__(self, other: TorsionPoint) -> TorsionPoint:
        return self + (-other)

    def __mul__(self, n: int) -> TorsionPoint:
        return TorsionPoint(self.denominator, n * self.c1, n * self.c2)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.c1 == 0 and self.c2 == 0

    def to_index(self, weight: int) -> EisIndex:
        return EisIndex(weight, self.denominator, self.c1, self.c2)

    def label(self) -> str:
        return f"{self.c1},{self.c2}@{self.denominator}"


@dataclass(frozen=True)
class LParams:
    """Data of one bilinear Eisenstein combination of total weight k."""

    lam: TorsionPoint
    mu: TorsionPoint
    p: Rational
    q: Rational
    weight: int

    def __post_init__(self):
        if self.weight < 2:
            raise ValueError("weight must be >= 2")
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))


@dataclass
class VerificationReport:
    """Outcome of one claim.  Each certificate entry (idx, scale) says that
    scale * delta(eis_series(idx, truncation)) was peeled off the claim's
    form before its holomorphic remainder was solved as the defect."""

    claim_id: str
    parameters: dict
    status: str
    defect: SpanSolution
    certificate: list[tuple[EisIndex, Cyclotomic]]
    truncation: int
    level: int
    elapsed_ms: float


def L_terms(params: LParams, n_work: int) -> list[tuple[Fraction, EisIndex, EisIndex]]:
    """The formal sum of `build_L`: one (scale, index l, index m) term
    for each splitting l + m = k whose scale is not zero."""
    k = params.weight
    lam = params.lam.rescale(n_work)
    mu = params.mu.rescale(n_work)
    terms = []
    for ell in range(1, k):
        m = k - ell
        scale = (params.p ** (ell - 1)) * (params.q ** (m - 1))
        scale /= factorial(ell - 1) * factorial(m - 1)
        if scale:
            terms.append((scale, lam.to_index(ell), mu.to_index(m)))
    return terms


def build_L(params: LParams, n_work: int, truncation: int | None = None) -> QuasiForm:
    """Weighted sum over splittings l + m = k of products
    p^{l-1} q^{m-1} / ((l-1)! (m-1)!) * E_{l,lam} * E_{m,mu},
    with both torsion points rescaled to denominator n_work."""
    k = params.weight
    b = sturm_truncation(k, n_work) if truncation is None else truncation
    total = None
    for scale, x, y in L_terms(params, n_work):
        term = quasi_mul(eis_series(x, b), eis_series(y, b)).scale(scale)
        total = term if total is None else total + term
    if total is None:
        # every splitting vanished (possible only with p = q = 0, k > 2)
        total = QuasiForm(k, n_work, b, ())
    return total


def _sum_L(parts: list[LParams], n_work: int, b: int):
    """The sum of `build_L` over parts, and its formal sum."""
    total = None
    for params in parts:
        term = build_L(params, n_work, b)
        total = term if total is None else total + term
    return total, [t for params in parts for t in L_terms(params, n_work)]


def _report(claim_id: str, parameters: dict, total: QuasiForm, terms: list,
            started: float, status: str | None = None) -> VerificationReport:
    """Certify the claim's total form, whose formal sum is terms, or,
    when the caller already has a status, record it with the whole form
    as the residual.  A form the certifier cannot peel is INCONCLUSIVE,
    recorded the same way.  A VERIFIED below `proven_truncation` proves
    nothing and becomes INCONCLUSIVE.  The report's truncation and level
    are the form's."""
    defect, certificate = SpanSolution(coefficients={}, residual=total), []
    if status is None:
        try:
            defect, certificate = certify_orthogonal(total, terms)
        except (TopComponentNotEisenstein, UnsupportedWeight):
            status = INCONCLUSIVE
        else:
            status = VERIFIED if defect.in_span else INCONCLUSIVE
    if status == VERIFIED and total.truncation < proven_truncation(
            total.weight, total.level):
        status = INCONCLUSIVE
    return VerificationReport(
        claim_id=claim_id,
        parameters=parameters,
        status=status,
        defect=defect,
        certificate=certificate,
        truncation=total.truncation,
        level=total.level,
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )


def verify_two_term(lam: TorsionPoint, mu: TorsionPoint, n_work: int,
                    truncation: int | None = None) -> VerificationReport:
    """Exact check of the weight-2 two-term relation
    E_{1,lam} E_{1,mu} + E_{1,mu} E_{1,-lam} = 0."""
    started = time.perf_counter()
    b = sturm_truncation(2, n_work) if truncation is None else truncation
    lam_w = lam.rescale(n_work)
    mu_w = mu.rescale(n_work)
    terms = [(1, lam_w.to_index(1), mu_w.to_index(1)),
             (1, mu_w.to_index(1), (-lam_w).to_index(1))]
    f, g = (quasi_mul(eis_series(x, b), eis_series(y, b)) for _, x, y in terms)
    total = f + g
    return _report(
        "two_term",
        {"lam": lam.label(), "mu": mu.label(), "n_work": n_work},
        total, terms, started, VERIFIED if total.is_zero() else REFUTED)


def verify_three_term_w2(lam: TorsionPoint, mu: TorsionPoint, n_work: int,
                         truncation: int | None = None) -> VerificationReport:
    """Certify the weight-2 three-term relation
    E_{1,lam} E_{1,mu} + E_{1,mu} E_{1,nu} + E_{1,nu} E_{1,lam} == 0
    modulo the weight-2 Eisenstein space, where nu = -lam-mu."""
    started = time.perf_counter()
    b = sturm_truncation(2, n_work) if truncation is None else truncation
    lam_w = lam.rescale(n_work)
    mu_w = mu.rescale(n_work)
    nu_w = -(lam_w + mu_w)
    params = {"lam": lam.label(), "mu": mu.label(), "n_work": n_work}
    # at weight 2, L(lam, mu, p, q) is the bare product E_{1,lam} E_{1,mu}
    total, terms = _sum_L([LParams(x, y, 1, 1, 2) for x, y in
                           ((lam_w, mu_w), (mu_w, nu_w), (nu_w, lam_w))],
                          n_work, b)

    if lam_w.is_zero() or mu_w.is_zero() or nu_w.is_zero():
        # a vanishing torsion point collapses the claim to a statement
        # the relation does not make; refuse to certify rather than
        # report a misleading verdict either way
        return _report("three_term_w2", params, total, terms, started,
                       INCONCLUSIVE)
    return _report("three_term_w2", params, total, terms, started)


def verify_prop21(params: LParams, n_work: int,
                  truncation: int | None = None) -> VerificationReport:
    """Certify the cyclic weighted sum
    L(lam,mu,p,q) + L(mu,nu,q,r) + L(nu,lam,r,p), with r = -p-q and
    nu = -lam-mu, against the weight-k Eisenstein space."""
    if params.weight == 2:
        # the weighted sum degenerates to the bare three-term relation
        return verify_three_term_w2(params.lam, params.mu, n_work, truncation)
    started = time.perf_counter()
    k = params.weight
    b = sturm_truncation(k, n_work) if truncation is None else truncation
    lam = params.lam.rescale(n_work)
    mu = params.mu.rescale(n_work)
    nu = -(lam + mu)
    p, q = params.p, params.q
    r = -p - q
    total, terms = _sum_L([LParams(lam, mu, p, q, k), LParams(mu, nu, q, r, k),
                           LParams(nu, lam, r, p, k)], n_work, b)
    return _report(
        "prop21",
        {"lam": params.lam.label(), "mu": params.mu.label(),
         "p": str(params.p), "q": str(params.q), "k": k, "n_work": n_work},
        total, terms, started)


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
    modulo the weight-k Eisenstein space at level n_sub * M."""
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    if gcd(shear % n_sub, n_sub) != 1:
        raise NonCoprimeShear(f"gcd({shear}, {n_sub}) != 1")
    if lam.denominator != mu.denominator:
        raise ValueError("lam and mu must share a denominator")
    started = time.perf_counter()
    m = lam.denominator
    n_work = n_sub * m
    k = weight
    b = sturm_truncation(k, n_work) if truncation is None else truncation
    p = Fraction(p)
    q = Fraction(q)
    lam_w = lam.rescale(n_work)
    mu_w = mu.rescale(n_work)

    lhs, lhs_terms = _sum_L(
        [LParams(lam_w + tau, mu_w - shear * tau, p, q, k)
         for tau in torsion_translates(n_sub, m)], n_work, b)
    rhs, rhs_terms = _sum_L(
        [LParams(a * lam_w + bb * mu_w, c * lam_w + d * mu_w,
                 a * p + bb * q, c * p + d * q, k)
         for (a, bb), (c, d) in hull_chain(n_sub, shear).pairs()], n_work, b)
    terms = ([(s / n_sub, x, y) for s, x, y in lhs_terms]
             + [(-s, x, y) for s, x, y in rhs_terms])

    return _report(
        "hecke_trace",
        {"n_sub": n_sub, "shear": shear % n_sub, "lam": lam.label(),
         "mu": mu.label(), "p": str(p), "q": str(q), "k": k,
         "n_work": n_work},
        lhs.scale(Fraction(1, n_sub)) - rhs, terms, started)
