"""q-expansions of normalized Eisenstein series over cyclotomic fields.

For a torsion index (c1, c2) at level N the underlying lattice sum runs
over row slopes a = c1/N mod 1; the normalization multiplies by
(k-1)! (-2 pi i)^{-k}, which makes every Fourier coefficient an element
of Q(zeta_N) and turns the weight-2 nonholomorphic part into exactly
1/(4 pi y).  Exponents index powers of q_N = e^{2 pi i z / N}.

Row contributions, with zeta = zeta_N:
  a > 0, a = (c1 + jN)/N:   sum_m m^{k-1} zeta^{m c2}   at exponent m(c1+jN)
  a < 0, |a| = ((j+1)N-c1)/N: (-1)^k sum_m m^{k-1} zeta^{-m c2}
                                              at exponent m((j+1)N-c1)
Constant term, with Bbar_k(x) = B_k(x - floor(x)) the periodic Bernoulli
function (Bbar_1 = 0 at the integers):
  c1 = 0:  -(-1)^k N^{k-1}/k * sum_{a mod N} zeta^{-a c2} Bbar_k(a/N),
      because Bbar_k(x) = -k!/(2 pi i)^k sum_{m != 0} e^{2 pi i m x}/m^k, so
      the sum over a picks out the row sum over m = c2 mod N of m^{-k};
      at c2 = 0 this is -B_k/k for even k and 0 for odd k.
  c1 != 0: 0 for k >= 2, and -Bbar_1(c1/N) = 1/2 - c1/N for k = 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, floor

from .cyclotomic import Cyclotomic, cyclo_reduce


class InvalidIndex(ValueError):
    """Torsion index outside its level, or a weight below 1."""


class NotDivisible(ValueError):
    """rescale_level target is not a multiple of the current level."""


@dataclass(frozen=True)
class EisIndex:
    """Weight plus a level-N torsion index, stored reduced mod N."""

    weight: int
    level: int
    c1: int
    c2: int

    def __post_init__(self):
        if self.weight < 1:
            raise InvalidIndex(f"weight must be >= 1, got {self.weight}")
        if self.level < 1:
            raise InvalidIndex(f"level must be >= 1, got {self.level}")
        object.__setattr__(self, "c1", self.c1 % self.level)
        object.__setattr__(self, "c2", self.c2 % self.level)

    def negate(self) -> EisIndex:
        return EisIndex(self.weight, self.level, -self.c1, -self.c2)

    def s_transform(self) -> EisIndex:
        return EisIndex(self.weight, self.level, self.c2, -self.c1)


class QSeries:
    """Truncated q_N-expansion with coefficients in Q(zeta_level).

    Immutable by convention: no method mutates coeffs after construction.
    """

    __slots__ = ("level", "truncation", "coeffs")

    def __init__(self, level: int, truncation: int, coeffs: dict[int, Cyclotomic] | None = None):
        if truncation < 0:
            raise ValueError("truncation must be >= 0")
        self.level = level
        self.truncation = truncation
        clean: dict[int, Cyclotomic] = {}
        if coeffs:
            for n, c in coeffs.items():
                if n < 0:
                    raise ValueError("negative exponent in q-expansion")
                if n > truncation or c.is_zero():
                    continue
                if c.conductor != level:
                    c = c.embed_to(level) if level % c.conductor == 0 else c
                    if c.conductor != level:
                        raise ValueError("coefficient conductor must divide level")
                clean[n] = c
        self.coeffs = clean

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def zero(level: int, truncation: int) -> QSeries:
        return QSeries(level, truncation, {})

    @staticmethod
    def const(level: int, truncation: int, value) -> QSeries:
        if isinstance(value, Cyclotomic):
            c = value
        else:
            c = Cyclotomic.from_rational(level, value)
        return QSeries(level, truncation, {0: c})

    def coeff(self, n: int) -> Cyclotomic:
        return self.coeffs.get(n, Cyclotomic.zero(self.level))

    def is_zero(self) -> bool:
        return not self.coeffs

    def nonzero_exponents(self) -> list[int]:
        return sorted(self.coeffs)

    def _check(self, other: QSeries):
        if self.level != other.level or self.truncation != other.truncation:
            raise ValueError("level/truncation mismatch")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: QSeries) -> QSeries:
        self._check(other)
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            s = out.get(n)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(n, None)
            else:
                out[n] = s
        return QSeries(self.level, self.truncation, out)

    def __neg__(self) -> QSeries:
        return QSeries(
            self.level, self.truncation, {n: -c for n, c in self.coeffs.items()}
        )

    def __sub__(self, other: QSeries) -> QSeries:
        return self + (-other)

    def scale(self, factor) -> QSeries:
        if isinstance(factor, Cyclotomic):
            f = factor if factor.conductor == self.level else factor.embed_to(self.level)
        else:
            f = Fraction(factor)
        if not f:
            return QSeries.zero(self.level, self.truncation)
        return QSeries(
            self.level, self.truncation, {n: c * f for n, c in self.coeffs.items()}
        )

    def __mul__(self, other: QSeries) -> QSeries:
        self._check(other)
        out: dict[int, Cyclotomic] = {}
        for n1, c1 in self.coeffs.items():
            for n2, c2 in other.coeffs.items():
                n = n1 + n2
                if n > self.truncation:
                    continue
                prod = c1 * c2
                s = out.get(n)
                s = prod if s is None else s + prod
                out[n] = s
        return QSeries(self.level, self.truncation, out)

    def theta(self) -> QSeries:
        """(2 pi i)^{-1} d/dz: multiplies the q_N^n coefficient by n/N."""
        return QSeries(
            self.level,
            self.truncation,
            {n: c * Fraction(n, self.level) for n, c in self.coeffs.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.level == other.level
            and self.truncation == other.truncation
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        head = ", ".join(
            f"q^{n}:{self.coeffs[n].to_string()}" for n in self.nonzero_exponents()[:4]
        )
        return f"QSeries(N={self.level}, B={self.truncation}, {head}...)"


# -- number-theoretic constants -------------------------------------------


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """B_k with B_1 = -1/2, via the defining recurrence.

    >>> bernoulli(2), bernoulli(4)
    (Fraction(1, 6), Fraction(-1, 30))
    """
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(-1, 2)
    if k % 2:
        return Fraction(0)
    total = Fraction(0)
    binom = 1
    for j in range(k):
        total += binom * bernoulli(j)
        binom = binom * (k + 1 - j) // (j + 1)
    return -total / (k + 1)


def periodic_bernoulli(k: int, x: Fraction) -> Fraction:
    """Bbar_k(x) = B_k(x - floor(x)), taking Bbar_1 = 0 at the integers.

    >>> periodic_bernoulli(2, Fraction(4, 3)), periodic_bernoulli(1, Fraction(0))
    (Fraction(-1, 18), Fraction(0, 1))
    """
    x -= floor(x)
    if k == 1 and x == 0:
        return Fraction(0)
    return sum((comb(k, j) * bernoulli(j) * x ** (k - j) for j in range(k + 1)),
               Fraction(0))


def index_mu(n: int) -> int:
    """Index of the level-n principal congruence subgroup in PSL2(Z)."""
    if n == 1:
        return 1
    if n == 2:
        return 6
    mu = n ** 3
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            mu = mu // (p * p) * (p * p - 1)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        mu = mu // (m * m) * (m * m - 1)
    return mu // 2


def sturm_truncation(k: int, n: int) -> int:
    """Default q_n-exponent bound certifying weight-k identities at level n."""
    mu = index_mu(n)
    return n * (-(-k * mu // 12) + 1)


def constant_term(idx: EisIndex) -> Cyclotomic:
    """Constant Fourier coefficient of the normalized series, in Q(zeta_N).

    For c1 = 0 it is -(-1)^k N^{k-1}/k sum_{a mod N} zeta^{-a c2} Bbar_k(a/N):
    the Fourier series Bbar_k(x) = -k!/(2 pi i)^k sum_{m != 0} e^{2 pi i m x}/m^k
    turns the horizontal row sum over m = c2 mod N of m^{-k}, times the
    normalization (k-1)! (-2 pi i)^{-k}, into this finite sum.
    """
    k, n, c1, c2 = idx.weight, idx.level, idx.c1, idx.c2
    if c1 != 0:
        if k == 1:
            return Cyclotomic.from_rational(n, -periodic_bernoulli(1, Fraction(c1, n)))
        return Cyclotomic.zero(n)
    raw = [Fraction(0)] * n
    for a in range(n):
        raw[-a * c2 % n] += periodic_bernoulli(k, Fraction(a, n))
    return cyclo_reduce(n, raw) * Fraction(-(-1) ** k * n ** (k - 1), k)


def eis_qseries(idx: EisIndex, truncation: int) -> QSeries:
    """Holomorphic part of the normalized Eisenstein series to the given
    q_N-exponent bound; the weight-2 completion adds 1/(4 pi y) outside."""
    k, n, c1, c2 = idx.weight, idx.level, idx.c1, idx.c2
    raw: dict[int, list[int]] = {}

    def add_rows(start: int, zeta_mult: int, sign: int):
        a_num = start
        while a_num <= truncation and a_num > 0:
            for m in range(1, truncation // a_num + 1):
                vec = raw.setdefault(m * a_num, [0] * n)
                vec[(m * zeta_mult) % n] += sign * m ** (k - 1)
            a_num += n
        return

    add_rows(c1 if c1 else n, c2, 1)
    add_rows(n - c1, -c2, (-1) ** k)

    coeffs = {e: cyclo_reduce(n, vec) for e, vec in raw.items()}
    c0 = constant_term(idx)
    if not c0.is_zero():
        coeffs[0] = c0
    return QSeries(n, truncation, coeffs)


def rescale_level(series: QSeries, new_level: int) -> QSeries:
    """Reinterpret a level-N expansion at a multiple level: exponents and
    the truncation scale by new_level/N, coefficients embed upward."""
    if new_level % series.level:
        raise NotDivisible(f"{series.level} does not divide {new_level}")
    t = new_level // series.level
    return QSeries(
        new_level,
        series.truncation * t,
        {n * t: c.embed_to(new_level) for n, c in series.coeffs.items()},
    )
