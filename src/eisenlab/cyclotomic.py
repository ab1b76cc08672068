"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

zeta_N means e^{2 pi i / N}.  An element is a vector of rationals on the
power basis 1, zeta, ..., zeta^{phi(N)-1}, reduced modulo the N-th
cyclotomic polynomial.  Rational scalars are `fractions.Fraction`
throughout; two elements are equal iff their coefficient vectors are.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

Rational = Fraction

Scalar = Union[int, Fraction]


def euler_phi(n: int) -> int:
    """
    >>> [euler_phi(n) for n in (1, 2, 6, 12)]
    [1, 1, 2, 4]
    """
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n as ints, low degree first, computed by
    dividing x^n - 1 by Phi_d over all proper divisors d | n.

    >>> cyclotomic_poly(4)
    (1, 0, 1)
    >>> cyclotomic_poly(6)
    (1, -1, 1)
    """
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_poly(d))
            if rem:
                raise ArithmeticError("non-exact cyclotomic division")
    # each Phi_d is monic, so the quotients stay integral
    return tuple(int(c) for c in poly)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """zeta_n^j reduced mod Phi_n as integer vectors, for phi(n) <= j < n."""
    deg = euler_phi(n)
    phi = cyclotomic_poly(n)
    # zeta^deg = -(phi[0] + phi[1] zeta + ...): Phi_n is monic.
    rows = []
    cur = [-c for c in phi[:deg]]
    rows.append(tuple(cur))
    for _ in range(deg + 1, n):
        shifted = [0] + cur[:-1]
        lead = cur[-1]
        if lead:
            top = rows[0]
            shifted = [s + lead * t for s, t in zip(shifted, top)]
        cur = shifted
        rows.append(tuple(cur))
    return tuple(rows)


def _reduce_vector(conductor: int, raw: Sequence[Scalar],
                   zero: Scalar = Fraction(0)) -> tuple[Scalar, ...]:
    """Fold raw mod x^conductor - 1, then reduce mod Phi_conductor.

    Sums start from zero, so the result is a vector of Fractions; with
    zero = 0 an int vector reduces in ints.
    """
    deg = euler_phi(conductor)
    folded = [zero] * conductor
    for j, c in enumerate(raw):
        if c:
            folded[j % conductor] += c
    table = _power_table(conductor)
    out = folded[:deg]
    for j in range(deg, conductor):
        c = folded[j]
        if c:
            row = table[j - deg]
            for i, r in enumerate(row):
                if r:
                    out[i] += c * r
    return tuple(out)


def _multiplier(conductor: int, vec: Sequence[int]) -> list[list[int]]:
    """Rows of the integer matrix of multiplication by the integer vector
    vec on the power basis: entry [p][i] is coordinate p of vec zeta^i."""
    cols = [_reduce_vector(conductor, [0] * i + list(vec), 0)
            for i in range(euler_phi(conductor))]
    return [list(row) for row in zip(*cols)]


@dataclass(frozen=True)
class Cyclotomic:
    """An element of Q(zeta_conductor) on the reduced power basis."""

    conductor: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.conductor < 1:
            raise ValueError("conductor must be >= 1")
        if len(self.coeffs) != euler_phi(self.conductor):
            raise ValueError("coefficient vector has wrong length")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(conductor: int) -> Cyclotomic:
        return cyclo_reduce(conductor, ())

    @staticmethod
    def one(conductor: int) -> Cyclotomic:
        return cyclo_reduce(conductor, (1,))

    @staticmethod
    def zeta(conductor: int, power: int = 1) -> Cyclotomic:
        return cyclo_reduce(conductor, {power % conductor: 1})

    @staticmethod
    def from_rational(conductor: int, value: Scalar) -> Cyclotomic:
        return cyclo_reduce(conductor, (Fraction(value),))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> Cyclotomic | None:
        if isinstance(other, Cyclotomic):
            if other.conductor != self.conductor:
                raise ValueError(
                    f"conductor mismatch: {self.conductor} vs {other.conductor}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.conductor, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(
            self.conductor, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return Cyclotomic(self.conductor, tuple(a * f for a in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = len(self.coeffs)
        conv = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        conv[i + j] += a * b
        return cyclo_reduce(self.conductor, conv)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self * (Fraction(1) / Fraction(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * cyclo_invert(o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * cyclo_invert(self)

    def __pow__(self, exponent: int):
        if exponent < 0:
            return cyclo_invert(self) ** (-exponent)
        result = Cyclotomic.one(self.conductor)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, Cyclotomic):
            return (
                self.conductor == other.conductor and self.coeffs == other.coeffs
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.conductor, self.coeffs))

    # -- display -----------------------------------------------------------

    def to_string(self) -> str:
        parts = []
        for j, c in enumerate(self.coeffs):
            body = f"{c.numerator}/{c.denominator}"
            if j == 0:
                parts.append(body)
            elif j == 1:
                parts.append(f"{body}*z")
            else:
                parts.append(f"{body}*z^{j}")
        return " + ".join(parts) + f" | {self.conductor}"

    @staticmethod
    def from_string(text: str) -> Cyclotomic:
        body, _, cond = text.rpartition("|")
        conductor = int(cond.strip())
        coeffs = []
        for part in body.strip().split(" + "):
            frac = part.split("*")[0]
            num, _, den = frac.partition("/")
            coeffs.append(Fraction(int(num), int(den)))
        return Cyclotomic(conductor, tuple(coeffs))

    def __repr__(self):
        return f"Cyclotomic({self.to_string()!r})"


def cyclo_reduce(conductor: int, raw) -> Cyclotomic:
    """Build an element from a dense coefficient sequence or a sparse
    {power: coefficient} mapping, reducing mod Phi_conductor."""
    if isinstance(raw, dict):
        dense = [Fraction(0)] * conductor
        for j, c in raw.items():
            dense[j % conductor] += Fraction(c)
        raw = dense
    return Cyclotomic(conductor, _reduce_vector(conductor, raw))


# -- inversion via extended Euclid against Phi_N ---------------------------


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    inv_lead = Fraction(1) / b[-1]
    while len(r) >= len(b) and any(r):
        if not r[-1]:
            r.pop()
            continue
        shift = len(r) - len(b)
        c = r[-1] * inv_lead
        q[shift] = c
        for j, bj in enumerate(b):
            r[shift + j] -= c * bj
        r.pop()
    return q, _poly_trim(r)


def cyclo_invert(x: Cyclotomic) -> Cyclotomic:
    """Multiplicative inverse; raises ZeroDivisionError at zero.

    Extended Euclid of the representing polynomial against Phi_N: the gcd
    is 1 because Phi_N is irreducible over Q.
    """
    if x.is_zero():
        raise ZeroDivisionError("zero has no inverse in Q(zeta)")
    if x.is_rational():
        return Cyclotomic.from_rational(x.conductor, Fraction(1) / x.coeffs[0])
    phi = [Fraction(c) for c in cyclotomic_poly(x.conductor)]
    r0, r1 = phi, _poly_trim(list(x.coeffs))
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        s = list(s0)
        s += [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s))
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    s[i + j] -= qi * sj
        r0, r1, s0, s1 = r1, r, s1, _poly_trim(s)
    # r0 is a nonzero constant gcd; s0 * x = r0 mod Phi.
    scale = Fraction(1) / r0[0]
    return cyclo_reduce(x.conductor, [c * scale for c in s0])


# -- numeric embedding -----------------------------------------------------


def cyclo_embed(x: Cyclotomic, precision_digits: int = 60) -> mpmath.mpc:
    """Numeric image of x under zeta_N -> e^{2 pi i/N}.

    precision_digits must be at least 15; the value is computed and kept
    with a 10-digit guard on top of the request.  mpmath rounds arithmetic
    to its working precision, so combine values inside mpmath.workdps.
    """
    import mpmath  # only the numeric checks pay for importing it

    if precision_digits < 15:
        raise ValueError("precision_digits must be >= 15")
    with mpmath.workdps(precision_digits + 10):
        total = mpmath.mpc(0)
        for j, c in enumerate(x.coeffs):
            if c:
                term = mpmath.exp(2j * mpmath.pi * j / x.conductor)
                total += mpmath.mpf(c.numerator) / c.denominator * term
        return total
