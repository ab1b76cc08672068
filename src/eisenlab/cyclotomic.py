"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

zeta_N means e^{2 pi i / N}.  An element is a vector of rationals on the
power basis 1, zeta, ..., zeta^{phi(N)-1}, reduced modulo the N-th
cyclotomic polynomial, and stored as one denominator and an integer
vector, as a `QSeries` coefficient is, so that every field operation runs
in integers, inversion too: over the norm.  Fractions appear only at the
rational edges: input, comparison and hashing against rationals, the
`coeffs` view and the numeric embedding.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence, Union

Rational = Fraction

Scalar = Union[int, Fraction]


@lru_cache(maxsize=None)
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
    dividing x^n - 1 by Phi_d over all proper divisors d | n.  Each Phi_d
    is monic, so the division runs in integers.

    >>> cyclotomic_poly(4)
    (1, 0, 1)
    >>> cyclotomic_poly(6)
    (1, -1, 1)
    """
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            div = cyclotomic_poly(d)
            deg = len(div) - 1
            # in place from the top: poly[i] is the quotient's coefficient
            # of x^(i - deg) once reached, and the remainder is left below
            for i in range(len(poly) - 1, deg - 1, -1):
                for j, p in enumerate(div[:-1]):
                    poly[i - deg + j] -= poly[i] * p
            if any(poly[:deg]):
                raise ArithmeticError("non-exact cyclotomic division")
            poly = poly[deg:]
    return tuple(poly)


@lru_cache(maxsize=32)
def _zeta_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """zeta_n^j reduced mod Phi_n for 0 <= j < n, each row as its nonzero
    (coordinate, integer) pairs, built by zeta^j = zeta zeta^(j-1) with
    zeta^phi(n) = -(Phi_n - x^phi(n)): Phi_n is monic."""
    deg = euler_phi(n)
    top = [-c for c in cyclotomic_poly(n)[:deg]]
    cur = [1] + [0] * (deg - 1)
    rows = []
    for _ in range(n):
        rows.append(tuple((i, r) for i, r in enumerate(cur) if r))
        lead, cur = cur[-1], [0] + cur[:-1]
        if lead:
            cur = [s + lead * t for s, t in zip(cur, top)]
    return tuple(rows)


def _reduce_vector(conductor: int, raw: Sequence[int]) -> tuple[int, ...]:
    """Fold the integer vector raw mod x^conductor - 1, then reduce mod
    Phi_conductor."""
    deg = euler_phi(conductor)
    folded = [0] * conductor
    for j, c in enumerate(raw):
        if c:
            folded[j % conductor] += c
    rows = _zeta_rows(conductor)
    out = folded[:deg]
    for j in range(deg, conductor):
        c = folded[j]
        if c:
            for i, r in rows[j]:
                out[i] += c * r
    return tuple(out)


def _multiplier(conductor: int, vec: Sequence[int]) -> list[list[int]]:
    """Rows of the integer matrix of multiplication by the integer vector
    vec on the power basis: entry [p][i] is coordinate p of vec zeta^i."""
    cols = [_reduce_vector(conductor, [0] * i + list(vec))
            for i in range(euler_phi(conductor))]
    return [list(row) for row in zip(*cols)]


def _norm_inverse(conductor: int, vec: Sequence[int]) -> tuple[list[int], int]:
    """(w, d) with vec w = d for a nonzero integer vector vec, d > 0: the
    inverse of vec is w / d.

    w = +-prod sigma_s(vec) over the units s != 1 mod the conductor,
    sigma_s mapping zeta to zeta^s, so d = +-N(vec), the norm: a rational
    integer, nonzero because vec is.  A rational vec needs no conjugate:
    there w = +-1 and d = |vec|.
    """
    w = [1] + [0] * (len(vec) - 1)
    if any(vec[1:]):
        for s in range(2, conductor):
            if gcd(s, conductor) == 1:
                conj = [0] * conductor
                for i, x in enumerate(vec):
                    conj[s * i % conductor] += x
                w = _times(conductor, w, conj)
    d = _times(conductor, vec, w)[0]
    return ([-x for x in w], -d) if d < 0 else (w, d)


def _times(conductor: int, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """The product of two integer vectors of powers of zeta, reduced."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                conv[i + j] += x * y
    return _reduce_vector(conductor, conv)


class Cyclotomic:
    """An element of Q(zeta_conductor) on the reduced power basis, stored
    as a positive denominator `den` and the integer tuple `vec` of den
    times its phi(conductor) coordinates, in lowest terms: gcd(den, every
    entry) = 1, so two elements are equal iff their fields are.  `coeffs`
    reads the coordinates as Fractions.  Immutable by convention.

    >>> x = Cyclotomic(6, (Fraction(1, 2), Fraction(1, 3)))
    >>> x.den, x.vec
    (6, (3, 2))
    """

    __slots__ = ("conductor", "den", "vec")

    def __init__(self, conductor: int, coeffs: Sequence[Scalar]):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        if len(coeffs) != euler_phi(conductor):
            raise ValueError("coefficient vector has wrong length")
        x = cyclo_reduce(conductor, coeffs)
        self.conductor, self.den, self.vec = conductor, x.den, x.vec

    @staticmethod
    def _of(conductor: int, den: int, vec: Sequence[int]) -> Cyclotomic:
        """The element vec / den, for den > 0 and an integer vector of
        length phi(conductor): divides out gcd(den, every entry)."""
        g = gcd(den, *vec)
        if g > 1:
            den //= g
            vec = [x // g for x in vec]
        out = Cyclotomic.__new__(Cyclotomic)
        out.conductor, out.den, out.vec = conductor, den, tuple(vec)
        return out

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates on the power basis as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.vec)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(conductor: int) -> Cyclotomic:
        return Cyclotomic.from_rational(conductor, 0)

    @staticmethod
    def one(conductor: int) -> Cyclotomic:
        return Cyclotomic.from_rational(conductor, 1)

    @staticmethod
    def zeta(conductor: int, power: int = 1) -> Cyclotomic:
        return cyclo_reduce(conductor, {power % conductor: 1})

    @staticmethod
    def from_rational(conductor: int, value: Scalar) -> Cyclotomic:
        f = Fraction(value)
        return Cyclotomic._of(conductor, f.denominator,
                              (f.numerator,) + (0,) * (euler_phi(conductor) - 1))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.vec)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.vec[1:])

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
        den = lcm(self.den, o.den)
        a, b = den // self.den, den // o.den
        return Cyclotomic._of(self.conductor, den,
                              [a * x + b * y for x, y in zip(self.vec, o.vec)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._of(self.conductor, self.den, [-x for x in self.vec])

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # `_times` skips the zero entries of its first factor, which are
        # all but one for a rational factor
        return Cyclotomic._of(self.conductor, self.den * o.den,
                              _times(self.conductor, o.vec, self.vec))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, other)  # raises ZeroDivisionError at 0
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
            return self.is_rational() and Fraction(self.vec[0], self.den) == other
        if isinstance(other, Cyclotomic):
            return (self.conductor == other.conductor and self.den == other.den
                    and self.vec == other.vec)
        return NotImplemented

    def __hash__(self):
        # a rational element equals, so hashes as, the Fraction it is
        if self.is_rational():
            return hash(Fraction(self.vec[0], self.den))
        return hash((self.conductor, self.den, self.vec))

    # -- display -----------------------------------------------------------

    def to_string(self) -> str:
        parts = []
        for j, x in enumerate(self.vec):
            g = gcd(x, self.den)
            body = f"{x // g}/{self.den // g}"
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
    {power: coefficient} mapping of rationals, reducing mod
    Phi_conductor: the denominators are cleared first, and the integers
    reduced."""
    terms = [(j, Fraction(c))
             for j, c in (raw.items() if isinstance(raw, dict) else enumerate(raw))
             if c]
    den = lcm(*(c.denominator for _, c in terms))
    dense = [0] * conductor
    for j, c in terms:
        dense[j % conductor] += c.numerator * (den // c.denominator)
    return Cyclotomic._of(conductor, den, _reduce_vector(conductor, dense))


def cyclo_invert(x: Cyclotomic) -> Cyclotomic:
    """Multiplicative inverse; raises ZeroDivisionError at zero.

    x = vec / den, and vec w = d (`_norm_inverse`), so 1/x = den w / d.
    """
    if x.is_zero():
        raise ZeroDivisionError("zero has no inverse in Q(zeta)")
    w, d = _norm_inverse(x.conductor, x.vec)
    return Cyclotomic._of(x.conductor, d, [x.den * c for c in w])


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
