"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

zeta_N means e^{2 pi i / N}.  An element is a vector of rationals on the
power basis 1, zeta, ..., zeta^{phi(N)-1}, reduced modulo the N-th
cyclotomic polynomial, and stored as one denominator and an integer
vector, as a `QSeries` coefficient is, so that the ring operations run in
integers.  Inversion and the numeric embedding read Fraction coordinates.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
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


@lru_cache(maxsize=32)
def _zeta_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """zeta_n^j reduced mod Phi_n for 0 <= j < n, each row as its nonzero
    (coordinate, integer) pairs: a unit pair below phi(n), then the rows
    of `_power_table`."""
    deg = euler_phi(n)
    return tuple(((j, 1),) for j in range(deg)) + tuple(
        tuple((i, r) for i, r in enumerate(row) if r) for row in _power_table(n))


def _reduce_vector(conductor: int, raw: Sequence[int]) -> tuple[int, ...]:
    """Fold the integer vector raw mod x^conductor - 1, then reduce mod
    Phi_conductor."""
    deg = euler_phi(conductor)
    folded = [0] * conductor
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
        return hash((self.conductor, self.den, self.vec))

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
