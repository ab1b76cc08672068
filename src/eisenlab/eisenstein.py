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

import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import comb, gcd, lcm
from operator import mul

from .cyclotomic import (Cyclotomic, _multiplier, _reduce_vector, _times,
                         _zeta_rows, euler_phi, prime_divisors)
from .value import Value, _setattr


class InvalidIndex(ValueError):
    """Torsion index outside its level, or a weight below 1."""


class NotDivisible(ValueError):
    """A rescale target is not a multiple of the current denominator."""


def pm_representative(weight: int, level: int, c1: int, c2: int) -> tuple:
    """(sign, r1, r2) with E_{k,(c1,c2)} = sign * E_{k,(r1,r2)}, k = weight
    and c1, c2 reduced mod level: (r1, r2) is the one of {v, -v} first in
    (c1, c2) order, as E_{k,-v} = (-1)^k E_{k,v}, and sign is 0 at odd k
    with v = -v, where the series is its own negative."""
    n1, n2 = -c1 % level, -c2 % level
    if (n1, n2) < (c1, c2):
        return (-1 if weight % 2 else 1), n1, n2
    return (0 if (n1, n2) == (c1, c2) and weight % 2 else 1), c1, c2


class EisIndex(Value):
    """Weight plus a level-N torsion index, stored reduced mod N."""

    __slots__ = ("weight", "level", "c1", "c2")

    def __init__(self, weight: int, level: int, c1: int, c2: int):
        if weight < 1:
            raise InvalidIndex(f"weight must be >= 1, got {weight}")
        if level < 1:
            raise InvalidIndex(f"level must be >= 1, got {level}")
        _setattr(self, "weight", weight)
        _setattr(self, "level", level)
        _setattr(self, "c1", c1 % level)
        _setattr(self, "c2", c2 % level)

    def negate(self) -> EisIndex:
        return EisIndex(self.weight, self.level, -self.c1, -self.c2)

    def representative(self) -> tuple[int, EisIndex]:
        """(sign, first) with E_self = sign * E_first, by `pm_representative`.

        >>> EisIndex(3, 5, 4, 3).representative()
        (-1, EisIndex(weight=3, level=5, c1=1, c2=2))
        >>> EisIndex(3, 4, 2, 0).representative()[0]
        0
        """
        sign, c1, c2 = pm_representative(self.weight, self.level, self.c1,
                                         self.c2)
        return sign, EisIndex(self.weight, self.level, c1, c2)

    def s_transform(self) -> EisIndex:
        return EisIndex(self.weight, self.level, self.c2, -self.c1)


class QSeries:
    """Truncated q_N-expansion with coefficients in Q(zeta_level).

    Stored as one positive denominator `den` and `vecs`, which maps each
    exponent with a nonzero coefficient to the integer vector den times
    that coefficient on the power basis, a tuple of length phi(level).
    The pair is kept in lowest terms, gcd(den, every entry) = 1, so two
    series are equal iff their fields are.  Sums, scalings, theta and
    products run on these integers; `coeffs` and `coeff` read the
    coefficients back as `Cyclotomic`.  Immutable by convention.
    """

    __slots__ = ("level", "truncation", "den", "vecs")

    def __init__(self, level: int, truncation: int, coeffs: dict[int, Cyclotomic] | None = None):
        if truncation < 0:
            raise ValueError("truncation must be >= 0")
        clean: dict[int, Cyclotomic] = {}
        if coeffs:
            for n, c in coeffs.items():
                if n < 0:
                    raise ValueError("negative exponent in q-expansion")
                if n > truncation or c.is_zero():
                    continue
                if c.conductor != level:
                    raise ValueError("coefficient conductor must equal level")
                clean[n] = c
        self.level = level
        self.truncation = truncation
        self.den, self.vecs = _integral(clean)

    @staticmethod
    def _of(level: int, truncation: int, den: int,
            vecs: dict[int, tuple[int, ...]]) -> QSeries:
        """The series vecs / den, for den > 0 and integer tuples at
        exponents up to the truncation: drops the zero vectors and divides
        out gcd(den, every entry)."""
        vecs = {e: v for e, v in vecs.items() if any(v)}
        g = den
        for v in vecs.values():
            if g == 1:
                break
            g = gcd(g, *v)
        if g > 1:
            den //= g
            vecs = {e: tuple(x // g for x in v) for e, v in vecs.items()}
        out = QSeries.__new__(QSeries)
        out.level, out.truncation, out.den, out.vecs = level, truncation, den, vecs
        return out

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

    @property
    def coeffs(self) -> dict[int, Cyclotomic]:
        """The nonzero coefficients as `Cyclotomic`, built anew on every
        read: read the view once, not once per exponent."""
        return {n: self.coeff(n) for n in self.vecs}

    def coeff(self, n: int) -> Cyclotomic:
        v = self.vecs.get(n)
        if v is None:
            return Cyclotomic.zero(self.level)
        return Cyclotomic._of(self.level, self.den, v)

    def is_zero(self) -> bool:
        return not self.vecs

    def nonzero_exponents(self) -> list[int]:
        return sorted(self.vecs)

    def _check(self, other: QSeries):
        if self.level != other.level or self.truncation != other.truncation:
            raise ValueError("level/truncation mismatch")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: QSeries) -> QSeries:
        """The sum over the lcm of the two denominators."""
        self._check(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = ({e: tuple(a * x for x in v) for e, v in self.vecs.items()}
               if a > 1 else dict(self.vecs))
        for e, w in other.vecs.items():
            v = out.get(e)
            out[e] = (tuple(b * y for y in w) if v is None
                      else tuple(x + b * y for x, y in zip(v, w)))
        return QSeries._of(self.level, self.truncation, den, out)

    def scale(self, factor) -> QSeries:
        """factor times the series, for a rational factor or one in
        Q(zeta_level), c = C / d: C scales every vector by its integer
        matrix (`cyclotomic._multiplier`)."""
        if not isinstance(factor, Cyclotomic):
            factor = Cyclotomic.from_rational(self.level, factor)
        elif factor.conductor != self.level:
            raise ValueError("scale conductor must equal level")
        rows = _multiplier(self.level, factor.vec)
        return QSeries._of(
            self.level, self.truncation, self.den * factor.den,
            {e: tuple(sum(map(mul, row, v)) for row in rows)
             for e, v in self.vecs.items()})

    def __mul__(self, other: QSeries) -> QSeries:
        """Product to the common bound B, as one big-integer multiply
        (Kronecker substitution).

        Layout.  self = A/da and other = C/dc with the stored
        denominators da = self.den, dc = other.den and the stored integer
        vectors A = self.vecs, C = other.vecs, each of length phi = phi(N)
        on the power basis.  Exponent e gets S = 2 phi - 1 consecutive
        slots of W bits, and self is packed as the integer
        P_A = sum A[e][i] 2^(W (e S + i)), that is A(x, y) at x = 2^W,
        y = 2^(W S).  In P_A P_C the slot s = e S + t holds
            r_s = sum over e1 + e2 = e, i + j = t of A[e1][i] C[e2][j],
        and t = i + j <= 2 phi - 2 < S keeps each exponent in its own block.

        No slot overflows.  Given e, e1 fixes e2, so at most min(#A, #C)
        exponent pairs meet (#A counts the nonzero exponents); given t, i
        fixes j, so at most phi index pairs do.  Hence
        |r_s| <= max|A| max|C| phi min(#A, #C) = M, and W = 8 `_width(M)`
        puts every r_s in (-2^(W-1), 2^(W-1)).  The factors' own entries
        fit too: |A[e][i]| <= M, because C has a nonzero integer entry.

        Decoding.  `_unpack` reads the signed digits of the (B+1) S slots
        up to exponent B; the slots above B never matter.  Each exponent's
        S digits are folded mod x^N - 1 and reduced mod Phi_N by
        `_reduce_vector`, in integers, over the denominator da dc.
        """
        self._check(other)
        n, b = self.level, self.truncation
        a, c = self.vecs, other.vecs
        if not a or not c:
            return QSeries.zero(n, b)
        phi = euler_phi(n)
        stride = 2 * phi - 1
        bound = (max(abs(x) for v in a.values() for x in v)
                 * max(abs(x) for v in c.values() for x in v)
                 * phi * min(len(a), len(c)))
        width = _width(bound)
        digits = _unpack(_pack(a, stride, width) * _pack(c, stride, width),
                         (b + 1) * stride, width)
        out = {}
        for e in range(b + 1):
            vec = digits[e * stride:(e + 1) * stride]
            if any(vec):
                out[e] = _reduce_vector(n, vec)
        return QSeries._of(n, b, self.den * other.den, out)

    def theta(self) -> QSeries:
        """(2 pi i)^{-1} d/dz: multiplies the q_N^n coefficient by n/N."""
        return QSeries._of(self.level, self.truncation, self.den * self.level,
                           {e: tuple(e * x for x in v) for e, v in self.vecs.items()})

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.level == other.level
            and self.truncation == other.truncation
            and self.den == other.den
            and self.vecs == other.vecs
        )

    def __repr__(self):
        head = ", ".join(
            f"q^{n}:{self.coeff(n).to_string()}" for n in self.nonzero_exponents()[:4]
        )
        return f"QSeries(N={self.level}, B={self.truncation}, {head}...)"


def _integral(coeffs: dict) -> tuple[int, dict[int, tuple[int, ...]]]:
    """(d, {key: d * coefficient}) for `Cyclotomic`s, d the lcm of their
    denominators.  The pair is in lowest terms: a prime power exactly
    dividing d exactly divides some coefficient's denominator, and that
    coefficient has an entry prime to it."""
    d = lcm(*(c.den for c in coeffs.values()))
    return d, {e: tuple(x * (d // c.den) for x in c.vec)
               for e, c in coeffs.items()}


def _pack(vectors: dict[int, list[int]], stride: int, width: int) -> int:
    """sum v[e][i] 2^(8 width (e stride + i)) for |v[e][i]| < 2^(8 width)."""
    size = (max(vectors) + 1) * stride * width
    pos, neg = bytearray(size), bytearray(size)
    for e, vec in vectors.items():
        for i, x in enumerate(vec):
            at = (e * stride + i) * width
            if x > 0:
                pos[at:at + width] = x.to_bytes(width, "little")
            elif x < 0:
                neg[at:at + width] = (-x).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


# array typecodes of the signed machine integers, by size in bytes
_MACHINE = {1: "b", 2: "h", 4: "i", 8: "q"}


def _width(bound: int) -> int:
    """Bytes per slot for signed digits of absolute value <= bound: the
    least w with 2^(8 w - 1) > bound, rounded up to 2, 4 or 8 when it is
    below 8, the sizes that `_unpack` reads as machine integers."""
    width = bound.bit_length() // 8 + 1
    return width if width > 8 else next(w for w in (1, 2, 4, 8) if w >= width)


def _unpack(packed: int, slots: int, width: int) -> list[int]:
    """The signed digits r_0, ..., r_{slots-1} of
    packed = sum_{s < slots} r_s 2^(W s) + 2^(W slots) H, W = 8 width,
    given |r_s| < 2^(W-1) for every s < slots.

    Adding 2^(W-1) to each of these slots turns their part into
    sum (r_s + 2^(W-1)) 2^(W s), every digit in (0, 2^W), a number in
    [0, 2^(W slots)).  So the low W slots bits of the biased integer are
    exactly these digits side by side: no borrow crosses a slot, and H
    never matters.  Flipping the top bit of each digit then leaves r_s in
    two's complement, which a 1-, 2-, 4- or 8-byte slot reads as one
    machine integer.
    """
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    raw = (((packed + bias) & ((1 << (8 * width * slots)) - 1)) ^ bias).to_bytes(
        width * slots, "little")
    if width in _MACHINE:
        digits = array(_MACHINE[width], raw)
        if sys.byteorder == "big":
            digits.byteswap()
        return digits.tolist()
    return [int.from_bytes(raw[at:at + width], "little", signed=True)
            for at in range(0, width * slots, width)]


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


def index_mu(n: int) -> int:
    """Index of the level-n principal congruence subgroup in PSL2(Z)."""
    if n == 1:
        return 1
    if n == 2:
        return 6
    mu = n ** 3
    for p in prime_divisors(n):
        mu = mu // (p * p) * (p * p - 1)
    return mu // 2


def sturm_truncation(k: int, n: int) -> int:
    """The default truncation of weight-k claims at level n,
    n (ceil(k mu / 12) + 1) with mu = index_mu(n).  It is more than n
    times `proven_truncation`, the bound that certifies.  It stays the
    default because the warm-up of `perfbench/child.py` calls it by
    name, and because a faster default fits more claims into a timed
    `sweep_warm` run, whose worker keeps every outcome, so its peak
    memory would rise.  Measured with this function returning
    `proven_truncation` (2-core Xeon VM, two 30 s runs each):
    `claims_cold` 33.0 -> 18.1 ref at 18.5 MB either way, `sweep_warm`
    234 -> 68 ref but 26 -> 43 MB.

    >>> sturm_truncation(3, 10), proven_truncation(3, 10)
    (910, 90)
    """
    mu = index_mu(n)
    return n * (-(-k * mu // 12) + 1)


def proven_truncation(k: int, n: int) -> int:
    """floor(k mu / 12), mu = index_mu(n): the least truncation B that
    proves weight-k identities at level n.  B covers the q_n-exponents
    0..B, ends included, so a form vanishing there has q_n-order above
    k mu / 12, and it is 0 in each of three cases.

    Holomorphic, f in M_k(Gamma(n)).  Take one gamma per coset of
    {+-1} Gamma(n) in SL2(Z), mu of them.  For even k, f|(-gamma) =
    f|gamma, so the norm F = prod f|gamma is a level-1 form of weight
    k mu (slashing permutes the cosets); for n <= 2, -1 is in Gamma(n)
    and odd k gives f = 0.  For odd k and n >= 3, f|(-gamma) = -f|gamma,
    so F is invariant up to sign and F^2 is a level-1 form of weight
    2 k mu.  The n cosets of T^j, 0 <= j < n, fix infinity, and each
    f|T^j has q-order ord_{q_n}(f) / n, so together ord_{q_n}(f); the
    other factors are holomorphic at infinity.  So ord_q F > k mu / 12
    and ord_q F^2 > 2 k mu / 12, beyond the valence bound K / 12 of a
    nonzero level-1 form of weight K (Sturm, LNM 1240, 1987): F = 0, so
    f = 0.

    Nearly holomorphic, F = sum_{j <= d} h_j Y^j, Y = 1/(4 pi y).  As
    Y(gamma z) = (cz+d)^2 Y(z) + c (cz+d) / (2 pi i), the Y^d component
    of F|gamma is h_d|gamma in weight k - 2d, so h_d is a form of that
    weight, whose bound is at most B: h_d = 0 (weight 0: a constant with
    q^0 coefficient 0; below 0 there is no nonzero form).  The components
    vanish one at a time from the top down.  Products of Eisenstein
    series and delta(E) are such forms: delta commutes with slashing.

    The weight-2 completion.  F - sum c_v E_{2,v} is nearly holomorphic
    of weight 2 and depth <= 1, with a constant Y-component, so the
    nearly holomorphic case covers it.

    >>> proven_truncation(2, 5), proven_truncation(3, 10)
    (10, 90)
    """
    return k * index_mu(n) // 12


@lru_cache(maxsize=32)
def cusps(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """One matrix (a, b, c, d) of SL2(Z) per cusp of Gamma(n), the
    identity first.

    gamma maps infinity to a/c, and cusps a/c, a'/c' in lowest terms are
    Gamma(n)-equivalent iff (a', c') = +-(a, c) mod n (Diamond and
    Shurman, Prop. 3.8.3): the cusps are the +- classes of pairs (a, c)
    mod n with gcd(a, c, n) = 1.  A class lifts to c, or n for c = 0,
    and the first a + t n prime to it (a prime dividing c and n does not
    divide a); d = a^{-1} mod c and b = (a d - 1) / c complete it.
    """
    out = [(1, 0, 0, 1)]
    seen = {(1 % n, 0), (-1 % n, 0)}
    for c in range(n):
        for a in range(n):
            if (a, c) in seen or gcd(a, c, n) != 1:
                continue
            seen |= {(a, c), (-a % n, -c % n)}
            lc = c or n
            la = next(x for x in count(a, n) if gcd(x, lc) == 1)
            d = pow(la, -1, lc)
            out.append((la, (la * d - 1) // lc, lc, d))
    return tuple(out)


@lru_cache(maxsize=4096)
def constant_term(idx: EisIndex) -> Cyclotomic:
    """Constant Fourier coefficient of the normalized series, in Q(zeta_N).

    For c1 = 0 it is -(-1)^k N^{k-1}/k sum_{a mod N} zeta^{-a c2} Bbar_k(a/N):
    the Fourier series Bbar_k(x) = -k!/(2 pi i)^k sum_{m != 0} e^{2 pi i m x}/m^k
    turns the horizontal row sum over m = c2 mod N of m^{-k}, times the
    normalization (k-1)! (-2 pi i)^{-k}, into this finite sum.  It is
    summed in integers, as -(-1)^k / (k N d) sum_a zeta^{-a c2} T[a] with
    the table (d, T) of `_bernoulli_row`, and reduced once.
    """
    k, n, c1, c2 = idx.weight, idx.level, idx.c1, idx.c2
    if c1 != 0:
        if k == 1:
            # -Bbar_1(c1/N), c1/N strictly between 0 and 1
            return Cyclotomic.from_rational(n, Fraction(1, 2) - Fraction(c1, n))
        return Cyclotomic.zero(n)
    d, table = _bernoulli_row(k, n)
    raw = [0] * n
    for a, t in enumerate(table):
        raw[-a * c2 % n] += t
    sign = -(-1) ** k
    return Cyclotomic._of(n, k * n * d,
                          [sign * x for x in _reduce_vector(n, raw)])


@lru_cache(maxsize=64)
def _bernoulli_row(k: int, n: int) -> tuple[int, tuple[int, ...]]:
    """(d, T) with T[a] = d N^k Bbar_k(a/N) for 0 <= a < N, integers for d
    the lcm of the denominators of B_0, ..., B_k:
    d N^k B_k(a/N) = sum_j C(k, j) (d B_j) a^(k-j) N^j, and Bbar_1(0) = 0."""
    d = lcm(*(bernoulli(j).denominator for j in range(k + 1)))
    terms = [(comb(k, j) * int(d * bernoulli(j)), k - j, n ** j)
             for j in range(k + 1)]
    table = [sum(c * a ** e * m for c, e, m in terms) for a in range(n)]
    if k == 1:
        table[0] = 0
    return d, tuple(table)


def eis_qseries(idx: EisIndex, truncation: int) -> QSeries:
    """Holomorphic part of the normalized Eisenstein series E_idx to the
    given q_N-exponent bound: `eis_sum` of the one member idx.  The
    weight-2 completion adds 1/(4 pi y) outside."""
    return eis_sum({idx: 1}, idx.weight, idx.level, truncation)


def eis_sum(coefficients: dict, weight: int, level: int,
            truncation: int) -> QSeries:
    """Holomorphic part of sum c_v E_{k,v} over the coefficients {v: c_v},
    each rational or in Q(zeta_N), to the given q_N-exponent bound.  The
    weight-2 completion adds (sum c_v) / (4 pi y) outside.

    The sum is the Eisenstein series of the function v -> c_v on
    (Z/N)^2.  Gathering the row terms of the module docstring by the
    integer a = |row slope| N makes its q_N^e coefficient one divisor sum,
        sum over e = a m, a, m >= 1, of m^{k-1} G(a mod N, m mod N),
        G(alpha, mu) = sum_{c1 = alpha} c_v zeta^{mu c2}
                       + (-1)^k sum_{c1 = -alpha} c_v zeta^{-mu c2}.
    It runs in integers over one denominator d L: d the lcm of the
    stored denominators of the c_v, L that of their constant terms.  The
    vectors d L G(alpha, mu) are read from the reduced rows of zeta^j
    (`cyclotomic._zeta_rows`), and the constant sum c_v c0(v) sits at
    exponent 0, which no row term reaches.

    A +- pair cancels at odd weight and doubles at even weight:

    >>> v, w = EisIndex(3, 5, 1, 2), EisIndex(3, 5, 4, 3)
    >>> eis_sum({v: 1, w: 1}, 3, 5, 20).is_zero()
    True
    >>> v, w = EisIndex(2, 5, 1, 2), EisIndex(2, 5, 4, 3)
    >>> eis_sum({v: 1, w: 1}, 2, 5, 20) == eis_qseries(v, 20).scale(2)
    True
    """
    k, n, b = weight, level, truncation
    if b < 0:
        raise ValueError("truncation must be >= 0")
    members = []  # (index, c_v, c0(v))
    for idx, c in coefficients.items():
        if idx.weight != k or idx.level != n:
            raise ValueError("index outside the given weight and level")
        if not isinstance(c, Cyclotomic):
            c = Cyclotomic.from_rational(n, c)
        elif c.conductor != n:
            raise ValueError("coefficient conductor must equal level")
        members.append((idx, c, constant_term(idx)))
    den = lcm(*(c.den for _, c, _ in members))
    scale = lcm(*(c0.den for _, _, c0 in members))
    rows, phi, sign = _zeta_rows(n), euler_phi(n), (-1) ** k
    const = [0] * phi
    parts: dict[int, list] = {}  # alpha -> [(step, pairs of d L c_v)]
    for idx, c, c0 in members:
        vec = [x * (den // c.den) for x in c.vec]
        if c0:
            for i, x in enumerate(_times(n, vec, c0.vec)):
                const[i] += scale // c0.den * x
        pairs = [(i, scale * x) for i, x in enumerate(vec) if x]
        parts.setdefault(idx.c1, []).append((idx.c2, pairs))
        parts.setdefault(-idx.c1 % n, []).append(
            (-idx.c2, [(i, sign * x) for i, x in pairs]))
    vecs = {0: const}
    for alpha, terms_of in parts.items():
        start = alpha or n
        count = b // start
        # the row terms of m: m^{k-1} d L G(alpha, m mod N)
        g = [_fold(terms_of, mu, rows, phi, n)
             for mu in range(min(n, count + 1))]
        terms = [tuple((p, m ** (k - 1) * x) for p, x in g[m % n])
                 for m in range(1, count + 1)]
        for a in range(start, b + 1, n):
            for e, term in zip(range(a, b + 1, a), terms):
                vec = vecs.get(e)
                if vec is None:
                    vec = vecs[e] = [0] * phi
                for p, x in term:
                    vec[p] += x
    return QSeries._of(n, b, den * scale,
                       {e: tuple(v) for e, v in vecs.items()})


def _fold(terms_of, mu: int, rows, phi: int, n: int) -> tuple:
    """sum x zeta^(i + mu step) over the (step, pairs) of terms_of and the
    (i, x) of each pairs, reduced, as its nonzero (coordinate, integer)
    pairs."""
    acc = [0] * phi
    for step, pairs in terms_of:
        for i, x in pairs:
            for p, r in rows[(i + mu * step) % n]:
                acc[p] += x * r
    return tuple((p, x) for p, x in enumerate(acc) if x)
