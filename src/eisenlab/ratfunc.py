"""Exact multivariate polynomials and rational functions in p, q, A, B
over Q, and the six denominator-kernel identities used by the product
relations.

The linear constraints are eliminated up front: r stands for -p-q and C
for -A-B, so every expression lives in the free polynomial ring on the
remaining four variables.  K16, K24 and K33 are proved as polynomial
identities: the difference of their two sides times a known nonzero
denominator.  K23, K32 and K34 are normalized as `RatFunc`s, whose
normal form has coprime numerator and denominator with integer primitive
coefficients, and a denominator whose leading coefficient (lexicographic
term order, p most significant) is positive.
"""
from __future__ import annotations

from collections.abc import Callable, Mapping
from fractions import Fraction
from math import gcd as int_gcd
from math import lcm
from operator import sub

from .hull import HullChain, hull_chain

KERNEL_IDS = ("K16", "K23", "K24", "K32", "K33", "K34")
VARS = ("p", "q", "A", "B")
_NVARS = 4
_ZERO_EXP = (0, 0, 0, 0)


class ZeroDenominator(ArithmeticError):
    """A denominator normalized to the zero polynomial."""


class UnknownIdentity(ValueError):
    """check_kernel received an identity id it does not know."""


Exponent = tuple[int, int, int, int]
# exponent -> nonzero integer coefficient
Ints = dict[Exponent, int]


class MultiPoly:
    """Polynomial in p, q, A, B over Q.

    Stored as one positive denominator `den` and `ints`, which maps each
    exponent vector with a nonzero coefficient to den times that
    coefficient, an integer.  The pair is kept in lowest terms,
    gcd(den, every coefficient) = 1, so two polynomials are equal iff
    their fields are.  Arithmetic and the gcd run on these integers;
    `terms` and `substitute` read Fractions back.  Immutable by
    convention.
    """

    __slots__ = ("den", "ints")

    def __init__(self, terms: Mapping[Exponent, Fraction] | None = None):
        # in lowest terms: a prime power exactly dividing the lcm exactly
        # divides some denominator, and that scaled numerator is prime to it
        fracs = {e: Fraction(c) for e, c in terms.items() if c} if terms else {}
        self.den = lcm(*(c.denominator for c in fracs.values()))
        self.ints = {e: c.numerator * (self.den // c.denominator)
                     for e, c in fracs.items()}

    @staticmethod
    def _of(den: int, ints: Ints) -> MultiPoly:
        """ints / den for den != 0, in lowest terms with den > 0."""
        g = int_gcd(den, *ints.values()) * (-1 if den < 0 else 1)
        if g != 1:
            den //= g
            ints = {e: c // g for e, c in ints.items()}
        out = MultiPoly.__new__(MultiPoly)
        out.den, out.ints = den, ints
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value) -> MultiPoly:
        return MultiPoly({_ZERO_EXP: value})

    @staticmethod
    def variable(name: str) -> MultiPoly:
        i = VARS.index(name)
        e = [0, 0, 0, 0]
        e[i] = 1
        return MultiPoly({tuple(e): Fraction(1)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.ints

    def is_constant(self) -> bool:
        return not self.ints or _is_const(self.ints)

    def __bool__(self):
        return bool(self.ints)

    def __eq__(self, other):
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.ints == o.ints

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """The coefficients as Fractions, a new dict on every read."""
        return {e: Fraction(c, self.den) for e, c in self.ints.items()}

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other, sign: int = 1):
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        den = lcm(self.den, o.den)
        m = den // self.den
        out = {e: c * m for e, c in self.ints.items()} if m != 1 else dict(self.ints)
        _acc(out, o.ints, sign * (den // o.den))
        return MultiPoly._of(den, out)

    __radd__ = __add__

    def __neg__(self):
        res = MultiPoly.__new__(MultiPoly)
        res.den, res.ints = self.den, {e: -c for e, c in self.ints.items()}
        return res

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __mul__(self, other):
        o = _as_poly(other)
        if o is None:
            return NotImplemented
        return MultiPoly._of(self.den * o.den, _mul(self.ints, o.ints))

    __rmul__ = __mul__

    # -- evaluation and display -------------------------------------------

    def substitute(self, values: Mapping[str, Fraction]) -> Fraction:
        total = Fraction(0)
        vals = [Fraction(values[v]) for v in VARS]
        for e, c in self.terms.items():
            term = c
            for i in range(_NVARS):
                if e[i]:
                    term *= vals[i] ** e[i]
            total += term
        return total

    def __str__(self):
        if not self.ints:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            factors = []
            for name, k in zip(VARS, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    __repr__ = __str__


def _as_poly(other) -> MultiPoly | None:
    if isinstance(other, (int, Fraction)):
        return MultiPoly.constant(other)
    return other if isinstance(other, MultiPoly) else None


# -- integer polynomials ---------------------------------------------------
# The gcd machinery runs on bare `Ints`.  f is primitive when its
# coefficients have gcd 1; by Gauss's lemma content(fg) = content(f)content(g).

_ONE: Ints = {_ZERO_EXP: 1}


def _is_const(f: Ints) -> bool:
    return len(f) == 1 and _ZERO_EXP in f


def _degree(f: Ints, var: int) -> int:
    return max(e[var] for e in f)


def _active(f: Ints) -> tuple[int, ...]:
    """Indices of the variables that occur in f."""
    return tuple(i for i, col in enumerate(zip(*f)) if any(col))


def _mul(f: Ints, g: Ints) -> Ints:
    out: Ints = {}
    get = out.get
    for (a0, a1, a2, a3), x in f.items():
        for (b0, b1, b2, b3), y in g.items():
            e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            out[e] = get(e, 0) + x * y
    return {e: c for e, c in out.items() if c}


def _acc(out: Ints, g: Ints, m: int, shift: Exponent = _ZERO_EXP) -> None:
    """out += m * x^shift * g in place, for m != 0."""
    s0, s1, s2, s3 = shift
    for (e0, e1, e2, e3), c in g.items():
        e = (e0 + s0, e1 + s1, e2 + s2, e3 + s3)
        s = out.get(e, 0) + m * c
        if s:
            out[e] = s
        else:
            del out[e]


def _unit_content(f: Ints) -> int:
    """The content of nonzero f, signed like its leading coefficient, so
    that f divided by it is primitive with a positive leading coefficient."""
    g = int_gcd(*f.values())
    return -g if f[max(f)] < 0 else g


def _primitive(f: Ints) -> Ints:
    g = _unit_content(f) if f else 1
    return f if g == 1 else {e: c // g for e, c in f.items()}


def _div(f: Ints, g: Ints) -> Ints:
    """The quotient f/g for integer f and primitive g.

    If g divides f, the quotient h is integral by Gauss's lemma, and each
    step of the leading-term division peels off the leading term of what
    is left of h.  So a leading term that g's does not divide, in
    coefficient or exponent, proves g does not divide f: ArithmeticError.
    """
    ge = max(g)
    gc = g[ge]
    rem = dict(f)
    out: Ints = {}
    while rem:
        re = max(rem)
        qe = tuple(map(sub, re, ge))
        qc, r = divmod(rem[re], gc)
        if r or min(qe) < 0:
            raise ArithmeticError("non-exact polynomial division")
        out[qe] = qc
        _acc(rem, g, -qc, qe)
    return out


def divide_exact(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact polynomial quotient f/g; raises if g does not divide f.

    Divides f's integers by the primitive part of g's, then applies g's
    content and both denominators once."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    c = int_gcd(*g.ints.values())
    prim = g.ints if c == 1 else {e: x // c for e, x in g.ints.items()}
    quotient = _div(f.ints, prim)
    if g.den != 1:
        quotient = {e: x * g.den for e, x in quotient.items()}
    return MultiPoly._of(f.den * c, quotient)


def _strip(f: Ints) -> tuple[Exponent, Ints]:
    """Factor out the largest monomial dividing every term."""
    low = tuple(map(min, zip(*f)))
    if any(low):
        f = {tuple(map(sub, e, low)): c for e, c in f.items()}
    return low, f


def _parts(f: Ints, var: int) -> dict[int, Ints]:
    """f as a polynomial in var: {power: coefficient, free of var}."""
    parts: dict[int, Ints] = {}
    for e, c in f.items():
        parts.setdefault(e[var], {})[e[:var] + (0,) + e[var + 1:]] = c
    return parts


def _pseudo_rem(f: Ints, g: Ints, var: int) -> Ints:
    """lc(g)^j times the remainder of f by g in var, for some j >= 0:
    while deg rem >= deg g, rem <- lc(g) rem - lc(rem) var^(dr-dg) g."""
    gp = _parts(g, var)
    dg = max(gp)
    rem = f
    while rem:
        rp = _parts(rem, var)
        dr = max(rp)
        if dr < dg:
            break
        rem = _mul(rem, gp[dg])
        for e, c in rp[dr].items():
            _acc(rem, g, -c, e[:var] + (dr - dg,) + e[var + 1:])
    return rem


def _content_in(f: Ints, var: int) -> Ints:
    """gcd of the coefficients of f as a polynomial in var: primitive,
    with a positive leading coefficient."""
    cont: Ints = {}
    for part in _parts(f, var).values():
        cont = _gcd(cont, part)
        if _is_const(cont):
            break
    return cont


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Gcd over Q[p,q,A,B], integer-primitive with positive leading
    coefficient (0 when both are 0).  Recursive content/primitive-part
    with a primitive pseudo-remainder sequence in the last active
    variable (Knuth, TAOCP vol. 2, 4.6.1; Geddes, Czapor and Labahn,
    Algorithms for Computer Algebra, ch. 7), run on the integers of f
    and g: their denominators are units over Q.

    Two shortcuts return 1 before any division, after the zero cases:
    - f or g is a nonzero constant, a unit over Q;
    - f and g share no variable.  A divisor h of f has deg_x h <= deg_x f
      for every variable x, so vars(h) lies in vars(f) & vars(g), which
      is empty: h is a constant.
    """
    out = MultiPoly.__new__(MultiPoly)
    out.den, out.ints = 1, _gcd(f.ints, g.ints)
    return out


def _gcd(f: Ints, g: Ints) -> Ints:
    """poly_gcd on integer polynomials."""
    if not f or not g:
        return _primitive(f or g)
    if _is_const(f) or _is_const(g):
        return _ONE
    if not set(_active(f)).intersection(_active(g)):
        return _ONE
    fm, f = _strip(f)
    gm, g = _strip(g)
    core = _gcd_primitive(_primitive(f), _primitive(g))
    shared = tuple(map(min, fm, gm))
    return _mul(core, {shared: 1}) if any(shared) else core


def _gcd_primitive(f: Ints, g: Ints) -> Ints:
    """gcd of primitive f, g with positive leading coefficients and no
    monomial factor."""
    if f == g:
        return f
    fv, gv = _active(f), _active(g)
    if not fv or not gv:
        return _ONE
    var = max(fv[-1], gv[-1])
    cf, cg = _content_in(f, var), _content_in(g, var)
    a, b = _div(f, cf), _div(g, cg)
    if _degree(a, var) < _degree(b, var):
        a, b = b, a
    while True:
        r = _pseudo_rem(a, b, var)
        if not r:
            break
        a, b = b, _primitive(_div(r, _content_in(r, var)))
        if _degree(b, var) == 0:
            b = _ONE
            break
    return _mul(_gcd(cf, cg), b)


# -- rational functions ----------------------------------------------------


class RatFunc:
    """numer/denom in canonical normal form; construction normalizes.

    Normalizing runs `poly_gcd`, whose cost has no useful bound on dense
    inputs: minutes for products of dense quartics.  Only K23, K32, K34
    and users' own expressions reach it.
    """

    __slots__ = ("numer", "denom")

    def __init__(self, numer: MultiPoly, denom: MultiPoly):
        if denom.is_zero():
            raise ZeroDenominator("denominator is the zero polynomial")
        if numer.is_zero():
            self.numer = MultiPoly()
            self.denom = MultiPoly.constant(1)
            return
        g = poly_gcd(numer, denom)
        if not g.is_constant():
            numer = divide_exact(numer, g)
            denom = divide_exact(denom, g)
        # denom = (c / den) * P with P primitive, leading coefficient > 0
        c = _unit_content(denom.ints)
        self.numer = MultiPoly._of(numer.den * c,
                                   {e: x * denom.den for e, x in numer.ints.items()})
        self.denom = MultiPoly._of(1, _primitive(denom.ints))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value) -> RatFunc:
        return RatFunc(MultiPoly.constant(value), MultiPoly.constant(1))

    @staticmethod
    def var(name: str) -> RatFunc:
        if name in ("r", "C"):
            raise ValueError("r and C are eliminated; use constrained_vars()")
        return RatFunc(MultiPoly.variable(name), MultiPoly.constant(1))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.numer.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.numer == o.numer and self.denom == o.denom

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc.constant(other)
        if isinstance(other, RatFunc):
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        g = poly_gcd(self.denom, o.denom)
        da = divide_exact(self.denom, g) if not g.is_constant() else self.denom
        db = divide_exact(o.denom, g) if not g.is_constant() else o.denom
        return RatFunc(self.numer * db + o.numer * da, da * o.denom)

    __radd__ = __add__

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out.numer = -self.numer
        out.denom = self.denom
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.numer * o.numer, self.denom * o.denom)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDenominator("division by the zero rational function")
        return RatFunc(self.numer * o.denom, self.denom * o.numer)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        """self ** n by repeated squaring, none past the top bit."""
        if n < 0:
            if self.is_zero():
                raise ZeroDenominator("negative power of zero")
            return (RatFunc.constant(1) / self) ** (-n)
        result, base = RatFunc.constant(1), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- evaluation and display -------------------------------------------

    def substitute(self, values: Mapping[str, Fraction]) -> Fraction:
        den = self.denom.substitute(values)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the sample point")
        return self.numer.substitute(values) / den

    def __str__(self):
        if self.denom == MultiPoly.constant(1):
            return str(self.numer)
        return f"({self.numer})/({self.denom})"

    __repr__ = __str__


def constrained_vars() -> dict[str, RatFunc]:
    """Atoms for p, q, r, A, B, C with r = -p-q and C = -A-B eliminated.

    >>> v = constrained_vars()
    >>> str(v["A"] + v["B"] + v["C"])
    '0'
    """
    p, q = RatFunc.var("p"), RatFunc.var("q")
    a, b = RatFunc.var("A"), RatFunc.var("B")
    return {"p": p, "q": q, "r": -p - q, "A": a, "B": b, "C": -a - b}


# -- kernel identities -----------------------------------------------------

# p, q, r, A, B, C as polynomials, with r = -p-q and C = -A-B
_POLYS = {name: MultiPoly.variable(name) for name in VARS}
_POLYS.update(r=-_POLYS["p"] - _POLYS["q"], C=-_POLYS["A"] - _POLYS["B"])


def _k33_numerator(a: int, b: int, c: int, d: int, det: int) -> MultiPoly:
    """det*B - a*(cA+dB) + c*(aA+bB), the K33 difference times
    det*B*(aA+bB)*(cA+dB)."""
    A, B = _POLYS["A"], _POLYS["B"]
    return det * B - a * (c * A + d * B) + c * (a * A + b * B)


def k33_identity(a: int, b: int, c: int, d: int) -> tuple[bool, MultiPoly]:
    """Partial-fraction split of 1/((aA+bB)(cA+dB)) for det = ad - bc != 0:

        1/((aA+bB)(cA+dB)) = a/(det*B*(aA+bB)) - c/(det*B*(cA+dB)).

    Returns (holds, witness); the witness is the difference of the two
    sides times det*B*(aA+bB)*(cA+dB), a `MultiPoly`.  That denominator
    is nonzero: det != 0 leaves neither row (a, b), (c, d) zero, and
    Q[A, B] has no zero divisors.
    """
    det = a * d - b * c
    if det == 0:
        raise ZeroDenominator("ad - bc = 0 leaves no partial-fraction split")
    w = _k33_numerator(a, b, c, d, det)
    return w.is_zero(), w


def check_kernel(identity_id: str, k: int | None = None,
                 chain: HullChain | None = None
                 ) -> tuple[bool, MultiPoly | RatFunc]:
    """Prove one of the kernel identities.

    Returns (holds, witness), with a witness that is identically 0
    exactly when the identity holds.  For K16, K24 and K33 it is a
    `MultiPoly`, the difference of the two sides times a nonzero
    denominator:
    - K16, 1/(AB) + 1/(BC) + 1/(CA) = 0: A + B + C, over ABC, which is
      nonzero as a product of nonzero polynomials;
    - K24: the first nonzero of its two polynomial differences, which
      have no denominator;
    - K33: the first nonzero numerator of `k33_identity` over the chain's
      pairs.
    For K23, K32 and K34 it is the normalized difference, a `RatFunc`.
    K23/K34 need the weight k >= 2; K32/K33/K34 need a hull chain.
    """
    if identity_id == "K16":
        w = _POLYS["A"] + _POLYS["B"] + _POLYS["C"]
        return w.is_zero(), w

    if identity_id == "K24":
        p, q, r = _POLYS["p"], _POLYS["q"], _POLYS["r"]
        A, B, C = _POLYS["A"], _POLYS["B"], _POLYS["C"]
        d1 = (p * B - q * A) - (q * C - r * B)
        if not d1.is_zero():
            return False, d1
        d2 = (q * C - r * B) - (r * A - p * C)
        return d2.is_zero(), d2

    v = constrained_vars()
    p, q, A, B = v["p"], v["q"], v["A"], v["B"]

    if identity_id == "K23":
        if k is None or k < 2:
            raise ValueError("K23 needs k >= 2")
        lhs = RatFunc.constant(0)
        for ell in range(1, k):
            m = k - ell
            lhs = lhs + (p ** (ell - 1)) * (q ** (m - 1)) / (A ** ell * B ** m)
        rhs = ((p / A) ** (k - 1) - (q / B) ** (k - 1)) / (p * B - q * A)
        w = lhs - rhs
        return w.is_zero(), w

    if identity_id in ("K32", "K33", "K34"):
        if chain is None:
            raise ValueError(f"{identity_id} needs a hull chain")
        pairs = chain.pairs()
        n = chain.level

        if identity_id == "K32":
            total = RatFunc.constant(0)
            for (a1, b1), (a2, b2) in pairs:
                e1 = a1 * A + b1 * B
                e2 = a2 * A + b2 * B
                if e1.is_zero() or e2.is_zero():
                    raise ZeroDenominator("degenerate chain vector")
                total = total + 1 / (e1 * e2)
            w = total - 1 / (n * A * B)
            return w.is_zero(), w

        if identity_id == "K33":
            for (a1, b1), (a2, b2) in pairs:
                ok, w = k33_identity(a1, b1, a2, b2)
                if not ok:
                    return False, w
            return True, MultiPoly()

        # K34: one walk over the pairs.  Each pair's cross-difference
        # n1 e2 - n2 e1 must equal det (pB - qA), and it is the
        # denominator of the pair's term of the telescoping chain sum.
        if k is None or k < 2:
            raise ValueError("K34 needs k >= 2")
        total = RatFunc.constant(0)
        for (a1, b1), (a2, b2) in pairs:
            n1 = a1 * p + b1 * q
            n2 = a2 * p + b2 * q
            e1 = a1 * A + b1 * B
            e2 = a2 * A + b2 * B
            den = n1 * e2 - n2 * e1
            w = den - (a1 * b2 - a2 * b1) * (p * B - q * A)
            if not w.is_zero():
                return False, w
            if e1.is_zero() or e2.is_zero():
                raise ZeroDenominator("degenerate chain vector")
            if den.is_zero():
                raise ZeroDenominator("degenerate cross-difference")
            total = total + ((n1 / e1) ** (k - 1) - (n2 / e2) ** (k - 1)) / den
        w = total - ((p / A) ** (k - 1) - (q / B) ** (k - 1)) / (
            n * (p * B - q * A)
        )
        return w.is_zero(), w

    raise UnknownIdentity(f"unknown kernel identity {identity_id!r}")


def kernel_scope(identity_id: str, k: int | None = None,
                 chain: HullChain | None = None) -> list[tuple[str, Callable]]:
    """The instances `eisenlab symbolic` and the release gate prove.

    One (label, proof) pair per instance; proof() returns (holds,
    witness) as check_kernel does.  K16 and K24 are one instance each
    (K24 does not depend on k).  K23 runs k = 2..12, or only the given k.
    K32 and K34 run every coprime hull chain with N <= 12 (46 chains), or
    only the given chain; K34 uses k = 3 unless k is given.  K33 runs the
    given chain, or else 200 quadruples (a, b, c, d) with ad - bc != 0
    drawn from random.Random(3300).
    """
    if identity_id not in KERNEL_IDS:
        raise UnknownIdentity(f"unknown kernel identity {identity_id!r}")
    if identity_id in ("K16", "K24"):
        return [(identity_id, lambda: check_kernel(identity_id))]
    if identity_id == "K23":
        weights = range(2, 13) if k is None else [k]
        return [(f"k={w}", lambda w=w: check_kernel("K23", k=w))
                for w in weights]
    if identity_id == "K33" and chain is None:
        from random import Random
        rng = Random(3300)
        quads = []
        while len(quads) < 200:
            a, b, c, d = quad = tuple(rng.randint(-9, 9) for _ in range(4))
            if a * d - b * c:  # which also rules out a zero row
                quads.append(quad)
        return [(f"(a,b,c,d)={quad}", lambda quad=quad: k33_identity(*quad))
                for quad in quads]
    chains = [chain] if chain is not None else [
        hull_chain(n, s) for n in range(1, 13) for s in range(n)
        if int_gcd(s, n) == 1]
    weight = 3 if k is None else k
    return [(f"(N,S)=({c.level},{c.shear})",
             lambda c=c: check_kernel(identity_id, k=weight, chain=c))
            for c in chains]
