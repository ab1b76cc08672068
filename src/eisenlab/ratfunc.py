"""Exact multivariate rational functions in p, q, A, B over Q, and the
six denominator-kernel identities used by the product relations.

The linear constraints are eliminated up front: r stands for -p-q and C
for -A-B, so every expression lives in the free polynomial ring on the
remaining four variables.  Normal form: numerator and denominator are
coprime with integer primitive coefficients, and the denominator's
leading coefficient (lexicographic term order, p most significant) is
positive.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import gcd as int_gcd
from typing import Mapping

VARS = ("p", "q", "A", "B")
_NVARS = 4
_ZERO_EXP = (0, 0, 0, 0)


class ZeroDenominator(ArithmeticError):
    """A denominator normalized to the zero polynomial."""


class UnknownIdentity(ValueError):
    """check_kernel received an identity id it does not know."""


Exponent = tuple[int, int, int, int]


class MultiPoly:
    """Polynomial in p, q, A, B with Fraction coefficients.

    Terms are kept in a dict keyed by exponent vectors; zero coefficients
    are never stored, so equality is dict equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponent, Fraction] | None = None):
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    clean[e] = Fraction(c)
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value) -> MultiPoly:
        v = Fraction(value)
        return MultiPoly({_ZERO_EXP: v} if v else {})

    @staticmethod
    def variable(name: str) -> MultiPoly:
        i = VARS.index(name)
        e = [0, 0, 0, 0]
        e[i] = 1
        return MultiPoly({tuple(e): Fraction(1)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ZERO_EXP in self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = MultiPoly.__new__(MultiPoly)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = MultiPoly.__new__(MultiPoly)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if not f:
                return MultiPoly()
            res = MultiPoly.__new__(MultiPoly)
            res.terms = {e: c * f for e, c in self.terms.items()}
            return res
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = MultiPoly.__new__(MultiPoly)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure ---------------------------------------------------------

    def degree(self, var: int) -> int:
        """Degree in variable index var; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def active_vars(self) -> tuple[int, ...]:
        present = [False] * _NVARS
        for e in self.terms:
            for i in range(_NVARS):
                if e[i]:
                    present[i] = True
        return tuple(i for i in range(_NVARS) if present[i])

    def leading(self) -> tuple[Exponent, Fraction]:
        e = max(self.terms)
        return e, self.terms[e]

    def coeff_in(self, var: int, power: int) -> MultiPoly:
        """Coefficient of var^power, a polynomial in the other variables."""
        out = {}
        for e, c in self.terms.items():
            if e[var] == power:
                reduced = list(e)
                reduced[var] = 0
                out[tuple(reduced)] = c
        return MultiPoly(out)

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
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
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


# -- gcd machinery ---------------------------------------------------------


def _int_content_normalize(p: MultiPoly) -> tuple[Fraction, MultiPoly]:
    """Write p = scale * P with P integer, content 1, leading coeff > 0."""
    if p.is_zero():
        return Fraction(0), MultiPoly()
    num = 0
    den = 1
    for c in p.terms.values():
        num = int_gcd(num, c.numerator)
        den = den * c.denominator // int_gcd(den, c.denominator)
    scale = Fraction(num, den)
    _, lead = p.leading()
    if lead < 0:
        scale = -scale
    inv = Fraction(1) / scale
    res = MultiPoly.__new__(MultiPoly)
    res.terms = {e: c * inv for e, c in p.terms.items()}
    return scale, res


def _monomial_strip(p: MultiPoly) -> tuple[Exponent, MultiPoly]:
    """Factor out the largest monomial dividing every term."""
    mins = [min(e[i] for e in p.terms) for i in range(_NVARS)]
    if not any(mins):
        return _ZERO_EXP, p
    out = {
        tuple(e[i] - mins[i] for i in range(_NVARS)): c for e, c in p.terms.items()
    }
    res = MultiPoly.__new__(MultiPoly)
    res.terms = out
    return tuple(mins), res


def divide_exact(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact polynomial quotient f/g; raises if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    out: dict[Exponent, Fraction] = {}
    rem = f
    ge, gc = g.leading()
    while not rem.is_zero():
        re, rc = rem.leading()
        qe = tuple(a - b for a, b in zip(re, ge))
        if any(x < 0 for x in qe):
            raise ArithmeticError("non-exact polynomial division")
        qc = rc / gc
        out[qe] = qc
        rem = rem - MultiPoly({qe: qc}) * g
    return MultiPoly(out)


def _univar_parts(p: MultiPoly, var: int) -> list[MultiPoly]:
    """Coefficients of p as a polynomial in var, low degree first."""
    return [p.coeff_in(var, d) for d in range(p.degree(var) + 1)]


def _pseudo_rem(f: MultiPoly, g: MultiPoly, var: int) -> MultiPoly:
    df, dg = f.degree(var), g.degree(var)
    lead_g = g.coeff_in(var, dg)
    rem = f
    while not rem.is_zero() and rem.degree(var) >= dg:
        dr = rem.degree(var)
        lead_r = rem.coeff_in(var, dr)
        shift = [0, 0, 0, 0]
        shift[var] = dr - dg
        rem = rem * lead_g - g * (lead_r * MultiPoly({tuple(shift): Fraction(1)}))
    return rem


def _content_in(p: MultiPoly, var: int) -> MultiPoly:
    cont = MultiPoly()
    for part in _univar_parts(p, var):
        if not part.is_zero():
            cont = poly_gcd(cont, part) if not cont.is_zero() else part
            if cont.is_constant():
                break
    _, cont = _int_content_normalize(cont)
    return cont


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Gcd over Q[p,q,A,B], integer-primitive with positive leading
    coefficient.  Recursive content/primitive-part with a primitive
    pseudo-remainder sequence in the most significant active variable.
    """
    if f.is_zero():
        return _int_content_normalize(g)[1] if not g.is_zero() else MultiPoly()
    if g.is_zero():
        return _int_content_normalize(f)[1]
    me, f = _monomial_strip(f)
    ne, g = _monomial_strip(g)
    shared = tuple(min(a, b) for a, b in zip(me, ne))
    mono = MultiPoly({shared: Fraction(1)})
    _, f = _int_content_normalize(f)
    _, g = _int_content_normalize(g)
    core = _poly_gcd_primitive(f, g)
    return _int_content_normalize(mono * core)[1]


def _poly_gcd_primitive(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    if f.terms == g.terms:
        return f
    fv, gv = f.active_vars(), g.active_vars()
    if not fv or not gv:
        return MultiPoly.constant(1)
    var = max(fv[-1], gv[-1])
    cf = _content_in(f, var)
    cg = _content_in(g, var)
    cont = _poly_gcd_primitive(cf, cg) if not (cf.is_constant() and cg.is_constant()) else MultiPoly.constant(1)
    a = divide_exact(f, cf)
    b = divide_exact(g, cg)
    if a.degree(var) < b.degree(var):
        a, b = b, a
    while True:
        r = _pseudo_rem(a, b, var)
        if r.is_zero():
            break
        cr = _content_in(r, var)
        r = divide_exact(r, cr)
        _, r = _int_content_normalize(r)
        a, b = b, r
        if b.degree(var) == 0:
            b = MultiPoly.constant(1)
            break
    _, b = _int_content_normalize(b)
    return cont * b


# -- rational functions ----------------------------------------------------


class RatFunc:
    """numer/denom in canonical normal form; construction normalizes."""

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
        scale, denom = _int_content_normalize(denom)
        self.numer = numer * (Fraction(1) / scale)
        self.denom = denom

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
        if isinstance(other, (int, Fraction)):
            other = RatFunc.constant(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.numer == other.numer and self.denom == other.denom

    def __hash__(self):
        return hash((self.numer, self.denom))

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

    def __rsub__(self, other):
        return (-self) + other

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
        if n < 0:
            if self.is_zero():
                raise ZeroDenominator("negative power of zero")
            return (RatFunc.constant(1) / self) ** (-n)
        result = RatFunc.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
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


def k33_identity(a: int, b: int, c: int, d: int) -> tuple[bool, RatFunc]:
    """Partial-fraction split of 1/((aA+bB)(cA+dB)) for ad - bc != 0."""
    det = a * d - b * c
    if det == 0:
        raise ZeroDenominator("ad - bc = 0 leaves no partial-fraction split")
    A, B = RatFunc.var("A"), RatFunc.var("B")
    da = a * A + b * B
    db = c * A + d * B
    if da.is_zero() or db.is_zero():
        raise ZeroDenominator("degenerate linear form aA+bB")
    lhs = 1 / (da * db)
    rhs = (Fraction(a, det) / B) / da - (Fraction(c, det) / B) / db
    w = lhs - rhs
    return w.is_zero(), w


def k33_grid(samples: int = 200) -> tuple[bool, RatFunc | None, tuple | None]:
    """Deterministic (a,b,c,d) sample grid for the partial-fraction split."""
    rng = random.Random(3300)
    done = 0
    while done < samples:
        quad = tuple(rng.randint(-9, 9) for _ in range(4))
        a, b, c, d = quad
        if a * d - b * c == 0 or (a == 0 and b == 0) or (c == 0 and d == 0):
            continue
        ok, witness = k33_identity(a, b, c, d)
        if not ok:
            return False, witness, quad
        done += 1
    return True, None, None


def _chain_pairs(chain) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    vecs = list(chain.vectors)
    return list(zip(vecs, vecs[1:]))


def check_kernel(identity_id: str, k: int | None = None, chain=None) -> tuple[bool, RatFunc]:
    """Prove one of the kernel identities by exact normalization.

    Returns (holds, witness); the witness is the normalized difference,
    identically 0 exactly when the identity holds.  K23/K34 need the
    weight k >= 2; K32/K33/K34 need a hull chain.
    """
    v = constrained_vars()
    p, q, A, B, C = v["p"], v["q"], v["A"], v["B"], v["C"]

    if identity_id == "K16":
        w = 1 / (A * B) + 1 / (B * C) + 1 / (C * A)
        return w.is_zero(), w

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

    if identity_id == "K24":
        r = v["r"]
        d1 = (p * B - q * A) - (q * C - r * B)
        if not d1.is_zero():
            return False, d1
        d2 = (q * C - r * B) - (r * A - p * C)
        return d2.is_zero(), d2

    if identity_id in ("K32", "K33", "K34"):
        if chain is None:
            raise ValueError(f"{identity_id} needs a hull chain")
        pairs = _chain_pairs(chain)
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
            return True, RatFunc.constant(0)

        # K34: numerator cross-difference per pair, then the full
        # telescoping chain sum.
        if k is None or k < 2:
            raise ValueError("K34 needs k >= 2")
        for (a1, b1), (a2, b2) in pairs:
            lhs = (a1 * p + b1 * q) * (a2 * A + b2 * B) - (a2 * p + b2 * q) * (
                a1 * A + b1 * B
            )
            rhs = (a1 * b2 - a2 * b1) * (p * B - q * A)
            w = lhs - rhs
            if not w.is_zero():
                return False, w
        total = RatFunc.constant(0)
        for (a1, b1), (a2, b2) in pairs:
            n1 = a1 * p + b1 * q
            n2 = a2 * p + b2 * q
            e1 = a1 * A + b1 * B
            e2 = a2 * A + b2 * B
            if e1.is_zero() or e2.is_zero():
                raise ZeroDenominator("degenerate chain vector")
            den = n1 * e2 - n2 * e1
            if den.is_zero():
                raise ZeroDenominator("degenerate cross-difference")
            total = total + ((n1 / e1) ** (k - 1) - (n2 / e2) ** (k - 1)) / den
        w = total - ((p / A) ** (k - 1) - (q / B) ** (k - 1)) / (
            n * (p * B - q * A)
        )
        return w.is_zero(), w

    raise UnknownIdentity(f"unknown kernel identity {identity_id!r}")
