"""Polynomial gcd, rational-function normal form, and the six kernel
identities, with substitution as the independent cross-check."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eisenlab.hull import HullChain, hull_chain
from eisenlab.ratfunc import (
    MultiPoly,
    RatFunc,
    UnknownIdentity,
    ZeroDenominator,
    check_kernel,
    constrained_vars,
    divide_exact,
    k33_identity,
    poly_gcd,
)

P = MultiPoly.variable("p")
Q = MultiPoly.variable("q")
A = MultiPoly.variable("A")
B = MultiPoly.variable("B")


def test_multipoly_basics():
    f = (P + Q) * (P - Q)
    assert f == P * P - Q * Q
    assert f.degree(0) == 2
    assert (A * B).active_vars() == (2, 3)
    assert str(P * P - Q) == "p^2 - q"
    point = {"p": Fraction(3), "q": Fraction(2), "A": Fraction(0), "B": Fraction(0)}
    assert f.substitute(point) == 5
    assert MultiPoly.constant(0).is_zero()
    assert (P ** 0) == MultiPoly.constant(1)


def test_divide_exact():
    f = (A + B) * (A - B)
    assert divide_exact(f, A + B) == A - B
    with pytest.raises(ArithmeticError):
        divide_exact(A * A + B, A + B)


def test_poly_gcd_examples():
    g = poly_gcd((A + B) * (A - B), (A + B) * (A + B))
    assert g == A + B
    assert poly_gcd((P + Q) * A, (P + Q) * B) == P + Q
    assert poly_gcd(A * B, P * Q) == MultiPoly.constant(1)
    # normalization: integer primitive, positive leading coefficient
    g = poly_gcd((A + B) * Fraction(-2, 3), (A + B) * Fraction(4, 5))
    assert g == A + B
    assert poly_gcd(MultiPoly(), A * 2) == A
    assert poly_gcd(MultiPoly(), MultiPoly()).is_zero()


@given(st.integers(1, 4), st.integers(1, 4))
def test_poly_gcd_of_shared_factor(i, j):
    # gcd((A+2B)^i * p, (A+2B)^j * q) = (A+2B)^min(i,j)
    base = A + 2 * B
    g = poly_gcd(base ** i * P, base ** j * Q)
    assert g == base ** min(i, j)


def test_ratfunc_normal_form():
    r = RatFunc(A * A - B * B, A - B)
    assert r.numer == A + B
    assert r.denom == MultiPoly.constant(1)
    # denominator scale moves into the numerator
    r = RatFunc(A, B * -2)
    assert r.denom == B
    assert r.numer == A * Fraction(-1, 2)
    assert RatFunc(MultiPoly(), A).is_zero()
    with pytest.raises(ZeroDenominator):
        RatFunc(A, MultiPoly())


poly_terms = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    max_size=4,
)


@given(poly_terms, poly_terms, st.tuples(*[st.fractions(
    min_value=-5, max_value=5, max_denominator=4)] * 4))
def test_normalization_preserves_values(num_terms, den_terms, point):
    """The canonical form and the raw quotient agree wherever defined."""
    num = MultiPoly(num_terms)
    den = MultiPoly(den_terms)
    if den.is_zero():
        return
    f = RatFunc(num, den)
    values = dict(zip(("p", "q", "A", "B"), point))
    if den.substitute(values) == 0 or f.denom.substitute(values) == 0:
        return
    assert f.substitute(values) == num.substitute(values) / den.substitute(values)


def test_ratfunc_arithmetic():
    v = constrained_vars()
    a, b, c = v["A"], v["B"], v["C"]
    assert a + b + c == 0
    assert (a / b) * (b / a) == 1
    half = RatFunc.constant(Fraction(1, 2))
    assert half + half == 1
    assert (a - a).is_zero()
    with pytest.raises(ZeroDenominator):
        a / (b - b)
    with pytest.raises(ValueError):
        RatFunc.var("r")


def test_normalize_tree():
    v = constrained_vars()
    assert str(v["A"] + v["B"] + v["C"]) == "0"
    assert (v["p"] + v["q"] + v["r"]).is_zero()
    f = 1 / (v["A"] * v["B"])
    values = {"p": Fraction(0), "q": Fraction(0),
              "A": Fraction(2), "B": Fraction(3)}
    assert f.substitute(values) == Fraction(1, 6)
    with pytest.raises(ZeroDenominator):
        1 / (v["A"] + v["B"] + v["C"])


def test_k16():
    ok, witness = check_kernel("K16")
    assert ok and witness.is_zero()


@pytest.mark.parametrize("k", [2, 3, 7, 12])
def test_k23(k):
    ok, witness = check_kernel("K23", k=k)
    assert ok, str(witness)


def test_k23_needs_weight():
    with pytest.raises(ValueError):
        check_kernel("K23")
    with pytest.raises(ValueError):
        check_kernel("K23", k=1)


def test_k24():
    ok, witness = check_kernel("K24")
    assert ok, str(witness)


@given(st.tuples(*[st.integers(-6, 6)] * 4))
def test_k33_samples(quad):
    a, b, c, d = quad
    if a * d - b * c == 0 or (a, b) == (0, 0) or (c, d) == (0, 0):
        return
    ok, witness = k33_identity(a, b, c, d)
    assert ok, str(witness)


def test_k33_degenerate():
    with pytest.raises(ZeroDenominator):
        k33_identity(1, 2, 2, 4)


@pytest.mark.parametrize("n,s", [(5, 3), (7, 4), (12, 5)])
def test_chain_kernels(n, s):
    chain = hull_chain(n, s)
    for ident in ("K32", "K33"):
        ok, witness = check_kernel(ident, chain=chain)
        assert ok, f"{ident}: {witness}"
    for k in (2, 3, 5):
        ok, witness = check_kernel("K34", k=k, chain=chain)
        assert ok, f"K34 k={k}: {witness}"


def test_chain_kernel_negative_control():
    # a det-consistent chain that skips a true hull vertex must fail the
    # telescoping identity, proving the checker can reject
    fake = HullChain(level=5, shear=3, vectors=((5, 0), (1, 2), (0, 5)))
    ok, witness = check_kernel("K32", chain=fake)
    assert not ok
    assert not witness.is_zero()


def test_chain_required():
    with pytest.raises(ValueError):
        check_kernel("K32")


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        check_kernel("K99")
