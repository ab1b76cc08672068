"""Polynomial gcd, rational-function normal form, and the six kernel
identities, with substitution as the independent cross-check."""
import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from eisenlab import ratfunc
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
    kernel_scope,
    poly_gcd,
)

P = MultiPoly.variable("p")
Q = MultiPoly.variable("q")
A = MultiPoly.variable("A")
B = MultiPoly.variable("B")


def power(f, n):
    """f ** n as n - 1 products."""
    out = f
    for _ in range(n - 1):
        out = out * f
    return out


def test_multipoly_basics():
    f = (P + Q) * (P - Q)
    assert f == P * P - Q * Q
    assert str(P * P - Q) == "p^2 - q"
    point = {"p": Fraction(3), "q": Fraction(2), "A": Fraction(0), "B": Fraction(0)}
    assert f.substitute(point) == 5
    assert MultiPoly.constant(0).is_zero()


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
    g = poly_gcd(power(base, i) * P, power(base, j) * Q)
    assert g == power(base, min(i, j))


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


def _lowest_terms(f: MultiPoly) -> bool:
    return (f.den > 0 and all(f.ints.values())
            and gcd(f.den, *f.ints.values()) == 1)


def _schoolbook(f: MultiPoly, g: MultiPoly) -> dict:
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


wide_terms = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 4),
    st.one_of(
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
                  st.integers(1, 2 ** 66))),
    max_size=4,
)


@given(wide_terms, wide_terms, st.fractions(max_denominator=2 ** 65))
def test_integer_storage_stays_in_lowest_terms(f_terms, g_terms, scalar):
    """Every operation leaves den > 0, no zero coefficient and gcd 1, and
    agrees with Fraction arithmetic on the `terms` view."""
    f, g = MultiPoly(f_terms), MultiPoly(g_terms)
    assert f.terms == {e: c for e, c in f_terms.items() if c}
    total = dict(f.terms)
    for e, c in g.terms.items():
        total[e] = total.get(e, 0) + c
    assert (f + g).terms == {e: c for e, c in total.items() if c}
    assert (f * g).terms == _schoolbook(f, g)
    assert (f * scalar).terms == _schoolbook(f, MultiPoly.constant(scalar))
    results = [f, g, f + g, f - g, -f, f * g, f * scalar, f + scalar, f - f,
               -f + scalar, f * f, poly_gcd(f, g)]
    if not g.is_zero():
        assert divide_exact(f * g, g) == f
        r = RatFunc(f, g)
        results += [divide_exact(f * g, g), r.numer, r.denom]
    for h in results:
        assert _lowest_terms(h), h
    assert (f - f).den == 1 and (f - f).is_zero()


def _form(coeffs, monomials) -> MultiPoly:
    return sum((c * m for c, m in zip(coeffs, monomials)), MultiPoly())


LINEAR = (P, Q, A, B)
QUADRATIC = tuple(x * y for i, x in enumerate(LINEAR) for y in LINEAR[i:])
forms = st.one_of(
    st.lists(st.integers(-3, 3), min_size=4, max_size=4).map(
        lambda c: _form(c, LINEAR)),
    st.lists(st.integers(-2, 2), min_size=10, max_size=10).map(
        lambda c: _form(c, QUADRATIC)),
)
products = st.one_of(forms, st.builds(operator.mul, forms, forms))


@given(products, forms, forms)
def test_poly_gcd_of_products_of_forms(h, f, g):
    # cofactors stay single forms: the primitive remainder sequence takes
    # over a minute on dense quartic cofactors in four variables
    assume(not (h.is_zero() or f.is_zero() or g.is_zero()))
    hf, hg = h * f, h * g
    d = poly_gcd(hf, hg)
    divide_exact(d, h)  # h divides the gcd
    cofactor_gcd = poly_gcd(divide_exact(hf, d), divide_exact(hg, d))
    assert cofactor_gcd == MultiPoly.constant(1)
    assert d.den == 1 and gcd(*d.ints.values()) == 1
    assert d.ints[max(d.ints)] > 0


def test_integer_route_edge_cases():
    one = MultiPoly.constant(1)
    # the two shortcuts: a nonzero constant, and no shared variable
    assert poly_gcd(MultiPoly.constant(Fraction(-6, 7)), A * A + B) == one
    assert poly_gcd((P + Q) * (P - Q), (A + B) * A) == one
    # a shared monomial and nothing else
    assert poly_gcd(P * A, P * B) == P
    assert divide_exact(A, 2 * A) == MultiPoly.constant(Fraction(1, 2))
    with pytest.raises(ArithmeticError):
        divide_exact(A * A + B, A + B)
    with pytest.raises(ArithmeticError):
        divide_exact(A + 1, A - 1)
    with pytest.raises(ArithmeticError):  # 2 does not divide 3
        divide_exact(3 * A + 1, 2 * A + 1)
    # coefficients past 2^64
    big = 2 ** 64 + 13
    f = (big * A + (big + 1) * B) * (P - 3 * Q)
    g = (big * A + (big + 1) * B) * (P + Q) * Fraction(1, big + 2)
    assert poly_gcd(f, g) == big * A + (big + 1) * B
    r = RatFunc(f, g)
    assert r.denom == P + Q
    assert r.numer == (P - 3 * Q) * (big + 2)
    assert _lowest_terms(r.numer) and _lowest_terms(r.denom)
    assert (f * Fraction(1, big)).den == big


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


def test_constants_equal_the_numbers_they_are():
    # equal values compare equal; neither type hashes, as nothing keys
    # a set or a dict by one
    for value in (3, Fraction(1, 2), 0):
        for x in (MultiPoly.constant(value), RatFunc.constant(value)):
            assert x == value and value == x
            with pytest.raises(TypeError):
                hash(x)
    a, b = RatFunc.var("A"), RatFunc.var("B")
    assert (a + 1) / (b + 1) == (2 * a + 2) / (2 * b + 2)


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
    # `eisenlab symbolic` prints these witnesses on failure
    assert str(witness) == "(-1/5)/(A^2 + 2*A*B)"
    ok, witness = check_kernel("K34", k=3, chain=fake)
    assert not ok
    assert str(witness) == ("(-2/5*p*A - 2/5*p*B - 2/5*q*A)"
                            "/(A^4 + 4*A^3*B + 4*A^2*B^2)")


def test_polynomial_kernels_run_no_gcd(monkeypatch):
    # K16, K24 and K33 clear their denominators: not one gcd in all 202
    # instances, while a kernel that normalizes reaches the patch
    def no_gcd(f, g):
        raise AssertionError("poly_gcd called")

    monkeypatch.setattr(ratfunc, "poly_gcd", no_gcd)
    proofs = [proof for ident in ("K16", "K24", "K33")
              for _, proof in kernel_scope(ident)]
    assert len(proofs) == 202
    for proof in proofs:
        ok, witness = proof()
        assert ok and isinstance(witness, MultiPoly) and witness.is_zero()
    with pytest.raises(AssertionError, match="poly_gcd called"):
        check_kernel("K32", chain=hull_chain(5, 3))


def test_k33_on_a_chain_has_a_zero_witness():
    ok, witness = check_kernel("K33", chain=hull_chain(5, 3))
    assert ok and witness == MultiPoly() and str(witness) == "0"


@pytest.mark.parametrize("ident, name, perturbed, text", [
    # A + B + C with C = -A - 2B
    ("K16", "C", -A - 2 * B, "-B"),
    # (pB - qA) - (qC - rB) with r = -p - 2q
    ("K24", "r", -P - 2 * Q, "-q*B"),
])
def test_a_perturbed_polynomial_kernel_fails(monkeypatch, ident, name,
                                             perturbed, text):
    monkeypatch.setitem(ratfunc._POLYS, name, perturbed)
    ok, witness = check_kernel(ident)
    assert not ok and isinstance(witness, MultiPoly)
    # `eisenlab symbolic` prints this witness on failure
    assert str(witness) == text


def test_a_perturbed_k33_fails(monkeypatch):
    # det + 1 as the coefficient of B leaves B in the numerator
    numerator = ratfunc._k33_numerator
    monkeypatch.setattr(ratfunc, "_k33_numerator",
                        lambda a, b, c, d, det: numerator(a, b, c, d, det + 1))
    for ok, witness in (k33_identity(1, 2, 3, 4),
                        check_kernel("K33", chain=hull_chain(5, 3))):
        assert not ok and isinstance(witness, MultiPoly)
        assert str(witness) == "B"


def test_chain_required():
    with pytest.raises(ValueError):
        check_kernel("K32")


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        check_kernel("K99")
    with pytest.raises(UnknownIdentity):
        kernel_scope("K99")


def test_kernel_scope_counts():
    counts = {ident: len(kernel_scope(ident))
              for ident in ("K16", "K23", "K24", "K32", "K33", "K34")}
    assert counts == {"K16": 1, "K23": 11, "K24": 1, "K32": 46, "K33": 200,
                      "K34": 46}
    assert [label for label, _ in kernel_scope("K33")[:3]] == [
        "(a,b,c,d)=(6, -3, -4, 0)", "(a,b,c,d)=(1, -5, 1, 1)",
        "(a,b,c,d)=(-3, -8, -5, 4)"]


def test_kernel_scope_narrows_to_the_given_instance():
    chain = hull_chain(5, 3)
    assert [label for label, _ in kernel_scope("K23", k=5)] == ["k=5"]
    for ident in ("K32", "K33", "K34"):
        scope = kernel_scope(ident, k=4, chain=chain)
        assert [label for label, _ in scope] == ["(N,S)=(5,3)"]
        ok, witness = scope[0][1]()
        assert ok, f"{ident}: {witness}"
