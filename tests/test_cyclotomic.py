"""Field arithmetic in Q(zeta_N): ring axioms, inversion, embeddings,
string round-trips, and the numeric image."""
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eisenlab.cyclotomic import (
    Cyclotomic,
    cyclo_embed,
    cyclo_invert,
    cyclo_reduce,
    cyclotomic_poly,
    euler_phi,
)

CONDUCTORS = (1, 2, 3, 4, 5, 6, 8, 12)

small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def elements(draw, conductors=CONDUCTORS):
    n = draw(st.sampled_from(conductors))
    deg = euler_phi(n)
    coeffs = draw(st.lists(small_fracs, min_size=deg, max_size=deg))
    return Cyclotomic(n, tuple(Fraction(c) for c in coeffs))


@st.composite
def element_triples(draw):
    """Three elements sharing one conductor."""
    n = draw(st.sampled_from(CONDUCTORS))
    deg = euler_phi(n)

    def one():
        coeffs = draw(st.lists(small_fracs, min_size=deg, max_size=deg))
        return Cyclotomic(n, tuple(Fraction(c) for c in coeffs))

    return one(), one(), one()


def test_euler_phi_table():
    assert [euler_phi(n) for n in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_euler_phi_rejects_nonpositive():
    with pytest.raises(ValueError):
        euler_phi(0)


def test_cyclotomic_poly_known():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_cyclotomic_poly_product(n):
    # independent route: prod over d | n of Phi_d must equal x^n - 1
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            phi = cyclotomic_poly(d)
            out = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            prod = out
    assert prod == [-1] + [0] * (n - 1) + [1]


def test_zeta_relations():
    for n in (2, 3, 4, 5, 6, 8, 12):
        z = Cyclotomic.zeta(n)
        assert z ** n == Cyclotomic.one(n)
        total = Cyclotomic.zero(n)
        for j in range(n):
            total = total + Cyclotomic.zeta(n, j)
        assert total.is_zero()
    assert Cyclotomic.zeta(4) ** 2 == Cyclotomic.from_rational(4, -1)
    # zeta_6 = 1 + zeta_3
    assert Cyclotomic.zeta(3).embed_to(6) + 1 == Cyclotomic.zeta(6)


def test_sparse_reduce_wraps_exponents():
    assert cyclo_reduce(6, {7: 1}) == Cyclotomic.zeta(6)
    assert cyclo_reduce(5, {4: 1, 3: 1, 2: 1, 1: 1}) == Cyclotomic.from_rational(5, -1)


@given(element_triples())
def test_ring_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == Cyclotomic.zero(a.conductor)


@given(elements())
def test_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            cyclo_invert(a)
        return
    assert a * cyclo_invert(a) == Cyclotomic.one(a.conductor)
    assert a / a == 1
    assert a ** -1 == cyclo_invert(a)


@given(elements(), st.sampled_from((2, 3, 4)))
def test_embed_restrict_round_trip(a, times):
    # zeta_N -> zeta_M^{M/N} must not move the numeric image
    big = a.conductor * times
    up = a.embed_to(big)
    assert up.conductor == big
    with mpmath.workdps(40):
        assert abs(cyclo_embed(up, 30) - cyclo_embed(a, 30)) < mpmath.mpf("1e-25")


def test_conductor_mismatch_rejected():
    with pytest.raises(ValueError):
        Cyclotomic.zeta(3) + Cyclotomic.zeta(4)


def test_rational_detection():
    x = Cyclotomic.from_rational(5, Fraction(7, 3))
    assert x.is_rational()
    assert x.rational_value() == Fraction(7, 3)
    assert x == Fraction(7, 3)
    with pytest.raises(ValueError):
        Cyclotomic.zeta(3).rational_value()


@given(elements())
def test_string_round_trip(a):
    assert Cyclotomic.from_string(a.to_string()) == a


def test_string_format():
    x = cyclo_reduce(4, (Fraction(1, 2), Fraction(-3)))
    assert x.to_string() == "1/2 + -3/1*z | 4"


@given(element_triples())
def test_numeric_embedding_is_multiplicative(triple):
    a, b, _ = triple
    with mpmath.workdps(40):
        lhs = cyclo_embed(a * b, 30)
        rhs = cyclo_embed(a, 30) * cyclo_embed(b, 30)
        assert abs(lhs - rhs) < mpmath.mpf("1e-25")


def test_numeric_embedding_known_value():
    i_val = cyclo_embed(Cyclotomic.zeta(4), 30)
    assert abs(float(i_val.real)) < 1e-25
    assert abs(float(i_val.imag) - 1.0) < 1e-25


def test_embed_precision_floor():
    with pytest.raises(ValueError):
        cyclo_embed(Cyclotomic.one(3), 10)
