"""Field arithmetic in Q(zeta_N): ring axioms, inversion, embeddings,
string round-trips, and the numeric image."""
from fractions import Fraction
from math import gcd, prod

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eisenlab.cyclotomic import (
    Cyclotomic,
    _zeta_rows,
    cyclo_embed,
    cyclo_invert,
    cyclo_reduce,
    cyclotomic_poly,
    euler_phi,
    prime_divisors,
)
from eisenlab.eisenstein import index_mu
from eisenlab.oracles import phi_remainder
from eisenlab.quasiforms import _ramanujan

CONDUCTORS = (1, 2, 3, 4, 5, 6, 8, 12)

small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def field_elements(draw, conductors=CONDUCTORS):
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
    # twice for 0: the memo must not remember a failed call
    for n in (0, -3, 0):
        with pytest.raises(ValueError):
            euler_phi(n)


def test_one_factorization_by_brute_force():
    # the readers of `prime_divisors`, each against its definition: phi
    # counts the units, mu(n) = c_n(1) is (-1)^r on a product of r
    # distinct primes and 0 off the squarefree, and mu_N is the PSL2(Z)
    # index N^3 prod_{p | N} (1 - p^-2) / 2 (1 and 6 at N = 1, 2, where
    # -I lies in Gamma(N))
    for n in range(1, 301):
        primes = [p for p in range(2, n + 1)
                  if n % p == 0 and all(p % d for d in range(2, p))]
        assert prime_divisors(n) == tuple(primes)
        assert euler_phi(n) == sum(gcd(a, n) == 1 for a in range(1, n + 1))
        squarefree = all(n % (d * d) for d in range(2, n + 1))
        assert _ramanujan(n)[1 % n] == (-1) ** len(primes) * squarefree
        index = n ** 3 * prod(1 - Fraction(1, p * p) for p in primes) / 2
        assert index_mu(n) == {1: 1, 2: 6}.get(n, index)


def test_cyclotomic_poly_known():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", range(1, 61))
def test_cyclotomic_poly_product(n):
    # independent route: prod over d | n of Phi_d must equal x^n - 1
    assert len(cyclotomic_poly(n)) - 1 == euler_phi(n)
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


def test_zeta_rows_match_long_division():
    for n in range(1, 41):
        rows = _zeta_rows(n)
        assert len(rows) == n
        for j, row in enumerate(rows):
            dense = [0] * euler_phi(n)
            for i, r in row:
                dense[i] = r
            assert tuple(dense) == phi_remainder(n, [0] * j + [1])


def test_zeta_relations():
    for n in (2, 3, 4, 5, 6, 8, 12):
        z, power = Cyclotomic.zeta(n), Cyclotomic.one(n)
        for _ in range(n):
            power = power * z
        assert power == Cyclotomic.one(n)
        total = Cyclotomic.zero(n)
        for j in range(n):
            total = total + Cyclotomic.zeta(n, j)
        assert total.is_zero()
    assert Cyclotomic.zeta(4) * Cyclotomic.zeta(4) == Cyclotomic.from_rational(4, -1)
    # zeta_6 = 1 + zeta_6^2, zeta_6^2 being zeta_3
    assert Cyclotomic.zeta(6, 2) + 1 == Cyclotomic.zeta(6)


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


@given(st.one_of(
    field_elements(),
    field_elements((7, 9, 10, 15, 16, 20, 21, 24, 30)),
    st.builds(Cyclotomic.from_rational, st.sampled_from(CONDUCTORS + (30,)),
              small_fracs)))
def test_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            cyclo_invert(a)
        return
    assert a * cyclo_invert(a) == Cyclotomic.one(a.conductor)
    assert cyclo_invert(cyclo_invert(a)) == a


def test_conductor_mismatch_rejected():
    with pytest.raises(ValueError):
        Cyclotomic.zeta(3) + Cyclotomic.zeta(4)


def test_rational_detection():
    x = Cyclotomic.from_rational(5, Fraction(7, 3))
    assert x.is_rational()
    assert x == Fraction(7, 3)
    assert not Cyclotomic.zeta(3).is_rational()


def test_rational_elements_equal_the_numbers_they_are():
    # equal values compare equal; no element hashes, as nothing keys a
    # set or a dict by one, and only a rational divides
    for value in (3, Fraction(5, 3), 0, -1):
        x = Cyclotomic.from_rational(5, value)
        assert x == value and value == x
        with pytest.raises(TypeError):
            hash(x)
    with pytest.raises(TypeError):
        Cyclotomic.one(5) / Cyclotomic.zeta(5)


@given(field_elements())
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


# -- the integer storage against Fraction schoolbook arithmetic ------------


@st.composite
def fraction_vector_pairs(draw):
    """A conductor 1-12 and two Fraction vectors of its length phi."""
    n = draw(st.integers(1, 12))
    vector = st.lists(small_fracs, min_size=euler_phi(n), max_size=euler_phi(n))
    return n, tuple(draw(vector)), tuple(draw(vector))


def schoolbook(n, x, y):
    """The reduced product of the vectors x and y: their Fraction
    convolution, divided by Phi_n."""
    conv = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            conv[i + j] += a * b
    return phi_remainder(n, conv)


def coordinate_string(n, x):
    powers = ["", "*z"] + [f"*z^{j}" for j in range(2, len(x))]
    return " + ".join(f"{c.numerator}/{c.denominator}{p}"
                      for c, p in zip(x, powers)) + f" | {n}"


@given(fraction_vector_pairs(), small_fracs)
def test_arithmetic_matches_the_fraction_schoolbook(case, r):
    n, x, y = case
    a, b = Cyclotomic(n, x), Cyclotomic(n, y)
    assert a.coeffs == x
    assert (a + b).coeffs == tuple(p + q for p, q in zip(x, y))
    assert (a - b).coeffs == tuple(p - q for p, q in zip(x, y))
    assert (a * r).coeffs == (r * a).coeffs == tuple(p * r for p in x)
    assert (a * b).coeffs == schoolbook(n, x, y)
    if any(y):
        # a / b is the element whose schoolbook product with b is a
        assert schoolbook(n, (a * cyclo_invert(b)).coeffs, y) == x
    assert (a == b) == (x == y)
    assert a.to_string() == coordinate_string(n, x)
    assert Cyclotomic.from_string(coordinate_string(n, x)).coeffs == x


@given(fraction_vector_pairs(), st.integers(1, 30))
def test_storage_is_in_lowest_terms_whatever_the_route(case, m):
    # equal values built over different denominators store the same
    # denominator and vector
    n, x, y = case
    a = Cyclotomic(n, x)
    assert a.den > 0 and gcd(a.den, *a.vec) == 1
    routes = (Cyclotomic._of(n, m * a.den, [m * v for v in a.vec]),
              (a + Cyclotomic(n, y)) - Cyclotomic(n, y),
              a * m / m,
              cyclo_reduce(n, {j + m * n: c for j, c in enumerate(x)}),
              Cyclotomic.from_string(a.to_string()))
    for b in routes:
        assert b == a
        assert (b.den, b.vec) == (a.den, a.vec)
