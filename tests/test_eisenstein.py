"""Fourier expansions: constants, rows, parity, Sturm depths, and
rescaled torsion indices, cross-checked against direct lattice sums."""
from fractions import Fraction
from math import gcd, prod

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisenlab.cyclotomic import (
    Cyclotomic,
    cyclo_embed,
    cyclo_invert,
    cyclo_reduce,
    euler_phi,
)
from eisenlab.eisenstein import (
    EisIndex,
    InvalidIndex,
    QSeries,
    _pack,
    _unpack,
    bernoulli,
    constant_term,
    cusps,
    eis_qseries,
    eis_sum,
    index_mu,
    proven_truncation,
    sturm_truncation,
)
from eisenlab.oracles import (
    bernoulli_akiyama,
    lattice_value,
    naive_convolution,
    row_constant,
    row_sum_constant,
    row_sum_expansion,
    sigma,
)
from eisenlab.quasiforms import combine, delta, eis_series
from eisenlab.verifiers import L_terms, _scale_table, build_L, canonical_sum


# -- constants -------------------------------------------------------------


def test_bernoulli_against_akiyama_tanigawa():
    for k in range(25):
        assert bernoulli(k) == bernoulli_akiyama(k), k
    assert bernoulli(1) == Fraction(-1, 2)
    assert all(bernoulli(k) == 0 for k in (3, 5, 7, 9))


def test_index_mu_values():
    assert [index_mu(n) for n in (1, 2, 3, 4, 5, 6, 10)] == [
        1, 6, 12, 24, 60, 72, 360]


def test_sturm_truncation_values():
    assert sturm_truncation(2, 5) == 55
    assert sturm_truncation(2, 6) == 78
    assert sturm_truncation(3, 6) == 114
    assert sturm_truncation(3, 10) == 910
    assert sturm_truncation(1, 1) == 2


def test_proven_truncation_values():
    assert [proven_truncation(k, n) for k, n in
            ((2, 5), (2, 6), (2, 7), (3, 10), (1, 1), (4, 1))] == [
        10, 12, 28, 90, 0, 0]
    # the defaults keep their recorded values, all above the bound
    assert all(proven_truncation(k, n) < sturm_truncation(k, n)
               for k in range(1, 6) for n in range(1, 16))


def test_cusps_of_gamma_n():
    for n in range(1, 16):
        mats = cusps(n)
        primes = [p for p in range(2, n + 1)
                  if n % p == 0 and all(p % q for q in range(2, p))]
        count = {1: 1, 2: 3}.get(
            n, Fraction(n * n, 2) * prod(1 - Fraction(1, p * p) for p in primes))
        assert len(mats) == count, n
        assert all(a * d - b * c == 1 for a, b, c, d in mats), n
        # the first columns mod n lie in distinct +- classes
        classes = {frozenset({(a % n, c % n), (-a % n, -c % n)})
                   for a, _, c, _ in mats}
        assert len(classes) == len(mats), n
        assert mats[0] == (1, 0, 0, 1), n


# -- indices ---------------------------------------------------------------


def test_index_reduction_and_moves():
    idx = EisIndex(3, 5, 7, -2)
    assert (idx.c1, idx.c2) == (2, 3)
    assert idx.negate() == EisIndex(3, 5, 3, 2)
    assert idx.s_transform() == EisIndex(3, 5, 3, 3)
    assert EisIndex(2, 5, 1, 2).s_transform() == EisIndex(2, 5, 2, 4)


def test_index_validation():
    with pytest.raises(InvalidIndex):
        EisIndex(0, 5, 0, 0)
    with pytest.raises(InvalidIndex):
        EisIndex(1, 0, 0, 0)


# -- q-series arithmetic ---------------------------------------------------


def qs(level, truncation, entries):
    return QSeries(level, truncation,
                   {e: Cyclotomic.from_rational(level, v)
                    for e, v in entries.items()})


def test_qseries_basics():
    f = qs(3, 10, {0: 1, 2: Fraction(1, 2)})
    g = qs(3, 10, {2: Fraction(-1, 2), 5: 2})
    assert (f + g).nonzero_exponents() == [0, 5]
    assert (f + f.scale(-1)).is_zero()
    assert f.scale(2).coeff(2) == 1
    assert f.coeff(7).is_zero()
    h = f.theta()
    assert h.coeff(0).is_zero()
    assert h.coeff(2) == Fraction(2, 3) * Fraction(1, 2)


def test_qseries_arithmetic_needs_matching_frames():
    f = qs(2, 10, {1: 1})
    with pytest.raises(ValueError):
        f + qs(4, 10, {1: 1})
    with pytest.raises(ValueError):
        f + qs(2, 12, {1: 1})
    # coefficients live in Q(zeta_level) itself: another conductor raises,
    # also one that divides the level
    with pytest.raises(ValueError):
        QSeries(4, 10, {1: Cyclotomic.from_rational(2, 3)})
    with pytest.raises(ValueError):
        QSeries(4, 10, {1: Cyclotomic.from_rational(3, 1)})
    with pytest.raises(ValueError):
        f.scale(Cyclotomic.zeta(4))
    with pytest.raises(ValueError):
        f.scale(Cyclotomic.zero(4))


def qv(level, truncation, entries):
    """Series from exponent -> raw coefficient vector on 1, zeta, zeta^2..."""
    return QSeries(level, truncation,
                   {e: cyclo_reduce(level, v) for e, v in entries.items()})


# small fractions with unlike denominators, and numerators and
# denominators past 2^64
coefficient = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.integers(-2 ** 80, 2 ** 80),
    st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70),
              st.integers(1, 2 ** 66)),
)


@st.composite
def factor_pair(draw):
    level = draw(st.sampled_from((1, 2, 3, 4, 5, 7, 8, 10, 12)))
    b = draw(st.integers(0, 12))
    entries = st.dictionaries(st.integers(0, b),
                              st.lists(coefficient, max_size=level),
                              max_size=5)
    return qv(level, b, draw(entries)), qv(level, b, draw(entries))


@given(factor_pair())
def test_qseries_mul_matches_schoolbook(pair):
    f, g = pair
    prod = f * g
    assert prod.coeffs == naive_convolution(f.coeffs, g.coeffs, f.truncation)
    assert prod.truncation == f.truncation


@pytest.mark.parametrize("level, left, right", [
    (5, (1, 1, 2), (1, 3, 0)),   # weight-1 constant terms 3/10 and -1/10
    (7, (1, 2, 5), (2, 0, 3)),
    (8, (3, 1, 2), (3, 5, 7)),
    (10, (1, 3, 0), (2, 7, 4)),
    (12, (2, 0, 5), (1, 11, 1)),
    (6, (4, 0, 0), (2, 0, 0)),   # Bernoulli constant terms
])
def test_eisenstein_products_match_schoolbook(level, left, right):
    f = eis_qseries(EisIndex(left[0], level, left[1], left[2]), 40)
    g = eis_qseries(EisIndex(right[0], level, right[1], right[2]), 40)
    assert (f * g).coeffs == naive_convolution(f.coeffs, g.coeffs, 40)


def test_qseries_mul_edge_cases():
    zeta = Cyclotomic.zeta(3)
    # a zero factor, on either side
    f = qv(7, 9, {0: [1, 2], 4: [Fraction(1, 3)]})
    assert (f * QSeries.zero(7, 9)).is_zero()
    assert (QSeries.zero(7, 9) * f).is_zero()
    # truncation 0 keeps the constant term only
    g = qv(7, 0, {0: [0, 0, 0, Fraction(-5, 2)]})
    assert (g * g).coeffs == {0: g.coeff(0) * g.coeff(0)}
    # zeta^2 + (1 + zeta) at exponent 1: nonzero digits, zero after
    # reduction mod Phi_3, so the exponent is not stored
    a = QSeries(3, 4, {0: zeta, 1: Cyclotomic.one(3)})
    c = QSeries(3, 4, {0: 1 + zeta, 1: zeta})
    prod = a * c
    assert 1 not in prod.coeffs
    assert prod.coeffs == naive_convolution(a.coeffs, c.coeffs, 4)
    # (1 + q)(1 - q): the q^1 terms cancel before any reduction
    assert (qs(1, 4, {0: 1, 1: 1}) * qs(1, 4, {0: 1, 1: -1})).coeffs == \
        qs(1, 4, {0: 1, 2: -1}).coeffs


def test_qseries_mul_borrows_across_slots():
    # -1 + q: the negative low slot borrows from the positive one above
    f = qs(1, 4, {0: -1, 1: 1})
    assert (f * qs(1, 4, {0: 1})) == f
    assert (f * f).coeffs == qs(1, 4, {0: 1, 1: -2, 2: 1}).coeffs
    # the zeta^3 slot of q^3 at level 5 sums phi * min(#a, #b) = 16 terms
    # and so sits at +-max|a| max|b| phi min(#a, #b), the largest value a
    # slot has to hold, between smaller slots; that bound is 137 bits
    # long, so a bound a quarter too small would pick a slot one byte
    # narrower
    big = 2 ** 66 + 1
    h = qv(5, 3, {e: [big] * 4 for e in range(4)})
    for other in (h, h.scale(-1), h.scale(Fraction(-1, 3))):
        assert (h * other).coeffs == naive_convolution(h.coeffs, other.coeffs, 3)


@settings(max_examples=60)
@given(st.sampled_from([1, 2, 4, 8, 9]), st.data())
def test_unpack_reads_any_run_of_slots(width, data):
    # signed digits at the largest magnitude a slot holds; the run read
    # starts at slot 0, and a negative digit above it borrows from the
    # bits the run does not read
    top = 2 ** (8 * width - 1) - 1
    digits = data.draw(st.lists(st.sampled_from([-top, -1, 0, 1, top])
                                | st.integers(-top, top), min_size=1,
                                max_size=12))
    slots = data.draw(st.integers(1, len(digits)))
    packed = _pack({0: digits}, len(digits), width)
    assert _unpack(packed, slots, width) == digits[:slots]


def test_qseries_mul_runs_no_cyclotomic_multiply(monkeypatch):
    """Products, sums, theta, scaling by a non-rational element, delta
    images, their combination and a whole build_L run in integers: no
    `Cyclotomic` multiply or add, through any binding."""
    f = eis_qseries(EisIndex(3, 6, 1, 2), sturm_truncation(3, 6))
    g = eis_qseries(EisIndex(3, 6, 5, 3), sturm_truncation(3, 6))
    member = eis_series(EisIndex(2, 6, 1, 2), sturm_truncation(2, 6))
    c = Cyclotomic.zeta(6) + Fraction(1, 3)
    # L((1, 2), (5, 3), p = 2, q = -3/5) at weight 4, over 2! 5^2
    terms = canonical_sum(L_terms(_scale_table(10, -3, 4), (1, 2), (5, 3)),
                          6, 50)
    calls = []

    def counting(real):
        def wrapper(self, other):
            calls.append(real.__name__)
            return real(self, other)
        return wrapper

    for real in (Cyclotomic.__mul__, Cyclotomic.__add__):
        for name, attr in list(vars(Cyclotomic).items()):
            if attr is real:  # __mul__ and __rmul__, __add__ and __radd__
                monkeypatch.setattr(Cyclotomic, name, counting(real))
    prod = f * g
    assert len(prod.nonzero_exponents()) > 50
    assert not (f + g).is_zero() and not f.theta().is_zero()
    assert not f.scale(c).is_zero()
    assert combine([(delta(member), c), (delta(member), 1)], 4, 6,
                   member.truncation).depth == 2
    assert build_L(terms, 4, 6, sturm_truncation(4, 6)).weight == 4
    assert calls == []


def test_qseries_mul_truncation_is_inclusive():
    f = qs(1, 5, {3: 1})
    assert (f * f).is_zero()  # exponent 6 falls outside the bound
    g = qs(1, 6, {3: 1})
    assert (g * g).nonzero_exponents() == [6]


# -- integer storage against the Cyclotomic route --------------------------


def stored(h):
    """h, once its stored form is canonical: a positive denominator, no
    zero vector, every exponent within the truncation, and lowest terms."""
    assert h.den > 0
    for e, v in h.vecs.items():
        assert 0 <= e <= h.truncation and len(v) == euler_phi(h.level)
        assert any(v)
    assert gcd(h.den, *(x for v in h.vecs.values() for x in v)) == 1
    return h


def coefficientwise(op, *series):
    """op(e, coefficients at e) at every exponent, in `Cyclotomic`
    arithmetic, zeros left out: the route the integer storage replaces."""
    views = [h.coeffs for h in series]
    zero = Cyclotomic.zero(series[0].level)
    out = {e: op(e, *(v.get(e, zero) for v in views))
           for e in set().union(*views)}
    return {e: c for e, c in out.items() if not c.is_zero()}


@st.composite
def differential_case(draw):
    """(f, g, factors) at a level in 1..12; g is free, cancels f at one
    exponent, or cancels all of f; the factors are 0, the zero element, an
    int, a Fraction and an element of Q(zeta_level)."""
    level = draw(st.integers(1, 12))
    b = draw(st.integers(0, 12))
    entries = st.dictionaries(st.integers(0, b),
                              st.lists(coefficient, max_size=level),
                              max_size=5)
    f = qv(level, b, draw(entries))
    g = qv(level, b, draw(entries)).coeffs
    how = draw(st.sampled_from(("free", "one", "all")))
    if how == "one" and f.vecs:
        e = draw(st.sampled_from(sorted(f.vecs)))
        g[e] = -f.coeff(e)
    elif how == "all":
        g = {e: -c for e, c in f.coeffs.items()}
    factors = (0, Cyclotomic.zero(level), draw(st.integers(-2 ** 70, 2 ** 70)),
               Fraction(draw(coefficient)),
               cyclo_reduce(level, draw(st.lists(coefficient, min_size=level,
                                                 max_size=level))))
    return f, QSeries(level, b, g), factors


@given(differential_case())
def test_integer_storage_matches_the_cyclotomic_route(case):
    f, g, factors = case
    n, b = f.level, f.truncation
    stored(f), stored(g)
    assert stored(f + g).coeffs == coefficientwise(
        lambda e, x, y: x + y, f, g)
    assert stored(f + g.scale(-1)).coeffs == coefficientwise(
        lambda e, x, y: x - y, f, g)
    for c in factors:
        assert stored(f.scale(c)).coeffs == coefficientwise(
            lambda e, x: x * c, f)
    assert stored(f.theta()).coeffs == coefficientwise(
        lambda e, x: x * Fraction(e, n), f)
    assert stored(f * g).coeffs == naive_convolution(f.coeffs, g.coeffs, b)
    assert stored(f + f.scale(-1)) == QSeries.zero(n, b)


def test_integer_storage_edge_cases():
    # weight-1 constant terms 3/10 and -1/10 put each series over 10; in
    # the sum the constant 1/5 and the even integers 10 m leave 5
    f = eis_qseries(EisIndex(1, 5, 1, 2), 30)
    g = eis_qseries(EisIndex(1, 5, 3, 0), 30)
    assert (f.coeff(0), g.coeff(0)) == (Fraction(3, 10), Fraction(-1, 10))
    assert (f.den, g.den, stored(f + g).den) == (10, 10, 5)
    # numerators and denominators past 2^64, cancelling at exponent 2
    big = Fraction(2 ** 70 + 1, 2 ** 65 + 3)
    h = qv(7, 5, {0: [big, 1], 2: [Fraction(1, 2 ** 66)], 5: [0, 0, big]})
    k = qv(7, 5, {2: [Fraction(-1, 2 ** 66)], 3: [big ** 2]})
    assert stored(h + k).nonzero_exponents() == [0, 3, 5]
    c = Cyclotomic.zeta(7, 3) - big
    assert stored(h.scale(c)).coeffs == coefficientwise(lambda e, a: a * c, h)
    assert stored(h * k).coeffs == naive_convolution(h.coeffs, k.coeffs, 5)
    # whole-series cancellation leaves the zero series over 1
    for x in (f, h):
        zero = QSeries.zero(x.level, x.truncation)
        assert x + x.scale(-1) == zero and x.scale(0) == zero
        assert (x + x.scale(-1)).den == 1
    assert f.scale(Cyclotomic.one(5)) == f


# -- constant terms --------------------------------------------------------


def test_constant_branch_bernoulli():
    assert constant_term(EisIndex(2, 1, 0, 0)) == Fraction(-1, 12)
    assert constant_term(EisIndex(4, 1, 0, 0)) == Fraction(1, 120)
    assert constant_term(EisIndex(6, 3, 0, 0)) == Fraction(-1, 252)
    assert constant_term(EisIndex(3, 1, 0, 0)).is_zero()
    assert constant_term(EisIndex(1, 3, 0, 0)).is_zero()


def test_constant_branch_offdiagonal():
    # c1 != 0: zero for k >= 2, the sawtooth value for k = 1
    assert constant_term(EisIndex(5, 7, 3, 1)).is_zero()
    assert constant_term(EisIndex(1, 5, 1, 3)) == Fraction(3, 10)
    assert constant_term(EisIndex(1, 2, 1, 1)).is_zero()


def test_constant_two_torsion_cotangent_vanishes():
    # t = cot(pi/2) = 0 kills every odd-weight cotangent value at (0, 1)
    assert constant_term(EisIndex(1, 2, 0, 1)).is_zero()
    assert constant_term(EisIndex(3, 2, 0, 1)).is_zero()


def test_constant_known_cotangent_value():
    z = Cyclotomic.zeta(5)
    want = (Cyclotomic.one(5) + z) * cyclo_invert(Cyclotomic.one(5) - z) / 2
    assert constant_term(EisIndex(1, 5, 0, 1)) == want


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("n,c2", [(3, 1), (4, 1), (5, 2), (6, 1), (7, 3),
                                  (8, 3), (12, 5)])
def test_constant_cotangent_vs_row_sum(k, n, c2):
    got = cyclo_embed(constant_term(EisIndex(k, n, 0, c2)), 40)
    want = row_constant(k, n, c2)
    with mpmath.workdps(40):
        assert abs(got - want) < mpmath.mpf("1e-30")


def test_constant_term_matches_the_fraction_formula():
    # the integer Bernoulli table against the periodic Bernoulli function
    # in Fractions, with the Akiyama-Tanigawa numbers
    for k in range(1, 8):
        for n in range(1, 13):
            for c1 in range(n):
                for c2 in range(n):
                    idx = EisIndex(k, n, c1, c2)
                    assert constant_term(idx) == row_sum_constant(idx), idx


def test_constants_live_in_the_right_field():
    # the periodic-Bernoulli sum runs over powers of zeta_N only, so it
    # must never leave Q(zeta_N)
    for k, n, c2 in ((1, 3, 1), (2, 5, 2), (3, 6, 1), (4, 7, 3)):
        assert constant_term(EisIndex(k, n, 0, c2)).conductor == n


# -- full expansions -------------------------------------------------------


def test_level_one_divisor_sums():
    for k in (2, 4, 6):
        f = eis_qseries(EisIndex(k, 1, 0, 0), 40)
        assert f.coeff(0) == -bernoulli(k) / k
        for n in range(1, 40):
            assert f.coeff(n) == 2 * sigma(n, k - 1), (k, n)


def test_weight_two_classical_start():
    f = eis_qseries(EisIndex(2, 1, 0, 0), 6)
    vals = [f.coeff(n) for n in range(6)]
    assert vals == [Fraction(-1, 12), 2, 6, 8, 14, 12]


@pytest.mark.parametrize("level", range(1, 13))
def test_expansion_matches_the_row_sum_oracle(level):
    # every index of weights 1-5, at the proven truncation or, where that
    # is below 4 N (levels 1-4), at 4 N
    for k in range(1, 6):
        b = max(proven_truncation(k, level), 4 * level)
        for c1 in range(level):
            for c2 in range(level):
                idx = EisIndex(k, level, c1, c2)
                assert eis_qseries(idx, b) == row_sum_expansion(idx, b), idx


@settings(max_examples=40)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 5), st.integers(0, 5))
def test_parity(k, n, c1, c2):
    # expands both indices: `eis_series` reads one from the other
    idx = EisIndex(k, n, c1, c2)
    b = 3 * n
    assert eis_qseries(idx.negate(), b) == eis_qseries(idx, b).scale((-1) ** k)


def test_truncation_extension_is_consistent():
    idx = EisIndex(3, 4, 1, 2)
    short = eis_qseries(idx, 12)
    longer = eis_qseries(idx, 30)
    for n in range(12):
        assert short.coeff(n) == longer.coeff(n)


def test_negative_truncation_is_rejected():
    # no series, not even the constant term, below exponent 0
    idx = EisIndex(1, 5, 1, 2)
    for expand in (lambda: eis_sum({idx: 1}, 1, 5, -1),
                   lambda: eis_qseries(idx, -1)):
        with pytest.raises(ValueError, match="truncation must be >= 0"):
            expand()


def test_nonconstant_coefficients_are_integral():
    # only the constant term may have a denominator
    for idx in (EisIndex(1, 3, 1, 2), EisIndex(2, 4, 0, 3), EisIndex(4, 5, 2, 1)):
        f = eis_qseries(idx, 25)
        for n in f.nonzero_exponents():
            if n == 0:
                continue
            assert all(c.denominator == 1 for c in f.coeff(n).coeffs), (idx, n)


@pytest.mark.parametrize("k,n,c1,c2,z", [
    (4, 3, 1, 2, 0.5 + 1.5j),
    (5, 2, 1, 1, -0.25 + 0.9j),
])
def test_expansion_against_lattice_sum(k, n, c1, c2, z):
    from eisenlab.quasiforms import eis_series, eval_at

    got = complex(eval_at(eis_series(EisIndex(k, n, c1, c2), 40 * n), z, 40))
    want = lattice_value(k, n, c1, c2, z, 300)
    assert abs(got - want) < 1e-8


# -- rescaled torsion indices ---------------------------------------------


@pytest.mark.parametrize("k,n,c1,c2,t", [
    (3, 3, 1, 2, 5),
    (1, 3, 1, 0, 2),
    (2, 2, 1, 1, 3),
    (4, 1, 0, 0, 5),
    (1, 5, 2, 3, 2),
])
def test_rescaled_index_is_the_same_function(k, n, c1, c2, t):
    # the verifiers move torsion points to their working level; the series
    # at (k, N t, c1 t, c2 t) must be the series at (k, N, c1, c2)
    from eisenlab.quasiforms import QuasiForm, eval_at

    b = 8 * n
    f = eis_qseries(EisIndex(k, n, c1, c2), b)
    up = eis_qseries(EisIndex(k, n * t, c1 * t, c2 * t), b * t)
    assert all(e % t == 0 for e in up.nonzero_exponents())
    a = eval_at(QuasiForm(k, n, b, (f,)), 2j)
    c = eval_at(QuasiForm(k, n * t, b * t, (up,)), 2j)
    with mpmath.workdps(70):
        assert abs(a - c) < mpmath.mpf("1e-50")
