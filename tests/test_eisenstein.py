"""Fourier expansions: constants, rows, parity, Sturm depths, and the
level-rescaling map, cross-checked against direct lattice sums."""
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisenlab.cyclotomic import Cyclotomic, cyclo_embed, cyclo_reduce
from eisenlab.eisenstein import (
    EisIndex,
    InvalidIndex,
    NotDivisible,
    QSeries,
    bernoulli,
    constant_term,
    eis_qseries,
    index_mu,
    rescale_level,
    sturm_truncation,
)
from eisenlab.oracles import (
    bernoulli_akiyama,
    lattice_value,
    naive_convolution,
    row_constant,
    sigma,
)


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
    assert (f - f).is_zero()
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
    # coefficient conductors below the level embed upward on construction
    g = QSeries(4, 10, {1: Cyclotomic.from_rational(2, 3)})
    assert g.coeff(1).conductor == 4
    with pytest.raises(ValueError):
        QSeries(4, 10, {1: Cyclotomic.from_rational(3, 1)})


series_entries = st.dictionaries(
    st.integers(0, 11),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    max_size=5,
)


@given(st.sampled_from((1, 2, 3, 4)), series_entries, series_entries)
def test_qseries_mul_matches_schoolbook(level, fe, ge):
    b = 12
    f = qs(level, b, fe)
    g = qs(level, b, ge)
    prod = f * g
    want = naive_convolution(f.coeffs, g.coeffs, b)
    assert prod.coeffs == want
    assert prod.truncation == b


def test_qseries_mul_truncation_is_inclusive():
    f = qs(1, 5, {3: 1})
    assert (f * f).is_zero()  # exponent 6 falls outside the bound
    g = qs(1, 6, {3: 1})
    assert (g * g).nonzero_exponents() == [6]


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
    want = (Cyclotomic.one(5) + z) / (Cyclotomic.one(5) - z) * Fraction(1, 2)
    assert constant_term(EisIndex(1, 5, 0, 1)) == want


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("n,c2", [(3, 1), (4, 1), (5, 2), (6, 1), (7, 3),
                                  (8, 3), (12, 5)])
def test_constant_cotangent_vs_row_sum(k, n, c2):
    got = cyclo_embed(constant_term(EisIndex(k, n, 0, c2)), 40)
    want = row_constant(k, n, c2)
    assert abs(complex(got) - want) < 1e-30


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


@settings(max_examples=40)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 5), st.integers(0, 5))
def test_parity(k, n, c1, c2):
    idx = EisIndex(k, n, c1, c2)
    b = 3 * n
    assert eis_qseries(idx.negate(), b) == eis_qseries(idx, b).scale((-1) ** k)


def test_truncation_extension_is_consistent():
    idx = EisIndex(3, 4, 1, 2)
    short = eis_qseries(idx, 12)
    longer = eis_qseries(idx, 30)
    for n in range(12):
        assert short.coeff(n) == longer.coeff(n)


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


# -- level rescaling -------------------------------------------------------


def test_rescale_exponent_map():
    f = eis_qseries(EisIndex(4, 1, 0, 0), 8)
    up = rescale_level(f, 5)
    assert up.level == 5 and up.truncation == 40
    assert up.nonzero_exponents() == [5 * n for n in f.nonzero_exponents()]
    for n in f.nonzero_exponents():
        assert up.coeff(5 * n) == f.coeff(n).embed_to(5)
    assert rescale_level(f, 1) == f


def test_rescale_rejects_nondivisor():
    with pytest.raises(NotDivisible):
        rescale_level(eis_qseries(EisIndex(2, 5, 0, 0), 10), 3)


def test_rescale_numeric_consistency():
    # the same function read at level 3 and at level 15 evaluates equally
    from eisenlab.quasiforms import QuasiForm, eval_at

    idx = EisIndex(3, 3, 1, 2)
    f = eis_qseries(idx, 24)
    up = rescale_level(f, 15)
    z = 2j
    a = eval_at(QuasiForm(3, 3, 24, (f,)), z, 60)
    b = eval_at(QuasiForm(3, 15, 120, (up,)), z, 60)
    with mpmath.workdps(70):
        assert abs(a - b) < mpmath.mpf("1e-50")
