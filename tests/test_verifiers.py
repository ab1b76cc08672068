"""Torsion-point algebra, the weighted product sums, and the four
verification entry points."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisenlab.cli import report_payload
from eisenlab.eisenstein import (EisIndex, NotDivisible, proven_truncation,
                                 sturm_truncation)
from eisenlab.hull import NonCoprimeShear, hull_chain
from eisenlab.quasiforms import eis_series, quasi_mul
from eisenlab.verifiers import (
    INCONCLUSIVE,
    VERIFIED,
    LParams,
    TorsionPoint,
    build_L,
    torsion_translates,
    verify_hecke_trace,
    verify_prop21,
    verify_three_term_w2,
    verify_two_term,
)


# -- torsion points --------------------------------------------------------


def test_torsion_point_reduction_and_algebra():
    t = TorsionPoint(5, 7, -2)
    assert (t.c1, t.c2) == (2, 3)
    assert t.label() == "2,3@5"
    u = TorsionPoint(5, 4, 4)
    assert (t + u) == TorsionPoint(5, 1, 2)
    assert (t - u) == TorsionPoint(5, 3, 4)
    assert -t == TorsionPoint(5, 3, 2)
    assert 3 * t == TorsionPoint(5, 6, 9)
    assert t * 3 == 3 * t
    assert TorsionPoint(5, 0, 0).is_zero() and not t.is_zero()
    assert t.to_index(4) == EisIndex(4, 5, 2, 3)


def test_torsion_point_rescale():
    t = TorsionPoint(3, 1, 2)
    up = t.rescale(6)
    assert up == TorsionPoint(6, 2, 4)
    assert up.rescale(6) is up or up.rescale(6) == up
    with pytest.raises(NotDivisible):
        t.rescale(4)


def test_torsion_point_mixed_denominators_rejected():
    with pytest.raises(ValueError):
        TorsionPoint(3, 1, 0) + TorsionPoint(6, 1, 0)


def test_lparams_validation():
    lam = TorsionPoint(3, 1, 0)
    mu = TorsionPoint(3, 0, 1)
    params = LParams(lam, mu, 1, "2/3", 4)
    assert params.p == Fraction(1) and params.q == Fraction(2, 3)
    with pytest.raises(ValueError):
        LParams(lam, mu, 1, 1, 1)


# -- the weighted product sum ----------------------------------------------


def test_build_L_weight_two_ignores_pq():
    lam = TorsionPoint(3, 1, 0)
    mu = TorsionPoint(3, 0, 1)
    b = 20
    direct = quasi_mul(eis_series(lam.to_index(1), b),
                       eis_series(mu.to_index(1), b))
    for p, q in ((0, 0), (1, 1), (7, -3)):
        assert build_L(LParams(lam, mu, p, q, 2), 3, b) == direct


def test_build_L_weight_three_expansion():
    lam = TorsionPoint(3, 1, 0)
    mu = TorsionPoint(3, 0, 1)
    b = 20
    p, q = Fraction(2), Fraction(-5)
    got = build_L(LParams(lam, mu, p, q, 3), 3, b)
    want = (quasi_mul(eis_series(lam.to_index(1), b),
                      eis_series(mu.to_index(2), b)).scale(q)
            + quasi_mul(eis_series(lam.to_index(2), b),
                        eis_series(mu.to_index(1), b)).scale(p))
    assert got == want


def test_build_L_pq_scale_covariance():
    # scaling (p, q) by t scales every splitting term by t^{k-2}
    lam = TorsionPoint(2, 1, 0)
    mu = TorsionPoint(2, 0, 1)
    b = 16
    t = Fraction(3)
    for k in (3, 4, 5):
        base = build_L(LParams(lam, mu, 2, -1, k), 2, b)
        scaled = build_L(LParams(lam, mu, 2 * t, -t, k), 2, b)
        assert scaled == base.scale(t ** (k - 2))


def test_build_L_depth_profile():
    lam = TorsionPoint(2, 1, 0)
    mu = TorsionPoint(2, 0, 1)
    b = 16
    # both weight-2 factors meet only at k = 4
    assert build_L(LParams(lam, mu, 1, 1, 4), 2, b).depth == 2
    assert build_L(LParams(lam, mu, 1, 1, 5), 2, b).depth <= 1
    # p = q = 0 zeroes every splitting of odd weight >= 3
    assert build_L(LParams(lam, mu, 0, 0, 3), 2, b).is_zero()
    # at k = 4 the middle splitting carries p*q, so it dies as well
    assert build_L(LParams(lam, mu, 0, 0, 4), 2, b).is_zero()


def test_build_L_rescales_points():
    lam = TorsionPoint(2, 1, 0)
    mu = TorsionPoint(2, 0, 1)
    b = 24
    got = build_L(LParams(lam, mu, 1, 1, 2), 4, b)
    want = quasi_mul(eis_series(EisIndex(1, 4, 2, 0), b),
                     eis_series(EisIndex(1, 4, 0, 2), b))
    assert got == want


# -- two-term --------------------------------------------------------------


@settings(max_examples=15)
@given(st.sampled_from((2, 3, 4, 5, 6)), st.tuples(
    st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)))
def test_two_term_always_verifies(n, coords):
    a1, a2, b1, b2 = coords
    report = verify_two_term(TorsionPoint(n, a1, a2), TorsionPoint(n, b1, b2), n)
    assert report.status == VERIFIED
    assert report.defect.residual.is_zero()
    assert not report.defect.coefficients
    assert report.certificate == []


def test_two_term_report_shape():
    report = verify_two_term(TorsionPoint(3, 1, 2), TorsionPoint(3, 2, 0), 3)
    assert report.claim_id == "two_term"
    assert report.parameters == {"lam": "1,2@3", "mu": "2,0@3", "n_work": 3}
    assert report.level == 3
    assert report.truncation == sturm_truncation(2, 3)
    assert report.status == VERIFIED
    assert report.elapsed_ms >= 0.0


def test_two_term_truncation_override():
    report = verify_two_term(TorsionPoint(3, 1, 2), TorsionPoint(3, 2, 0), 3, 9)
    assert report.truncation == 9


def test_no_verified_below_the_proven_truncation():
    # each claim holds, and is VERIFIED at the bound itself; one exponent
    # less proves nothing, whatever the comparison finds
    lam, mu = TorsionPoint(5, 1, 0), TorsionPoint(5, 0, 1)
    one = TorsionPoint(1, 0, 0)
    prop21 = LParams(TorsionPoint(3, 1, 0), TorsionPoint(3, 0, 1), 1, 2, 3)
    claims = [  # (claim at truncation b, weight, level)
        (lambda b: verify_two_term(lam, mu, 5, b), 2, 5),
        (lambda b: verify_three_term_w2(lam, mu, 5, b), 2, 5),
        (lambda b: verify_prop21(prop21, 3, b), 3, 3),
        (lambda b: verify_hecke_trace(2, 1, one, one, 2, 1, 1, b), 2, 2),
    ]
    for claim, weight, level in claims:
        bound = proven_truncation(weight, level)
        assert claim(bound).status == VERIFIED
        below = claim(bound - 1)
        assert below.status == INCONCLUSIVE
        assert below.defect.in_span


# -- three-term ------------------------------------------------------------


def test_three_term_frozen_cases():
    for n, (a, b) in ((3, ((1, 0), (1, 1))), (5, ((1, 2), (2, 1)))):
        lam = TorsionPoint(n, *a)
        mu = TorsionPoint(n, *b)
        report = verify_three_term_w2(lam, mu, n)
        assert report.status == VERIFIED
        assert report.defect.residual.is_zero()
        assert report.defect.coefficients  # relation holds only mod Eis
        assert report.claim_id == "three_term_w2"


def test_three_term_defect_reconstructs_the_sum():
    n = 5
    lam = TorsionPoint(n, 1, 0)
    mu = TorsionPoint(n, 0, 1)
    report = verify_three_term_w2(lam, mu, n)
    assert report.status == VERIFIED
    b = report.truncation
    nu = -(lam + mu)
    total = None
    for x, y in ((lam, mu), (mu, nu), (nu, lam)):
        term = quasi_mul(eis_series(x.to_index(1), b),
                         eis_series(y.to_index(1), b))
        total = term if total is None else total + term
    assert not total.is_zero()
    basis_members = {idx: eis_series(idx, b) for idx in report.defect.coefficients}
    rebuilt = None
    for idx, c in report.defect.coefficients.items():
        term = basis_members[idx].scale(c)
        rebuilt = term if rebuilt is None else rebuilt + term
    assert rebuilt == total


@pytest.mark.parametrize("lam,mu", [
    ((0, 0), (1, 0)),   # lam = 0
    ((1, 0), (0, 0)),   # mu = 0
    ((1, 0), (4, 0)),   # nu = -(lam+mu) = 0
])
def test_three_term_degenerate_inputs(lam, mu):
    report = verify_three_term_w2(TorsionPoint(5, *lam), TorsionPoint(5, *mu), 5)
    assert report.status == INCONCLUSIVE
    assert not report.defect.coefficients
    assert report.certificate == []


# -- the cyclic weighted sum -----------------------------------------------


def test_prop21_weight_two_delegates():
    from eisenlab.cli import report_payload

    lam = TorsionPoint(5, 1, 2)
    mu = TorsionPoint(5, 2, 1)
    via_prop = verify_prop21(LParams(lam, mu, 7, -2, 2), 5)
    direct = verify_three_term_w2(lam, mu, 5)
    assert report_payload(via_prop) == report_payload(direct)


def test_prop21_verified_and_depth2():
    lam = TorsionPoint(2, 1, 0)
    mu = TorsionPoint(2, 0, 1)
    r3 = verify_prop21(LParams(lam, mu, 2, -1, 3), 2)
    assert r3.status == VERIFIED
    r4 = verify_prop21(LParams(lam, mu, 2, -1, 4), 2)
    assert r4.status == VERIFIED
    assert any(gen.weight == 2 for gen, _ in r4.certificate)
    assert r4.parameters["k"] == 4
    assert r4.parameters["p"] == "2"


def test_prop21_nontrivial_at_level_three():
    lam = TorsionPoint(3, 1, 0)
    mu = TorsionPoint(3, 0, 1)
    report = verify_prop21(LParams(lam, mu, 1, 1, 3), 3)
    assert report.status == VERIFIED
    assert report.claim_id == "prop21"
    assert report.parameters["q"] == "1"


# -- the trace identity ----------------------------------------------------


def test_torsion_translates_enumeration():
    ts = torsion_translates(3, 2)
    assert len(ts) == 9
    assert len(set(ts)) == 9
    assert all(t.denominator == 6 for t in ts)
    # each translate is killed by multiplication with n_sub
    assert all((3 * t).is_zero() for t in ts)


def test_hecke_rejects_bad_inputs():
    lam = TorsionPoint(1, 0, 0)
    with pytest.raises(NonCoprimeShear):
        verify_hecke_trace(4, 2, lam, lam, 2, 1, 1)
    with pytest.raises(ValueError):
        verify_hecke_trace(2, 1, TorsionPoint(2, 1, 0), TorsionPoint(3, 1, 0),
                           2, 1, 1)
    with pytest.raises(ValueError):
        verify_hecke_trace(0, 1, lam, lam, 2, 1, 1)


def test_hecke_small_instances():
    lam = TorsionPoint(1, 0, 0)
    for n_sub, s in ((2, 1), (3, 1), (3, 2)):
        report = verify_hecke_trace(n_sub, s, lam, lam, 2, 1, 1)
        assert report.status == VERIFIED, (n_sub, s)
        assert report.level == n_sub


def test_hecke_level_ten_zero_target_builds_no_basis(basis_builds):
    report = verify_hecke_trace(5, 3, TorsionPoint(2, 1, 0),
                                TorsionPoint(2, 0, 1), 3, 1, 1, truncation=91)
    assert basis_builds == []
    assert report_payload(report) == {
        "claim_id": "hecke_trace",
        "parameters": {"n_sub": 5, "shear": 3, "lam": "1,0@2",
                       "mu": "0,1@2", "p": "1", "q": "1", "k": 3,
                       "n_work": 10},
        "status": "VERIFIED",
        "defect": {"coefficients": [], "certificate": [],
                   "residual_nonzero_exponents": []},
        "truncation": 91, "level": 10, "elapsed_ms": 0}


def test_hecke_flagship_instance():
    # the displayed (N_sub, S) = (5, 3) trace at weight 2
    lam = TorsionPoint(1, 0, 0)
    report = verify_hecke_trace(5, 3, lam, lam, 2, 1, 1)
    assert report.status == VERIFIED
    assert report.level == 5
    assert report.parameters["shear"] == 3
    # its hull chain is the one the figure shows
    assert hull_chain(5, 3).vectors == ((5, 0), (3, 1), (1, 2), (0, 5))


def test_hecke_nontrivial_torsion():
    report = verify_hecke_trace(2, 1, TorsionPoint(2, 1, 0),
                                TorsionPoint(2, 0, 1), 3, 1, 1)
    assert report.status == VERIFIED
    assert report.level == 4


@pytest.mark.slow
def test_hecke_level_ten():
    report = verify_hecke_trace(5, 3, TorsionPoint(2, 1, 0),
                                TorsionPoint(2, 0, 1), 3, 1, 1)
    assert report.status == VERIFIED
    assert report.level == 10
    assert report.truncation == 910
