"""Y-calculus, the raising operator, Eisenstein bases, exact span
solving, and the peeling certificates."""
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisenlab import cyclotomic
from eisenlab.cyclotomic import Cyclotomic
from eisenlab.eisenstein import EisIndex, QSeries, sturm_truncation
from eisenlab.quasiforms import (
    MAX_DEPTH,
    DepthOverflow,
    EisBasis,
    QuasiForm,
    SpanSolution,
    TopComponentNotEisenstein,
    UnsupportedWeight,
    certify_orthogonal,
    check_s_transform,
    delta,
    eis_basis,
    eis_series,
    eval_at,
    peel,
    quasi_mul,
    span_solve,
    theta,
)


def const_series(level, b, value):
    return QSeries.const(level, b, value)


def test_quasiform_trims_and_depth():
    b = 10
    zero = QSeries.zero(1, b)
    f = QuasiForm(2, 1, b, (const_series(1, b, 1), zero, zero))
    assert f.depth == 0
    assert f.component(5).is_zero()
    g = QuasiForm(2, 1, b, (zero, const_series(1, b, 2)))
    assert g.depth == 1
    assert not g.is_zero()
    assert QuasiForm(2, 1, b, ()).is_zero()


def test_quasiform_add_requires_same_weight():
    b = 10
    f = QuasiForm(2, 1, b, (const_series(1, b, 1),))
    g = QuasiForm(4, 1, b, (const_series(1, b, 1),))
    with pytest.raises(ValueError):
        f + g


def test_quasi_mul_is_y_polynomial_product():
    b = 10
    a = Cyclotomic.from_rational(1, 3)
    c = Cyclotomic.from_rational(1, 5)
    one = const_series(1, b, 1)
    f = QuasiForm(2, 1, b, (const_series(1, b, 3), one))  # 3 + Y
    g = QuasiForm(2, 1, b, (const_series(1, b, 5), one))  # 5 + Y
    prod = quasi_mul(f, g)
    assert prod.weight == 4
    assert prod.component(0).coeff(0) == a * c
    assert prod.component(1).coeff(0) == Fraction(8)
    assert prod.component(2).coeff(0) == 1


def test_quasi_mul_depth_cap():
    e2 = eis_series(EisIndex(2, 1, 0, 0), 10)
    four = quasi_mul(e2, e2)
    assert four.depth == MAX_DEPTH
    with pytest.raises(DepthOverflow):
        quasi_mul(four, e2)


def test_theta_action():
    b = 10
    # theta(q + cY) = (1/5) q + c Y^2 at level 5
    q1 = QSeries(5, b, {1: Cyclotomic.one(5)})
    f = QuasiForm(2, 5, b, (q1, const_series(5, b, 7)))
    tf = theta(f)
    assert tf.weight == 4
    assert tf.component(0).coeff(1) == Fraction(1, 5)
    assert tf.component(1).is_zero()
    assert tf.component(2).coeff(0) == Fraction(7)


def test_delta_explicit():
    b = 10
    h = QSeries(1, b, {2: Cyclotomic.one(1)})
    f = QuasiForm(2, 1, b, (h, const_series(1, b, 1)))  # h + Y
    d = delta(f)  # weight 2 -> delta_2
    assert d.component(0) == h.theta()
    assert d.component(1) == h.scale(-2)
    assert d.component(2) == const_series(1, b, -1)
    # delta_0 of a constant vanishes
    c = QuasiForm(0, 1, b, (const_series(1, b, 9),))
    assert delta(c).is_zero()


@pytest.mark.parametrize("kl", [(1, 1), (1, 2), (2, 1), (3, 1), (4, 2)])
def test_delta_leibniz(kl):
    k, l = kl
    b = 20
    f = eis_series(EisIndex(k, 3, 1, 0), b)
    g = eis_series(EisIndex(l, 3, 1, 2), b)
    lhs = delta(quasi_mul(f, g))
    rhs = quasi_mul(delta(f), g) + quasi_mul(f, delta(g))
    assert lhs == rhs


def test_theta_is_the_normalized_derivative():
    # central finite difference of the evaluated series
    f = eis_series(EisIndex(3, 5, 1, 2), 80)
    tf = theta(f)
    with mpmath.workdps(50):
        z = mpmath.mpc("0.3", "1.1")
        h = mpmath.mpf("1e-15")
        up = eval_at(f, z + h, 40)
        down = eval_at(f, z - h, 40)
        want = (up - down) / (2 * h) / (2j * mpmath.pi)
        got = eval_at(tf, z, 40)
        assert abs(got - want) < mpmath.mpf("1e-20")


def test_eis_series_weight_two_completion():
    f = eis_series(EisIndex(2, 3, 1, 2), 15)
    assert f.depth == 1
    assert f.component(1) == const_series(3, 15, 1)
    g = eis_series(EisIndex(1, 3, 1, 2), 15)
    assert g.depth == 0


def test_eis_basis_membership():
    b1 = eis_basis(2, 1, 12)
    assert len(b1) == 1
    assert b1.indices == (EisIndex(2, 1, 0, 0),)
    # level-1 odd weights vanish identically and (0,0) is dropped
    assert len(eis_basis(3, 1, 12)) == 0
    # two-torsion weight 1: all three nonzero indices kept though the
    # series are identically zero by parity
    b2 = eis_basis(1, 2, 12)
    assert len(b2) == 3
    assert all(m.is_zero() for m in b2.members)
    b3 = eis_basis(1, 3, 12)
    assert len(b3) == 8


def test_rref_inverts_each_pivot_once(monkeypatch):
    basis = EisBasis(3, 5, sturm_truncation(3, 5))  # uncached, unreduced
    real = cyclotomic.cyclo_invert
    calls = []

    def counting(x):
        calls.append(x)
        return real(x)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "eisenlab"
                and getattr(module, "cyclo_invert", None) is real):
            monkeypatch.setattr(module, "cyclo_invert", counting)
    rows = basis.rref()
    assert 1 < len(rows) < len(basis)
    assert len(calls) == len(rows)


def test_span_solve_recovers_a_member():
    basis = eis_basis(2, 3, 20)
    target = basis.members[2]
    sol = span_solve(target, basis)
    assert sol.in_span
    rebuilt = None
    for idx, c in sol.coefficients.items():
        term = basis.by_index[idx].scale(c)
        rebuilt = term if rebuilt is None else rebuilt + term
    assert rebuilt == target


def test_span_solve_zero_target():
    basis = eis_basis(2, 3, 20)
    z = QuasiForm(2, 3, 20, ())
    sol = span_solve(z, basis)
    assert sol.in_span and not sol.coefficients


small_coeffs = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
    min_size=8, max_size=8)


@settings(max_examples=20)
@given(small_coeffs, st.booleans())
def test_span_solve_soundness(coeffs, perturb):
    """target = sum(coefficients * members) + residual, exactly."""
    basis = eis_basis(1, 3, 15)
    target = QuasiForm(1, 3, 15, ())
    for c, member in zip(coeffs, basis.members):
        if c:
            target = target + member.scale(c)
    if perturb:
        bump = QSeries(3, 15, {11: Cyclotomic.zeta(3)})
        target = target + QuasiForm(1, 3, 15, (bump,))
    sol = span_solve(target, basis)
    recon = QuasiForm(1, 3, 15, (sol.residual.component(0),))
    for idx, c in sol.coefficients.items():
        recon = recon + basis.by_index[idx].scale(c)
    assert recon == target
    if not perturb:
        assert sol.in_span


def test_span_solve_weight_two_sees_the_y_row():
    # a bare holomorphic copy of a completed series is NOT in the span:
    # the Y rows force coefficient sums to zero
    basis = eis_basis(2, 1, 20)
    holo_only = QuasiForm(2, 1, 20, (basis.members[0].component(0),))
    sol = span_solve(holo_only, basis)
    assert not sol.in_span


def test_span_solve_frame_checks():
    basis = eis_basis(2, 3, 20)
    with pytest.raises(ValueError):
        span_solve(QuasiForm(2, 3, 21, ()), basis)
    with pytest.raises(ValueError):
        span_solve(QuasiForm(4, 3, 20, ()), basis)


def test_peel_passthrough_depth_zero():
    f = eis_series(EisIndex(3, 2, 1, 0), 18)
    remainder, cert = peel(f)
    assert remainder == f.component(0)
    assert cert == []


def test_peel_inverts_delta():
    src = eis_series(EisIndex(1, 3, 1, 0), 21)
    f = delta(src)  # weight 3, depth 1
    remainder, cert = peel(f)
    assert remainder.is_zero()
    assert cert
    rebuilt = QuasiForm(f.weight, f.level, f.truncation, (remainder,))
    for idx, scale in cert:
        rebuilt = rebuilt + delta(eis_series(idx, f.truncation)).scale(scale)
    assert rebuilt == f


def test_peel_depth_two_certificate():
    e2 = eis_series(EisIndex(2, 1, 0, 0), 14)
    f = quasi_mul(e2, e2)
    remainder, cert = peel(f)
    assert any(idx.weight == 2 for idx, _ in cert)
    rebuilt = QuasiForm(4, 1, 14, (remainder,))
    for idx, scale in cert:
        rebuilt = rebuilt + delta(eis_series(idx, f.truncation)).scale(scale)
    assert rebuilt == f


def test_peel_unsupported_weights():
    b = 10
    zero = QSeries.zero(1, b)
    one = const_series(1, b, 1)
    with pytest.raises(UnsupportedWeight):
        peel(QuasiForm(5, 1, b, (zero, zero, one)))  # depth 2 needs k = 4
    with pytest.raises(UnsupportedWeight):
        peel(QuasiForm(2, 1, b, (zero, one)))  # depth 1 needs k >= 3


def test_peel_rejects_foreign_components():
    b = 14
    q1 = QSeries(1, b, {1: Cyclotomic.one(1)})
    with pytest.raises(TopComponentNotEisenstein):
        peel(QuasiForm(4, 1, b, (QSeries.zero(1, b), QSeries.zero(1, b), q1)))
    with pytest.raises(TopComponentNotEisenstein):
        peel(QuasiForm(3, 1, b, (QSeries.zero(1, b), q1)))


def test_certify_orthogonal_tautology():
    f = eis_series(EisIndex(2, 3, 1, 1), 20)
    sol, cert = certify_orthogonal(f)
    assert sol.in_span
    assert list(sol.coefficients) == [EisIndex(2, 3, 1, 1)]


def test_certify_single_product_genus_split():
    # one weight-2 product: inside the Eisenstein span at level 5 (no
    # cusp forms), outside at level 6 (genus 1)
    b5 = sturm_truncation(2, 5)
    f5 = quasi_mul(eis_series(EisIndex(1, 5, 1, 0), b5),
                   eis_series(EisIndex(1, 5, 0, 1), b5))
    sol5, _ = certify_orthogonal(f5)
    assert sol5.in_span

    b6 = sturm_truncation(2, 6)
    f6 = quasi_mul(eis_series(EisIndex(1, 6, 1, 0), b6),
                   eis_series(EisIndex(1, 6, 0, 1), b6))
    sol6, _ = certify_orthogonal(f6)
    assert not sol6.in_span
    assert sol6.residual.component(0).nonzero_exponents()


def test_eval_at_requires_upper_half_plane():
    f = eis_series(EisIndex(2, 1, 0, 0), 10)
    with pytest.raises(ValueError):
        eval_at(f, 1.0)
    with pytest.raises(ValueError):
        eval_at(f, 1 - 2j)


def test_eval_at_y_powers():
    b = 5
    f = QuasiForm(2, 1, b, (const_series(1, b, 1), const_series(1, b, 2)))
    got = eval_at(f, 1j, 30)
    with mpmath.workdps(40):
        want = 1 + 2 / (4 * mpmath.pi)
        assert abs(got - want) < mpmath.mpf("1e-25")


@pytest.mark.parametrize("idx", [
    EisIndex(4, 1, 0, 0),
    EisIndex(2, 1, 0, 0),
    EisIndex(1, 3, 1, 1),
    EisIndex(3, 4, 2, 1),
])
def test_s_transform_spot_checks(idx):
    ok, err = check_s_transform(idx)
    assert ok, err
