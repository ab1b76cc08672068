"""Y-calculus, the raising operator, Eisenstein bases, exact span
solving, and the peeling certificates."""
import random
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisenlab import eisenstein
from eisenlab.cyclotomic import Cyclotomic
from eisenlab.eisenstein import (EisIndex, QSeries, cusp_constants, cusps,
                                 proven_truncation, sturm_truncation)
from eisenlab.oracles import exact_rref, exact_span_solve, kept_members
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
    columns,
    cusp_values,
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


def test_series_and_basis_caches_are_bounded():
    # a benchmark workload keeps at most 252 series and 7 bases at once
    # (the warm level-6 sweep), so no workload evicts
    series = eis_series.cache_parameters()["maxsize"]
    bases = eis_basis.cache_parameters()["maxsize"]
    assert series is not None and series >= 252
    assert bases is not None and bases >= 7
    # the cusp tables are per level and weight, the constants per index
    for cache in (cusps, cusp_constants, eisenstein.constant_term):
        assert cache.cache_parameters()["maxsize"] is not None


# -- the row reduction against the Gauss-Jordan oracle ----------------------


GRID = [(k, n) for k in range(1, 5) for n in range(1, 9)]


def grid_basis(weight, level):
    """The grid's basis at the least truncation that proves its relations,
    where the truncated members are as independent as the forms."""
    return eis_basis(weight, level, proven_truncation(weight, level))


@lru_cache(maxsize=None)
def oracle_rows(weight, level):
    return exact_rref(grid_basis(weight, level).members)


@pytest.mark.parametrize("weight, level", GRID)
def test_rref_matches_oracle(weight, level):
    basis = EisBasis(weight, level, proven_truncation(weight, level))
    assert kept_members(basis.rref()) == kept_members(oracle_rows(weight, level))


@pytest.mark.slow
def test_rref_matches_oracle_at_the_sturm_bound():
    basis = EisBasis(2, 7, sturm_truncation(2, 7))
    assert basis.truncation == 203
    assert kept_members(basis.rref()) == kept_members(exact_rref(basis.members))


def values_of(terms, weight, level):
    """What span_solve reads for a form with the formal sum terms."""
    return columns(cusp_values(terms, level), weight, 0)


def test_span_solve_recovers_a_member():
    basis = eis_basis(2, 3, 20)
    target = basis.members[2]
    sol = span_solve(target, basis, values_of([(1, basis.indices[2])], 2, 3))
    assert sol.in_span
    rebuilt = None
    for idx, c in sol.coefficients.items():
        term = basis.by_index[idx].scale(c)
        rebuilt = term if rebuilt is None else rebuilt + term
    assert rebuilt == target


def test_span_solve_zero_target():
    basis = EisBasis(2, 3, 20)  # uncached, unreduced
    z = QuasiForm(2, 3, 20, ())
    sol = span_solve(z, basis, values_of([], 2, 3))
    assert sol.in_span and not sol.coefficients
    assert sol.residual == z
    assert basis._rref is None  # zero needs no row reduction
    for other in (QuasiForm(3, 3, 20, ()), QuasiForm(2, 3, 21, ())):
        with pytest.raises(ValueError):
            span_solve(other, basis, values_of([], 2, 3))


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
    values = values_of(list(zip(coeffs, basis.indices)), 1, 3)
    if perturb:
        bump = QSeries(3, 15, {11: Cyclotomic.zeta(3)})
        target = target + QuasiForm(1, 3, 15, (bump,))
    sol = span_solve(target, basis, values)
    recon = QuasiForm(1, 3, 15, (sol.residual.component(0),))
    for idx, c in sol.coefficients.items():
        recon = recon + basis.by_index[idx].scale(c)
    assert recon == target
    assert sol.in_span != perturb


def test_span_solve_weight_two_sees_the_y_row():
    # a bare holomorphic copy of a completed series is NOT in the span,
    # even read with the completed series' own values: its missing Y part
    # is left over
    basis = eis_basis(2, 1, 20)
    holo_only = QuasiForm(2, 1, 20, (basis.members[0].component(0),))
    sol = span_solve(holo_only, basis, values_of([(1, basis.indices[0])], 2, 1))
    assert not sol.in_span


def test_span_solve_frame_checks():
    basis = eis_basis(2, 3, 20)
    values = values_of([], 2, 3)
    with pytest.raises(ValueError):
        span_solve(QuasiForm(2, 3, 21, ()), basis, values)
    with pytest.raises(ValueError):
        span_solve(QuasiForm(4, 3, 20, ()), basis, values)
    with pytest.raises(ValueError):
        span_solve(basis.members[0], basis, values[:-1])


def random_target(basis, rng, in_span):
    """A random combination of about half the members with small
    coefficients in Q(zeta_N), and its formal sum; out of the span, plus
    random entries at two random keys of Y-degree 0 or 1, which the
    formal sum leaves out."""
    k, n, b = basis.weight, basis.level, basis.truncation
    phi = len(Cyclotomic.one(n).coeffs)

    def number():
        return Cyclotomic(n, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                   for _ in range(phi)))

    target, terms = QuasiForm(k, n, b, ()), []
    for idx, member in zip(basis.indices, basis.members):
        if rng.random() < 0.5:
            c = number()
            target = target + member.scale(c)
            terms.append((c, idx))
    if not in_span:
        for _ in range(2):
            comps = [QSeries.zero(n, b), QSeries.zero(n, b)]
            comps[rng.randint(0, 1)] = QSeries(n, b, {rng.randint(0, b): number()})
            target = target + QuasiForm(k, n, b, tuple(comps))
    return target, terms


@pytest.mark.parametrize("weight, level", GRID)
def test_span_solve_matches_the_gauss_jordan_oracle(weight, level):
    # in the span, the coefficients are the oracle's; outside it, the
    # solve never claims the target, and target = combination + residual
    basis = grid_basis(weight, level)
    rng = random.Random(1000 * weight + level)
    for in_span in (True, False, True, False):
        target, terms = random_target(basis, rng, in_span)
        sol = span_solve(target, basis, values_of(terms, weight, level))
        assert sol.in_span == in_span
        if in_span:
            want = exact_span_solve(target, basis, oracle_rows(weight, level))
            assert sol.coefficients == want.coefficients
        rebuilt = sol.residual
        for idx, c in sol.coefficients.items():
            rebuilt = rebuilt + basis.by_index[idx].scale(c)
        assert rebuilt == target


def test_span_solve_makes_no_cyclotomic_products(monkeypatch):
    # the coefficients and the residual both run on integer vectors
    basis = eis_basis(2, 5, sturm_truncation(2, 5))
    basis.rref()
    calls = []
    real_mul = Cyclotomic.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return real_mul(self, other)

    for in_span in (True, False):
        target, terms = random_target(basis, random.Random(in_span), in_span)
        values = values_of(terms, 2, 5)
        monkeypatch.setattr(Cyclotomic, "__mul__", counting_mul)
        monkeypatch.setattr(Cyclotomic, "__rmul__", counting_mul)
        sol = span_solve(target, basis, values)
        monkeypatch.undo()
        assert sol.in_span == in_span
        assert sol.coefficients
    assert calls == []


def test_peel_passthrough_depth_zero():
    idx = EisIndex(3, 2, 1, 0)
    f = eis_series(idx, 18)
    remainder, cert = peel(f, cusp_values([(1, idx)], 2))
    assert remainder == f.component(0)
    assert cert == []


def test_peel_inverts_delta():
    idx = EisIndex(1, 3, 1, 0)
    src = eis_series(idx, 21)
    f = delta(src)  # weight 3, depth 1
    # delta_1 E has the constants (0, -c0(E|gamma), 0) at gamma
    zero = Cyclotomic.zero(3)
    row = cusp_constants(1, 3)[1, 0]
    values = [[zero, -row.get(col, zero), zero] for col in range(len(cusps(3)))]
    remainder, cert = peel(f, values)
    assert remainder.is_zero()
    assert cert
    rebuilt = QuasiForm(f.weight, f.level, f.truncation, (remainder,))
    for idx, scale in cert:
        rebuilt = rebuilt + delta(eis_series(idx, f.truncation)).scale(scale)
    assert rebuilt == f


def test_peel_depth_two_certificate():
    idx = EisIndex(2, 1, 0, 0)
    e2 = eis_series(idx, 14)
    f = quasi_mul(e2, e2)
    remainder, cert = peel(f, cusp_values([(1, idx, idx)], 1))
    assert any(idx.weight == 2 for idx, _ in cert)
    rebuilt = QuasiForm(4, 1, 14, (remainder,))
    for idx, scale in cert:
        rebuilt = rebuilt + delta(eis_series(idx, f.truncation)).scale(scale)
    assert rebuilt == f


def test_peel_unsupported_weights():
    b = 10
    zero = QSeries.zero(1, b)
    one = const_series(1, b, 1)
    values = cusp_values([], 1)
    with pytest.raises(UnsupportedWeight):
        peel(QuasiForm(5, 1, b, (zero, zero, one)), values)  # depth 2 needs k = 4
    with pytest.raises(UnsupportedWeight):
        peel(QuasiForm(2, 1, b, (zero, one)), values)  # depth 1 needs k >= 3


def test_peel_rejects_foreign_components():
    b = 14
    q1 = QSeries(1, b, {1: Cyclotomic.one(1)})
    values = cusp_values([], 1)
    with pytest.raises(TopComponentNotEisenstein):
        peel(QuasiForm(4, 1, b, (QSeries.zero(1, b), QSeries.zero(1, b), q1)),
             values)
    with pytest.raises(TopComponentNotEisenstein):
        peel(QuasiForm(3, 1, b, (QSeries.zero(1, b), q1)), values)


def test_certify_orthogonal_tautology():
    idx = EisIndex(2, 3, 1, 1)
    sol, cert = certify_orthogonal(eis_series(idx, 20), [(1, idx)])
    assert sol.in_span
    assert list(sol.coefficients) == [idx]


def test_certify_orthogonal_builds_no_basis_for_a_zero_target(basis_builds,
                                                              monkeypatch):
    calls = []
    real_constant_term = eisenstein.constant_term

    def counting_constant_term(idx):
        calls.append(idx)
        return real_constant_term(idx)

    monkeypatch.setattr(eisenstein, "constant_term", counting_constant_term)
    eisenstein.cusp_constants.cache_clear()
    for weight, level in ((2, 3), (3, 4), (4, 2)):
        zero = QuasiForm(weight, level, 12, ())
        terms = [(1, EisIndex(1, level, 1, 0), EisIndex(weight - 1, level, 0, 1))]
        sol, cert = certify_orthogonal(zero, terms)
        assert sol.in_span and not sol.coefficients and not cert
        assert sol.residual == zero
    assert basis_builds == []
    assert calls == []  # no cusp value either
    # a nonzero form of depth 0 needs its weight's basis and no other
    idx = EisIndex(3, 4, 1, 0)
    certify_orthogonal(eis_series(idx, 12), [(1, idx)])
    assert basis_builds == [(3, 4, 12)]
    assert calls


def test_certify_single_product_genus_split():
    # one weight-2 product: inside the Eisenstein span at level 5 (no
    # cusp forms), outside at level 6 (genus 1)
    results = []
    for n in (5, 6):
        b = sturm_truncation(2, n)
        a, c = EisIndex(1, n, 1, 0), EisIndex(1, n, 0, 1)
        f = quasi_mul(eis_series(a, b), eis_series(c, b))
        results.append(certify_orthogonal(f, [(1, a, c)])[0])
    sol5, sol6 = results
    assert sol5.in_span
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
