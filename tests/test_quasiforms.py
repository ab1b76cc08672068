"""Y-calculus, the raising operator, Eisenstein bases, exact span
solving, and the peeling certificates."""
import random
import sys
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisenlab import cyclotomic, quasiforms
from eisenlab.cyclotomic import Cyclotomic
from eisenlab.eisenstein import EisIndex, QSeries, sturm_truncation
from eisenlab.oracles import exact_rref, exact_span_solve, rows_of
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


def test_series_and_basis_caches_are_bounded():
    # a benchmark workload keeps at most 252 series and 7 bases at once
    # (the warm level-6 sweep), so no workload evicts
    series = eis_series.cache_parameters()["maxsize"]
    bases = eis_basis.cache_parameters()["maxsize"]
    assert series is not None and series >= 252
    assert bases is not None and bases >= 7


# -- the row reduction against the Gauss-Jordan oracle ----------------------


GRID = [(k, n) for k in range(1, 5) for n in range(1, 9)]


@lru_cache(maxsize=None)
def oracle_rows(weight, level):
    """exact_rref of the grid's basis at (weight, level, level + 4)."""
    return exact_rref(eis_basis(weight, level, level + 4).members)


@pytest.mark.parametrize("weight, level", GRID)
def test_rref_matches_oracle(weight, level):
    # pivots and tracks equal the oracle's, and so does each row rebuilt
    # from its track
    basis = EisBasis(weight, level, level + 4)
    assert rows_of(basis.members, basis.rref()) == oracle_rows(weight, level)


@pytest.mark.slow
def test_rref_matches_oracle_at_the_sturm_bound():
    basis = EisBasis(2, 7, sturm_truncation(2, 7))
    assert basis.truncation == 203
    assert rows_of(basis.members, basis.rref()) == exact_rref(basis.members)


def _watch_attempts(monkeypatch, change=None, windows=None):
    """Record how each proof attempt ends; change, if given, alters the
    first proposal in place before it is proved; windows, if given,
    collects the (bits, window) of each proposal.  A fourth proposal
    fails the test: every case here needs at most three."""
    real_propose, real_prove = quasiforms._propose, quasiforms._prove
    outcomes = []
    windows = [] if windows is None else windows

    def propose(packed, n, keys, window, bits):
        assert len(windows) < 3, f"no proof after {windows}"
        windows.append((bits, window))
        proposal = real_propose(packed, n, keys, window, bits)
        if change is not None and not outcomes:
            change(*proposal)
        return proposal

    def prove(*args):
        try:
            rows = real_prove(*args)
        except quasiforms._Rejected:
            outcomes.append("rejected")
            raise
        outcomes.append("proved")
        return rows

    monkeypatch.setattr(quasiforms, "_propose", propose)
    monkeypatch.setattr(quasiforms, "_prove", prove)
    return outcomes


@pytest.mark.parametrize("weight, level", [
    (8, 5), (5, 7),
    pytest.param(3, 12, marks=pytest.mark.slow),
    pytest.param(4, 10, marks=pytest.mark.slow)])
def test_rref_retries_on_a_larger_prime(weight, level, monkeypatch):
    # the tracks here are too tall to reconstruct modulo a 65-bit prime
    basis = EisBasis(weight, level, 60)
    real_propose = quasiforms._propose
    sizes = []

    def propose(packed, n, keys, window, bits):
        sizes.append(bits)
        return real_propose(packed, n, keys, window, bits)

    monkeypatch.setattr(quasiforms, "_propose", propose)
    assert rows_of(basis.members, basis.rref()) == exact_rref(basis.members)
    assert sizes[:2] == [64, 128]


def test_rref_widens_the_window_until_the_proof_passes(monkeypatch):
    # m_0 = 1 + q^3 and m_1 = 1 + 2 q^3 agree below the first window,
    # e < 2 (two members), so that proposal drops m_1 by m_1 - m_0 = q^3,
    # which the proof over every key rejects; e < 4 holds every key
    one = Cyclotomic.one(1)
    members = [QuasiForm(2, 1, 3, (QSeries(1, 3, {0: one, 3: c * one}),))
               for c in (1, 2)]
    windows = []
    outcomes = _watch_attempts(monkeypatch, windows=windows)
    pairs = quasiforms._row_reduce(members, 1)
    assert list(zip(windows, outcomes)) == [((64, 2), "rejected"),
                                            ((64, 4), "proved")]
    assert [pivot for pivot, _ in pairs] == [(0, 0), (0, 3)]
    assert rows_of(members, pairs) == exact_rref(members)


@pytest.mark.parametrize("which", ["row track", "dropped relation",
                                   "kept first track"])
def test_rref_rejects_a_changed_track_entry(which, monkeypatch):
    def change(pivots, firsts, tracks):
        dropped, kept = (next(t for t, p in enumerate(pivots)
                              if (p is None) == drop and len(firsts[t]) > 1)
                         for drop in (True, False))
        combo = {"row track": tracks[1], "dropped relation": firsts[dropped],
                 "kept first track": firsts[kept]}[which]
        key = min(combo)
        combo[key] = combo[key] + 1

    basis = EisBasis(2, 3, 20)
    outcomes = _watch_attempts(monkeypatch, change)
    assert rows_of(basis.members, basis.rref()) == exact_rref(basis.members)
    assert outcomes == ["rejected", "proved"]


@pytest.mark.parametrize("how", ["doubled", "plus the next row"])
def test_rref_rejects_a_row_that_is_not_reduced(how, monkeypatch):
    # doubled: 2 at its pivot; plus the row with the next pivot: 1 there
    def change(pivots, firsts, tracks):
        kept = [t for t, p in enumerate(pivots) if p is not None]
        low, next_ = sorted(range(len(kept)), key=lambda i: pivots[kept[i]])[:2]
        extra = dict(tracks[low] if how == "doubled" else tracks[next_])
        for t, c in extra.items():
            tracks[low][t] = tracks[low][t] + c if t in tracks[low] else c

    basis = EisBasis(2, 3, 20)
    outcomes = _watch_attempts(monkeypatch, change)
    assert rows_of(basis.members, basis.rref()) == exact_rref(basis.members)
    assert outcomes == ["rejected", "proved"]


def test_rref_rejects_pivots_found_in_another_order(monkeypatch):
    # Gauss-Jordan pivots m_0 = 1 + q^2 at q^0 and m_1 = 1 at q^2.  Pairing
    # m_0 with q^2 and m_1 with q^0 gives the same rows and tracks in the
    # other order; only m_0's first track, not 0 below q^2, shows it.
    one = Cyclotomic.one(1)
    members = [QuasiForm(2, 1, 2, (QSeries(1, 2, {0: one, 2: one}),)),
               QuasiForm(2, 1, 2, (QSeries(1, 2, {0: one}),))]

    def change(pivots, firsts, tracks):
        pivots[:] = [1, 0]
        firsts[:] = [{0: one}, {1: one}]
        tracks[:] = [{0: one, 1: -one}, {1: one}]

    outcomes = _watch_attempts(monkeypatch, change)
    pairs = quasiforms._row_reduce(members, 1)
    assert [pivot for pivot, _ in pairs] == [(0, 0), (0, 2)]
    assert rows_of(members, pairs) == exact_rref(members)
    assert outcomes == ["rejected", "proved"]


def test_rref_rejects_a_relation_with_a_later_member(monkeypatch):
    # E_(0,2) = E_(0,1) at even weight: the honest proposal keeps member 1
    # and drops member 2 by the relation m_2 - m_1.  Swapping their roles
    # keeps every combination the same, but member 1's relation then uses
    # the later member 2, which the greedy order forbids.
    basis = EisBasis(2, 3, 20)
    assert basis.members[1] == basis.members[2]

    def change(pivots, firsts, tracks):
        assert pivots[1] is not None and pivots[2] is None
        moved = {(2 if s == 1 else s): c for s, c in firsts[1].items()}
        pivots[1], pivots[2] = None, pivots[1]
        one = Cyclotomic.one(3)
        firsts[1], firsts[2] = {1: one, 2: -one}, moved
        for track in tracks:
            if 1 in track:
                track[2] = track.pop(1)

    outcomes = _watch_attempts(monkeypatch, change)
    assert rows_of(basis.members, basis.rref()) == exact_rref(basis.members)
    assert outcomes == ["rejected", "proved"]


def test_rref_makes_no_cyclotomic_products_or_inverses(monkeypatch):
    basis = EisBasis(2, 7, sturm_truncation(2, 7))  # uncached, unreduced
    calls = []
    real_invert, real_mul = cyclotomic.cyclo_invert, Cyclotomic.__mul__

    def counting_invert(x):
        calls.append("cyclo_invert")
        return real_invert(x)

    def counting_mul(self, other):
        calls.append("__mul__")
        return real_mul(self, other)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "eisenlab"
                and getattr(module, "cyclo_invert", None) is real_invert):
            monkeypatch.setattr(module, "cyclo_invert", counting_invert)
    monkeypatch.setattr(Cyclotomic, "__mul__", counting_mul)
    monkeypatch.setattr(Cyclotomic, "__rmul__", counting_mul)
    rows = basis.rref()
    assert len(rows) == 24
    assert calls == []


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
    basis = EisBasis(2, 3, 20)  # uncached, unreduced
    z = QuasiForm(2, 3, 20, ())
    sol = span_solve(z, basis)
    assert sol.in_span and not sol.coefficients
    assert sol.residual == z
    assert basis._rref is None  # zero needs no row reduction
    for other in (QuasiForm(3, 3, 20, ()), QuasiForm(2, 3, 21, ())):
        with pytest.raises(ValueError):
            span_solve(other, basis)


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


def random_target(basis, rng, in_span):
    """A random combination of about half the members with small
    coefficients in Q(zeta_N); out of the span, plus random entries at
    two random keys of Y-degree 0 or 1."""
    k, n, b = basis.weight, basis.level, basis.truncation
    phi = len(Cyclotomic.one(n).coeffs)

    def number():
        return Cyclotomic(n, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                   for _ in range(phi)))

    target = QuasiForm(k, n, b, ())
    for member in basis.members:
        if rng.random() < 0.5:
            target = target + member.scale(number())
    if not in_span:
        for _ in range(2):
            comps = [QSeries.zero(n, b), QSeries.zero(n, b)]
            comps[rng.randint(0, 1)] = QSeries(n, b, {rng.randint(0, b): number()})
            target = target + QuasiForm(k, n, b, tuple(comps))
    return target


@pytest.mark.parametrize("weight, level", GRID)
def test_span_solve_matches_the_gauss_jordan_oracle(weight, level):
    basis = eis_basis(weight, level, level + 4)
    rng = random.Random(1000 * weight + level)
    for in_span in (True, False, True, False):
        target = random_target(basis, rng, in_span)
        sol = span_solve(target, basis)
        want = exact_span_solve(target, basis, oracle_rows(weight, level))
        assert sol.coefficients == want.coefficients
        assert sol.residual == want.residual
        assert sol.in_span or not in_span


def test_span_solve_makes_no_cyclotomic_products(monkeypatch):
    # the coefficients and the residual both run on integer vectors; the
    # Gauss-Jordan solve made about rank x |kept| products per target
    basis = eis_basis(2, 5, sturm_truncation(2, 5))
    basis.rref()
    calls = []
    real_mul = Cyclotomic.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return real_mul(self, other)

    for in_span in (True, False):
        target = random_target(basis, random.Random(in_span), in_span)
        monkeypatch.setattr(Cyclotomic, "__mul__", counting_mul)
        monkeypatch.setattr(Cyclotomic, "__rmul__", counting_mul)
        sol = span_solve(target, basis)
        monkeypatch.undo()
        assert sol.in_span == in_span
        assert sol.coefficients
    assert calls == []


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


def test_certify_orthogonal_builds_no_basis_for_a_zero_target(basis_builds):
    for weight, level in ((2, 3), (3, 4), (4, 2)):
        zero = QuasiForm(weight, level, 12, ())
        sol, cert = certify_orthogonal(zero)
        assert sol.in_span and not sol.coefficients and not cert
        assert sol.residual == zero
    assert basis_builds == []
    # a nonzero form of depth 0 needs its weight's basis and no other
    certify_orthogonal(eis_series(EisIndex(3, 4, 1, 0), 12))
    assert basis_builds == [(3, 4, 12)]


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
