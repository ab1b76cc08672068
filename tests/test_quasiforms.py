"""Y-calculus, the raising operator, Eisenstein bases, exact span
solving, and the peeling certificates."""
import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eisenlab import cyclotomic, eisenstein, quasiforms, verifiers
from eisenlab.cli import report_payload
from eisenlab.cyclotomic import Cyclotomic, _norm_inverse, euler_phi
from eisenlab.eisenstein import (EisIndex, QSeries, cusps, proven_truncation,
                                 sturm_truncation)
from eisenlab.oracles import (cusp_constants, exact_read, exact_rref,
                              exact_span_solve, kept_members,
                              row_sum_expansion, zeta_sum_line_values)
from eisenlab.quasiforms import (
    MAX_DEPTH,
    DepthOverflow,
    EisBasis,
    QuasiForm,
    SpanSolution,
    certify_orthogonal,
    check_s_transform,
    cusp_values,
    delta,
    eis_basis,
    eis_form,
    eis_series,
    eval_at,
    peel,
    quasi_mul,
    span_solve,
    theta,
)
from eisenlab.verifiers import (L_terms, LParams, TorsionPoint, build_L,
                                verify_hecke_trace, verify_prop21,
                                verify_three_term_w2)


def const_series(level, b, value):
    return QSeries.const(level, b, value)


def reference_sum(parts, weight, level, truncation):
    """sum(scale * form) over the (form, scale) of parts, component by
    component in the QSeries + and scale arithmetic, apart from
    `combine`."""
    comps = [QSeries.zero(level, truncation)] * (MAX_DEPTH + 1)
    for form, scale in parts:
        for j, h in enumerate(form.components):
            comps[j] = comps[j] + h.scale(scale)
    return QuasiForm(weight, level, truncation, tuple(comps))


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
        quasiforms.combine([(f, 1), (g, 1)], 2, 1, b)


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
    rhs = reference_sum([(quasi_mul(delta(f), g), 1),
                         (quasi_mul(f, delta(g)), 1)], k + l + 2, 3, b)
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
    # two-torsion weight 1: every index is its own negative, so every
    # series is zero by parity and no member is kept
    assert len(eis_basis(1, 2, 12)) == 0
    assert all(row_sum_expansion(EisIndex(1, 2, c1, c2), 12).is_zero()
               for c1 in range(2) for c2 in range(2))
    # level 3, weight 1: (0, 0) is zero and the other 8 indices form 4
    # +- pairs, each kept by its first index
    b3 = eis_basis(1, 3, 12)
    assert len(b3) == 4
    assert b3.indices == tuple(EisIndex(1, 3, c1, c2)
                               for c1, c2 in ((0, 1), (1, 0), (1, 1), (1, 2)))


def test_basis_indices_keep_the_nonzero_series_rule():
    # the basis holds the first index of each +- pair whose series,
    # expanded by the row sums, is nonzero; a series is zero exactly at
    # odd weight with v = -v, where `EisIndex.representative` reports
    # sign 0
    for k in range(1, 7):
        for n in range(1, 9):
            every = [EisIndex(k, n, c1, c2) for c1 in range(n)
                     for c2 in range(n)]
            zero = {idx: row_sum_expansion(idx, 12).is_zero() for idx in every}
            want = tuple(idx for idx in every
                         if idx.representative()[1] == idx and not zero[idx])
            assert EisBasis(k, n, 12).indices == want, (k, n)
            assert all((idx.representative()[0] == 0) == zero[idx]
                       for idx in every), (k, n)


def test_basis_builds_no_series(monkeypatch):
    # a basis and its row reduction read indices and constants only
    calls = []

    def no_series(*args):
        calls.append(args)
        raise AssertionError("series built")

    monkeypatch.setattr(quasiforms, "eis_qseries", no_series)
    monkeypatch.setattr(quasiforms, "eis_series", no_series)
    for k, n in ((1, 5), (2, 6), (3, 4), (4, 7)):
        basis = EisBasis(k, n, sturm_truncation(k, n))
        assert len(basis) and basis.rref()
    assert calls == []


def test_zero_eisenstein_part_needs_no_reduction_and_no_members(monkeypatch):
    # the showcase prop21 claim at weight 3 peels to a zero remainder: its
    # cusp values of Y-degree 0 all vanish, so nothing at weight 3 is
    # reduced and no member series is built, only the weight-1 series of
    # its delta terms
    reduced, series = [], []
    real_rref, real_series = EisBasis.rref, quasiforms.eis_series

    def rref(self):
        reduced.append(self.weight)
        return real_rref(self)

    def eis(idx, truncation=None):
        series.append(idx.weight)
        return real_series(idx, truncation)

    monkeypatch.setattr(EisBasis, "rref", rref)
    monkeypatch.setattr(quasiforms, "eis_series", eis)
    report = verify_prop21(LParams(TorsionPoint(3, 1, 0), TorsionPoint(3, 0, 1),
                                   2, -1, 3), 3)
    assert report.status == "VERIFIED"
    assert report.certificate and not report.defect.coefficients
    assert 3 not in reduced and 3 not in series
    assert set(reduced) == set(series) == {1}


def test_series_and_basis_caches_are_bounded():
    # a benchmark workload keeps at most 252 series and 7 bases at once
    # (the warm level-6 sweep), so no workload evicts
    series = eis_series.cache_parameters()["maxsize"]
    bases = eis_basis.cache_parameters()["maxsize"]
    assert series is not None and series >= 252
    assert bases is not None and bases >= 7
    # the cusp and line tables are per level and weight, the constants
    # per index and per factor
    for cache in (cusps, eisenstein.constant_term, quasiforms._cusp_row,
                  quasiforms._lines, quasiforms._line_values):
        assert cache.cache_parameters()["maxsize"] is not None


# -- the row reduction against the Gauss-Jordan oracle ----------------------


GRID = [(k, n) for k in range(1, 5) for n in range(1, 9)]


def grid_basis(weight, level):
    """The grid's basis at the least truncation that proves its relations,
    where the truncated members are as independent as the forms."""
    return eis_basis(weight, level, proven_truncation(weight, level))


def members(basis):
    """The series of the basis's members, in basis order."""
    return [eis_series(idx, basis.truncation) for idx in basis.indices]


@lru_cache(maxsize=None)
def oracle_rows(weight, level):
    return exact_rref(members(grid_basis(weight, level)))


@pytest.mark.parametrize("weight, level", GRID)
def test_rref_matches_oracle(weight, level, monkeypatch):
    # the pivots are inverted over their norms, in integers: no
    # Cyclotomic inverse
    want = kept_members(oracle_rows(weight, level))

    def no_inverse(x):
        raise AssertionError("cyclo_invert called")

    monkeypatch.setattr(cyclotomic, "cyclo_invert", no_inverse)
    monkeypatch.setattr(quasiforms, "cyclo_invert", no_inverse, raising=False)
    basis = EisBasis(weight, level, proven_truncation(weight, level))
    assert kept_members(basis.rref()) == want


def cusp_lines(level):
    """The cusps of `cusps(level)` by line, found by brute force: two
    cusps share a line iff the same v = (c1, c2) have c1 a + c2 c = 0 mod
    level.  Lines come in order of their first cusp (a0, c0), and each
    is a list of (col, u) with first column u (a0, c0) mod level."""
    n = level
    lines = {}
    for col, (a, _, c, _) in enumerate(cusps(n)):
        on = frozenset((c1, c2) for c1 in range(n) for c2 in range(n)
                       if (c1 * a + c2 * c) % n == 0)
        lines.setdefault(on, []).append((col, a, c))
    out = []
    for cusps_on in lines.values():
        _, a0, c0 = cusps_on[0]
        out.append([(col, next(u for u in range(n) if gcd(u, n) == 1
                               and (u * a0 - a) % n == (u * c0 - c) % n == 0))
                    for col, a, c in cusps_on])
    return out


def change_of_columns(weight, level, line):
    """Row m - e of the line's change of columns, m = e, ..., e + r - 1,
    e = weight mod 2: the entries zeta^(m w) + (-1)^weight zeta^(-m w),
    w = u^-1, at the line's cusps, or zeta^(m w) alone when level <= 2."""
    n, e = level, weight % 2
    out = []
    for m in range(e, e + len(line)):
        row = []
        for _, u in line:
            w = pow(u, -1, n)
            x = Cyclotomic.zeta(n, m * w)
            if n > 2:
                x = x + (-1) ** weight * Cyclotomic.zeta(n, -m * w)
            row.append(x)
        out.append(row)
    return out


def rank(matrix):
    """The rank of a matrix over Q(zeta_N) by fraction-free elimination:
    products and differences only."""
    rows = [list(r) for r in matrix]
    done = 0
    for col in range(len(rows[0]) if rows else 0):
        at = next((i for i in range(done, len(rows)) if rows[i][col]), None)
        if at is None:
            continue
        rows[done], rows[at] = rows[at], rows[done]
        p = rows[done]
        for i in range(done + 1, len(rows)):
            rows[i] = [p[col] * x - rows[i][col] * y
                       for x, y in zip(rows[i], p)]
        done += 1
    return done


@pytest.mark.parametrize("weight", [2, 3, 4, 5])
def test_rational_columns_are_the_change_of_the_cusp_columns(weight,
                                                              monkeypatch):
    # each entry of the table EisBasis.rref eliminates at weight >= 2 is
    # the change of columns of the member's constants at the cusps, in
    # Cyclotomic products and sums (no inverse), and is rational; each
    # line's change of columns has full rank
    def no_inverse(x):
        raise AssertionError("cyclo_invert called")

    monkeypatch.setattr(cyclotomic, "cyclo_invert", no_inverse)
    for n in range(1, 13):
        lines = cusp_lines(n)
        r = len(lines[0])
        assert all(len(line) == r for line in lines)
        assert r == (euler_phi(n) // 2 if n > 2 else 1)
        changes = [change_of_columns(weight, n, line) for line in lines]
        assert all(rank(m) == r for m in changes), n
        for c1 in range(n):
            for c2 in range(n):
                consts = cusp_constants(weight, n)[c1, c2]
                den, got = quasiforms._line_row(weight, n, c1, c2)
                for i, (line, change) in enumerate(zip(lines, changes)):
                    for j, row in enumerate(change):
                        want = Cyclotomic.zero(n)
                        for (col, _), x in zip(line, row):
                            if col in consts:
                                want = want + x * consts[col]
                        assert want.is_rational(), (n, c1, c2)
                        have = Fraction(got.get(i * r + j, 0), den)
                        assert want == have, (n, c1, c2, i, j)
                assert max(got, default=-1) < len(cusps(n))


def test_line_values_are_the_zeta_sums():
    # the closed form of the rational columns (Ramanujan sums of the
    # Bernoulli table) is the zeta-shifted sum of the constants it replaces
    for weight in range(2, 7):
        for n in range(1, 31):
            den, table = quasiforms._line_values(weight, n)
            got = tuple(tuple(Fraction(x, den) for x in row) for row in table)
            assert got == zeta_sum_line_values(weight, n), (weight, n)


@pytest.mark.parametrize("weight, level",
                         [(k, n) for k in range(2, 5)
                          for n in (*range(1, 11), 12)])
def test_integer_rref_is_the_gauss_jordan_of_its_columns(weight, level):
    # from weight 2 on, the elimination in plain integers keeps the pivots
    # and tracks of a Gauss-Jordan in Cyclotomic arithmetic on the same
    # rational columns, with the same member order and pivot rule
    n = level
    basis = EisBasis(weight, n, proven_truncation(weight, n))
    vectors = []
    for idx in basis.indices:
        den, row = quasiforms._line_row(weight, n, idx.c1, idx.c2)
        vec = {col: Cyclotomic.from_rational(1, Fraction(x, den))
               for col, x in row.items()}
        if weight == 2:
            # the oracle keeps the constant 1 of each member's Y-component
            # as a last column, which the elimination leaves out: equal
            # pivots and tracks show that the column changes nothing
            vec[len(cusps(n))] = Cyclotomic.one(1)
        vectors.append(vec)
    want = [(pivot, {t: Fraction(c.vec[0], c.den) for t, c in track.items()})
            for pivot, _, track in exact_rref(vectors)]
    got = basis.rref()
    assert all(isinstance(y, int)
               for _, _, track in got for y in track.values())
    assert [(pivot, {t: Fraction(y, den) for t, y in track.items()})
            for pivot, den, track in got] == want


@pytest.mark.parametrize("weight, level",
                         [(k, n) for k in range(1, 5) for n in (9, 10, 12)])
def test_rref_matches_the_cusp_column_oracle(weight, level):
    # at composite levels, where a member may lie on several lines, the
    # kept members and the coefficients read from a random combination of
    # them are those of a Gauss-Jordan on the untransformed cusp columns
    n = level
    basis = EisBasis(weight, n, proven_truncation(weight, n))
    ncols = len(cusps(n)) + (weight == 2)
    vectors = []
    for idx in basis.indices:
        vec = dict(cusp_constants(weight, n)[idx.c1, idx.c2])
        if weight == 2:
            # the oracle keeps the Y-component's constant column, which
            # the elimination and `_read` leave out: equal kept members
            # and coefficients show that the column changes nothing
            vec[len(cusps(n))] = Cyclotomic.one(n)
        vectors.append(vec)
    rows = exact_rref(vectors)
    kept = kept_members(rows)
    assert kept_members(basis.rref()) == kept
    rng = random.Random(100 * weight + n)
    for _ in range(4):
        chosen = rng.sample(kept, min(len(kept), rng.randint(1, 6)))
        coeffs = {t: small_number(n, rng) for t in chosen}
        coeffs = {t: c for t, c in coeffs.items() if c}
        values = [Cyclotomic.zero(n)] * ncols
        for t, c in coeffs.items():
            for col, x in vectors[t].items():
                values[col] = values[col] + c * x
        combo, rest = exact_read(dict(enumerate(values)), rows)
        assert not rest
        want = {basis.indices[t]: combo[t] for t in sorted(combo) if combo[t]}
        assert want == {basis.indices[t]: coeffs[t] for t in sorted(coeffs)}
        assert quasiforms._read(basis, values[:len(cusps(n))]) == want


def test_weight_two_rank_is_the_number_of_cusps():
    # the constants at the cusps decide the completed weight-2 span (the
    # residue theorem, `EisBasis.rref`): one pivot per cusp, and every
    # pivot a cusp column
    for n in range(1, 31):
        rows = EisBasis(2, n, proven_truncation(2, n)).rref()
        assert len(rows) == len(cusps(n)), n
        assert all(pivot < len(cusps(n)) for pivot, _, _ in rows), n


def test_cusp_rows_are_the_rows_of_the_whole_level_table():
    # a factor's constants at the cusps, read per index, are its row of
    # the table of every index at every cusp
    for weight in range(1, 5):
        for n in range(1, 13):
            table = cusp_constants(weight, n)
            for c1 in range(n):
                for c2 in range(n):
                    idx = EisIndex(weight, n, c1, c2)
                    assert quasiforms._cusp_row(idx) == table[c1, c2], idx


class _Captured(Exception):
    pass


def test_level_thirty_cusp_values_read_their_factors_only(monkeypatch):
    # the level-30 weight-4 claim's values at the cusps ask for at most one
    # constant per factor and cusp, and multiply and add no Cyclotomic; its
    # Y^1 values, which the peel reads, are not all 0
    captured = []

    def capture(terms, weight, level, truncation):
        captured.append(terms)
        raise _Captured

    monkeypatch.setattr(verifiers, "build_L", capture)
    lam, mu = TorsionPoint(30, 1, 0), TorsionPoint(30, 0, 1)
    with pytest.raises(_Captured):
        verify_prop21(LParams(lam, mu, 1, 1, 4), 30, 2880)
    monkeypatch.undo()
    terms, = captured
    factors = {idx for _, *product in terms for idx in product}
    asked, calls = [], []
    real_constant_term = eisenstein.constant_term

    def counting_constant_term(idx):
        asked.append(idx)
        return real_constant_term(idx)

    def counting(real):
        def wrapper(self, other):
            calls.append(real.__name__)
            return real(self, other)
        return wrapper

    monkeypatch.setattr(quasiforms, "constant_term", counting_constant_term)
    for real in (Cyclotomic.__mul__, Cyclotomic.__add__):
        for name, attr in list(vars(Cyclotomic).items()):
            if attr is real:  # __mul__ and __rmul__, __add__ and __radd__
                monkeypatch.setattr(Cyclotomic, name, counting(real))
    quasiforms._cusp_row.cache_clear()
    values = cusp_values(terms, 30)
    assert 0 < len(asked) <= len(factors) * len(cusps(30))
    assert calls == []
    assert len(values) == len(cusps(30)) and any(v[1] for v in values)


def test_norm_inverse():
    for n in range(1, 16):
        rng = random.Random(n)
        for _ in range(5):
            vec = [rng.randint(-5, 5) for _ in range(euler_phi(n))]
            if not any(vec):
                continue
            w, d = _norm_inverse(n, vec)
            assert d > 0
            # an inverse in a field is unique: x (w / d) = 1 checks it
            x = Cyclotomic(n, tuple(map(Fraction, vec)))
            assert x * Cyclotomic(n, tuple(Fraction(c, d) for c in w)) == 1


def test_three_term_expands_one_series_per_pm_class(monkeypatch):
    # with cold caches the three-term claim at level 7 expands its 3
    # weight-1 factors, the first index of each +- pair it uses, and
    # builds no weight-2 series: its 22-member defect is one `eis_sum`
    calls, weights, sums = [], [], []
    real = quasiforms.eis_qseries
    real_series = quasiforms.eis_series
    real_sum = quasiforms.eis_sum

    def counting(idx, truncation):
        calls.append(idx)
        return real(idx, truncation)

    def counting_series(idx, truncation=None):
        weights.append(idx.weight)
        return real_series(idx, truncation)

    def counting_sum(coefficients, weight, level, truncation):
        sums.append(len(coefficients))
        return real_sum(coefficients, weight, level, truncation)

    monkeypatch.setattr(quasiforms, "eis_qseries", counting)
    monkeypatch.setattr(quasiforms, "eis_sum", counting_sum)
    monkeypatch.setattr(quasiforms, "eis_series", counting_series)
    monkeypatch.setattr(verifiers, "eis_series", counting_series)
    eis_series.cache_clear()
    report = verify_three_term_w2(TorsionPoint(7, 1, 0), TorsionPoint(7, 0, 1),
                                  7, proven_truncation(2, 7))
    assert report.status == "VERIFIED"
    assert len(calls) == len(set(calls)) == 3
    assert all(idx.weight == 1 for idx in calls)
    assert all((idx.c1, idx.c2) <= (-idx.c1 % 7, -idx.c2 % 7)
               for idx in calls)
    assert weights and 2 not in weights
    assert len(report.defect.coefficients) == 22
    assert sums == [22]


def test_eis_series_shares_each_pm_pair():
    # E_{k,-v} = (-1)^k E_{k,v}, the sign `verifiers.canonical_sum` takes
    # before it asks for the first index's series alone
    for k in range(1, 5):
        first = eis_series(EisIndex(k, 5, 1, 2), 20)
        other = eis_series(EisIndex(k, 5, 4, 3), 20)
        assert other == reference_sum([(first, (-1) ** k)], k, 5, 20)
        assert other.component(0) == row_sum_expansion(EisIndex(k, 5, 4, 3), 20)


@pytest.mark.slow
def test_rref_matches_oracle_at_the_sturm_bound():
    basis = EisBasis(2, 7, sturm_truncation(2, 7))
    assert basis.truncation == 203
    assert kept_members(basis.rref()) == kept_members(exact_rref(members(basis)))


def weight_four_report(level):
    """The report of the prop21 claim (1,0)@level, (0,1)@level at
    p = q = 1 and weight 4, at the proven truncation, and the SHA-256 of
    its JSON bytes."""
    lam, mu = TorsionPoint(level, 1, 0), TorsionPoint(level, 0, 1)
    report = verify_prop21(LParams(lam, mu, 1, 1, 4), level,
                           proven_truncation(4, level))
    text = json.dumps(report_payload(report), indent=2, ensure_ascii=False)
    return report, hashlib.sha256((text + "\n").encode()).hexdigest()


@pytest.mark.slow
def test_level_twenty_weight_four_keeps_its_report():
    # the level-20 weight-4 prop21 claim at the proven truncation, whose
    # depth-1 peel eliminates the weight-2 basis of level 20: VERIFIED,
    # with the report bytes it had when the elimination ran on the cusp
    # columns in Q(zeta_20)
    report, digest = weight_four_report(20)
    assert report.status == "VERIFIED" and report.truncation == 960
    assert digest == (
        "992c0577ad50fb0707ad4e3c2adc59dfdcaacf7fc98cb5070bf55ec3602dee54")


@pytest.mark.slow
def test_level_thirty_weight_four_keeps_its_report():
    # the same claim at level 30: VERIFIED with 5 certificate entries, with
    # the report bytes it had when its cusp values were read from
    # whole-level tables and its weight-2 peel eliminated on length-1
    # integer lists
    report, digest = weight_four_report(30)
    assert report.status == "VERIFIED" and report.truncation == 2880
    assert len(report.certificate) == 5
    assert digest == (
        "94342e87be8f7e26794e3faf8864c0e87d954f7edb0ab94647731d65d1547b69")


@pytest.mark.slow
def test_level_fifteen_weight_three_matches_the_cusp_column_oracle():
    basis = EisBasis(3, 15, 360)
    vectors = [cusp_constants(3, 15)[idx.c1, idx.c2] for idx in basis.indices]
    assert kept_members(basis.rref()) == kept_members(exact_rref(vectors))


def values_of(terms, level):
    """What span_solve reads for a form with the formal sum terms: its
    Y^0 constant at each cusp."""
    return [y0 for y0, _, _ in cusp_values(terms, level)]


def test_span_solve_recovers_a_member():
    basis = eis_basis(2, 3, 20)
    target = eis_series(basis.indices[2], 20)
    sol = span_solve(target, basis, values_of([(1, basis.indices[2])], 3),
                     [])
    assert sol.in_span
    rebuilt = reference_sum([(eis_series(idx, 20), c)
                             for idx, c in sol.coefficients.items()], 2, 3, 20)
    assert rebuilt == target


def test_span_solve_zero_target():
    basis = EisBasis(2, 3, 20)  # uncached, unreduced
    z = QuasiForm(2, 3, 20, ())
    sol = span_solve(z, basis, values_of([], 3), [])
    assert sol.in_span and not sol.coefficients
    assert sol.residual == z
    assert basis._rref is None  # zero needs no row reduction
    for other in (QuasiForm(3, 3, 20, ()), QuasiForm(2, 3, 21, ())):
        with pytest.raises(ValueError):
            span_solve(other, basis, values_of([], 3), [])


small_coeffs = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
    min_size=8, max_size=8)


@settings(max_examples=20)
@given(small_coeffs, st.booleans())
def test_span_solve_soundness(coeffs, perturb):
    """target = sum(coefficients * members) + residual, exactly."""
    basis = eis_basis(1, 3, 15)
    parts = list(zip(members(basis), coeffs))
    values = values_of(list(zip(coeffs, basis.indices)), 3)
    if perturb:
        bump = QSeries(3, 15, {11: Cyclotomic.zeta(3)})
        parts.append((QuasiForm(1, 3, 15, (bump,)), 1))
    target = reference_sum(parts, 1, 3, 15)
    sol = span_solve(target, basis, values, [])
    recon = reference_sum(
        [(QuasiForm(1, 3, 15, (sol.residual.component(0),)), 1)]
        + [(eis_series(idx, 15), c) for idx, c in sol.coefficients.items()],
        1, 3, 15)
    assert recon == target
    assert sol.in_span != perturb


def test_span_solve_weight_two_sees_the_y_row():
    # a bare holomorphic copy of a completed series is NOT in the span,
    # even read with the completed series' own values: its missing Y part
    # is left over
    basis = eis_basis(2, 1, 20)
    holo_only = QuasiForm(2, 1, 20, (eis_series(basis.indices[0], 20).component(0),))
    sol = span_solve(holo_only, basis, values_of([(1, basis.indices[0])], 1),
                     [])
    assert not sol.in_span


def test_span_solve_frame_checks():
    basis = eis_basis(2, 3, 20)
    values = values_of([], 3)
    with pytest.raises(ValueError):
        span_solve(QuasiForm(2, 3, 21, ()), basis, values, [])
    with pytest.raises(ValueError):
        span_solve(QuasiForm(4, 3, 20, ()), basis, values, [])
    with pytest.raises(ValueError):
        span_solve(eis_series(basis.indices[0], 20), basis, values[:-1], [])


def small_number(n, rng):
    """A random element of Q(zeta_n) with small coordinates."""
    return Cyclotomic(n, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                               for _ in Cyclotomic.one(n).coeffs))


def random_target(basis, rng, in_span):
    """A random combination of about half the members with small
    coefficients in Q(zeta_N), and its formal sum; out of the span, plus
    random entries at two random keys of Y-degree 0 or 1, which the
    formal sum leaves out."""
    k, n, b = basis.weight, basis.level, basis.truncation
    parts, terms = [], []
    for idx, member in zip(basis.indices, members(basis)):
        if rng.random() < 0.5:
            c = small_number(n, rng)
            parts.append((member, c))
            terms.append((c, idx))
    if not in_span:
        for _ in range(2):
            comps = [QSeries.zero(n, b), QSeries.zero(n, b)]
            comps[rng.randint(0, 1)] = QSeries(n, b, {rng.randint(0, b):
                                                      small_number(n, rng)})
            parts.append((QuasiForm(k, n, b, tuple(comps)), 1))
    return reference_sum(parts, k, n, b), terms


@pytest.mark.parametrize("weight, level", GRID)
def test_span_solve_matches_the_gauss_jordan_oracle(weight, level):
    # in the span, the coefficients are the oracle's; outside it, the
    # solve never claims the target, and target = combination + residual
    basis = grid_basis(weight, level)
    rng = random.Random(1000 * weight + level)
    for in_span in (True, False, True, False):
        target, terms = random_target(basis, rng, in_span)
        sol = span_solve(target, basis, values_of(terms, level), [])
        assert sol.in_span == in_span
        if in_span:
            want = exact_span_solve(target, basis, oracle_rows(weight, level))
            assert sol.coefficients == want.coefficients
        assert rebuild(sol, [], basis.truncation) == target


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
        values = values_of(terms, 5)
        monkeypatch.setattr(Cyclotomic, "__mul__", counting_mul)
        monkeypatch.setattr(Cyclotomic, "__rmul__", counting_mul)
        sol = span_solve(target, basis, values, [])
        monkeypatch.undo()
        assert sol.in_span == in_span
        assert sol.coefficients
    assert calls == []


def rebuild(sol, cert, truncation):
    """residual + sum(c * E) + sum(s * delta(E)), by `reference_sum`."""
    res = sol.residual
    return reference_sum(
        [(res, 1)]
        + [(eis_series(idx, truncation), c)
           for idx, c in sol.coefficients.items()]
        + [(delta(eis_series(idx, truncation)), s) for idx, s in cert],
        res.weight, res.level, truncation)


def test_peel_passthrough_depth_zero():
    idx = EisIndex(3, 2, 1, 0)
    f = eis_series(idx, 18)
    assert peel(f, cusp_values([(1, idx)], 2)) == []
    sol, cert = certify_orthogonal(f, [(1, idx)])
    assert cert == [] and sol.in_span
    assert rebuild(sol, cert, 18) == f


def test_peel_inverts_delta():
    idx = EisIndex(1, 3, 1, 0)
    src = eis_series(idx, 21)
    f = delta(src)  # weight 3, depth 1
    # delta_1 E has the constants (0, -c0(E|gamma), 0) at gamma
    zero = Cyclotomic.zero(3)
    row = cusp_constants(1, 3)[1, 0]
    values = [[zero, -row.get(col, zero), zero] for col in range(len(cusps(3)))]
    cert = peel(f, values)
    assert cert == [(idx, 1)]
    sol = span_solve(f, eis_basis(3, 3, 21), [v[0] for v in values], cert)
    assert sol.in_span and not sol.coefficients
    assert rebuild(sol, cert, 21) == f


def test_peel_depth_two_certificate():
    idx = EisIndex(2, 1, 0, 0)
    e2 = eis_series(idx, 14)
    f = quasi_mul(e2, e2)
    # (E_2 + Y)^2 has Y^2 part 1, so delta_2 E_2 enters with scale -1
    cert = peel(f, cusp_values([(1, idx, idx)], 1))
    assert cert[0] == (idx, -1)
    sol, same = certify_orthogonal(f, [(1, idx, idx)])
    assert same == cert and sol.in_span
    assert rebuild(sol, cert, 14) == f


def test_peel_makes_no_series(monkeypatch):
    # the certificate, depth-2 and depth-1 entries alike, comes from the
    # cusp values alone: peel builds no QSeries and no QuasiForm
    level, b = 2, proven_truncation(4, 2)
    a, c = EisIndex(2, level, 1, 0), EisIndex(2, level, 0, 1)
    terms = [(1, a, c)]
    f = quasi_mul(eis_series(a, b), eis_series(c, b))
    values = cusp_values(terms, level)
    built = []
    real_of, real_series, real_form = (QSeries._of, QSeries.__init__,
                                       QuasiForm.__init__)

    def counting(real):
        def wrapper(*args, **kwargs):
            built.append(real)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(QSeries, "_of", staticmethod(counting(real_of)))
    monkeypatch.setattr(QSeries, "__init__", counting(real_series))
    monkeypatch.setattr(QuasiForm, "__init__", counting(real_form))
    cert = peel(f, values)
    monkeypatch.undo()
    assert built == []
    assert cert[0][0] == EisIndex(2, level, 0, 0) and len(cert) > 1
    sol, same = certify_orthogonal(f, terms)
    assert same == cert and sol.in_span


def test_peel_unsupported_weights():
    # a Y-part whose cusp values no step reads gets no certificate: a
    # depth-2 form off weight 4, a depth-1 form at weight 2
    b = 10
    zero = QSeries.zero(1, b)
    one = const_series(1, b, 1)
    values = cusp_values([], 1)
    assert peel(QuasiForm(5, 1, b, (zero, zero, one)), values) == []
    assert peel(QuasiForm(2, 1, b, (zero, one)), values) == []


def test_peel_rejects_foreign_components(monkeypatch):
    # a Y^2 part that is not constant, or a Y part outside the weight-1
    # span: no delta term explains it, so it stays in the residual, and
    # the verifiers' pipeline, given it as a claim's form, reports
    # INCONCLUSIVE with the whole form as the residual
    b = 14
    zero = QSeries.zero(1, b)
    q1 = QSeries(1, b, {1: Cyclotomic.one(1)})
    for f in (QuasiForm(4, 1, b, (zero, zero, q1)),
              QuasiForm(3, 1, b, (zero, q1))):
        sol, cert = certify_orthogonal(f, [])
        assert not sol.in_span and sol.residual.depth > 0
        assert cert == [] and sol.residual == f
        monkeypatch.setattr(verifiers, "build_L", lambda *_, form=f: form)
        report = verifiers._verify("foreign", {}, [], f.weight, 1, b)
        assert report.status == "INCONCLUSIVE"
        assert report.certificate == [] and not report.defect.coefficients
        assert report.defect.residual == f


def test_certify_orthogonal_subtracts_once(monkeypatch):
    # one integer combination builds the claim from its formal sum, one
    # per certificate entry is its delta image, and one more is the exact
    # residual, with the target, the delta terms and the Eisenstein
    # combination, one form, together; the depth-2 claim below has delta
    # terms, the weight-2 one a combination
    calls = []
    real = quasiforms.combine

    def counting(parts, weight, level, truncation):
        calls.append(len(parts))
        return real(parts, weight, level, truncation)

    monkeypatch.setattr(quasiforms, "combine", counting)
    monkeypatch.setattr(verifiers, "combine", counting)
    report = verify_prop21(LParams(TorsionPoint(5, 1, 0), TorsionPoint(5, 0, 1),
                                   1, 1, 4), 5, truncation=12)
    assert len(report.certificate) == 5
    assert not report.defect.coefficients
    assert calls == [9] + [2] * 5 + [1 + 5]
    # a weight-2 claim subtracts its whole defect as one form: the
    # target and the defect
    calls.clear()
    report = verify_three_term_w2(TorsionPoint(5, 1, 0), TorsionPoint(5, 0, 1),
                                  5, proven_truncation(2, 5))
    assert len(report.defect.coefficients) == 10
    assert not report.certificate
    assert calls == [3, 2]


# -- one integer linear combination ----------------------------------------


def random_form(weight, level, b, depth, rng):
    """Random entries at a few exponents of each Y-degree up to depth."""
    return QuasiForm(weight, level, b, tuple(
        QSeries(level, b, {e: small_number(level, rng)
                           for e in rng.sample(range(b + 1), rng.randint(1, 4))})
        for _ in range(depth + 1)))


@pytest.mark.parametrize("level", [1, 3, 5, 8])
def test_combine_matches_the_reference_sum(level):
    rng = random.Random(level)
    b = 9
    for _ in range(12):
        parts = []
        for _ in range(rng.randint(1, 5)):
            form = random_form(3, level, b, rng.randint(0, MAX_DEPTH), rng)
            scale = (Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                     if rng.random() < 0.5 else small_number(level, rng))
            parts.append((form, scale))
        assert (quasiforms.combine(parts, 3, level, b)
                == reference_sum(parts, 3, level, b))


def test_combine_cancels_to_the_zero_form():
    # the trace's shape: n_sub copies at 1/n_sub less the same form once
    rng = random.Random(7)
    b = 8
    f = random_form(4, 5, b, 2, rng)
    c = small_number(5, rng)
    for parts in ([(f, Fraction(1, 3))] * 3 + [(f, -1)],
                  [(f, c), (reference_sum([(f, 2)], 4, 5, b), -c / 2)]):
        assert quasiforms.combine(parts, 4, 5, b) == QuasiForm(4, 5, b, ())


def test_combine_of_no_parts_is_the_zero_form_of_its_weight():
    total = quasiforms.combine([], 5, 4, 10)
    assert total == QuasiForm(5, 4, 10, ()) and total.weight == 5


def test_combine_rejects_a_frame_mismatch():
    f = eis_series(EisIndex(2, 3, 1, 0), 6)
    for weight, level, b in ((2, 4, 6), (2, 3, 7), (4, 3, 6)):
        with pytest.raises(ValueError):
            quasiforms.combine([(f, 1)], weight, level, b)


@st.composite
def eisenstein_combination(draw):
    """(k, N, B, {v: c_v}): a weight 1-5, a level 1-12, a truncation up to
    3 N and up to 6 indices given by any residues, 0 and N/2 often (c1 = 0,
    v = -v, second members of +- pairs), each with an int, a Fraction or
    an element of Q(zeta_N), rational or not, one power-basis monomial
    often."""
    k, n = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    phi = euler_phi(n)
    halves = [0, n] + ([n // 2, 3 * n // 2] if n % 2 == 0 else [])
    residue = st.one_of(st.sampled_from(halves), st.integers(-n, 2 * n))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    scale = st.one_of(
        st.integers(-3, 3), small,
        st.lists(small, min_size=phi, max_size=phi).map(
            lambda xs: Cyclotomic(n, tuple(xs))),
        st.tuples(small, st.integers(0, phi - 1)).map(
            lambda t: Cyclotomic(n, tuple(t[0] if i == t[1] else Fraction(0)
                                          for i in range(phi)))))
    coefficients = {EisIndex(k, n, draw(residue), draw(residue)): draw(scale)
                    for _ in range(draw(st.integers(0, 6)))}
    return k, n, draw(st.integers(0, 3 * n)), coefficients


@settings(max_examples=200)
@given(eisenstein_combination())
@example((3, 5, 12, {EisIndex(3, 5, 1, 2): Cyclotomic.zeta(5, 2)}))
@example((2, 6, 18, {EisIndex(2, 6, 0, 1): Cyclotomic.zeta(6, 1),
                     EisIndex(2, 6, 3, 2): Fraction(1, 2)}))
def test_eis_form_is_the_combination_of_its_members(case):
    # one divisor sum against one series per member, combined, and against
    # the row-sum oracle, with the Y-component sum c_v at weight 2
    k, n, b, coefficients = case
    got = eis_form(coefficients, k, n, b)
    assert got == quasiforms.combine(
        [(eis_series(idx, b), c) for idx, c in coefficients.items()], k, n, b)
    holo = QSeries.zero(n, b)
    for idx, c in coefficients.items():
        holo = holo + row_sum_expansion(idx, b).scale(c)
    comps = (holo,)
    if k == 2:
        comps += (QSeries.const(n, b, sum(coefficients.values())),)
    assert got == QuasiForm(k, n, b, comps)


def test_eis_form_of_no_coefficients_is_zero():
    for k, n in ((1, 1), (2, 5), (3, 6)):
        assert eis_form({}, k, n, 12) == QuasiForm(k, n, 12, ())


def test_eis_sum_rejects_a_frame_mismatch():
    for coefficients in ({EisIndex(3, 5, 1, 2): 1},
                         {EisIndex(2, 4, 1, 2): 1},
                         {EisIndex(2, 5, 1, 2): Cyclotomic.one(4)}):
        with pytest.raises(ValueError):
            eis_form(coefficients, 2, 5, 12)


def test_build_L_expands_products_by_the_reference_arithmetic():
    # the level-6 trace (2, 1) at weight 3: translates at 1/2 less the
    # chain, each product summed by `reference_sum`, against one combine
    lam, mu = TorsionPoint(6, 1, 0), TorsionPoint(6, 0, 1)
    b = 12
    terms = [(Fraction(s, 2), x, y) for s, x, y in
             L_terms(LParams(lam, mu, 1, 1, 3), 6)]
    terms += [(-s, x, y) for s, x, y in
              L_terms(LParams(lam + mu, mu, 2, 1, 3), 6)]
    want = reference_sum([(quasi_mul(eis_series(x, b), eis_series(y, b)), s)
                          for s, x, y in terms], 3, 6, b)
    assert build_L(terms, 3, 6, b) == want
    assert build_L([], 3, 6, b) == QuasiForm(3, 6, b, ())


@pytest.mark.parametrize("weight, level",
                         [(k, n) for k in (3, 4) for n in range(1, 9)])
def test_certificate_and_defect_rebuild_the_target(weight, level):
    # targets: weight-k members plus delta of weight-(k-2) members, read
    # through their cusp values, and out of the span two stray entries of
    # Y-degree 0 or 1 that the values leave out
    basis = grid_basis(weight, level)
    w, n, b = weight - 2, level, basis.truncation
    source = eis_basis(w, n, b)
    rng = random.Random(100 * weight + level)
    zero = Cyclotomic.zero(n)

    for in_span in (True, False, True, False):
        target, terms = random_target(basis, rng, in_span)
        values = [[x, zero, zero] for x in values_of(terms, level)]
        holomorphic, parts = target, [(target, 1)]
        for idx in source.indices:
            if rng.random() < 0.5:
                s = small_number(n, rng)
                parts.append((delta(eis_series(idx, b)), s))
                # delta_w E has the constants (0, -w c0(E|gamma), -[w = 2])
                row = cusp_constants(w, n)[idx.c1, idx.c2]
                for col, v in enumerate(values):
                    v[1] = v[1] - s * w * row.get(col, zero)
                    v[2] = v[2] - s * (w == 2)
        target = reference_sum(parts, weight, n, b)
        cert = peel(target, values)
        sol = span_solve(target, basis, [v[0] for v in values], cert)
        assert rebuild(sol, cert, b) == target
        assert sol.in_span == in_span
        if in_span:
            want = exact_span_solve(holomorphic, basis, oracle_rows(weight, level))
            assert sol.coefficients == want.coefficients


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
    monkeypatch.setattr(quasiforms, "constant_term", counting_constant_term)
    quasiforms._cusp_row.cache_clear()
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
