"""Torsion-point algebra, the weighted product sums, their canonical
formal sums, and the four verification entry points."""
import importlib.util
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eisenlab import quasiforms, verifiers
from eisenlab.cli import report_payload
from eisenlab.cyclotomic import Cyclotomic, euler_phi
from eisenlab.eisenstein import (EisIndex, NotDivisible, QSeries,
                                 proven_truncation, sturm_truncation)
from eisenlab.hull import NonCoprimeShear, hull_chain
from eisenlab.oracles import row_sum_expansion
from eisenlab.quasiforms import (MAX_DEPTH, QuasiForm, combine, cusp_values,
                                 eis_series, quasi_mul)
from eisenlab.verifiers import (
    INCONCLUSIVE,
    VERIFIED,
    LParams,
    L_terms,
    TorsionPoint,
    build_L,
    canonical_sum,
    pq_samples,
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


def L_form(params, n_work, b):
    """The form of one weighted sum, expanded from its formal sum."""
    return build_L(L_terms(params, n_work), params.weight, n_work, b)


def test_build_L_weight_two_ignores_pq():
    lam = TorsionPoint(3, 1, 0)
    mu = TorsionPoint(3, 0, 1)
    b = 20
    direct = quasi_mul(eis_series(lam.to_index(1), b),
                       eis_series(mu.to_index(1), b))
    for p, q in ((0, 0), (1, 1), (7, -3)):
        assert L_form(LParams(lam, mu, p, q, 2), 3, b) == direct


def test_build_L_weight_three_expansion():
    lam = TorsionPoint(3, 1, 0)
    mu = TorsionPoint(3, 0, 1)
    b = 20
    p, q = Fraction(2), Fraction(-5)
    got = L_form(LParams(lam, mu, p, q, 3), 3, b)
    want = combine([(quasi_mul(eis_series(lam.to_index(1), b),
                               eis_series(mu.to_index(2), b)), q),
                    (quasi_mul(eis_series(lam.to_index(2), b),
                               eis_series(mu.to_index(1), b)), p)], 3, 3, b)
    assert got == want


def test_build_L_pq_scale_covariance():
    # scaling (p, q) by t scales every splitting term by t^{k-2}
    lam = TorsionPoint(2, 1, 0)
    mu = TorsionPoint(2, 0, 1)
    b = 16
    t = Fraction(3)
    for k in (3, 4, 5):
        base = L_form(LParams(lam, mu, 2, -1, k), 2, b)
        scaled = L_form(LParams(lam, mu, 2 * t, -t, k), 2, b)
        assert scaled == combine([(base, t ** (k - 2))], k, 2, b)


def test_build_L_depth_profile():
    lam = TorsionPoint(2, 1, 0)
    mu = TorsionPoint(2, 0, 1)
    b = 16
    # both weight-2 factors meet only at k = 4
    assert L_form(LParams(lam, mu, 1, 1, 4), 2, b).depth == 2
    assert L_form(LParams(lam, mu, 1, 1, 5), 2, b).depth <= 1
    # p = q = 0 zeroes every splitting of odd weight >= 3
    assert L_form(LParams(lam, mu, 0, 0, 3), 2, b).is_zero()
    # at k = 4 the middle splitting carries p*q, so it dies as well
    assert L_form(LParams(lam, mu, 0, 0, 4), 2, b).is_zero()


def test_build_L_rescales_points():
    lam = TorsionPoint(2, 1, 0)
    mu = TorsionPoint(2, 0, 1)
    b = 24
    got = L_form(LParams(lam, mu, 1, 1, 2), 4, b)
    want = quasi_mul(eis_series(EisIndex(1, 4, 2, 0), b),
                     eis_series(EisIndex(1, 4, 0, 2), b))
    assert got == want


# -- canonical formal sums -------------------------------------------------


def raw_factor(idx, b):
    """The series of idx from the row sums of `oracles.row_sum_expansion`,
    plus the constant Y part at weight 2: no +- fold."""
    n = idx.level
    comps = (row_sum_expansion(idx, b),)
    if idx.weight == 2:
        comps += (QSeries.const(n, b, 1),)
    return QuasiForm(idx.weight, n, b, comps)


def raw_sum(terms, weight, level, b):
    """The form of terms, each product of `raw_factor`s scaled and added
    one at a time, component by component in QSeries arithmetic."""
    comps = [QSeries.zero(level, b)] * (MAX_DEPTH + 1)
    for scale, *factors in terms:
        product = raw_factor(factors[0], b)
        for idx in factors[1:]:
            product = quasi_mul(product, raw_factor(idx, b))
        for j, h in enumerate(product.components):
            comps[j] = comps[j] + h.scale(scale)
    return QuasiForm(weight, level, b, tuple(comps))


@st.composite
def formal_sums(draw, weights=(1, 4)):
    """(terms, weight, level): a formal sum at level 1-8 and a weight in
    the closed range weights, of products of at most two series that
    share a few points, odd-weight 2-torsion points among them, with
    rational and Q(zeta_N) scales; some terms come back with factors
    negated and permuted, repeated, cancelled or rescaled."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(*weights))
    any_point = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    halves = [0, n // 2] if n % 2 == 0 else [0]
    two_torsion = st.tuples(st.sampled_from(halves), st.sampled_from(halves))
    pool = draw(st.lists(st.one_of(any_point, two_torsion), min_size=1,
                         max_size=4))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    scales = st.one_of(small, st.lists(small, min_size=euler_phi(n),
                                       max_size=euler_phi(n)).map(
        lambda c: Cyclotomic(n, tuple(c))))
    splits = [(k,)] + [(ell, k - ell) for ell in range(1, k)]
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        factors = [EisIndex(w, n, *draw(st.sampled_from(pool)))
                   for w in draw(st.sampled_from(splits))]
        terms.append((draw(scales), *factors))
    for scale, *factors in list(terms):
        how = draw(st.sampled_from(("none", "repeat", "cancel", "rescale")))
        if how == "none":
            continue
        flips = [draw(st.booleans()) for _ in factors]
        sign = prod((-1) ** f.weight for f, flip in zip(factors, flips) if flip)
        moved = [f.negate() if flip else f for f, flip in zip(factors, flips)]
        new = {"repeat": scale * sign, "cancel": -scale * sign,
               "rescale": draw(scales)}[how]
        terms.append((new, *draw(st.permutations(moved))))
    return draw(st.permutations(terms)), k, n


@settings(max_examples=40)
@given(formal_sums())
def test_canonical_sum_is_exact(case):
    terms, k, n = case
    b = 2 * n + 3
    canonical = canonical_sum(terms)
    assert build_L(canonical, k, n, b) == raw_sum(terms, k, n, b)
    assert cusp_values(canonical, n) == cusp_values(terms, n)
    # canonical: first of each +- pair, sorted, distinct, nonzero
    products = [tuple(factors) for _, *factors in canonical]
    assert len(set(products)) == len(products)
    for scale, *factors in canonical:
        assert scale
        assert all(idx.representative() == (1, idx) for idx in factors)
        assert factors == sorted(factors,
                                 key=lambda i: (i.weight, i.c1, i.c2))


@settings(max_examples=60)
@given(formal_sums(weights=(2, 6)), st.data())
def test_certificate_leaves_no_y_part(case, data):
    # `quasiforms.peel`'s proof: for a formal sum of products of at most
    # two series the certificate explains the whole Y-part, so the
    # residual is holomorphic, whether the claim is in the span or not;
    # one more term with a weight-2 factor makes sure there is a Y-part
    terms, k, n = case
    point = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    y_term = [EisIndex(w, n, *data.draw(point)) for w in (2, k - 2) if w]
    terms = canonical_sum(terms + [(data.draw(st.integers(-3, 3)), *y_term)])
    b = proven_truncation(k, n)
    sol, _ = quasiforms.certify_orthogonal(build_L(terms, k, n, b), terms)
    assert sol.residual.depth == 0


def test_canonical_sum_folds_pairs_and_drops_zero_factors():
    lam, mu = EisIndex(1, 4, 1, 0), EisIndex(2, 4, 0, 1)
    half = EisIndex(1, 4, 2, 0)
    z = Cyclotomic.zeta(4)
    terms = [(1, lam, mu), (2, mu.negate(), lam), (5, half, mu),
             (z, mu, lam.negate()), (Fraction(1, 2), lam.negate(), mu)]
    # 1 + 2 - z - 1/2 on lam * mu; the 2-torsion weight-1 factor is zero
    assert canonical_sum(terms) == [(-z + Fraction(5, 2), lam, mu)]
    assert canonical_sum([(1, lam, mu), (-1, mu, lam)]) == []
    assert canonical_sum([(3, half)]) == []


def sizes_of(claim, monkeypatch):
    """(raw, canonical) term counts of every canonical sum claim() forms."""
    sizes = []

    def recording(terms, _real=verifiers.canonical_sum):
        terms = list(terms)
        out = _real(terms)
        sizes.append((len(terms), len(out)))
        return out

    monkeypatch.setattr(verifiers, "canonical_sum", recording)
    claim()
    monkeypatch.undo()
    return sizes


def sweep_batch(seed):
    """`perfbench/workloads.py`'s level-6 sweep batch, which is plain data."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.sweep_batch(seed)


@pytest.mark.parametrize("claim, want", [
    (lambda: verify_two_term(TorsionPoint(5, 1, 0), TorsionPoint(5, 0, 1), 5),
     (2, 0)),
    (lambda: verify_hecke_trace(5, 3, TorsionPoint(2, 1, 0),
                                TorsionPoint(2, 0, 1), 3, 1, 1, 91), (56, 0)),
    (lambda: verify_hecke_trace(5, 3, TorsionPoint(1, 0, 0),
                                TorsionPoint(1, 0, 0), 2, 1, 1), (28, 0)),
    (lambda: verify_hecke_trace(3, 1, TorsionPoint(2, 1, 0),
                                TorsionPoint(2, 0, 1), 3, 1, 1), (22, 0)),
    (lambda: verify_prop21(LParams(TorsionPoint(2, 1, 0),
                                   TorsionPoint(2, 0, 1), 1, 1, 4), 2), (9, 3)),
], ids=["two_term", "hecke_l10", "hecke_5_3_k2", "hecke_3_1_k3",
        "prop21_k4_n2"])
def test_canonical_sizes(claim, want, monkeypatch):
    assert sizes_of(claim, monkeypatch) == [want]


def test_canonical_sizes_of_the_sweep_batch(monkeypatch):
    # the 26 prop21 claims of the level-6 sweep at seed 1
    def sweep():
        for c in sweep_batch(1):
            lam, mu = (TorsionPoint(v[2], v[0], v[1]) for v in (c["lam"], c["mu"]))
            report = verify_prop21(LParams(lam, mu, c["p"], c["q"], c["k"]), 6)
            assert report.status == c["expect"]

    sizes = sizes_of(sweep, monkeypatch)
    assert len(sizes) == 26
    assert [sum(col) for col in zip(*sizes)] == [195, 148]


# -- two-term --------------------------------------------------------------


def test_two_term_cancels_at_every_pair():
    # the two-term relation has an empty canonical sum at every (lam, mu)
    # of every level N <= 6, so its verdict can only be VERIFIED
    for n in range(1, 7):
        points = [TorsionPoint(n, a, b) for a in range(n) for b in range(n)]
        for lam in points:
            for mu in points:
                assert canonical_sum([(1, lam.to_index(1), mu.to_index(1)),
                                      (1, mu.to_index(1), (-lam).to_index(1))]) == []
                report = verify_two_term(lam, mu, n)
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


def test_two_term_truncation_override():
    report = verify_two_term(TorsionPoint(3, 1, 2), TorsionPoint(3, 2, 0), 3, 9)
    assert report.truncation == 9


LAM2, MU2 = TorsionPoint(2, 1, 0), TorsionPoint(2, 0, 1)
LAM5, MU5 = TorsionPoint(5, 1, 0), TorsionPoint(5, 0, 1)


@pytest.mark.parametrize("claim, weight, level", [
    (lambda b: verify_two_term(LAM5, MU5, 5, b), 2, 5),
    (lambda b: verify_three_term_w2(LAM5, MU5, 5, b), 2, 5),
    (lambda b: verify_three_term_w2(TorsionPoint(5, 0, 0), MU5, 5, b), 2, 5),
    (lambda b: verify_prop21(LParams(TorsionPoint(3, 1, 0),
                                     TorsionPoint(3, 0, 1), 2, -1, 3), 3, b),
     3, 3),
    (lambda b: verify_hecke_trace(2, 1, LAM2, MU2, 3, 1, 1, b), 3, 4),
], ids=["two_term", "three_term", "three_term_refused", "prop21", "hecke"])
def test_default_truncation_is_the_sturm_bound(claim, weight, level):
    # every verifier leaves truncation None to the one pipeline, which
    # reads it as `sturm_truncation` of the claim's weight and level
    b = sturm_truncation(weight, level)
    default = report_payload(claim(None))
    assert default["truncation"] == b
    assert default == report_payload(claim(b))


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
    total = combine([(quasi_mul(eis_series(x.to_index(1), b),
                                eis_series(y.to_index(1), b)), 1)
                     for x, y in ((lam, mu), (mu, nu), (nu, lam))], 2, n, b)
    assert not total.is_zero()
    rebuilt = combine([(eis_series(idx, b), c)
                       for idx, c in report.defect.coefficients.items()],
                      2, n, b)
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


def test_pq_samples_rule():
    assert pq_samples(4) == [(1, 1), (2, -1), (3, 5)]
    for k in range(-1, 12):
        samples = pq_samples(k)
        assert len(samples) == max(k - 1, 1)
        assert samples[:3] == [(1, 1), (2, -1), (3, 5)][:len(samples)]
        assert len({p / q for p, q in samples}) == len(samples)


@pytest.mark.parametrize("k, n", [(5, 3), (6, 4)])
def test_prop21_samples_interpolate_every_pair(k, n, monkeypatch):
    # the form at (7, -4) is the Lagrange combination of the forms at
    # the k - 1 samples, each VERIFIED: the samples prove every (p, q)
    forms = []

    def record(*args):
        forms.append(build_L(*args))
        return forms[-1]

    monkeypatch.setattr(verifiers, "build_L", record)
    lam, mu, b = TorsionPoint(n, 1, 0), TorsionPoint(n, 0, 1), proven_truncation(k, n)
    samples = pq_samples(k)
    for p, q in samples + [(7, -4)]:
        report = verify_prop21(LParams(lam, mu, p, q, k), n, b)
        assert report.status == VERIFIED
    *sampled, target = forms
    ratios = [p / q for p, q in samples]
    t, d = Fraction(7, -4), k - 2
    weights = [(Fraction(-4) / q) ** d
               * prod((t - tm) / (tj - tm) for tm in ratios if tm != tj)
               for (_, q), tj in zip(samples, ratios)]
    assert not target.is_zero()
    assert combine(list(zip(sampled, weights)), k, n, b) == target


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


def test_hecke_level_ten(basis_builds, monkeypatch):
    # the trace cancels as a formal sum, so its form is zero at the
    # default truncation without one series, product or basis
    series = []
    monkeypatch.setattr(verifiers, "eis_series",
                        lambda *args: series.append(args))
    monkeypatch.setattr(quasiforms, "eis_qseries",
                        lambda *args: series.append(args))
    monkeypatch.setattr(QSeries, "__mul__",
                        lambda *args: series.append(args))
    report = verify_hecke_trace(5, 3, TorsionPoint(2, 1, 0),
                                TorsionPoint(2, 0, 1), 3, 1, 1)
    assert report.status == VERIFIED
    assert report.level == 10
    assert report.truncation == 910
    assert report.defect.residual.is_zero()
    assert series == [] and basis_builds == []
