"""Hull chains of shear sublattices and the pair-bijection check."""
from itertools import product
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eisenlab.hull import (
    NonCoprimeShear,
    NotConsecutive,
    hull_chain,
    sublattice_points,
    verify_pair_bijection,
)
from eisenlab.oracles import hull_oracle


@st.composite
def coprime_params(draw, max_level=30):
    n = draw(st.integers(1, max_level))
    shears = [s for s in range(n) if gcd(s, n) == 1]
    return n, draw(st.sampled_from(shears))


def test_frozen_chains():
    assert hull_chain(1, 0).vectors == ((1, 0), (0, 1))
    assert hull_chain(2, 1).vectors == ((2, 0), (1, 1), (0, 2))
    assert hull_chain(5, 3).vectors == ((5, 0), (3, 1), (1, 2), (0, 5))
    assert hull_chain(5, 2).vectors == ((5, 0), (2, 1), (1, 3), (0, 5))


def test_collinear_boundary_points_are_kept():
    # (5,0), (3,1), (1,2) lie on one line; the chain must list the
    # middle point, otherwise the consecutive determinant jumps to 2N
    vecs = hull_chain(5, 3).vectors
    assert (3, 1) in vecs
    (x0, y0), (x1, y1), (x2, y2) = vecs[0], vecs[1], vecs[2]
    assert (x1 - x0) * (y2 - y1) == (y1 - y0) * (x2 - x1)


def test_shear_reduced_mod_level():
    assert hull_chain(5, 8).vectors == hull_chain(5, 3).vectors


def test_rejects_bad_parameters():
    with pytest.raises(NonCoprimeShear):
        hull_chain(4, 2)
    with pytest.raises(NonCoprimeShear):
        hull_chain(6, 3)
    with pytest.raises(ValueError):
        hull_chain(0, 1)


def test_matches_oracle_to_level_60():
    for n in range(1, 61):
        for s in range(n):
            if gcd(s, n) != 1:
                continue
            vecs = hull_chain(n, s).vectors
            assert list(vecs) == hull_oracle(sublattice_points(n, s)), (n, s)
            assert vecs[0] == (n, 0) and vecs[-1] == (0, n)
            for (a, b), (c, d) in zip(vecs, vecs[1:]):
                assert a * d - b * c == n, (n, s)
            for x, y in vecs:
                assert (x - s * y) % n == 0, (n, s)


@given(coprime_params())
def test_chain_structure(params):
    n, s = params
    chain = hull_chain(n, s)
    vecs = chain.vectors
    assert vecs[0] == (n, 0) and vecs[-1] == (0, n)
    for (x, y) in vecs:
        assert (x - s * y) % n == 0
    xs = [x for x, _ in vecs]
    ys = [y for _, y in vecs]
    assert xs == sorted(xs, reverse=True) and len(set(xs)) == len(xs)
    assert ys == sorted(ys) and len(set(ys)) == len(ys)
    for (a, b), (c, d) in chain.pairs():
        assert a * d - b * c == n
    # convexity: consecutive edge directions never turn away from the
    # origin (collinear runs are allowed)
    for i in range(len(vecs) - 2):
        d1 = (vecs[i + 1][0] - vecs[i][0], vecs[i + 1][1] - vecs[i][1])
        d2 = (vecs[i + 2][0] - vecs[i + 1][0], vecs[i + 2][1] - vecs[i + 1][1])
        assert d1[0] * d2[1] - d1[1] * d2[0] <= 0


@given(coprime_params(max_level=12))
def test_reversal_duality(params):
    """Swapping coordinates maps the shear-S lattice to the shear-S^{-1}
    lattice and reverses the boundary walk."""
    n, s = params
    s_inv = pow(s, -1, n) if n > 1 else 0
    mirrored = [(y, x) for x, y in reversed(hull_chain(n, s).vectors)]
    assert mirrored == list(hull_chain(n, s_inv).vectors)


def test_sublattice_points_contents():
    pts = sublattice_points(2, 1)
    assert (0, 0) not in pts
    assert set(pts) == {(2, 0), (1, 1), (0, 2), (2, 2), (0, 1), (1, 0), (2, 1), (1, 2)} - {
        (0, 1), (1, 0), (2, 1), (1, 2)}
    for n, s in ((5, 3), (7, 2)):
        for x, y in sublattice_points(n, s):
            assert 0 <= x <= n and 0 <= y <= n
            assert (x - s * y) % n == 0


def bijection_on_z_n_4(n, s, pair):
    """The pair test over (Z/n)^2 x (Z/n)^2: the map kills exactly Lbar,
    and |Lbar| = n^2."""
    (a, b), (c, d) = pair
    constrained = 0
    for v1, v2, w1, w2 in product(range(n), repeat=4):
        in_lbar = (s * v1 + w1) % n == 0 and (s * v2 + w2) % n == 0
        image_zero = (
            (a * v1 + b * w1) % n == 0
            and (a * v2 + b * w2) % n == 0
            and (c * v1 + d * w1) % n == 0
            and (c * v2 + d * w2) % n == 0
        )
        if in_lbar != image_zero:
            return False
        constrained += in_lbar
    return constrained == n * n


def test_bijection_on_true_pairs():
    for n, s in ((5, 3), (5, 2), (6, 5), (7, 3)):
        for pair in hull_chain(n, s).pairs():
            assert verify_pair_bijection(n, s, pair)


def test_bijection_matches_the_z_n_4_enumeration():
    # every chain pair, and every first-quadrant pair of determinant N
    outcomes = set()
    for n in range(1, 9):
        for s in range(n):
            if gcd(s, n) != 1:
                continue
            chain_pairs = set(hull_chain(n, s).pairs())
            pairs = chain_pairs | {
                ((a, b), (c, d))
                for a, b, c, d in product(range(n + 1), repeat=4)
                if a * d - b * c == n}
            for pair in pairs:
                got = verify_pair_bijection(n, s, pair)
                assert got == bijection_on_z_n_4(n, s, pair), (n, s, pair)
                assert got or pair not in chain_pairs
                outcomes.add(got)
    assert outcomes == {True, False}


def test_bijection_rejects_wrong_determinant():
    with pytest.raises(NotConsecutive):
        verify_pair_bijection(5, 3, ((5, 0), (1, 2)))


def test_bijection_checks_shear():
    with pytest.raises(NonCoprimeShear):
        verify_pair_bijection(4, 2, ((4, 0), (1, 1)))


def test_bijection_negative_control():
    # det = N alone is not enough: this pair is not adapted to the
    # shear-3 lattice and must fail
    assert not verify_pair_bijection(5, 3, ((5, 0), (0, 1)))
