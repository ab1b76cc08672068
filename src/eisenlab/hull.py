"""First-quadrant convex hull chains of shear sublattices, and the
finite pair-bijection check attached to their consecutive vectors.

The sublattice for level N and shear S is L = {(x, y) : x = S*y mod N};
the chain lists every lattice point on the origin-facing boundary of the
convex hull of its nonzero first-quadrant points, from (N, 0) to (0, N),
so consecutive determinants all equal N.
"""
from __future__ import annotations

from math import gcd

from .value import Value


class NonCoprimeShear(ValueError):
    """hull_chain requires gcd(S, N) = 1."""


class NotConsecutive(ValueError):
    """verify_pair_bijection got a pair with determinant != N."""


Vec = tuple[int, int]


class HullChain(Value):
    __slots__ = ("level", "shear", "vectors")

    def __init__(self, level: int, shear: int, vectors: tuple[Vec, ...]):
        self._set(level, shear, vectors)

    def pairs(self) -> tuple[tuple[Vec, Vec], ...]:
        return tuple(zip(self.vectors, self.vectors[1:]))


def sublattice_points(n: int, s: int) -> list[Vec]:
    """Nonzero points of the shear sublattice inside [0, n]^2."""
    pts = []
    for y in range(n + 1):
        for x in range(n + 1):
            if (x - s * y) % n == 0 and (x, y) != (0, 0):
                pts.append((x, y))
    return pts


def _check_shear(n: int, s: int) -> int:
    s %= n
    if gcd(s, n) != 1:
        raise NonCoprimeShear(f"gcd({s}, {n}) != 1")
    return s


def hull_chain(n: int, s: int) -> HullChain:
    """The boundary chain v_0 = (N, 0), v_1 = (S, 1) and
    v_(i+1) = m_i v_i - v_(i-1), m_i = ceil(x_(i-1) / x_i), until x = 0.

    With det(u, v) = u_x v_y - u_y v_x:

    - det(v_i, v_(i+1)) = det(v_(i-1), v_i) = ... = det(v_0, v_1) = N,
      the index of L in Z^2, so each consecutive pair is a basis of L.
    - x_(i+1) = m_i x_i - x_(i-1) lies in [0, x_i), so x strictly
      decreases and the walk ends.  x_(i-1) > x_i gives m_i >= 2, so
      y_(i+1) - y_i >= y_i - y_(i-1) >= ... >= y_1 - y_0 = 1.
    - The last vector (0, y) is in L, so N | y as gcd(S, N) = 1; with its
      predecessor (x > 0) it is a basis of L, so y | N: it is (0, N).
    - The cones of consecutive pairs tile the first quadrant.  The
      nonzero points of L in the cone of (v_i, v_(i+1)) are a v_i +
      b v_(i+1), integers a, b >= 0, so they lie beyond the segment from
      v_i to v_(i+1) or are its ends.  As v_(i-1) + v_(i+1) = m_i v_i,
      m_i >= 2, the broken line bends towards the origin or runs
      straight: it is the hull boundary, and the chain lists each of its
      lattice points once.  These are Hirzebruch-Jung continued
      fractions (Fulton, Introduction to Toric Varieties, section 2.6).

    >>> hull_chain(1, 0).vectors
    ((1, 0), (0, 1))
    >>> hull_chain(5, 3).vectors
    ((5, 0), (3, 1), (1, 2), (0, 5))
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    s = _check_shear(n, s)
    chain = [(n, 0), (s, 1)]
    while chain[-1][0]:
        (x0, y0), (x1, y1) = chain[-2], chain[-1]
        m = -(-x0 // x1)
        chain.append((m * x1 - x0, m * y1 - y0))
    return HullChain(level=n, shear=s, vectors=tuple(chain))


def verify_pair_bijection(n: int, s: int, pair: tuple[Vec, Vec]) -> bool:
    """Check that a consecutive hull pair ((a,b), (c,d)) induces a
    bijection from the congruence lattice onto the integer lattice.

    Work in the finite shadow: with v, w in (Z/n)^2 standing for
    numerator vectors of n-torsion points, the constraint set is
    Lbar = {(v, w) : S v + w = 0 mod n}.  The pair passes iff the map
    (v, w) -> (a v + b w, c v + d w) mod n kills exactly Lbar; with
    determinant ad - bc = n this says the induced map on the full
    preimage lattice hits Z^4 bijectively.  The map and Lbar act on each
    coordinate of v and w alone, so that test on (Z/n)^4 is the one below
    on (Z/n)^2 twice, and |Lbar| = n^2 always.
    """
    (a, b), (c, d) = pair
    det = a * d - c * b
    if det != n:
        raise NotConsecutive(f"det {det} != level {n}")
    s = _check_shear(n, s)
    for v in range(n):
        for w in range(n):
            in_lbar = (s * v + w) % n == 0
            image_zero = (a * v + b * w) % n == 0 and (c * v + d * w) % n == 0
            if in_lbar != image_zero:
                return False
    return True
