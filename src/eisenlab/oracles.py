"""Independent recomputation routes for the unit tests and the acceptance
suite.

Everything here deliberately avoids the code paths under test: Bernoulli
numbers come from the Akiyama-Tanigawa triangle instead of the package's
power-sum recurrence, hulls from a monotone chain in sheared coordinates
instead of gift wrapping, and constant terms / point values from direct
(conditionally or absolutely convergent) lattice sums.
"""
from __future__ import annotations

from fractions import Fraction

import mpmath


def sigma(n: int, power: int) -> int:
    """Divisor-power sum by trial division."""
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** power
            if d != n // d:
                total += (n // d) ** power
        d += 1
    return total


def bernoulli_akiyama(n: int) -> Fraction:
    """Bernoulli number via the Akiyama-Tanigawa triangle.

    The triangle produces the B1 = +1/2 convention; the package uses
    B1 = -1/2, and all other odd indices vanish, so only n = 1 needs a
    sign flip.
    """
    if n == 1:
        return Fraction(-1, 2)
    row = [Fraction(1, m + 1) for m in range(n + 1)]
    for j in range(1, n + 1):
        for m in range(n + 1 - j):
            row[m] = (m + 1) * (row[m] - row[m + 1])
    return row[0]


def row_constant(k: int, n: int, c2: int) -> complex:
    """Constant term contributed by the horizontal lattice row.

    Sums b^{-k} over b in c2/n + Z symmetrically (paired terms make the
    k = 1 case absolutely convergent), then applies the completed-series
    normalization (k-1)! (-2 pi i)^{-k}.  Requires c2 != 0 mod n.
    """
    if c2 % n == 0:
        raise ValueError("row sum oracle needs a puncture-free row")
    with mpmath.workdps(40):
        def paired(j):
            j = int(j)
            return (mpmath.mpf(c2 + j * n)) ** (-k) + \
                (mpmath.mpf(c2 - j * n)) ** (-k)

        total = mpmath.mpf(c2) ** (-k) + mpmath.nsum(paired, [1, mpmath.inf])
        total *= mpmath.mpf(n) ** k
        scaled = total * mpmath.factorial(k - 1) * \
            (-2j * mpmath.pi) ** (-k)
        return complex(scaled)


def lattice_value(k: int, n: int, c1: int, c2: int, z: complex,
                  box: int = 300) -> complex:
    """Truncated double lattice sum for the completed series, k >= 3.

    The square-box tail decays like box^{2-k}; one Richardson step over
    box/2 and box removes the leading term.
    """
    if k < 3:
        raise ValueError("direct double sum needs absolute convergence")

    def raw(b: int) -> complex:
        total = 0j
        for i in range(-b, b + 1):
            a = (c1 + i * n) / n
            for j in range(-b, b + 1):
                c = (c2 + j * n) / n
                if a == 0 and c == 0:
                    continue
                total += (a * z + c) ** (-k)
        return total

    coarse, fine = raw(box // 2), raw(box)
    corrected = fine + (fine - coarse) / (2 ** (k - 2) - 1)
    with mpmath.workdps(30):
        scale = complex(mpmath.factorial(k - 1) * (-2j * mpmath.pi) ** (-k))
    return corrected * scale


def hull_oracle(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Lower-left hull boundary via a monotone chain.

    Shearing to (y - x, x + y) turns the lower-left boundary into the
    lower hull of that point set, which Andrew's scan finds directly.
    The pop is strict so collinear boundary lattice points stay listed.
    """
    pts = sorted((y - x, x + y, x, y) for x, y in points)
    hull: list[tuple[int, int, int, int]] = []
    for p in pts:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (a[0] - o[0]) * (p[1] - o[1]) - \
                (a[1] - o[1]) * (p[0] - o[0])
            if cross < 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return [(x, y) for _, _, x, y in hull]


def naive_convolution(a: dict[int, object], b: dict[int, object],
                      truncation: int) -> dict[int, object]:
    """Schoolbook product of two exponent->coefficient maps; the
    truncation bound is inclusive."""
    out: dict[int, object] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            if ea + eb > truncation:
                continue
            prod = ca * cb
            if ea + eb in out:
                out[ea + eb] = out[ea + eb] + prod
            else:
                out[ea + eb] = prod
    return {e: c for e, c in out.items() if not c.is_zero()}
