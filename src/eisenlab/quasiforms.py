"""Calculus of nearly holomorphic expansions with exact coefficients.

A form of depth d is stored as components (h_0, ..., h_d), meaning
h_0 + h_1 Y + ... + h_d Y^d with Y = 1/(4 pi y) and each h_j a QSeries.
Depth is capped at 2: every expression this laboratory needs lives in
depth <= 2, and hitting Y^3 signals a modelling error, not a limit to
work around.

The two derivations used throughout:
  theta = (2 pi i)^{-1} d/dz, with theta(q_N^n) = (n/N) q_N^n and
  theta(Y) = Y^2;
  delta_w = theta - w Y, which raises weight by 2 and depth by 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul

from .cyclotomic import (Cyclotomic, _multiplier, _power_table, cyclo_embed,
                         euler_phi)
from .eisenstein import (EisIndex, QSeries, _integral, _pack, _unpack, _width,
                         eis_qseries, sturm_truncation)

MAX_DEPTH = 2

# decimal digits of the numeric cross-checks; the certifier itself is exact
EVAL_DIGITS = 60


class DepthOverflow(ArithmeticError):
    """An operation produced a Y-power beyond depth 2."""


class TopComponentNotEisenstein(ValueError):
    """A Y-component fell outside the span the peel step requires."""


class UnsupportedWeight(ValueError):
    """Peeling needs weight >= depth + 2 at each stage."""


class QuasiForm:
    """Weighted stack of QSeries components in powers of Y."""

    __slots__ = ("weight", "level", "truncation", "components")

    def __init__(self, weight: int, level: int, truncation: int,
                 components: tuple[QSeries, ...]):
        comps = list(components)
        while comps and comps[-1].is_zero():
            comps.pop()
        if not comps:
            comps = [QSeries.zero(level, truncation)]
        if len(comps) - 1 > MAX_DEPTH:
            raise DepthOverflow(f"depth {len(comps) - 1} exceeds {MAX_DEPTH}")
        for h in comps:
            if h.level != level or h.truncation != truncation:
                raise ValueError("component level/truncation mismatch")
        self.weight = weight
        self.level = level
        self.truncation = truncation
        self.components = tuple(comps)

    @property
    def depth(self) -> int:
        return len(self.components) - 1

    def component(self, j: int) -> QSeries:
        if j < len(self.components):
            return self.components[j]
        return QSeries.zero(self.level, self.truncation)

    def is_zero(self) -> bool:
        return all(h.is_zero() for h in self.components)

    def _check(self, other: QuasiForm):
        if self.level != other.level or self.truncation != other.truncation:
            raise ValueError("level/truncation mismatch")

    def __add__(self, other: QuasiForm) -> QuasiForm:
        self._check(other)
        if self.weight != other.weight:
            raise ValueError("cannot add forms of different weights")
        d = max(self.depth, other.depth)
        comps = tuple(self.component(j) + other.component(j) for j in range(d + 1))
        return QuasiForm(self.weight, self.level, self.truncation, comps)

    def __neg__(self) -> QuasiForm:
        return QuasiForm(self.weight, self.level, self.truncation,
                         tuple(-h for h in self.components))

    def __sub__(self, other: QuasiForm) -> QuasiForm:
        return self + (-other)

    def scale(self, factor) -> QuasiForm:
        return QuasiForm(self.weight, self.level, self.truncation,
                         tuple(h.scale(factor) for h in self.components))

    def __eq__(self, other):
        if not isinstance(other, QuasiForm):
            return NotImplemented
        return (self.weight == other.weight and self.level == other.level
                and self.truncation == other.truncation
                and self.components == other.components)

    def __repr__(self):
        return (f"QuasiForm(k={self.weight}, N={self.level}, "
                f"B={self.truncation}, depth={self.depth})")


def quasi_mul(f: QuasiForm, g: QuasiForm) -> QuasiForm:
    """Product; weights add, Y-powers convolve, depth > 2 raises."""
    f._check(g)
    d = f.depth + g.depth
    if d > MAX_DEPTH:
        raise DepthOverflow(f"product depth {d} exceeds {MAX_DEPTH}")
    comps = [QSeries.zero(f.level, f.truncation) for _ in range(d + 1)]
    for a, ha in enumerate(f.components):
        for b, hb in enumerate(g.components):
            comps[a + b] = comps[a + b] + ha * hb
    return QuasiForm(f.weight + g.weight, f.level, f.truncation, tuple(comps))


def mul_y(f: QuasiForm) -> QuasiForm:
    """Multiply by Y, shifting every component up one depth."""
    if f.is_zero():
        return QuasiForm(f.weight + 2, f.level, f.truncation, ())
    if f.depth + 1 > MAX_DEPTH:
        raise DepthOverflow("Y-multiplication exceeds depth 2")
    zero = QSeries.zero(f.level, f.truncation)
    return QuasiForm(f.weight + 2, f.level, f.truncation,
                     (zero,) + f.components)


def theta(f: QuasiForm) -> QuasiForm:
    """Raising derivation: theta(h Y^j) = (theta h) Y^j + j h Y^{j+1}."""
    top = f.depth + (1 if f.depth and not f.components[-1].is_zero() else 0)
    if top > MAX_DEPTH:
        raise DepthOverflow("theta exceeds depth 2")
    comps = [QSeries.zero(f.level, f.truncation) for _ in range(top + 1)]
    for j, h in enumerate(f.components):
        comps[j] = comps[j] + h.theta()
        if j:
            comps[j + 1] = comps[j + 1] + h.scale(j)
    return QuasiForm(f.weight + 2, f.level, f.truncation, tuple(comps))


def delta(f: QuasiForm, w: int | None = None) -> QuasiForm:
    """Weight-raising operator delta_w = theta - w Y; w defaults to the
    form's own weight, the only value under which products obey Leibniz."""
    if w is None:
        w = f.weight
    lowered = theta(f)
    shifted = mul_y(f).scale(w)
    comps = tuple(lowered.component(j) - shifted.component(j)
                  for j in range(max(lowered.depth, shifted.depth) + 1))
    return QuasiForm(f.weight + 2, f.level, f.truncation, comps)


@lru_cache(maxsize=1024)
def eis_series(idx: EisIndex, truncation: int | None = None) -> QuasiForm:
    """Normalized Eisenstein series as a QuasiForm.

    Weight 2 carries the Hecke-summation completion: its Y-component is
    the constant series 1, independently of the torsion index.
    """
    b = sturm_truncation(idx.weight, idx.level) if truncation is None else truncation
    holo = eis_qseries(idx, b)
    if idx.weight == 2:
        comps = (holo, QSeries.const(idx.level, b, 1))
    else:
        comps = (holo,)
    return QuasiForm(idx.weight, idx.level, b, comps)


class EisBasis:
    """All level-N weight-k Eisenstein series at one truncation.

    Every torsion index is retained, including indices whose series
    vanishes identically, with one exception: (0, 0) is dropped when its
    series is zero, so the basis never contains the zero form at the
    index that cannot be distinguished from "no series at all".
    """

    __slots__ = ("weight", "level", "truncation", "indices", "members",
                 "by_index", "_rref")

    def __init__(self, weight: int, level: int, truncation: int):
        self.weight = weight
        self.level = level
        self.truncation = truncation
        indices = []
        members = []
        for c1 in range(level):
            for c2 in range(level):
                idx = EisIndex(weight, level, c1, c2)
                form = eis_series(idx, truncation)
                if (c1, c2) == (0, 0) and form.is_zero():
                    continue
                indices.append(idx)
                members.append(form)
        self.indices = tuple(indices)
        self.members = tuple(members)
        self.by_index = dict(zip(self.indices, self.members))
        self._rref = None

    def __len__(self):
        return len(self.members)

    def rref(self) -> list:
        """The (pivot key, track) pairs of the row reduction, in the order
        the rows arise (`_row_reduce`), built on first use."""
        if self._rref is None:
            self._rref = _row_reduce(self.members, self.level)
        return self._rref


@lru_cache(maxsize=32)
def eis_basis(weight: int, level: int, truncation: int | None = None) -> EisBasis:
    b = sturm_truncation(weight, level) if truncation is None else truncation
    return EisBasis(weight, level, b)


# -- the row reduction: proposed modulo a split prime, proved exactly ------
#
# A QuasiForm flattens to a vector indexed by (Y-degree, q-exponent); that
# pair, ordered lexicographically, is also the pivot order, so residuals
# come out in a canonical normal form.


class _Rejected(ArithmeticError):
    """A modular proposal that did not lift or did not prove."""


def _row_reduce(members, n: int) -> list:
    """The (pivot, track) pairs of `oracles.exact_rref(members)`, proposed
    modulo a split prime on a window of low exponents and proved exactly.

    The keys (j, e) of the stacked members are numbered in key order, and
    these numbers are the slots of each member's packed planes (`_planes`).

    Propose (`_propose`): under each embedding zeta -> omega^s of
    Q(zeta_n) into F_ell, run the elimination (`_eliminate`) on the keys
    (j, e) with e < W, the window; every embedding must give every member
    the same pivot.  Each track entry is lifted from its phi(n) images by
    the inverse embedding table and rational reconstruction.  This gives
    pivots p_t (None for a dropped member), first tracks F_t and row
    tracks T_i.

    Prove (`_prove`), exactly and over every key, with packed integer
    combinations of the members:
      (s) every member has a pivot slot or None and a first track F_t;
          F_t uses only kept members before t and t itself, with
          F_t[t] = 1 when t is dropped; each T_i uses only kept members,
          one T_i per kept member;
      (b) for dropped t, sum_s F_t[s] m_s = 0; for kept t,
          w_t = sum_s F_t[s] m_s is 1 at p_t and 0 at every key below;
      (a) R_i = sum_s T_i[s] m_s is 1 at its pivot, 0 at the other
          pivots, and 0 below its pivot.
    Why this is the Gauss-Jordan result.  Let V_t be the span of the
    members before t and L(W) the set of least keys of the nonzero
    vectors of a space W.  Taking the members in order, the exact loop
    keeps t iff m_t is not in V_t; its rows are then the reduced echelon
    basis of V_{t+1}, whose pivots are L(V_{t+1}), so its pivot for t is
    the one key of L(V_{t+1}) that is not in L(V_t).  By (s) and (b) every
    dropped m_t lies in the span of earlier kept members, so V_{t+1} is
    spanned by the kept members up to t.  By (a) the R_i are as many
    independent vectors as there are kept members, all in the span V of
    these, so the kept members are independent: the loop keeps exactly
    them, and dim V_{t+1} is the number of kept members up to t.  For
    each kept s <= t, w_s lies in V_{t+1} and has least key p_s (b), so
    L(V_{t+1}) holds these keys and, by its size, no others: the loop
    pairs each kept t with p_t, and its rows come in the same order.  Its
    final rows are the vectors of V that are 1 at one pivot and 0 at the
    others, unique because a vector of V that vanishes on L(V) is 0, and
    their tracks over the independent kept members are unique: by (a)
    they are the R_i and T_i.  The final rows alone do not fix the order
    in which the loop finds the pivots; the first tracks of the kept
    members do.

    The proof reads nothing of how the proposal was found, so the window
    is a guess that the checks confirm: W starts at the number of
    members, and a failed check doubles W while some key lies outside
    it.  A failure in the proposal (disagreeing embeddings, a
    non-invertible element, a failed reconstruction), or a failed check
    once the window holds every key, moves on to the split prime with
    twice the bits.  The loop ends.  The elimination on a window is the
    exact loop on the members cut down to the window's keys, and only
    finitely many primes divide a denominator of the members or a
    nonzero value that this loop tests or divides by; so from some size
    on every embedding takes its steps, and reconstruction returns its
    true tracks once ell > 2 H^2 for their height H.  Each window thus
    fails only finitely often before its proposal is checked, every
    failed check of a partial window doubles W, and once W holds every
    key the windowed loop is the exact loop, whose proposal passes.
    """
    keys = sorted({(j, e) for f in members for j, h in enumerate(f.components)
                   for e in h.vecs})
    slot = {key: s for s, key in enumerate(keys)}
    packed = [_planes(f, slot, euler_phi(n)) for f in members]
    top = max((e for _, e in keys), default=0)
    bits, window = 64, len(members)
    while True:
        try:
            proposal = _propose(packed, n, keys, window, bits)
        except _Rejected:
            bits *= 2
            continue
        try:
            return _prove(packed, n, keys, *proposal)
        except _Rejected:
            if window > top:
                bits *= 2
            else:
                window *= 2


def _propose(packed: list, n: int, keys: list, window: int, bits: int):
    """(pivots, firsts, tracks) of `_row_reduce`, eliminating on the keys
    (j, e) with e < window modulo the split prime above 2^bits; pivots
    are slots."""
    inside = [s for s, (_, e) in enumerate(keys) if e < window]
    spans = []  # [first slot, count] of each run of consecutive slots
    for s in inside:
        if spans and sum(spans[-1]) == s:
            spans[-1][1] += 1
        else:
            spans.append([s, 1])
    ell, table, inverse = _split_prime(n, bits)
    runs = [_eliminate((_embed(m, row, ell, spans) for m in packed), ell,
                       len(packed)) for row in table]
    pivots = runs[0][0]
    if any(run[0] != pivots for run in runs):
        raise _Rejected(f"the embeddings disagree on the pivots mod {ell}")
    pivots = [None if p is None else inside[p] for p in pivots]
    kept = [t for t, p in enumerate(pivots) if p is not None]
    zero = Fraction(0)

    def lift(images: list[list[int]], positions: list[int]) -> dict:
        """A track's entries at `positions`, lifted from its image under
        every embedding; zero entries are left out."""
        out = {}
        for s in positions:
            values = [image[s] for image in images]
            if any(values):
                coords = (sum(map(mul, r, values)) % ell for r in inverse)
                out[s] = Cyclotomic(n, tuple(_ratrec(x, ell) if x else zero
                                             for x in coords))
        return out

    firsts = [lift([run[1][t] for run in runs], [s for s in kept if s < t] + [t])
              for t in range(len(packed))]
    tracks = [lift([run[2][i] for run in runs], kept)
              for i in range(len(kept))]
    return pivots, firsts, tracks


def _prove(packed: list, n: int, keys: list, pivots: list, firsts: list,
           tracks: list) -> list:
    """The (pivot, track) pairs, once (s), (b) and (a) of `_row_reduce`
    hold; raises _Rejected when one fails.  Repacks every member of
    packed, in place, at a width that holds every combination."""
    phi, size = euler_phi(n), len(keys)
    kept = [t for t, p in enumerate(pivots) if p is not None]
    if (len(pivots) != len(packed) or len(firsts) != len(packed)
            or any(p is not None and not 0 <= p < size for p in pivots)
            or len(tracks) != len(kept)
            or any(not set(track) <= set(kept) for track in tracks)
            or any(not set(first) <= {s for s in kept if s < t} | {t}
                   or (pivots[t] is None and first.get(t) != 1)
                   for t, first in enumerate(firsts))):
        raise _Rejected("a track uses a member it may not")
    dens, tops = [m[0] for m in packed], [m[1] for m in packed]
    width = _width(max([*tops, *(_bound(c, dens, tops, n, phi)
                                 for c in firsts + tracks)], default=0))
    for t, (d, top, w, planes) in enumerate(packed):
        packed[t] = d, top, width, [_pack({0: _unpack(a, size, w)}, size, width)
                                    for a in planes]
    wide = [planes for _, _, _, planes in packed]

    def check_reduced(combo: dict, pivot: int, others) -> None:
        """Rejects unless sum_t combo[t] m_t is 1 at pivot and 0 below it
        and at the keys in others."""
        den, terms = _terms(combo, dens, n)
        out = [_unpack(x, size, width) for x in _combine(terms, wide, phi)]
        if ([d[pivot] for d in out] != [den] + [0] * (phi - 1)
                or any(any(d[:pivot]) or any(d[e] for e in others)
                       for d in out)):
            raise _Rejected(f"the combination for pivot {keys[pivot]} "
                            "is not reduced")

    for t, first in enumerate(firsts):
        if pivots[t] is not None:
            check_reduced(first, pivots[t], ())
        elif any(_combine(_terms(first, dens, n)[1], wide, phi)):
            raise _Rejected(f"member {t} does not reduce to zero")
    for t, track in zip(kept, tracks):
        check_reduced(track, pivots[t], [pivots[s] for s in kept if s != t])
    return [(keys[pivots[t]], track) for t, track in zip(kept, tracks)]


def _planes(form: QuasiForm, slot: dict, phi: int):
    """(d, top, width, planes): d times the stacked form is an integer
    vector, numbered by `slot`, whose entries are at most top in absolute
    value; planes[i] packs its i-th power-basis coordinate, `width` bytes
    a slot (`eisenstein._pack`)."""
    d = lcm(*(h.den for h in form.components))
    vecs = {slot[j, e]: [x * (d // h.den) for x in v]
            for j, h in enumerate(form.components) for e, v in h.vecs.items()}
    top = max((abs(x) for v in vecs.values() for x in v), default=0)
    width = _width(top)
    return d, top, width, [_pack({s: v[i:i + 1] for s, v in vecs.items()}, 1,
                                 width) if vecs else 0 for i in range(phi)]


def _embed(member, row: list, ell: int, spans) -> list[int]:
    """The member's vector mod ell under the embedding that maps the power
    basis to row, at the slots of the (first slot, count) spans only."""
    d, _, width, planes = member
    scale = _inverse(d, ell)
    weights = [x * scale % ell for x in row]
    out = []
    for first, count in spans:
        columns = [_unpack(a, count, width, first) for a in planes]
        out += [sum(map(mul, col, weights)) % ell for col in zip(*columns)]
    return out


def _terms(combo: dict, dens: list, n: int):
    """(D, terms) for the combination sum_t combo[t] m_t.

    Write combo[t] = c_t / D_c with integer vectors c_t and m_t =
    A_t / dens[t] as in `_planes`, and let E be the lcm of the dens[t].
    Plane p of D = D_c E times the combination is the sum over (t, k) in
    terms of sum_i k[p][i] A_{t,i}, where k is E / dens[t] times the
    matrix of c_t on the power basis: its column i is c_t zeta^i.
    """
    dc, nums = _integral(combo)
    e = lcm(*(dens[t] for t in combo))
    terms = []
    for t, c in nums.items():
        terms.append((t, [[x * (e // dens[t]) for x in row]
                          for row in _multiplier(n, c)]))
    return dc * e, terms


def _bound(combo: dict, dens: list, tops: list, n: int, phi: int) -> int:
    """A bound on every slot of every plane of `_terms(combo, ...)`.

    Each entry of c_t zeta^i is at most g |c_t|_1, g the largest entry
    of a power of zeta on the power basis, and |A_{t,i}| <= tops[t]
    slotwise, so a slot of plane p is at most
    sum_t phi g |c_t|_1 (E / dens[t]) tops[t].
    """
    _, nums = _integral(combo)
    e = lcm(*(dens[t] for t in combo))
    g = max([1, *(abs(v) for row in _power_table(n) for v in row)])
    return phi * g * sum(sum(map(abs, c)) * (e // dens[t]) * tops[t]
                         for t, c in nums.items())


def _combine(terms, planes: list, phi: int) -> list[int]:
    """The phi planes of the combination that `_terms` describes."""
    return [sum(sum(map(mul, k[p], planes[t])) for t, k in terms)
            for p in range(phi)]


def _inverse(x: int, ell: int) -> int:
    if gcd(x, ell) != 1:
        raise _Rejected(f"{x} is not invertible mod {ell}")
    return pow(x, -1, ell)


def _probable_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 37; n > 37."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _ratrec(a: int, ell: int) -> Fraction:
    """The x = u/v with u = a v (mod ell) and |u|, v <= sqrt(ell/2); it
    is unique when it exists (Wang's rational reconstruction)."""
    bound = isqrt(ell // 2)
    r0, r1, t0, t1 = ell, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or gcd(r1, t1) != 1:
        raise _Rejected(f"{a} has no small preimage mod {ell}")
    return Fraction(r1, t1)


def _eliminate(vectors, ell: int, count: int):
    """The loop of `oracles.exact_rref` in F_ell, over dense vectors.

    Returns each member's pivot (None when it reduces to zero) and its
    first track: for a dropped member the relation that reduced it to
    zero (1 at itself), for a kept one the track of its row as inserted,
    normalized but not yet cleared by later rows.  Then the final track
    of each row.  Tracks are lists over the `count` members.
    """
    rows, pivots, firsts = [], [], []
    for pos, vec in enumerate(vectors):
        track = [0] * count
        track[pos] = 1
        # the rows are 0 at each other's pivots, so every c is read off
        # the member itself, and one reduction mod ell at the end will do
        for pivot, rvec, rtrack in rows:
            c = vec[pivot]
            if c:
                vec = [x - c * y for x, y in zip(vec, rvec)]
                track = [x - c * y for x, y in zip(track, rtrack)]
        vec = [x % ell for x in vec]
        track = [x % ell for x in track]
        pivot = next((i for i, x in enumerate(vec) if x), None)
        pivots.append(pivot)
        if pivot is not None:
            inv = _inverse(vec[pivot], ell)
            vec = [x * inv % ell for x in vec]
            track = [x * inv % ell for x in track]
            for i, (p, rvec, rtrack) in enumerate(rows):
                c = rvec[pivot]
                if c:
                    rvec = [(x - c * y) % ell for x, y in zip(rvec, vec)]
                    rtrack = [(x - c * y) % ell for x, y in zip(rtrack, track)]
                    rows[i] = (p, rvec, rtrack)
            rows.append((pivot, vec, track))
        firsts.append(track)
    return pivots, firsts, [track for _, _, track in rows]


@lru_cache(maxsize=32)
def _split_prime(n: int, bits: int):
    """(ell, table, inverse): ell is the least probable prime above 2^bits
    with ell = 1 mod n, so Phi_n splits mod ell into phi(n) linear
    factors.  Row s of table maps the power basis to F_ell under the
    embedding zeta -> omega^s, one row for each unit s mod n, with omega
    a primitive n-th root mod ell; inverse[i] recovers coordinate i from
    the phi(n) images."""
    ell = (1 << bits) // n * n + 1
    while ell <= 1 << bits or not _probable_prime(ell):
        ell += n
    primes = [p for p in range(2, n + 1)
              if n % p == 0 and euler_phi(p) == p - 1]
    g = 2
    while any(pow(g, (ell - 1) // p, ell) == 1 for p in primes):
        g += 1
    omega = pow(g, (ell - 1) // n, ell)
    phi = euler_phi(n)
    table = [[pow(omega, s * i, ell) for i in range(phi)]
             for s in range(1, n + 1) if gcd(s, n) == 1]
    pivots, _, tracks = _eliminate(table, ell, phi)
    if None in pivots:
        raise _Rejected(f"the embeddings are singular mod {ell}")
    inverse = [None] * phi
    for i, track in zip(pivots, tracks):
        inverse[i] = track
    return ell, table, inverse


@dataclass(frozen=True, eq=False)
class SpanSolution:
    """Outcome of projecting a form onto an Eisenstein basis.

    coefficients holds only the nonzero entries, keyed by basis index,
    in basis enumeration order.
    """

    coefficients: dict
    residual: QuasiForm

    @property
    def in_span(self) -> bool:
        return self.residual.is_zero()


def span_solve(target: QuasiForm, basis: EisBasis) -> SpanSolution:
    """Exact projection: target = sum(coefficients * members) + residual,
    with the residual fully reduced against the basis row space.

    The rows R_i of `EisBasis.rref()` are 1 at their own pivot p_i and 0
    at the others, so target - sum_i c_i R_i vanishes at every pivot
    exactly when c_i is the target's value at p_i.  The coefficients are
    then sum_i c_i T_i over the tracks, and the residual is the target
    minus that combination of the members.  Both run in integers over
    one denominator each."""
    if target.level != basis.level or target.truncation != basis.truncation:
        raise ValueError("target and basis level/truncation mismatch")
    if target.weight != basis.weight:
        raise ValueError("target and basis weight mismatch")
    if target.is_zero():
        # zero is its own normal form: no row reduction needed
        return SpanSolution({}, target)
    n = target.level
    terms = []  # c_i T_i = (v times the vectors of nums) / d
    for (j, e), track in basis.rref():
        h = target.component(j)
        v = h.vecs.get(e)
        if v is not None:
            d, nums = _integral(track)
            terms.append((h.den * d, v, nums))
    den = lcm(*(d for d, _, _ in terms))
    combo: dict[int, list[int]] = {}
    for d, v, nums in terms:
        _add_products(combo, _multiplier(n, v), nums, den // d)
    combo = {t: combo[t] for t in sorted(combo) if any(combo[t])}
    return SpanSolution(
        coefficients={basis.indices[t]: Cyclotomic(n, tuple(Fraction(x, den)
                                                            for x in c))
                      for t, c in combo.items()},
        residual=_subtract(target, basis.members, den, combo))


def _subtract(target: QuasiForm, members, den: int, combo: dict) -> QuasiForm:
    """target - sum_t (combo[t] / den) members[t], for integer vectors
    combo[t], in integers: one common denominator per Y-degree."""
    n, b = target.level, target.truncation
    comps = []
    for j in range(MAX_DEPTH + 1):
        h = target.component(j)
        parts = [(members[t].component(j), c) for t, c in combo.items()]
        parts = [(g, c) for g, c in parts if g.vecs]
        common = lcm(h.den, *(den * g.den for g, _ in parts))
        out = {e: [common // h.den * x for x in v] for e, v in h.vecs.items()}
        for g, c in parts:
            _add_products(out, _multiplier(n, c), g.vecs,
                          -(common // (den * g.den)))
        comps.append(QSeries._of(n, b, common,
                                 {e: tuple(v) for e, v in out.items()}))
    return QuasiForm(target.weight, n, b, tuple(comps))


def _add_products(out: dict, rows: list, vecs: dict, k: int) -> None:
    """out[key] += k times rows times vecs[key], for every key of vecs."""
    rows = [[k * x for x in row] for row in rows]
    for key, v in vecs.items():
        acc = out.setdefault(key, [0] * len(rows))
        for p, row in enumerate(rows):
            acc[p] += sum(map(mul, row, v))


# -- peeling nonholomorphic components -------------------------------------


def peel(f: QuasiForm) -> tuple[QSeries, list[tuple[EisIndex, Cyclotomic]]]:
    """Strip the positive Y-components of f as images of delta.

    Returns (remainder, certificate) with
        f = remainder + sum(scale * delta(eis_series(idx, B)) for each
                            (idx, scale) entry),
    B being f's truncation and the remainder purely holomorphic.  Each
    idx indexes an Eisenstein series of weight f.weight - 2.  Raises
    TopComponentNotEisenstein when a Y-component is not expressible and
    UnsupportedWeight when no delta of the needed source weight exists.
    """
    level, b, k = f.level, f.truncation, f.weight
    cert: list[tuple[EisIndex, Cyclotomic]] = []
    current = f

    if current.depth == 2:
        # Only delta_2 of a weight-2 completed series produces Y^2, and
        # its Y^2 coefficient is the constant -1; the depth-2 component
        # must therefore be a constant.
        if k != 4:
            raise UnsupportedWeight(
                f"depth-2 peel needs weight 4, got {k}")
        top = current.component(2)
        if any(n != 0 for n in top.vecs):
            raise TopComponentNotEisenstein(
                "Y^2 component is not a constant series")
        c = top.coeff(0)
        basis2 = eis_basis(2, level, b)
        scale = -c
        current = current - delta(basis2.members[0]).scale(scale)
        cert.append((basis2.indices[0], scale))

    if current.depth == 1:
        if k < 3:
            raise UnsupportedWeight(
                f"depth-1 peel needs weight >= 3, got {k}")
        w = k - 2
        basis = eis_basis(w, level, b)
        wrapped = QuasiForm(w, level, b, (current.component(1),))
        sol = span_solve(wrapped, basis)
        if not sol.in_span:
            raise TopComponentNotEisenstein(
                "Y component is outside the Eisenstein span")
        for idx, coeff in sol.coefficients.items():
            member = basis.by_index[idx]
            scale = -(coeff / w)
            current = current - delta(member).scale(scale)
            cert.append((idx, scale))

    if current.depth != 0:
        raise TopComponentNotEisenstein("peel left a nonholomorphic part")
    return current.component(0), cert


def certify_orthogonal(
        f: QuasiForm) -> tuple[SpanSolution, list[tuple[EisIndex, Cyclotomic]]]:
    """Peel Y-components, then project the remainder onto the Eisenstein
    space of f's weight.  Returns (solution, certificate); the claim
    behind f holds modulo Eisenstein series iff solution.residual is 0.

    At weight 2 the basis members carry the Y-component themselves, so
    nothing is peeled: the form is solved directly against the completed
    basis.  A zero form, or a zero remainder, is its own solution and
    needs no basis."""
    if f.weight == 2:
        form, cert = f, []
    else:
        remainder, cert = peel(f)
        form = QuasiForm(f.weight, f.level, f.truncation, (remainder,))
    if form.is_zero():
        return SpanSolution({}, form), cert
    return span_solve(form, eis_basis(f.weight, f.level, f.truncation)), cert


# -- numerics --------------------------------------------------------------


def eval_at(f: QuasiForm, z, digits: int = EVAL_DIGITS) -> mpmath.mpc:
    """Evaluate at a point of the upper half plane by direct summation."""
    import mpmath  # only the numeric checks pay for importing it

    with mpmath.workdps(digits + 10):
        zz = mpmath.mpc(z)
        if mpmath.im(zz) <= 0:
            raise ValueError("evaluation point must have positive imaginary part")
        qn = mpmath.exp(2j * mpmath.pi * zz / f.level)
        y_val = 1 / (4 * mpmath.pi * mpmath.im(zz))
        total = mpmath.mpc(0)
        for j, h in enumerate(f.components):
            part = mpmath.mpc(0)
            for n, c in sorted(h.coeffs.items()):
                part += cyclo_embed(c, digits + 10) * qn ** n
            total += part * y_val ** j
        return total


def check_s_transform(idx: EisIndex, truncation: int | None = None,
                      tol: float = 1e-10) -> tuple[bool, float]:
    """Numeric consistency check at the fixed point i of z -> -1/z:
    the series at (c1, c2) must equal i^weight times the series at
    (c2, -c1) there.  Returns (within_tol, absolute_error)."""
    import mpmath

    b = 40 * idx.level if truncation is None else truncation
    left = eval_at(eis_series(idx, b), 1j)
    right = eval_at(eis_series(idx.s_transform(), b), 1j)
    with mpmath.workdps(EVAL_DIGITS):
        # unary plus rounds the guarded value to EVAL_DIGITS
        err = float(abs(+left - mpmath.mpc(1j) ** idx.weight * right))
    return err <= tol, err
