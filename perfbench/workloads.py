"""Inputs of the benchmark workloads, built from plain data and a seed.

Nothing here imports eisenlab: the runner generates every claim before
any timing starts and hands the worker processes only plain JSON.
"""
from __future__ import annotations

import random
from math import gcd

DEFAULT_SEED = 1
CONFIRM_SEED = 2

# The showcase claims a CLI user runs one at a time.  Points are
# [c1, c2, M], meaning (c1/M, c2/M); p and q are rational strings.
CLAIMS_COLD = [
    {"kind": "two_term", "lam": [1, 0, 5], "mu": [0, 1, 5],
     "expect": "VERIFIED"},
    {"kind": "three_term", "lam": [1, 0, 5], "mu": [0, 1, 5],
     "expect": "VERIFIED"},
    # the zero point puts the claim outside its hypotheses
    {"kind": "three_term", "lam": [0, 0, 5], "mu": [0, 1, 5],
     "expect": "INCONCLUSIVE"},
    {"kind": "three_term", "lam": [1, 0, 7], "mu": [0, 1, 7],
     "expect": "VERIFIED"},
    {"kind": "prop21", "k": 3, "lam": [1, 0, 3], "mu": [0, 1, 3],
     "p": "2", "q": "-1", "expect": "VERIFIED"},
    # weight 4 with p = q = 1 takes the depth-2 peel
    {"kind": "prop21", "k": 4, "lam": [1, 0, 2], "mu": [0, 1, 2],
     "p": "1", "q": "1", "expect": "VERIFIED"},
    {"kind": "prop21", "k": 5, "lam": [1, 0, 3], "mu": [0, 1, 3],
     "p": "1", "q": "2", "expect": "VERIFIED"},
    {"kind": "hecke", "n_sub": 5, "shear": 3, "lam": [0, 0, 1],
     "mu": [0, 0, 1], "k": 2, "p": "1", "q": "1", "expect": "VERIFIED"},
    {"kind": "hecke", "n_sub": 3, "shear": 1, "lam": [1, 0, 2],
     "mu": [0, 1, 2], "k": 3, "p": "1", "q": "1", "expect": "VERIFIED"},
]

# The north-star instance.  The default truncation (910) takes minutes;
# 91 is the width-aware Sturm bound for weight 3 at level 10.
HECKE_L10 = {"kind": "hecke", "n_sub": 5, "shear": 3, "lam": [1, 0, 2],
             "mu": [0, 1, 2], "k": 3, "p": "1", "q": "1",
             "truncation": 91, "expect": "VERIFIED"}


SWEEP_LEVEL = 6
SWEEP_WEIGHTS = (3, 4)
SWEEP_MEMBER_SEED = 0
PQ_RANGE = 5
K33_PER_PASS = 200
KERNEL_WEIGHTS = range(2, 13)
CHAIN_MAX_LEVEL = 12


def claim_label(claim: dict) -> str:
    """A stable name for one claim, used as its key in expected.json."""
    def pt(v):
        return f"{v[0]},{v[1]}@{v[2]}"

    kind = claim["kind"]
    if kind == "kernel":
        parts = [claim["id"]]
        if claim.get("k") is not None:
            parts.append(f"k={claim['k']}")
        if claim.get("chain"):
            parts.append("chain={},{}".format(*claim["chain"]))
        if claim.get("quad"):
            parts.append("quad={},{},{},{}".format(*claim["quad"]))
        return "kernel " + " ".join(parts)
    parts = [kind]
    if kind == "hecke":
        parts.append(f"N={claim['n_sub']} S={claim['shear']}")
    if "k" in claim:
        parts.append(f"k={claim['k']}")
    parts.append(f"lam={pt(claim['lam'])} mu={pt(claim['mu'])}")
    if "p" in claim:
        parts.append(f"p={claim['p']} q={claim['q']}")
    if claim.get("truncation") is not None:
        parts.append(f"B={claim['truncation']}")
    return " ".join(parts)


def _point_type(c1: int, c2: int, level: int) -> tuple[int, bool]:
    # gcd(c1, N) fixes which exponents of E_{k,(c1,c2)} are nonzero, and
    # c2 with 2*c2 = 0 mod N makes every coefficient rational; together
    # they set most of a claim's cost
    return gcd(c1, level), (2 * c2) % level == 0


def sweep_strata(level: int = SWEEP_LEVEL) -> list[list[tuple]]:
    """All (lam, mu) with lam, mu and nu = -lam-mu nonzero, grouped by
    the sorted types of the three points, in a fixed order."""
    groups: dict[tuple, list[tuple]] = {}
    pts = [(a, b) for a in range(level) for b in range(level)
           if (a, b) != (0, 0)]
    for lam in pts:
        for mu in pts:
            nu = ((-lam[0] - mu[0]) % level, (-lam[1] - mu[1]) % level)
            if nu == (0, 0):
                continue
            key = tuple(sorted(_point_type(*x, level) for x in (lam, mu, nu)))
            groups.setdefault(key, []).append((lam, mu))
    return [groups[key] for key in sorted(groups)]


def _random_pq(rng: random.Random) -> tuple[int, int]:
    while True:
        p = rng.randint(-PQ_RANGE, PQ_RANGE)
        q = rng.randint(-PQ_RANGE, PQ_RANGE)
        if p and q and p + q:
            return p, q


def sweep_batch(seed: int) -> list[dict]:
    """One batch of random prop21 claims at the sweep level.

    The batch holds one claim per stratum, with random p and q.  The
    members of a stratum differ in cost by up to a fifth, and the
    median claim of a batch jumped by up to a quarter when the seed
    drew them, so each stratum is represented by one member drawn once
    with SWEEP_MEMBER_SEED.  The weights take turns over the strata in
    their fixed order.  So every seed sweeps the same mix of work.
    """
    pick = random.Random(SWEEP_MEMBER_SEED)
    rng = random.Random(seed)
    batch = []
    for i, members in enumerate(sweep_strata()):
        lam, mu = pick.choice(members)
        p, q = _random_pq(rng)
        batch.append({
            "kind": "prop21", "k": SWEEP_WEIGHTS[i % len(SWEEP_WEIGHTS)],
            "lam": [lam[0], lam[1], SWEEP_LEVEL],
            "mu": [mu[0], mu[1], SWEEP_LEVEL],
            "p": str(p), "q": str(q), "expect": "VERIFIED"})
    rng.shuffle(batch)
    return batch


def coprime_chains(max_level: int = CHAIN_MAX_LEVEL) -> list[tuple[int, int]]:
    return [(n, s) for n in range(1, max_level + 1) for s in range(n)
            if gcd(s, n) == 1]


def k33_quadruples(rng: random.Random, count: int) -> list[tuple[int, ...]]:
    out = []
    while len(out) < count:
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        if a * d - b * c:
            out.append((a, b, c, d))
    return out


def kernel_pass(seed: int) -> list[dict]:
    """Every kernel proof, with K33 on quadruples drawn from the seed."""
    rng = random.Random(seed)
    claims = [{"kind": "kernel", "id": "K16"}]
    claims += [{"kind": "kernel", "id": ident, "k": k}
               for ident in ("K23", "K24") for k in KERNEL_WEIGHTS]
    claims += [{"kind": "kernel", "id": "K32", "chain": list(ch)}
               for ch in coprime_chains()]
    claims += [{"kind": "kernel", "id": "K34", "k": 3, "chain": list(ch)}
               for ch in coprime_chains()]
    claims += [{"kind": "kernel", "id": "K33", "quad": list(q)}
               for q in k33_quadruples(rng, K33_PER_PASS)]
    return claims
