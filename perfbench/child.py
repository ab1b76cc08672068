"""Worker process of the benchmark.

Reads one job as JSON on stdin, imports eisenlab from the checkout's
``src``, optionally warms its caches, runs passes over the job's claims
and prints one JSON result on stdout.  A job:

  claims   the claims of one pass (see workloads.py)
  seconds  how long the passes may take (0: one pass)
  mode     "plain": tracer off; after the first pass, claim by claim
           in turn while the next claim, judged by its last run, ends
           in time; the result's "outs" lists the claims' outcomes in
           the order they ran.
           "traced": whole passes with the tracer on, on the same rule
           per pass.
           "paired": whole passes, each untraced and then traced.
  warmup   optional {"level": N, "weights": [k, ...]}

The timer around a claim covers only the call into eisenlab that
produces the verdict; the report payload is built outside it.  Every
outcome also carries "ref", the mean time of a fixed reference loop
timed while the claim ran and just before and after it (see Meter);
"setup_s" and "setup_ref" are the same for the set-up.
"""
from __future__ import annotations

import gc
import json
import resource
import signal
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from contextlib import nullcontext
from fractions import Fraction
from math import lcm
from pathlib import Path
from statistics import fmean

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
# how often the reference loop is timed while claims run
REF_EVERY_S = 0.25


def _reference_work() -> int:
    # a fixed mix of what eisenlab spends its time on: small Fractions,
    # big ints and dicts keyed by tuples
    acc = Fraction(0)
    table = {}
    for i in range(1, 160):
        acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
        table[(i, i % 17)] = (i << 70) // 3 + acc.numerator % 97
    return sum(v % 1000003 for v in table.values())


def reference() -> float:
    """Best of three timings of a fixed stdlib-only loop, about 0.8 ms
    at full speed on a 2-vCPU Intel Xeon VM.  It says how fast the host
    runs the machine at the moment, and no change to eisenlab moves it:
    the garbage collector, whose cost grows with eisenlab's heap, is
    off."""
    best = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            _reference_work()
            best = min(best, time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best


class Meter:
    """Times the reference loop every REF_EVERY_S from a SIGALRM
    handler, from its creation to stop().  The host can change speed in
    the middle of a claim, so a claim's reference time is the mean of
    the timings taken while it ran and of the nearest one on either
    side.  finish() takes the handler's time out of the claim's."""

    def __init__(self):
        self.ticks = []  # (when, reference time)
        self.spent = 0.0  # time spent in the handler so far
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def _tick(self, *_) -> None:
        t0 = time.perf_counter()
        self.ticks.append((t0, reference()))
        self.spent += time.perf_counter() - t0

    def start(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def finish(self, mark: tuple[float, float], out: dict) -> None:
        """Set out's time since `mark`, less the handler's, and its start
        and end for stop().  Read in this order, the handler's time
        counted lies within the interval, so the time is never negative."""
        spent = self.spent - mark[1]
        end = time.perf_counter()
        out["t"] = end - mark[0] - spent
        out["start"], out["end"] = mark[0], end

    def stop(self, outs: list[dict]) -> None:
        """Stop the timings and give each outcome its "ref"."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()
        self.ticks.sort()
        when = [w for w, _ in self.ticks]
        for out in outs:
            lo = max(bisect_left(when, out.pop("start")) - 1, 0)
            hi = bisect_right(when, out.pop("end")) + 1
            out["ref"] = fmean(ref for _, ref in self.ticks[lo:hi])


def import_eisenlab():
    sys.path.insert(0, str(ROOT / "src"))
    import eisenlab
    from eisenlab import (cli, cyclotomic, eisenstein, hull, quasiforms,
                          ratfunc, verifiers)

    if Path(eisenlab.__file__).resolve().parent != ROOT / "src" / "eisenlab":
        raise ImportError(f"eisenlab imported from {eisenlab.__file__}, "
                          f"not from {ROOT / 'src'}")
    return eisenlab


def warm_up(el, level: int, weights) -> None:
    """Fill the series and basis caches of one level and build the row
    reductions the certifier solves against: weight k, and k - 2 for
    the peel."""
    q = el.quasiforms
    for k in weights:
        b = el.eisenstein.sturm_truncation(k, level)
        for w in range(1, k + 1):
            q.eis_basis(w, level, b)
        for w in (k, k - 2):
            q.eis_basis(w, level, b).rref()


def _point(el, v):
    return el.verifiers.TorsionPoint(v[2], v[0], v[1])


def _verify(el, claim):
    """The verifier call of one claim; returns its VerificationReport."""
    v = el.verifiers
    kind = claim["kind"]
    lam, mu = _point(el, claim["lam"]), _point(el, claim["mu"])
    n_work = lcm(lam.denominator, mu.denominator)
    if kind == "two_term":
        return v.verify_two_term(lam, mu, n_work)
    if kind == "three_term":
        return v.verify_three_term_w2(lam, mu, n_work)
    p, q = Fraction(claim["p"]), Fraction(claim["q"])
    if kind == "prop21":
        return v.verify_prop21(v.LParams(lam, mu, p, q, claim["k"]), n_work)
    if kind == "hecke":
        return v.verify_hecke_trace(
            claim["n_sub"], claim["shear"], lam.rescale(n_work),
            mu.rescale(n_work), claim["k"], p, q, claim.get("truncation"))
    raise ValueError(f"unknown claim kind {kind!r}")


def _prove_kernel(el, claim):
    r = el.ratfunc
    ident = claim["id"]
    if ident == "K33":
        return r.k33_identity(*claim["quad"])
    chain = el.hull.hull_chain(*claim["chain"]) if "chain" in claim else None
    return r.check_kernel(ident, k=claim.get("k"), chain=chain)


def _defect_bits(report) -> int:
    bits = 0
    for value in report.defect.coefficients.values():
        for c in value.coeffs:
            bits = max(bits, c.numerator.bit_length(),
                       c.denominator.bit_length())
    return bits


def run_claim(el, claim, tracer=None, meter=None) -> dict:
    """Run one claim; the result holds its time and what the runner
    checks: the verdict and the report payload, or the kernel outcome.
    With a meter it also holds the claim's start and end, for
    Meter.stop."""
    out = {"t": 0.0, "error": None}
    span = tracer.span("bench.claim") if tracer else nullcontext()
    mark = meter.start() if meter else (time.perf_counter(), 0.0)
    try:
        with span:
            if claim["kind"] == "kernel":
                ok, witness = _prove_kernel(el, claim)
            else:
                report = _verify(el, claim)
    except Exception:
        out["error"] = traceback.format_exc(limit=3)
    if meter:
        meter.finish(mark, out)
    else:
        out["t"] = time.perf_counter() - mark[0]
    if out["error"]:
        return out
    try:
        if claim["kind"] == "kernel":
            out["status"] = "PROVED" if ok and witness.is_zero() else "FAILED"
            return out
        payload = el.cli.report_payload(report)
        out["status"] = payload["status"]
        out["payload"] = {
            "status": payload["status"],
            "coefficients": payload["defect"]["coefficients"],
            "certificate": payload["defect"]["certificate"],
            "residual": payload["defect"]["residual_nonzero_exponents"],
            "truncation": payload["truncation"],
        }
        out["bits"] = _defect_bits(report)
    except Exception:
        out["error"] = traceback.format_exc(limit=3)
    return out


def _cache_info(fn):
    info = getattr(fn, "cache_info", None)
    return info() if info is not None else None


def run_pass(el, claims, meter, tracer=None) -> list[dict]:
    return [run_claim(el, c, tracer, meter) for c in claims]


def run_traced_pass(el, claims, meter, tracer, caches) -> dict:
    series, basis = caches
    before = _cache_info(series)
    tracing.install(tracer, el)
    try:
        result = run_pass(el, claims, meter, tracer)
    finally:
        tracer.restore()
    after = _cache_info(series)
    c = tracer.counts
    if before is not None:
        c["quasiforms.eis_series_hits"] += after.hits - before.hits
        c["quasiforms.eis_series_misses"] += after.misses - before.misses
        m = tracer.maxima
        m["quasiforms.eis_series_cached"] = max(
            m["quasiforms.eis_series_cached"], after.currsize)
    info = _cache_info(basis)
    if info is not None:
        tracer.maxima["quasiforms.eis_basis_cached"] = max(
            tracer.maxima["quasiforms.eis_basis_cached"], info.currsize)
    return result


def main() -> int:
    job = json.load(sys.stdin)
    meter = Meter()
    setup = {}
    mark = meter.start()
    el = import_eisenlab()
    if job.get("warmup"):
        warm_up(el, job["warmup"]["level"], job["warmup"]["weights"])
    meter.finish(mark, setup)
    # the cache objects themselves, taken before any wrapping
    caches = (el.quasiforms.eis_series, el.quasiforms.eis_basis)

    mode = job["mode"]
    claims = job["claims"]
    start = time.perf_counter()

    def fits(cost):
        return time.perf_counter() - start + cost <= job["seconds"]

    result = {}
    if mode == "plain":
        # one whole pass, then claim by claim while the next one fits
        outs, cost = [], [0.0] * len(claims)
        while claims:
            i = len(outs) % len(claims)
            if len(outs) >= len(claims) and not fits(cost[i]):
                break
            t0 = time.perf_counter()
            outs.append(run_claim(el, claims[i], meter=meter))
            cost[i] = time.perf_counter() - t0
        result["outs"] = outs
    else:
        tracer = tracing.Tracer()
        passes, cost = [], 0.0
        while not passes or fits(cost):
            t0 = time.perf_counter()
            if mode == "paired":
                passes.append(run_pass(el, claims, meter))
            passes.append(run_traced_pass(el, claims, meter, tracer,
                                          caches))
            cost = time.perf_counter() - t0
        outs = [out for done in passes for out in done]
        result["passes"] = passes
        result["trace"] = {"calls": tracer.calls, "self_s": tracer.self_s,
                           "counts": tracer.counts, "maxima": tracer.maxima,
                           "missing": tracer.missing}
        result["spans"] = tracer.spans
    meter.stop(outs + [setup])
    result["setup_s"], result["setup_ref"] = setup["t"], setup["ref"]
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
