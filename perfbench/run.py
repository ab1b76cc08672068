"""Benchmark of eisenlab's exact pipeline: time to verdict.

    python3 perfbench/run.py --workload claims_cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every claim runs in a worker process
(perfbench/child.py) that imports eisenlab from ./src; at most one
worker is alive at a time.  Every verdict is checked against its
expected status and, where one was recorded, against the report fields
in perfbench/expected.json.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from the traced run, whose spans go to
perfbench/traces/.  --workload all runs every workload in turn.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"
TRACES = HERE / "traces"
# a run must end within 180 s; leave room to report
BUDGET_S = 165.0

WORKLOADS = ("claims_cold", "sweep_warm", "hecke_l10", "kernels_symbolic")
SETUP_SAMPLES = 3
# The reference loop's time at full speed on the 2-vCPU Intel Xeon VM
# (Python 3.11.7) where the benchmark was defined: setup_s, which must
# be given in seconds, is its cost in reference loops times this.
REF_S = 0.8e-3

PER_LAYER = {
    # metric: (source, key)
    "cyclotomic.mul_calls": ("counts", "cyclotomic.mul"),
    "cyclotomic.invert_calls": ("counts", "cyclotomic.invert"),
    "eisenstein.qseries_mul_calls": ("calls", "eisenstein.qseries_mul"),
    "eisenstein.qseries_mul_s": ("self_s", "eisenstein.qseries_mul"),
    "eisenstein.eis_qseries_calls": ("calls", "eisenstein.eis_qseries"),
    "eisenstein.eis_qseries_s": ("self_s", "eisenstein.eis_qseries"),
    "eisenstein.truncation_max": ("maxima", "eisenstein.truncation_max"),
    "quasiforms.quasi_mul_s": ("self_s", "quasiforms.quasi_mul"),
    "quasiforms.peel_s": ("self_s", "quasiforms.peel"),
    "quasiforms.rref_builds": ("counts", "quasiforms.rref_builds"),
    "quasiforms.rref_s": ("self_s", "quasiforms.rref"),
    "quasiforms.basis_size": ("maxima", "quasiforms.basis_size"),
    "quasiforms.rank": ("maxima", "quasiforms.rank"),
    "quasiforms.span_solve_calls": ("calls", "quasiforms.span_solve"),
    "quasiforms.span_solve_s": ("self_s", "quasiforms.span_solve"),
    "quasiforms.zero_targets": ("counts", "quasiforms.zero_targets"),
    "quasiforms.eis_series_hits": ("counts", "quasiforms.eis_series_hits"),
    "quasiforms.eis_series_misses": ("counts",
                                     "quasiforms.eis_series_misses"),
    "quasiforms.eis_series_cached": ("maxima",
                                     "quasiforms.eis_series_cached"),
    "quasiforms.eis_basis_cached": ("maxima", "quasiforms.eis_basis_cached"),
    "verifiers.claims": ("counts", "verifiers.claims"),
    "verifiers.build_L_s": ("self_s", "verifiers.build_L"),
    "verifiers.certify_s": ("self_s", "verifiers.certify"),
    "verifiers.defect_bits_max": ("maxima", "verifiers.defect_bits_max"),
    "cli.report_s": ("self_s", "cli.report"),
    "ratfunc.check_kernel_calls": ("calls", "ratfunc.check_kernel"),
    "ratfunc.check_kernel_s": ("self_s", "ratfunc.check_kernel"),
    "ratfunc.poly_gcd_calls": ("calls", "ratfunc.poly_gcd"),
    "ratfunc.poly_gcd_s": ("self_s", "ratfunc.poly_gcd"),
    "hull.hull_chain_calls": ("calls", "hull.hull_chain"),
    "hull.hull_chain_s": ("self_s", "hull.hull_chain"),
}


class ChildFailed(RuntimeError):
    pass


class Run:
    """Everything one workload run measures, fed claim by claim.

    A run repeats its claims.  A shared host can run a virtual machine
    at speeds up to 1.75 times apart and changes between them on its own,
    for stretches of seconds to minutes, so a claim's time says as much
    about the host as about eisenlab.  Each sample is therefore divided
    by the time of a fixed reference loop measured just before and after
    it (child.reference), which no change to eisenlab moves: the claim's
    cost in reference loops.  Each claim is summarised by its median
    cost over the run: wall_ref is the sum of these over the pass, and
    claim_p50_ref their median.  setup_s is the median set-up cost,
    turned into seconds at REF_S a reference loop.  The measured times,
    which follow the host's speed, are printed but not reported.
    """

    def __init__(self, claims: list, expected: dict, tracing: bool):
        self.claims = claims
        self.expected = expected
        self.tracing = tracing
        self.attempted = 0
        self.failed = 0
        self.setup = []
        self.rss_kb = []
        self.samples = [[] for _ in claims]
        # traced runs: claim cost of the untraced and the traced halves,
        # and the traced claim time
        self.plain_ref = self.traced_ref = 0.0
        self.traced_s = 0.0
        self.traced_passes = 0
        self.agg = {"calls": defaultdict(int), "self_s": defaultdict(float),
                    "counts": defaultdict(int), "maxima": defaultdict(int)}
        self.missing = set()
        self.spans = []
        self.children = 0

    def absorb_child(self, res: dict) -> None:
        self.rss_kb.append(res["rss_kb"])
        trace = res.get("trace")
        if trace:
            for key in ("calls", "self_s", "counts"):
                for name, value in trace[key].items():
                    self.agg[key][name] += value
            for name, value in trace["maxima"].items():
                self.agg["maxima"][name] = max(self.agg["maxima"][name],
                                               value)
            self.missing.update(trace["missing"])
            self.spans.extend([self.children] + s for s in res["spans"])
        self.children += 1

    def check(self, claim: dict, out: dict) -> None:
        """Count one claim, and count it failed unless its verdict and
        recorded report fields match."""
        self.attempted += 1
        reason = _mismatch(claim, out, self.expected)
        if reason:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {wl.claim_label(claim)}: {reason}",
                      file=sys.stderr)
        if out.get("bits") is not None:
            m = self.agg["maxima"]
            m["verifiers.defect_bits_max"] = max(
                m["verifiers.defect_bits_max"], out["bits"])

    def add_setup(self, res: dict) -> None:
        self.setup.append((res["setup_s"], res["setup_ref"]))

    def add_sample(self, i: int, out: dict) -> None:
        self.check(self.claims[i], out)
        self.samples[i].append((out["t"], out["ref"]))

    def add_traced(self, plain: list, traced: list) -> None:
        """One pass run untraced and then traced."""
        for claim, p, t in zip(self.claims, plain, traced):
            self.check(claim, p)
            self.check(claim, t)
        self.traced_s += sum(out["t"] for out in traced)
        self.plain_ref += sum(out["t"] / out["ref"] for out in plain)
        self.traced_ref += sum(out["t"] / out["ref"] for out in traced)
        self.traced_passes += 1
        self.agg["counts"]["verifiers.claims"] += sum(
            c["kind"] != "kernel" for c in self.claims)

    def end_to_end(self) -> dict:
        cost = [statistics.median(t / ref for t, ref in ts)
                for ts in self.samples if ts]
        return {
            "setup_s": (REF_S * statistics.median(
                t / ref for t, ref in self.setup), "s"),
            "wall_ref": (sum(cost), "ref"),
            "claim_p50_ref": (statistics.median(cost), "ref"),
            "peak_rss_mb": (max(self.rss_kb) / 1024.0, "MB"),
        }

    def measured(self) -> dict:
        """The end-to-end times as measured, and the reference loop's
        median time: printed only, since they follow the host's speed."""
        secs = [statistics.median(t for t, _ in ts)
                for ts in self.samples if ts]
        refs = [ref for ts in self.samples for _, ref in ts]
        return {"setup_s": (statistics.median(t for t, _ in self.setup),
                            "s"),
                "wall_s": (sum(secs), "s"),
                "claim_p50_s": (statistics.median(secs), "s"),
                "ref_ms": (1000 * statistics.median(refs), "ms")}

    def per_layer(self) -> dict:
        n = max(self.traced_passes, 1)
        out = {}
        for metric, (source, key) in PER_LAYER.items():
            value = self.agg[source].get(key, 0)
            if source != "maxima":
                value = value / n
            out[metric] = (value, "s" if metric.endswith("_s") else "count")
        out["trace_overhead"] = (
            self.traced_ref / self.plain_ref if self.plain_ref else 0.0,
            "ratio")
        claim_self = self.agg["self_s"].get("bench.claim", 0.0)
        out["trace.layer_share"] = (
            1.0 - claim_self / self.traced_s if self.traced_s else 0.0,
            "ratio")
        return out


def _mismatch(claim: dict, out: dict, expected: dict) -> str | None:
    if out.get("error"):
        return out["error"].strip().splitlines()[-1]
    want = claim.get("expect", "PROVED")
    if out["status"] != want:
        return f"status {out['status']}, expected {want}"
    ref = expected.get(wl.claim_label(claim))
    got = out.get("payload")
    if ref is None or got is None:
        return None
    for key in ("status", "coefficients", "certificate"):
        if got[key] != ref[key]:
            return f"{key} differs from the recorded report"
    # residual exponents are compared up to the smaller truncation, so a
    # proven change of the bound still passes
    cap = min(got["truncation"], ref["truncation"])
    if ([e for e in got["residual"] if e[1] <= cap]
            != [e for e in ref["residual"] if e[1] <= cap]):
        return "residual exponents differ from the recorded report"
    return None


def spawn(job: dict, deadline: float) -> dict:
    """Run one worker to completion and return its parsed result."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise ChildFailed("time budget exhausted")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD)], input=json.dumps(job),
            capture_output=True, text=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"worker exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cold_once(run: Run, claim: dict, mode: str, deadline: float):
    """One claim in a fresh interpreter; None if the worker failed."""
    try:
        res = spawn({"claims": [claim], "seconds": 0, "mode": mode},
                    deadline)
    except ChildFailed as exc:
        run.check(claim, {"error": str(exc)})
        return None
    run.absorb_child(res)
    if mode == "plain":
        run.add_setup(res)
        return res["outs"][0]
    return res["passes"][0][0]


def _fits(start: float, cost: float, seconds: float) -> bool:
    """Whether work that last took `cost` seconds, begun now, ends
    within `seconds` of `start`."""
    return time.perf_counter() - start + cost <= seconds


def run_cold(run: Run, args, deadline: float) -> None:
    """Each claim in a fresh interpreter, one at a time.

    Untraced, the claims are visited in turn, again and again, until
    each has run once and the next visit, judged by that claim's last
    one, would end after --seconds.  Traced, whole passes run, each
    claim once untraced and once traced, on the same rule per pass.
    """
    start = time.perf_counter()
    if not run.tracing:
        cost = [0.0] * len(run.claims)
        visits = 0
        while True:
            i = visits % len(run.claims)
            if (visits >= len(run.claims)
                    and not _fits(start, cost[i], args.seconds)):
                return
            t0 = time.perf_counter()
            out = _cold_once(run, run.claims[i], "plain", deadline)
            if out is None:
                return
            cost[i] = time.perf_counter() - t0
            run.add_sample(i, out)
            visits += 1
    cost = 0.0
    while not run.traced_passes or _fits(start, cost, args.seconds):
        t0 = time.perf_counter()
        outs = {"plain": [], "traced": []}
        for claim in run.claims:
            for mode in outs:
                out = _cold_once(run, claim, mode, deadline)
                if out is None:
                    return
                outs[mode].append(out)
        run.add_traced(outs["plain"], outs["traced"])
        cost = time.perf_counter() - t0


def run_in_process(run: Run, warmup, args, deadline: float) -> None:
    """Every pass in one worker, after SETUP_SAMPLES - 1 workers that
    only set up, so that setup_s is a median of fresh set-ups.  The
    set-ups count in the run's --seconds."""
    start = time.perf_counter()
    if not run.tracing:
        for _ in range(SETUP_SAMPLES - 1):
            res = spawn({"claims": [], "seconds": 0, "mode": "plain",
                         "warmup": warmup}, deadline)
            run.absorb_child(res)
            run.add_setup(res)
    job = {"claims": run.claims, "warmup": warmup,
           "seconds": args.seconds - (time.perf_counter() - start),
           "mode": "paired" if run.tracing else "plain"}
    try:
        res = spawn(job, deadline)
    except ChildFailed as exc:
        for claim in run.claims:
            run.check(claim, {"error": str(exc)})
        return
    run.absorb_child(res)
    run.add_setup(res)
    if run.tracing:
        done = res["passes"]
        for plain, traced in zip(done[::2], done[1::2]):
            run.add_traced(plain, traced)
    else:
        for k, out in enumerate(res["outs"]):
            run.add_sample(k % len(run.claims), out)


def run_workload(name: str, args, expected: dict) -> Run:
    deadline = time.perf_counter() + BUDGET_S
    # compile the package's bytecode before anything is timed
    spawn({"claims": [], "seconds": 0, "mode": "plain"}, deadline)
    if name == "claims_cold":
        run = Run(wl.CLAIMS_COLD, expected, bool(args.trace))
        run_cold(run, args, deadline)
    elif name == "hecke_l10":
        run = Run([wl.HECKE_L10], expected, bool(args.trace))
        run_cold(run, args, deadline)
    elif name == "sweep_warm":
        run = Run(wl.sweep_batch(args.seed), expected, bool(args.trace))
        run_in_process(run, {"level": wl.SWEEP_LEVEL,
                             "weights": list(wl.SWEEP_WEIGHTS)},
                       args, deadline)
    else:
        run = Run(wl.kernel_pass(args.seed), expected, bool(args.trace))
        run_in_process(run, None, args, deadline)
    if run.spans:
        TRACES.mkdir(exist_ok=True)
        path = TRACES / f"{name}-seed{args.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for span in run.spans:
                fh.write(json.dumps(span) + "\n")
    return run


def _git_rev(root: Path) -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    try:
        mpmath_version = metadata.version("mpmath")
    except metadata.PackageNotFoundError:
        mpmath_version = "missing"
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "mpmath": mpmath_version,
            "git_rev": _git_rev(Path.cwd()), "seed": args.seed,
            "trace": bool(args.trace)}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (Path.cwd() / "src" / "eisenlab" / "__init__.py").is_file():
        print("error: run from the root of an eisenlab checkout "
              "(no src/eisenlab here)", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["claims"]
    print("env " + json.dumps(environment(args)))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            run = run_workload(name, args, expected)
        except ChildFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        attempted += run.attempted
        failed += run.failed
        try:
            table = run.per_layer() if args.trace else run.end_to_end()
        except statistics.StatisticsError:
            print(f"error: {name}: no pass completed", file=sys.stderr)
            return 1
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in table.items():
            print(f"{name:17s} {metric:30s} {value:14.6g} {unit}")
            metrics[prefix + metric] = {"value": value, "unit": unit}
        if not args.trace:
            for metric, (value, unit) in run.measured().items():
                print(f"{name:17s} {'measured.' + metric:30s} "
                      f"{value:14.6g} {unit} (not reported)")
        ratio = run.failed / run.attempted if run.attempted else 1.0
        print(f"{name:17s} {'fail_ratio':30s} {ratio:14.6g} "
              f"({run.failed}/{run.attempted} claims)")
        if run.missing:
            print(f"{name}: not wrapped, absent from eisenlab: "
                  + ", ".join(sorted(run.missing)), file=sys.stderr)
    if not attempted:
        print("error: no claim was attempted", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
