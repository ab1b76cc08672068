"""Tests of the benchmark's tracer.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The restore test imports eisenlab from the checkout's src/, found
next to this directory.
"""
from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import tracer as tracing  # noqa: E402

# bindings that `from ... import` creates and that calls go through
THROUGH_IMPORTS = [
    ("verifiers", "eis_series"), ("verifiers", "quasi_mul"),
    ("verifiers", "certify_orthogonal"), ("verifiers", "hull_chain"),
    ("quasiforms", "span_solve"), ("quasiforms", "eis_qseries"),
    ("ratfunc", "poly_gcd"),
]


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # outer 0..10 holds a 1..3 and b 4..8; b holds leaf 5..6
        t = tracing.Tracer(clock=ScriptedClock([0, 1, 3, 4, 5, 6, 8, 10]))
        with t.span("outer"):
            with t.span("a"):
                pass
            with t.span("b"):
                with t.span("leaf"):
                    pass
        self.assertEqual(dict(t.self_s),
                         {"outer": 4, "a": 2, "b": 3, "leaf": 1})
        self.assertEqual(t.spans, [("outer", 0, 10, -1), ("a", 1, 3, 0),
                                   ("b", 4, 8, 0), ("leaf", 5, 6, 2)])

    def test_recursion_counts_self_time_once(self):
        t = tracing.Tracer(clock=ScriptedClock([0, 2, 5, 6]))
        with t.span("gcd"):
            with t.span("gcd"):
                pass
        self.assertEqual(t.calls["gcd"], 2)
        self.assertEqual(t.self_s["gcd"], 6)


class RestoreTest(unittest.TestCase):
    def test_traced_run_restores_every_binding(self):
        el = child.import_eisenlab()
        originals = {(mod, name): getattr(getattr(el, mod), name)
                     for mod, name in THROUGH_IMPORTS}
        t = tracing.Tracer()
        claims = [
            {"kind": "two_term", "lam": [1, 0, 5], "mu": [0, 1, 5],
             "expect": "VERIFIED"},
            {"kind": "prop21", "k": 4, "lam": [1, 0, 2], "mu": [0, 1, 2],
             "p": "1", "q": "1", "expect": "VERIFIED"},
            {"kind": "hecke", "n_sub": 3, "shear": 1, "lam": [1, 0, 2],
             "mu": [0, 1, 2], "k": 2, "p": "1", "q": "1",
             "truncation": 12, "expect": "VERIFIED"},
            {"kind": "kernel", "id": "K32", "chain": [5, 3]},
        ]
        tracing.install(t, el)
        try:
            for mod, name in THROUGH_IMPORTS:
                self.assertIsNot(getattr(getattr(el, mod), name),
                                 originals[(mod, name)], f"{mod}.{name}")
            patched = t.patched
            outs = [child.run_claim(el, c, t) for c in claims]
        finally:
            t.restore()
        for out in outs:
            self.assertIsNone(out["error"])
        for owner, attr, original in patched:
            self.assertIs(vars(owner)[attr], original,
                          f"{getattr(owner, '__name__', owner)}.{attr}")
        for mod, name in THROUGH_IMPORTS:
            self.assertIs(getattr(getattr(el, mod), name),
                          originals[(mod, name)])
        self.assertEqual(t.missing, [])
        for name in ("quasiforms.eis_series", "quasiforms.quasi_mul",
                     "verifiers.certify", "hull.hull_chain",
                     "quasiforms.span_solve", "eisenstein.eis_qseries",
                     "ratfunc.poly_gcd", "cli.report"):
            self.assertGreater(t.calls[name], 0, name)
        self.assertGreater(t.counts["cyclotomic.mul"], 0)
        self.assertGreater(t.calls["ratfunc.poly_gcd"],
                           t.calls["ratfunc.check_kernel"])


if __name__ == "__main__":
    unittest.main()
