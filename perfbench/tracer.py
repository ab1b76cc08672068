"""In-memory span tracer that wraps eisenlab's entry points from outside.

A span is (name, start, end, parent index).  Self time is a span's
duration minus the durations of its direct children; summed by name it
says how long each layer was busy in its own code.  Counters record
calls that are too frequent and too cheap for a span of their own.

Wrapping replaces every binding of the original object that a call can
go through: module attributes, names bound by ``from ... import`` in
other eisenlab modules, and class attributes such as ``__rmul__`` that
alias a wrapped method.  ``restore`` puts every original back.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _resolve(module, qualname: str):
    obj = module
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _bindings(original, package: str):
    """Every (owner, attribute) in the package's modules and classes
    whose value is the original object."""
    found, seen = [], set()
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package
                                  or modname.startswith(package + ".")):
            continue
        owners = [module] + [v for v in vars(module).values()
                             if isinstance(v, type)
                             and v.__module__.startswith(package)]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                key = (id(owner), attr)
                if value is original and key not in seen:
                    seen.add(key)
                    found.append((owner, attr))
    return found


class Tracer:
    """Collects spans and counts while installed; see module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> None:
        self.calls[name] += 1
        self._stack.append([len(self.spans), 0.0, name, self.clock()])
        self.spans.append(None)

    def close(self) -> None:
        end = self.clock()
        index, children, name, start = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - children
        parent = -1
        if self._stack:
            self._stack[-1][1] += duration
            parent = self._stack[-1][0]
        self.spans[index] = (name, start, end, parent)

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    # -- wrapping ----------------------------------------------------------

    def _replace(self, module, qualname: str, make):
        try:
            original = _resolve(module, qualname)
        except AttributeError:
            self.missing.append(f"{module.__name__}.{qualname}")
            return
        wrapper = make(original)
        package = module.__name__.split(".")[0]
        for owner, attr in _bindings(original, package):
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))

    def wrap_span(self, module, qualname: str, name: str, before=None,
                  after=None):
        """Record a span named `name` around every call.  `before(tracer,
        args)` and `after(tracer, result)`, if given, run outside it."""
        def make(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(self, args)
                self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close()
                if after is not None:
                    after(self, result)
                return result
            return wrapper
        self._replace(module, qualname, make)

    def wrap_count(self, module, qualname: str, name: str):
        """Count calls without a span."""
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        self._replace(module, qualname, make)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list[tuple]:
        return list(self._patched)


def _note_truncation(tracer: Tracer, args) -> None:
    tracer.maxima["eisenstein.truncation_max"] = max(
        tracer.maxima["eisenstein.truncation_max"], args[0].truncation)


def _note_zero_target(tracer: Tracer, args) -> None:
    if args[0].is_zero():
        tracer.counts["quasiforms.zero_targets"] += 1


def _note_rref(tracer: Tracer, args) -> None:
    basis = args[0]
    if getattr(basis, "_rref", None) is None:
        tracer.counts["quasiforms.rref_builds"] += 1
    tracer.maxima["quasiforms.basis_size"] = max(
        tracer.maxima["quasiforms.basis_size"], len(basis))


def _note_rank(tracer: Tracer, rows) -> None:
    tracer.maxima["quasiforms.rank"] = max(tracer.maxima["quasiforms.rank"],
                                           len(rows))


def install(tracer: Tracer, el) -> None:
    """Wrap the entry points of every layer; `el` is the eisenlab package
    with its submodules imported."""
    tracer.wrap_count(el.cyclotomic, "Cyclotomic.__mul__", "cyclotomic.mul")
    tracer.wrap_count(el.cyclotomic, "cyclo_invert", "cyclotomic.invert")
    tracer.wrap_span(el.eisenstein, "QSeries.__mul__",
                     "eisenstein.qseries_mul", _note_truncation)
    tracer.wrap_span(el.eisenstein, "eis_qseries", "eisenstein.eis_qseries")
    q = el.quasiforms
    tracer.wrap_span(q, "quasi_mul", "quasiforms.quasi_mul")
    tracer.wrap_span(q, "peel", "quasiforms.peel")
    tracer.wrap_span(q, "span_solve", "quasiforms.span_solve",
                     _note_zero_target)
    tracer.wrap_span(q, "EisBasis.rref", "quasiforms.rref", _note_rref,
                     _note_rank)
    tracer.wrap_span(q, "eis_series", "quasiforms.eis_series")
    tracer.wrap_span(q, "eis_basis", "quasiforms.eis_basis")
    tracer.wrap_span(q, "certify_orthogonal", "verifiers.certify")
    v = el.verifiers
    tracer.wrap_span(v, "build_L", "verifiers.build_L")
    for entry in ("verify_two_term", "verify_three_term_w2", "verify_prop21",
                  "verify_hecke_trace"):
        tracer.wrap_span(v, entry, f"verifiers.{entry}")
    tracer.wrap_span(el.cli, "report_payload", "cli.report")
    r = el.ratfunc
    tracer.wrap_span(r, "check_kernel", "ratfunc.check_kernel")
    tracer.wrap_span(r, "k33_identity", "ratfunc.k33_identity")
    tracer.wrap_span(r, "poly_gcd", "ratfunc.poly_gcd")
    tracer.wrap_span(el.hull, "hull_chain", "hull.hull_chain")
