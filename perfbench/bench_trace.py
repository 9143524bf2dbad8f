"""Spans and exact counters recorded around calls into phasekey's layers.

The program is not edited.  Instead, for the duration of a traced pass,
every module attribute of the phasekey package that is bound to one of
the public functions in TRACED is replaced by a wrapper that records a
span.  Names re-imported across modules (security.truncation_bound,
protocol.interferometer_fock, cli.run_checks, ...) are bound separately
and are wrapped too, so calls between layers are caught as well as the
benchmark's own calls.  The check functions behind checks.run_checks are
wrapped through the FAST_CHECKS / FULL_ONLY_CHECKS tuples it reads.

Spans stay in memory as (name, start, end, parent, op) rows and are
written out once, when the run ends.  A layer's self time is the sum of
its span durations minus the time covered by their direct children.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import inspect
import json
import time

MODULES = ("fock", "encoding", "security", "evaluation", "protocol", "checks", "cli")

# Public functions timed as layers, by the module that defines them.
TRACED = {
    "fock": ("truncation_bound", "coherent_fock", "trace_distance_numeric"),
    "encoding": ("encryption_channel_density", "phase_rotate_fock"),
    "security": ("encrypted_trace_distance", "suppression_ratio",
                 "encrypted_trace_distance_limit", "encrypted_distance_oracle",
                 "qk_ak_enumeration", "qk_ak_finite", "pgm_numeric_oracle"),
    "evaluation": ("interferometer_fock", "nonlinear_phase_evolve", "apply_interferometer"),
    "protocol": ("client_encrypt", "evaluator_apply", "client_decrypt_decode", "run_protocol"),
    "checks": ("run_checks",),
    "cli": ("main",),
}

# Functions whose result is a freshly computed number-basis state; the
# length of its amplitude array is added to fock.amps_materialized.
AMPLITUDE_PRODUCERS = ("fock.coherent_fock", "encoding.phase_rotate_fock",
                       "evaluation.interferometer_fock", "evaluation.nonlinear_phase_evolve")


class NullTracer:
    """Stand-in used by untraced passes: spans and counters cost nothing."""

    def span(self, name):
        return contextlib.nullcontext()

    def op(self, op_id):
        return contextlib.nullcontext()

    def add(self, counter, amount):
        pass


class Tracer:
    """In-memory span recorder with exact counters and maxima."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self.stack = []
        self.current_op = None
        self.counts = collections.Counter()
        self.maxima = collections.Counter()
        self._restore = []

    # --- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """Record one span; the body may rename it through label[0]."""
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        label = [name]
        start = time.perf_counter()
        try:
            yield label
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (label[0], start - self.origin, end - self.origin, parent,
                               self.current_op)

    @contextlib.contextmanager
    def op(self, op_id):
        """Tag every span opened inside with the row or exchange id."""
        previous = self.current_op
        self.current_op = op_id
        try:
            with self.span("bench.op"):
                yield
        finally:
            self.current_op = previous

    def add(self, counter, amount):
        self.counts[counter] += amount

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _wrap_check(self, fn):
        tracer = self

        def traced():
            with tracer.span(f"checks.{fn.__name__}") as label:
                result = fn()
                label[0] = f"checks.{result.name}"
            return result

        return traced

    # --- installation ----------------------------------------------------

    def install(self):
        """Replace every binding of a TRACED function with a span wrapper."""
        mods = {name: importlib.import_module(f"phasekey.{name}") for name in MODULES}
        mods["package"] = importlib.import_module("phasekey")
        for home, names in TRACED.items():
            for fname in names:
                original = getattr(mods[home], fname)
                span_name = f"{home}.{fname}"
                for via, mod in mods.items():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            hook = _hook_for(span_name, via, original)
                            self._restore.append((mod, attr, value))
                            setattr(mod, attr, self._wrap(span_name, original, hook))
        checks = mods["checks"]
        for attr in ("FAST_CHECKS", "FULL_ONLY_CHECKS"):
            suite = getattr(checks, attr)
            self._restore.append((checks, attr, suite))
            setattr(checks, attr, tuple(self._wrap_check(fn) for fn in suite))

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    # --- summaries -------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = collections.Counter()
        total = collections.Counter()
        own = collections.Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        return {name: (calls[name], total[name], own[name]) for name in calls}

    def write(self, path, header):
        """One JSON header line, then one [name, start, end, parent, op] line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")


def _hook_for(span_name, via, original):
    if span_name == "fock.truncation_bound" and via == "security":
        # Every truncation_bound call inside security sizes one residue or
        # limit series of t_max + 1 terms.
        def series(tracer, args, kwargs, result):
            tracer.counts["security.series_terms"] += result + 1
        return series
    if span_name in AMPLITUDE_PRODUCERS:
        def amps(tracer, args, kwargs, result):
            n = len(result.amps)
            tracer.counts["fock.amps_materialized"] += n
            if span_name == "fock.coherent_fock":
                tracer.counts["fock.coherent_fock.amps"] += n
        return amps
    if span_name == "encoding.encryption_channel_density":
        def dim(tracer, args, kwargs, result):
            _raise_max(tracer, span_name, result.dim)
        return dim
    if span_name == "fock.trace_distance_numeric":
        def dim(tracer, args, kwargs, result):
            rho = args[0] if args else kwargs["rho"]
            _raise_max(tracer, span_name, rho.dim)
        return dim
    if span_name == "security.encrypted_distance_oracle":
        signature = inspect.signature(original)

        def dim(tracer, args, kwargs, result):
            bound = signature.bind(*args, **kwargs).arguments
            _raise_max(tracer, span_name, (bound["n_max"] + 1) ** len(bound["u"]))
        return dim
    return None


def _raise_max(tracer, span_name, value):
    key = f"{span_name}.dim_max"
    tracer.maxima[key] = max(tracer.maxima[key], int(value))
