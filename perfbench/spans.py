"""Outside-in trace of the immersa layers.

Tracer.install() replaces each layer's public function by a wrapper that
records a span, at every attribute of every immersa module that refers to
the function, so calls between library modules (sp calling validate,
verify calling kappa, random_immersion calling validate) are recorded too.
Tracer.restore() puts the originals back.  Nothing under src/ changes, and
an untraced run never installs anything.

A span is [name, op, parent, start, end]: op is the op index (None during
set-up) and parent the index of the enclosing span.  Spans stay in memory
until write() stores them once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter

# Every traced layer, as module.function, from the float prefilter up to
# the constructions and checks a user calls.
LAYERS = (
    "kernels.candidate_pairs",
    "kernels.classify_pairs",
    "geometry.segment_contact",
    "immersion.validate",
    "immersion.random_immersion",
    "immersion.rotation_number",
    "immersion.cycle_crossing_number",
    "immersion.sum_crossing",
    "immersion.kappa",
    "graphs.enumerate_cycles",
    "graphs.has_K4_minor",
    "census.census_table",
    "census.tb_ratio",
    "epsilon.epsilon_table",
    "diagrams.random_lift",
    "diagrams.L_invariant",
    "diagrams.tb_by_length",
    "verify.run_checks",
    "sp.construct_zero_rotation",
)

# Layers whose set-up time is reported as well: the ones set-up runs.
SETUP_LAYERS = (
    "kernels.candidate_pairs",
    "immersion.validate",
    "immersion.random_immersion",
    "graphs.enumerate_cycles",
    "census.census_table",
    "census.tb_ratio",
    "epsilon.epsilon_table",
)

ROOT_SETUP = "setup"
ROOT_OP = "op"


class Tracer:
    """Records spans and counts around the layer functions of a package."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._patched = []
        self.originals = {}
        self._seen = set()

    # -- installing -------------------------------------------------------

    def install(self):
        prefix = self.package.__name__
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        for name in LAYERS:
            module_name, function_name = name.split(".")
            original = getattr(sys.modules[f"{prefix}.{module_name}"], function_name)
            self.originals[name] = original
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(rec)
                self.counts[name + ".raised"] += 1
                raise
            self._close(rec)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        rec = [name, self.op, self._stack[-1] if self._stack else None,
               time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[4] = time.perf_counter()
        self._stack.pop()

    def run_setup(self, build):
        """Call build() inside the set-up root span."""
        rec = self._open(ROOT_SETUP)
        try:
            return build()
        finally:
            self._close(rec)

    def run_op(self, i, op):
        """Call op(i) inside a root span of op i; counts start at the first op."""
        if self.op is None:
            self.counts.clear()
        self.op = i
        self._seen.clear()
        rec = self._open(ROOT_OP)
        try:
            return op(i)
        finally:
            self._close(rec)

    def first_in_op(self, key):
        """True the first time key is seen in the current op."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def write(self, path):
        """Store every span as gzipped TSV, times in microseconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name\top\tparent\tstart_us\tend_us\n")
            t0 = self.spans[0][3] if self.spans else 0.0
            for name, op, parent, start, end in self.spans:
                out.write(f"{name}\t{'' if op is None else op}\t"
                          f"{'' if parent is None else parent}\t"
                          f"{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\n")

    # -- metrics ----------------------------------------------------------

    def layer_metrics(self, ops):
        """Per-layer metrics of the timed phase, per op, plus set-up times.

        Returns a dict name -> (value, unit).
        """
        selfs = self_times(self.spans)
        ms, setup_ms, calls, under = Counter(), Counter(), Counter(), Counter()
        for (name, op, parent, _, _), t in zip(self.spans, selfs):
            if op is None:
                setup_ms[name] += t * 1e3
                continue
            ms[name] += t * 1e3
            calls[name] += 1
            if parent is not None:
                under[name, self.spans[parent][0]] += 1
        per_op = max(ops, 1)
        out = {}
        for name in LAYERS:
            out[name + ".ms"] = (ms[name] / per_op, "ms/op")
        out["op.self.ms"] = (ms[ROOT_OP] / per_op, "ms/op")
        for name in SETUP_LAYERS:
            out[f"setup.{name}.ms"] = (setup_ms[name], "ms")
        out["setup.self.ms"] = (setup_ms[ROOT_SETUP], "ms")

        c = self.counts
        for name in ("kernels.segments", "kernels.candidates", "kernels.contacts",
                     "immersion.crossings", "graphs.cycles"):
            out[name] = (c[name] / per_op, "count/op")
        out["kernels.useful_ratio"] = (_ratio(c["kernels.contacts"], c["kernels.candidates"]), "ratio")
        for name in ("geometry.segment_contact", "immersion.rotation_number"):
            out[name + ".calls"] = (calls[name] / per_op, "count/op")
        out["immersion.validations_per_immersion"] = (
            _ratio(under["immersion.validate", "immersion.random_immersion"],
                   calls["immersion.random_immersion"]), "ratio")
        refused = c["sp.construct_zero_rotation.raised"]
        out["sp.validations_per_graph"] = (
            _ratio(under["immersion.validate", "sp.construct_zero_rotation"],
                   calls["sp.construct_zero_rotation"] - refused), "ratio")
        out["sp.refused"] = (refused / per_op, "count/op")
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    children = [0.0] * len(spans)
    for _, _, parent, start, end in spans:
        if parent is not None:
            children[parent] += end - start
    return [end - start - children[i] for i, (_, _, _, start, end) in enumerate(spans)]


# Counts taken from a layer call's arguments and result, outside its span.

def _count_candidates(tracer, args, pairs):
    tracer.counts["kernels.segments"] += len(args[0])
    tracer.counts["kernels.candidates"] += len(pairs)


def _count_classified(tracer, args, result):
    tracer.counts["kernels.contacts"] += int((result[0] == 1).sum())


def _count_contact(tracer, args, result):
    tracer.counts["kernels.contacts"] += result[0] != "none"


def _count_crossings(tracer, args, report):
    # Crossings of each immersion validated in the op, counted once.
    immersion = args[0]
    if report.ok and tracer.first_in_op(immersion):
        tracer.counts["immersion.crossings"] += len(tracer.package.crossings(immersion))


def _count_cycles(tracer, args, result):
    # Cycles of each graph whose cycles the op asked for, counted once.
    graph = args[0]
    if tracer.first_in_op(graph):
        tracer.counts["graphs.cycles"] += len(
            tracer.originals["graphs.enumerate_cycles"](graph))


_COUNTERS = {
    "kernels.candidate_pairs": _count_candidates,
    "kernels.classify_pairs": _count_classified,
    "geometry.segment_contact": _count_contact,
    "immersion.validate": _count_crossings,
    "graphs.enumerate_cycles": _count_cycles,
}
