"""Span recording for the traced run, and the per-layer numbers drawn from it.

The traced run swaps timing wrappers in for library functions at the module
attributes through which ``boosting`` and ``harness`` call them, and
restores the originals afterwards; no library file is edited.  Each span
records its name, start, end, parent span and the trace id of the op it
belongs to.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from esnboost import boosting, esn, harness

OP = "op"
BOOKKEEPING = "trace.bookkeeping"


def fingerprint(*arrays) -> bytes:
    """Content key of arrays from their shapes and a sample of <= 64 rows.

    Matrices that differ anywhere in practice differ in the sampled rows, so
    equal keys mark repeated work without hashing whole feature matrices.
    """
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.asarray(a)
        step = max(1, a.shape[0] // 64) if a.ndim else 1
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a[::step] if a.ndim else a).tobytes())
    return h.digest()


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.trace_id = None

    @contextmanager
    def span(self, name):
        span = {"trace": self.trace_id, "id": len(self.spans),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "start_ns": time.perf_counter_ns(),
                "end_ns": None}
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Call hook of traced ops: one span around a library call."""
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name, fn, note=None):
        """Timing wrapper for fn.  note(arguments, result) returns the span's
        attributes.  It runs after the span closes, in a span of its own, so
        the tracer's bookkeeping is never counted as a layer's time."""
        params = inspect.signature(fn).parameters.values()
        names = [p.name for p in params]
        defaults = {p.name: p.default for p in params
                    if p.default is not inspect.Parameter.empty}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if note is not None:
                with self.span(BOOKKEEPING):
                    span["attrs"] = note(
                        {**defaults, **dict(zip(names, args)), **kwargs}, result)
            return result
        return wrapper


# ---------------------------------------------------------------------------
# What each wrapped layer records about its work.

def _reservoir_note(a, states):
    return {"steps": int(states.shape[0]),
            "key": (a["res"].params, fingerprint(a["inputs"]),
                    a["s0"] is None)}


def _ridge_note(a, _readout):
    n, d = np.asarray(a["features"]).shape
    k = 1 if np.ndim(a["targets"]) == 1 else np.shape(a["targets"])[1]
    return {"key": fingerprint(a["features"]), "flop": ridge_flop(n, d, k)}


def _dataset_note(_a, result):
    train, test = result
    return {"key": fingerprint(train.inputs, train.targets, test.inputs,
                               test.targets)}


def _fit_note(a, _model):
    """One key per fitted term; a term recurs across cells whose models are
    prefixes of each other (stage m of seed s, or member j of seed s)."""
    data = fingerprint(a["train"].inputs, a["train"].targets)
    params, gamma = a["params"], a["gamma"]
    if "n_stages" in a:
        keys = [(data, params, gamma, a["mode"], m)
                for m in range(a["n_stages"] + 1)]
    elif "n_members" in a:
        keys = [(data, replace(params, seed=params.seed + j), gamma)
                for j in range(a["n_members"])]
    else:
        keys = [(data, params, gamma)]
    return {"terms": keys}


def ridge_flop(n, d, k=1):
    """Computed flops of one ridge fit on n rows, d features, k targets:
    the augmented normal matrix, its right-hand side, Cholesky, two solves."""
    p = d + 1
    return 2 * n * p * p + 2 * n * p * k + p ** 3 / 3 + 2 * p * p * k


@contextmanager
def patched(tracer: Tracer):
    """Install the timing wrappers; restore the library functions on exit."""
    run_reservoir = tracer.wrap("esn.run_reservoir", esn.run_reservoir,
                                _reservoir_note)
    swaps = [
        (esn, "run_reservoir", run_reservoir),
        (boosting, "run_reservoir", run_reservoir),
        (boosting, "init_reservoir",
         tracer.wrap("esn.init_reservoir", boosting.init_reservoir)),
        (boosting, "ridge_fit",
         tracer.wrap("numerics.ridge_fit", boosting.ridge_fit, _ridge_note)),
        (harness, "load_benchmark",
         tracer.wrap("harness.load_benchmark", harness.load_benchmark,
                     _dataset_note)),
        (harness, "evaluate", tracer.wrap("metrics.evaluate", harness.evaluate)),
        (harness, "run_experiment",
         tracer.wrap("harness.run_experiment", harness.run_experiment)),
    ]
    swaps += [(harness, fit, tracer.wrap("boosting.fit", getattr(harness, fit),
                                         _fit_note))
              for fit in ("train_single_esn", "l2boost_fit", "baseline_fit")]
    swaps += [(harness, pred, tracer.wrap("boosting.predict",
                                          getattr(harness, pred)))
              for pred in ("esn_predict", "boost_predict", "baseline_predict")]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in swaps]
    try:
        for mod, attr, wrapper in swaps:
            setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# Per-layer numbers of the traced ops.

def _union_ns(intervals) -> int:
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered = _union_ns((max(c["start_ns"], lo), min(c["end_ns"], hi))
                            for c in children.get(s["id"], ())
                            if c["end_ns"] > lo and c["start_ns"] < hi)
        out[s["id"]] = hi - lo - covered
    return out


def op_layers(spans) -> dict:
    """Per-layer numbers of one traced op (spans sharing one trace id)."""
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def ms(name):
        return sum(s["end_ns"] - s["start_ns"] for s in by_name.get(name, ())) / 1e6

    def self_ms(name):
        return sum(selfs[s["id"]] for s in by_name.get(name, ())) / 1e6

    def calls(name):
        return len(by_name.get(name, ()))

    def attrs(name, key):
        return [s["attrs"][key] for s in by_name.get(name, ())]

    def distinct_ratio(name):
        keys = attrs(name, "key")
        return len(set(keys)) / len(keys) if keys else 1.0

    (root,) = by_name[OP]
    wall_ns = root["end_ns"] - root["start_ns"]
    steps = attrs("esn.run_reservoir", "steps")
    useful = dict(zip(attrs("esn.run_reservoir", "key"), steps))
    terms = [k for keys in attrs("boosting.fit", "terms") for k in keys]
    return {
        "op.ms": wall_ns / 1e6,
        "esn.run_reservoir.calls": calls("esn.run_reservoir"),
        "esn.run_reservoir.ms": ms("esn.run_reservoir"),
        "esn.run_reservoir.steps": sum(steps),
        "esn.run_reservoir.us_per_step":
            ms("esn.run_reservoir") * 1e3 / sum(steps) if steps else 0.0,
        "esn.run_reservoir.useful_step_ratio":
            sum(useful.values()) / sum(steps) if steps else 1.0,
        "esn.init_reservoir.calls": calls("esn.init_reservoir"),
        "esn.init_reservoir.ms": ms("esn.init_reservoir"),
        "numerics.ridge_fit.calls": calls("numerics.ridge_fit"),
        "numerics.ridge_fit.ms": ms("numerics.ridge_fit"),
        "numerics.ridge_fit.distinct_ratio": distinct_ratio("numerics.ridge_fit"),
        "numerics.ridge_fit.gflop_computed":
            sum(attrs("numerics.ridge_fit", "flop")) / 1e9,
        "harness.load_benchmark.calls": calls("harness.load_benchmark"),
        "harness.load_benchmark.ms": ms("harness.load_benchmark"),
        "harness.load_benchmark.distinct_ratio":
            distinct_ratio("harness.load_benchmark"),
        "boosting.fit.ms": ms("boosting.fit"),
        "boosting.fit.self_ms": self_ms("boosting.fit"),
        "boosting.predict.ms": ms("boosting.predict"),
        "boosting.predict.self_ms": self_ms("boosting.predict"),
        "boosting.terms_fitted": len(terms),
        "metrics.evaluate.calls": calls("metrics.evaluate"),
        "metrics.evaluate.ms": ms("metrics.evaluate"),
        "harness.run_experiment.self_ms": self_ms("harness.run_experiment"),
        "harness.sweep.ms": ms("harness.sweep"),
        "harness.sweep.reservoir_fits": calls("esn.init_reservoir"),
        "harness.sweep.fit_useful_ratio":
            len(set(terms)) / len(terms) if terms else 1.0,
        "harness.write_records_csv.ms": ms("harness.write_records_csv"),
        "harness.report.ms": ms("harness.report"),
        "trace.op.self_ms": self_ms(OP),
        "trace.bookkeeping.ms": ms(BOOKKEEPING),
        # Sum of every span's self time minus the op's wall: zero when the
        # spans nest properly, so named spans plus self times cover the op.
        "trace.unaccounted_ms": abs(sum(selfs.values()) - wall_ns) / 1e6,
    }


def summarize_ops(per_op: list) -> dict:
    """Median over ops of each per-op number.  The low median is one of the
    ops' own values, so counters, which repeat exactly, come out unchanged."""
    return {name: statistics.median_low(op[name] for op in per_op)
            for name in per_op[0]}


def group_by_trace(spans) -> dict:
    groups = {}
    for s in spans:
        groups.setdefault(s["trace"], []).append(s)
    return groups


def jsonable(span) -> dict:
    """Span as written to the trace file (attribute keys become strings)."""
    out = {k: v for k, v in span.items() if k != "attrs"}
    attrs = span.get("attrs", {})
    for k, v in attrs.items():
        if k == "key":
            out["key"] = _key_text(v)
        elif k == "terms":
            out["terms"] = len(v)
        else:
            out[k] = v
    return out


def _key_text(key) -> str:
    return hashlib.blake2b(repr(key).encode(), digest_size=8).hexdigest()
