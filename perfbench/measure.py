"""Measurement process: runs one workload's ops and checks their outputs.

run.py starts this script with PYTHONPATH set to the checkout's ``src`` and
no BLAS thread-count variables in the environment:

    measure.py --workload W --seed S --setup-only
    measure.py --workload W --seed S --seconds X --trace 0|1 --out FILE

``--setup-only`` imports the package, makes the workload ready, prints
``ready`` and exits; run.py times it from process start.  Otherwise the
script runs a closed loop of ops with one client for X seconds and writes
its numbers to FILE as JSON.  With ``--trace 1`` every cycle runs the op
untraced and then traced (pairing the two for the tracing overhead), and
the per-layer numbers come from the traced ops.

Ops run with every loaded OpenBLAS at one thread.  On a host with two
vCPUs the library default of two threads made the ops about twice as slow
and their timings about twice as variable from minute to minute; the
microbenchmarks still measure ridge_fit at the default thread count too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--work-dir", type=Path)
    p.add_argument("--trace-file", type=Path)
    p.add_argument("--out", type=Path)
    return p.parse_args(argv)


def tail_percentile(n: int) -> int:
    """Highest percentile with at least ten samples beyond it (p90 from 100
    samples up); with 20 samples or fewer that is not above the median, and
    the median is used."""
    if n >= 100:
        return 90
    return max(50, (100 * (n - 10)) // n) if n > 10 else 50


def nearest_rank(values, q: int) -> float:
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1]


def _run(wl, seed, work_dir, call=None):
    """One op, timed; a failing op is recorded and counted, never fatal."""
    start = time.perf_counter()
    finish = None
    try:
        out, finish = workloads.run_op(wl, seed, work_dir,
                                       call or workloads.direct_call)
    except Exception as exc:  # noqa: BLE001 - counted as a failed op
        traceback.print_exc()
        out = workloads.OpOutput(op_seed=seed, error=repr(exc))
    out.ms = (time.perf_counter() - start) * 1e3
    if finish is not None:
        try:
            finish()
        except Exception as exc:  # noqa: BLE001 - unreadable op output
            traceback.print_exc()
            out.error = repr(exc)
    return out


def _experiments_per_s(ops) -> float:
    return sum(len(o.rows) for o in ops) / (sum(o.ms for o in ops) / 1e3)


def _closed_loop(seconds, step):
    """Call step(i) for i = 0, 1, ... until the seconds have passed."""
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        step(i)
        i += 1


def timed_run(wl, seed, seconds, work_dir, reference) -> dict:
    warm = _run(wl, workloads.op_seed(seed, 0), work_dir)
    ops = []
    _closed_loop(seconds, lambda i: ops.append(
        _run(wl, workloads.op_seed(seed, i), work_dir)))
    # test_nmse.vs_reference covers one cycle of op seeds, so it does not depend on
    # how many ops fit in the run; seeds the loop did not reach run untimed.
    cycle = {}
    for op in ops:
        cycle.setdefault(op.op_seed, op)
    extra = [_run(wl, s, work_dir) for s in
             (workloads.op_seed(seed, i) for i in range(workloads.OPS_PER_CYCLE))
             if s not in cycle]
    for op in extra:
        cycle[op.op_seed] = op
    checked = [warm] + ops + extra
    attempted = sum(len(wl.cells(o.op_seed)) for o in checked)
    failed = sum(workloads.count_failed(wl, o, reference) for o in checked)
    # Single weak networks now and then blow up (narma10 seed 26 has test
    # NMSE 154), so a raw mean swings by orders of magnitude between seed
    # windows.  Each experiment is therefore scored against its reference.
    test_nmse, vs_reference = [], []
    for op in cycle.values():
        want = workloads.expected_rows(wl, op.op_seed, reference)
        if len(op.rows) != len(want):
            continue
        for got, ref in zip(op.rows, want):
            if not isinstance(got[7], str):
                test_nmse.append(got[7])
                vs_reference.append(got[7] / ref[7])
    latencies = [o.ms for o in ops]
    q = tail_percentile(len(ops))
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "experiments_per_s": _experiments_per_s(ops),
            "op_ms.p50": statistics.median(latencies),
            "op_ms.p90": (statistics.median(latencies) if q == 50
                          else nearest_rank(latencies, q)),
            # 0 only when no experiment produced a value, and then
            # ok_share is 0 as well.
            "test_nmse.vs_reference":
                statistics.fmean(vs_reference) if vs_reference else 0.0,
            "ok_share": 1.0 - failed / attempted,
        },
        "info": {"ops": len(ops), "op_ms.p90_is_percentile": q,
                 "test_nmse.mean": statistics.fmean(test_nmse) if test_nmse else None,
                 "experiments_per_op": len(wl.cells(0)),
                 "op_ms": [round(v, 3) for v in latencies]},
    }


def traced_run(wl, seed, seconds, work_dir, reference, trace_file) -> dict:
    from machine import blas_threads, single_blas_thread
    from micro import layer_microbenchmarks
    from spans import OP, Tracer, group_by_trace, jsonable, op_layers, patched, \
        summarize_ops

    tracer = Tracer()
    untraced, traced = [], []

    def cycle(i):
        s = workloads.op_seed(seed, i)
        # Each traced op has an untraced twin for the overhead comparison.
        untraced.append(_run(wl, s, work_dir))
        tracer.trace_id = i
        with patched(tracer), tracer.span(OP):
            traced.append(_run(wl, s, work_dir, call=tracer.call))

    with single_blas_thread():
        threads = blas_threads()
        warm = _run(wl, workloads.op_seed(seed, 0), work_dir)
        _closed_loop(seconds, cycle)
    checked = [warm] + untraced + traced
    attempted = sum(len(wl.cells(o.op_seed)) for o in checked)
    failed = sum(workloads.count_failed(wl, o, reference) for o in checked)
    # The wrappers must not perturb results: traced outputs equal untraced.
    perturbed = sum(len(t.rows) for u, t in zip(untraced, traced)
                    if u.rows != t.rows or u.summary != t.summary)

    per_op = [op_layers(spans) for spans in group_by_trace(tracer.spans).values()]
    layers = summarize_ops(per_op)
    unaccounted = max(op["trace.unaccounted_ms"] for op in per_op)
    layers["trace.overhead.experiments_per_s"] = (
        _experiments_per_s(traced) - _experiments_per_s(untraced))
    layers["trace.untraced.experiments_per_s"] = _experiments_per_s(untraced)
    micro, pinned = layer_microbenchmarks(seed)
    layers.update(micro)

    trace_file.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": seed,
                   "spans": [jsonable(s) for s in tracer.spans]}, fh,
                  separators=(",", ":"))
        fh.write("\n")
    return {
        "attempted": attempted,
        "failed": min(attempted, failed + perturbed),
        "checks": {"traced_equals_untraced": perturbed == 0,
                   "spans_cover_ops": unaccounted == 0.0},
        "metrics": layers,
        "info": {"traced_ops": len(traced),
                 "workload_blas_threads": threads,
                 "single_thread_blas_pinned": pinned,
                 "trace_file": str(trace_file.relative_to(ROOT))},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    lib = Path(workloads.harness.__file__).resolve()
    if not lib.is_relative_to(ROOT / "src"):
        print(f"esnboost imported from {lib}, not from this checkout's src/",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    wl.cells(workloads.op_seed(args.seed, 0))
    if args.setup_only:
        print("ready", flush=True)
        return 0

    from machine import blas_threads, machine_block, single_blas_thread
    reference = workloads.load_reference()
    args.work_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        result = traced_run(wl, args.seed, args.seconds, args.work_dir,
                            reference, args.trace_file)
    else:
        with single_blas_thread():
            threads = blas_threads()
            result = timed_run(wl, args.seed, args.seconds, args.work_dir,
                               reference)
        result["info"]["workload_blas_threads"] = threads
    result["machine"] = machine_block()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
