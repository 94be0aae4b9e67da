"""esnboost benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The library is imported from the
checkout's ``src``.  With ``--trace 0`` the last line of standard output
holds every end-to-end metric named in BENCHMARK.json; with ``--trace 1``
every per-layer metric.  The line before it is the run's machine block and
sample counts.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench"
# Set-up is probed this many times before the measurement and as many after
# it, so that its median spans the host's speed over the whole run.
SETUP_PROBES = 4
# A run is stopped, and reported as failed, past this many seconds.
RUN_LIMIT_S = 170
# A slow sampling rate rarely takes a core from the measured process.
RSS_SAMPLE_S = 0.1
# Cleared so that the BLAS libraries start at their default thread count,
# which the microbenchmarks measure; measure.py runs the ops at one thread.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "GOTO_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _measure_cmd(args, *extra) -> list:
    return [sys.executable, str(HERE / "measure.py"), "--workload",
            args.workload, "--seed", str(args.seed), *extra]


def setup_seconds(args, env) -> list:
    """Wall times from process start to the workload being ready."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(_measure_cmd(args, "--setup-only"), env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
    return times


def _tree_rss_bytes(pid: int) -> int:
    """Resident memory of a process and all its descendants, from /proc."""
    page = os.sysconf("SC_PAGE_SIZE")
    total, stack = 0, [pid]
    while stack:
        p = stack.pop()
        try:
            with open(f"/proc/{p}/statm", encoding="ascii") as fh:
                total += int(fh.read().split()[1]) * page
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children", encoding="ascii") as fh:
                    stack.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total


def run_measurement(args, env, out_file) -> tuple[dict, float]:
    """Run measure.py; returns its result and the peak RSS in MB of the
    measurement process and any process it starts."""
    work = OUT_DIR / f"work-{os.getpid()}"
    cmd = _measure_cmd(args, "--seconds", str(args.seconds), "--trace",
                       str(args.trace), "--work-dir", str(work), "--out",
                       str(out_file), "--trace-file",
                       str(OUT_DIR / f"trace-{args.workload}.json"))
    peak = 0
    deadline = time.monotonic() + RUN_LIMIT_S
    # The child's stdout goes to stderr: this process's stdout carries the
    # result lines only.
    with subprocess.Popen(cmd, env=env, stdout=sys.stderr) as proc:
        try:
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    raise TimeoutError(f"measurement exceeded {RUN_LIMIT_S} s")
                try:
                    peak = max(peak, _tree_rss_bytes(proc.pid))
                except OSError:
                    pass
                time.sleep(RSS_SAMPLE_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"measurement exited with {proc.returncode}")
    # The largest single descendant's exact peak backs up the sampling.
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(out_file, encoding="utf-8") as fh:
        result = json.load(fh)
    out_file.unlink()
    return result, max(peak, children_kb * 1024) / 2 ** 20


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "esnboost" / "__init__.py").is_file():
        print(f"no esnboost package under {ROOT / 'src'}; run from the root "
              f"of an esnboost checkout", file=sys.stderr)
        return 2
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    env = _child_env()
    OUT_DIR.mkdir(exist_ok=True)
    try:
        setup = [] if args.trace else setup_seconds(args, env)
        result, peak_mb = run_measurement(
            args, env, OUT_DIR / f"result-{os.getpid()}.json")
        if not args.trace:
            setup += setup_seconds(args, env)
    except (RuntimeError, TimeoutError, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    measured = dict(result["metrics"])
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if not args.trace:
        measured["setup_s"] = statistics.median(setup)
        measured["peak_rss_mb"] = peak_mb
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    checks = result.get("checks", {})
    correct = result["failed"] == 0 and all(checks.values())
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "machine": result["machine"], "checks": checks,
                      **result["info"]}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
