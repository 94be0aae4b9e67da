"""Record the reference outputs every benchmark op is checked against.

    python3 perfbench/make_reference.py

Runs each experiment that any op of any workload can make (op seeds 0 to
SEED_PERIOD + OPS_PER_CYCLE - 2, plus sweep repetitions) once through
``run_experiment`` and stores its run id and four error values in
reference.json, with a hash of the library sources they came from.  Run it
only on code whose outputs are known to be right; the benchmark then flags
any later change of these values beyond workloads.RTOL.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import esnboost  # noqa: E402
import workloads  # noqa: E402
from machine import single_blas_thread  # noqa: E402


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "esnboost").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    rows = {}
    last_seed = workloads.SEED_PERIOD + workloads.OPS_PER_CYCLE - 2
    for wl in workloads.WORKLOADS.values():
        for seed in range(last_seed + 1):
            for cfg in wl.cells(seed):
                key = workloads.cell_key(cfg)
                if key not in rows:
                    # One BLAS thread, as the benchmark's ops run.
                    with single_blas_thread():
                        rec = esnboost.run_experiment(cfg)
                    rows[key] = [rec.run_id, rec.train_nmse, rec.test_nmse,
                                 rec.train_mse, rec.test_mse]
        print(f"{wl.name}: {len(rows)} rows so far", file=sys.stderr)
    write_reference({"esnboost_version": esnboost.__version__,
                     "src_sha256": source_hash(),
                     "rtol": workloads.RTOL}, rows)
    return 0


def write_reference(meta: dict, rows: dict) -> None:
    """JSON with one experiment per line, so changes diff line by line."""
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in meta.items()]
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                      for k, v in sorted(rows.items()))
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{" + ",\n".join(lines) + ',\n"rows": {\n' + body + "\n}}\n")


if __name__ == "__main__":
    sys.exit(main())
