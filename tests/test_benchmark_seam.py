"""The benchmark's traced run patches library functions at module attributes
(``perfbench/spans.py``).  These tests run one traced experiment through it,
so removing or renaming an attribute it patches, or moving work off the
patched call paths, fails here instead of silently blinding ``--trace``.
"""

import importlib.util
from pathlib import Path

from esnboost import boosting, esn, harness
from esnboost.harness import ExperimentConfig

SPANS_PATH = Path(__file__).parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_fresh_boost_run_records_its_layers():
    spans = load_spans()
    before = {mod: dict(vars(mod)) for mod in (esn, boosting, harness)}
    config = ExperimentConfig.for_benchmark(
        "freedman", method="boost", boost_mode="fresh", n_reservoir=6,
        n_stages=2)
    tracer = spans.Tracer()
    tracer.trace_id = 0
    with spans.patched(tracer), tracer.span(spans.OP):
        assert harness.l2boost_fit is not before[harness]["l2boost_fit"]
        record = harness.run_experiment(config)
    assert record.M_or_K == 2

    layers = spans.op_layers(tracer.spans)
    assert layers["boosting.terms_fitted"] == 3
    assert layers["esn.run_reservoir.calls"] == 6
    # 3 terms, each over 30 training rows and 19 test rows
    assert layers["esn.run_reservoir.steps"] == 147
    names = {span["name"] for span in tracer.spans}
    for name in ("esn.init_reservoir", "harness.load_benchmark",
                 "metrics.evaluate"):
        assert name in names, name

    for mod, attrs in before.items():
        changed = [name for name, value in vars(mod).items()
                   if attrs.get(name, object()) is not value]
        assert changed == [], (mod.__name__, changed)
