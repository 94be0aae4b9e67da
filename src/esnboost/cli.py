"""Command-line front end.

Subcommands: ``generate`` (export a benchmark dataset as CSV), ``run``
(one experiment from a config file), ``sweep`` (grid of experiments to a
results CSV), ``report`` (summaries and plot data from a results CSV).

Exit codes: 0 success, 1 usage or configuration problem, 2 data problem
(including a file that cannot be read or written), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .datasets import (SUPERVISED_MARGIN, dataset_to_csv, make_supervised,
                       read_text)
from .errors import DataError, NumericalError, ParameterError
from .harness import (BENCHMARKS, ExperimentConfig, _m_or_k, build_config,
                      generate_raw, parse_config_text, report, run_experiment,
                      sweep, write_records_csv)

__all__ = ["main", "run"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; 2 is taken, use 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="esnboost",
                     description="Boosted weak echo state networks: benchmark "
                                 "data, experiments, sweeps, and reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[], add_help=True,
                       help="export a benchmark's supervised dataset as CSV")
    p.add_argument("benchmark", choices=[b for b in BENCHMARKS if b != "laser"],
                   help="synthetic benchmark to generate (the laser series is "
                        "measured data and cannot be generated)")
    p.add_argument("--length", type=int, default=None,
                   help="raw samples to generate (default: the benchmark's "
                        "train+test requirement)")
    p.add_argument("--seed", type=int, default=0,
                   help="experiment seed; the generator stream derives from it "
                        "exactly as the run command does")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run one experiment and print its record")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config entry (repeatable; wins over the "
                        "file)")
    p.add_argument("--out", help="write the record CSV here instead of stdout")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run a reservoir-size grid to a CSV")
    p.add_argument("--config", help="flat key=value config file; the keys "
                                    "sweep_n_reservoir and sweep_m_or_k take "
                                    "comma-separated grid values")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config entry (repeatable)")
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--workers", type=int, default=0,
                   help="most worker processes, one job per (size, "
                        "repetition) group; 0 runs serially (output is "
                        "identical either way)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="aggregate a results CSV")
    p.add_argument("csv", help="results CSV produced by sweep or run")
    p.add_argument("--mode", required=True, choices=["summary", "plotdata"],
                   help="summary: mean/std table; plotdata: one curve file "
                        "per method/M_or_K")
    p.add_argument("--out-dir", default=".", help="directory for output files")
    p.add_argument("--svg", default=None,
                   help="plotdata mode only: also draw the curves into this SVG file")
    p.set_defaults(func=_cmd_report)
    return parser


def _merged_values(args) -> dict[str, str]:
    values: dict[str, str] = {}
    if args.config:
        values.update(parse_config_text(read_text(args.config, "config file"),
                                        source=args.config))
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ParameterError(f"--set expects KEY=VALUE, got {item!r}")
        values[key.strip()] = value.strip()
    return values


def _cmd_generate(args) -> None:
    benchmark = args.benchmark
    margin = SUPERVISED_MARGIN[benchmark]
    # the same config and data stream the run command derives from the seed
    config = ExperimentConfig.for_benchmark(benchmark, seed=args.seed)
    length = args.length
    if length is None:
        length = config.n_train + config.n_test + margin
    if length <= margin:
        raise ParameterError(
            f"--length must exceed {margin} for {benchmark}, got {length}")
    dataset = make_supervised(generate_raw(config, length), benchmark, washout=0)
    dataset_to_csv(dataset, args.out)
    print(f"wrote {dataset.rows} rows to {args.out}")


def _cmd_run(args) -> None:
    config = build_config(_merged_values(args))
    record = run_experiment(config)
    write_records_csv([record], args.out if args.out else sys.stdout)
    if args.out:
        print(f"wrote 1 row to {args.out}")


def _parse_int_list(text: str, key: str) -> list[int]:
    try:
        values = [int(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ParameterError(f"{key}: expected comma-separated integers, got "
                             f"{text!r}") from exc
    if not values:
        raise ParameterError(f"{key}: empty list")
    return values


def _cmd_sweep(args) -> None:
    values = _merged_values(args)
    ns_text = values.pop("sweep_n_reservoir", None)
    mk_text = values.pop("sweep_m_or_k", None)
    config = build_config(values)
    if ns_text is not None:
        ns_values = _parse_int_list(ns_text, "sweep_n_reservoir")
    else:
        ns_values = [config.n_reservoir]
    if mk_text is not None:
        mk_values = _parse_int_list(mk_text, "sweep_m_or_k")
    else:
        mk_values = [_m_or_k(config)]
    records = sweep(config, ns_values, mk_values, workers=args.workers)
    write_records_csv(records, args.out)
    print(f"wrote {len(records)} rows to {args.out}")


def _cmd_report(args) -> None:
    written = report(args.csv, args.mode, out_dir=args.out_dir,
                     svg_path=args.svg)
    for path in written:
        print(f"wrote {path}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        args.func(args)
    except ParameterError as exc:
        print(f"esnboost: error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:  # OSError: an output file or directory
        print(f"esnboost: data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"esnboost: numerical error: {exc}", file=sys.stderr)
        return 3
    return 0


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())
