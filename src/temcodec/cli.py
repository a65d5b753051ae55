"""Command-line interface.

Subcommands::

    temcodec run <config> [--out-dir DIR] [--quad-tol X] [--sv-cutoff X]
    temcodec validate <config>
    temcodec compare <report_a.json> <report_b.json>

Exit codes: 0 success, 2 invalid config or arguments, 3 pipeline
numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiment import (
    ConfigError,
    PipelineError,
    compare_runs,
    load_config,
    run_experiment,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PIPELINE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="temcodec",
        description="Time-encoding sampling and reconstruction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("config", help="path to an experiment .cfg file")
    run_p.add_argument("--out-dir", default=None, help="output directory")
    run_p.add_argument("--quad-tol", type=float, default=None,
                       help="override quadrature tolerance")
    run_p.add_argument("--sv-cutoff", type=float, default=None,
                       help="override relative singular-value cutoff")

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config")

    cmp_p = sub.add_parser("compare", help="compare two run reports")
    cmp_p.add_argument("report_a")
    cmp_p.add_argument("report_b")
    return parser


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.quad_tol is not None:
            if args.quad_tol <= 0:
                raise ConfigError("--quad-tol must be positive")
            cfg.quad_tol = args.quad_tol
        if args.sv_cutoff is not None:
            if args.sv_cutoff <= 0:
                raise ConfigError("--sv-cutoff must be positive")
            cfg.sv_cutoff = args.sv_cutoff
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out_dir or cfg.out_dir or f"runs/{Path(args.config).stem}"
    try:
        result = run_experiment(cfg, out_dir)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    metrics = result.data["metrics"]
    snr = metrics["snr_db"]
    snr_text = f"{snr:.2f} dB" if snr is not None else "undefined (zero signal)"
    print(f"run complete: mode={cfg.mode} out={result.out_dir}")
    print(f"  snr={snr_text}  max_abs_err={metrics['max_abs_err']:.3e}")
    print(f"  runtime={result.runtime_seconds:.2f}s")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"config ok: mode={cfg.mode} window={cfg.window}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    reports = []
    for path in (args.report_a, args.report_b):
        try:
            reports.append(json.loads(Path(path).read_text(encoding="ascii")))
        except (OSError, ValueError) as exc:
            print(f"cannot read report {path}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        table = compare_runs(reports[0], reports[1])
    except ValueError as exc:
        print(f"compare error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    width = max(len(k) for k in table)
    for key, value in table.items():
        if isinstance(value, float):
            print(f"{key:<{width}}  {value:.6g}")
        else:
            print(f"{key:<{width}}  {value}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    return _cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
