"""Command line entry point.

Subcommands mirror the pipeline stages (gen-data, train, calibrate,
evaluate), plus `run` for the whole pipeline and `report` to aggregate
metrics across finished runs. `--out` names the run dir; the other flags
override the corresponding config fields, and the manifest records the
effective config.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .errors import TesseraError
from .experiment import METHODS, ExperimentConfig, build_report, load_config, \
    resolve_methods, run_experiment, stage_calibrate, stage_evaluate, stage_gen_data, \
    stage_train


def _add_common(p: argparse.ArgumentParser, alpha: bool = False,
                method: bool = False) -> None:
    p.add_argument("--config", type=Path, default=None,
                   help="JSON experiment config (defaults apply when omitted)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", type=Path, default=Path("tessera_run"),
                   help="run directory (default: tessera_run)")
    if alpha:
        p.add_argument("--alpha", type=float, default=None,
                       help="override the miscoverage level")
    if method:
        p.add_argument("--method", choices=METHODS + ("all",), default=None,
                       help="evaluate a single method (default: config methods)")


def _effective_config(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        config.seed = int(args.seed)
    if getattr(args, "alpha", None) is not None:
        config.calibration = dataclasses.replace(config.calibration, alpha=args.alpha)
    if getattr(args, "method", None) is not None:
        config.methods = resolve_methods(args.method)
    return config


def _cmd_run(args) -> int:
    config = _effective_config(args)
    out = run_experiment(config, args.out)
    print(f"run complete: {out}")
    for method in config.methods:
        print(f"  metrics_{method}.json")
    return 0


def _cmd_gen_data(args) -> int:
    config = _effective_config(args)
    ds = stage_gen_data(config, args.out)
    print(f"wrote {args.out / 'data.csv'} ({ds.n} rows, {ds.dim} features)")
    return 0


def _cmd_train(args) -> int:
    config = _effective_config(args)
    stage_train(config, args.out)
    print(f"wrote {args.out / 'moe_model.json'} and mc_dropout_model.json")
    return 0


def _cmd_calibrate(args) -> int:
    config = _effective_config(args)
    results = stage_calibrate(config, args.out)
    for kind, res in results.items():
        print(f"calibration_{kind}.json: q_hat={res.q_hat}")
    return 0


def _cmd_evaluate(args) -> int:
    config = _effective_config(args)
    reports = stage_evaluate(config, args.out)
    for method, rep in reports.items():
        print(f"{method}: picp={rep.picp:.3f} nmpiw="
              f"{rep.nmpiw if rep.nmpiw == float('inf') else round(rep.nmpiw, 4)}")
    return 0


def _cmd_report(args) -> int:
    table = build_report(args.run_dirs, args.out)
    print(f"wrote {Path(args.out) / 'report.json'} covering {len(table)} methods")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tessera",
        description="Mixture-of-experts regression with conformally "
                    "calibrated prediction intervals")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run all pipeline stages")
    _add_common(p, alpha=True, method=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("gen-data", help="generate or import the dataset")
    _add_common(p)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train the mixture model and the dropout baseline")
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("calibrate", help="conformal calibration on the cal split")
    _add_common(p, alpha=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("evaluate", help="metrics and curves on the test split")
    _add_common(p, alpha=True, method=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="aggregate metrics across finished runs")
    p.add_argument("run_dirs", nargs="+", type=Path, help="run directories")
    p.add_argument("--out", type=Path, required=True, help="report output directory")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TesseraError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # a failed stage must still exit nonzero
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
