"""Command-line entry point.

One subcommand per experiment kind; every flag can also come from a
JSON config file, and per the interface contract the file overrides
flags when both are given.  Exit status: 0 all checks passed, 1 an
invariant failed, 2 configuration/budget/precision trouble.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BudgetExceededError, DeterminantError, PrecisionError
from .harness import KINDS, ExperimentConfig, run


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--d", type=int, default=None, help="dimension (sets m=d-1, n=1 unless given)")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--t-grid", type=str, default=None, help="comma-separated flow times")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--b0", type=str, default=None, help='comma-separated coords, rationals as "p/q"')
    p.add_argument("--g0", type=str, default=None, help="row-major JSON matrix")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--max-freq", type=int, default=None)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--config", type=str, default=None, help="JSON config path (overrides flags)")


def _build_config(kind: str, args: argparse.Namespace) -> ExperimentConfig:
    cfg = {"kind": kind}
    if args.d is not None:
        cfg["m"] = args.d - 1
        cfg["n"] = 1
    for key in (
        "m",
        "n",
        "t",
        "samples",
        "seed",
        "epsilon",
        "rho",
        "T",
        "alpha",
        "x0",
        "radius",
        "out",
        "budget",
    ):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if args.max_freq is not None:
        cfg["max_freq"] = args.max_freq
    if args.t_grid is not None:
        cfg["t_grid"] = tuple(float(x) for x in args.t_grid.split(","))
    if args.b0 is not None:
        cfg["b0"] = tuple(args.b0.split(","))
    if args.g0 is not None:
        cfg["g0"] = json.loads(args.g0)
    if getattr(args, "suite", None) is not None:
        cfg["suite"] = args.suite
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        cfg.update(file_cfg)  # the config file wins
    return ExperimentConfig.from_json(cfg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="horolattice",
        description="Expanding horospherical translates of affine lattices: experiments and checks",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        _add_common(p)
        if kind == "acceptance":
            p.add_argument("--suite", type=str, default="all", choices=("all", "exact", "scaling"))
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args.kind, args)
        report = run(cfg)
    except DeterminantError as exc:
        print(f"determinant error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError and every other bad input
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, PrecisionError) as exc:
        print(f"budget/precision error: {exc}", file=sys.stderr)
        return 2
    for check in report.checks:
        if cfg.kind != "acceptance":  # acceptance already printed its lines
            print(check.line())
    if report.result is not None:
        print(json.dumps(report.result, indent=2))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
