"""Command-line entry point.

One subcommand per kind of `harness.KINDS`.  A flag named after an
`ExperimentConfig` field sets that field, and no field has a second
flag; every field can also come from a JSON config file, which
overrides flags when both are given.  `harness.run` does the
rest; the CLI then prints one line per check (the acceptance suite
prints its own as each finishes) and the `reduce` result.  Exit status:
0 all checks passed, 1 an invariant failed, 2 configuration/budget/
precision trouble.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .acceptance import SUITES
from .errors import BudgetExceededError, DeterminantError, PrecisionError
from .harness import KINDS, ExperimentConfig, run


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--t-grid", type=str, default=None, help="comma-separated flow times (horizons T for zeta and weyl)")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--b0", type=str, default=None, help='comma-separated coords, rationals as "p/q"')
    p.add_argument("--g0", type=str, default=None, help="row-major JSON matrix")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--max-freq", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--config", type=str, default=None, help="JSON config path (overrides flags)")


#: parsers of the field flags that arrive as strings; argparse types the others
_PARSE = {
    "t_grid": lambda s: tuple(float(x) for x in s.split(",")),
    "b0": lambda s: tuple(s.split(",")),
    "g0": json.loads,
}


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = {}
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key, val in vars(args).items():
        if key in fields and val is not None:
            cfg[key] = _PARSE[key](val) if key in _PARSE else val
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg.update(json.load(fh))  # the config file wins
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
            p.add_argument("--suite", type=str, default="all", choices=tuple(SUITES))
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
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
    if cfg.kind != "acceptance":  # acceptance prints each line as it finishes
        for check in report.checks:
            print(check.line())
    if report.result is not None:
        print(json.dumps(report.result, indent=2))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
