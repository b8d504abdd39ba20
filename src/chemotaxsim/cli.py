"""Command line interface.

Subcommands:
  run <config> [key=value ...]       single simulation, outputs in run.outdir
  sweep <config> --axis k=v1,v2,...  cartesian parameter sweep
  regimes --chi --mu --a-inf         threshold / window verdict as JSON
  check                              built-in verification battery

Exit codes: 0 success, 1 battery failure or threshold not met, 2 config error,
3 numerical trigger, 4 solver failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import checks, engine
from .errors import ConfigError, SimulationError
from .regimes import beta_window, boundedness_threshold

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_TRIGGER = 3
EXIT_SOLVER = 4
# a verdict not listed exits EXIT_OK; a sweep exits with its cells' largest code
EXIT_OF_VERDICT = {engine.VERDICT_BLOWUP: EXIT_TRIGGER, engine.VERDICT_SOLVER: EXIT_SOLVER}


def _exit_code(outcomes) -> int:
    return max((EXIT_OF_VERDICT.get(o.verdict, EXIT_OK) for o in outcomes), default=EXIT_OK)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chemotaxsim",
                                     description="Finite-volume chemotaxis simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation from a config file")
    p_run.add_argument("config", help="path to key=value config file")
    p_run.add_argument("overrides", nargs="*", metavar="key=value",
                       help="config overrides, e.g. model.chi=2.0 "
                            "(place before any -- options)")
    p_run.add_argument("--outdir", help="output directory (overrides run.outdir)")

    p_sweep = sub.add_parser("sweep", help="run a cartesian parameter sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("overrides", nargs="*", metavar="key=value")
    p_sweep.add_argument("--axis", action="append", required=True,
                         metavar="name=v1,v2,...",
                         help=f"axis over {', '.join(engine.SWEEP_AXES)}; repeatable")
    p_sweep.add_argument("--outdir", help="output directory (overrides run.outdir)")
    p_sweep.add_argument("--workers", type=int, default=None)

    p_reg = sub.add_parser("regimes", help="threshold verdict and exponent windows")
    p_reg.add_argument("--chi", type=float, required=True)
    p_reg.add_argument("--mu", type=float, required=True)
    p_reg.add_argument("--a-inf", type=float, required=True, dest="a_inf")

    sub.add_parser("check", help="run the built-in verification battery")
    return parser


def _cmd_run(args) -> int:
    config = engine.load_config(args.config, args.overrides)
    outcome = engine.run(config, outdir=args.outdir or config.outdir or "out")
    facts = {k: v for k, v in outcome.facts().items() if k != "failure"}
    print(json.dumps(engine._json_safe({**facts, "diagnostics": outcome.diagnostics_path,
                                        "summary": outcome.summary_path}), indent=2))
    return _exit_code([outcome])


def _parse_axes(specs: list[str]) -> list[tuple[str, list[float]]]:
    axes = []
    for spec in specs:
        if "=" not in spec:
            raise ConfigError(f"axis must look like name=v1,v2,..., got {spec!r}")
        name, values = spec.split("=", 1)
        try:
            axes.append((name.strip(), [float(v) for v in values.split(",")]))
        except ValueError:
            raise ConfigError(f"axis values must be numbers, got {spec!r}") from None
    return axes


def _cmd_sweep(args) -> int:
    config = engine.load_config(args.config, args.overrides)
    result = engine.sweep(config, _parse_axes(args.axis),
                          outdir=args.outdir or config.outdir or "out", workers=args.workers)
    verdicts = [o.verdict for o in result.outcomes]
    print(json.dumps({
        "cells": len(verdicts),
        "triggers": verdicts.count(engine.VERDICT_BLOWUP),
        "solver_failures": verdicts.count(engine.VERDICT_SOLVER),
        "table": result.csv_path,
    }, indent=2))
    return _exit_code(result.outcomes)


def _cmd_regimes(args) -> int:
    verdict = boundedness_threshold(args.chi, args.mu, args.a_inf)
    window = (dataclasses.asdict(beta_window(args.chi, args.mu, args.a_inf))
              if verdict.satisfied else None)
    print(json.dumps(engine._json_safe({"threshold": dataclasses.asdict(verdict),
                                        "beta_window": window}), indent=2))
    return EXIT_OK if verdict.satisfied else EXIT_FAIL


def _cmd_check() -> int:
    items = checks.self_check()
    for item in items:
        print(f"[{'PASS' if item.passed else 'FAIL'}] {item.name}: {item.detail}")
    return EXIT_OK if all(item.passed for item in items) else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "regimes":
            return _cmd_regimes(args)
        return _cmd_check()
    except (ConfigError, FileNotFoundError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
