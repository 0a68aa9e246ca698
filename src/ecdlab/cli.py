"""Command-line entry point: `ecdlab run <config>` and `ecdlab validate <config>`.

Exit status: 0 success, 2 validation failure, 3 numeric failure (blowup,
coverage, singular systems), 4 accuracy failure (a residual exceeded the
tolerance declared in the scenario).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import cache

from .scenarios import (OUT_DIR_ENV, AccuracyFailure, NumericFailure,
                        ScenarioValidationError, _load, _run, strict_json,
                        validate_file)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_ACCURACY = 4


def _parse_override(text: str):
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"override {text!r} must have the form key.path=value")
    key, _, value = text.partition("=")
    return key, value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args leaves it unchanged
    (append copies its default before it adds to it)."""
    ap = argparse.ArgumentParser(prog="ecdlab",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario config")
    run.add_argument("config", help="path to a JSON scenario file")
    run.add_argument("--out", default=None,
                     help=f"output directory (default: ${OUT_DIR_ENV} or ./ecdlab-out)")
    run.add_argument("--workers", type=int, default=None,
                     help="accepted for compatibility; no scenario starts "
                          "worker processes, and results never depend on it")
    run.add_argument("--override", action="append", type=_parse_override,
                     default=[], metavar="KEY.PATH=VALUE",
                     help="replace a config value before validation")

    val = sub.add_parser("validate", help="schema-check a scenario config")
    val.add_argument("config", help="path to a JSON scenario file")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "validate":
        diags = validate_file(args.config)
        for d in diags:
            print(d, file=sys.stderr)
        if diags:
            return EXIT_VALIDATION
        print("valid")
        return EXIT_OK

    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or "ecdlab-out"
    t0 = time.time()
    try:     # load_scenario then run_scenario, with the one set-up that validated the config
        scenario, prepared = _load(args.config, overrides=args.override)
        manifest = _run(scenario, prepared, out_dir, t0)
    except ScenarioValidationError as exc:
        for d in exc.diagnostics:
            print(d, file=sys.stderr)
        return EXIT_VALIDATION
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except AccuracyFailure as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return EXIT_ACCURACY
    print(strict_json({"kind": manifest.kind, "outputs": manifest.outputs,
                       "residuals": manifest.residuals}, indent=2, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
