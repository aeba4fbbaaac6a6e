"""Command line entry point: ``fraclab <command> <config.json>...``.

Several configs run in one process, in order, once all are validated, and
share their converged reference solves; each writes ``<config stem>.csv``
in the working directory.

Exit codes: 0 ok, 2 config or usage error, 3 numerical failure, 4 I/O error.
CSV schemas per command are documented in docs/schemas.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, ConfigError, load_config, run_experiment
from .optimize import NumericalFailure

_COMMANDS = {
    "profile": "Estimate one transition energy from a JSON config.",
    "curve": "Transition energy as a function of the clamp length T.",
    "sweep": "Minimize the eps/delta energy along a regime rule.",
    "recovery": "Evaluate the pasted recovery profile against the prediction.",
    "selftest": "Run the built-in invariant suite at small N.",
}


def _load(command: str, paths) -> list:
    """Every config validated before any runs; each violation of a config
    among several names its path."""
    configs, violations = [], []
    for path in paths:
        try:
            cfg = load_config(path)
            if cfg.command != command:
                raise ConfigError(
                    [f"config declares command {cfg.command!r}, invoked as {command!r}"]
                )
            configs.append(cfg)
        except ConfigError as exc:
            violations += [f"{path}: {v}" if len(paths) > 1 else v for v in exc.violations]
    if violations:
        raise ConfigError(violations)
    return configs


def _outputs(command: str, paths, out) -> list:
    """--out, else <command>.csv, for one config; <config stem>.csv in the
    working directory for each of several."""
    if len(paths) == 1:
        return [out or f"{command}.csv"]
    if out is not None:
        raise ConfigError(["--out takes a single config; several write <config stem>.csv"])
    outs = [f"{Path(path).stem}.csv" for path in paths]
    clashes = sorted({name for name in outs if outs.count(name) > 1})
    if clashes:
        raise ConfigError([f"several configs would write {name}" for name in clashes])
    return outs


def _run(command: str, paths, out, workers: int, quiet: bool) -> None:
    try:
        outs = _outputs(command, paths, out)
        for cfg, path in zip(_load(command, paths), outs):
            run_experiment(cfg, path, workers=workers)
            if not quiet:
                print(f"wrote {path}")
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        sys.exit(EXIT_CONFIG)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        sys.exit(EXIT_NUMERICAL)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        sys.exit(EXIT_IO)


def _workers(text: str) -> int:
    workers = int(text)  # argparse reports a ValueError as an invalid value
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {workers}")
    return workers


def _parser() -> argparse.ArgumentParser:
    # no abbreviations: --wor is an unknown option, not --workers
    parser = argparse.ArgumentParser(prog="fraclab", description=main.__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, help_text in _COMMANDS.items():
        cmd = commands.add_parser(name, help=help_text, description=help_text, allow_abbrev=False)
        if name != "selftest":
            cmd.add_argument("configs", nargs="+", metavar="CONFIG")
            cmd.add_argument("--out", help="Output CSV path (one config only).")
            cmd.add_argument("--workers", type=_workers, default=1,
                             help="Worker threads for independent jobs (default: 1).")
        cmd.add_argument("--quiet", action="store_true",
                         help="Print nothing but errors; the exit code carries the result.")
    return parser


def main(argv=None) -> None:
    """Numerical lab for fractional transition energies with oscillating kernels."""
    args = _parser().parse_args(argv)
    if args.command != "selftest":
        return _run(args.command, args.configs, args.out, args.workers, args.quiet)
    from .selftest import selftest  # the experiment commands never load the suite
    ok, report = selftest()
    if not args.quiet:
        print(report, end="")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
