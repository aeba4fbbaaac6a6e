"""Command line entry point: ``fraclab <command> <config.json>...``.

Several configs run in one process, in order, once all are validated, and
share their converged reference solves; each writes ``<config stem>.csv``
in the working directory.

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 I/O error.
CSV schemas per command are documented in docs/schemas.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .harness import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    ConfigError,
    load_config,
    run_experiment,
)
from .optimize import NumericalFailure
from .selftest import selftest


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
                click.echo(f"wrote {path}")
    except ConfigError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_CONFIG)
    except NumericalFailure as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    except OSError as exc:
        click.echo(f"I/O error: {exc}", err=True)
        sys.exit(EXIT_IO)


def _command(name: str, help_text: str):
    @main.command(name=name, help=help_text)
    @click.argument("configs", nargs=-1, required=True, type=str)
    @click.option("--out", type=str, default=None, help="Output CSV path (one config only).")
    @click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
                  help="Worker threads for independent jobs.")
    @click.option("--quiet", is_flag=True, help="Suppress the completion message.")
    def cmd(configs, out, workers, quiet, _name=name):
        _run(_name, configs, out, workers, quiet)

    return cmd


@click.group()
def main():
    """Numerical lab for fractional transition energies with oscillating kernels."""


_command("profile", "Estimate one transition energy from a JSON config.")
_command("curve", "Transition energy as a function of the clamp length T.")
_command("sweep", "Minimize the eps/delta energy along a regime rule.")
_command("recovery", "Evaluate the pasted recovery profile against the prediction.")


@main.command(name="selftest", help="Run the built-in invariant suite at small N.")
@click.option("--quiet", is_flag=True, help="Print nothing; exit code carries the result.")
def selftest_cmd(quiet):
    ok, report = selftest()
    if not quiet:
        click.echo(report, nl=False)
    if not ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
