"""Command line entry point: ``fraclab <command> <config.json>``.

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 I/O error.
CSV schemas per command are documented in docs/schemas.md.
"""

from __future__ import annotations

import sys

import click

from .harness import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    ConfigError,
    load_config,
    run_experiment,
    selftest,
)
from .optimize import NumericalFailure


def _run(command: str, config_path: str, out: str, workers: int, quiet: bool) -> None:
    try:
        cfg = load_config(config_path)
        if cfg.command != command:
            raise ConfigError(
                [f"config declares command {cfg.command!r}, invoked as {command!r}"]
            )
        run_experiment(cfg, out, workers=workers)
    except ConfigError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_CONFIG)
    except NumericalFailure as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    except OSError as exc:
        click.echo(f"I/O error: {exc}", err=True)
        sys.exit(EXIT_IO)
    if not quiet:
        click.echo(f"wrote {out}")


def _command(name: str, help_text: str):
    @main.command(name=name, help=help_text)
    @click.argument("config", type=str)
    @click.option("--out", type=str, default=None, help="Output CSV path.")
    @click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
                  help="Worker threads for independent jobs.")
    @click.option("--quiet", is_flag=True, help="Suppress the completion message.")
    def cmd(config, out, workers, quiet, _name=name):
        _run(_name, config, out or f"{_name}.csv", workers, quiet)

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
