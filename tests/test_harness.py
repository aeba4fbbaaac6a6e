import contextlib
import io
import json
import os
import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

import fraclab.cli as cli
import fraclab.energy as energy
import fraclab.harness as harness
import fraclab.selftest
from fraclab.cli import main
from fraclab.experiments import delta_rule
from fraclab.grid import UniformGrid
from fraclab.harness import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    ConfigError,
    emit_csv,
    load_config,
    run_experiment,
)
from fraclab.optimize import NumericalFailure, minimize
from fraclab.profiles import _start
from fraclab.selftest import selftest
from probes import descending_energy


CliResult = namedtuple("CliResult", "exit_code output")


def run_cli(args) -> CliResult:
    """main(args) as a shell runs it: the exit code, and stdout and stderr together."""
    output = io.StringIO()
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        try:
            main(args)
        except SystemExit as exc:
            return CliResult(exc.code, output.getvalue())
    return CliResult(0, output.getvalue())


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


PROFILE_CFG = {
    "command": "profile",
    "kernel": {"variant": "constant", "c": 1.0},
    "mode": "homogeneous",
    "k": 0,
    "s": 0.75,
    "chi": 0.0,
    "T": 2.0,
    "n_cells": 128,
    "grad_tol": 1e-4,
}


def test_load_config_minimal_profile(tmp_path):
    path = write_config(tmp_path, "p.json", PROFILE_CFG)
    cfg = load_config(path)
    assert cfg.command == "profile"
    assert cfg.kernel.c0 == 1.0
    assert cfg.k == 0 and cfg.s == 0.75


def test_load_config_rejects_excluded_exponents(tmp_path):
    bad = dict(PROFILE_CFG, k=0, s=0.5)
    path = write_config(tmp_path, "bad.json", bad)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert any("excluded" in v for v in err.value.violations)


def test_load_config_rejects_nonpositive_kernel(tmp_path):
    bad = dict(PROFILE_CFG, kernel={"variant": "cos_sum", "c0": 1.0, "c1": 1.0})
    path = write_config(tmp_path, "bad.json", bad)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert any("positive" in v for v in err.value.violations)


def test_load_config_aggregates_violations(tmp_path):
    bad = dict(PROFILE_CFG, kernel={"variant": "cos_sum", "c0": 1.0, "c1": 1.0},
               s=0.5, chi=2.0)
    path = write_config(tmp_path, "bad.json", bad)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert len(err.value.violations) >= 3
    # a bad mode was once checked only after every other rule had passed
    path = write_config(tmp_path, "mode.json", dict(PROFILE_CFG, mode="bogus", s=0.4))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert [v.split(" ")[0] for v in err.value.violations] == ["exponents:", "profile"]
    assert "mode must be one of" in err.value.violations[1]


def test_load_config_parse_error_carries_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"command": "profile",\n  broken\n}')
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert any("line 2" in v for v in err.value.violations)


def test_config_roundtrip_through_json(tmp_path):
    path = write_config(tmp_path, "p.json", PROFILE_CFG)
    cfg = load_config(path)
    path2 = write_config(tmp_path, "p2.json", cfg.raw)
    cfg2 = load_config(path2)
    assert cfg2.raw == cfg.raw
    assert cfg2.kernel == cfg.kernel and cfg2.command == cfg.command


def test_emit_csv_formats_and_terminates(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv([[0.1, 2, True], [1.0 / 3.0, -1, False]], ["a", "b", "c"], path)
    text = path.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1].startswith("0.1")
    assert "0.33333333333333331" in lines[2]


def test_emit_csv_empty_rows_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], ["x", "y"], path)
    assert path.read_text() == "x,y\n"


def test_emit_csv_refuses_non_finite(tmp_path):
    from fraclab import NumericalFailure

    with pytest.raises(NumericalFailure):
        emit_csv([[float("nan")]], ["x"], tmp_path / "nan.csv")
    assert not (tmp_path / "nan.csv").exists()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_emit_csv_gives_the_mode_a_plain_open_would(tmp_path, umask, mode):
    # not the temp file's 0600 whatever the umask
    old = os.umask(umask)
    try:
        emit_csv([[1.0]], ["x"], tmp_path / "out.csv")
    finally:
        os.umask(old)
    assert (tmp_path / "out.csv").stat().st_mode & 0o777 == mode


def test_emit_csv_atomic_no_partial_file(tmp_path):
    # failure before rename leaves no target file and no temp litter
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError):
        emit_csv([[1.0, 2.0], [3.0]], ["a", "b"], path)
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []


def test_run_profile_experiment_writes_csv(tmp_path):
    cfg = load_config(write_config(tmp_path, "p.json", PROFILE_CFG))
    out = tmp_path / "m.csv"
    run_experiment(cfg, out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("mode,omega,T",)
    cells = lines[1].split(",")
    m_hat = float(cells[5])
    assert m_hat > 0


@pytest.mark.parametrize("k, s", [(0, 0.75), (1, 0.5)])
@pytest.mark.parametrize("chi", [0.0, 0.4])
def test_profile_omega_labels_the_row_only(tmp_path, chi, k, s):
    # every solve ascends, so omega -1 writes the ascending row under its own
    # label; at chi = 0.4 a descending solve's row differs in its last digits
    rows = []
    for omega in (1, -1):
        raw = dict(PROFILE_CFG, kernel={"variant": "cos_sum", "c0": 2.5, "c1": 1.0},
                   mode="lambda", chi=chi, k=k, s=s, omega=omega, grad_tol=1e-6)
        out = tmp_path / f"omega{omega}.csv"
        run_experiment(load_config(write_config(tmp_path, f"omega{omega}.json", raw)), out)
        header, row = out.read_text().splitlines()
        rows.append(dict(zip(header.split(","), row.split(","))))
    assert (rows[0].pop("omega"), rows[1].pop("omega")) == ("1", "-1")
    assert rows[0] == rows[1]


def test_curve_ignores_omega(tmp_path):
    outs = []
    for omega in (1, -1):
        raw = dict(CURVE_CFG, kernel={"variant": "cos_sum", "c0": 2.5, "c1": 1.0},
                   mode="lambda", chi=0.4, omega=omega)
        out = tmp_path / f"omega{omega}.csv"
        run_experiment(load_config(write_config(tmp_path, f"omega{omega}.json", raw)), out)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_sweep_experiment_schema(tmp_path):
    cfg_raw = {
        "command": "sweep",
        "kernel": {"variant": "constant", "c": 1.0},
        "k": 0, "s": 0.75, "chi": 0.0,
        "jumps": [[0.5, 1]],
        "rule": "critical",
        "eps_list": [0.03125, 0.015625],
        "n_cells": 256,
        "T_profile": 1.0,
        "window_factor": 4.0,
        "reference_n_cells": 128,
        "grad_tol": 1e-4,
    }
    cfg = load_config(write_config(tmp_path, "s.json", cfg_raw))
    out = tmp_path / "sweep.csv"
    run_experiment(cfg, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "eps,delta,ratio,min_energy,predicted,rel_gap"
    assert len(lines) == 3
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    # one row per eps, in eps_list order, with the rule's delta (lam = 1
    # critical: delta = eps); 17 significant digits round-trip bit for bit
    assert [row[0] for row in rows] == cfg_raw["eps_list"]
    for eps, delta, ratio, min_energy, *_ in rows:
        assert delta == delta_rule("critical", eps, 1.0)
        assert ratio == delta / eps
        assert min_energy >= 0.0


def test_critical_sweep_skips_homogeneous_reference(tmp_path, monkeypatch):
    # the critical rule predicts from its lambda-mode solve only
    solved = count_solves(monkeypatch)
    cfg_raw = {
        "command": "sweep", "kernel": {"variant": "constant", "c": 1.0},
        "k": 0, "s": 0.75, "jumps": [[0.5, 1]], "rule": "critical",
        "eps_list": [0.03125], "n_cells": 256, "T_profile": 1.0,
        "window_factor": 4.0, "reference_n_cells": 128, "grad_tol": 1e-4,
    }
    run_experiment(load_config(write_config(tmp_path, "s.json", cfg_raw)),
                   tmp_path / "sweep.csv")
    assert [p.mode for p in solved] == ["lambda"]
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 2


def test_cli_profile_roundtrip(tmp_path):
    cfg = write_config(tmp_path, "p.json", PROFILE_CFG)
    out = tmp_path / "result.csv"
    res = run_cli(["profile", str(cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert out.exists()


def test_cli_config_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, "bad.json", dict(PROFILE_CFG, s=0.5))
    res = run_cli(["profile", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == EXIT_CONFIG


def test_cli_wrong_command_for_config(tmp_path):
    cfg = write_config(tmp_path, "p.json", PROFILE_CFG)
    res = run_cli(["sweep", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == EXIT_CONFIG


def test_cli_io_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, "p.json", PROFILE_CFG)
    res = run_cli(["profile", str(cfg), "--out", str(tmp_path / "missing_dir" / "x.csv")])
    assert res.exit_code == EXIT_IO


def test_cli_unreadable_config_exits_config(tmp_path):
    res = run_cli(["profile", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert "cannot read" in res.output


def test_cli_out_naming_a_directory_exits_io_and_leaves_no_temp_file(tmp_path):
    cfg = write_config(tmp_path, "p.json", PROFILE_CFG)
    (tmp_path / "out").mkdir()
    res = run_cli(["profile", str(cfg), "--out", str(tmp_path / "out")])
    assert res.exit_code == EXIT_IO, res.output
    # the atomic writer's temp file sits beside the target until the failed rename
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "p.json"]
    assert not any((tmp_path / "out").iterdir())


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch):
    def failing(tp, opts):
        raise NumericalFailure("energy is not finite")

    monkeypatch.setattr(harness, "transition_energy", failing)
    cfg = write_config(tmp_path, "p.json", PROFILE_CFG)
    out = tmp_path / "x.csv"
    res = run_cli(["profile", str(cfg), "--out", str(out)])
    assert res.exit_code == EXIT_NUMERICAL
    # the CLI prints it to stderr, which run_cli's output holds
    assert "numerical failure: energy is not finite" in res.output
    assert not out.exists()


@pytest.mark.parametrize("k, s", [(0, 0.75), (1, 0.5), (2, 0.5)])
def test_cli_huge_grid_spacing_fails_without_a_traceback(tmp_path, k, s):
    # h = 6.25e198: h ** 2 (and h ** 4 at k = 2) overflow in the set-up, whose
    # RuntimeWarnings ended the run in a traceback under -W error, as CI runs
    # the CLI; the spacing is now a config error, found before any solve
    cfg = write_config(tmp_path, "huge.json", dict(PROFILE_CFG, T=1e200, n_cells=96, k=k, s=s))
    out = tmp_path / "x.csv"
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-W", "error", "-m", "fraclab.cli", "profile",
                           str(cfg), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert f"grid spacing h = 6.25e+198 overflows h^{max(2, 2 * k)}" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


def test_selftest_passes_and_is_deterministic():
    ok1, report1 = selftest()
    ok2, report2 = selftest()
    assert ok1 and ok2
    assert report1 == report2
    assert run_cli(["selftest"]) == (0, report1)
    assert run_cli(["selftest", "--quiet"]) == (0, "")


def test_selftest_injected_gradient_bug_fails(monkeypatch):
    class DoubledGradient(fraclab.selftest.DiscreteEnergy):
        def gradient(self, values):
            return 2.0 * super().gradient(values)

    monkeypatch.setattr(fraclab.selftest, "DiscreteEnergy", DoubledGradient)
    ok, report = selftest()
    assert not ok
    assert "FAIL" in report
    assert run_cli(["selftest", "--quiet"]) == (1, "")


def test_cli_curve_with_workers(tmp_path):
    cfg_raw = dict(PROFILE_CFG, command="curve", T_list=[2.0, 4.0], n_cells=96,
                   grad_tol=1e-4)
    cfg = write_config(tmp_path, "c.json", cfg_raw)
    out = tmp_path / "curve.csv"
    res = run_cli(["curve", str(cfg), "--out", str(out), "--workers", "2", "--quiet"])
    assert res.exit_code == 0, res.output
    lines = out.read_text().splitlines()
    assert lines[0] == "T,T_out,n_cells,m_hat,iterations,converged"
    assert len(lines) == 3
    m2, m4 = (float(l.split(",")[3]) for l in lines[1:])
    assert m4 <= m2 + 1e-6
    out1 = tmp_path / "curve1.csv"
    res = run_cli(["curve", str(cfg), "--out", str(out1), "--workers", "1", "--quiet"])
    assert res.exit_code == 0, res.output
    assert out1.read_text() == out.read_text()


def test_cli_recovery_runs(tmp_path):
    cfg_raw = {
        "command": "recovery",
        "kernel": {"variant": "cos_sum", "c0": 2.5, "c1": 1.0},
        "k": 0, "s": 0.75, "chi": 0.0,
        "jumps": [[0.5, 1]],
        "mode": "lambda", "lam": 1.0,
        "eps": 0.03125,
        "T_profile": 2.0,
        "n_cells": 512,
        "reference_n_cells": 192,
        "grad_tol": 1e-4,
    }
    cfg = write_config(tmp_path, "r.json", cfg_raw)
    out = tmp_path / "rec.csv"
    res = run_cli(["recovery", str(cfg), "--out", str(out), "--quiet"])
    assert res.exit_code == 0, res.output
    lines = out.read_text().splitlines()
    assert lines[0] == "mode,eps,delta,n_jumps,energy,predicted,rel_gap"
    cells = lines[1].split(",")
    assert cells[0] == "lambda"
    assert float(cells[4]) > 0


# the required keys only: every other key takes its default
SWEEP_MIN = {"command": "sweep", "kernel": {"variant": "constant", "c": 1.0},
             "jumps": [[0.5, 1]], "rule": "critical", "eps_list": [0.03125]}
RECOVERY_MIN = {"command": "recovery", "kernel": {"variant": "cos_sum", "c0": 2.5, "c1": 1.0},
                "jumps": [[0.5, 1]], "mode": "lambda", "eps": 0.03125}
CURVE_CFG = dict(PROFILE_CFG, command="curve", T_list=[2.0, 4.0], n_cells=96, grad_tol=1e-4)


COS_SUM = {"variant": "cos_sum", "c0": 2.5, "c1": 1.0}


@pytest.mark.parametrize("raw, named", [
    (dict(RECOVERY_MIN, delta=1e-310), "eps: delta = 1e-310 is too small"),
    (dict(PROFILE_CFG, kernel=COS_SUM, mode="lambda", lam=1e-307),
     "transition problem: lam = 1e-307 is too small"),
    (dict(RECOVERY_MIN, lam=1e-308), "eps: delta = 3.125e-310 is too small"),
    (dict(SWEEP_MIN, kernel=COS_SUM, lam=1e-308),
     "reference problem (T = T_profile, n_cells = reference_n_cells): lam = 1e-308 is too small"),
    # the reference problem's phase, 2 pi 12 / lam, stays finite; the sweep point's does not
    (dict(SWEEP_MIN, kernel=COS_SUM, lam=1e-305, eps_list=[1e-4]),
     "eps_list: delta = 1e-309 is too small"),
], ids=["recovery-delta", "profile-lam", "recovery-lam", "sweep-lam", "sweep-point-lam"])
def test_cli_kernel_scale_too_small_for_the_grid_exits_config(tmp_path, monkeypatch, raw, named):
    # the kernel phase 2 pi x / delta overflows at the run's farthest node
    # (3T for a transition or reference problem, 1 on (0, 1)); these ran to
    # an OverflowError in the recovery's jump shift, or to a non-finite
    # energy at the first solve
    def unused(*args, **kwargs):
        raise AssertionError("a kernel scale too small must be rejected before any solve")

    monkeypatch.setattr(harness, "transition_energy", unused)
    monkeypatch.setattr(harness, "regime_sweep", unused)
    cfg = write_config(tmp_path, "bad.json", raw)
    out = tmp_path / "x.csv"
    res = run_cli([raw["command"], str(cfg), "--out", str(out)])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert named in res.output
    assert not out.exists()


@pytest.mark.parametrize("minimal, written_out", [
    (SWEEP_MIN, {"chi": 0.0, "k": 0, "s": 0.75, "grad_tol": 1e-6, "max_iters": 50000,
                 "n_cells": 2048, "T_profile": 4.0, "window_factor": 2.0,
                 "lam": 1.0, "reference_n_cells": 768}),
    (RECOVERY_MIN, {"chi": 0.0, "k": 0, "s": 0.75, "grad_tol": 1e-6, "max_iters": 50000,
                    "delta": 0.03125, "n_cells": 2048, "T_profile": 4.0,
                    "lam": 1.0, "reference_n_cells": 768}),
], ids=["sweep", "recovery"])
def test_written_out_defaults_give_identical_csv(tmp_path, minimal, written_out):
    outs = []
    for name, raw in (("min", minimal), ("full", {**minimal, **written_out})):
        out = tmp_path / f"{name}.csv"
        run_experiment(load_config(write_config(tmp_path, f"{name}.json", raw)), out)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("raw", [
    dict(SWEEP_MIN, eps_list=[0.015625, 0.03125]),  # eps_list ascending
    dict(SWEEP_MIN, eps_list=[0.25]),  # jumps closer than 4 * max(eps) * T_profile
    dict(RECOVERY_MIN, eps=0.2),  # eps * T_profile + delta >= tau
    dict(CURVE_CFG, T_list=[4.0, 2.0]),  # T_list descending
], ids=["eps-ascending", "jumps-too-close", "recovery-crowded", "T-descending"])
def test_cli_geometry_errors_exit_config(tmp_path, raw):
    cfg = write_config(tmp_path, "bad.json", raw)
    out = tmp_path / "x.csv"
    res = run_cli([raw["command"], str(cfg), "--out", str(out)])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert not out.exists()


@pytest.mark.parametrize("raw", [
    dict(RECOVERY_MIN, eps=-0.03125),
    dict(RECOVERY_MIN, eps=float("inf")),
    dict(RECOVERY_MIN, delta=0.0),
    dict(SWEEP_MIN, eps_list=[-0.01, -0.02]),
    dict(PROFILE_CFG, omega=1.5),
    dict(PROFILE_CFG, n_cells=128.5),
    dict(PROFILE_CFG, k=True),
    dict(SWEEP_MIN, reference_n_cells=767.5),
    dict(SWEEP_MIN, max_iters=100.5),
    dict(SWEEP_MIN, jumps=[[0.5, 1.5]]),
    dict(PROFILE_CFG, n_cells=1),
    dict(PROFILE_CFG, k=2, s=0.5, n_cells=4),  # 5 nodes; k = 2 needs 7
    dict(PROFILE_CFG, n_cells=3),  # no node inside |x| < T
    dict(SWEEP_MIN, n_cells=1),
    dict(SWEEP_MIN, n_cells=3, eps_list=[2.0 ** -7]),  # no node in the window
    dict(RECOVERY_MIN, n_cells=1),
    dict(RECOVERY_MIN, reference_n_cells=1),
    dict(RECOVERY_MIN, k=2, s=0.5, n_cells=4),
    # the 0.5 jump's window holds a node, the 0.25 one's none
    dict(SWEEP_MIN, kernel={"variant": "cos_sum", "c0": 2.5, "c1": 1.0},
         jumps=[[0.25, 1], [0.5, -1]], rule="subcritical", eps_list=[2.0 ** -7], n_cells=10,
         window_factor=1),
    dict(PROFILE_CFG, grad_tol="abc"),
    dict(SWEEP_MIN, grad_tol=-1),
    dict(RECOVERY_MIN, grad_tol=float("nan")),
    dict(PROFILE_CFG, max_iters=-3),
    dict(RECOVERY_MIN, jumps=[]),
    dict(PROFILE_CFG, kernel={"variant": "constant", "c": 2.5, "c1": 1.0}),
    dict(PROFILE_CFG, kernel={"variant": "cos_sum", "c0": 2.5, "c1": 1.0, "c": 1.0}),
    dict(SWEEP_MIN, T_profile=0.5),
    dict(PROFILE_CFG, T=10 ** 400),  # float() overflows: once a traceback, exit 1
    dict(PROFILE_CFG, n_cells=10 ** 400),
    # h = 6e199 at T = 1e200: its square overflows in the set-up
    dict(CURVE_CFG, T=1e200, T_list=[1e199, 1e200]),
    dict(PROFILE_CFG, omega=0),
    dict(PROFILE_CFG, omega=2),
    dict(CURVE_CFG, omega=-3),
], ids=["eps-negative", "eps-infinite", "delta-zero", "eps_list-negative", "omega-fraction",
        "n_cells-fraction", "k-boolean", "reference_n_cells-fraction", "max_iters-fraction",
        "jump-sign-fraction", "profile-one-cell",
        "profile-too-few-nodes", "profile-no-free-node", "sweep-one-cell", "sweep-empty-window",
        "recovery-one-cell", "recovery-reference-one-cell", "recovery-too-few-nodes",
        "sweep-one-window-empty", "grad_tol-string", "grad_tol-negative", "grad_tol-nan",
        "max_iters-negative", "recovery-no-jump", "kernel-constant-extra-key",
        "kernel-cos_sum-extra-key", "sweep-T_profile-below-1", "T-overflow",
        "n_cells-overflow", "curve-huge-spacing", "omega-zero", "omega-two",
        "curve-omega-minus-three"])
def test_cli_bad_numbers_exit_config_before_solving(tmp_path, monkeypatch, raw):
    def unused(tp, opts):
        raise AssertionError("a bad config must be rejected before any solve")

    monkeypatch.setattr(harness, "transition_energy", unused)
    cfg = write_config(tmp_path, "bad.json", raw)
    out = tmp_path / "x.csv"
    res = run_cli([raw["command"], str(cfg), "--out", str(out)])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert not out.exists()


@pytest.mark.parametrize("raw, field", [(PROFILE_CFG, "kernel"), (SWEEP_MIN, "jumps"),
                                        (SWEEP_MIN, "eps_list"), (RECOVERY_MIN, "eps")])
def test_a_missing_required_field_is_one_violation(tmp_path, monkeypatch, raw, field):
    def unused(tp, opts):
        raise AssertionError("a bad config must be rejected before any solve")

    monkeypatch.setattr(harness, "transition_energy", unused)
    cfg = write_config(tmp_path, "bad.json", {key: v for key, v in raw.items() if key != field})
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert err.value.violations == [f"{field}: missing field '{field}'"]
    out = tmp_path / "x.csv"
    assert run_cli([raw["command"], str(cfg), "--out", str(out)]).exit_code == EXIT_CONFIG
    assert not out.exists()


def test_sweep_eps_rules_are_checked_next_to_a_bad_grid_and_window_factor(tmp_path):
    raw = dict(SWEEP_MIN, n_cells=1, window_factor=0, eps_list=[0.5])
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, "bad.json", raw))
    assert [v.split(":")[0] for v in err.value.violations] == [
        "n_cells", "window_factor", "eps_list"]
    assert "jumps must be separated by at least" in err.value.violations[2]


@pytest.mark.parametrize("minimal", [SWEEP_MIN, RECOVERY_MIN], ids=["sweep", "recovery"])
def test_target_is_its_jumps(tmp_path, minimal):
    command, out = minimal["command"], tmp_path / "x.csv"
    # the first jump's sign fixes the value left of it: left_value is no key
    cfg = write_config(tmp_path, "left.json", dict(minimal, left_value=-1))
    res = run_cli([command, str(cfg), "--out", str(out)])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert f"unknown key 'left_value' for {command}" in res.output
    # no jump is one violation, the one-jump rule
    cfg = write_config(tmp_path, "none.json", dict(minimal, jumps=[]))
    res = run_cli([command, str(cfg), "--out", str(out)])
    assert res.exit_code == EXIT_CONFIG, res.output
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert err.value.violations == ["jumps: a target needs at least one jump"]
    assert not out.exists()


@pytest.mark.parametrize("raw, key", [
    (dict(PROFILE_CFG, T=True), "T"),
    (dict(SWEEP_MIN, eps_list=[0.03125, False]), "eps_list"),
    (dict(PROFILE_CFG, kernel={"variant": "constant", "c": True}), "kernel"),
], ids=["T", "eps_list-entry", "kernel-c"])
def test_cli_rejects_booleans(tmp_path, monkeypatch, raw, key):
    # true once read as the number 1: T = true ran at T = 1 and exited 0
    def unused(*args, **kwargs):
        raise AssertionError("a boolean must be rejected before any solve")

    monkeypatch.setattr(harness, "transition_energy", unused)
    cfg = write_config(tmp_path, "bad.json", raw)
    out = tmp_path / "x.csv"
    res = run_cli([raw["command"], str(cfg), "--out", str(out)])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert f"{key}: booleans are not accepted" in res.output
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_rejects_workers_below_one(tmp_path, monkeypatch, workers):
    # both once ran silently as one worker
    def unused(*args, **kwargs):
        raise AssertionError("a bad --workers must be rejected before the run")

    monkeypatch.setattr(cli, "load_config", unused)
    cfg = write_config(tmp_path, "c.json", CURVE_CFG)
    out = tmp_path / "x.csv"
    res = run_cli(["curve", str(cfg), "--out", str(out), "--workers", workers])
    assert res.exit_code == 2, res.output
    assert "--workers" in res.output
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    ([], "COMMAND"),
    (["bogus"], "bogus"),
    (["curve", "c.json", "--wor", "2"], "--wor"),  # an abbreviation is an unknown option
    (["selftest", "--out", "x.csv"], "--out"),
], ids=["no-command", "unknown-command", "abbreviated-option", "unknown-option"])
def test_cli_usage_errors_exit_2_naming_the_argument(monkeypatch, argv, named):
    def unused(*args, **kwargs):
        raise AssertionError("a usage error must be rejected before any config is read")

    monkeypatch.setattr(cli, "load_config", unused)
    res = run_cli(argv)
    assert res.exit_code == 2, res.output
    assert named in res.output


@pytest.mark.parametrize("window_factor", [0, -1.0, float("nan"), float("inf")],
                         ids=["zero", "negative", "nan", "inf"])
def test_cli_bad_window_factor_exits_config_before_sweeping(tmp_path, monkeypatch,
                                                            window_factor):
    # zero and negative ones once ended in a traceback from the clamp, and NaN
    # ran silently at tau/2, since min(tau/2, nan) is tau/2
    def unused(*args, **kwargs):
        raise AssertionError("a bad window_factor must be rejected before the sweep")

    monkeypatch.setattr(harness, "regime_sweep", unused)
    cfg = write_config(tmp_path, "bad.json", dict(SWEEP_MIN, window_factor=window_factor))
    out = tmp_path / "x.csv"
    res = run_cli(["sweep", str(cfg), "--out", str(out)])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert "window_factor: window_factor must be positive and finite" in res.output
    assert not out.exists()


@pytest.mark.parametrize("lam", [-5.0, 0, float("nan"), float("inf")],
                         ids=["negative", "zero", "nan", "inf"])
@pytest.mark.parametrize("command, raw", [
    ("profile", PROFILE_CFG),
    ("sweep", dict(SWEEP_MIN, rule="supercritical", eps_list=[0.0625], n_cells=256,
                   T_profile=1.0, reference_n_cells=128, grad_tol=1e-4)),
], ids=["profile-homogeneous", "sweep-supercritical"])
def test_cli_bad_lam_exits_config_where_no_problem_reads_it(tmp_path, monkeypatch, lam,
                                                            command, raw):
    # no lambda-mode problem reads lam here, and both once ran to exit 0
    def unused(*args, **kwargs):
        raise AssertionError("a bad lam must be rejected before any solve")

    monkeypatch.setattr(harness, "transition_energy", unused)
    monkeypatch.setattr(harness, "regime_sweep", unused)
    cfg = write_config(tmp_path, "bad.json", dict(raw, lam=lam))
    out = tmp_path / "x.csv"
    res = run_cli([command, str(cfg), "--out", str(out)])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert "lam: lam must be positive and finite" in res.output
    assert not out.exists()


def test_recovery_bad_lam_is_listed_once(tmp_path):
    # the eps check derives delta from lam, and once listed its fault again under eps
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, "bad.json", dict(RECOVERY_MIN, lam="abc")))
    assert err.value.violations == ["lam: must be a number, got 'abc'"]


@pytest.mark.parametrize("raw, violation", [
    (dict(PROFILE_CFG, T="2"), "T: must be a number, got '2'"),
    (dict(PROFILE_CFG, chi="0.2"), "chi: must be a number, got '0.2'"),
    (dict(PROFILE_CFG, grad_tol="1e-5"), "grad_tol: must be a number, got '1e-5'"),
    (dict(PROFILE_CFG, s="0.75"), "s: must be a number, got '0.75'"),
    (dict(PROFILE_CFG, n_cells="768"), "n_cells: must be an integer, got '768'"),
    (dict(PROFILE_CFG, kernel={"variant": "cos_sum", "c0": "2.5", "c1": 1.0}),
     "kernel: must be a number, got '2.5'"),
    (dict(CURVE_CFG, T_list=[2.0, "4"]), "T_list: must be a number, got '4'"),
    (dict(CURVE_CFG, T_list="2, 4"), "T_list: must be a list of numbers, got '2, 4'"),
    (dict(RECOVERY_MIN, eps="0.03125"), "eps: must be a number, got '0.03125'"),
    (dict(RECOVERY_MIN, T_profile="4"), "T_profile: must be a number, got '4'"),
    (dict(SWEEP_MIN, eps_list=["0.03125"]), "eps_list: must be a number, got '0.03125'"),
    (dict(SWEEP_MIN, jumps=[["0.5", 1]]), "jumps: must be a number, got '0.5'"),
    (dict(PROFILE_CFG, omega=True), "omega: must be an integer, got True"),
    (dict(PROFILE_CFG, omega=0), "omega must be +1 or -1, got 0"),
    (dict(PROFILE_CFG, omega=2), "omega must be +1 or -1, got 2"),
    (dict(CURVE_CFG, omega=-3), "omega must be +1 or -1, got -3"),
    (dict(PROFILE_CFG, mode=True), "profile mode must be one of"),
    (dict(SWEEP_MIN, rule=False), "sweep rule must be one of"),
    (dict(SWEEP_MIN, jumps=[[0.5, True]]), "jumps: must be an integer, got True"),
    (dict(RECOVERY_MIN, delta=True), "delta: booleans are not accepted"),
    (dict(PROFILE_CFG, kernel={"variant": True, "c": 1.0}), "kernel: must be an object"),
    # once reported by the eps_list rule as a window of negative half-width
    (dict(SWEEP_MIN, T_profile=-1), "T_profile: T_profile must be finite and at least 1"),
    # once reported by the transition problem as a NaN it cannot convert to an integer
    (dict(CURVE_CFG, T_list=[2.0, float("nan")]), "T_list: each T must be finite and at least 1"),
    (dict(CURVE_CFG, T_list=[2.0]), "curve needs T_list with at least two ascending values"),
    (dict(PROFILE_CFG, command="bogus"), "command must be one of"),
    ([PROFILE_CFG], "top-level JSON value must be an object"),
    # once Python's unpacking text
    (dict(SWEEP_MIN, jumps=[[0.5, 1, 3]]),
     "jumps: each jump must be a [location, sign] pair, got [0.5, 1, 3]"),
    (dict(SWEEP_MIN, jumps="ab"), "jumps: each jump must be a [location, sign] pair, got 'a'"),
    # once numpy's "Maximum allowed size exceeded", which named no cell count,
    # under the transition problem's or eps_list's label
    (dict(CURVE_CFG, n_cells=768, T=4.0, T_list=[2.0, 1e200]),
     "transition problem: T_list: at T = 1e+200, n_cells scales to 1.92e+202: n_cells must"
     " be below"),
    (dict(SWEEP_MIN, n_cells=1e30), "n_cells: n_cells must be below"),
    (dict(SWEEP_MIN, reference_n_cells=1e30),
     "reference problem (T = T_profile, n_cells = reference_n_cells): n_cells must be below"),
], ids=["T", "chi", "grad_tol", "s", "n_cells", "kernel-c0", "T_list-entry", "T_list-string",
        "eps", "T_profile", "eps_list-entry", "jump-location", "omega-boolean", "omega-zero",
        "omega-two", "curve-omega-minus-three", "mode-boolean",
        "rule-boolean", "jump-sign-boolean", "delta-boolean", "kernel-variant-boolean",
        "T_profile-negative", "T_list-nan", "T_list-one", "command", "non-object",
        "jump-triple", "jumps-string", "T_list-huge", "n_cells-huge", "reference_n_cells-huge"])
def test_a_mistyped_field_is_one_violation(tmp_path, raw, violation):
    # float() once read a number given as a string, so "T": "2" ran at T = 2
    # and exited 0, and "s": "0.75" failed with a comparison error of the
    # exponent check; a boolean was listed once by its own rule and again by
    # the field's
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, "bad.json", raw))
    assert len(err.value.violations) == 1
    assert err.value.violations[0].startswith(violation)


@pytest.mark.parametrize("raw", [PROFILE_CFG, CURVE_CFG, SWEEP_MIN, RECOVERY_MIN],
                         ids=["profile", "curve", "sweep", "recovery"])
def test_validation_builds_no_node_array(tmp_path, monkeypatch, raw):
    # the free-node check once built every node of each transition grid, so
    # a curve's T_list entry of 1e9 failed on a 1.4 TiB allocation; the
    # sweep's window check built the (0, 1) grid's nodes and a mask per eps
    def refuse(self):
        raise AssertionError("validation built a node array")

    monkeypatch.setattr(UniformGrid, "nodes", refuse)
    assert load_config(write_config(tmp_path, "cfg.json", raw)).command == raw["command"]


@pytest.mark.parametrize("raw, violation", [
    (dict(PROFILE_CFG, n_cells=1e12), "transition problem: n_cells = 1000000000000 needs about"),
    (dict(CURVE_CFG, T=4.0, n_cells=768, T_list=[2.0, 1e9]),
     "transition problem: T_list: at T = 1e+09, n_cells scales to 1.92e+11: n_cells ="
     " 192000000000 needs about"),
    (dict(PROFILE_CFG, n_cells=4096), "transition problem: n_cells = 4096 needs about 0.00195 GiB"
     " to run, more than the 0.00195 GiB of physical memory"),
    (dict(SWEEP_MIN, n_cells=4096), "n_cells: n_cells = 4096 needs about"),
    (dict(RECOVERY_MIN, reference_n_cells=4096),
     "reference problem (T = T_profile, n_cells = reference_n_cells): n_cells = 4096 needs about"),
], ids=["profile-1e12", "curve-T_list-1e9", "profile", "sweep", "recovery-reference"])
def test_a_grid_beyond_physical_memory_is_a_config_error(tmp_path, monkeypatch, raw, violation):
    # 512 bytes per node against a physical memory set to 2 MiB, so 4096
    # cells are over and the other grids under; these grids once failed on
    # their allocation, with a traceback (exit 1), or (the sweep) inside
    # load_config
    def refuse(self):
        raise AssertionError("validation built a node array")

    monkeypatch.setattr(energy, "_physical_memory", lambda: 2.0 ** 21)
    monkeypatch.setattr(UniformGrid, "nodes", refuse)
    out = tmp_path / "x.csv"
    res = run_cli([raw["command"], str(write_config(tmp_path, "big.json", raw)), "--out", str(out)])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert res.output.count("  - ") == 1 and f"  - {violation}" in res.output
    assert not out.exists()


@pytest.mark.parametrize("pages", ["no-sysconf", "no-such-name", -1])
def test_no_memory_bound_where_the_platform_reports_none(monkeypatch, pages):
    # os.sysconf is missing off Unix, raises ValueError for a name the
    # platform lacks and returns -1 for a value it cannot determine
    def sysconf(name):
        if pages == "no-such-name":
            raise ValueError(f"unrecognized configuration name {name!r}")
        return pages if name == "SC_PHYS_PAGES" else 4096

    if pages == "no-sysconf":
        monkeypatch.delattr(energy.os, "sysconf")
    else:
        monkeypatch.setattr(energy.os, "sysconf", sysconf)
    assert energy._physical_memory() == float("inf")


def test_integral_floats_read_as_integers(tmp_path):
    outs = []
    for name, raw in (("int", dict(PROFILE_CFG, omega=-1)),
                      ("float", dict(PROFILE_CFG, omega=-1.0, n_cells=128.0, k=0.0,
                                     max_iters=50000.0))):
        cfg = load_config(write_config(tmp_path, f"{name}.json", raw))
        assert all(type(cfg.raw[key]) is int for key in ("omega", "n_cells", "k", "max_iters"))
        run_experiment(cfg, tmp_path / f"{name}.csv")
        outs.append((tmp_path / f"{name}.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("raw, key", [
    (SWEEP_MIN, "reference_ncells"), (SWEEP_MIN, "armijo_c"), (SWEEP_MIN, "omega"),
    (PROFILE_CFG, "t_out_factor"),
], ids=["reference_ncells", "armijo_c", "omega", "t_out_factor"])
def test_load_config_rejects_unknown_keys(tmp_path, raw, key):
    path = write_config(tmp_path, "s.json", dict(raw, **{key: 1}))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.violations == [f"unknown key {key!r} for {raw['command']}"]


def test_schema_field_tables_name_every_accepted_key():
    text = (Path(__file__).resolve().parents[1] / "docs" / "schemas.md").read_text()
    tables = re.findall(r"^\| field \|.*\n\|[-|]+\|\n((?:\|.*\n)+)", text, re.M)
    documented = {name for table in tables for row in table.splitlines()
                  for name in re.findall(r"`(\w+)`", row.split("|")[1])}
    accepted = {key for command in harness._DEFAULTS
                for key in (*harness._DEFAULTS[command], *harness._NO_DEFAULT[command])}
    assert documented == accepted


@pytest.mark.parametrize("doc", ["README.md", "docs/schemas.md"])
def test_doc_example_configs_load(tmp_path, doc):
    text = (Path(__file__).resolve().parents[1] / doc).read_text()
    blocks = re.findall(r"```json\n(.*?)```", text, re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"{i}.json"
        path.write_text(block)
        load_config(path)


def test_shipped_example_configs_load():
    examples = sorted((Path(__file__).resolve().parents[1] / "docs" / "examples").glob("*.json"))
    assert examples
    for path in examples:
        load_config(path)


# ---------------------------------------------------------------------------
# reference solves: one ascending solve per mode, a descending jump its reflection

# a small recovery whose reference problems solve in a few milliseconds
RECOVERY_SMALL = dict(RECOVERY_MIN, T_profile=2.0, n_cells=512, reference_n_cells=192,
                      grad_tol=1e-4)


def empty_reference_table(monkeypatch):
    """Give the test a table of kept reference solves of its own, empty."""
    monkeypatch.setattr(harness, "_REFERENCES", {})


def count_solves(monkeypatch) -> list:
    """Record the problem of every transition solve the harness starts, from
    an empty table of kept reference solves."""
    solved = []
    empty_reference_table(monkeypatch)

    def counting(tp, opts, _solve=harness.transition_energy):
        solved.append(tp)
        return _solve(tp, opts)

    monkeypatch.setattr(harness, "transition_energy", counting)
    return solved


def small_recovery(tmp_path, **kw):
    return load_config(write_config(tmp_path, "r.json", dict(RECOVERY_SMALL, **kw)))


@pytest.mark.parametrize("chi", [0.0, 0.3])
@pytest.mark.parametrize("kernel", [{"variant": "cos_sum", "c0": 2.5, "c1": 1.0},
                                    {"variant": "cos_prod", "c0": 2.0, "c1": 0.7}],
                         ids=lambda kern: kern["variant"])
@pytest.mark.parametrize("mode", ["lambda", "supercritical", "homogeneous"])
@pytest.mark.parametrize("k, s", [(0, 0.75), (1, 0.5), (2, 0.5)])
def test_descending_reference_is_reflection(tmp_path, monkeypatch, kernel, mode, k, s, chi):
    # every kernel is even and the reference grid symmetric about 0, so the
    # reflection x -> -x maps the ascending solve onto the descending one,
    # whatever the tilt of the well: here the window solve of the energy with
    # the tails (+1, -1), started from the reflected ramp
    cfg = small_recovery(tmp_path, kernel=kernel, k=k, s=s, chi=chi, T_profile=4.0,
                         reference_n_cells=384, grad_tol=1e-6)
    tp = harness._reference_problem(cfg, mode)
    down = descending_energy(tp)
    ramp, free = _start(tp, down.grid)
    real = down.solve_window(ramp[::-1], free[::-1], cfg.opt_options(), minimize, "descending")
    solved = count_solves(monkeypatch)
    up = harness._reference(cfg, mode)
    assert solved == [tp]
    assert up.converged and real.converged
    assert up.energy == pytest.approx(real.energy, rel=1e-12, abs=0.0)
    np.testing.assert_allclose(up.profile.values[::-1], real.profile.values, rtol=0, atol=1e-12)
    assert up.iterations == real.iterations


@pytest.mark.parametrize("mode, modes_solved", [("lambda", ["lambda"]),
                                                ("supercritical", ["supercritical",
                                                                   "homogeneous"])])
def test_even_well_recovery_solves_ascending_references_only(tmp_path, monkeypatch,
                                                             mode, modes_solved):
    solved = count_solves(monkeypatch)
    run_experiment(small_recovery(tmp_path, mode=mode), tmp_path / "r.csv")
    assert [p.mode for p in solved] == modes_solved


@pytest.mark.parametrize("mode, modes_solved", [("lambda", ["lambda"]),
                                                ("supercritical", ["supercritical",
                                                                   "homogeneous"])])
def test_tilted_recovery_solves_one_reference_per_mode(tmp_path, monkeypatch, mode,
                                                       modes_solved):
    # a tilted well and a descending jump once took a second, descending solve
    solved = count_solves(monkeypatch)
    cfg = small_recovery(tmp_path, mode=mode, chi=0.4, jumps=[[0.3, 1], [0.7, -1]])
    run_experiment(cfg, tmp_path / "r.csv")
    assert [p.mode for p in solved] == modes_solved


def test_unconverged_reference_solves_and_warns_once(tmp_path, monkeypatch):
    cfg = small_recovery(tmp_path, max_iters=3)
    solved = count_solves(monkeypatch)
    with pytest.warns(RuntimeWarning, match="stopped on max_iters") as record:
        reference = harness._reference(cfg, "lambda")
    assert solved == [harness._reference_problem(cfg, "lambda")]
    assert len(record) == 1
    assert not reference.converged


def test_reference_profiles_are_read_only(tmp_path):
    values = harness._reference(small_recovery(tmp_path), "lambda").profile.values
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0] = 0.0


def test_cli_configs_of_one_invocation_share_their_reference_solves(tmp_path, monkeypatch):
    # 4 eps x {lambda, supercritical}: the lambda, supercritical and
    # homogeneous problems, each solved once
    paths = [str(write_config(tmp_path, f"{mode}{e}.json",
                              dict(RECOVERY_SMALL, mode=mode, eps=2.0 ** -e)))
             for mode in ("lambda", "supercritical") for e in (5, 6, 7, 8)]
    monkeypatch.chdir(tmp_path)
    solved = count_solves(monkeypatch)
    res = run_cli(["recovery", *paths])
    assert res.exit_code == 0, res.output
    assert sorted(p.mode for p in solved) == ["homogeneous", "lambda", "supercritical"]
    for path in paths:
        empty_reference_table(monkeypatch)
        alone = tmp_path / "alone.csv"
        res = run_cli(["recovery", path, "--out", str(alone)])
        assert res.exit_code == 0, res.output
        assert Path(path).with_suffix(".csv").read_bytes() == alone.read_bytes()


def test_cli_validates_every_config_before_running_any(tmp_path, monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("a bad config must be rejected before any solve")

    monkeypatch.setattr(harness, "transition_energy", unused)
    monkeypatch.chdir(tmp_path)
    good = str(write_config(tmp_path, "good.json", RECOVERY_SMALL))
    bad = str(write_config(tmp_path, "bad.json", dict(RECOVERY_SMALL, eps=-1.0)))
    res = run_cli(["recovery", good, bad])
    assert res.exit_code == EXIT_CONFIG
    assert f"{bad}: eps: eps must be positive and finite" in res.output
    assert good not in res.output
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("args, message", [
    (["a/r.json", "b/r.json"], "several configs would write r.csv"),
    (["a/r.json", "b/s.json", "--out", "x.csv"], "--out takes a single config"),
], ids=["one-stem", "out"])
def test_cli_several_configs_need_distinct_stems_and_no_out(tmp_path, monkeypatch, args,
                                                            message):
    monkeypatch.chdir(tmp_path)
    for path in args[:2]:
        (tmp_path / path).parent.mkdir(exist_ok=True)
        write_config(tmp_path, path, RECOVERY_SMALL)
    res = run_cli(["recovery", *args])
    assert res.exit_code == EXIT_CONFIG
    assert message in res.output
    assert not list(tmp_path.glob("*.csv"))


def test_unconverged_reference_is_not_kept(tmp_path, monkeypatch):
    configs = [small_recovery(tmp_path, max_iters=3, eps=eps) for eps in (2.0 ** -5, 2.0 ** -6)]
    solved = count_solves(monkeypatch)
    with pytest.warns(RuntimeWarning, match="stopped on max_iters") as record:
        for i, cfg in enumerate(configs):
            run_experiment(cfg, tmp_path / f"r{i}.csv")
    assert [p.mode for p in solved] == ["lambda", "lambda"]
    assert len(record) == 2
    assert harness._REFERENCES == {}


def test_reference_table_keeps_the_newest_up_to_its_cap(tmp_path, monkeypatch):
    cap = harness._REFERENCE_CAP
    empty_reference_table(monkeypatch)
    converged = harness.MinimizeResult(None, 1.0, 0, 0.0, True, "grad_tol", 1, 1, 0)
    solved = []

    def stub(tp, opts):
        solved.append(tp.n_cells)
        return converged

    monkeypatch.setattr(harness, "transition_energy", stub)
    sizes = [192 + 2 * i for i in range(cap + 3)]
    configs = [small_recovery(tmp_path, reference_n_cells=n) for n in sizes]
    for cfg in configs + configs[3:]:  # the newest cap are asked again
        assert harness._reference(cfg, "lambda") is converged
    assert len(harness._REFERENCES) == cap
    assert solved == sizes
