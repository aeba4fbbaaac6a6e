"""Experiment orchestration: JSON configs in, CSV results out.

A config's omitted keys take their command's defaults from one table and
unknown keys are rejected; the preconditions of the operations the run calls
are checked up front, every violation collected into one error, once each
numeric field holds a number (not a string such as "2").  Each runner
returns one record per CSV row, whose columns ``CSV_SCHEMAS`` orders.
Each mode gets one ascending reference solve behind ``predicted`` and the
pasted recovery profiles; a descending jump uses its reflection x -> -x.
A converged reference solve is kept in a bounded dict (``_REFERENCES``) for
every later config of the process, such as the other configs of one
``fraclab`` invocation; an unconverged one is not kept.  Results are written
atomically (temp file + rename), with the mode a plain ``open()`` would give
them.  Failures map to exit codes: 2 config, 3 numerical, 4 I/O.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from .energy import (_KERNEL_KINDS, DoubleWell, EnergyParams, KernelSpec, _check_nodes, _phase,
                     eval_F)
from .experiments import (_check_recovery_geometry, _check_sweep_eps, _check_sweep_geometry,
                          _paste_scale, build_recovery, delta_rule, regime_sweep)
from .grid import BVTarget, make_bv_target, make_grid
from .optimize import MinimizeOptions, MinimizeResult, NumericalFailure
from .profiles import (
    _MODES,
    TransitionProblem,
    _curve_problems,
    predicted_limit,
    transition_energy,
    transition_energy_curve,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "run_experiment",
    "emit_csv",
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_NUMERICAL",
    "EXIT_IO",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

CSV_SCHEMAS = {
    "profile": ["mode", "omega", "T", "T_out", "n_cells", "m_hat", "iterations",
                "final_grad_norm", "converged"],
    "curve": ["T", "T_out", "n_cells", "m_hat", "iterations", "converged"],
    "sweep": ["eps", "delta", "ratio", "min_energy", "predicted", "rel_gap"],
    "recovery": ["mode", "eps", "delta", "n_jumps", "energy", "predicted", "rel_gap"],
}

# Every key a config may set: "command", "kernel", the defaults of its
# command (merged into the config once) and the keys that have no default.
_COMMON = dict(chi=0.0, k=0, s=0.75, grad_tol=1e-6, max_iters=MinimizeOptions.max_iters)
_PROBLEM = dict(_COMMON, mode="homogeneous", lam=1.0, omega=1, T=4.0, n_cells=768)
_TARGET = dict(_COMMON, lam=1.0, T_profile=4.0, n_cells=2048, reference_n_cells=768)
_DEFAULTS = {"profile": _PROBLEM, "curve": _PROBLEM,
             "sweep": dict(_TARGET, window_factor=2.0), "recovery": _TARGET}
_NO_DEFAULT = {"profile": (), "curve": ("T_list",),
               "sweep": ("jumps", "rule", "eps_list"),
               "recovery": ("jumps", "mode", "eps", "delta")}

# a sweep's regime rule -> the kernel mode of its prediction (and of a recovery)
_RULE_MODE = {"critical": "lambda", "supercritical": "supercritical", "subcritical": "subcritical"}
_MODE_RULE = {mode: rule for rule, mode in _RULE_MODE.items()}


class ConfigError(ValueError):
    """Invalid experiment configuration; ``violations`` lists every problem."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid config:\n" + "\n".join(f"  - {v}" for v in self.violations))


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    kernel: KernelSpec
    well: DoubleWell
    k: int
    s: float
    raw: dict = field(repr=False)  # the config, defaults filled in and numbers read

    def opt_options(self) -> MinimizeOptions:
        return MinimizeOptions(grad_tol=self.raw["grad_tol"], max_iters=self.raw["max_iters"])


def _build_kernel(entry) -> KernelSpec:
    if not isinstance(entry, dict) or entry.get("variant") not in _KERNEL_KINDS:
        raise ValueError(f"must be an object whose variant is one of {_KERNEL_KINDS}")
    coefs = ("c",) if entry["variant"] == "constant" else ("c0", "c1")
    unknown = sorted(set(entry) - {"variant", *coefs})
    if unknown:
        raise ValueError(f"unknown keys {unknown} for the {entry['variant']} kernel")
    return getattr(KernelSpec, entry["variant"])(*(_real(entry[c]) for c in coefs))


def _integer(value) -> int:
    """An integral JSON number as an int; a fraction is rejected, not truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"must be an integer, got {value!r}")


def _real(value) -> float:
    """A JSON number as a float; a string such as "2" is rejected, not parsed,
    and a boolean, which Python reads as 1 or 0, too."""
    if isinstance(value, bool):
        raise ValueError("booleans are not accepted")
    if isinstance(value, (int, float)):
        return float(value)
    raise ValueError(f"must be a number, got {value!r}")


def _reals(value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"must be a list of numbers, got {value!r}")
    return [_real(v) for v in value]


def _jump(pair) -> tuple:
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ValueError(f"each jump must be a [location, sign] pair, got {pair!r}")
    return _real(pair[0]), _integer(pair[1])


# how each numeric key is read: an integral number (768.0 reads as 768), a
# number, a list of numbers, or [location, sign] pairs
_NUMERIC_KEYS = {
    **dict.fromkeys(("k", "omega", "n_cells", "reference_n_cells", "max_iters"), _integer),
    **dict.fromkeys(("chi", "s", "grad_tol", "lam", "T", "T_profile", "window_factor", "eps",
                     "delta"), _real),
    "T_list": _reals, "eps_list": _reals,
    "jumps": lambda jumps: [_jump(pair) for pair in jumps],
}


def _positive(value: float, name: str) -> float:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _clamp_length(value: float, name: str) -> float:
    """A transition problem's T: its grid spans (-3T, 3T)."""
    if not (math.isfinite(value) and value >= 1.0):
        raise ValueError(f"{name} must be finite and at least 1, got {value}")
    return value


def _check(violations: list, label: str, fn):
    """fn(), or None with a violation recorded if fn rejects its input."""
    try:
        return fn()
    except KeyError as exc:
        violations.append(f"{label}: missing field {exc}")
    except (ValueError, TypeError, OverflowError) as exc:  # float() of a 400-digit integer
        violations.append(f"{label}: {exc}")


def _validate(raw: dict) -> ExperimentConfig:
    violations = []
    command = raw.get("command")
    if command in tuple(_DEFAULTS):
        known = {"command", "kernel", *_DEFAULTS[command], *_NO_DEFAULT[command]}
        violations += [f"unknown key {key!r} for {command}" for key in raw if key not in known]
        raw = {**_DEFAULTS[command], **raw}
    else:
        violations.append(f"command must be one of {tuple(_DEFAULTS)}, got {command!r}")
        raw = {**_COMMON, **raw}
    faults = len(violations)
    raw.update((key, _check(violations, key, lambda: parse(raw[key])))
               for key, parse in _NUMERIC_KEYS.items() if key in raw)
    if len(violations) > faults:  # the value rules would only restate a field's type
        raise ConfigError(violations)

    kernel = _check(violations, "kernel", lambda: _build_kernel(raw["kernel"]))
    well = _check(violations, "well", lambda: DoubleWell(raw["chi"]))
    _check(violations, "exponents", lambda: EnergyParams(raw["k"], raw["s"], 1.0, 1.0))
    lam = _check(violations, "lam", lambda: _positive(raw["lam"], "lam")) if "lam" in raw else None
    if command in ("profile", "curve") and raw["omega"] not in (-1, 1):  # a profile row's label
        violations.append(f"omega must be +1 or -1, got {raw['omega']}")
    T_profile = None if "T_profile" not in raw else _check(
        violations, "T_profile", lambda: _clamp_length(raw["T_profile"], "T_profile"))

    if command == "curve":
        if len(raw.get("T_list", ())) < 2:
            violations.append("curve needs T_list with at least two ascending values")
        _check(violations, "T_list",
               lambda: [_clamp_length(T, "each T") for T in raw.get("T_list", ())])
    target = grid = None
    if command in ("sweep", "recovery"):
        target = _check(violations, "jumps", lambda: make_bv_target(raw["jumps"]))
        grid = _check(violations, "n_cells", lambda: make_grid(0.0, 1.0, raw["n_cells"]))
    if command in _DEFAULTS:
        key, names = {"sweep": ("rule", _RULE_MODE),
                      "recovery": ("mode", _MODE_RULE)}.get(command, ("mode", _MODES))
        if raw.get(key) not in tuple(names):
            violations.append(f"{command} {key} must be one of {tuple(names)},"
                              f" got {raw.get(key)!r}")
        elif (command == "recovery" and not any(v is None for v in (target, T_profile))
              and (lam is not None or "delta" in raw)):
            # without delta, the regime rule reads lam, whose fault is listed already
            _check(violations, "eps", lambda: _check_recovery_geometry(
                target, _positive(raw["eps"], "eps"), _delta(raw), T_profile))
    if command == "sweep":
        factor = _check(violations, "window_factor",
                        lambda: _positive(raw["window_factor"], "window_factor"))
        # the eps-only rules need the jumps and T_profile alone, the window rule all four
        eps_list = None if any(v is None for v in (target, T_profile)) else _check(
            violations, "eps_list", lambda: _check_sweep_eps(
                target, [_positive(eps, "eps") for eps in raw["eps_list"]], T_profile))
        if not any(v is None for v in (eps_list, grid, factor)):
            _check(violations, "eps_list", lambda: _check_sweep_geometry(
                target, eps_list, T_profile, factor, grid))

    if not violations:
        cfg = ExperimentConfig(command=command, kernel=kernel, well=well,
                               k=raw["k"], s=raw["s"], raw=raw)
        # the solver options, grids and transition problems of the run, checked before any solve
        _check(violations, "grad_tol, max_iters", cfg.opt_options)
        if command in ("sweep", "recovery"):
            _check(violations, "n_cells", lambda: _check_nodes(grid, cfg.k))
        if command == "sweep":  # each eps's kernel scale on (0, 1)
            _check(violations, "eps_list", lambda: [_phase([0.0, 1.0], delta_rule(
                raw["rule"], eps, raw["lam"])) for eps in raw["eps_list"]])
        label = ("transition problem" if command in ("profile", "curve")
                 else "reference problem (T = T_profile, n_cells = reference_n_cells)")
        _check(violations, label, {
            "profile": lambda: _transition_problem(cfg),
            "curve": lambda: _curve_problems(_transition_problem(cfg), raw["T_list"]),
            "sweep": lambda: _reference_problem(cfg, _RULE_MODE[raw["rule"]]),
            "recovery": lambda: _reference_problem(cfg, raw["mode"]),
        }[command])
        if command == "recovery" and not violations:
            _check(violations, "reference_n_cells", lambda: _check_reference_spacing(raw))
    if violations:
        raise ConfigError(violations)
    return cfg


def _delta(raw: dict) -> float:
    """A recovery's delta: as given, or by the regime rule of its mode."""
    if "delta" in raw:
        return _positive(raw["delta"], "delta")
    return delta_rule(_MODE_RULE[raw["mode"]], raw["eps"], raw["lam"])


def _check_reference_spacing(raw: dict) -> None:
    """Raises ValueError if a k >= 1 recovery pastes its reference, on
    (-3 T_profile, 3 T_profile), at a finer spacing than the reference's
    own: ``build_recovery`` interpolates linearly, and D_k u would measure
    the slope kink at every reference node instead of the energy."""
    T, n, ref = raw["T_profile"], raw["n_cells"], raw["reference_n_cells"]
    scale = _paste_scale(raw["mode"], raw["eps"], _delta(raw), raw["lam"])
    if raw["k"] >= 1 and 6.0 * T / ref > scale / n:
        raise ValueError(
            f"the reference spacing 6 T_profile / reference_n_cells = {6.0 * T / ref:.6g} exceeds"
            f" the pasted spacing {scale / n:.6g} (lam/delta in lambda mode, else 1/eps, over"
            f" n_cells), so a k = {raw['k']} energy would measure the paste's kinks:"
            f" reference_n_cells must be at least {math.ceil(6.0 * T * n / scale)}")


def _transition_problem(cfg: ExperimentConfig, **overrides) -> TransitionProblem:
    raw = {**cfg.raw, **overrides}
    return TransitionProblem(
        kernel=cfg.kernel, mode=raw["mode"], lam=raw["lam"], T=raw["T"],
        n_cells=raw["n_cells"], well=cfg.well, k=cfg.k, s=cfg.s,
    )


def _reference_problem(cfg: ExperimentConfig, mode: str) -> TransitionProblem:
    """Behind ``predicted``: T = T_profile, reference_n_cells."""
    return _transition_problem(cfg, mode=mode, T=cfg.raw["T_profile"],
                               n_cells=cfg.raw["reference_n_cells"])


_REFERENCES: dict = {}  # (problem, opts) -> converged reference solve, oldest first
_REFERENCE_CAP = 16  # main thread only: a curve's pool threads ask for no reference


def _reference(cfg: ExperimentConfig, mode: str) -> MinimizeResult:
    """The ascending reference solve of ``mode``; a descending jump is its
    reflection.  A converged solve is kept for every later config of the
    process (the least recently used of ``_REFERENCE_CAP`` dropped); an
    unconverged one is solved again, and warns, each time."""
    key = (_reference_problem(cfg, mode), cfg.opt_options())
    res = _REFERENCES.pop(key, None) or transition_energy(*key)
    if res.converged:
        _REFERENCES[key] = res
        if len(_REFERENCES) > _REFERENCE_CAP:
            del _REFERENCES[next(iter(_REFERENCES))]
    return res


def _predicted(cfg: ExperimentConfig, target: BVTarget, mode: str,
               reference: MinimizeResult | None = None) -> float:
    """Sharp-interface limit for ``target``: m-hat from the lambda-mode
    ``reference`` (solved if not given), else from the homogeneous one."""
    if mode != "lambda":
        reference = _reference(cfg, "homogeneous")
    elif reference is None:
        reference = _reference(cfg, mode)
    return predicted_limit(cfg.kernel, mode, cfg.k, cfg.s, len(target.jump_locations),
                           reference.energy)


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate a JSON experiment config."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"])
    if not isinstance(raw, dict):
        raise ConfigError(["top-level JSON value must be an object"])
    return _validate(raw)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NumericalFailure(f"refusing to emit non-finite value {value}")
        return f"{value:.17g}"
    return str(value)


def emit_csv(rows, schema, path) -> None:
    """Write header + rows atomically with 17-significant-digit floats."""
    lines = [",".join(schema)]
    for row in rows:
        if len(row) != len(schema):
            raise ValueError(f"row {row!r} does not match schema {schema}")
        lines.append(",".join(_fmt(v) for v in row))
    payload = "\n".join(lines) + "\n"
    path = Path(path)
    # named by process and thread, so a clash is a stale file of a dead
    # process; created with O_EXCL and mode 0666, so the umask applies
    tmp = path.parent / f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        try:
            fd = os.open(tmp, flags, 0o666)
        except FileExistsError:
            os.unlink(tmp)
            fd = os.open(tmp, flags, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _solve_record(tp: TransitionProblem, res) -> dict:
    return {"mode": tp.mode, "T": tp.T, "T_out": tp.T_out,
            "n_cells": tp.n_cells, "m_hat": res.energy, "iterations": res.iterations,
            "final_grad_norm": res.final_grad_norm, "converged": res.converged}


def _run_profile(cfg: ExperimentConfig, workers: int) -> list[dict]:
    tp = _transition_problem(cfg)
    return [dict(_solve_record(tp, transition_energy(tp, cfg.opt_options())),
                 omega=cfg.raw["omega"])]


def _run_curve(cfg: ExperimentConfig, workers: int) -> list[dict]:
    tp, T_list = _transition_problem(cfg), cfg.raw["T_list"]
    results = transition_energy_curve(tp, T_list, cfg.opt_options(), workers=workers)
    return [_solve_record(tp_T, res) for tp_T, res in zip(_curve_problems(tp, T_list), results)]


def _run_sweep(cfg: ExperimentConfig, workers: int) -> list[dict]:
    raw = cfg.raw
    target = make_bv_target(raw["jumps"])
    predicted = _predicted(cfg, target, _RULE_MODE[raw["rule"]])
    rule, eps_list, lam = raw["rule"], raw["eps_list"], raw["lam"]
    results = regime_sweep(
        cfg.kernel, target, rule, eps_list, k=cfg.k, s=cfg.s, well=cfg.well,
        n_cells=raw["n_cells"], T_profile=raw["T_profile"],
        window_factor=raw["window_factor"], lam=lam, opts=cfg.opt_options(),
    )
    deltas = [delta_rule(rule, eps, lam) for eps in eps_list]
    return [{"eps": eps, "delta": delta, "ratio": delta / eps, "min_energy": res.energy,
             "predicted": predicted} for eps, delta, res in zip(eps_list, deltas, results)]


def _run_recovery(cfg: ExperimentConfig, workers: int) -> list[dict]:
    raw = cfg.raw
    target = make_bv_target(raw["jumps"])
    mode, eps, delta = raw["mode"], raw["eps"], _delta(raw)
    reference = _reference(cfg, mode)
    predicted = _predicted(cfg, target, mode, reference)
    rec = build_recovery(target, reference.profile, eps, delta, mode,
                         make_grid(0.0, 1.0, raw["n_cells"]),
                         raw["T_profile"], lam=raw["lam"],
                         diag_shift=cfg.kernel.diag_argmin())
    energy = eval_F(rec, EnergyParams(cfg.k, cfg.s, eps, delta), cfg.well, cfg.kernel)
    return [{"mode": mode, "eps": eps, "delta": delta, "n_jumps": len(target.jump_locations),
             "energy": energy, "predicted": predicted}]


_RUNNERS = {"profile": _run_profile, "curve": _run_curve, "sweep": _run_sweep,
            "recovery": _run_recovery}


def run_experiment(cfg: ExperimentConfig, out_path, workers: int = 1) -> None:
    """Dispatch a validated config and write its CSV atomically; each runner
    returns one record (column -> value) per row."""
    schema = CSV_SCHEMAS[cfg.command]
    records = _RUNNERS[cfg.command](cfg, workers)
    for rec in records:
        if "predicted" in rec:
            energy = rec["min_energy"] if cfg.command == "sweep" else rec["energy"]
            rec["rel_gap"] = (energy - rec["predicted"]) / rec["predicted"]
    emit_csv([[rec[col] for col in schema] for rec in records], schema, out_path)

