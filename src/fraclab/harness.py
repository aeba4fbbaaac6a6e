"""Experiment orchestration: JSON configs in, CSV results out.

A config's omitted keys take their command's defaults from one table and
unknown keys are rejected; the preconditions of the operations the run calls
are checked up front, every violation collected into one error.  Each runner
returns one record per CSV row, whose columns ``CSV_SCHEMAS`` orders.
Each mode gets one ascending reference solve behind ``predicted`` and the
pasted recovery profiles; a descending jump uses its reflection x -> -x.
Results are written atomically (temp file + rename).  Failures map to exit
codes: 2 config, 3 numerical, 4 I/O.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .energy import (
    DiscreteEnergy,
    DoubleWell,
    EnergyParams,
    KernelSpec,
    _PairForm,
    _check_nodes,
    _pair_weights,
    eval_F,
)
from .experiments import (_check_recovery_geometry, _check_sweep_eps, _check_sweep_geometry,
                          build_recovery, delta_rule, regime_sweep)
from .grid import BVTarget, GridProfile, make_bv_target, make_grid, resample_scaled
from .optimize import MinimizeOptions, MinimizeResult, NumericalFailure, check_gradient
from .profiles import (
    TransitionProblem,
    _curve_problems,
    predicted_limit,
    scaling_exponent,
    transition_energy,
    transition_energy_curve,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "run_experiment",
    "emit_csv",
    "selftest",
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
_PROBLEM = dict(_COMMON, mode="homogeneous", lam=1.0, omega=1, T=4.0, t_out_factor=3.0,
                n_cells=768)
_TARGET = dict(_COMMON, lam=1.0, T_profile=4.0, n_cells=2048, reference_n_cells=768)
_DEFAULTS = {"profile": _PROBLEM, "curve": _PROBLEM,
             "sweep": dict(_TARGET, window_factor=2.0), "recovery": _TARGET}
_NO_DEFAULT = {"profile": (), "curve": ("T_list",),
               "sweep": ("jumps", "left_value", "rule", "eps_list"),
               "recovery": ("jumps", "left_value", "mode", "eps", "delta")}
# keys whose value must be an integral number; 768.0 reads as 768
_INTEGER_KEYS = ("k", "omega", "n_cells", "reference_n_cells", "max_iters", "left_value")

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
    raw: dict = field(repr=False)  # the config with every default filled in

    def opt_options(self) -> MinimizeOptions:
        return MinimizeOptions(grad_tol=float(self.raw["grad_tol"]),
                               max_iters=self.raw["max_iters"])


def _build_kernel(entry) -> KernelSpec:
    variants = ("constant", "cos_sum", "cos_prod")
    if not isinstance(entry, dict) or entry.get("variant") not in variants:
        raise ValueError(f"must be an object whose variant is one of {variants}")
    if entry["variant"] == "constant":
        return KernelSpec.constant(entry["c"])
    return getattr(KernelSpec, entry["variant"])(entry["c0"], entry["c1"])


def _integer(value) -> int:
    """An integral JSON number as an int; a fraction is rejected, not truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"must be an integer, got {value!r}")


def _holds_boolean(value) -> bool:
    """Whether a JSON value is or holds a boolean, which Python reads as 1 or 0."""
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, bool) or isinstance(value, list) and any(map(_holds_boolean, value))


def _positive(value, name: str) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _check(violations: list, label: str, fn):
    """fn(), or None with a violation recorded if fn rejects its input."""
    try:
        return fn()
    except KeyError as exc:
        violations.append(f"{label}: missing field {exc}")
    except (ValueError, TypeError) as exc:
        violations.append(f"{label}: {exc}")


def _validate(raw: dict) -> ExperimentConfig:
    # no config field takes a boolean
    violations = [f"{key}: booleans are not accepted" for key in raw if _holds_boolean(raw[key])]
    command = raw.get("command")
    if command in tuple(_DEFAULTS):
        known = {"command", "kernel", *_DEFAULTS[command], *_NO_DEFAULT[command]}
        violations += [f"unknown key {key!r} for {command}" for key in raw if key not in known]
        raw = {**_DEFAULTS[command], **raw}
    else:
        violations.append(f"command must be one of {tuple(_DEFAULTS)}, got {command!r}")
        raw = {**_COMMON, **raw}
    integers = {key: _check(violations, key, lambda: _integer(raw[key]))
                for key in _INTEGER_KEYS if raw.get(key) is not None}
    raw.update((key, value) for key, value in integers.items() if value is not None)

    kernel = _check(violations, "kernel", lambda: _build_kernel(raw["kernel"]))
    well = _check(violations, "well", lambda: DoubleWell(float(raw["chi"])))
    _check(violations, "exponents", lambda: EnergyParams(raw["k"], raw["s"], 1.0, 1.0))

    if command == "curve" and not (isinstance(raw.get("T_list"), list) and len(raw["T_list"]) > 1):
        violations.append("curve needs T_list with at least two ascending values")
    if command in ("sweep", "recovery"):
        target = _check(violations, "jumps", lambda: _target(raw))
        grid = _check(violations, "n_cells", lambda: make_grid(0.0, 1.0, raw["n_cells"]))
        key, names = ("rule", _RULE_MODE) if command == "sweep" else ("mode", _MODE_RULE)
        if raw.get(key) not in tuple(names):
            violations.append(f"{command} {key} must be one of {tuple(names)},"
                              f" got {raw.get(key)!r}")
        elif target is not None and command == "recovery":
            _check(violations, "eps", lambda: _check_recovery_geometry(
                target, _positive(raw["eps"], "eps"), _delta(raw), float(raw["T_profile"])))
        if command == "sweep":
            factor = _check(violations, "window_factor",
                            lambda: _positive(raw["window_factor"], "window_factor"))
            # the eps-only rules need the jumps alone, the window rule all three
            eps_list = None if target is None else _check(violations, "eps_list", lambda: (
                _check_sweep_eps(target, [_positive(eps, "eps") for eps in raw["eps_list"]],
                                 float(raw["T_profile"]))))
            if not any(v is None for v in (eps_list, grid, factor)):
                _check(violations, "eps_list", lambda: _check_sweep_geometry(
                    target, eps_list, float(raw["T_profile"]), factor, grid.nodes()))

    if not violations:
        cfg = ExperimentConfig(command=command, kernel=kernel, well=well,
                               k=raw["k"], s=float(raw["s"]), raw=raw)
        # the solver options, grids and transition problems of the run, checked before any solve
        _check(violations, "grad_tol, max_iters", cfg.opt_options)
        if command in ("sweep", "recovery"):
            _check(violations, "n_cells", lambda: _check_nodes(grid, cfg.k))
        _check(violations, "transition problem", {
            "profile": lambda: _transition_problem(cfg),
            "curve": lambda: _curve_problems(_transition_problem(cfg), raw["T_list"]),
            "sweep": lambda: _reference_problem(cfg, _RULE_MODE[raw["rule"]]),
            "recovery": lambda: _reference_problem(cfg, raw["mode"]),
        }[command])
    if violations:
        raise ConfigError(violations)
    return cfg


def _target(raw: dict) -> BVTarget:
    jumps = [(float(t), _integer(sg)) for t, sg in raw["jumps"]]
    return make_bv_target(jumps, raw.get("left_value"))


def _delta(raw: dict) -> float:
    """A recovery's delta: as given, or by the regime rule of its mode."""
    if "delta" in raw:
        return _positive(raw["delta"], "delta")
    return delta_rule(_MODE_RULE[raw["mode"]], float(raw["eps"]), float(raw["lam"]))


def _transition_problem(cfg: ExperimentConfig, **overrides) -> TransitionProblem:
    raw = {**cfg.raw, **overrides}
    T = float(raw["T"])
    return TransitionProblem(
        kernel=cfg.kernel, mode=raw["mode"], lam=float(raw["lam"]), omega=raw["omega"],
        T=T, T_out=float(raw["t_out_factor"]) * T, n_cells=raw["n_cells"],
        well=cfg.well, k=cfg.k, s=cfg.s,
    )


def _reference_problem(cfg: ExperimentConfig, mode: str) -> TransitionProblem:
    """Behind ``predicted``: omega = +1, T = T_profile, T_out = 3 T, reference_n_cells."""
    return _transition_problem(cfg, mode=mode, omega=1, T=cfg.raw["T_profile"], t_out_factor=3.0,
                               n_cells=cfg.raw["reference_n_cells"])


def _reference(cfg: ExperimentConfig, mode: str) -> MinimizeResult:
    """The ascending reference solve of ``mode``; a descending jump is its reflection."""
    return transition_energy(_reference_problem(cfg, mode), cfg.opt_options())


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
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
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
    return {"mode": tp.mode, "omega": tp.omega, "T": tp.T, "T_out": tp.T_out,
            "n_cells": tp.n_cells, "m_hat": res.energy, "iterations": res.iterations,
            "final_grad_norm": res.final_grad_norm, "converged": res.converged}


def _run_profile(cfg: ExperimentConfig, workers: int) -> list[dict]:
    tp = _transition_problem(cfg)
    return [_solve_record(tp, transition_energy(tp, cfg.opt_options()))]


def _run_curve(cfg: ExperimentConfig, workers: int) -> list[dict]:
    tp, T_list = _transition_problem(cfg), cfg.raw["T_list"]
    points = transition_energy_curve(tp, T_list, cfg.opt_options(), workers=workers)
    return [_solve_record(tp_T, p.result) for tp_T, p in zip(_curve_problems(tp, T_list), points)]


def _run_sweep(cfg: ExperimentConfig, workers: int) -> list[dict]:
    raw = cfg.raw
    target = _target(raw)
    predicted = _predicted(cfg, target, _RULE_MODE[raw["rule"]])
    points = regime_sweep(
        cfg.kernel, target, raw["rule"], raw["eps_list"], k=cfg.k, s=cfg.s, well=cfg.well,
        n_cells=raw["n_cells"], T_profile=float(raw["T_profile"]),
        window_factor=float(raw["window_factor"]), lam=float(raw["lam"]), opts=cfg.opt_options(),
    )
    return [{"eps": p.eps, "delta": p.delta, "ratio": p.delta / p.eps,
             "min_energy": p.min_energy, "predicted": predicted} for p in points]


def _run_recovery(cfg: ExperimentConfig, workers: int) -> list[dict]:
    raw = cfg.raw
    target = _target(raw)
    mode, eps, delta = raw["mode"], float(raw["eps"]), _delta(raw)
    reference = _reference(cfg, mode)
    predicted = _predicted(cfg, target, mode, reference)
    rec = build_recovery(target, reference.profile, eps, delta, mode,
                         make_grid(0.0, 1.0, raw["n_cells"]),
                         float(raw["T_profile"]), lam=float(raw["lam"]),
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


# ---------------------------------------------------------------------------
# selftest


def _selftest_checks(inject_gradient_bug: bool):
    rng = np.random.default_rng(20240811)
    well = DoubleWell(0.2)
    kern = KernelSpec.cos_sum(2.5, 1.0)
    checks = []

    # gradient vs central differences, all supported orders
    for k, s in ((0, 0.75), (1, 0.5), (2, 0.3)):
        grid = make_grid(-4.0, 4.0, 96)
        model = DiscreteEnergy(grid, EnergyParams(k, s, 1.0, 1.0), well, kern)
        vals = np.tanh(grid.nodes()) + 0.1 * rng.standard_normal(grid.n_nodes)
        p = GridProfile(grid, vals)
        grad_fn = model.gradient
        if inject_gradient_bug:
            grad_fn = lambda v, _g=model.gradient: 2.0 * _g(v)  # noqa: E731
        err = check_gradient(model.energy, grad_fn, p)
        checks.append((f"gradient k={k} s={s}", err <= 1e-6, f"max rel err {err:.3e}"))

    # exact constant-kernel scaling identity
    c = 16.0
    k, s = 0, 0.75
    lam = c ** scaling_exponent(k, s)
    rescaled = EnergyParams(k, s, 1.0, 1.0)
    grid = make_grid(-6.0, 6.0, 256)
    v = GridProfile(grid, np.tanh(grid.nodes()))
    lhs = DiscreteEnergy(grid, rescaled, well, KernelSpec.constant(c)).energy(v.values)
    small = resample_scaled(v, lam)
    rhs = lam * DiscreteEnergy(small.grid, rescaled, well).energy(small.values)
    rel = abs(lhs - rhs) / lhs
    checks.append(("scaling identity", rel <= 1e-12, f"rel err {rel:.3e}"))

    # monotone T-curve, homogeneous kernel, small N
    tp = TransitionProblem(kernel=KernelSpec.constant(1.0), mode="homogeneous", omega=1,
                           T=2.0, T_out=6.0, n_cells=192, well=DoubleWell(0.0), k=0, s=0.75)
    pts = transition_energy_curve(tp, [2.0, 4.0], MinimizeOptions(grad_tol=1e-5))
    mono = pts[1].m_hat <= pts[0].m_hat + 1e-6
    checks.append(("T-monotonicity", mono,
                   f"m({pts[0].T})={pts[0].m_hat:.6f} m({pts[1].T})={pts[1].m_hat:.6f}"))

    # jump-direction symmetry for a tilted well, by the reflection x -> -x
    tp_sym = TransitionProblem(kernel=kern, mode="lambda", lam=1.0, omega=1, T=2.0,
                               T_out=6.0, n_cells=192, well=well, k=0, s=0.75)
    opts = MinimizeOptions(grad_tol=1e-5)
    m_up = transition_energy(tp_sym, opts).energy
    m_dn = transition_energy(replace(tp_sym, omega=-1), opts).energy
    gap = abs(m_up - m_dn) / m_up
    checks.append(("jump symmetry", gap <= 1e-10,
                   f"m+={m_up:.8f} m-={m_dn:.8f} rel gap {gap:.1e}"))

    # sandwich bounds against the homogeneous problem at the same grid
    tp_hom = replace(tp_sym, mode="homogeneous")
    m_hom = transition_energy(tp_hom, opts).energy
    lo = min(kern.alpha_a, 1.0) * m_hom - 1e-6
    hi = max(kern.beta_a, 1.0) * m_hom + 1e-6
    inside = (lo <= m_up <= hi) and m_up > 0
    checks.append(("positivity and sandwich", inside,
                   f"{lo:.6f} <= {m_up:.6f} <= {hi:.6f}"))

    # matrix-free pair operator against the explicit O(N^2) sum, row by row
    grid = make_grid(-1.0, 1.0, 96)
    x, w, g = grid.nodes(), _pair_weights(grid, 0.75), np.sin(3.0 * grid.nodes())
    for kspec in (KernelSpec.constant(2.0), kern, KernelSpec.cos_prod(2.0, 0.7)):
        fast = _PairForm(w, kspec, x, 0.3).apply(g)
        ref = np.array([w[abs(i - np.arange(x.size))] * kspec.eval(xi / 0.3, x / 0.3) @ g
                        for i, xi in enumerate(x)])
        rel = float(np.max(np.abs(fast - ref)) / np.max(np.abs(ref)))
        checks.append((f"matrix-free {kspec.kind}", rel <= 1e-13, f"rel err {rel:.3e}"))
    return checks


def selftest(inject_gradient_bug: bool = False) -> tuple[bool, str]:
    """Run the invariant suite at small N; returns (all_passed, report)."""
    checks = _selftest_checks(inject_gradient_bug)
    width = max(len(name) for name, _, _ in checks)
    lines = [f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}"
             for name, ok, detail in checks]
    passed = all(ok for _, ok, _ in checks)
    lines.append(f"{'overall':<{width}}  {'PASS' if passed else 'FAIL'}")
    return passed, "\n".join(lines) + "\n"
