"""Experiment orchestration: JSON configs in, CSV results out.

Configs are validated up front against the same preconditions as the
underlying operations, aggregating every violation into one error.  Results
are written atomically (temp file + rename).  Failures map to exit codes:
2 config, 3 numerical, 4 I/O.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .energy import (
    DiscreteEnergy,
    DoubleWell,
    EnergyParams,
    KernelSpec,
    _PairForm,
    _pair_weights,
    eval_F,
)
from .experiments import build_recovery, delta_rule, regime_sweep
from .grid import BVTarget, GridProfile, make_bv_target, make_grid, resample_scaled
from .optimize import MinimizeOptions, NumericalFailure, check_gradient
from .profiles import (
    TransitionProblem,
    _at_length,
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

_COMMANDS = ("profile", "curve", "sweep", "recovery")

CSV_SCHEMAS = {
    "profile": ["mode", "omega", "T", "T_out", "n_cells", "m_hat", "iterations",
                "final_grad_norm", "converged"],
    "curve": ["T", "T_out", "n_cells", "m_hat", "iterations", "converged"],
    "sweep": ["eps", "delta", "ratio", "min_energy", "predicted", "rel_gap"],
    "recovery": ["mode", "eps", "delta", "n_jumps", "energy", "predicted", "rel_gap"],
}


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
    raw: dict = field(repr=False)

    def opt_options(self) -> MinimizeOptions:
        o = MinimizeOptions()
        raw = self.raw
        return MinimizeOptions(
            grad_tol=float(raw.get("grad_tol", 1e-6)),
            max_iters=int(raw.get("max_iters", o.max_iters)),
            armijo_c=float(raw.get("armijo_c", o.armijo_c)),
            backtrack_factor=float(raw.get("backtrack_factor", o.backtrack_factor)),
            initial_step=float(raw.get("initial_step", o.initial_step)),
        )


def _build_kernel(entry: dict, violations: list) -> KernelSpec | None:
    variant = entry.get("variant")
    try:
        if variant == "constant":
            return KernelSpec.constant(entry["c"])
        if variant == "cos_sum":
            return KernelSpec.cos_sum(entry["c0"], entry["c1"])
        if variant == "cos_prod":
            return KernelSpec.cos_prod(entry["c0"], entry["c1"])
        violations.append(
            f"kernel.variant must be constant/cos_sum/cos_prod, got {variant!r}"
        )
    except KeyError as exc:
        violations.append(f"kernel is missing field {exc}")
    except ValueError as exc:
        violations.append(f"kernel: {exc}")
    return None


def _validate(raw: dict) -> ExperimentConfig:
    violations: list[str] = []
    command = raw.get("command")
    if command not in _COMMANDS:
        violations.append(f"command must be one of {_COMMANDS}, got {command!r}")

    kernel = None
    if not isinstance(raw.get("kernel"), dict):
        violations.append("kernel must be an object with a 'variant' field")
    else:
        kernel = _build_kernel(raw["kernel"], violations)

    well = None
    try:
        well = DoubleWell(float(raw.get("chi", 0.0)))
    except ValueError as exc:
        violations.append(str(exc))

    k = raw.get("k", 0)
    s = raw.get("s", 0.75)
    try:
        EnergyParams(k, s, 1.0, 1.0)
    except ValueError as exc:
        violations.append(str(exc))

    if command in ("profile", "curve"):
        try:
            if kernel is not None and well is not None:
                _transition_problem(raw, kernel, well)
        except ValueError as exc:
            violations.append(str(exc))
        if command == "curve":
            T_list = raw.get("T_list")
            if not isinstance(T_list, list) or len(T_list) < 2:
                violations.append("curve needs T_list with at least two ascending values")
    if command in ("sweep", "recovery"):
        try:
            _target(raw)
        except (ValueError, TypeError, KeyError) as exc:
            violations.append(f"jumps: {exc}")
        if command == "sweep":
            rule = raw.get("rule")
            if rule not in ("critical", "supercritical", "subcritical"):
                violations.append(
                    f"sweep rule must be critical/supercritical/subcritical, got {rule!r}"
                )
            eps_list = raw.get("eps_list")
            if not isinstance(eps_list, list) or not eps_list:
                violations.append("sweep needs a non-empty eps_list")
        if command == "recovery":
            mode = raw.get("mode")
            if mode not in ("lambda", "supercritical", "subcritical"):
                violations.append(
                    f"recovery mode must be lambda/supercritical/subcritical, got {mode!r}"
                )
            if "eps" not in raw:
                violations.append("recovery needs eps")

    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(command=command, kernel=kernel, well=well,
                            k=int(k), s=float(s), raw=raw)


def _transition_problem(raw: dict, kernel: KernelSpec, well: DoubleWell,
                        T: float | None = None) -> TransitionProblem:
    T = float(raw.get("T", 4.0)) if T is None else T
    factor = float(raw.get("t_out_factor", 3.0))
    return TransitionProblem(
        kernel=kernel,
        mode=raw.get("mode", "homogeneous"),
        lam=float(raw.get("lam", 1.0)),
        omega=int(raw.get("omega", 1)),
        T=T,
        T_out=factor * T,
        n_cells=int(raw.get("n_cells", 768)),
        well=well,
        k=int(raw.get("k", 0)),
        s=float(raw.get("s", 0.75)),
    )


def _target(raw: dict) -> BVTarget:
    jumps = [(float(t), int(sg)) for t, sg in raw["jumps"]]
    return make_bv_target(jumps, raw.get("left_value"))


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


def _run_profile(cfg: ExperimentConfig, workers: int):
    tp = _transition_problem(cfg.raw, cfg.kernel, cfg.well)
    res = transition_energy(tp, cfg.opt_options())
    row = [tp.mode, tp.omega, tp.T, tp.T_out, tp.n_cells, res.energy,
           res.iterations, res.final_grad_norm, res.converged]
    return [row], CSV_SCHEMAS["profile"]


def _run_curve(cfg: ExperimentConfig, workers: int):
    tp = _transition_problem(cfg.raw, cfg.kernel, cfg.well)
    T_list = [float(T) for T in cfg.raw["T_list"]]
    opts = cfg.opt_options()

    def job(T):
        tp_T = _at_length(tp, T)
        return tp_T, transition_energy(tp_T, opts)

    with ThreadPoolExecutor(max_workers=max(workers, 1)) as pool:
        results = list(pool.map(job, T_list))
    rows = [[tp_T.T, tp_T.T_out, tp_T.n_cells, r.energy, r.iterations, r.converged]
            for tp_T, r in results]
    return rows, CSV_SCHEMAS["curve"]


def _homogeneous_reference(cfg: ExperimentConfig) -> float:
    raw = cfg.raw
    tp = TransitionProblem(
        kernel=KernelSpec.constant(1.0), mode="homogeneous", omega=1,
        T=float(raw.get("T_profile", 4.0)), T_out=3.0 * float(raw.get("T_profile", 4.0)),
        n_cells=int(raw.get("reference_n_cells", 768)), well=cfg.well, k=cfg.k, s=cfg.s,
    )
    return transition_energy(tp, cfg.opt_options()).energy


def _run_sweep(cfg: ExperimentConfig, workers: int):
    raw = cfg.raw
    target = _target(raw)
    rule = raw["rule"]
    mode = {"critical": "lambda", "supercritical": "supercritical",
            "subcritical": "subcritical"}[rule]
    n_up, n_down = len(target.ascending), len(target.descending)
    if mode == "lambda":
        lam = float(raw.get("lam", 1.0))
        tp = _transition_problem({**raw, "mode": "lambda", "n_cells":
                                  int(raw.get("reference_n_cells", 768))},
                                 cfg.kernel, cfg.well, T=float(raw.get("T_profile", 4.0)))
        opts = cfg.opt_options()
        m_up = transition_energy(tp, opts).energy
        m_down = transition_energy(replace(tp, omega=-1), opts).energy
        predicted = predicted_limit(cfg.kernel, "lambda", cfg.k, cfg.s, n_up, n_down,
                                    m_hat_up=m_up, m_hat_down=m_down)
    else:
        m_hat = _homogeneous_reference(cfg)
        predicted = predicted_limit(cfg.kernel, mode, cfg.k, cfg.s, n_up, n_down, m_hat=m_hat)

    points = regime_sweep(
        cfg.kernel, target, rule, [float(e) for e in raw["eps_list"]],
        k=cfg.k, s=cfg.s, well=cfg.well, n_cells=int(raw.get("n_cells", 2048)),
        T_profile=float(raw.get("T_profile", 4.0)),
        window_factor=float(raw.get("window_factor", 2.0)),
        lam=float(raw.get("lam", 1.0)), predicted=predicted, opts=cfg.opt_options(),
    )
    rows = [[p.eps, p.delta, p.delta / p.eps, p.min_energy, p.predicted,
             (p.min_energy - p.predicted) / p.predicted] for p in points]
    return rows, CSV_SCHEMAS["sweep"]


def _run_recovery(cfg: ExperimentConfig, workers: int):
    raw = cfg.raw
    target = _target(raw)
    mode = raw["mode"]
    eps = float(raw["eps"])
    lam = float(raw.get("lam", 1.0))
    delta = float(raw.get("delta", delta_rule(
        {"lambda": "critical", "supercritical": "supercritical",
         "subcritical": "subcritical"}[mode], eps, lam)))
    T_profile = float(raw.get("T_profile", 4.0))
    opts = cfg.opt_options()

    n_ref = int(raw.get("reference_n_cells", 768))
    tp = TransitionProblem(kernel=cfg.kernel, mode=mode, lam=lam, omega=1,
                           T=T_profile, T_out=3.0 * T_profile, n_cells=n_ref,
                           well=cfg.well, k=cfg.k, s=cfg.s)
    res_up = transition_energy(tp, opts)
    res_down = transition_energy(replace(tp, omega=-1), opts)
    profiles = {+1: res_up.profile, -1: res_down.profile}

    n_up, n_down = len(target.ascending), len(target.descending)
    if mode == "lambda":
        predicted = predicted_limit(cfg.kernel, "lambda", cfg.k, cfg.s, n_up, n_down,
                                    m_hat_up=res_up.energy, m_hat_down=res_down.energy)
    else:
        m_hat = _homogeneous_reference(cfg)
        predicted = predicted_limit(cfg.kernel, mode, cfg.k, cfg.s, n_up, n_down, m_hat=m_hat)

    grid = make_grid(0.0, 1.0, int(raw.get("n_cells", 2048)))
    rec = build_recovery(target, profiles, eps, delta, mode, grid, T_profile,
                         lam=lam, diag_shift=cfg.kernel.diag_argmin())
    energy = eval_F(rec, EnergyParams(cfg.k, cfg.s, eps, delta), cfg.well, cfg.kernel)
    rows = [[mode, eps, delta, n_up + n_down, energy, predicted,
             (energy - predicted) / predicted]]
    return rows, CSV_SCHEMAS["recovery"]


_RUNNERS = {
    "profile": _run_profile,
    "curve": _run_curve,
    "sweep": _run_sweep,
    "recovery": _run_recovery,
}


def run_experiment(cfg: ExperimentConfig, out_path, workers: int = 1) -> None:
    """Dispatch a validated config and write its CSV atomically."""
    rows, schema = _RUNNERS[cfg.command](cfg, workers)
    emit_csv(rows, schema, out_path)


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
        model = DiscreteEnergy(grid, k, s, well, kspec=kern, kernel_scale=1.0)
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
    lam = c ** (1.0 / (2.0 * (k + s)))
    grid = make_grid(-6.0, 6.0, 256)
    v = GridProfile(grid, np.tanh(grid.nodes()))
    lhs = DiscreteEnergy(grid, k, s, well, kspec=KernelSpec.constant(c)).energy(v.values)
    small = resample_scaled(v, lam)
    rhs = c ** (1.0 / (2.0 * (k + s))) * DiscreteEnergy(
        small.grid, k, s, well).energy(small.values)
    rel = abs(lhs - rhs) / lhs
    checks.append(("scaling identity", rel <= 1e-12, f"rel err {rel:.3e}"))

    # monotone T-curve, homogeneous kernel, small N
    tp = TransitionProblem(kernel=KernelSpec.constant(1.0), mode="homogeneous", omega=1,
                           T=2.0, T_out=6.0, n_cells=192, well=DoubleWell(0.0), k=0, s=0.75)
    pts, _ = transition_energy_curve(tp, [2.0, 4.0], MinimizeOptions(grad_tol=1e-5))
    mono = pts[1].m_hat <= pts[0].m_hat + 1e-6
    checks.append(("T-monotonicity", mono,
                   f"m({pts[0].T})={pts[0].m_hat:.6f} m({pts[1].T})={pts[1].m_hat:.6f}"))

    # jump-direction symmetry for an even well
    tp_sym = TransitionProblem(kernel=kern, mode="lambda", lam=1.0, omega=1, T=2.0,
                               T_out=6.0, n_cells=192, well=DoubleWell(0.0), k=0, s=0.75)
    opts = MinimizeOptions(grad_tol=1e-5)
    m_up = transition_energy(tp_sym, opts).energy
    m_dn = transition_energy(replace(tp_sym, omega=-1), opts).energy
    sym = abs(m_up - m_dn) / m_up <= 1e-3
    checks.append(("jump symmetry", sym, f"m+={m_up:.8f} m-={m_dn:.8f}"))

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
