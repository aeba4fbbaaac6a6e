"""Optimal-profile transition energies at finite clamp length.

A transition problem minimizes the rescaled energy over profiles pinned to
``omega * sgn(x)`` for |x| >= T, on a grid spanning (-T_out, T_out), with the
closed-form tail correction standing in for the interactions beyond the grid.
The kernel enters in one of four modes:

* ``lambda``        -- a(x/lam, y/lam), the critical-scaling profile problem;
* ``supercritical`` -- the constant mean of a;
* ``subcritical``   -- the constant diagonal infimum of a;
* ``homogeneous``   -- a == 1.

Reported minima are upper estimates of the true infima (plus discretization
error); minimizers need not be unique.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .energy import DiscreteEnergy, DoubleWell, KernelSpec
from .grid import GridProfile, make_grid
from .optimize import ClampSpec, MinimizeOptions, MinimizeResult, minimize, _warn_unconverged

__all__ = [
    "TransitionProblem",
    "TransitionCurvePoint",
    "transition_energy",
    "transition_energy_curve",
    "predicted_limit",
    "lambda_continuity_probe",
    "scaling_exponent",
]

_MODES = ("lambda", "supercritical", "subcritical", "homogeneous")


def scaling_exponent(k: int, s: float) -> float:
    """The 1/(2(k+s)) exponent turning a constant kernel into a length scale."""
    return 1.0 / (2.0 * (k + s))


@dataclass(frozen=True)
class TransitionProblem:
    """Specification of one finite-length transition-energy minimization."""

    kernel: KernelSpec
    mode: str
    omega: int
    T: float
    T_out: float
    n_cells: int
    well: DoubleWell
    k: int
    s: float
    lam: float = 1.0

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.omega not in (-1, 1):
            raise ValueError(f"omega must be +-1, got {self.omega}")
        if not (self.T > 0 and np.isfinite(self.T)):
            raise ValueError(f"T must be positive, got {self.T}")
        if self.T_out < max(self.T, 3.0) or self.T_out <= self.T:
            raise ValueError(
                f"T_out must satisfy T_out > T and T_out >= max(T, 3), got"
                f" T={self.T}, T_out={self.T_out}"
            )
        if self.mode == "lambda" and not (self.lam > 0 and np.isfinite(self.lam)):
            raise ValueError(f"lambda mode needs lam > 0, got {self.lam}")
        if self.k == 0 and self.s <= 0.5:
            raise ValueError(f"(k, s) = (0, {self.s}) is excluded; need s > 1/2 when k = 0")

    def effective_kernel(self):
        """(kernel-or-None, coordinate scale) actually entering the energy."""
        if self.mode == "homogeneous":
            return None, 1.0
        if self.mode == "lambda":
            return self.kernel, self.lam
        if self.mode == "supercritical":
            return KernelSpec.constant(self.kernel.a_bar), 1.0
        return KernelSpec.constant(self.kernel.a_inf), 1.0


def _assemble(tp: TransitionProblem) -> DiscreteEnergy:
    grid = make_grid(-tp.T_out, tp.T_out, tp.n_cells)
    kspec, scale = tp.effective_kernel()
    return DiscreteEnergy(
        grid, tp.k, tp.s, tp.well, kspec=kspec, kernel_scale=scale,
        tail_signs=(-tp.omega, tp.omega),
    )


def _clamp_and_init(tp: TransitionProblem, grid) -> tuple[ClampSpec, GridProfile]:
    x = grid.nodes()
    ramp = tp.omega * np.clip(x / tp.T, -1.0, 1.0)
    # the tolerance absorbs node coordinates landing an ulp inside +-T
    mask = np.abs(x) >= tp.T * (1.0 - 1e-12)
    fixed = np.where(x >= 0, float(tp.omega), float(-tp.omega))
    ramp[mask] = fixed[mask]
    return ClampSpec(mask, fixed), GridProfile(grid, ramp)


def transition_energy(tp: TransitionProblem,
                      opts: MinimizeOptions = MinimizeOptions(),
                      initial: GridProfile | None = None) -> MinimizeResult:
    """Estimate the transition energy m^omega for the problem's kernel mode.

    Minimizes the rescaled energy plus tail correction over profiles clamped
    to omega * sgn(x) for |x| >= T, by descent preconditioned with the
    energy's spectral preconditioner.  The returned energy is an upper
    estimate of the infimum; a solve that stops short of ``grad_tol`` emits
    a RuntimeWarning naming its stop reason and final gradient norm.
    """
    model = _assemble(tp)
    clamp, ramp = _clamp_and_init(tp, model.grid)
    start = ramp if initial is None else initial
    res = minimize(model.energy, model.gradient, start, clamp, opts,
                   precondition=model.preconditioner(~clamp.fixed_mask))
    _warn_unconverged(res, f"transition solve ({tp.mode}, omega={tp.omega}, k={tp.k},"
                          f" N={model.grid.n_nodes})")
    return res


def _at_length(tp: TransitionProblem, T: float) -> TransitionProblem:
    """The template at clamp half-length T, keeping its T_out/T ratio and
    grid spacing (n_cells scales with T)."""
    return replace(tp, T=T, T_out=tp.T_out / tp.T * T,
                   n_cells=max(int(round(tp.n_cells * T / tp.T)), 8))


@dataclass(frozen=True)
class TransitionCurvePoint:
    T: float
    m_hat: float
    result: MinimizeResult


def transition_energy_curve(tp: TransitionProblem, T_list,
                            opts: MinimizeOptions = MinimizeOptions()):
    """m-hat as a function of the clamp half-length T.

    Each T keeps the template's T_out/T ratio and grid spacing (n_cells
    scales with T).  Returns the curve and a convergence flag set when the
    last two values differ by less than 1 percent (the finite-length energies
    decrease to the infinite-length limit).
    """
    T_list = [float(T) for T in T_list]
    if any(b <= a for a, b in zip(T_list, T_list[1:])):
        raise ValueError(f"T_list must be strictly ascending, got {T_list}")
    points = []
    for T in T_list:
        res = transition_energy(_at_length(tp, T), opts)
        points.append(TransitionCurvePoint(T, res.energy, res))
    converged = (
        len(points) >= 2
        and abs(points[-1].m_hat - points[-2].m_hat) < 0.01 * abs(points[-1].m_hat)
    )
    return points, converged


def predicted_limit(kernel: KernelSpec, mode: str, k: int, s: float,
                    n_up: int, n_down: int, m_hat: float | None = None,
                    m_hat_up: float | None = None,
                    m_hat_down: float | None = None) -> float:
    """Sharp-interface limit prediction for a target with the given jump counts.

    ``lambda`` mode weighs the per-direction estimates by the numbers of
    ascending and descending jumps; the supercritical and subcritical modes
    scale the homogeneous estimate by the kernel mean or diagonal infimum
    raised to 1/(2(k+s)).
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    total = n_up + n_down
    if mode == "lambda":
        if m_hat_up is None or m_hat_down is None:
            raise ValueError("lambda mode needs per-direction estimates m_hat_up/m_hat_down")
        return m_hat_up * n_up + m_hat_down * n_down
    if m_hat is None:
        raise ValueError(f"{mode} mode needs the homogeneous estimate m_hat")
    if mode == "homogeneous":
        return m_hat * total
    stat = kernel.a_bar if mode == "supercritical" else kernel.a_inf
    return stat ** scaling_exponent(k, s) * m_hat * total


def lambda_continuity_probe(tp: TransitionProblem, rel_perturbation: float,
                            opts: MinimizeOptions = MinimizeOptions()):
    """m-hat at lam and lam * (1 -+ p), all at the template's resolution."""
    if tp.mode != "lambda":
        raise ValueError("lambda continuity probe needs a lambda-mode problem")
    if not (0.0 < rel_perturbation < 1.0):
        raise ValueError(f"relative perturbation must lie in (0, 1), got {rel_perturbation}")
    out = []
    for lam in (tp.lam, tp.lam * (1.0 - rel_perturbation), tp.lam * (1.0 + rel_perturbation)):
        res = transition_energy(replace(tp, lam=lam), opts)
        out.append(res.energy)
    return tuple(out)
