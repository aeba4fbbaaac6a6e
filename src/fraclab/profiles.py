"""Optimal-profile transition energies at finite clamp length.

A transition problem minimizes the rescaled energy over profiles pinned to
``sgn(x)`` for |x| >= T, on a grid spanning (-3T, 3T), with the closed-form
tail correction standing in for the interactions beyond the grid.  Every solve
ascends; a descending transition is its reflection x -> -x (``DoubleWell``).
Only |x| < T is free, so each solve runs on that window and a few clamped
nodes per side, the clamped rest of the grid and the tail entering as the
window's exterior term (``DiscreteEnergy.solve_window``, as for the sweep).
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

from .energy import DiscreteEnergy, DoubleWell, EnergyParams, KernelSpec, _check_nodes, _phase
from .grid import make_grid
from .optimize import MinimizeOptions, MinimizeResult, minimize

__all__ = [
    "TransitionProblem",
    "transition_energy",
    "transition_energy_curve",
    "predicted_limit",
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
    T: float
    n_cells: int
    well: DoubleWell
    k: int
    s: float
    lam: float = 1.0

    def __post_init__(self):
        if not (self.T >= 1.0 and np.isfinite(self.T)):
            raise ValueError(f"T must be finite and at least 1: the grid spans (-3T, 3T),"
                             f" got T={self.T}")
        if self.mode == "lambda" and not (self.lam > 0 and np.isfinite(self.lam)):
            raise ValueError(f"lambda mode needs lam > 0, got {self.lam}")
        # the mode, functional, grid and clamp the solve sets up, checked before it starts
        self.effective_kernel()
        grid = make_grid(-self.T_out, self.T_out, self.n_cells)
        _check_nodes(grid, self.k)
        if self.mode == "lambda":  # the kernel at x / lam, out to the end nodes
            _phase([grid.x_lo, grid.x_lo + grid.h * grid.n_cells], self.lam, "lam")
        # a node of (-3T, 3T) lies within 3T/n_cells of 0, inside |x| < T for
        # n_cells >= 4 (``_start``); at n_cells = 3 the nodes are +-3T and +-T
        if grid.n_cells == 3:
            raise ValueError(f"no node lies inside |x| < T = {self.T} at n_cells = {self.n_cells}")

    @property
    def T_out(self) -> float:
        """Half-length of the grid, which spans (-3T, 3T)."""
        return 3.0 * self.T

    def effective_kernel(self) -> tuple[KernelSpec, EnergyParams]:
        """(``_mode_kernel``, parameters) of the rescaled energy the solve
        minimizes: eps = 1, and delta = lam in lambda mode, 1 otherwise."""
        params = EnergyParams(self.k, self.s, 1.0, self.lam if self.mode == "lambda" else 1.0)
        return _mode_kernel(self.kernel, self.mode), params


def _mode_kernel(kernel: KernelSpec, mode: str) -> KernelSpec:
    """The kernel of a ``mode`` solve: ``kernel`` in lambda mode, else the
    constant 1, a_bar or a_inf (homogeneous, supercritical, subcritical)."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if mode == "lambda":
        return kernel
    return KernelSpec.constant({"homogeneous": 1.0, "supercritical": kernel.a_bar,
                                "subcritical": kernel.a_inf}[mode])


def _assemble(tp: TransitionProblem) -> DiscreteEnergy:
    grid = make_grid(-tp.T_out, tp.T_out, tp.n_cells)
    kspec, params = tp.effective_kernel()
    return DiscreteEnergy(grid, params, tp.well, kspec, tail_signs=(-1, 1))


def _start(tp: TransitionProblem, grid) -> tuple[np.ndarray, np.ndarray]:
    """(the linear ramp clamped to sgn(x) for |x| >= T, free mask |x| < T)."""
    x = grid.nodes()
    # the tolerance absorbs node coordinates landing an ulp inside +-T
    free = np.abs(x) < tp.T * (1.0 - 1e-12)
    return np.where(free, x / tp.T, np.sign(x)), free


def transition_energy(tp: TransitionProblem,
                      opts: MinimizeOptions = MinimizeOptions()) -> MinimizeResult:
    """Estimate the transition energy m for the problem's kernel mode.

    Minimizes the rescaled energy plus tail correction over profiles clamped
    to sgn(x) for |x| >= T, by descent preconditioned with the
    energy's spectral preconditioner.  The solve runs on the free nodes
    |x| < T and ``_REACH[k]`` clamped nodes per side (one for k = 0); the
    rest of the (-3T, 3T) grid and the tail beyond it enter as the
    block's exterior term, and the returned profile spans the whole grid.
    The returned energy is an upper estimate of the infimum; a solve that
    stops short of ``grad_tol`` emits a RuntimeWarning naming its stop
    reason and final gradient norm.
    """
    model = _assemble(tp)
    return model.solve_window(*_start(tp, model.grid), opts, minimize,
                              f"transition solve ({tp.mode}, k={tp.k}, N={model.grid.n_nodes})")


def _at_length(tp: TransitionProblem, T: float) -> TransitionProblem:
    """The template at clamp half-length T, keeping its grid spacing
    (n_cells scales with T); a fault names T_list, T and the scaled n_cells."""
    n_cells = tp.n_cells * T / tp.T
    try:
        return replace(tp, T=T, n_cells=max(int(round(n_cells)), 8))
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"T_list: at T = {T:g}, n_cells scales to {n_cells:.6g}: {exc}") from None


def _curve_problems(tp: TransitionProblem, T_list) -> list[TransitionProblem]:
    """The template at each T of ``T_list``, which must strictly ascend."""
    T_list = [float(T) for T in T_list]
    if any(b <= a for a, b in zip(T_list, T_list[1:])):
        raise ValueError(f"T_list must be strictly ascending, got {T_list}")
    return [_at_length(tp, T) for T in T_list]


def transition_energy_curve(tp: TransitionProblem, T_list,
                            opts: MinimizeOptions = MinimizeOptions(),
                            workers: int = 1) -> list[MinimizeResult]:
    """m-hat as a function of the clamp half-length T: one
    ``transition_energy`` result per T, in ``T_list`` order.

    Each T keeps the template's grid spacing (n_cells scales with T), solved
    on up to ``workers`` threads.
    """
    # only a curve needs the pool; importing it loads logging (about 0.3 MiB of RSS)
    from concurrent.futures import ThreadPoolExecutor
    problems = _curve_problems(tp, T_list)
    with ThreadPoolExecutor(max_workers=max(workers, 1)) as pool:
        return list(pool.map(lambda p: transition_energy(p, opts), problems))


def predicted_limit(kernel: KernelSpec, mode: str, k: int, s: float,
                    n_jumps: int, m_hat: float) -> float:
    """Sharp-interface limit for a target with ``n_jumps`` jumps, each charged
    one transition energy whatever its direction (a descending transition is
    the ascending one reflected): ``m_hat`` in ``lambda`` mode, otherwise the
    homogeneous ``m_hat`` scaled by c^{1/(2(k+s))}, c the mode's constant
    kernel (``_mode_kernel``: 1, the kernel mean or its diagonal infimum).
    """
    if mode == "lambda":
        return m_hat * n_jumps
    return _mode_kernel(kernel, mode).c0 ** scaling_exponent(k, s) * m_hat * n_jumps
