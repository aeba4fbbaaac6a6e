"""Constrained minimization of discrete energies over nodal profiles.

Preconditioned projected gradient descent with a backtracking line search:
the gradient is zeroed on clamped nodes and the search direction is
d = P^-1 g for a caller-supplied preconditioner (the identity by default)
that is zero there too, so clamped values pass through untouched.  The
initial trial step of each line search after the first is a
Barzilai-Borwein scaling of the previous move in the P metric.  A trial
u - t d is accepted on Armijo's sufficient decrease E - c t g.d while energy
differences are resolvable, and on its slope once the energy is flat to
rounding (see ``minimize``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import GridProfile

__all__ = [
    "ClampSpec",
    "MinimizeOptions",
    "MinimizeResult",
    "NumericalFailure",
    "minimize",
    "check_gradient",
]


class NumericalFailure(RuntimeError):
    """Non-finite energy or gradient; carries the last valid state."""

    def __init__(self, message: str, last_profile: GridProfile | None = None,
                 last_energy: float | None = None):
        super().__init__(message)
        self.last_profile = last_profile
        self.last_energy = last_energy


@dataclass(frozen=True)
class ClampSpec:
    """Per-node clamp: where ``fixed_mask`` is true the value is pinned."""

    fixed_mask: np.ndarray = field(repr=False)
    fixed_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        mask = np.asarray(self.fixed_mask, dtype=bool)
        vals = np.asarray(self.fixed_values, dtype=float)
        if mask.shape != vals.shape or mask.ndim != 1:
            raise ValueError("fixed_mask and fixed_values must be 1-d arrays of equal length")
        if mask.all():
            raise ValueError("clamp must leave at least one free node")
        object.__setattr__(self, "fixed_mask", mask)
        object.__setattr__(self, "fixed_values", vals)

    @classmethod
    def free(cls, n: int) -> "ClampSpec":
        return cls(np.zeros(n, dtype=bool), np.zeros(n))

    def check(self, values: np.ndarray):
        m = self.fixed_mask
        if not np.array_equal(values[m], self.fixed_values[m]):
            raise ValueError("initial profile does not respect the clamp values")


@dataclass(frozen=True)
class MinimizeOptions:
    grad_tol: float = 1e-7
    max_iters: int = 50_000
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    initial_step: float = 1.0


@dataclass(frozen=True)
class MinimizeResult:
    profile: GridProfile
    energy: float
    iterations: int
    final_grad_norm: float
    converged: bool
    stop_reason: str  # grad_tol, max_iters or line_search_underflow
    energy_evals: int
    grad_evals: int
    backtracks: int


_MAX_BACKTRACKS = 80
# relative energy change below which the energy test is replaced by the slope
# test; the energy's rounding floor was measured up to 2.4e-12 |E|
_FLAT_RTOL = 1e-10


def minimize(energy_fn, grad_fn, initial: GridProfile, clamp: ClampSpec,
             opts: MinimizeOptions = MinimizeOptions(),
             precondition=None) -> MinimizeResult:
    """Minimize ``energy_fn`` over the free nodes of ``initial``.

    ``energy_fn(values) -> float`` and ``grad_fn(values) -> ndarray`` act on
    nodal value arrays.  ``precondition(g) -> ndarray`` applies P^-1 to a
    projected gradient; P^-1 must be symmetric positive definite on the free
    nodes and zero on the clamped ones (``DiscreteEnergy.preconditioner``).
    None means the identity, which is plain projected gradient descent.

    Stops on ``grad_tol`` (infinity norm of the free-node gradient, not of
    the direction), after ``max_iters`` accepted steps, or when no step is
    acceptable.  With d = P^-1 g, a trial u - t d passes Armijo's test
    E(trial) <= E - c t g.d, except where |E(trial) - E| <= 1e-10 |E| and
    energy differences are rounding noise: there it passes on its slope,
    -g(trial).d <= (1 - 2c) g.d, Armijo's condition for a quadratic model
    along -d (Hager and Zhang's approximate Wolfe test, SIAM J. Optim. 16,
    2005).  Accepted energies thus never rise by more than 1e-10 |E|.  A
    trial equal to u bit for bit is never accepted.  The first trial step
    after an accepted step t is the Barzilai-Borwein step in the P metric,
    -t (du.g_prev) / (du.dg), since P du = -t g_prev; with the identity it
    is du.du / du.dg.
    """
    clamp.check(initial.values)
    free = ~clamp.fixed_mask
    u = initial.values.copy()
    n_energy = n_grad = backtracks = 0

    def projected_grad(vals):
        nonlocal n_grad
        n_grad += 1
        g = np.asarray(grad_fn(vals), dtype=float)
        if not np.all(np.isfinite(g)):
            raise NumericalFailure("non-finite gradient encountered",
                                   GridProfile(initial.grid, vals), energy_fn(vals))
        out = np.zeros_like(g)
        out[free] = g[free]
        return out

    energy = float(energy_fn(u))
    if not np.isfinite(energy):
        raise NumericalFailure("energy not finite at the initial profile", initial, None)
    apply_p = (lambda vec: vec) if precondition is None else precondition
    g = projected_grad(u)
    d = apply_p(g)
    step = opts.initial_step
    prev_u = prev_g = None
    stop_reason = "max_iters"
    iterations = 0
    for iterations in range(opts.max_iters + 1):
        grad_norm = float(np.max(np.abs(g))) if g.size else 0.0
        if grad_norm <= opts.grad_tol:
            stop_reason = "grad_tol"
            break
        if iterations == opts.max_iters:
            break

        if prev_u is not None:
            du = u - prev_u
            curv = float(du @ (g - prev_g))
            if curv > 0.0:
                step = -step * float(du @ prev_g) / curv
            step = min(max(step, 1e-14), 1e12)

        gd = float(g @ d)
        flat = _FLAT_RTOL * abs(energy)
        t = step
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            trial = u - t * d
            if np.array_equal(trial, u):
                break
            e_trial = float(energy_fn(trial))
            n_energy += 1
            g_trial = None
            if abs(e_trial - energy) <= flat:
                g_trial = projected_grad(trial)
                accepted = -float(g_trial @ d) <= (1.0 - 2.0 * opts.armijo_c) * gd
            else:
                accepted = np.isfinite(e_trial) and e_trial <= energy - opts.armijo_c * t * gd
            if accepted:
                break
            backtracks += 1
            t *= opts.backtrack_factor
        if not accepted:
            stop_reason = "line_search_underflow"
            break

        prev_u, prev_g = u, g
        u, energy = trial, e_trial
        step = t
        g = projected_grad(u) if g_trial is None else g_trial
        d = apply_p(g)

    profile = GridProfile(initial.grid, u)
    final_energy = float(energy_fn(u))
    if not np.isclose(final_energy, energy, rtol=1e-12, atol=0.0):
        raise NumericalFailure("energy bookkeeping drifted from the evaluator", profile, energy)
    return MinimizeResult(
        profile=profile,
        energy=final_energy,
        iterations=iterations,
        final_grad_norm=float(np.max(np.abs(g))) if g.size else 0.0,
        converged=stop_reason == "grad_tol",
        stop_reason=stop_reason,
        energy_evals=n_energy + 2,  # with the initial and final evaluations
        grad_evals=n_grad,
        backtracks=backtracks,
    )


def _warn_unconverged(result: MinimizeResult, what: str) -> None:
    """Emit a RuntimeWarning when ``result`` stopped short of ``grad_tol``."""
    if not result.converged:
        warnings.warn(
            f"{what} stopped on {result.stop_reason} with gradient norm"
            f" {result.final_grad_norm:.3g} after {result.iterations} iterations",
            RuntimeWarning, stacklevel=3,
        )


def check_gradient(energy_fn, grad_fn, point: GridProfile) -> float:
    """Worst discrepancy between ``grad_fn`` and central finite differences.

    Per-node step 1e-6 * (1 + |u_i|); the discrepancy is normalized by the
    largest finite-difference component, so a gradient off by a constant
    factor c reports approximately |c - 1|.
    """
    u = point.values.copy()
    analytic = np.asarray(grad_fn(u), dtype=float)
    fd = np.zeros_like(u)
    for i in range(u.size):
        step = 1e-6 * (1.0 + abs(u[i]))
        up = u.copy()
        dn = u.copy()
        up[i] += step
        dn[i] -= step
        fd[i] = (float(energy_fn(up)) - float(energy_fn(dn))) / (2.0 * step)
    scale = max(float(np.max(np.abs(fd))), 1e-300)
    return float(np.max(np.abs(analytic - fd))) / scale
