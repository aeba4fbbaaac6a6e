"""Constrained minimization of discrete energies over nodal profiles.

Limited-memory BFGS with a backtracking line search: the gradient is zeroed
on clamped nodes, and the search direction d = H g comes from the two-loop
recursion over the last few accepted steps, with a caller-supplied
preconditioner P^-1 as its initial inverse Hessian.  P^-1 is zero on clamped
nodes, so d is too, and clamped values pass through untouched.  A trial
u - t d is accepted on Armijo's sufficient decrease E - c t g.d while energy
differences are resolvable, and on its slope once the energy is flat to
rounding (see ``minimize``).
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .grid import GridProfile

__all__ = [
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
class MinimizeOptions:
    grad_tol: float = 1e-7
    max_iters: int = 50_000

    def __post_init__(self):
        if not (np.isfinite(self.grad_tol) and self.grad_tol >= 0):
            raise ValueError(f"grad_tol must be finite and >= 0, got {self.grad_tol}")
        if not self.max_iters >= 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class MinimizeResult:
    profile: GridProfile
    energy: float
    iterations: int
    final_grad_norm: float
    converged: bool
    stop_reason: str  # grad_tol, max_iters, line_search_underflow or rounding_floor
    energy_evals: int
    grad_evals: int
    backtracks: int


_ARMIJO_C = 1e-4
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 80
# relative energy change below which the energy test is replaced by the slope
# test; the energy's rounding floor was measured up to 2.4e-12 |E|
_FLAT_RTOL = 1e-10
# stored (s, y) pairs; memory 4 took 142 iterations on the eps = 2^-13
# subcritical sweep point where 8 took 99 and 16 took 93
_MEMORY = 8


def minimize(energy_fn, grad_fn, initial: GridProfile, free: np.ndarray,
             opts: MinimizeOptions = MinimizeOptions(), *,
             precondition) -> MinimizeResult:
    """Minimize ``energy_fn`` over the nodes of ``initial`` that the boolean
    mask ``free`` (1-d, one entry per node, at least one true) marks; the
    others keep their values in ``initial``.

    ``energy_fn(values) -> float`` and ``grad_fn(values) -> ndarray`` act on
    nodal value arrays.  ``precondition(g) -> ndarray`` applies P^-1 to a
    projected gradient; P^-1 must be symmetric positive definite on the free
    nodes and zero on the others (``DiscreteEnergy.preconditioner``).

    Stops on ``grad_tol`` (infinity norm of the free-node gradient, not of
    the direction), after ``max_iters`` accepted steps, when no step is
    acceptable, or on the rounding floor (not converged): ``_MEMORY``
    iterations in a row whose decrement g.d is at most 2^-52 |E|, a change
    the energy cannot resolve, and whose gradient norm sets no new low.
    The direction d = H g is the L-BFGS two-loop recursion
    (Nocedal and Wright, *Numerical Optimization*, 2nd ed., Algorithm 7.4)
    with initial inverse Hessian P^-1, over the last ``_MEMORY`` accepted
    steps s = u_new - u and gradient changes y whose curvature s.y is
    positive; others are not stored.  With no stored pair, or when g.d <= 0,
    d = P^-1 g.  P^-1 is not rescaled at each iteration (Nocedal and
    Wright's s.y / y.y), since in the P metric that would apply it twice:
    the energy's spectral preconditioner carries the Hessian's scale, the
    identity does not.  The first trial step is t = 1, halved on each
    backtrack.  A trial u - t d passes Armijo's test E(trial) <= E - c t g.d,
    except where |E(trial) - E| <= 1e-10 |E| and energy differences are
    rounding noise: there it passes on its slope, -g(trial).d <= (1 - 2c) g.d,
    Armijo's condition for a quadratic model along -d (Hager and Zhang's
    approximate Wolfe test, SIAM J. Optim. 16, 2005).  Accepted energies thus
    never rise by more than 1e-10 |E|.  A trial equal to u bit for bit is
    never accepted.
    """
    free = np.asarray(free, dtype=bool)
    if free.shape != initial.values.shape:
        raise ValueError(f"free mask must be 1-d with {initial.values.size} entries")
    if not free.any():
        raise ValueError("free mask must hold at least one free node")
    clamped = np.flatnonzero(~free)
    u = initial.values.copy()
    n_energy = n_grad = backtracks = 0

    def projected_grad(vals):
        nonlocal n_grad
        n_grad += 1
        g = np.array(grad_fn(vals), dtype=float)  # a copy: grad_fn's array stays intact
        if not np.all(np.isfinite(g)):
            raise NumericalFailure("non-finite gradient encountered",
                                   GridProfile(initial.grid, vals), energy_fn(vals))
        g[clamped] = 0.0
        return g

    energy = float(energy_fn(u))
    if not np.isfinite(energy):
        raise NumericalFailure("energy not finite at the initial profile", initial, None)
    g = projected_grad(u)
    pairs = deque(maxlen=_MEMORY)  # (s, y, 1 / s.y), oldest first
    stop_reason = "max_iters"
    stalled, lowest = 0, np.inf  # iterations on the rounding floor; least gradient norm
    for iterations in range(opts.max_iters + 1):
        grad_norm = float(np.max(np.abs(g))) if g.size else 0.0
        if grad_norm <= opts.grad_tol:
            stop_reason = "grad_tol"
            break
        if iterations == opts.max_iters:
            break

        d = _direction(g, pairs, precondition)
        gd = float(g @ d)
        stalled = stalled + 1 if gd <= 2.0 ** -52 * abs(energy) and grad_norm >= lowest else 0
        lowest = min(lowest, grad_norm)
        if stalled == _MEMORY:
            stop_reason = "rounding_floor"
            break
        flat = _FLAT_RTOL * abs(energy)
        t = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            trial = u - t * d
            if not (trial != u).any():  # equal to u bit for bit
                break
            e_trial = float(energy_fn(trial))
            n_energy += 1
            g_trial = None
            if abs(e_trial - energy) <= flat:
                g_trial = projected_grad(trial)
                accepted = -float(g_trial @ d) <= (1.0 - 2.0 * _ARMIJO_C) * gd
            else:
                accepted = np.isfinite(e_trial) and e_trial <= energy - _ARMIJO_C * t * gd
            if accepted:
                break
            backtracks += 1
            t *= _BACKTRACK_FACTOR
        if not accepted:
            stop_reason = "line_search_underflow"
            break

        g_new = projected_grad(trial) if g_trial is None else g_trial
        s, y = trial - u, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
        u, energy, g = trial, e_trial, g_new

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


def _direction(g, pairs, apply_p):
    """H g by the two-loop recursion over ``pairs`` with H_0 = P^-1, which
    ``apply_p`` applies once; P^-1 g if there is no pair or H g is not a
    descent direction (g.Hg <= 0)."""
    if not pairs:
        return apply_p(g)
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    r = apply_p(q)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        r = r + (alpha - rho * float(y @ r)) * s
    return r if float(g @ r) > 0.0 else apply_p(g)


def _warn_unconverged(result: MinimizeResult, what: str) -> None:
    """Emit a RuntimeWarning when ``result`` stopped short of ``grad_tol``."""
    if not result.converged:
        warnings.warn(
            f"{what} stopped on {result.stop_reason} with gradient norm"
            f" {result.final_grad_norm:.3g} after {result.iterations} iterations",
            RuntimeWarning, stacklevel=4,  # the caller of transition_energy or regime_sweep
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
