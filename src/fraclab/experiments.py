"""Desk-scale experiments: regime sweeps over the eps/delta functional,
explicit recovery constructions, tail flattening, and decay probes.

The sweep minimizes the eps/delta energy over profiles pinned to a
piecewise +-1 target outside shrinking windows around its jumps, recording
the minimum against the sharp-interface prediction.  The recovery
construction pastes rescaled optimal profiles at kernel-aligned shifts of the
jump points; the probes measure the decay trends (cross-interval
interactions, truncation tails) that make those constructions work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import (
    DiscreteEnergy,
    DoubleWell,
    EnergyParams,
    KernelSpec,
    _PairForm,
    _pair_weights,
)
from .grid import BVTarget, GridProfile, UniformGrid, kth_difference, make_grid, sample_bv_target
from .optimize import ClampSpec, MinimizeOptions, MinimizeResult, minimize, _warn_unconverged

__all__ = [
    "SweepPoint",
    "regime_sweep",
    "delta_rule",
    "build_recovery",
    "flatten_tail",
    "cross_term_probe",
    "tail_decay_probe",
    "fit_loglog_slope",
    "jump_half_separation",
]

_REGIME_RULES = ("critical", "supercritical", "subcritical")


def delta_rule(rule: str, eps: float, lam: float = 1.0) -> float:
    """The oscillation scale delta(eps) for each regime rule."""
    if rule == "critical":
        return lam * eps
    if rule == "supercritical":
        return eps * eps
    if rule == "subcritical":
        return math.sqrt(eps)
    raise ValueError(f"rule must be one of {_REGIME_RULES}, got {rule!r}")


def jump_half_separation(target: BVTarget) -> float:
    """tau: half the minimal distance among jump points and domain edges."""
    pts = [0.0, *target.jump_locations, 1.0]
    return 0.5 * min(b - a for a, b in zip(pts, pts[1:]))


def fit_loglog_slope(xs, ys) -> float:
    """Ordinary least-squares slope of log(y) against log(x)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        raise ValueError("slope fit needs at least two points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive data")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


@dataclass(frozen=True)
class SweepPoint:
    eps: float
    delta: float
    min_energy: float
    predicted: float
    profile_ref: str
    result: MinimizeResult


def regime_sweep(kernel: KernelSpec, target: BVTarget, rule: str, eps_list,
                 *, k: int, s: float, well: DoubleWell, n_cells: int,
                 T_profile: float = 4.0, window_factor: float = 2.0,
                 lam: float = 1.0, predicted: float = math.nan,
                 opts: MinimizeOptions = MinimizeOptions()) -> list[SweepPoint]:
    """Minimize the eps/delta energy on (0, 1) for each eps in the sweep.

    Profiles are clamped to the target outside windows of half-width
    ``min(tau/2, window_factor * eps * T_profile)`` around each jump, where
    tau is half the minimal jump/edge separation.  Each solve is
    preconditioned with the energy's spectral preconditioner, and one that
    stops short of ``grad_tol`` emits a RuntimeWarning.  ``predicted`` is the
    mode's sharp-interface limit, recorded on every point.  Where delta
    falls below 2h (the supercritical rule at n_cells = 2000 does so from
    eps = 2^-5 on), the nodes sample the kernel's oscillation below its
    Nyquist rate, so the minimized energy is that of an aliased kernel.
    """
    if rule not in _REGIME_RULES:
        raise ValueError(f"rule must be one of {_REGIME_RULES}, got {rule!r}")
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError(f"eps_list must be strictly descending, got {eps_list}")
    if not target.jump_locations:
        raise ValueError("regime sweep needs a target with at least one jump")
    tau = jump_half_separation(target)
    if 2.0 * tau < 4.0 * max(eps_list) * T_profile:
        raise ValueError(
            f"jumps must be separated by at least 4 * max(eps) * T_profile ="
            f" {4.0 * max(eps_list) * T_profile}; minimal separation is {2.0 * tau}"
        )

    grid = make_grid(0.0, 1.0, n_cells)
    x = grid.nodes()
    target_vals = target.value_at(x)
    points = []
    for eps in eps_list:
        delta = delta_rule(rule, eps, lam)
        w = min(0.5 * tau, window_factor * eps * T_profile)
        lo = np.array(target.jump_locations) - w
        hi = np.array(target.jump_locations) + w
        if np.any(hi[:-1] >= lo[1:]) or lo[0] <= 0.0 or hi[-1] >= 1.0:
            raise ValueError(f"clamp windows overlap at eps={eps} (half-width {w})")
        in_window = np.zeros(x.size, dtype=bool)
        for a, b in zip(lo, hi):
            in_window |= (x > a) & (x < b)
        clamp = ClampSpec(~in_window, np.where(in_window, 0.0, target_vals))

        # descent keeps the transition in the basin it starts from, so offer
        # one ramp centered at each jump and, for the subcritical rule, one
        # shifted onto the kernel's diagonal minimum; keep the lowest minimum
        centers_list = [list(target.jump_locations)]
        if rule == "subcritical":
            r = kernel.diag_argmin()
            aligned = [_jump_shift(t_j, delta, "subcritical", r)
                       for t_j in target.jump_locations]
            if all(abs(c - t) < w - eps * T_profile
                   for c, t in zip(aligned, target.jump_locations)):
                centers_list.append(aligned)

        EnergyParams(k, s, eps, delta)  # rejects excluded exponent/scale combinations
        model = DiscreteEnergy(
            grid, k, s, well, kspec=kernel, kernel_scale=delta,
            well_coef=1.0 / eps,
            nonlocal_coef=eps ** (2.0 * (k + s) - 1.0),
        )
        precondition = model.preconditioner(in_window)
        res = None
        for centers in centers_list:
            init = target_vals.copy()
            for t_j, s_j, a, b, ctr in zip(target.jump_locations, target.jump_signs,
                                           lo, hi, centers):
                sel = (x > a) & (x < b)
                w_ramp = w - abs(ctr - t_j)
                # smooth ramp with flat window edges: kink-free for k >= 1
                q = _smoothstep((x[sel] - ctr + w_ramp) / (2.0 * w_ramp))
                init[sel] = s_j * (2.0 * q - 1.0)
            cand = minimize(model.energy, model.gradient, GridProfile(grid, init),
                            clamp, opts, precondition=precondition)
            _warn_unconverged(cand, f"{rule} sweep solve at eps={eps:g}")
            if res is None or cand.energy < res.energy:
                res = cand
        points.append(SweepPoint(
            eps=eps, delta=delta, min_energy=res.energy, predicted=predicted,
            profile_ref=f"{rule}-eps={eps:g}", result=res,
        ))
    return points


def _jump_shift(t_j: float, delta: float, mode: str, diag_shift: float) -> float:
    if mode == "subcritical":
        return delta * (math.floor(t_j / delta - diag_shift) + diag_shift)
    return delta * math.floor(t_j / delta)


def build_recovery(target: BVTarget, profiles: dict, eps: float, delta: float,
                   mode: str, grid: UniformGrid, T_profile: float,
                   *, lam: float = 1.0, diag_shift: float = 0.0) -> GridProfile:
    """Paste rescaled optimal profiles at kernel-aligned jump shifts.

    ``profiles`` maps jump direction +-1 to a T-clamped optimal profile in the
    rescaled variable.  In ``lambda`` mode the paste is v((x - t^d) lam/delta)
    with t^d = delta * floor(t/delta); the supercritical mode uses the same
    shift with the 1/eps scaling; the subcritical mode shifts onto the
    kernel's diagonal minimum, t^d = delta * (floor(t/delta - r) + r), with
    r = ``diag_shift``.
    """
    if mode not in ("lambda", "supercritical", "subcritical"):
        raise ValueError(f"mode must be lambda/supercritical/subcritical, got {mode!r}")
    x = grid.nodes()
    if not target.jump_locations:
        return sample_bv_target(target, grid)

    tau = jump_half_separation(target)
    tau_eps = eps * T_profile + delta
    if tau_eps >= tau:
        pts = [0.0, *target.jump_locations, 1.0]
        gaps = [(b - a, i) for i, (a, b) in enumerate(zip(pts, pts[1:]))]
        gap, i = min(gaps)
        raise ValueError(
            f"eps*T + delta = {tau_eps} must stay below tau = {tau}: jump pair"
            f" ({pts[i]}, {pts[i + 1]}) is too close"
        )

    scale = lam / delta if mode == "lambda" else 1.0 / eps
    locs = list(target.jump_locations)
    # symmetric subintervals I_j around each jump, split at midpoints
    bounds = [0.0] + [0.5 * (a + b) for a, b in zip(locs, locs[1:])] + [1.0]
    idx = np.clip(np.searchsorted(np.array(bounds), x, side="right") - 1, 0, len(locs) - 1)

    values = np.empty_like(x)
    for j, (t_j, s_j) in enumerate(zip(locs, target.jump_signs)):
        v = profiles[s_j]
        sel = idx == j
        xi = (x[sel] - _jump_shift(t_j, delta, mode, diag_shift)) * scale
        values[sel] = np.interp(xi, v.grid.nodes(), v.values)
    return GridProfile(grid, values)


def _smoothstep(q: np.ndarray) -> np.ndarray:
    q = np.clip(q, 0.0, 1.0)
    return q * q * q * (q * (6.0 * q - 15.0) + 10.0)


def flatten_tail(p: GridProfile, c_dprime: float, c_prime: float, N: int,
                 side: str, target_sign: int, *, k: int, s: float,
                 well: DoubleWell, kspec: KernelSpec | None = None,
                 kernel_scale: float = 1.0, eta: float = 0.5):
    """Best-of-N smooth cutoff replacing near-well values by the exact well value.

    Splits (c_dprime, c_prime) into N equal pieces, builds cutoffs phi_j that
    drop from 1 to 0 across the j-th piece, forms v_j = phi_j p +
    (1 - phi_j) target_sign, and returns the lowest-energy candidate together
    with its energy ratio against the input.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if target_sign not in (-1, 1):
        raise ValueError(f"target_sign must be +-1, got {target_sign}")
    if N < 1:
        raise ValueError("N must be a positive integer")
    if c_prime - c_dprime < 1.0:
        raise ValueError(
            f"flattening window must have length >= 1, got {c_prime - c_dprime}"
        )
    x = p.grid.nodes()
    u = p.values
    window = x >= c_dprime if side == "right" else x <= -c_dprime
    worst = float(np.max(np.abs(u[window] - target_sign))) if window.any() else 0.0
    if worst > eta:
        raise ValueError(
            f"profile strays {worst:.3g} > eta={eta} from {target_sign:+d} on the"
            " flattening window"
        )

    model = DiscreteEnergy(p.grid, k, s, well, kspec=kspec, kernel_scale=kernel_scale)
    base = model.energy(u)
    width = (c_prime - c_dprime) / N
    best_vals, best_energy = None, math.inf
    for j in range(1, N + 1):
        t_lo = c_dprime + (j - 1) * width
        if side == "right":
            phi = 1.0 - _smoothstep((x - t_lo) / width)
        else:
            phi = 1.0 - _smoothstep((-x - t_lo) / width)
        # u + (1-phi)(t - u) is exact both where phi == 1 and where u == t
        vals = u + (1.0 - phi) * (target_sign - u)
        e = model.energy(vals)
        if e < best_energy:
            best_vals, best_energy = vals, e
    ratio = best_energy / base if base > 0.0 else 1.0
    return GridProfile(p.grid, best_vals), ratio


def cross_term_probe(target: BVTarget, profiles: dict, eps_list, *, k: int,
                     s: float, n_cells: int, T_profile: float,
                     kernel: KernelSpec | None = None, mode: str = "supercritical",
                     lam: float = 1.0, diag_shift: float = 0.0,
                     delta_of_eps=None):
    """Cross-interval interaction energy of the recovery profile per eps.

    Sums the eps-scaled nonlocal energy over node pairs lying in distinct
    jump intervals I_i x I_j and fits a log-log slope against eps (the
    interactions die as O(eps^{2s}) for k >= 1).
    """
    eps_list = [float(e) for e in eps_list]
    if delta_of_eps is None:
        delta_of_eps = lambda e: lam * e
    grid = make_grid(0.0, 1.0, n_cells)
    x = grid.nodes()
    locs = list(target.jump_locations)
    if len(locs) < 2:
        return [0.0] * len(eps_list), math.nan
    bounds = [0.0] + [0.5 * (a + b) for a, b in zip(locs, locs[1:])] + [1.0]
    idx = np.clip(np.searchsorted(np.array(bounds), x, side="right") - 1, 0, len(locs) - 1)
    blocks = [(int(np.searchsorted(idx, j, side="left")),
               int(np.searchsorted(idx, j, side="right"))) for j in range(len(locs))]

    w = _pair_weights(grid, s)
    values = []
    for eps in eps_list:
        delta = delta_of_eps(eps)
        rec = build_recovery(target, profiles, eps, delta, mode, grid, T_profile,
                             lam=lam, diag_shift=diag_shift)
        g = kth_difference(rec, k).values
        # ordered pairs in distinct blocks: the total minus each block's own
        # sum, whose weights are W's leading Toeplitz block
        cross = _PairForm(w, kernel, x, delta).value(g)
        for m0, m1 in blocks:
            cross -= _PairForm(w[:m1 - m0], kernel, x[m0:m1], delta).value(g[m0:m1])
        values.append(eps ** (2.0 * (k + s) - 1.0) * cross)
    slope = fit_loglog_slope(eps_list, values) if len(values) >= 2 else math.nan
    return values, slope


def tail_decay_probe(p: GridProfile, T_list, *, k: int, s: float,
                     well: DoubleWell, c_prime: float, c_dprime: float,
                     tail_signs, kspec: KernelSpec | None = None,
                     kernel_scale: float = 1.0):
    """Truncation-tail differences Phi(v) - Phi_T(v) against T.

    ``p`` must be clamped to the tail signs outside (-c_prime, c_prime) on a
    symmetric master grid; the full-line energy is the master grid's with its
    closed-form exterior tail, counted over ordered pairs like the pair sum.
    Every T must exceed max(c_prime, 3 c_dprime) and land on the node
    lattice.  Returns the differences and the log-log slope against
    (T - c_prime).
    """
    grid = p.grid
    if grid.x_lo != -grid.x_hi or grid.n_cells % 2:
        raise ValueError("tail decay probe needs a symmetric master grid with even n_cells")
    if (p.values[0], p.values[-1]) != tuple(tail_signs):
        raise ValueError(
            f"profile ends ({p.values[0]}, {p.values[-1]}) differ from the tail signs {tail_signs}"
        )
    floor_T = max(c_prime, 3.0 * c_dprime)
    T_list = [float(T) for T in T_list]
    if min(T_list) <= floor_T:
        raise ValueError(
            f"every T must exceed max(c', 3c'') = {floor_T}, got {min(T_list)}"
        )
    if max(T_list) >= grid.x_hi:
        raise ValueError(f"T values must stay below the master half-length {grid.x_hi}")

    def phi(sub_grid, values, signs=None):
        return DiscreteEnergy(sub_grid, k, s, well, kspec=kspec, kernel_scale=kernel_scale,
                              tail_signs=signs).energy(values)

    phi_full = phi(grid, p.values, tail_signs)
    h = grid.h
    ctr = grid.n_cells // 2
    diffs = []
    for T in T_list:
        steps = T / h
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError(f"T={T} does not land on the node lattice (h={h})")
        m = int(round(steps))
        diffs.append(phi_full - phi(make_grid(-T, T, 2 * m), p.values[ctr - m:ctr + m + 1]))
    slope = fit_loglog_slope([T - c_prime for T in T_list], diffs)
    return diffs, slope
