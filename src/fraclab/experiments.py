"""Desk-scale experiments: regime sweeps over the eps/delta functional and
explicit recovery constructions.

The sweep minimizes the eps/delta energy over profiles pinned to a
piecewise +-1 target outside shrinking windows around its jumps, one solve
per eps.  The recovery construction pastes rescaled optimal profiles at
kernel-aligned shifts of the jump points.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .energy import DiscreteEnergy, DoubleWell, EnergyParams, KernelSpec, _phase
from .grid import BVTarget, GridProfile, UniformGrid, make_grid
from .optimize import MinimizeOptions, MinimizeResult, minimize

__all__ = [
    "regime_sweep",
    "delta_rule",
    "build_recovery",
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


def _check_sweep_eps(target: BVTarget, eps_list, T_profile: float) -> list[float]:
    """eps_list as floats; raises ValueError unless it is non-empty and
    strictly descending and the target's jumps lie 4 * max(eps) * T_profile
    apart."""
    eps_list = [float(e) for e in eps_list]
    if not eps_list or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError(f"eps_list must be non-empty and strictly descending, got {eps_list}")
    tau = jump_half_separation(target)
    if 2.0 * tau < 4.0 * max(eps_list) * T_profile:
        raise ValueError(
            f"jumps must be separated by at least 4 * max(eps) * T_profile ="
            f" {4.0 * max(eps_list) * T_profile}; minimal separation is {2.0 * tau}"
        )
    return eps_list


def _spans(target: BVTarget, w: float, grid: UniformGrid) -> list[tuple[int, int]]:
    """Per jump t, the node span (lo, hi) of ``grid`` strictly inside
    (t - w, t + w), empty if lo >= hi; found by bisection over node i's
    coordinate x_lo + h i, computed as ``UniformGrid.nodes`` does (it never
    decreases with i), so no node array is built."""
    node, n = (lambda i: grid.x_lo + grid.h * i), range(grid.n_nodes)
    return [(bisect.bisect_right(n, t - w, key=node), bisect.bisect_left(n, t + w, key=node))
            for t in target.jump_locations]


def _check_sweep_geometry(target: BVTarget, eps_list, T_profile: float,
                          window_factor: float, grid: UniformGrid):
    """(eps_list as floats, the clamp windows' half-width at each eps); raises
    ValueError unless eps_list passes ``_check_sweep_eps``, window_factor is
    positive and finite, and at every eps each jump's window holds a node of
    ``grid`` (``_spans``, which builds no node array).

    The half-width is min(tau/2, window_factor * eps * T_profile); since the
    jumps lie at least 2 tau from each other and from 0 and 1, the windows
    never overlap and stay inside (0, 1)."""
    eps_list = _check_sweep_eps(target, eps_list, T_profile)
    if not (math.isfinite(window_factor) and window_factor > 0):
        # min(tau/2, nan) is tau/2: a NaN would run silently at the widest window
        empty = ": no node lies inside the clamp windows" if window_factor <= 0 else ""
        raise ValueError(f"window_factor must be positive and finite, got {window_factor}{empty}")
    tau = jump_half_separation(target)
    widths = [min(0.5 * tau, window_factor * eps * T_profile) for eps in eps_list]
    for eps, w in zip(eps_list, widths):
        spans = _spans(target, w, grid)
        bare = [t for t, (lo, hi) in zip(target.jump_locations, spans) if lo >= hi]
        if bare:
            raise ValueError(f"no node lies inside the clamp windows at eps={eps} (half-width {w})"
                             f" around the jumps at {np.array(bare)}")
    return eps_list, widths


def regime_sweep(kernel: KernelSpec, target: BVTarget, rule: str, eps_list,
                 *, k: int, s: float, well: DoubleWell, n_cells: int,
                 T_profile: float = 4.0, window_factor: float = 2.0,
                 lam: float = 1.0,
                 opts: MinimizeOptions = MinimizeOptions()) -> list[MinimizeResult]:
    """Minimize the eps/delta energy on (0, 1) for each eps in the sweep;
    one result per eps, in ``eps_list`` order.

    Profiles are clamped to the target outside windows of half-width
    ``min(tau/2, window_factor * eps * T_profile)`` around each jump, where
    tau is half the minimal jump/edge separation.  Each eps gets one solve,
    from smooth ramps centred at the jumps; the subcritical rule instead
    centres them on the kernel's diagonal minimum next to each jump
    (``_jump_shift``) when that keeps eps * T_profile inside the window.
    Each solve runs on the span of the windows and ``_REACH[k]`` clamped
    nodes on each side (one for k = 0; ``DiscreteEnergy.block``): the rest
    of the (0, 1) grid is pinned, and its pairs enter as the block's
    exterior term, so each result's energy is the full-grid energy,
    minimized on the block.  Each solve is preconditioned with the energy's
    spectral preconditioner, whose modes shorter than the kernel period see
    the kernel's local diagonal for k = 0 and 1
    (``DiscreteEnergy.preconditioner``); a solve that stops short of
    ``grad_tol`` emits a RuntimeWarning.  Where delta falls below 2h (the
    supercritical rule at n_cells = 2000 does so from eps = 2^-5 on), the
    nodes sample the kernel's oscillation below its Nyquist rate, so the
    minimized energy is that of an aliased kernel.
    """
    if rule not in _REGIME_RULES:
        raise ValueError(f"rule must be one of {_REGIME_RULES}, got {rule!r}")
    grid = make_grid(0.0, 1.0, n_cells)
    eps_list, widths = _check_sweep_geometry(target, eps_list, T_profile, window_factor, grid)
    x = grid.nodes()

    target_vals = target.value_at(x)
    results = []
    for eps, w in zip(eps_list, widths):
        delta = delta_rule(rule, eps, lam)

        # descent keeps the transition in the basin it starts from: the
        # subcritical rule starts on the kernel's diagonal minimum where the
        # window admits it, every other start is centred at the jumps
        centers = list(target.jump_locations)
        if rule == "subcritical":
            r = kernel.diag_argmin()
            aligned = [_jump_shift(t_j, delta, "subcritical", r) for t_j in centers]
            if all(abs(c - t) < w - eps * T_profile for c, t in zip(aligned, centers)):
                centers = aligned
        init = target_vals.copy()
        free = np.zeros(x.size, dtype=bool)
        for t_j, s_j, (lo, hi), ctr in zip(target.jump_locations, target.jump_signs,
                                           _spans(target, w, grid), centers):
            sel, w_ramp = slice(lo, hi), w - abs(ctr - t_j)
            # smooth ramp with flat window edges: kink-free for k >= 1
            q = _smoothstep((x[sel] - ctr + w_ramp) / (2.0 * w_ramp))
            init[sel], free[sel] = s_j * (2.0 * q - 1.0), True

        model = DiscreteEnergy(grid, EnergyParams(k, s, eps, delta), well, kernel)
        results.append(model.solve_window(init, free, opts, minimize,
                                          f"{rule} sweep solve at eps={eps:g}"))
    return results


def _jump_shift(t_j: float, delta: float, mode: str, diag_shift: float) -> float:
    if mode == "subcritical":
        return delta * (math.floor(t_j / delta - diag_shift) + diag_shift)
    return delta * math.floor(t_j / delta)


def _check_recovery_geometry(target: BVTarget, eps: float, delta: float, T_profile: float):
    """Raises ValueError unless eps * T_profile + delta stays below tau, so the pasted
    profiles' transition layers keep apart, and the kernel phase is finite on (0, 1)."""
    _phase([0.0, 1.0], delta)
    tau = jump_half_separation(target)
    tau_eps = eps * T_profile + delta
    if tau_eps >= tau:
        pts = [0.0, *target.jump_locations, 1.0]
        i = int(np.argmin(np.diff(pts)))
        raise ValueError(
            f"eps*T + delta = {tau_eps} must stay below tau = {tau}: jump pair"
            f" ({pts[i]}, {pts[i + 1]}) is too close"
        )


def _jump_blocks(target: BVTarget, x: np.ndarray) -> list[tuple[int, int]]:
    """Per jump j, the range lo:hi of the ascending nodes x in the interval
    I_j, (0, 1) split at the jump midpoints (a node on a midpoint joins the
    right one)."""
    locs = target.jump_locations
    cuts = np.searchsorted(x, [0.5 * (a + b) for a, b in zip(locs, locs[1:])]).tolist()
    return list(zip([0, *cuts], [*cuts, x.size]))


def _paste_scale(mode: str, eps: float, delta: float, lam: float) -> float:
    """xi per unit x of ``build_recovery``'s paste: lam/delta in lambda mode, else 1/eps."""
    return lam / delta if mode == "lambda" else 1.0 / eps


def build_recovery(target: BVTarget, profile: GridProfile, eps: float, delta: float,
                   mode: str, grid: UniformGrid, T_profile: float,
                   *, lam: float = 1.0, diag_shift: float = 0.0) -> GridProfile:
    """Paste rescaled optimal profiles at kernel-aligned jump shifts.

    ``profile`` is the T-clamped ascending optimal profile v in the rescaled
    variable, on a grid symmetric about 0; a descending jump (s_j = -1)
    pastes its reflection v(-xi).  In ``lambda`` mode xi = (x - t^d) lam/delta
    with t^d = delta * floor(t/delta); the supercritical mode uses the same
    shift with the 1/eps scaling; the subcritical mode shifts onto the
    kernel's diagonal minimum, t^d = delta * (floor(t/delta - r) + r), with
    r = ``diag_shift``.  Where the reference is clamped, on its end runs of
    v[0] and v[-1], the paste writes those values; it interpolates only in
    between, which gives ``np.interp``'s values bit for bit (a run's slope
    is exactly 0).
    """
    if mode not in ("lambda", "supercritical", "subcritical"):
        raise ValueError(f"mode must be lambda/supercritical/subcritical, got {mode!r}")
    _check_recovery_geometry(target, eps, delta, T_profile)
    scale = _paste_scale(mode, eps, delta, lam)
    x, nodes, v = grid.nodes(), profile.grid.nodes(), profile.values
    # the reference's last node of its v[0] run and first of its v[-1] run
    lo = nodes[(int(np.argmax(v != v[0])) or v.size) - 1]
    hi = nodes[v.size - (int(np.argmax(v[::-1] != v[-1])) or v.size)]
    values = np.empty_like(x)
    for (a, b), t_j, s_j in zip(_jump_blocks(target, x), target.jump_locations, target.jump_signs):
        xi = s_j * ((x[a:b] - _jump_shift(t_j, delta, mode, diag_shift)) * scale)
        inner = (xi > lo) & (xi < hi)
        values[a:b] = np.where(xi <= lo, v[0], v[-1])
        values[a:b][inner] = np.interp(xi[inner], nodes, v)
    return GridProfile(grid, values)


def _smoothstep(q: np.ndarray) -> np.ndarray:
    q = np.clip(q, 0.0, 1.0)
    return q * q * q * (q * (6.0 * q - 15.0) + 10.0)
