"""Decay probes and the nodal k-th difference that only the tests call.

The recovery construction rests on two decay trends: cross-interval
interactions die like eps^{2s}, and truncation tails like a power of T.
``cross_term_probe`` and ``tail_decay_probe`` measure them for acceptance
criterion 10 and their own tests; ``kth_difference`` is D_k as a function of
a profile, the reference the energy's stencil tests compare against;
``descending_energy`` is the energy of a descending transition, which no
solve minimizes since it is the ascending one reflected.  No command, CSV or
benchmark reaches them, so they live here, beside the tests, and not in the
package.  Pytest does not collect this module; the tests import it by name.
"""

from __future__ import annotations

import math

import numpy as np

from fraclab.energy import (DiscreteEnergy, DoubleWell, EnergyParams, KernelSpec, _PairForm,
                            _pair_table)
from fraclab.experiments import _jump_blocks, build_recovery, fit_loglog_slope
from fraclab.grid import SUPPORTED_ORDERS, BVTarget, GridProfile, _stencil_apply, make_grid
from fraclab.profiles import TransitionProblem


def descending_energy(tp: TransitionProblem) -> DiscreteEnergy:
    """The energy of ``tp``'s grid with the tails (+1, -1) in place of the
    solve's (-1, +1): the descending transition between the same phases."""
    kspec, params = tp.effective_kernel()
    grid = make_grid(-tp.T_out, tp.T_out, tp.n_cells)
    return DiscreteEnergy(grid, params, tp.well, kspec, tail_signs=(1, -1))


def kth_difference(p: GridProfile, k: int) -> GridProfile:
    """k-th derivative of a nodal profile; k = 0 returns the profile unchanged.

    Second-order central differences at interior nodes and second-order
    one-sided differences at the k boundary nodes on each side: exact on
    polynomials up to degree k (hence annihilates degree < k).  h^-k is
    applied after the stencil, so a pure phase +-1 maps to exactly zero on
    every grid.
    """
    if k not in SUPPORTED_ORDERS:
        raise ValueError(f"derivative order k must be one of {SUPPORTED_ORDERS}, got {k}")
    if k == 0:
        return p
    if p.grid.n_nodes < 2 * k + 1:
        raise ValueError(f"k={k} needs at least {2 * k + 1} nodes, grid has {p.grid.n_nodes}")
    return GridProfile(p.grid, _stencil_apply(p.values, k) * p.grid.h ** -k)


def cross_term_probe(target: BVTarget, profile: GridProfile, eps_list, *, k: int,
                     s: float, n_cells: int, T_profile: float,
                     kernel: KernelSpec = KernelSpec.constant(1.0),
                     mode: str = "supercritical"):
    """Cross-interval interaction energy of the recovery profile per eps,
    with delta = eps, pasted from ``profile`` as in ``build_recovery``.

    Sums the eps-scaled nonlocal energy over node pairs lying in distinct
    jump intervals I_i x I_j and fits a log-log slope against eps (the
    interactions die as O(eps^{2s}) for k >= 1).
    """
    eps_list = [float(e) for e in eps_list]
    grid = make_grid(0.0, 1.0, n_cells)
    x = grid.nodes()
    n_jumps = len(target.jump_locations)
    if n_jumps < 2:
        return [0.0] * len(eps_list), math.nan
    blocks = _jump_blocks(target, x)

    table = _pair_table(grid.n_nodes, grid.h, s)
    values = []
    for eps in eps_list:
        rec = build_recovery(target, profile, eps, eps, mode, grid, T_profile)
        g = kth_difference(rec, k).values
        # ordered pairs in distinct blocks: the total minus each block's own
        # sum, whose weights are W's leading Toeplitz block
        cross = _PairForm(table, kernel, x, eps).value(g)
        for m0, m1 in blocks:
            block = _pair_table(m1 - m0, grid.h, s)
            cross -= _PairForm(block, kernel, x[m0:m1], eps).value(g[m0:m1])
        values.append(EnergyParams(k, s, eps, eps).nonlocal_coef * cross)
    slope = fit_loglog_slope(eps_list, values) if len(values) >= 2 else math.nan
    return values, slope


def tail_decay_probe(p: GridProfile, T_list, *, k: int, s: float,
                     well: DoubleWell, c_prime: float, c_dprime: float,
                     tail_signs):
    """Truncation-tail differences Phi(v) - Phi_T(v) against T, for the
    constant kernel 1 at scale 1.

    ``p`` must be clamped to the tail signs outside (-c_prime, c_prime) on a
    symmetric master grid; the full-line energy is the master grid's with its
    closed-form exterior tail, counted over ordered pairs like the pair sum.
    Every T must exceed max(c_prime, 3 c_dprime) and land on the node
    lattice.  Returns the differences and their log-log slope against T,
    which tends to -2s for k >= 1 and -(2s - 1) for k = 0.
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

    params, unit = EnergyParams(k, s, 1.0, 1.0), KernelSpec.constant(1.0)

    def phi(sub_grid, values, signs=None):
        return DiscreteEnergy(sub_grid, params, well, unit, signs).energy(values)

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
    slope = fit_loglog_slope(T_list, diffs)
    return diffs, slope
