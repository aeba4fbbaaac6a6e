"""Built-in invariant suite at small N, behind ``fraclab selftest``."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .energy import (DiscreteEnergy, DoubleWell, EnergyParams, KernelSpec, _PairForm,
                     _pair_table)
from .grid import GridProfile, make_grid, resample_scaled
from .optimize import MinimizeOptions, check_gradient
from .profiles import (TransitionProblem, scaling_exponent, transition_energy,
                       transition_energy_curve)

__all__ = ["selftest"]


def _selftest_checks():
    rng = np.random.default_rng(20240811)
    well = DoubleWell(0.2)
    kern = KernelSpec.cos_sum(2.5, 1.0)
    checks = []

    # gradient vs central differences, all supported orders
    for k, s in ((0, 0.75), (1, 0.5), (2, 0.3)):
        grid = make_grid(-4.0, 4.0, 96)
        model = DiscreteEnergy(grid, EnergyParams(k, s, 1.0, 1.0), well, kern)
        vals = np.tanh(grid.nodes()) + 0.1 * rng.standard_normal(grid.n_nodes)
        err = check_gradient(model.energy, model.gradient, GridProfile(grid, vals))
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
    rhs = lam * DiscreteEnergy(small.grid, rescaled, well,
                               KernelSpec.constant(1.0)).energy(small.values)
    rel = abs(lhs - rhs) / lhs
    checks.append(("scaling identity", rel <= 1e-12, f"rel err {rel:.3e}"))

    # monotone T-curve, homogeneous kernel, small N
    tp = TransitionProblem(kernel=KernelSpec.constant(1.0), mode="homogeneous", T=2.0,
                           n_cells=192, well=DoubleWell(0.0), k=0, s=0.75)
    T_list = [2.0, 4.0]
    m = [r.energy for r in transition_energy_curve(tp, T_list, MinimizeOptions(grad_tol=1e-5))]
    checks.append(("T-monotonicity", m[1] <= m[0] + 1e-6,
                   f"m({T_list[0]})={m[0]:.6f} m({T_list[1]})={m[1]:.6f}"))

    # jump symmetry for a tilted well: the descending energy at the reflected minimizer
    tp_sym = TransitionProblem(kernel=kern, mode="lambda", lam=1.0, T=2.0,
                               n_cells=192, well=well, k=0, s=0.75)
    opts = MinimizeOptions(grad_tol=1e-5)
    up = transition_energy(tp_sym, opts)
    kspec, params = tp_sym.effective_kernel()
    down = DiscreteEnergy(up.profile.grid, params, well, kspec, (1, -1))
    m_up, m_dn = up.energy, down.energy(up.profile.values[::-1])
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

    # the two-scale preconditioner on a lambda = 1 transition block: P^-1
    # symmetric and positive definite on the free nodes
    for k, s in ((0, 0.75), (1, 0.5)):
        grid = make_grid(-6.0, 6.0, 96)
        model = DiscreteEnergy(grid, EnergyParams(k, s, 1.0, 1.0), well, kern, (-1, 1))
        free = np.abs(grid.nodes()) < 2.0
        apply = model.preconditioner(free)
        pinv = np.array([apply(e)[free] for e in np.eye(grid.n_nodes)[free]])
        asym = float(np.max(np.abs(pinv - pinv.T)) / np.max(np.abs(pinv)))
        least = float(np.linalg.eigvalsh(0.5 * (pinv + pinv.T)).min())
        checks.append((f"preconditioner SPD k={k}", asym <= 1e-13 and least > 0.0,
                       f"asym {asym:.1e}, least eigenvalue {least:.3e}"))

    # matrix-free pair operator against the explicit O(N^2) sum, row by row
    grid = make_grid(-1.0, 1.0, 96)
    table = _pair_table(grid.n_nodes, grid.h, 0.75)
    x, w, g = grid.nodes(), table.weights, np.sin(3.0 * grid.nodes())
    for kspec in (KernelSpec.constant(2.0), kern, KernelSpec.cos_prod(2.0, 0.7)):
        fast = _PairForm(table, kspec, x, 0.3).apply(g)
        ref = np.array([w[abs(i - np.arange(x.size))] * kspec.eval(xi / 0.3, x / 0.3) @ g
                        for i, xi in enumerate(x)])
        rel = float(np.max(np.abs(fast - ref)) / np.max(np.abs(ref)))
        checks.append((f"matrix-free {kspec.kind}", rel <= 1e-13, f"rel err {rel:.3e}"))
    return checks


def selftest() -> tuple[bool, str]:
    """Run the invariant suite at small N; returns (all_passed, report)."""
    checks = _selftest_checks()
    width = max(len(name) for name, _, _ in checks)
    lines = [f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}"
             for name, ok, detail in checks]
    passed = all(ok for _, ok, _ in checks)
    lines.append(f"{'overall':<{width}}  {'PASS' if passed else 'FAIL'}")
    return passed, "\n".join(lines) + "\n"
