"""Acceptance criteria, one test per criterion, tolerances pinned inline.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion 8 checks the regime separation against constant
effective-kernel sweeps on the same grid; its report line also shows the raw
subcritical/supercritical ratio, which at desk scale is still far from its
Gamma-limit (the onset analysis lives in its docstring).
"""

import time

import numpy as np
import pytest

from dataclasses import replace

from fraclab import (
    DiscreteEnergy,
    DoubleWell,
    EnergyParams,
    GridProfile,
    KernelSpec,
    MinimizeOptions,
    TransitionProblem,
    build_recovery,
    check_gradient,
    eval_F,
    fit_loglog_slope,
    make_bv_target,
    make_grid,
    predicted_limit,
    regime_sweep,
    resample_scaled,
    scaling_exponent,
    transition_energy,
    transition_energy_curve,
)
from fraclab.energy import _PairForm, _pair_table
from probes import cross_term_probe, descending_energy, tail_decay_probe

WELL0 = DoubleWell(0.0)
COSSUM = KernelSpec.cos_sum(2.5, 1.0)

# frozen before the build: Richardson reference (leading order 2-2s) of the
# discrete Gagliardo sum of tanh(4x) on (-4, 4), k=0, s=0.75, from the
# n=4096/8192 pair of the independent direct-sum oracle
GAGLIARDO_TANH_REFERENCE = 26.608704090285


def report(num, ok, detail):
    print(f"\n[acceptance {num:>2}] {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. Discrete scaling identity


def test_criterion_01_scaling_identity():
    """Phi^16(v) = 16^{2/3} Phi^1(resample(v, 2^{8/3})) to 1e-12 at N = 513,
    in under a second."""
    t0 = time.monotonic()
    k, s, c = 0, 0.75, 16.0
    lam = c ** scaling_exponent(k, s)
    assert lam == pytest.approx(2.0 ** (8.0 / 3.0), rel=1e-15)
    g = make_grid(-6.0, 6.0, 512)
    rng = np.random.default_rng(1)
    v = GridProfile(g, np.tanh(g.nodes()) + 0.05 * rng.standard_normal(g.n_nodes))
    rescaled = EnergyParams(k, s, 1.0, 1.0)
    lhs = DiscreteEnergy(g, rescaled, WELL0, KernelSpec.constant(c)).energy(v.values)
    small = resample_scaled(v, lam)
    rhs = c ** scaling_exponent(k, s) * DiscreteEnergy(
        small.grid, rescaled, WELL0, KernelSpec.constant(1.0)).energy(small.values)
    rel = abs(lhs - rhs) / abs(lhs)
    elapsed = time.monotonic() - t0
    assert report(1, rel <= 1e-12 and elapsed < 1.0,
                  f"identity rel err {rel:.3e} <= 1e-12 in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Transition-energy scaling law


def test_criterion_02_scaling_law():
    """m(c, T*lam)/m(1, T) = c^{1/(2(k+s))} within 1e-3 on lambda-matched
    grids at N = 1025, under two minutes total for c in {4, 16} and
    (k, s) in {(0, 0.75), (1, 0.5)}.

    The c-kernel problem on the lambda-enlarged grid is the exact discrete
    image of the homogeneous problem on the base grid.
    """
    t0 = time.monotonic()
    opts = MinimizeOptions(grad_tol=1e-6)
    ok = True
    details = []
    for k, s in ((0, 0.75), (1, 0.5)):
        base = TransitionProblem(kernel=KernelSpec.constant(1.0), mode="homogeneous",
                                 T=2.0, n_cells=1024,
                                 well=WELL0, k=k, s=s)
        m1 = transition_energy(base, opts).energy
        for c in (4.0, 16.0):
            lam = c ** scaling_exponent(k, s)
            scaled = TransitionProblem(kernel=KernelSpec.constant(c), mode="lambda",
                                       T=2.0 * lam,
                                       n_cells=1024, well=WELL0, k=k, s=s)
            mc = transition_energy(scaled, opts).energy
            rel = abs(mc / m1 - lam) / lam
            ok &= rel <= 1e-3
            details.append(f"c={c:g},(k,s)=({k},{s}): rel {rel:.2e}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    assert report(2, ok, "; ".join(details) + f" in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3 + 4. T-monotonicity, positivity, sandwich


@pytest.fixture(scope="module")
def t_curves():
    t0 = time.monotonic()
    opts = MinimizeOptions(grad_tol=1e-6)
    T_list = [2.0, 4.0, 8.0, 16.0]
    hom = TransitionProblem(kernel=KernelSpec.constant(1.0), mode="homogeneous",
                            T=4.0, n_cells=768,
                            well=WELL0, k=0, s=0.75)
    osc = replace(hom, kernel=COSSUM, mode="lambda", lam=1.0)
    hom_results = transition_energy_curve(hom, T_list, opts)
    osc_results = transition_energy_curve(osc, T_list, opts)
    return T_list, hom_results, osc_results, time.monotonic() - t0


def test_criterion_03_T_monotonicity(t_curves):
    """m(a, T) non-increasing over T in {2, 4, 8, 16}, slack 1e-6, for the
    homogeneous and cos_sum(2.5, 1) kernels, under five minutes."""
    _, hom_results, osc_results, elapsed = t_curves
    ok = elapsed < 300.0
    details = []
    for name, results in zip(("homogeneous", "cos_sum(2.5,1)"), (hom_results, osc_results)):
        vals = [r.energy for r in results]
        mono = all(b <= a + 1e-6 for a, b in zip(vals, vals[1:]))
        ok &= mono
        details.append(f"{name}: " + " >= ".join(f"{v:.6f}" for v in vals))
    assert report(3, ok, "; ".join(details) + f" in {elapsed:.1f}s")


def test_criterion_04_positivity_and_sandwich(t_curves):
    """Every m-hat > 0; min(alpha_a,1) m(1,T) <= m(a,T) <= max(beta_a,1) m(1,T)."""
    T_list, hom_results, osc_results, _ = t_curves
    ok = all(r.energy > 0 for r in hom_results + osc_results)
    details = []
    for T, rh, ro in zip(T_list, hom_results, osc_results):
        lo = min(COSSUM.alpha_a, 1.0) * rh.energy - 1e-6
        hi = max(COSSUM.beta_a, 1.0) * rh.energy + 1e-6
        ok &= lo <= ro.energy <= hi
        details.append(f"T={T:g}: {lo:.4f} <= {ro.energy:.4f} <= {hi:.4f}")
    assert report(4, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 5. Jump-direction symmetry


def test_criterion_05_jump_direction_symmetry():
    """chi = 0, even kernel: |m+ - m-|/m+ <= 1e-3; chi = 0.4: <= 1e-10, since
    the reflection x -> -x maps one direction onto the other for every chi.
    m- is the descending energy (tails +1, -1) at the reflected minimizer."""
    opts = MinimizeOptions(grad_tol=1e-6)

    def up_and_down(tp):
        up = transition_energy(tp, opts)
        return up.energy, descending_energy(tp).energy(up.profile.values[::-1])

    tp = TransitionProblem(kernel=COSSUM, mode="lambda", lam=1.0,
                           T=4.0, n_cells=768, well=WELL0, k=0, s=0.75)
    m_up, m_dn = up_and_down(tp)
    rel = abs(m_up - m_dn) / m_up
    m_up_t, m_dn_t = up_and_down(replace(tp, well=DoubleWell(0.4), n_cells=512))
    rel_t = abs(m_up_t - m_dn_t) / m_up_t
    ok = rel <= 1e-3 and rel_t <= 1e-10
    assert report(5, ok,
                  f"chi=0: |m+ - m-|/m+ = {rel:.2e} (<= 1e-3); chi=0.4: m+={m_up_t:.12f},"
                  f" m-={m_dn_t:.12f}, |m+ - m-|/m+ = {rel_t:.2e} (<= 1e-10)")


# ---------------------------------------------------------------------------
# 6. Gradient correctness


def test_criterion_06_gradient_checks():
    """check_gradient <= 1e-6 for k in {0,1,2}, N = 257, 5 seeds each,
    under 30 seconds."""
    t0 = time.monotonic()
    worst = 0.0
    for k, s in ((0, 0.75), (1, 0.5), (2, 0.3)):
        grid = make_grid(-4.0, 4.0, 256)
        model = DiscreteEnergy(grid, EnergyParams(k, s, 1.0, 1.0), DoubleWell(0.25), COSSUM)
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            vals = np.tanh(grid.nodes()) + 0.2 * rng.standard_normal(grid.n_nodes)
            err = check_gradient(model.energy, model.gradient, GridProfile(grid, vals))
            worst = max(worst, err)
    elapsed = time.monotonic() - t0
    assert report(6, worst <= 1e-6 and elapsed < 30.0,
                  f"worst FD discrepancy {worst:.3e} <= 1e-6 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. Regime convergence (critical)


def test_criterion_07_regime_convergence_critical():
    """Constant(1), lam = 1, single jump, eps in {2^-3..2^-6} at N = 2049:
    the minima approach the matching-resolution transition energy, the final
    relative gap is <= 5 percent, the gap sequence decreases, and the whole
    run stays under five minutes."""
    t0 = time.monotonic()
    k, s = 1, 0.5
    opts = MinimizeOptions(grad_tol=1e-5)
    target = make_bv_target([(0.5, +1)])
    eps_list = [2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6]
    results = regime_sweep(KernelSpec.constant(1.0), target, "critical", eps_list,
                           k=k, s=s, well=WELL0, n_cells=2048, T_profile=1.0,
                           window_factor=8.0, lam=1.0, opts=opts)
    # reference at the resolution of the smallest eps: h_xi = (1/2048)/2^-6 = 1/32
    ref_tp = TransitionProblem(kernel=KernelSpec.constant(1.0), mode="homogeneous",
                               T=16.0, n_cells=3072,
                               well=WELL0, k=k, s=s)
    m_ref = transition_energy(ref_tp, opts).energy
    gaps = [abs(r.energy - m_ref) / m_ref for r in results]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    elapsed = time.monotonic() - t0
    ok = gaps[-1] <= 0.05 and decreasing and elapsed < 300.0
    assert report(7, ok,
                  f"m_ref={m_ref:.6f}; gaps " +
                  " > ".join(f"{g:.4f}" for g in gaps) +
                  f"; final {gaps[-1]:.4f} <= 0.05, decreasing={decreasing},"
                  f" {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. Regime separation (sub vs super), against same-geometry effective kernels


def test_criterion_08_regime_separation():
    """CosSum(2.5,1), single jump, (k,s) = (0,0.75), eps in {2^-5, 2^-6, 2^-7}
    on (0, 1) with n_cells = 2000: the regime separation, checked as three
    factors of the limit ratio (a_inf/a_bar)^{1/(2(k+s))} = 0.342.

    The Gamma-limits are the energies of the constant effective kernels:
    a_bar = 2.5 for the supercritical rule (delta = eps^2) and a_inf = 0.5
    for the subcritical rule (delta = sqrt(eps)).  Both constant kernels are
    swept on the same grid, clamp windows and eps as the oscillating kernel
    (E[c] = regime_sweep of KernelSpec.constant(c); delta does not enter a
    constant kernel), and

        sub / super = (sub / E[a_inf]) * (E[a_inf] / E[a_bar]) * (E[a_bar] / super).

    1. Limit factor: E[a_inf]/E[a_bar] at eps = 2^-7 lies within 10 percent
       of 0.342.  On this geometry it is +6.4 percent off: truncating the
       domain to (0, 1) and the O(h^{1/2}) diagonal band of the nodal
       quadrature shift the constant-kernel ratio at finite eps, whatever
       the regime.
    2. Supercritical separation: |super/E[a_bar] - 1| <= 0.02 at every eps
       (measured worst case 0.009).  This agreement is measured under kernel
       aliasing: delta = eps^2 lies below 2h at every sweep point
       (delta/h = 1.95, 0.49, 0.12), so the nodal quadrature samples an
       aliased kernel rather than resolving its oscillation.
    3. Subcritical separation: the excess sub/E[a_inf] - 1 decreases
       strictly along the sweep (1.773 > 1.664 > 1.469 when measured), and
       sub < super at every eps.

    Each factor fails for a fault of its own: a sweep that drops
    delta breaks 2, a subcritical rule with the critical or the
    supercritical delta breaks 3, and a constant kernel that scales wrongly
    breaks 1.

    The subcritical excess is large because its onset is slow.  For k = 0,
    s = 0.75 the energy of a transition keeps an L^{-(2s-1)} = L^{-1/2}
    share in pairs separated by L, so a fraction of order (eps/delta)^{1/2}
    of the energy samples kernel phases away from the diagonal minimum.
    With delta = sqrt(eps) the subcritical minima approach their a_inf limit
    only as O(eps^{1/4}) with a 9x kernel contrast; the raw ratio sub/super
    (0.900 at eps = 2^-7) would reach the 10 percent band around 0.342 only
    near eps ~ 2^-24 (n >> 10^7 nodes).  The paper gives no rate for the
    Gamma-convergence, so the raw ratio is reported, not asserted.  The
    count of oscillating-kernel solves that stop short of grad_tol is
    reported, not asserted; every one of the six converges today.
    """
    k, s = 0, 0.75
    opts = MinimizeOptions(grad_tol=1e-6)
    target = make_bv_target([(0.5, +1)])
    eps_list = [2.0 ** -5, 2.0 ** -6, 2.0 ** -7]
    common = dict(k=k, s=s, well=WELL0, n_cells=2000, T_profile=4.0,
                  window_factor=4.0, opts=opts)

    sub_results = regime_sweep(COSSUM, target, "subcritical", eps_list, **common)
    sup_results = regime_sweep(COSSUM, target, "supercritical", eps_list, **common)

    def effective(c):  # a constant kernel: the rule's delta drops out
        return [r.energy for r in regime_sweep(
            KernelSpec.constant(c), target, "supercritical", eps_list, **common)]

    e_inf, e_bar = effective(COSSUM.a_inf), effective(COSSUM.a_bar)
    sub = [r.energy for r in sub_results]
    sup = [r.energy for r in sup_results]

    target_ratio = (COSSUM.a_inf / COSSUM.a_bar) ** scaling_exponent(k, s)
    limit_factor = e_inf[-1] / e_bar[-1]
    limit_rel = limit_factor / target_ratio - 1.0
    super_dev = [b / e - 1.0 for b, e in zip(sup, e_bar)]
    sub_excess = [a / e - 1.0 for a, e in zip(sub, e_inf)]
    limit_ok = abs(limit_rel) <= 0.10
    super_ok = all(abs(d) <= 0.02 for d in super_dev)
    sub_ok = all(b < a for a, b in zip(sub_excess, sub_excess[1:]))
    ordering = all(a < b for a, b in zip(sub, sup))
    raw = sub[-1] / sup[-1]
    unconverged = sum(not r.converged for r in sub_results + sup_results)
    ok = limit_ok and super_ok and sub_ok and ordering
    report(8, ok,
           f"raw sub/super={raw:.4f} vs {target_ratio:.4f}"
           f" (rel {raw / target_ratio - 1.0:+.3f}) ="
           f" (1+excess) {sub[-1] / e_inf[-1]:.4f}"
           f" x limit {limit_factor:.4f} (rel {limit_rel:+.3f}, <= 0.10)"
           f" / super/E[a_bar] {sup[-1] / e_bar[-1]:.4f};"
           " super/E[a_bar]-1 " + ", ".join(f"{d:+.4f}" for d in super_dev) +
           " within 0.02; sub excess " + ", ".join(f"{e:.3f}" for e in sub_excess) +
           f" decreasing={sub_ok}; ordering sub<super={ordering};"
           f" unconverged cos_sum solves {unconverged}/{len(sub_results + sup_results)}")
    assert ok, (
        "regime separation broken: limit factor E[a_inf]/E[a_bar] ="
        f" {limit_factor:.4f} vs {target_ratio:.4f} +- 10% ({limit_ok});"
        f" supercritical sweep vs E[a_bar] within 2% at every eps ({super_ok});"
        f" subcritical excess over E[a_inf] decreasing ({sub_ok});"
        f" sub < super at every eps ({ordering})."
    )


def test_regime_separation_k1_raw_ratio_in_band():
    """Criterion 8's construction at (k, s) = (1, 0.75), where the raw ratio
    reaches its band at desk scale: CosSum(2.5,1), one jump, eps in
    {2^-11, 2^-12, 2^-13} on n_cells = 128000 with window_factor 16.

    Criterion 8's onset heuristic (the energy share of pairs farther apart
    than delta, in units of the transition length) predicts an excess
    sub/E[a_inf] - 1 falling like eps^s = eps^{3/4} at k = 1, against
    eps^{1/4} at k = 0; the paper proves no rate, so the fitted slope is
    reported, not asserted.  Asserted:

    1. the raw ratio sub/super at eps = 2^-13 within 10 percent of
       (a_inf/a_bar)^{1/(2(k+s))} = 0.6314 (measured +3.0 percent);
    2. the excess decreasing strictly (measured 0.093, 0.057, 0.035);
    3. the limit factor E[a_inf]/E[a_bar] within 2 percent of 0.6314 at
       every eps (measured -0.3 to -0.6 percent).
    """
    k, s = 1, 0.75
    target = make_bv_target([(0.5, +1)])
    eps_list = [2.0 ** -11, 2.0 ** -12, 2.0 ** -13]
    common = dict(k=k, s=s, well=WELL0, n_cells=128000, T_profile=4.0,
                  window_factor=16.0, opts=MinimizeOptions(grad_tol=1e-6))

    def energies(kernel, rule):
        return [r.energy for r in regime_sweep(kernel, target, rule, eps_list, **common)]

    sub, sup = energies(COSSUM, "subcritical"), energies(COSSUM, "supercritical")
    # a constant kernel: the rule's delta drops out
    e_inf = energies(KernelSpec.constant(COSSUM.a_inf), "supercritical")
    e_bar = energies(KernelSpec.constant(COSSUM.a_bar), "supercritical")

    target_ratio = (COSSUM.a_inf / COSSUM.a_bar) ** scaling_exponent(k, s)
    raw_rel = sub[-1] / sup[-1] / target_ratio - 1.0
    excess = [a / e - 1.0 for a, e in zip(sub, e_inf)]
    limit_rel = [a / b / target_ratio - 1.0 for a, b in zip(e_inf, e_bar)]
    raw_ok = abs(raw_rel) <= 0.10
    excess_ok = all(b < a for a, b in zip(excess, excess[1:]))
    limit_ok = all(abs(r) <= 0.02 for r in limit_rel)
    slope = fit_loglog_slope(eps_list, excess) if min(excess) > 0 else float("nan")
    ok = raw_ok and excess_ok and limit_ok
    report("8b", ok,
           f"k=1: raw sub/super rel {raw_rel:+.3f} (<= 0.10) at eps=2^-13; sub excess "
           + ", ".join(f"{e:.3f}" for e in excess) + f" decreasing={excess_ok},"
           f" fitted slope {slope:.3f} (heuristic {s:g}); limit factor rel "
           + ", ".join(f"{r:+.4f}" for r in limit_rel) + " within 0.02")
    assert ok, (f"k = 1 regime separation broken: raw ratio in band ({raw_ok}), excess"
                f" decreasing ({excess_ok}), limit factor within 2% ({limit_ok})")


def test_regime_separation_constant_kernel_formulas():
    """Exact-formula counterpart of criterion 8: the transition energies of
    the two constant effective kernels, each solved on a grid matched to its
    scaling length lam = c^{1/(2(k+s))}, reproduce (a_inf/a_bar)^{1/(2(k+s))}
    to 1e-3.  No sweep runs here; the sweep ordering (subcritical below
    supercritical at equal eps) is checked in criterion 8."""
    k, s = 0, 0.75
    opts = MinimizeOptions(grad_tol=1e-6)
    gamma = scaling_exponent(k, s)
    m = {}
    for name, const in (("inf", COSSUM.a_inf), ("bar", COSSUM.a_bar)):
        lam = const ** gamma
        tp = TransitionProblem(kernel=KernelSpec.constant(const), mode="lambda",
                               T=2.0 * lam,
                               n_cells=768, well=WELL0, k=k, s=s)
        m[name] = transition_energy(tp, opts).energy
    ratio = m["inf"] / m["bar"]
    target_ratio = (COSSUM.a_inf / COSSUM.a_bar) ** gamma
    assert ratio == pytest.approx(target_ratio, rel=1e-3)


# ---------------------------------------------------------------------------
# 9. Recovery limsup


@pytest.fixture(scope="module")
def recovery_setup():
    opts = MinimizeOptions(grad_tol=1e-6)
    k, s, T = 0, 0.75, 4.0
    m1 = transition_energy(
        TransitionProblem(kernel=KernelSpec.constant(1.0), mode="homogeneous",
                          T=T, n_cells=1024,
                          well=WELL0, k=k, s=s), opts).energy
    grid = make_grid(0.0, 1.0, 2000)
    return opts, k, s, T, m1, grid


@pytest.mark.parametrize("mode", ["lambda", "supercritical", "subcritical"])
def test_criterion_09_recovery_limsup(recovery_setup, mode):
    """F(recovery) <= 1.05 * predicted at eps = 2^-6 for 1- and 2-jump targets.

    The lambda and supercritical modes use the steep kernel CosSum(2.5, 1);
    the subcritical paste needs eps << delta << jump separation, and at
    eps = 2^-6 a steep kernel's diagonal valley is narrower than the
    transition layer, so its demo uses the mild kernel CosSum(2.5, 0.15)
    (separation from the mean still ~10 percent of the prediction).
    """
    opts, k, s, T, m1, grid = recovery_setup
    eps = 2.0 ** -6
    kern = COSSUM if mode != "subcritical" else KernelSpec.cos_sum(2.5, 0.15)

    tp = TransitionProblem(kernel=kern, mode=mode, lam=1.0, T=T,
                           n_cells=1024, well=WELL0, k=k, s=s)
    # one ascending solve; a descending jump pastes its reflection
    res = transition_energy(tp, opts)

    targets = {
        1: make_bv_target([(0.5, +1)]),
        2: make_bv_target([(1.0 / 3.0, +1), (2.0 / 3.0, -1)]),
    }
    deltas = {
        "lambda": {1: eps, 2: eps},
        "supercritical": {1: eps * eps, 2: eps * eps},
        "subcritical": {1: 0.125, 2: 0.09375},
    }
    ok = True
    details = []
    for nj, target in targets.items():
        delta = deltas[mode][nj]
        rec = build_recovery(target, res.profile, eps, delta, mode, grid, T,
                             lam=1.0, diag_shift=kern.diag_argmin())
        energy = eval_F(rec, EnergyParams(k, s, eps, delta), WELL0, kern)
        pred = predicted_limit(kern, mode, k, s, len(target.jump_locations),
                               res.energy if mode == "lambda" else m1)
        ratio = energy / pred
        ok &= ratio <= 1.05
        details.append(f"{nj}-jump: F/pred = {ratio:.4f}")
    assert report(9, ok, f"mode={mode}: " + "; ".join(details) + " (<= 1.05)")


# ---------------------------------------------------------------------------
# 10. Decay probes


def test_criterion_10_decay_probes():
    """cross-term slope 2s +- 0.3 at (k,s) = (1, 0.5); tail-decay slopes
    -2s +- 0.3 (k = 1) and -(2s-1) +- 0.3 (k = 0, s = 0.75), four dyadic
    points each."""
    opts = MinimizeOptions(grad_tol=1e-5)

    # cross-interval interactions of the recovery profile, k = 1
    k, s = 1, 0.5
    tp = TransitionProblem(kernel=KernelSpec.constant(1.0), mode="homogeneous",
                           T=2.0, n_cells=768,
                           well=WELL0, k=k, s=s)
    up = transition_energy(tp, opts).profile
    target = make_bv_target([(0.25, +1), (0.75, -1)])
    _, cross_slope = cross_term_probe(
        target, up, [2.0 ** -5, 2.0 ** -6, 2.0 ** -7, 2.0 ** -8],
        k=k, s=s, n_cells=4096, T_profile=2.0)
    ok = abs(cross_slope - 2 * s) <= 0.3
    details = [f"cross-term slope {cross_slope:.3f} (target {2 * s:g} +- 0.3)"]

    # truncation-tail decay for a clamped transition profile
    for kk, ss, slope_target in ((1, 0.5, -1.0), (0, 0.75, -0.5)):
        tpp = TransitionProblem(kernel=KernelSpec.constant(1.0), mode="homogeneous",
                                T=2.0, n_cells=384,
                                well=WELL0, k=kk, s=ss)
        r = transition_energy(tpp, opts)
        gb = make_grid(-64.0, 64.0, 4096)
        xb = gb.nodes()
        vals = np.interp(xb, r.profile.grid.nodes(), r.profile.values)
        vals[np.abs(xb) >= 2.0] = np.sign(xb[np.abs(xb) >= 2.0])
        _, slope = tail_decay_probe(GridProfile(gb, vals), [4.0, 8.0, 16.0, 32.0],
                                    k=kk, s=ss, well=WELL0, c_prime=2.0,
                                    c_dprime=1.0, tail_signs=(-1, 1))
        ok &= abs(slope - slope_target) <= 0.3
        details.append(f"tail k={kk}: slope {slope:.3f} (target {slope_target:g} +- 0.3)")
    assert report(10, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 11. Lambda continuity


def test_criterion_11_lambda_continuity():
    """CosSum(2.5,1), lam = 1 +- 5 percent: m-hat spread <= 5 percent."""
    tp = TransitionProblem(kernel=COSSUM, mode="lambda", lam=1.0,
                           T=4.0, n_cells=768, well=WELL0, k=0, s=0.75)
    opts = MinimizeOptions(grad_tol=1e-6)
    a, b, c = [transition_energy(replace(tp, lam=lam), opts).energy for lam in (1.0, 0.95, 1.05)]
    spread = (max(a, b, c) - min(a, b, c)) / a
    ok = spread <= 0.05 and min(a, b, c) > 0
    assert report(11, ok,
                  f"m(1)={a:.6f} m(0.95)={b:.6f} m(1.05)={c:.6f} spread {spread:.4f} <= 0.05")


# ---------------------------------------------------------------------------
# 12. Quadrature consistency


def test_criterion_12_quadrature_consistency():
    """The diagonal-skipping sum on tanh(4x) has the predicted h^{2-2s} band
    deficit; after removing it by one Richardson step at the known order, the
    remainder converges to the pre-build reference with observed order >= 1."""
    s = 0.75
    vals = []
    ns = [256, 512, 1024, 2048]
    for n in ns:
        g = make_grid(-4.0, 4.0, n)
        p = GridProfile(g, np.tanh(4.0 * g.nodes()))
        pairs = _PairForm(_pair_table(g.n_nodes, g.h, s), KernelSpec.constant(1.0), g.nodes(),
                          1.0)
        vals.append(pairs.value(p.values))
    r = 2.0 ** (2.0 - 2.0 * s)
    corrected = [b + (b - a) / (r - 1.0) for a, b in zip(vals, vals[1:])]
    errs = [abs(c - GAGLIARDO_TANH_REFERENCE) for c in corrected]
    orders = [np.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
    ok = all(o >= 1.0 for o in orders) and errs == sorted(errs, reverse=True)
    assert report(12, ok,
                  f"corrected errors {[f'{e:.2e}' for e in errs]} vs frozen"
                  f" reference; observed orders {[f'{o:.3f}' for o in orders]} >= 1")
