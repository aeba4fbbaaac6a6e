import time

import numpy as np
import pytest

from fraclab import (
    DoubleWell,
    GridProfile,
    KernelSpec,
    MinimizeOptions,
    TransitionProblem,
    build_recovery,
    delta_rule,
    fit_loglog_slope,
    jump_half_separation,
    make_bv_target,
    make_grid,
    regime_sweep,
    transition_energy,
)
from fraclab.profiles import _start
from probes import cross_term_probe, descending_energy, kth_difference, tail_decay_probe

WELL = DoubleWell(0.0)
OPTS = MinimizeOptions(grad_tol=1e-5)
HOMOGENEOUS_TP = TransitionProblem(kernel=KernelSpec.constant(1.0), mode="homogeneous",
                                   T=2.0, n_cells=240, well=WELL,
                                   k=0, s=0.75)


@pytest.fixture(scope="module")
def homogeneous_profile():
    """A cheap ascending optimal profile for pasting, k=0, s=0.75."""
    return transition_energy(HOMOGENEOUS_TP, OPTS).profile


def test_delta_rule_values():
    assert delta_rule("critical", 0.25, lam=2.0) == 0.5
    assert delta_rule("supercritical", 0.25) == 0.0625
    assert delta_rule("subcritical", 0.25) == 0.5
    with pytest.raises(ValueError):
        delta_rule("weird", 0.25)


def test_jump_half_separation():
    t = make_bv_target([(0.25, +1), (0.75, -1)])
    assert jump_half_separation(t) == 0.125
    single = make_bv_target([(0.5, +1)])
    assert jump_half_separation(single) == 0.25


def test_fit_loglog_slope_recovers_power_law():
    xs = [1.0, 2.0, 4.0, 8.0]
    ys = [3.0 * x ** -1.7 for x in xs]
    assert fit_loglog_slope(xs, ys) == pytest.approx(-1.7, abs=1e-12)
    with pytest.raises(ValueError, match="at least two points"):
        fit_loglog_slope(xs[:1], ys[:1])
    with pytest.raises(ValueError, match="positive data"):
        fit_loglog_slope(xs, [*ys[:-1], 0.0])


def test_jump_shift_rules():
    from fraclab.experiments import _jump_shift

    assert _jump_shift(0.37, 0.1, "supercritical", 0.0) == pytest.approx(0.3)
    assert _jump_shift(0.5, 0.1, "supercritical", 0.0) == pytest.approx(0.5)
    # subcritical shift lands on the diagonal argmin modulo the period
    r = 0.5
    got = _jump_shift(0.37, 0.1, "subcritical", r)
    assert got == pytest.approx(0.35)
    assert abs(got - 0.37) <= 0.1


def test_build_recovery_matches_target_outside_windows(homogeneous_profile):
    target = make_bv_target([(0.3, +1), (0.7, -1)])
    grid = make_grid(0.0, 1.0, 512)
    eps, delta, T = 0.02, 0.02, 2.0
    rec = build_recovery(target, homogeneous_profile, eps, delta,
                         "supercritical", grid, T)
    x = grid.nodes()
    tv = target.value_at(x)
    w = eps * T + delta
    outside = np.ones(x.size, dtype=bool)
    for t_j in target.jump_locations:
        outside &= np.abs(x - t_j) > w
    np.testing.assert_array_equal(rec.values[outside], tv[outside])
    # inside the windows the paste actually transitions
    assert np.any(np.abs(rec.values - tv) > 0.5)


def test_build_recovery_rejects_an_unknown_mode(homogeneous_profile):
    with pytest.raises(ValueError, match="mode must be"):
        build_recovery(make_bv_target([(0.5, +1)]), homogeneous_profile, 0.05, 0.05,
                       "bogus", make_grid(0.0, 1.0, 128), 2.0)


def test_build_recovery_rejects_crowded_jumps(homogeneous_profile):
    target = make_bv_target([(0.48, +1), (0.52, -1)])
    grid = make_grid(0.0, 1.0, 128)
    with pytest.raises(ValueError, match="jump pair"):
        build_recovery(target, homogeneous_profile, 0.05, 0.05,
                       "supercritical", grid, 2.0)


def test_build_recovery_lambda_mode_scale(homogeneous_profile):
    target = make_bv_target([(0.5, +1)])
    grid = make_grid(0.0, 1.0, 512)
    eps = 0.02
    lam = 2.0
    delta = lam * eps
    rec = build_recovery(target, homogeneous_profile, eps, delta, "lambda",
                         grid, 2.0, lam=lam)
    # paste argument is (x - t^d) * lam/delta = (x - t^d)/eps
    x = grid.nodes()
    v = homogeneous_profile
    t_shift = delta * np.floor(0.5 / delta)
    expect = np.interp((x - t_shift) / eps, v.grid.nodes(), v.values)
    np.testing.assert_allclose(rec.values, expect, atol=1e-12)


def test_build_recovery_descending_jump_pastes_reflection(homogeneous_profile):
    # the reflected ascending profile stands in for a descending solve: it is
    # a stationary point of the descending energy, tails (+1, -1)
    target = make_bv_target([(0.5, -1)])
    grid = make_grid(0.0, 1.0, 512)
    eps = 0.02
    rec = build_recovery(target, homogeneous_profile, eps, eps, "lambda", grid, 2.0)
    down = homogeneous_profile.values[::-1]
    nodes = homogeneous_profile.grid.nodes()
    free = _start(HOMOGENEOUS_TP, homogeneous_profile.grid)[1]
    gradient = descending_energy(HOMOGENEOUS_TP).gradient(down)
    assert np.max(np.abs(gradient[free])) <= OPTS.grad_tol + 1e-12
    x = grid.nodes()
    t_shift = eps * np.floor(0.5 / eps)
    expect = np.interp((x - t_shift) / eps, nodes, down)
    np.testing.assert_allclose(rec.values, expect, rtol=0, atol=1e-12)
    assert rec.values[0] == 1.0 and rec.values[-1] == -1.0


@pytest.mark.parametrize("mode", ["lambda", "supercritical", "subcritical"])
@pytest.mark.parametrize("jumps", [[(0.5, +1)], [(0.43, -1)], [(0.25, -1), (0.75, +1)]],
                         ids=["up", "down", "two"])
def test_build_recovery_pastes_as_np_interp_at_every_node(homogeneous_profile, mode, jumps):
    # the paste writes the reference's end values where it is clamped and
    # interpolates only in between: np.interp's value at every node, bit for
    # bit; the midpoint 0.5 of the two jumps is a node, and joins the right one
    from fraclab.experiments import _jump_shift

    target, grid = make_bv_target(jumps), make_grid(0.0, 1.0, 1024)
    v = homogeneous_profile
    x, lam, r = grid.nodes(), 1.3, 0.25
    for eps, delta in ((0.02, 0.02), (0.013, 0.0071)):
        rec = build_recovery(target, v, eps, delta, mode, grid, 2.0, lam=lam, diag_shift=r)
        scale = lam / delta if mode == "lambda" else 1.0 / eps
        locs = target.jump_locations
        bounds = np.array([0.0, *[0.5 * (a + b) for a, b in zip(locs, locs[1:])], 1.0])
        j = np.clip(np.searchsorted(bounds, x, side="right") - 1, 0, len(locs) - 1)
        expect = np.empty_like(x)
        for i, (t_j, s_j) in enumerate(zip(locs, target.jump_signs)):
            xi = (x[j == i] - _jump_shift(t_j, delta, mode, r)) * scale
            expect[j == i] = np.interp(s_j * xi, v.grid.nodes(), v.values)
        assert np.array_equal(rec.values, expect)


def test_cross_term_probe_single_jump_is_zero(homogeneous_profile):
    target = make_bv_target([(0.5, +1)])
    values, slope = cross_term_probe(
        target, homogeneous_profile, [0.05, 0.025], k=0, s=0.75,
        n_cells=256, T_profile=2.0)
    assert values == [0.0, 0.0]


def test_cross_term_probe_two_jumps_positive_and_bounded(homogeneous_profile):
    target = make_bv_target([(0.3, +1), (0.7, -1)])
    eps_list = [0.04, 0.02]
    values, slope = cross_term_probe(
        target, homogeneous_profile, eps_list, k=0, s=0.75,
        n_cells=512, T_profile=2.0)
    assert all(v > 0 for v in values)
    # cross term is a restriction of the full nonlocal sum
    from fraclab.energy import _PairForm, _pair_table

    grid = make_grid(0.0, 1.0, 512)
    rec = build_recovery(target, homogeneous_profile, 0.02, 0.02 ** 2,
                         "supercritical", grid, 2.0)
    pairs = _PairForm(_pair_table(grid.n_nodes, grid.h, 0.75), KernelSpec.constant(1.0),
                      grid.nodes(), 1.0)
    total = 0.02 ** 0.5 * pairs.value(rec.values)
    assert values[1] <= total + 1e-12


@pytest.mark.parametrize("k,s", [(0, 0.75), (1, 0.5)])
@pytest.mark.parametrize("kernel", [KernelSpec.constant(1.0), KernelSpec.cos_sum(2.5, 1.0),
                                    KernelSpec.cos_prod(2.0, 0.7)],
                         ids=["none", "cos_sum", "cos_prod"])
def test_cross_term_probe_matches_explicit_masked_pair_sum(kernel, k, s):
    # the probe subtracts in-block sums from the total; the reference sums the
    # positive cross-block pair terms directly, with no cancellation.  The
    # subtraction costs up to ~3e-12 relative at k = 0, whether the operator
    # is dense or matrix-free.
    pg = make_grid(-3.0, 3.0, 120)
    xp = pg.nodes()
    profile = GridProfile(pg, np.tanh(2 * xp))
    target = make_bv_target([(0.3, +1), (0.7, -1)])
    eps_list = [0.04, 0.02]
    values, _ = cross_term_probe(target, profile, eps_list, k=k, s=s, n_cells=512,
                                 T_profile=2.0, kernel=kernel, mode="lambda")

    from fraclab.energy import _pair_table

    grid = make_grid(0.0, 1.0, 512)
    x = grid.nodes()
    idx = np.arange(x.size)
    w = _pair_table(x.size, grid.h, s).weights[np.abs(idx[:, None] - idx[None, :])]
    across = (x[:, None] < 0.5) != (x[None, :] < 0.5)
    for eps, value in zip(eps_list, values):
        rec = build_recovery(target, profile, eps, eps, "lambda", grid, 2.0)
        g = kth_difference(rec, k).values
        a = kernel.eval(x[:, None] / eps, x[None, :] / eps)
        pairs = np.sum((w * a * (g[:, None] - g[None, :]) ** 2)[across])
        assert value == pytest.approx(eps ** (2 * (k + s) - 1) * pairs, rel=5e-12)


def test_tail_decay_probe_diffs_positive_and_validates():
    g = make_grid(-64.0, 64.0, 2048)
    x = g.nodes()
    c_prime, c_dprime = 2.0, 1.0
    u = np.clip(np.tanh(1.2 * x) / np.tanh(1.2 * c_prime), -1.0, 1.0)
    u[np.abs(x) >= c_prime] = np.sign(x[np.abs(x) >= c_prime])
    p = GridProfile(g, u)
    diffs, slope = tail_decay_probe(p, [8.0, 16.0, 32.0], k=0, s=0.75, well=WELL,
                                    c_prime=c_prime, c_dprime=c_dprime,
                                    tail_signs=(-1, 1))
    assert all(d >= 0 for d in diffs)
    assert diffs == sorted(diffs, reverse=True)
    with pytest.raises(ValueError):
        tail_decay_probe(p, [2.0, 8.0], k=0, s=0.75, well=WELL,
                         c_prime=c_prime, c_dprime=c_dprime, tail_signs=(-1, 1))
    with pytest.raises(ValueError, match="tail signs"):
        tail_decay_probe(p, [8.0, 16.0], k=0, s=0.75, well=WELL,
                         c_prime=c_prime, c_dprime=c_dprime, tail_signs=(1, 1))


def test_regime_sweep_basic_properties():
    kern = KernelSpec.constant(1.0)
    target = make_bv_target([(0.5, +1)])
    eps_list = [2.0 ** -5, 2.0 ** -6]
    results = regime_sweep(kern, target, "critical", eps_list,
                           k=0, s=0.75, well=WELL, n_cells=512, T_profile=1.0,
                           window_factor=4.0, opts=OPTS)
    assert all(r.energy >= 0 for r in results)
    # clamped outside the window
    x = make_grid(0.0, 1.0, 512).nodes()
    for eps, r in zip(eps_list, results):
        w = min(0.125, 4.0 * eps)
        outside = np.abs(x - 0.5) >= w
        np.testing.assert_array_equal(
            r.profile.values[outside], np.where(x[outside] >= 0.5, 1.0, -1.0))


SUB_OPTS = MinimizeOptions(grad_tol=1e-6)


def test_subcritical_sweep_solves_once_from_the_diagonal_minimum(monkeypatch):
    from fraclab import experiments

    starts = []
    solve = experiments.minimize
    monkeypatch.setattr(experiments, "minimize",
                        lambda *args, **kw: starts.append(args[2]) or solve(*args, **kw))
    eps = 2.0 ** -7
    regime_sweep(KernelSpec.cos_sum(2.5, 1.0), make_bv_target([(0.5, +1)]), "subcritical",
                 [eps], k=0, s=0.75, well=WELL, n_cells=2000, T_profile=4.0,
                 window_factor=4.0, opts=SUB_OPTS)
    assert len(starts) == 1
    # the ramp crosses zero on the kernel's diagonal minimum r = 1/2 next to the jump
    delta = 2.0 ** -3.5
    centre = delta * (np.floor(0.5 / delta - 0.5) + 0.5)
    x, init = starts[0].grid.nodes(), starts[0].values
    i = int(np.argmax(init >= 0.0))
    assert x[i - 1] < centre <= x[i]
    crossing = x[i - 1] - init[i - 1] * (x[i] - x[i - 1]) / (init[i] - init[i - 1])
    assert abs(crossing - centre) < 0.1 * (x[1] - x[0])


def test_subcritical_sweep_leaves_the_centred_basin():
    # from a ramp centred at the jump, descent stops at 22.16 here
    results = regime_sweep(KernelSpec.cos_sum(2.5, 1.0), make_bv_target([(0.5, +1)]),
                           "subcritical", [2.0 ** -8], k=0, s=0.75, well=WELL, n_cells=4000,
                           T_profile=4.0, window_factor=16.0, opts=SUB_OPTS)
    assert results[0].energy < 18.5


# The subcritical k = 0, s = 0.75 sweep at window_factor 16 and h/eps = 0.064,
# solved on the full (0, 1) grid: eps exponent -> (n_cells, min_energy,
# iterations).  The energies were frozen with the Barzilai-Borwein solver,
# whose 2^-13 solve took 15.5 s on the full grid (one BLAS thread, 2-core
# Xeon); the iterations are those of the window solve under the two-scale
# spectral preconditioner (the full-grid solve takes the same at 2^-9 and
# 2^-11, and 57 at 2^-13 with one BLAS thread), and the full-grid solve
# reaches the frozen energies within 3.9e-10 relative.
FULL_GRID_SWEEP = {9: (8000, 17.774336328684505, 15), 11: (32000, 16.156297794964203, 17),
                   13: (128000, 14.374622617784826, 56)}


def _subcritical_point(e):
    return regime_sweep(KernelSpec.cos_sum(2.5, 1.0), make_bv_target([(0.5, +1)]),
                        "subcritical", [2.0 ** -e], k=0, s=0.75, well=WELL,
                        n_cells=FULL_GRID_SWEEP[e][0], T_profile=4.0, window_factor=16.0,
                        opts=SUB_OPTS)[0]


@pytest.mark.parametrize("e", [9, 11])
def test_subcritical_window_solve_matches_the_full_grid(e):
    n_cells, energy, iterations = FULL_GRID_SWEEP[e]
    r = _subcritical_point(e)
    assert r.energy == pytest.approx(energy, rel=1e-10, abs=0.0)
    assert r.iterations == iterations
    assert r.profile.grid.n_nodes == n_cells + 1


def test_subcritical_point_at_2_to_the_minus_13_under_5_seconds():
    t0 = time.perf_counter()
    r = _subcritical_point(13)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert r.converged
    assert r.energy == pytest.approx(FULL_GRID_SWEEP[13][1], rel=1e-9, abs=0.0)


def test_unconverged_sweep_solve_warns():
    target = make_bv_target([(0.5, +1)])
    with pytest.warns(RuntimeWarning, match=r"critical sweep solve at eps=0.03125 stopped on"
                                            r" max_iters with gradient norm") as record:
        results = regime_sweep(KernelSpec.cos_sum(2.5, 1.0), target, "critical", [2.0 ** -5],
                               k=0, s=0.75, well=WELL, n_cells=512, T_profile=1.0,
                               window_factor=4.0,
                               opts=MinimizeOptions(grad_tol=1e-7, max_iters=3))
    assert results[0].stop_reason == "max_iters"
    assert record[0].filename == __file__  # the warning names the caller


def test_regime_sweep_rejects_an_unknown_rule():
    with pytest.raises(ValueError, match="rule must be one of"):
        regime_sweep(KernelSpec.constant(1.0), make_bv_target([(0.5, +1)]), "bogus", [2.0 ** -5],
                     k=0, s=0.75, well=WELL, n_cells=128, T_profile=1.0)


def test_regime_sweep_rejects_wide_eps():
    kern = KernelSpec.constant(1.0)
    target = make_bv_target([(0.5, +1)])
    with pytest.raises(ValueError, match="separated"):
        regime_sweep(kern, target, "critical", [0.25], k=0, s=0.75, well=WELL,
                     n_cells=128, T_profile=4.0)


@pytest.mark.parametrize("window_factor", [np.nan, np.inf, 0.0, -1.0])
def test_regime_sweep_rejects_window_factor_not_positive_and_finite(window_factor):
    # a NaN used to run silently at half-width tau/2
    with pytest.raises(ValueError, match="window_factor must be positive and finite"):
        regime_sweep(KernelSpec.constant(1.0), make_bv_target([(0.5, +1)]), "critical",
                     [2.0 ** -5], k=0, s=0.75, well=WELL, n_cells=128, T_profile=1.0,
                     window_factor=window_factor)


@pytest.mark.parametrize("jumps, window_factor", [
    # no node within 1e-3 of the jump at 0.503
    ([(0.503, +1)], 1e-6), ([(0.503, +1)], 0.0), ([(0.503, +1)], -1.0),
    # the node 0.5 lies in its own window; the 0.253 window holds none
    ([(0.253, +1), (0.5, -1)], 1e-6),
], ids=["1e-06", "0.0", "-1.0", "one-of-two-empty"])
def test_regime_sweep_rejects_windows_without_nodes(jumps, window_factor):
    with pytest.raises(ValueError, match="no node lies inside the clamp windows"):
        regime_sweep(KernelSpec.constant(1.0), make_bv_target(jumps), "critical",
                     [2.0 ** -5], k=0, s=0.75, well=WELL, n_cells=128, T_profile=1.0,
                     window_factor=window_factor)


def test_window_spans_hold_exactly_the_nodes_inside_each_window():
    # the spans read a few node coordinates, computed as UniformGrid.nodes
    # does; window edges on a node exactly (t - w or t + w equal to a node's
    # coordinate: w from Sterbenz-exact differences) must stay outside
    from fraclab.experiments import _spans

    rng = np.random.default_rng(31)
    edges = 0
    for _ in range(300):
        n_cells = int(rng.choice([2, 3, 7, 128, 1000, 2001, 10**5]))
        grid = make_grid(0.0, 1.0, n_cells)
        x = grid.nodes()
        locs = np.unique(rng.uniform(0.05, 0.95, rng.integers(1, 4)))
        target = make_bv_target([(t, (-1) ** i) for i, t in enumerate(locs)])
        t = locs[0]
        left = x[(x >= 0.5 * t) & (x < t)]
        right = x[(x > t) & (x <= 2.0 * t)]
        widths = [rng.uniform(0.0, 2.0 / n_cells), *(t - left[-2:]), *(right[:2] - t)]
        for w in widths:
            edges += (t - w) in x or (t + w) in x
            for t_j, (lo, hi) in zip(locs, _spans(target, w, grid)):
                inside = np.flatnonzero((x > t_j - w) & (x < t_j + w))
                np.testing.assert_array_equal(np.arange(lo, max(lo, hi)), inside)
    assert edges > 300


def test_regime_sweep_checks_every_window_before_solving(monkeypatch):
    # eps = 2^-5's windows hold nodes, 2^-10's none: no solve may start
    from fraclab import experiments

    def unused(*args, **kwargs):
        raise AssertionError("an empty window must be rejected before the first solve")

    monkeypatch.setattr(experiments, "minimize", unused)
    with pytest.raises(ValueError, match="no node lies inside the clamp windows at eps=0.0009765625"):
        regime_sweep(KernelSpec.constant(1.0), make_bv_target([(0.503, +1)]), "critical",
                     [2.0 ** -5, 2.0 ** -10], k=0, s=0.75, well=WELL, n_cells=128, T_profile=1.0)
