import numpy as np
import pytest

from fraclab import (
    DoubleWell,
    GridProfile,
    KernelSpec,
    MinimizeOptions,
    TransitionProblem,
    build_recovery,
    cross_term_probe,
    delta_rule,
    fit_loglog_slope,
    flatten_tail,
    jump_half_separation,
    make_bv_target,
    make_grid,
    regime_sweep,
    sample_bv_target,
    tail_decay_probe,
    transition_energy,
)

WELL = DoubleWell(0.0)
OPTS = MinimizeOptions(grad_tol=1e-5)


@pytest.fixture(scope="module")
def homogeneous_profiles():
    """Cheap per-sign optimal profiles for pasting, k=0, s=0.75."""
    tp = TransitionProblem(kernel=KernelSpec.constant(1.0), mode="homogeneous",
                           omega=1, T=2.0, T_out=6.0, n_cells=240, well=WELL,
                           k=0, s=0.75)
    from dataclasses import replace
    up = transition_energy(tp, OPTS).profile
    down = transition_energy(replace(tp, omega=-1), OPTS).profile
    return {+1: up, -1: down}


def test_delta_rule_values():
    assert delta_rule("critical", 0.25, lam=2.0) == 0.5
    assert delta_rule("supercritical", 0.25) == 0.0625
    assert delta_rule("subcritical", 0.25) == 0.5
    with pytest.raises(ValueError):
        delta_rule("weird", 0.25)


def test_jump_half_separation():
    t = make_bv_target([(0.25, +1), (0.75, -1)], left_value=-1)
    assert jump_half_separation(t) == 0.125
    single = make_bv_target([(0.5, +1)])
    assert jump_half_separation(single) == 0.25


def test_fit_loglog_slope_recovers_power_law():
    xs = [1.0, 2.0, 4.0, 8.0]
    ys = [3.0 * x ** -1.7 for x in xs]
    assert fit_loglog_slope(xs, ys) == pytest.approx(-1.7, abs=1e-12)


def test_jump_shift_rules():
    from fraclab.experiments import _jump_shift

    assert _jump_shift(0.37, 0.1, "supercritical", 0.0) == pytest.approx(0.3)
    assert _jump_shift(0.5, 0.1, "supercritical", 0.0) == pytest.approx(0.5)
    # subcritical shift lands on the diagonal argmin modulo the period
    r = 0.5
    got = _jump_shift(0.37, 0.1, "subcritical", r)
    assert got == pytest.approx(0.35)
    assert abs(got - 0.37) <= 0.1


def test_build_recovery_matches_target_outside_windows(homogeneous_profiles):
    target = make_bv_target([(0.3, +1), (0.7, -1)], left_value=-1)
    grid = make_grid(0.0, 1.0, 512)
    eps, delta, T = 0.02, 0.02, 2.0
    rec = build_recovery(target, homogeneous_profiles, eps, delta,
                         "supercritical", grid, T)
    x = grid.nodes()
    tv = sample_bv_target(target, grid).values
    w = eps * T + delta
    outside = np.ones(x.size, dtype=bool)
    for t_j in target.jump_locations:
        outside &= np.abs(x - t_j) > w
    np.testing.assert_array_equal(rec.values[outside], tv[outside])
    # inside the windows the paste actually transitions
    assert np.any(np.abs(rec.values - tv) > 0.5)


def test_build_recovery_rejects_crowded_jumps(homogeneous_profiles):
    target = make_bv_target([(0.48, +1), (0.52, -1)], left_value=-1)
    grid = make_grid(0.0, 1.0, 128)
    with pytest.raises(ValueError, match="jump pair"):
        build_recovery(target, homogeneous_profiles, 0.05, 0.05,
                       "supercritical", grid, 2.0)


def test_build_recovery_lambda_mode_scale(homogeneous_profiles):
    target = make_bv_target([(0.5, +1)])
    grid = make_grid(0.0, 1.0, 512)
    eps = 0.02
    lam = 2.0
    delta = lam * eps
    rec = build_recovery(target, homogeneous_profiles, eps, delta, "lambda",
                         grid, 2.0, lam=lam)
    # paste argument is (x - t^d) * lam/delta = (x - t^d)/eps
    x = grid.nodes()
    v = homogeneous_profiles[+1]
    t_shift = delta * np.floor(0.5 / delta)
    expect = np.interp((x - t_shift) / eps, v.grid.nodes(), v.values)
    np.testing.assert_allclose(rec.values, expect, atol=1e-12)


def test_flatten_tail_identity_on_already_flat():
    g = make_grid(-6.0, 6.0, 240)
    x = g.nodes()
    u = np.where(x < 2.0, np.tanh(2 * x), 1.0)
    u[x >= 2.0] = 1.0
    p = GridProfile(g, u)
    out, ratio = flatten_tail(p, 2.0, 4.0, 4, "right", +1, k=0, s=0.75, well=WELL)
    np.testing.assert_array_equal(out.values, p.values)
    assert ratio == 1.0


def test_flatten_tail_flattens_beyond_c_prime():
    g = make_grid(-6.0, 6.0, 360)
    x = g.nodes()
    p = GridProfile(g, np.tanh(1.5 * x))
    out, ratio = flatten_tail(p, 2.0, 5.0, 6, "right", +1, k=0, s=0.75, well=WELL)
    assert np.all(out.values[x >= 5.0] == 1.0)
    # untouched to the left of the window
    np.testing.assert_array_equal(out.values[x < 2.0], p.values[x < 2.0])
    assert ratio >= 1.0  # flattening trades tail energy for cutoff energy


def test_flatten_tail_ratio_trend_toward_one():
    g = make_grid(-8.0, 8.0, 320)
    p = GridProfile(g, np.tanh(2.0 * g.nodes()))
    _, crude = flatten_tail(p, 2.0, 3.5, 2, "right", +1, k=0, s=0.75, well=WELL)
    _, fine = flatten_tail(p, 2.0, 7.0, 8, "right", +1, k=0, s=0.75, well=WELL)
    assert fine <= crude
    assert fine == pytest.approx(1.0, abs=0.05)


def test_flatten_tail_rejects_far_profile():
    g = make_grid(-6.0, 6.0, 120)
    p = GridProfile(g, np.tanh(0.2 * g.nodes()))  # far from +-1 on the window
    with pytest.raises(ValueError, match="eta"):
        flatten_tail(p, 2.0, 4.0, 4, "right", +1, k=0, s=0.75, well=WELL, eta=0.3)


def test_flatten_tail_left_side():
    g = make_grid(-6.0, 6.0, 240)
    x = g.nodes()
    p = GridProfile(g, np.tanh(2.0 * x))
    out, _ = flatten_tail(p, 2.0, 5.0, 4, "left", -1, k=0, s=0.75, well=WELL)
    assert np.all(out.values[x <= -5.0] == -1.0)
    np.testing.assert_array_equal(out.values[x > -2.0], p.values[x > -2.0])


def test_cross_term_probe_single_jump_is_zero(homogeneous_profiles):
    target = make_bv_target([(0.5, +1)])
    values, slope = cross_term_probe(
        target, homogeneous_profiles, [0.05, 0.025], k=0, s=0.75,
        n_cells=256, T_profile=2.0)
    assert values == [0.0, 0.0]


def test_cross_term_probe_two_jumps_positive_and_bounded(homogeneous_profiles):
    target = make_bv_target([(0.3, +1), (0.7, -1)], left_value=-1)
    eps_list = [0.04, 0.02]
    values, slope = cross_term_probe(
        target, homogeneous_profiles, eps_list, k=0, s=0.75,
        n_cells=512, T_profile=2.0)
    assert all(v > 0 for v in values)
    # cross term is a restriction of the full nonlocal sum
    from fraclab import DiscreteEnergy

    grid = make_grid(0.0, 1.0, 512)
    rec = build_recovery(target, homogeneous_profiles, 0.02, 0.02 ** 2,
                         "supercritical", grid, 2.0)
    total = 0.02 ** 0.5 * DiscreteEnergy(grid, 0, 0.75, WELL, well_coef=0.0).energy(rec.values)
    assert values[1] <= total + 1e-12


@pytest.mark.parametrize("k,s", [(0, 0.75), (1, 0.5)])
@pytest.mark.parametrize("kernel", [None, KernelSpec.cos_sum(2.5, 1.0),
                                    KernelSpec.cos_prod(2.0, 0.7)],
                         ids=["none", "cos_sum", "cos_prod"])
def test_cross_term_probe_matches_explicit_masked_pair_sum(kernel, k, s):
    # the probe subtracts in-block sums from the total; the reference sums the
    # positive cross-block pair terms directly, with no cancellation.  The
    # subtraction costs up to ~3e-12 relative at k = 0, whether the operator
    # is dense or matrix-free.
    pg = make_grid(-3.0, 3.0, 120)
    xp = pg.nodes()
    profiles = {+1: GridProfile(pg, np.tanh(2 * xp)), -1: GridProfile(pg, -np.tanh(2 * xp))}
    target = make_bv_target([(0.3, +1), (0.7, -1)], left_value=-1)
    eps_list = [0.04, 0.02]
    values, _ = cross_term_probe(target, profiles, eps_list, k=k, s=s, n_cells=512,
                                 T_profile=2.0, kernel=kernel, mode="lambda")

    from fraclab import kth_difference
    from fraclab.energy import _pair_weights

    grid = make_grid(0.0, 1.0, 512)
    x = grid.nodes()
    idx = np.arange(x.size)
    w = _pair_weights(grid, s)[np.abs(idx[:, None] - idx[None, :])]
    across = (x[:, None] < 0.5) != (x[None, :] < 0.5)
    for eps, value in zip(eps_list, values):
        rec = build_recovery(target, profiles, eps, eps, "lambda", grid, 2.0)
        g = kth_difference(rec, k).values
        a = 1.0 if kernel is None else kernel.eval(x[:, None] / eps, x[None, :] / eps)
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
    pts = regime_sweep(kern, target, "critical", [2.0 ** -5, 2.0 ** -6],
                       k=0, s=0.75, well=WELL, n_cells=512, T_profile=1.0,
                       window_factor=4.0, predicted=1.0, opts=OPTS)
    assert all(p.min_energy >= 0 for p in pts)
    assert pts[0].eps > pts[1].eps
    assert pts[0].delta == pts[0].eps  # lambda = 1 critical rule
    # clamped outside the window
    x = make_grid(0.0, 1.0, 512).nodes()
    for p in pts:
        w = min(0.125, 4.0 * p.eps)
        outside = np.abs(x - 0.5) >= w
        np.testing.assert_array_equal(
            p.result.profile.values[outside], np.where(x[outside] >= 0.5, 1.0, -1.0))


def test_unconverged_sweep_solve_warns():
    target = make_bv_target([(0.5, +1)])
    with pytest.warns(RuntimeWarning, match=r"critical sweep solve at eps=0.03125 stopped on"
                                            r" max_iters with gradient norm"):
        pts = regime_sweep(KernelSpec.cos_sum(2.5, 1.0), target, "critical", [2.0 ** -5],
                           k=0, s=0.75, well=WELL, n_cells=512, T_profile=1.0,
                           window_factor=4.0, opts=MinimizeOptions(grad_tol=1e-7, max_iters=3))
    assert pts[0].result.stop_reason == "max_iters"


def test_regime_sweep_rejects_wide_eps():
    kern = KernelSpec.constant(1.0)
    target = make_bv_target([(0.5, +1)])
    with pytest.raises(ValueError, match="separated"):
        regime_sweep(kern, target, "critical", [0.25], k=0, s=0.75, well=WELL,
                     n_cells=128, T_profile=4.0)
