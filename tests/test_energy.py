import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fraclab
from fraclab import (
    ClampSpec,
    DiscreteEnergy,
    DoubleWell,
    EnergyParams,
    GridProfile,
    KernelSpec,
    MinimizeOptions,
    difference_matrix,
    eval_F,
    make_grid,
    minimize,
    resample_scaled,
)
from fraclab.energy import _PairForm, _cross_tail_constant, _dst1, _pair_weights

# Dense-grid reference for F on u = tanh((x-0.5)/0.1), k=0, s=0.75, eps=0.1,
# delta=0.25, CosSum(2.5, 1), chi=0.3: W term by adaptive quadrature, nonlocal
# by direct double sums under h-halving with leading-order (2-2s) Richardson.
F_TANH_REFERENCE = 31.470057189929


def _phi(p, k, s, kspec, well, **kw):
    """The rescaled energy (unit coefficients) of a profile."""
    return DiscreteEnergy(p.grid, k, s, well, kspec=kspec, **kw).energy(p.values)


def _gagliardo(p, k, s, kspec=None, scale=1.0):
    """The kernel-weighted nonlocal sum alone: the rescaled energy with no well."""
    return _phi(p, k, s, kspec, DoubleWell(0.0), kernel_scale=scale, well_coef=0.0)


def _tail(p, k, s, tail_signs, kspec=None):
    """The exterior tail term alone, over ordered pairs."""
    model = DiscreteEnergy(p.grid, k, s, DoubleWell(0.0), kspec=kspec, tail_signs=tail_signs)
    return model._tail_energy(p.values, model._difference(p.values))


def test_double_well_zeros_and_values():
    w0 = DoubleWell(0.0)
    assert w0.value(1.0) == 0.0
    assert w0.value(-1.0) == 0.0
    assert w0.value(0.0) == 1.0
    w5 = DoubleWell(0.5)
    assert w5.value(-1.0) == 0.0
    assert w5.alpha_w == 0.5
    assert w5.beta_w == 13.5


def test_double_well_two_sided_bounds_and_far_infimum():
    rng = np.random.default_rng(3)
    for chi in (-0.6, 0.0, 0.4):
        w = DoubleWell(chi)
        z = rng.uniform(-2.0, 2.0, 2000)
        vals = w.value(z)
        lo = w.alpha_w * (1.0 - np.abs(z)) ** 2
        hi = w.beta_w * (1.0 - np.abs(z)) ** 2
        assert np.all(vals >= lo - 1e-12)
        assert np.all(vals <= hi + 1e-12)
        zz = rng.uniform(2.0, 8.0, 500) * rng.choice([-1, 1], 500)
        assert np.min(w.value(zz)) >= 9.0 * (1.0 - abs(chi)) - 1e-12


def test_double_well_rejects_bad_chi():
    with pytest.raises(ValueError):
        DoubleWell(1.0)


def test_kernel_examples():
    assert KernelSpec.constant(2.0).eval(0.37, -1.2) == 2.0
    cs = KernelSpec.cos_sum(2.5, 1.0)
    assert cs.eval(0.0, 0.0) == pytest.approx(4.5)
    assert cs.eval(0.5, 0.5) == pytest.approx(0.5)


def test_kernel_symmetry_and_periodicity():
    rng = np.random.default_rng(11)
    for kspec in (KernelSpec.cos_sum(2.5, 1.0), KernelSpec.cos_prod(1.0, 0.5)):
        x, y = rng.uniform(-3, 3, 50), rng.uniform(-3, 3, 50)
        np.testing.assert_allclose(kspec.eval(x, y), kspec.eval(y, x), rtol=1e-14)
        np.testing.assert_allclose(kspec.eval(x + 1.0, y), kspec.eval(x, y), atol=1e-12)
        np.testing.assert_allclose(kspec.eval(x, y + 1.0), kspec.eval(x, y), atol=1e-12)
        lo, hi = kspec.alpha_a, kspec.beta_a
        v = kspec.eval(x, y)
        assert np.all(v >= lo - 1e-12) and np.all(v <= hi + 1e-12)


def _stats(kspec):
    return (kspec.a_bar, kspec.a_inf, kspec.alpha_a, kspec.beta_a)


def test_kernel_stats_closed_forms():
    assert _stats(KernelSpec.constant(3.0)) == (3.0, 3.0, 3.0, 3.0)
    a_bar, a_inf, alpha, beta = _stats(KernelSpec.cos_sum(2.5, 1.0))
    assert (a_bar, a_inf, alpha, beta) == (2.5, 0.5, 0.5, 4.5)
    a_bar, a_inf, alpha, beta = _stats(KernelSpec.cos_prod(1.0, 0.5))
    assert (a_bar, a_inf) == (1.0, 1.0)
    a_bar, a_inf, *_ = _stats(KernelSpec.cos_prod(1.0, -0.5))
    assert a_inf == 0.5


def test_kernel_diag_argmin_matches_grid_search():
    for kspec in (KernelSpec.cos_sum(2.5, 1.0), KernelSpec.cos_sum(2.5, -1.0),
                  KernelSpec.cos_prod(2.0, 0.7), KernelSpec.cos_prod(2.0, -0.7)):
        r = kspec.diag_argmin()
        t = np.linspace(0.0, 1.0, 1024, endpoint=False)
        grid_min = np.min(kspec.eval(t, t))
        assert kspec.eval(r, r) == pytest.approx(kspec.a_inf, abs=1e-12)
        assert grid_min >= kspec.a_inf - 1e-10


def test_kernel_rejects_nonpositive():
    with pytest.raises(ValueError):
        KernelSpec.cos_sum(1.0, 1.0)
    with pytest.raises(ValueError):
        KernelSpec.cos_prod(1.0, -1.5)
    with pytest.raises(ValueError):
        KernelSpec.constant(0.0)


def test_energy_params_excluded_cases():
    EnergyParams(0, 0.75, 0.1, 0.1)
    with pytest.raises(ValueError):
        EnergyParams(0, 0.5, 0.1, 0.1)
    with pytest.raises(ValueError):
        EnergyParams(0, 0.4, 0.1, 0.1)
    with pytest.raises(ValueError):
        EnergyParams(1, 0.5, 0.0, 0.1)


def test_build_weights_values_and_symmetry():
    # one row by offset |i - j|, symmetric by construction
    g = make_grid(0.0, 1.0, 2)
    w = _pair_weights(g, 0.75)
    assert w[2] == pytest.approx(0.25)
    assert w[1] == pytest.approx(0.25 * 0.5 ** -2.5)
    assert w[1] == pytest.approx(1.4142135623730951)
    assert w[0] == 0.0 and not w.flags.writeable
    with pytest.raises(ValueError):
        _pair_weights(g, 1.0)


def test_eval_gagliardo_frozen_example():
    g = make_grid(0.0, 1.0, 2)
    p = GridProfile(g, np.array([0.0, 0.0, 1.0]))
    val = _gagliardo(p, 0, 0.75)
    assert val == pytest.approx(3.3284271247461903, rel=1e-12)


def test_eval_gagliardo_zero_for_constant_and_quadratic_scaling():
    g = make_grid(-1.0, 1.0, 32)
    const = GridProfile(g, np.full(g.n_nodes, -1.0))
    assert _gagliardo(const, 0, 0.6, KernelSpec.cos_sum(2.5, 1.0), 0.1) == 0.0
    rng = np.random.default_rng(5)
    p = GridProfile(g, rng.standard_normal(g.n_nodes))
    v1 = _gagliardo(p, 0, 0.6)
    v2 = _gagliardo(GridProfile(g, 3.0 * p.values), 0, 0.6)
    assert v2 == pytest.approx(9.0 * v1, rel=1e-12)


def test_eval_gagliardo_zero_iff_kth_difference_constant():
    g = make_grid(-1.0, 1.0, 24)
    lin = GridProfile(g, 2.0 * g.nodes() - 0.3)
    assert _gagliardo(lin, 1, 0.5) == pytest.approx(0.0, abs=1e-20)
    bent = GridProfile(g, np.abs(g.nodes()))
    assert _gagliardo(bent, 1, 0.5) > 1e-3


def test_eval_gagliardo_validates_weights_and_size():
    # the weights now come from the grid itself, so only the size is checked
    small = make_grid(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        _gagliardo(GridProfile(small, np.zeros(4)), 1, 0.75)


def test_eval_F_pure_phase_and_constant_zero():
    g = make_grid(0.0, 1.0, 64)
    params = EnergyParams(0, 0.75, 0.1, 0.25)
    well = DoubleWell(0.0)
    kern = KernelSpec.constant(1.0)
    ones = GridProfile(g, np.ones(g.n_nodes))
    assert eval_F(ones, params, well, kern) == 0.0
    zeros = GridProfile(g, np.zeros(g.n_nodes))
    assert eval_F(zeros, params, well, kern) == pytest.approx(10.0, rel=1e-12)


def test_eval_F_tanh_against_dense_reference():
    # desk-scale values carry the h^{2-2s} diagonal-band deficit; removing the
    # known leading order by Richardson lands within 1% of the dense reference
    s = 0.75
    params = EnergyParams(0, s, 0.1, 0.25)
    well = DoubleWell(0.3)
    kern = KernelSpec.cos_sum(2.5, 1.0)
    vals = []
    for n in (512, 1024):
        g = make_grid(0.0, 1.0, n)
        u = GridProfile(g, np.tanh((g.nodes() - 0.5) / 0.1))
        vals.append(eval_F(u, params, well, kern))
    r = 2.0 ** (2.0 - 2.0 * s)
    corrected = vals[1] + (vals[1] - vals[0]) / (r - 1.0)
    assert corrected == pytest.approx(F_TANH_REFERENCE, rel=0.01)


def test_phi_examples_and_kernel_linearity():
    g = make_grid(-1.0, 1.0, 64)
    s = 0.75
    well = DoubleWell(0.0)
    ones = GridProfile(g, np.ones(g.n_nodes))
    assert _phi(ones, 0, s, None, well) == 0.0
    zeros = GridProfile(g, np.zeros(g.n_nodes))
    assert _phi(zeros, 0, s, None, well) == pytest.approx(2.0, rel=1e-12)

    rng = np.random.default_rng(9)
    p = GridProfile(g, rng.standard_normal(g.n_nodes))
    c = 3.5
    whole = _phi(p, 0, s, KernelSpec.constant(c), well)
    nl_unit = _gagliardo(p, 0, s)
    dw = _phi(p, 0, s, None, well) - nl_unit
    assert whole == pytest.approx(dw + c * nl_unit, rel=1e-12)


def test_bound_sandwich_between_homogeneous_energies():
    rng = np.random.default_rng(13)
    g = make_grid(0.0, 1.0, 48)
    s, k = 0.75, 0
    well = DoubleWell(0.25)
    kern = KernelSpec.cos_sum(2.5, 1.0)
    params = EnergyParams(k, s, 0.2, 0.3)
    for _ in range(5):
        p = GridProfile(g, rng.uniform(-1.5, 1.5, g.n_nodes))
        fa = eval_F(p, params, well, kern)
        g1 = eval_F(p, params, well, KernelSpec.constant(1.0))
        assert min(kern.alpha_a, 1.0) * g1 - 1e-10 <= fa <= max(kern.beta_a, 1.0) * g1 + 1e-10


def test_discrete_scaling_identity_exact():
    # constant kernel c, lambda = c^{1/(2(k+s))}: the lambda-shrunk image has
    # exactly proportional energy, up to rounding
    rng = np.random.default_rng(101)
    for (k, s) in ((0, 0.75), (1, 0.5), (2, 0.3)):
        c = 16.0
        lam = c ** (1.0 / (2.0 * (k + s)))
        g = make_grid(-6.0, 6.0, 128)
        v = GridProfile(g, np.tanh(g.nodes()) + 0.05 * rng.standard_normal(g.n_nodes))
        well = DoubleWell(0.3)
        lhs = _phi(v, k, s, KernelSpec.constant(c), well)
        small = resample_scaled(v, lam)
        rhs = c ** (1.0 / (2.0 * (k + s))) * _phi(small, k, s, None, well)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_cross_tail_constant_frozen_example():
    # ordered pairs: twice the once-counted 1.8856180831641267
    val = _cross_tail_constant(None, 0.75, 4.0)
    assert val == pytest.approx(3.7712361663282534, rel=1e-12)
    assert val == pytest.approx(8.0 * 8.0 ** -0.5 / (1.5 * 0.5), rel=1e-12)
    with pytest.raises(ValueError):
        _cross_tail_constant(None, 0.5, 4.0)


def test_tail_correction_matched_sign_constant_is_zero():
    g = make_grid(-4.0, 4.0, 64)
    p = GridProfile(g, np.ones(g.n_nodes))
    assert _tail(p, 0, 0.75, (1, 1)) == 0.0
    assert _tail(p, 1, 0.75, (1, 1)) == 0.0


def test_tail_correction_step_profile_cross_term():
    g = make_grid(-4.0, 4.0, 128)
    x = g.nodes()
    p = GridProfile(g, np.where(x >= 0, 1.0, -1.0))
    val = _tail(p, 0, 0.75, (-1, 1))
    sides = val - _cross_tail_constant(None, 0.75, 4.0)
    # one-sided sums: |u - (+-1)|^2 = 4 on the opposing half (u(0) = +1,
    # the right limit, so the node at zero opposes only the left tail),
    # each pair counted in both orders
    xi = x[1:-1]
    h = g.h
    expect = 2.0 * (4.0 * np.sum(h * (4.0 - xi[xi < 0]) ** -1.5) / 1.5
                    + 4.0 * np.sum(h * (4.0 + xi[xi >= 0]) ** -1.5) / 1.5)
    assert sides == pytest.approx(expect, rel=1e-12)


def test_tail_correction_k0_requires_s_above_half():
    g = make_grid(-4.0, 4.0, 32)
    p = GridProfile(g, np.ones(g.n_nodes))
    with pytest.raises(ValueError):
        _tail(p, 0, 0.5, (1, 1))


def test_tail_correction_doubling_T_decays_by_2s():
    # fixed interior bump supported in |x| <= 2, exactly +1 outside; k = 1
    s = 0.6
    vals = {}
    for T_out in (4.0, 8.0):
        n = int(T_out * 32)
        g = make_grid(-T_out, T_out, n)
        x = g.nodes()
        u = np.where(np.abs(x) < 2.0, 1.0 - 0.5 * np.cos(np.pi * x / 4.0) ** 2, 1.0)
        p = GridProfile(g, u)
        vals[T_out] = _tail(p, 1, s, (1, 1))
    assert vals[4.0] / vals[8.0] >= 2.0 ** (2.0 * s)


def test_grad_F_and_grad_Phi_match_finite_differences():
    from fraclab import check_gradient

    rng = np.random.default_rng(17)
    g = make_grid(0.0, 1.0, 40)
    well = DoubleWell(0.3)
    kern = KernelSpec.cos_sum(2.5, 1.0)
    for k, s in ((0, 0.75), (1, 0.5), (2, 0.3)):
        eps, delta = 0.2, 0.3
        p = GridProfile(g, np.tanh(4 * (g.nodes() - 0.5)) + 0.1 * rng.standard_normal(g.n_nodes))
        F = DiscreteEnergy(g, k, s, well, kspec=kern, kernel_scale=delta, well_coef=1.0 / eps,
                           nonlocal_coef=eps ** (2.0 * (k + s) - 1.0))
        assert F.energy(p.values) == eval_F(p, EnergyParams(k, s, eps, delta), well, kern)
        err_f = check_gradient(F.energy, F.gradient, p)
        assert err_f <= 1e-6
        phi = DiscreteEnergy(g, k, s, well, kspec=kern)
        err_phi = check_gradient(phi.energy, phi.gradient, p)
        assert err_phi <= 1e-6


# (-4, 4, 64) has a power-of-two h; on the other grids stencils scaled by h^-k
# left up to 2e-5 of gradient on a pure phase (k = 2 on (-6, 6, 1000))
PURE_PHASE_GRIDS = [(-4.0, 4.0, 64), (-12.0, 12.0, 1000), (0.0, 1.0, 40),
                    (-6.0, 6.0, 1000), (-3.7, 3.7, 768)]


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("lo,hi,n_cells", PURE_PHASE_GRIDS,
                         ids=[f"{lo:g},{hi:g},{n}" for lo, hi, n in PURE_PHASE_GRIDS])
def test_gradient_zero_at_clamped_pure_phase(lo, hi, n_cells, k):
    g = make_grid(lo, hi, n_cells)
    well = DoubleWell(0.4)
    for phase in (1.0, -1.0):
        tail = (phase, phase) if lo == -hi else None
        model = DiscreteEnergy(g, k, 0.75, well, kspec=KernelSpec.cos_sum(2.5, 1.0),
                               kernel_scale=0.3, tail_signs=tail)
        pure = np.full(g.n_nodes, phase)
        assert model.energy(pure) == 0.0
        assert np.all(model.gradient(pure) == 0.0)


def test_discrete_energy_matches_op_functions_with_tail():
    rng = np.random.default_rng(23)
    g = make_grid(-4.0, 4.0, 80)
    k, s = 0, 0.75
    well = DoubleWell(0.2)
    kern = KernelSpec.cos_sum(2.5, 1.0)
    x = g.nodes()
    u = np.tanh(2 * x)
    u[0], u[-1] = -1.0, 1.0
    model = DiscreteEnergy(g, k, s, well, kspec=kern, kernel_scale=1.0, tail_signs=(-1, 1))
    # the closed-form tail over ordered pairs, written out
    xi, h, rho = x[1:-1], g.h, kern.row_mean(x[1:-1])
    c_right = 2.0 * h * rho * (4.0 - xi) ** -1.5 / 1.5
    c_left = 2.0 * h * rho * (4.0 + xi) ** -1.5 / 1.5
    tail = (u[1:-1] - 1.0) ** 2 @ c_right + (u[1:-1] + 1.0) ** 2 @ c_left \
        + _cross_tail_constant(kern, s, 4.0)
    expect = _phi(GridProfile(g, u), k, s, kern, well) + tail
    assert model.energy(u) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError, match="symmetric"):
        DiscreteEnergy(make_grid(-4.0, 5.0, 80), k, s, well, tail_signs=(-1, 1))


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.75])
def test_gradient_fd_across_exponent_table(k, s):
    # every supported (k, s) with k + s > 1/2, small N
    if k == 0 and s <= 0.5:
        pytest.skip("excluded exponent range")
    from fraclab import check_gradient

    rng = np.random.default_rng(k * 10 + int(10 * s))
    g = make_grid(-2.0, 2.0, 64)
    model = DiscreteEnergy(g, k, s, DoubleWell(0.2), kspec=KernelSpec.cos_prod(2.0, 0.7),
                           kernel_scale=0.5)
    p = GridProfile(g, np.tanh(3 * g.nodes()) + 0.15 * rng.standard_normal(g.n_nodes))
    assert check_gradient(model.energy, model.gradient, p) <= 1e-6


OPERATOR_KERNELS = [KernelSpec.constant(2.0), KernelSpec.cos_sum(2.5, 1.0),
                    KernelSpec.cos_prod(2.0, 0.7)]


# 3, 5, 7 = 2k + 3 for k = 0, 1, 2; 1025 has 2N - 2 = 2048, a power of two
@pytest.mark.parametrize("n_nodes", [3, 5, 7, 769, 1025])
@pytest.mark.parametrize("kspec", OPERATOR_KERNELS, ids=lambda k: k.kind)
def test_pair_operator_matches_explicit_dense_product(n_nodes, kspec):
    grid = make_grid(-1.0, 2.0, n_nodes - 1)
    x = grid.nodes()
    w = _pair_weights(grid, 0.75)
    scale = 0.37
    idx = np.arange(n_nodes)
    dense = w[np.abs(idx[:, None] - idx[None, :])] * kspec.eval(
        x[:, None] / scale, x[None, :] / scale)
    g = np.random.default_rng(n_nodes).standard_normal(n_nodes)
    form = _PairForm(w, kspec, x, scale)
    for vec, expect in ((g, dense @ g), (np.ones(n_nodes), dense.sum(axis=1))):
        got = form.apply(vec)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))
    np.testing.assert_array_equal(form.row, form.apply(np.ones(n_nodes)))
    pairs = float(np.sum(dense * (g[:, None] - g[None, :]) ** 2))
    assert form.value(g) == pytest.approx(pairs, rel=1e-13)


_THREAD_SCRIPT = """
import json
from fraclab import DoubleWell, KernelSpec, MinimizeOptions, TransitionProblem, transition_energy
tp = TransitionProblem(kernel=KernelSpec.cos_sum(2.5, 1.0), mode="lambda", lam=1.0, omega=1,
                       T=4.0, T_out=12.0, n_cells=384, well=DoubleWell(0.0), k=0, s=0.75)
res = transition_energy(tp, MinimizeOptions(grad_tol=1e-6))
print(json.dumps([res.converged, res.energy]))
"""


def test_transition_solve_independent_of_blas_threads():
    src = str(Path(fraclab.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", _THREAD_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        out.append(json.loads(done.stdout.strip().splitlines()[-1]))
    (conv1, e1), (conv2, e2) = out
    assert conv1 == conv2
    assert e2 == pytest.approx(e1, rel=1e-12)


@pytest.mark.parametrize("m", [1, 2, 7, 64, 383])
def test_dst1_matches_explicit_sine_matrix(m):
    x = np.random.default_rng(m).standard_normal(m)
    i = np.arange(1, m + 1)
    expect = np.sin(np.outer(i, i) * np.pi / (m + 1)) @ x
    np.testing.assert_allclose(_dst1(x), expect, rtol=0, atol=1e-13 * np.abs(expect).max())


def _blocks(free):
    edges = np.flatnonzero(np.diff(np.concatenate(([0], free.astype(int), [0]))))
    return list(zip(edges[::2], edges[1::2]))


def _transition_case(k):
    """One free block: a clamped transition problem with its exterior tail."""
    s = 0.75 if k == 0 else 0.5
    kspec = KernelSpec.cos_sum(2.5, 1.0)
    grid = make_grid(-6.0, 6.0, 96)
    model = DiscreteEnergy(grid, k, s, DoubleWell(0.0), kspec=kspec, kernel_scale=1.3,
                           tail_signs=(-1, 1))
    return model, kspec, 1.3, np.abs(grid.nodes()) < 2.0


def _sweep_case(k):
    """Two free blocks of different sizes: a two-jump eps/delta sweep mask."""
    s, eps, delta = (0.75 if k == 0 else 0.5), 2.0 ** -4, 2.0 ** -6
    kspec = KernelSpec.cos_prod(2.0, 0.7)
    grid = make_grid(0.0, 1.0, 160)
    model = DiscreteEnergy(grid, k, s, DoubleWell(0.0), kspec=kspec, kernel_scale=delta,
                           well_coef=1.0 / eps, nonlocal_coef=eps ** (2.0 * (k + s) - 1.0))
    x = grid.nodes()
    return model, kspec, delta, (np.abs(x - 0.3) < 0.1) | (np.abs(x - 0.7) < 0.15)


def _dense_inverse_preconditioner(model, kspec, scale, free):
    """P^-1 from its definition: per block, S diag(lam) S 2/(m+1) with the
    symbol summed term by term, plus for k = 2 the rank-one terms of the
    second differences at the two clamped neighbours, inverted densely."""
    grid, k = model.grid, model.k
    n, h, x = grid.n_nodes, grid.h, grid.nodes()
    w = _pair_weights(grid, model.s)
    diff = difference_matrix(grid, k).toarray()
    out = np.zeros((n, n))
    for a, b in _blocks(free):
        m = b - a
        i = np.arange(1, m + 1)
        theta = i * np.pi / (m + 1)
        sym = w[1:] @ (1.0 - np.cos(np.outer(np.arange(1, n), theta)))
        sym *= {0: 1.0, 1: np.sin(theta) ** 2 / h ** 2,
                2: (2.0 - 2.0 * np.cos(theta)) ** 2 / h ** 4}[k]
        lam = model.nonlocal_coef * 8.0 * kspec.a_bar * sym + 8.0 * h * model.well_coef
        sine = np.sin(np.outer(i, i) * np.pi / (m + 1))
        p = sine @ np.diag(lam) @ sine * 2.0 / (m + 1)
        if k == 2:
            for q in (a - 1, b):
                others = np.arange(n) != q
                row = w[np.abs(np.arange(n) - q)][others] @ kspec.eval(x[q] / scale, x[others] / scale)
                p += 4.0 * model.nonlocal_coef * row * np.outer(diff[q, a:b], diff[q, a:b])
        out[a:b, a:b] = np.linalg.inv(p)
    return out


def _as_matrix(apply, n):
    return np.column_stack([apply(e) for e in np.eye(n)])


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("case", [_transition_case, _sweep_case])
def test_preconditioner_matches_dense_sine_form(case, k):
    model, kspec, scale, free = case(k)
    assert len(_blocks(free)) == (1 if case is _transition_case else 2)
    got = _as_matrix(model.preconditioner(free), model.grid.n_nodes)
    expect = _dense_inverse_preconditioner(model, kspec, scale, free)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-11 * np.abs(expect).max())


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("case", [_transition_case, _sweep_case])
def test_preconditioner_symmetric_positive_definite_on_free_nodes(case, k):
    model, _, _, free = case(k)
    pinv = _as_matrix(model.preconditioner(free), model.grid.n_nodes)[np.ix_(free, free)]
    np.testing.assert_allclose(pinv, pinv.T, rtol=0, atol=1e-13 * np.abs(pinv).max())
    assert np.linalg.eigvalsh(0.5 * (pinv + pinv.T)).min() > 0.0


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("case", [_transition_case, _sweep_case])
def test_preconditioner_zero_on_clamped_nodes_and_at_zero(case, k):
    model, _, _, free = case(k)
    n = model.grid.n_nodes
    apply = model.preconditioner(free)
    d = apply(np.random.default_rng(k).standard_normal(n))
    assert np.all(d[~free] == 0.0) and np.any(d[free] != 0.0)
    assert np.all(apply(np.zeros(n)) == 0.0)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_preconditioned_pure_phase_stops_at_iteration_zero(k):
    model, _, _, free = _sweep_case(k)
    n = model.grid.n_nodes
    for phase in (1.0, -1.0):
        start = GridProfile(model.grid, np.full(n, phase))
        res = minimize(model.energy, model.gradient, start, ClampSpec(~free, start.values),
                       MinimizeOptions(grad_tol=0.0), precondition=model.preconditioner(free))
        assert (res.iterations, res.stop_reason, res.final_grad_norm) == (0, "grad_tol", 0.0)
        np.testing.assert_array_equal(res.profile.values, start.values)
