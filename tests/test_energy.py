import functools
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import fraclab
import fraclab.energy as energy_module
import fraclab.harness as harness
from fraclab import (
    DiscreteEnergy,
    DoubleWell,
    EnergyParams,
    GridProfile,
    KernelSpec,
    MinimizeOptions,
    TransitionProblem,
    eval_F,
    make_grid,
    minimize,
    resample_scaled,
)
from fraclab.energy import _PairForm, _cross_tail_constant, _pair_table, _sine_solve
from fraclab.grid import _REACH
from probes import kth_difference

# Dense-grid reference for F on u = tanh((x-0.5)/0.1), k=0, s=0.75, eps=0.1,
# delta=0.25, CosSum(2.5, 1), chi=0.3: W term by adaptive quadrature, nonlocal
# by direct double sums under h-halving with leading-order (2-2s) Richardson.
F_TANH_REFERENCE = 31.470057189929
UNIT = KernelSpec.constant(1.0)  # the homogeneous problem's kernel


class _NoWell:
    """A zero potential in a ``DoubleWell``'s place: the energy is then its
    nonlocal and exterior terms alone."""

    def _value(self, z, q):
        return np.zeros_like(z)

    _deriv = _value


def _phi(p, k, s, kspec, well, scale=1.0):
    """The rescaled energy (unit coefficients) of a profile."""
    return DiscreteEnergy(p.grid, EnergyParams(k, s, 1.0, scale), well, kspec).energy(p.values)


def _gagliardo(p, k, s, kspec=UNIT, scale=1.0):
    """The kernel-weighted nonlocal sum alone: the rescaled energy with no well."""
    return _phi(p, k, s, kspec, _NoWell(), scale)


def _tail(p, k, s, tail_signs, kspec=UNIT):
    """The exterior tail term alone, over ordered pairs."""
    model = DiscreteEnergy(p.grid, EnergyParams(k, s, 1.0, 1.0), DoubleWell(0.0), kspec,
                           tail_signs)
    return model._exterior_energy(model._difference(p.values))


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


def _well_general(chi, z):
    """The double well and its derivative by the general formula, sin and cos
    included whatever chi is."""
    q = 1.0 - z * z
    value = q ** 2 * (1.0 + chi * np.sin(0.5 * np.pi * z))
    deriv = -4.0 * z * q * (1.0 + chi * np.sin(0.5 * np.pi * z)) \
        + q * q * chi * 0.5 * np.pi * np.cos(0.5 * np.pi * z)
    return value, deriv


WELL_POINTS = np.r_[np.linspace(-3.0, 3.0, 1201), -1.0, 1.0, 0.0, -0.0, 2.0000001, -2.7]


@pytest.mark.parametrize("chi", [0.0, 0.3])
def test_double_well_matches_general_formula(chi):
    # the even well skips its trig factor; only the sign of a zero may differ
    w = DoubleWell(chi)
    value, deriv = _well_general(chi, WELL_POINTS)
    np.testing.assert_array_equal(w.value(WELL_POINTS), value)
    got = w.deriv(WELL_POINTS)
    np.testing.assert_array_equal(got, deriv)  # -0.0 == 0.0 here
    assert np.all(got[np.signbit(got) != np.signbit(deriv)] == 0.0)
    if chi:
        assert np.array_equal(np.signbit(got), np.signbit(deriv))
    for z in (-2.5, -1.0, 0.0, 0.3, 1.0):
        assert type(w.value(z)) is float and type(w.deriv(z)) is float
        assert w.value(z) == _well_general(chi, np.float64(z))[0]


def test_even_well_derivative_matches_finite_differences():
    w = DoubleWell(0.0)
    z = np.linspace(-2.6, 2.6, 53)
    step = 1e-6
    fd = (w.value(z + step) - w.value(z - step)) / (2.0 * step)
    np.testing.assert_allclose(w.deriv(z), fd, rtol=0, atol=1e-7 * np.abs(fd).max())


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


@pytest.mark.parametrize("make, message", [
    (lambda: KernelSpec("bogus", 1.0), "unknown kernel kind 'bogus'"),
    (lambda: KernelSpec.cos_sum(float("nan"), 1.0), "kernel coefficients must be finite"),
], ids=["unknown-kind", "nan-c0"])
def test_kernel_rejects_unknown_kinds_and_nonfinite_coefficients(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_energy_params_excluded_cases():
    EnergyParams(0, 0.75, 0.1, 0.1)
    with pytest.raises(ValueError):
        EnergyParams(0, 0.5, 0.1, 0.1)
    with pytest.raises(ValueError):
        EnergyParams(0, 0.4, 0.1, 0.1)
    with pytest.raises(ValueError):
        EnergyParams(1, 0.5, 0.0, 0.1)
    with pytest.raises(ValueError, match="delta must be positive"):
        EnergyParams(0, 0.75, 1.0, 0.0)


@pytest.mark.parametrize("k,s", [(3, 0.75), (1, 1.5), (1, -0.2), (0, 0.5)],
                         ids=["k=3", "s=1.5", "s=-0.2", "k=0,s=0.5"])
def test_inadmissible_exponents_rejected_at_construction(k, s):
    # EnergyParams holds the rule; the evaluator and the transition problem
    # go through it, so none of them gets as far as a solve
    with pytest.raises(ValueError):
        EnergyParams(k, s, 1.0, 1.0)
    with pytest.raises(ValueError):
        DiscreteEnergy(make_grid(-4.0, 4.0, 64), EnergyParams(k, s, 1.0, 1.0), DoubleWell(0.0),
                       UNIT)
    with pytest.raises(ValueError, match="excluded|must"):
        TransitionProblem(kernel=KernelSpec.constant(1.0), mode="homogeneous", T=2.0,
                          n_cells=96, well=DoubleWell(0.0), k=k, s=s)


def test_build_weights_values_and_symmetry():
    # one row by offset |i - j|, symmetric by construction
    g = make_grid(0.0, 1.0, 2)
    w = _pair_table(g.n_nodes, g.h, 0.75).weights
    assert w[2] == pytest.approx(0.25)
    assert w[1] == pytest.approx(0.25 * 0.5 ** -2.5)
    assert w[1] == pytest.approx(1.4142135623730951)
    assert w[0] == 0.0 and not w.flags.writeable
    with pytest.raises(ValueError):
        _pair_table(g.n_nodes, g.h, 1.0)


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
    assert _phi(ones, 0, s, UNIT, well) == 0.0
    zeros = GridProfile(g, np.zeros(g.n_nodes))
    assert _phi(zeros, 0, s, UNIT, well) == pytest.approx(2.0, rel=1e-12)

    rng = np.random.default_rng(9)
    p = GridProfile(g, rng.standard_normal(g.n_nodes))
    c = 3.5
    whole = _phi(p, 0, s, KernelSpec.constant(c), well)
    nl_unit = _gagliardo(p, 0, s)
    dw = _phi(p, 0, s, UNIT, well) - nl_unit
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
        rhs = c ** (1.0 / (2.0 * (k + s))) * _phi(small, k, s, UNIT, well)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_cross_tail_constant_frozen_example():
    # ordered pairs: twice the once-counted 1.8856180831641267
    val = _cross_tail_constant(UNIT, 0.75, 4.0)
    assert val == pytest.approx(3.7712361663282534, rel=1e-12)
    assert val == pytest.approx(8.0 * 8.0 ** -0.5 / (1.5 * 0.5), rel=1e-12)
    with pytest.raises(ValueError):
        _cross_tail_constant(UNIT, 0.5, 4.0)


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
    sides = val - _cross_tail_constant(UNIT, 0.75, 4.0)
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
        params = EnergyParams(k, s, eps, delta)
        F = DiscreteEnergy(g, params, well, kern)
        assert F.energy(p.values) == eval_F(p, params, well, kern)
        err_f = check_gradient(F.energy, F.gradient, p)
        assert err_f <= 1e-6
        phi = DiscreteEnergy(g, EnergyParams(k, s, 1.0, 1.0), well, kern)
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
        model = DiscreteEnergy(g, EnergyParams(k, 0.75, 1.0, 0.3), well,
                               KernelSpec.cos_sum(2.5, 1.0), tail)
        pure = np.full(g.n_nodes, phase)
        assert model.energy(pure) == 0.0
        assert np.all(model.gradient(pure) == 0.0)


REUSE_KERNELS = [UNIT, KernelSpec.constant(2.0), KernelSpec.cos_sum(2.5, 1.0),
                 KernelSpec.cos_prod(2.0, 0.7)]
REUSE_IDS = ["none", "constant", "cos_sum", "cos_prod"]  # "none": no weighting, the unit kernel


def _reuse_case(k, kspec, tail_signs=None, chi=0.0, well=None):
    g = make_grid(-3.0, 3.0, 60)

    def model():
        return DiscreteEnergy(g, EnergyParams(k, 0.75, 1.0, 0.3), well or DoubleWell(chi), kspec,
                              tail_signs)
    rng = np.random.default_rng(7 * k + 3)
    u = np.tanh(2.0 * g.nodes()) + 0.1 * rng.standard_normal(g.n_nodes)
    u[0], u[-1] = -1.0, 1.0
    return model, u


def _count_points(monkeypatch, model):
    """Wrap the model's per-point step; the list counts its evaluations."""
    calls = []
    step = model._point
    monkeypatch.setattr(model, "_point", lambda values: calls.append(1) or step(values))
    return calls


@pytest.mark.parametrize("tail", [False, True], ids=["no_tail", "tail"])
@pytest.mark.parametrize("kspec", REUSE_KERNELS, ids=REUSE_IDS)
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("chi", [0.0, 0.3])
def test_gradient_reuse_matches_fresh_instance(chi, k, kspec, tail, monkeypatch):
    make, u = _reuse_case(k, kspec, (-1, 1) if tail else None, chi)
    model = make()
    calls = _count_points(monkeypatch, model)
    model.energy(u)
    np.testing.assert_array_equal(model.gradient(u), make().gradient(u))
    assert len(calls) == 1  # the gradient reused the energy's point


@pytest.mark.parametrize("kspec, transforms, rows", [
    (KernelSpec.constant(2.0), [1, 0], 1), (KernelSpec.cos_sum(2.5, 1.0), [1, 1], 1),
    (KernelSpec.cos_prod(2.0, 0.7), [1, 0], 2)], ids=REUSE_IDS[1:])
def test_energy_and_gradient_transform_count(kspec, transforms, rows, monkeypatch):
    # rffts per call: the value takes one product, cos_prod's two rows in one
    # batched transform, and the gradient at its point reuses it; cos_sum's
    # gradient adds the single-row W (t o g)
    make, u = _reuse_case(1, kspec)
    model, calls, rfft = make(), [], np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *args: calls.append(np.ndim(args[0])) or rfft(*args))
    model.energy(u)
    counts = [len(calls)]
    model.gradient(u)
    assert counts + [len(calls) - counts[0]] == transforms
    assert calls == [rows] * len(calls)


def test_gradient_reuse_follows_the_content(monkeypatch):
    make, u = _reuse_case(1, KernelSpec.cos_sum(2.5, 1.0), (-1, 1))
    model = make()
    calls = _count_points(monkeypatch, model)
    # an equal-content copy hits
    model.energy(u)
    np.testing.assert_array_equal(model.gradient(u.copy()), make().gradient(u))
    assert len(calls) == 1
    # an in-place change misses and gives the fresh gradient
    u[17] += 0.25
    np.testing.assert_array_equal(model.gradient(u), make().gradient(u))
    assert len(calls) == 2
    # a returned gradient is the caller's: writing into it changes nothing
    model.energy(u)
    first = model.gradient(u)
    first[:] = 7.0
    np.testing.assert_array_equal(model.gradient(u), make().gradient(u))
    assert len(calls) == 3
    # NaN != NaN: a point with a NaN entry never hits
    u[5] = np.nan
    model.energy(u)
    model.gradient(u)
    assert len(calls) == 5


@pytest.mark.parametrize("kspec", REUSE_KERNELS, ids=REUSE_IDS)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_pure_phase_and_constants_exactly_zero_through_reuse(k, kspec, monkeypatch):
    for phase in (1.0, -1.0):
        for tail in (None, (phase, phase)):
            make, u = _reuse_case(k, kspec, tail, chi=0.4)
            model = make()
            calls = _count_points(monkeypatch, model)
            pure = np.full(u.size, phase)
            assert model.energy(pure) == 0.0
            assert np.all(model.gradient(pure) == 0.0)
            assert len(calls) == 1
    # the nonlocal term alone, on constants whose stencil sums and mean are
    # exact in floating point
    make, u = _reuse_case(k, kspec, well=_NoWell())
    model = make()
    calls = _count_points(monkeypatch, model)
    consts = (-1.0, 0.0, 0.5, 3.0)
    for c in consts:
        const = np.full(u.size, c)
        assert model.energy(const) == 0.0
        assert np.all(model.gradient(const) == 0.0)
    assert len(calls) == len(consts)


def test_discrete_energy_matches_op_functions_with_tail():
    rng = np.random.default_rng(23)
    g = make_grid(-4.0, 4.0, 80)
    k, s = 0, 0.75
    well = DoubleWell(0.2)
    kern = KernelSpec.cos_sum(2.5, 1.0)
    x = g.nodes()
    u = np.tanh(2 * x)
    u[0], u[-1] = -1.0, 1.0
    model = DiscreteEnergy(g, EnergyParams(k, s, 1.0, 1.0), well, kern, (-1, 1))
    # the closed-form tail over ordered pairs, written out
    xi, h = x[1:-1], g.h
    rho = kern.c0 + kern.c1 * np.cos(2 * np.pi * xi)  # the one-period mean of y -> a(x, y)
    c_right = 2.0 * h * rho * (4.0 - xi) ** -1.5 / 1.5
    c_left = 2.0 * h * rho * (4.0 + xi) ** -1.5 / 1.5
    tail = (u[1:-1] - 1.0) ** 2 @ c_right + (u[1:-1] + 1.0) ** 2 @ c_left \
        + _cross_tail_constant(kern, s, 4.0)
    expect = _phi(GridProfile(g, u), k, s, kern, well) + tail
    assert model.energy(u) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError, match="symmetric"):
        DiscreteEnergy(make_grid(-4.0, 5.0, 80), EnergyParams(k, s, 1.0, 1.0), well, kern,
                       tail_signs=(-1, 1))
    with pytest.raises(ValueError, match="tail signs must be"):
        DiscreteEnergy(g, EnergyParams(k, s, 1.0, 1.0), well, kern, tail_signs=(0, 1))


@pytest.mark.parametrize("s,k", [(s, k) for s in (0.3, 0.5, 0.75) for k in (0, 1, 2)
                                 if k + s > 0.5])
def test_gradient_fd_across_exponent_table(k, s):
    # every supported (k, s) with k + s > 1/2, small N
    from fraclab import check_gradient

    rng = np.random.default_rng(k * 10 + int(10 * s))
    g = make_grid(-2.0, 2.0, 64)
    model = DiscreteEnergy(g, EnergyParams(k, s, 1.0, 0.5), DoubleWell(0.2),
                           KernelSpec.cos_prod(2.0, 0.7))
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
    table = _pair_table(n_nodes, grid.h, 0.75)
    w = table.weights
    scale = 0.37
    idx = np.arange(n_nodes)
    dense = w[np.abs(idx[:, None] - idx[None, :])] * kspec.eval(
        x[:, None] / scale, x[None, :] / scale)
    g = np.random.default_rng(n_nodes).standard_normal(n_nodes)
    form = _PairForm(table, kspec, x, scale)
    for vec, expect in ((g, dense @ g), (np.ones(n_nodes), dense.sum(axis=1))):
        got = form.apply(vec)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))
    np.testing.assert_array_equal(form.row, form.apply(np.ones(n_nodes)))
    pairs = float(np.sum(dense * (g[:, None] - g[None, :]) ** 2))
    assert form.value(g) == pytest.approx(pairs, rel=1e-13)


@pytest.mark.parametrize("kspec", OPERATOR_KERNELS, ids=lambda k: k.kind)
def test_diag_and_period_mean_match_the_kernel(kspec):
    # on a form and on a block of it: diag is a(x/scale, x/scale), and
    # period_mean the mean of a(x/scale, y) over y = j/64, j < 64, a rule
    # exact for these trigonometric polynomials
    grid, scale, s, (lo, hi) = make_grid(-1.0, 2.0, 300), 0.37, 0.75, (40, 161)
    x = grid.nodes()
    form = _PairForm(_pair_table(grid.n_nodes, grid.h, s), kspec, x, scale)
    block = form.block(lo, hi, _pair_table(hi - lo, grid.h, s))
    y = np.arange(64) / 64.0
    for f, nodes in ((form, x), (block, x[lo:hi])):
        r = nodes / scale
        np.testing.assert_allclose(f.diag(), kspec.eval(r, r), rtol=0, atol=1e-13)
        np.testing.assert_allclose(f.period_mean(), kspec.eval(r[:, None], y).mean(axis=1),
                                   rtol=0, atol=1e-13)


def test_kernel_sampled_where_its_phase_overflows_raises():
    # 2 pi x / delta is not finite at x = 1: the samples would be NaN
    grid, params = make_grid(0.0, 1.0, 64), EnergyParams(0, 0.75, 1.0, 1e-310)
    with pytest.raises(ValueError, match="delta = 1e-310 is too small"):
        DiscreteEnergy(grid, params, DoubleWell(0.0), KernelSpec.cos_sum(2.5, 1.0))
    # a kernel without terms samples nothing
    DiscreteEnergy(grid, params, DoubleWell(0.0), KernelSpec.constant(2.0))


# the kernel-free pair table: one per (n, h, s), shared by every energy on it


def fresh_pair_tables(monkeypatch, builds=None):
    """Give the test an empty table cache of its own; ``builds`` records the
    key of every table it builds."""
    cached = energy_module._pair_table

    def build(n, h, s):
        if builds is not None:
            builds.append((n, h, s))
        return cached.__wrapped__(n, h, s)

    monkeypatch.setattr(energy_module, "_pair_table",
                        functools.lru_cache(**cached.cache_parameters())(build))


@pytest.mark.parametrize("kspec", OPERATOR_KERNELS, ids=lambda k: k.kind)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_energy_from_a_warm_pair_table_equals_one_from_a_cold_table(monkeypatch, k, kspec):
    s = 0.75 if k == 0 else 0.5
    grid = make_grid(-3.0, 3.0, 300)
    x = grid.nodes()
    u, free = np.tanh(2.0 * x) + 0.05 * np.sin(7.0 * x), np.abs(x) < 2.0

    def evaluate():
        model = DiscreteEnergy(grid, EnergyParams(k, s, 2.0 ** -3, 0.3), DoubleWell(0.3), kspec)
        return (model.energy(u), model.gradient(u), model._form.row,
                model.preconditioner(free)(np.where(free, u, 0.0)))

    fresh_pair_tables(monkeypatch)
    cold = evaluate()
    # warmed by an energy of another kernel, eps and delta on the same grid
    fresh_pair_tables(monkeypatch)
    DiscreteEnergy(grid, EnergyParams(k, s, 1.0, 1.7), DoubleWell(0.0),
                   KernelSpec.cos_prod(3.0, 1.0)).energy(u)
    warm = evaluate()
    info = energy_module._pair_table.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    for a, b in zip(cold, warm):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_block_pair_weights_are_the_grid_prefix(k):
    # under the grid's h: the block grid's own h can differ in its last bits
    model, block, lo, hi = _window_case(k, KernelSpec.cos_sum(2.5, 1.0))[:4]
    table = block._form._table
    assert table is energy_module._pair_table(hi - lo, model.grid.h, model.params.s)
    assert np.array_equal(table.weights, model._weights[:hi - lo])


def test_pair_table_arrays_are_read_only():
    table = _pair_table(9, 0.125, 0.75)
    for a in (table.weights, table.symbol, table.ones):
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_threads_share_a_pair_table(monkeypatch):
    # energies at eight deltas on one grid, built and evaluated by four threads
    # at once from an empty cache, read one table and match a serial run
    grid = make_grid(0.0, 1.0, 512)
    u = np.tanh((grid.nodes() - 0.5) / 0.05)

    def energy(delta):
        return DiscreteEnergy(grid, EnergyParams(0, 0.75, 2.0 ** -5, delta), DoubleWell(0.3),
                              KernelSpec.cos_sum(2.5, 1.0)).energy(u)

    deltas = [2.0 ** -j for j in range(3, 11)]
    fresh_pair_tables(monkeypatch)
    serial = [energy(d) for d in deltas]
    fresh_pair_tables(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(energy, d) for d in deltas]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert energy_module._pair_table.cache_info().currsize == 1


def test_recoveries_of_one_process_build_one_pair_table_per_grid(tmp_path, monkeypatch):
    # 4 eps x {lambda, supercritical}: every recovery energy and reference
    # solve shares the tables of its (n, h, s), whatever its kernel scale
    builds = []
    fresh_pair_tables(monkeypatch, builds)
    monkeypatch.setattr(harness, "_REFERENCES", {})
    raw = {"command": "recovery", "kernel": {"variant": "cos_sum", "c0": 2.5, "c1": 1.0},
           "jumps": [[0.5, 1]], "T_profile": 2.0, "n_cells": 512, "reference_n_cells": 192,
           "grad_tol": 1e-4}
    for mode in ("lambda", "supercritical"):
        for e in (5, 6, 7, 8):
            path = tmp_path / f"{mode}{e}.json"
            path.write_text(json.dumps(dict(raw, mode=mode, eps=2.0 ** -e)))
            harness.run_experiment(harness.load_config(path), path.with_suffix(".csv"))
    assert len(builds) == len(set(builds))
    assert 513 in {n for n, _, _ in builds}


_THREAD_SCRIPT = """
import json
from fraclab import DoubleWell, KernelSpec, MinimizeOptions, TransitionProblem, transition_energy
tp = TransitionProblem(kernel=KernelSpec.cos_sum(2.5, 1.0), mode="lambda", lam=1.0,
                       T=4.0, n_cells=384, well=DoubleWell(0.0), k=0, s=0.75)
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


def _blocks(free):
    edges = np.flatnonzero(np.diff(np.concatenate(([0], free.astype(int), [0]))))
    return list(zip(edges[::2], edges[1::2]))


def _transition_case(k, kspec=KernelSpec.cos_sum(2.5, 1.0), delta=1.3, tail_signs=(-1, 1)):
    """One free block: a clamped transition problem with its exterior tail
    at eps = 1 (delta = 1.3 by default, so delta > eps)."""
    s = 0.75 if k == 0 else 0.5
    grid = make_grid(-6.0, 6.0, 96)
    model = DiscreteEnergy(grid, EnergyParams(k, s, 1.0, delta), DoubleWell(0.0), kspec,
                           tail_signs)
    return model, kspec, delta, np.abs(grid.nodes()) < 2.0


def _sweep_case(k):
    """Two free blocks of different sizes: a two-jump eps/delta sweep mask."""
    s, eps, delta = (0.75 if k == 0 else 0.5), 2.0 ** -4, 2.0 ** -6
    kspec = KernelSpec.cos_prod(2.0, 0.7)
    grid = make_grid(0.0, 1.0, 160)
    model = DiscreteEnergy(grid, EnergyParams(k, s, eps, delta), DoubleWell(0.0), kspec)
    x = grid.nodes()
    return model, kspec, delta, (np.abs(x - 0.3) < 0.1) | (np.abs(x - 0.7) < 0.15)


def _lambda_cases():
    """The lambda-mode transition blocks of both cosine kernels at lam = 1/4,
    1 and 4 (eps = 1, delta = lam), for k = 0 and 1: (case, k) pairs."""
    return [pytest.param(functools.partial(_transition_case, kspec=kspec, delta=lam), k,
                         id=f"{kspec.kind}-lam{lam:g}-{k}")
            for kspec in (KernelSpec.cos_sum(2.5, 1.0), KernelSpec.cos_prod(2.0, 0.7))
            for lam in (0.25, 1.0, 4.0) for k in (0, 1)]


PRECONDITIONER_CASES = [pytest.param(case, k, id=f"{case.__name__}-{k}")
                        for case in (_transition_case, _sweep_case)
                        for k in (0, 1, 2)] + _lambda_cases()


def _dense_inverse_preconditioner(model, kspec, scale, free):
    """P^-1 from its definition, per block of m free nodes.  V holds the
    orthonormal sine modes and lam the mean-kernel symbol, its sum over the
    pair weights taken term by term.

    For k = 0 and 1 with a varying kernel and delta >= h/2 (the two-scale
    rule): P^-1 = V diag(phi/lam) V^T + V E U^T O S U diag((1 - phi)/sigma)
    U^T O S U E V^T, phi = 1/(1 + (xi/(2 kappa))^2), xi = theta/h,
    kappa = 2 pi/delta, S = (a(x/delta, x/delta)/a_bar)^(-1/2) on the nodes
    of g.  For k = 0, g = u: U = V, O = I and sigma = lam.  For k = 1, g
    lives on the block and its clamped neighbours, U holds the cosine modes
    1..m there, orthonormal under O = diag(1/2, 1, ..., 1, 1/2), and sigma
    = (kernel part of lam) / |D_1|^2.  E = diag(sigma/lam)^(1/2).

    Otherwise P = V diag(lam) V^T, plus for k = 2 the rank-one terms of the
    second differences at the two clamped neighbours, inverted densely."""
    grid, k = model.grid, model.k
    n, h, x = grid.n_nodes, grid.h, grid.nodes()
    w = _pair_table(n, h, model.params.s).weights
    diff = np.column_stack([kth_difference(GridProfile(grid, e), k).values for e in np.eye(n)])
    two_scale = k < 2 and kspec.kind != "constant" and scale >= 0.5 * h
    out = np.zeros((n, n))
    for a, b in _blocks(free):
        m = b - a
        i = np.arange(1, m + 1)
        theta = i * np.pi / (m + 1)
        sym = w[1:] @ (1.0 - np.cos(np.outer(np.arange(1, n), theta)))
        dk2 = {0: 1.0, 1: np.sin(theta) ** 2 / h ** 2,
               2: (2.0 - 2.0 * np.cos(theta)) ** 2 / h ** 4}[k]
        kernel_part = model.nonlocal_coef * 8.0 * kspec.a_bar * sym * dk2
        lam = kernel_part + 8.0 * h * model.well_coef
        V = np.sin(np.outer(i, i) * np.pi / (m + 1)) * np.sqrt(2.0 / (m + 1))
        if two_scale:
            xi, kappa = theta / h, 2.0 * np.pi / scale
            phi = 1.0 / (1.0 + (xi / (2.0 * kappa)) ** 2)
            nodes = np.arange(a - k, b + k)  # of g = D_k u
            S = np.diag((kspec.eval(x[nodes] / scale, x[nodes] / scale) / kspec.a_bar) ** -0.5)
            if k == 0:
                U, O, sigma = V, np.eye(m), lam
            else:
                j = np.arange(m + 2)
                U = np.cos(np.outer(j, theta)) * np.sqrt(2.0 / (m + 1))
                O = np.diag(np.r_[0.5, np.ones(m), 0.5])
                sigma = kernel_part / dk2
            E = np.diag(np.sqrt(sigma / lam))
            scaled = U.T @ O @ S @ U  # S on the modes of g
            out[a:b, a:b] = V @ np.diag(phi / lam) @ V.T \
                + V @ E @ scaled @ np.diag((1.0 - phi) / sigma) @ scaled @ E @ V.T
            continue
        p = V @ np.diag(lam) @ V.T
        if k == 2:
            for q in (a - 1, b):
                others = np.arange(n) != q
                row = w[np.abs(np.arange(n) - q)][others] @ kspec.eval(x[q] / scale, x[others] / scale)
                p += 4.0 * model.nonlocal_coef * row * np.outer(diff[q, a:b], diff[q, a:b])
        out[a:b, a:b] = np.linalg.inv(p)
    return out


def _as_matrix(apply, n):
    return np.column_stack([apply(e) for e in np.eye(n)])


@pytest.mark.parametrize("case, k", PRECONDITIONER_CASES)
def test_preconditioner_matches_dense_sine_form(case, k):
    model, kspec, scale, free = case(k)
    assert len(_blocks(free)) == (1 if case is not _sweep_case else 2)
    got = _as_matrix(model.preconditioner(free), model.grid.n_nodes)
    expect = _dense_inverse_preconditioner(model, kspec, scale, free)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-11 * np.abs(expect).max())


@pytest.mark.parametrize("k, kspec, delta", [
    (0, KernelSpec.constant(2.5), 1.3), (1, KernelSpec.constant(2.5), 1.3),
    (2, KernelSpec.cos_sum(2.5, 1.0), 1.3), (2, KernelSpec.cos_prod(2.0, 0.7), 1.3),
    (0, KernelSpec.cos_sum(2.5, 1.0), 0.06), (1, KernelSpec.cos_prod(2.0, 0.7), 0.06),
], ids=["constant", "constant-k1", "k2", "k2-cos_prod", "delta<h/2", "delta<h/2-k1"])
def test_preconditioner_keeps_the_mean_kernel_off_the_local_scaling_rule(k, kspec, delta,
                                                                         monkeypatch):
    # constant kernels, k = 2 and kernels finer than half a cell (h = 1/8
    # here) keep the mean-kernel sine form: the two-scale rule is never entered
    def refuse(*args):
        raise AssertionError("the two-scale rule was entered")

    monkeypatch.setattr(DiscreteEnergy, "_two_scale_solve", refuse)
    model, kspec, scale, free = _transition_case(k, kspec, delta)
    got = _as_matrix(model.preconditioner(free), model.grid.n_nodes)
    expect = _dense_inverse_preconditioner(model, kspec, scale, free)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-11 * np.abs(expect).max())


@pytest.mark.parametrize("k, kspec, transforms", [
    (0, KernelSpec.constant(2.5), 2), (2, KernelSpec.cos_sum(2.5, 1.0), 2),
    (0, KernelSpec.cos_sum(2.5, 1.0), 2), (1, KernelSpec.cos_sum(2.5, 1.0), 6),
], ids=["mean-kernel", "k2-boundary-rows", "rule-k0", "rule-k1"])
def test_preconditioner_transform_count(k, kspec, transforms, monkeypatch):
    # rffts and irffts per application of a built P^-1 on one free block:
    # the mean kernel, with or without the k = 2 boundary rows, and the k = 0
    # rule take one batched transform each way; the k = 1 rule six
    model, _, _, free = _transition_case(k, kspec)
    apply = model.preconditioner(free)
    calls = []
    for name in ("rfft", "irfft"):
        fft = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda *args, fft=fft: calls.append(fft) or fft(*args))
    apply(np.random.default_rng(k).standard_normal(free.size))
    assert len(calls) == transforms


@pytest.mark.parametrize("kspec", [KernelSpec.cos_sum(2.5, 1.0), KernelSpec.constant(1.5)],
                         ids=lambda k: k.kind)
def test_k2_preconditioner_of_the_whole_grid_is_the_mean_kernel_solve(kspec):
    # a free block spanning the grid leaves no row outside it to couple to
    # the block, so P^-1 takes no boundary-row update
    grid = make_grid(-2.0, 2.0, 40)
    model = DiscreteEnergy(grid, EnergyParams(2, 0.5, 1.0, 1.3), DoubleWell(0.0), kspec)
    n = grid.n_nodes
    got = _as_matrix(model.preconditioner(np.ones(n, dtype=bool)), n)
    lam = model._symbol(n)[0]
    expect = _as_matrix(_sine_solve(np.ones((1, n)), 1.0 / lam[None]), n)
    assert np.abs(got - expect).max() == 0.0


@pytest.mark.parametrize("case, k", PRECONDITIONER_CASES)
def test_preconditioner_symmetric_positive_definite_on_free_nodes(case, k):
    model, _, _, free = case(k)
    pinv = _as_matrix(model.preconditioner(free), model.grid.n_nodes)[np.ix_(free, free)]
    np.testing.assert_allclose(pinv, pinv.T, rtol=0, atol=1e-13 * np.abs(pinv).max())
    assert np.linalg.eigvalsh(0.5 * (pinv + pinv.T)).min() > 0.0


@pytest.mark.parametrize("kspec", OPERATOR_KERNELS[1:], ids=lambda k: k.kind)
def test_two_scale_rule_on_blocks_at_the_grid_ends(kspec):
    # for k = 1, S reads each block's two clamped neighbours; a block at a
    # grid end has one of them off the grid
    grid = make_grid(-2.0, 2.0, 64)
    model = DiscreteEnergy(grid, EnergyParams(1, 0.5, 1.0, 0.5), DoubleWell(0.0), kspec)
    free = np.abs(grid.nodes()) > 1.0  # one block at each end
    pinv = _as_matrix(model.preconditioner(free), grid.n_nodes)[np.ix_(free, free)]
    np.testing.assert_allclose(pinv, pinv.T, rtol=0, atol=1e-13 * np.abs(pinv).max())
    assert np.linalg.eigvalsh(0.5 * (pinv + pinv.T)).min() > 0.0


@pytest.mark.parametrize("k", [0, 1])
def test_two_scale_rule_at_a_kernel_period_far_beyond_the_grid(k):
    # at delta = 1e300, (theta delta / (4 pi h))^2 overflows: phi takes its
    # limit 0 without a warning, so P^-1 is the one at delta = 1e100, where
    # phi is below 1e-199 and the kernel samples are 1 as well
    got, expect = (_as_matrix(model.preconditioner(free), model.grid.n_nodes)
                   for model, _, _, free in (_transition_case(k, delta=d) for d in (1e300, 1e100)))
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, expect, rtol=1e-15, atol=0)


@pytest.mark.parametrize("case, k", PRECONDITIONER_CASES)
def test_preconditioner_zero_on_clamped_nodes_and_at_zero(case, k):
    model, _, _, free = case(k)
    n = model.grid.n_nodes
    apply = model.preconditioner(free)
    d = apply(np.random.default_rng(k).standard_normal(n))
    assert np.all(d[~free] == 0.0) and np.any(d[free] != 0.0)
    assert np.all(apply(np.zeros(n)) == 0.0)


@pytest.mark.parametrize("case, k", [pytest.param(_sweep_case, k, id=str(k)) for k in (0, 1, 2)]
                         + _lambda_cases())
def test_preconditioned_pure_phase_stops_at_iteration_zero(case, k):
    for phase in (1, -1):
        # a lambda block's exterior tail takes the phase's sign on both sides
        model, _, _, free = case(k) if case is _sweep_case else case(k, tail_signs=(phase, phase))
        start = GridProfile(model.grid, np.full(model.grid.n_nodes, float(phase)))
        res = minimize(model.energy, model.gradient, start, free,
                       MinimizeOptions(grad_tol=0.0), precondition=model.preconditioner(free))
        assert (res.iterations, res.stop_reason, res.final_grad_norm) == (0, "grad_tol", 0.0)
        np.testing.assert_array_equal(res.profile.values, start.values)


# ---------------------------------------------------------------------------
# DiscreteEnergy.block: a window of a larger grid, the pinned rest as its
# exterior term


def _window_case(k, kspec, n_cells=2000, margin=None, ends=(-1.0, 1.0)):
    """An eps/delta energy on (0, 1), a ramp in |x - 1/2| < 1/8 pinned to
    ``ends`` outside, and its block with ``margin`` pinned nodes per side
    (the sweep's _REACH[k] by default); ``v`` moves the free nodes at random."""
    s, eps = (0.75 if k == 0 else 0.5), 2.0 ** -7
    grid = make_grid(0.0, 1.0, n_cells)
    x = grid.nodes()
    model = DiscreteEnergy(grid, EnergyParams(k, s, eps, eps ** 0.5), DoubleWell(0.3), kspec)
    free = np.abs(x - 0.5) < 0.125
    left, right = ends
    u = np.where(x >= 0.5, right, left)
    q = np.clip((x[free] - 0.375) / 0.25, 0.0, 1.0)
    u[free] = (right - left) * q * q * (3.0 - 2.0 * q) + left
    idx = np.flatnonzero(free)
    m = _REACH.get(k, 0) if margin is None else margin
    lo, hi = idx[0] - m, idx[-1] + 1 + m
    v = u.copy()
    v[free] += 0.1 * np.random.default_rng(k).standard_normal(idx.size)
    return model, model.block(lo, hi, u), lo, hi, free, u, v


@pytest.mark.parametrize("kspec", OPERATOR_KERNELS, ids=lambda k: k.kind)
@pytest.mark.parametrize("k, ends", [(0, (-1.0, 1.0)), (1, (-1.0, 1.0)), (2, (-1.0, 1.0)),
                                     (0, (-0.6, 0.8))],
                         ids=["0", "1", "2", "0-pinned-off-phase"])
def test_block_energy_and_gradient_match_the_full_grid(k, ends, kspec):
    # c0 is fitted, so the pinned values need not be +-1
    model, block, lo, hi, free, u, v = _window_case(k, kspec, ends=ends)
    assert block.grid.n_nodes == hi - lo
    np.testing.assert_allclose(block.grid.nodes(), model.grid.nodes()[lo:hi], rtol=0, atol=1e-15)
    # c0 was fitted at u; v is another profile with the same pinned values
    assert block.energy(v[lo:hi]) == pytest.approx(model.energy(v), rel=1e-12, abs=0.0)
    full, part = model.gradient(v)[free], block.gradient(v[lo:hi])[free[lo:hi]]
    np.testing.assert_allclose(part, full, rtol=0, atol=1e-12 * np.abs(full).max())
    # and the full grid's preconditioner, k = 2's boundary rows included
    r = np.where(free, np.random.default_rng(5).standard_normal(free.size), 0.0)
    full = model.preconditioner(free)(r)
    part = block.preconditioner(free[lo:hi])(r[lo:hi])
    np.testing.assert_allclose(part, full[lo:hi], rtol=0, atol=1e-13 * np.abs(full).max())


@pytest.mark.parametrize("kspec", OPERATOR_KERNELS[1:], ids=lambda k: k.kind)
def test_block_slices_the_kernel_samples_the_rule_reads(kspec, monkeypatch):
    # the kernel is sampled once per grid: a block's samples are the parent's
    # slice bit for bit, and the two-scale S is (diag / a_bar)^(-1/2) on the
    # free nodes, read off the energy's own samples
    model, block, lo, hi, free, u, v = _window_case(0, kspec)
    assert np.array_equal(block._form.t, model._form.t[lo:hi])
    for name in ("diag", "period_mean"):
        assert np.array_equal(getattr(block._form, name)(), getattr(model._form, name)()[lo:hi])
    scales = []
    monkeypatch.setattr(energy_module, "_sine_solve", lambda sc, weights: scales.append(sc))
    block.preconditioner(free[lo:hi])
    assert np.array_equal(scales[0][1], (block._form.diag()[free[lo:hi]] / kspec.a_bar) ** -0.5)


@pytest.mark.parametrize("kspec", OPERATOR_KERNELS, ids=lambda k: k.kind)
@pytest.mark.parametrize("k", [1, 2])
def test_block_needs_its_reach_in_pinned_nodes(k, kspec):
    # with one node less, the block's one-sided edge rows read a free node
    model, block, lo, hi, free, u, v = _window_case(k, kspec, margin=_REACH[k] - 1)
    assert abs(block.energy(v[lo:hi]) / model.energy(v) - 1.0) > 1e-6


@pytest.mark.parametrize("kspec", OPERATOR_KERNELS, ids=lambda k: k.kind)
def test_block_constant_is_the_pinned_pair_sum(kspec):
    # k = 0 at N = 501: c0 less sum(R), the pinned rest's constant at |u| = 1,
    # against the pinned-pinned pairs summed one by one; c0 is a difference
    # of FFT-evaluated energies, 2e-12 off here
    model, block, lo, hi, free, u, v = _window_case(0, kspec, n_cells=500)
    x, scale = model.grid.nodes(), 2.0 ** -3.5
    pinned = np.r_[0:lo, hi:x.size]
    xp, up = x[pinned], u[pinned]
    w = _pair_table(x.size, model.grid.h, 0.75).weights[np.abs(pinned[:, None] - pinned[None, :])]
    direct = float(np.sum(w * kspec.eval(xp[:, None] / scale, xp[None, :] / scale)
                          * (up[:, None] - up[None, :]) ** 2))
    R, _, c0 = block._exterior
    assert c0 - R.sum() == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("signs", [(-1, 1), (1, 1)])
@pytest.mark.parametrize("kspec", OPERATOR_KERNELS, ids=lambda k: k.kind)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_block_of_a_tail_energy_matches_the_full_energy(k, kspec, signs):
    # a transition energy with its exterior tail, blocked on the free nodes
    # |x| < 2 and _REACH[k] pinned nodes per side (one for k = 0): the tail
    # rows on the block join its exterior term, those on the pinned nodes C0
    s = 0.75 if k == 0 else 0.5
    grid = make_grid(-6.0, 6.0, 240)
    x = grid.nodes()
    model = DiscreteEnergy(grid, EnergyParams(k, s, 1.0, 1.3), DoubleWell(0.3), kspec, signs)
    free = np.abs(x) < 2.0
    u = np.where(x >= 0.0, float(signs[1]), float(signs[0]))
    u[free] = np.interp(x[free], [-2.0, 2.0], signs)
    idx, m = np.flatnonzero(free), _REACH.get(k, 1)
    lo, hi = idx[0] - m, idx[-1] + 1 + m
    block = model.block(lo, hi, u)
    assert block.energy(u[lo:hi]) == pytest.approx(model.energy(u), rel=1e-12, abs=0.0)
    v = u.copy()
    v[free] += 0.1 * np.random.default_rng(k).standard_normal(idx.size)
    assert block.energy(v[lo:hi]) == pytest.approx(model.energy(v), rel=1e-12, abs=0.0)
    full, part = model.gradient(v)[free], block.gradient(v[lo:hi])[free[lo:hi]]
    np.testing.assert_allclose(part, full, rtol=0, atol=1e-12 * np.abs(full).max())
