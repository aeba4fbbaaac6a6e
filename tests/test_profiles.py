import warnings

import numpy as np
import pytest

from dataclasses import replace

from fraclab import (
    DoubleWell,
    GridProfile,
    KernelSpec,
    MinimizeOptions,
    TransitionProblem,
    minimize,
    predicted_limit,
    scaling_exponent,
    transition_energy,
    transition_energy_curve,
)
from fraclab.grid import make_grid
from fraclab.profiles import _assemble, _start
from probes import descending_energy

OPTS = MinimizeOptions(grad_tol=1e-5)


def small_problem(**kw):
    base = dict(kernel=KernelSpec.constant(1.0), mode="homogeneous",
                T=2.0, n_cells=192, well=DoubleWell(0.0), k=0, s=0.75)
    base.update(kw)
    return TransitionProblem(**base)


@pytest.mark.parametrize("T", [1.0, 1.7, 4.0, 1e6])
def test_only_three_cells_leave_no_free_node(T):
    # TransitionProblem rejects n_cells = 3 alone, without building the grid:
    # the free mask of the solve's start agrees at every small n_cells
    tp = small_problem(T=T)
    for n in range(2, 41):
        free = _start(tp, make_grid(-tp.T_out, tp.T_out, n))[1]
        assert free.any() == (n != 3)
        if n == 3:
            with pytest.raises(ValueError, match="no node lies inside"):
                small_problem(T=T, n_cells=n)


def test_transition_energy_positive_and_clamped():
    tp = small_problem()
    res = transition_energy(tp, OPTS)
    assert res.energy > 0.0
    x = res.profile.grid.nodes()
    outside = np.abs(x) >= tp.T
    np.testing.assert_array_equal(res.profile.values[outside], np.sign(x[outside]))


def test_transition_problem_validation():
    with pytest.raises(ValueError):
        small_problem(T=0.5)  # the grid (-3T, 3T) needs T >= 1
    with pytest.raises(ValueError):
        small_problem(mode="nonsense")
    with pytest.raises(TypeError):
        small_problem(omega=1)  # every solve ascends: no direction to choose
    with pytest.raises(ValueError):
        small_problem(k=0, s=0.5)
    with pytest.raises(ValueError, match="lambda mode needs lam > 0"):
        small_problem(kernel=KernelSpec.cos_sum(2.5, 1.0), mode="lambda", lam=0.0)


@pytest.mark.parametrize("lam", [0.25, 1.0])
@pytest.mark.parametrize("chi", [0.0, 0.4])
@pytest.mark.parametrize("kernel", [KernelSpec.constant(1.0), KernelSpec.cos_sum(2.5, 1.0),
                                    KernelSpec.cos_prod(2.0, 0.7)], ids=lambda k: k.kind)
@pytest.mark.parametrize("k, s", [(0, 0.75), (1, 0.5), (2, 0.3)])
def test_descending_energy_of_the_reflection_is_the_ascending_energy(k, s, kernel, chi, lam):
    # every kernel is even and the (-3T, 3T) grid symmetric about 0, so the
    # descending energy at u(-x) is the ascending one at u, whatever the tilt,
    # and its gradient the reflected one: a descending solve is the ascending
    # one reflected, which is why every transition solve ascends.  Measured:
    # 4.9e-14 in energy and 3.4e-14 of max |gradient| at the perturbed ramp
    tp = small_problem(kernel=kernel, mode="lambda", lam=lam, well=DoubleWell(chi), k=k, s=s)
    up = _assemble(tp)
    ramp, free = _start(tp, up.grid)
    u = ramp + np.where(free, 0.1 * np.random.default_rng(k).standard_normal(ramp.size), 0.0)
    down = descending_energy(tp)
    assert down.energy(u[::-1]) == pytest.approx(up.energy(u), rel=2e-13, abs=0.0)
    gradient = up.gradient(u)
    reflected = down.gradient(u[::-1])[::-1]
    assert np.max(np.abs(reflected - gradient)) <= 1e-13 * np.max(np.abs(gradient))


def test_jump_direction_symmetry_even_well_even_kernel():
    # m- is the descending energy at the reflected ascending minimizer
    tp = small_problem(kernel=KernelSpec.cos_sum(2.5, 1.0), mode="lambda", lam=1.0)
    up = transition_energy(tp, OPTS)
    down = descending_energy(tp).energy(up.profile.values[::-1])
    assert down == pytest.approx(up.energy, rel=1e-12, abs=0.0)


def test_omega_swap_negates_and_reflects_minimizer():
    # even well, even kernel: the negated ascending minimizer is a descending
    # one too, and it coincides with the reflected one since the ascending
    # minimizer is odd
    tp = small_problem(kernel=KernelSpec.cos_sum(2.5, 1.0), mode="lambda", lam=1.0)
    res = transition_energy(tp, OPTS)
    up, down = res.profile.values, descending_energy(tp)
    free = _start(tp, res.profile.grid)[1]
    assert down.energy(-up) == pytest.approx(res.energy, rel=1e-12, abs=0.0)
    assert np.max(np.abs(down.gradient(-up)[free])) <= OPTS.grad_tol + 1e-12
    np.testing.assert_allclose(up, -up[::-1], atol=5e-4)


def test_constant_kernel_scaling_law_small():
    c = 4.0
    k, s = 0, 0.75
    lam = c ** scaling_exponent(k, s)
    tp1 = small_problem()
    m1 = transition_energy(tp1, OPTS).energy
    tpc = small_problem(kernel=KernelSpec.constant(c), mode="lambda",
                        T=2.0 * lam)
    mc = transition_energy(tpc, OPTS).energy
    assert mc / m1 == pytest.approx(lam, rel=1e-3)


def test_argmin_invariance_under_kernel_scaling():
    # the c-problem on the lambda-enlarged grid has the same nodal minimizer
    c = 4.0
    k, s = 0, 0.75
    lam = c ** scaling_exponent(k, s)
    tp1 = small_problem()
    r1 = transition_energy(tp1, OPTS)
    tpc = small_problem(kernel=KernelSpec.constant(c), mode="lambda",
                        T=2.0 * lam)
    rc = transition_energy(tpc, OPTS)
    np.testing.assert_allclose(rc.profile.values, r1.profile.values, atol=2e-4)


def test_curve_monotone_and_flag():
    tp = small_problem(n_cells=160)
    results = transition_energy_curve(tp, [2.0, 4.0], OPTS)
    assert results[1].energy <= results[0].energy + 1e-6
    with pytest.raises(ValueError):
        transition_energy_curve(tp, [4.0, 2.0], OPTS)


def test_sandwich_bounds_at_matched_discretization():
    kern = KernelSpec.cos_sum(2.5, 1.0)
    tp_a = small_problem(kernel=kern, mode="lambda", lam=1.0)
    tp_1 = small_problem()
    m_a = transition_energy(tp_a, OPTS).energy
    m_1 = transition_energy(tp_1, OPTS).energy
    assert min(kern.alpha_a, 1.0) * m_1 - 1e-6 <= m_a
    assert m_a <= max(kern.beta_a, 1.0) * m_1 + 1e-6


def test_predicted_limit_examples():
    kern1 = KernelSpec.constant(1.0)
    m = 4.2
    for mode in ("lambda", "supercritical", "subcritical", "homogeneous"):
        assert predicted_limit(kern1, mode, 0, 0.75, 1, m) == pytest.approx(m)

    kern = KernelSpec.cos_sum(2.5, 1.0)
    sub = predicted_limit(kern, "subcritical", 0, 0.75, 1, m)
    sup = predicted_limit(kern, "supercritical", 0, 0.75, 1, m)
    assert sub / sup == pytest.approx(0.2 ** (2.0 / 3.0), rel=1e-12)
    assert sub / sup == pytest.approx(0.34199518933533946, rel=1e-6)

    # each jump costs one transition energy, whatever its direction
    two = predicted_limit(kern, "supercritical", 0, 0.75, 2, m)
    assert two == pytest.approx(2.0 * sup, rel=1e-12)


def test_predicted_limit_requires_estimates():
    kern = KernelSpec.constant(1.0)
    with pytest.raises(TypeError):
        predicted_limit(kern, "lambda", 0, 0.75, 1)
    with pytest.raises(TypeError):
        predicted_limit(kern, "supercritical", 0, 0.75, 1)
    with pytest.raises(ValueError, match="mode must be one of"):
        predicted_limit(kern, "critical", 0, 0.75, 1, 4.2)


def test_lambda_continuity_constant_kernel_invariant():
    tp = small_problem(kernel=KernelSpec.constant(2.0), mode="lambda", lam=1.0)
    a, b, c = [transition_energy(replace(tp, lam=lam), OPTS).energy for lam in (1.0, 0.95, 1.05)]
    assert a == pytest.approx(b, rel=1e-6)
    assert a == pytest.approx(c, rel=1e-6)
    assert min(a, b, c) > 0.0


def test_supercritical_and_subcritical_modes_reduce_to_constants():
    kern = KernelSpec.cos_sum(2.5, 1.0)
    tp_sup = small_problem(kernel=kern, mode="supercritical")
    tp_bar = small_problem(kernel=KernelSpec.constant(kern.a_bar), mode="lambda")
    assert transition_energy(tp_sup, OPTS).energy == pytest.approx(
        transition_energy(tp_bar, OPTS).energy, rel=1e-9)
    tp_sub = small_problem(kernel=kern, mode="subcritical")
    tp_inf = small_problem(kernel=KernelSpec.constant(kern.a_inf), mode="lambda")
    assert transition_energy(tp_sub, OPTS).energy == pytest.approx(
        transition_energy(tp_inf, OPTS).energy, rel=1e-9)


def test_transition_energy_cos_prod_kernel():
    kern = KernelSpec.cos_prod(2.0, 0.7)
    tp = small_problem(kernel=kern, mode="lambda", lam=1.0)
    res = transition_energy(tp, OPTS)
    m1 = transition_energy(small_problem(), OPTS).energy
    assert res.energy > 0
    assert min(kern.alpha_a, 1.0) * m1 - 1e-6 <= res.energy <= max(kern.beta_a, 1.0) * m1 + 1e-6


@pytest.mark.parametrize("kernel", [KernelSpec.constant(1.0), KernelSpec.cos_sum(2.5, 1.0),
                                    KernelSpec.cos_prod(2.0, 0.7)], ids=lambda k: k.kind)
@pytest.mark.parametrize("k", [0, 1])
def test_preconditioned_minimum_matches_plain_minimize(k, kernel):
    # the preconditioned window solve checked on the plain full-grid energy
    # and gradient, which no preconditioner enters; an identity-preconditioned
    # full-grid solve is still short of grad_tol after as many iterations
    tp = small_problem(kernel=kernel, mode="lambda", k=k, s=0.75 if k == 0 else 0.5)
    opts = MinimizeOptions(grad_tol=1e-7)
    pre = transition_energy(tp, opts)
    model = _assemble(tp)
    ramp, free = _start(tp, model.grid)
    assert pre.converged
    assert model.energy(pre.profile.values) == pytest.approx(pre.energy, rel=1e-12, abs=0.0)
    assert np.max(np.abs(model.gradient(pre.profile.values)[free])) <= opts.grad_tol + 1e-12
    plain = minimize(model.energy, model.gradient, GridProfile(model.grid, ramp), free,
                     replace(opts, max_iters=pre.iterations), precondition=lambda vec: vec)
    assert plain.stop_reason == "max_iters"


@pytest.mark.parametrize("mode", ["lambda", "supercritical", "homogeneous"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_windowed_transition_matches_the_full_grid_solve(k, mode):
    # transition_energy solves on |x| < T and _REACH[k] clamped nodes per
    # side; the same preconditioned solve on the whole (-T_out, T_out) grid
    tp = small_problem(kernel=KernelSpec.cos_sum(2.5, 1.0), mode=mode, lam=1.3, k=k,
                       s=0.75 if k == 0 else 0.5)
    opts = MinimizeOptions(grad_tol=1e-6)
    res = transition_energy(tp, opts)
    model = _assemble(tp)
    ramp, free = _start(tp, model.grid)
    full = minimize(model.energy, model.gradient, GridProfile(model.grid, ramp), free, opts,
                    precondition=model.preconditioner(free))
    assert res.converged and full.converged
    assert res.iterations == full.iterations
    assert res.energy == pytest.approx(full.energy, rel=1e-11, abs=0.0)
    assert res.profile.grid == model.grid
    fixed = ~free
    np.testing.assert_array_equal(res.profile.values[fixed], ramp[fixed])


def _workload_problem(k, lam=1.0, s=0.5):
    """The cos_sum profile at N = 769, as the profile benchmark runs it."""
    return TransitionProblem(kernel=KernelSpec.cos_sum(2.5, 1.0), mode="lambda", lam=lam,
                             T=4.0, n_cells=768, well=DoubleWell(0.0),
                             k=k, s=s)


def test_k2_profile_converges_at_769_nodes():
    res = transition_energy(_workload_problem(2), MinimizeOptions(grad_tol=1e-6))
    assert res.stop_reason == "grad_tol"


@pytest.mark.parametrize("s, n_cells", [(0.5, 2048), (0.5, 4096), (0.75, 1536)])
def test_k2_profile_stops_on_the_rounding_floor(s, n_cells):
    # the gradient's rounding floor lies above grad_tol = 1e-6 here: these
    # solves ran to max_iters (600 iterations took 0.23 to 0.68 s)
    tp = replace(_workload_problem(2), s=s, n_cells=n_cells)
    with pytest.warns(RuntimeWarning, match="stopped on rounding_floor"):
        res = transition_energy(tp, MinimizeOptions(grad_tol=1e-6))
    assert (res.stop_reason, res.converged) == ("rounding_floor", False)
    assert res.iterations < 100 and res.final_grad_norm > 1e-6


def test_k1_profile_iterations_bounded_under_lam_rounding():
    # without a preconditioner, a 1e-12 change of lam moved this solve
    # between 7,550 and 10,748 iterations
    for j in range(8):
        res = transition_energy(_workload_problem(1, lam=1.0 + j * 1e-12),
                                MinimizeOptions(grad_tol=1e-6))
        assert res.converged and res.iterations <= 100, (j, res.iterations)


# The k = 0, s = 0.75 cos_sum(2.5, 1) transition at lam = 4 (eps/delta = 1/4),
# T = 8, h = 1/32: its energy as frozen under the mean-kernel preconditioner,
# whose solve took 20 iterations, and the iterations of the solve under the
# two-scale preconditioner.
LAMBDA_4_TRANSITION = (24.80945125421514, 10)


def test_lambda_4_transition_keeps_its_energy_in_half_the_iterations():
    tp = TransitionProblem(kernel=KernelSpec.cos_sum(2.5, 1.0), mode="lambda", lam=4.0,
                           T=8.0, n_cells=1536, well=DoubleWell(0.0),
                           k=0, s=0.75)
    energy, iterations = LAMBDA_4_TRANSITION
    res = transition_energy(tp, MinimizeOptions(grad_tol=1e-6))
    assert res.converged
    assert res.energy == pytest.approx(energy, rel=1e-10, abs=0.0)
    assert res.iterations == iterations


# The cos_sum(2.5, 1) lam = 1 transitions at T = 4, n_cells = 768, as the
# profile benchmark runs them: (k, s) -> (energy frozen under the
# mean-kernel preconditioner, whose solves took 18 and 21 iterations, and
# the iteration cap under the two-scale preconditioner).
CRITICAL_PROFILES = {(0, 0.75): (28.300937362950908, 10), (1, 0.5): (5.843294724153614, 13)}


@pytest.mark.parametrize("k, s", list(CRITICAL_PROFILES))
def test_two_scale_preconditioner_solves_the_critical_profile_in_few_iterations(k, s):
    energy, cap = CRITICAL_PROFILES[k, s]
    res = transition_energy(_workload_problem(k, s=s), MinimizeOptions(grad_tol=1e-6))
    assert res.converged and res.iterations <= cap
    assert res.energy == pytest.approx(energy, rel=1e-10, abs=0.0)


def test_unconverged_transition_solve_warns():
    tp = small_problem(kernel=KernelSpec.cos_sum(2.5, 1.0), mode="lambda")
    with pytest.warns(RuntimeWarning,
                      match=r"stopped on max_iters with gradient norm \S+ after 3") as record:
        res = transition_energy(tp, MinimizeOptions(grad_tol=1e-7, max_iters=3))
    assert not res.converged
    assert record[0].filename == __file__  # the warning names the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert transition_energy(tp, MinimizeOptions(grad_tol=1e-7)).converged
