import zlib

import numpy as np
import pytest

from fraclab import (
    DoubleWell,
    GridProfile,
    MinimizeOptions,
    NumericalFailure,
    check_gradient,
    make_grid,
    minimize,
)
from fraclab.optimize import _MEMORY, _direction


def identity(vec):
    return vec


def quadratic_target(center):
    def energy(u):
        return float(np.sum((u - center) ** 2))

    def grad(u):
        return 2.0 * (u - center)

    return energy, grad


def test_minimize_quadratic_converges_to_target():
    g = make_grid(0.0, 1.0, 16)
    energy, grad = quadratic_target(1.0)
    init = GridProfile(g, np.zeros(g.n_nodes))
    res = minimize(energy, grad, init, np.ones(g.n_nodes, dtype=bool),
                   MinimizeOptions(grad_tol=1e-9), precondition=identity)
    assert res.converged
    assert res.final_grad_norm <= 1e-9
    np.testing.assert_allclose(res.profile.values, 1.0, atol=1e-9)
    assert res.energy == pytest.approx(0.0, abs=1e-18)


def test_minimize_preserves_clamped_nodes_exactly():
    g = make_grid(0.0, 1.0, 16)
    n = g.n_nodes
    rng = np.random.default_rng(2)
    mask = np.zeros(n, dtype=bool)
    mask[[0, 3, 8, n - 1]] = True
    fixed = np.where(mask, rng.uniform(-2, 2, n), 0.0)
    init_vals = np.where(mask, fixed, 0.5)
    energy, grad = quadratic_target(-1.0)
    res = minimize(energy, grad, GridProfile(g, init_vals), ~mask, precondition=identity)
    np.testing.assert_array_equal(res.profile.values[mask], fixed[mask])
    np.testing.assert_allclose(res.profile.values[~mask], -1.0, atol=1e-6)


def test_minimize_single_free_node_descends_to_nearest_well():
    g = make_grid(0.0, 1.0, 2)
    well = DoubleWell(0.0)
    mask = np.array([True, False, True])
    init = np.array([0.5, 0.5, 0.5])

    def energy(u):
        return float(well.value(u[1]))

    def grad(u):
        out = np.zeros_like(u)
        out[1] = well.deriv(u[1])
        return out

    res = minimize(energy, grad, GridProfile(g, init), ~mask,
                   MinimizeOptions(grad_tol=1e-10), precondition=identity)
    assert res.profile.values[1] == pytest.approx(1.0, abs=1e-8)


def test_minimize_monotone_energy_and_determinism():
    g = make_grid(0.0, 1.0, 32)
    rng = np.random.default_rng(4)
    target = rng.standard_normal(g.n_nodes)
    seen = []

    def energy(u):
        e = float(np.sum((u - target) ** 4) + np.sum(u * u))
        return e

    def grad(u):
        return 4.0 * (u - target) ** 3 + 2.0 * u

    init = GridProfile(g, np.zeros(g.n_nodes))
    opts = MinimizeOptions(grad_tol=1e-8, max_iters=5000)

    def run():
        energies = []
        orig = energy

        def tracking(u):
            e = orig(u)
            energies.append(e)
            return e

        res = minimize(tracking, grad, init, np.ones(g.n_nodes, dtype=bool), opts,
                       precondition=identity)
        return res, energies

    res1, _ = run()
    res2, _ = run()
    np.testing.assert_array_equal(res1.profile.values, res2.profile.values)
    assert res1.energy == res2.energy
    assert res1.iterations == res2.iterations

    # accepted energies are non-increasing
    res, energies = run()
    accepted = [energies[0]]
    for e in energies:
        if e <= accepted[-1]:
            accepted.append(e)
    assert res.energy <= accepted[0]
    # the flat-energy slope test may accept a step that rises by rounding,
    # by at most 1e-10 |E| (see ``minimize``)
    assert res.energy - min(accepted) <= 1e-10 * abs(min(accepted))


def test_minimize_raises_numerical_failure_on_nan():
    g = make_grid(0.0, 1.0, 4)

    def energy(u):
        return float("nan") if np.max(u) > 0.5 else float(np.sum(u * u))

    def grad(u):
        return 2.0 * u

    init = GridProfile(g, np.full(5, 1.0))
    with pytest.raises(NumericalFailure):
        minimize(energy, grad, init, np.ones(5, dtype=bool), precondition=identity)


def test_minimize_raises_numerical_failure_on_nan_gradient():
    g = make_grid(0.0, 1.0, 4)

    def energy(u):
        return float(np.sum(u * u))

    def grad(u):  # NaN once the first step has left the initial profile
        return np.full_like(u, np.nan) if np.max(u) < 1.0 else 2.0 * u

    init = GridProfile(g, np.full(5, 1.0))
    with pytest.raises(NumericalFailure, match="non-finite gradient encountered") as err:
        minimize(energy, grad, init, np.ones(5, dtype=bool), precondition=identity)
    last = err.value.last_profile
    assert last.grid == g and np.max(last.values) < 1.0
    assert err.value.last_energy == energy(last.values)


def test_minimize_raises_numerical_failure_on_drifting_energy():
    # the energy rises by 1e-9 per call, so the final evaluation disagrees
    # with the value the iteration accepted
    g = make_grid(0.0, 1.0, 4)
    quadratic, grad = quadratic_target(1.0)
    returned = []

    def energy(u):
        returned.append(quadratic(u) + 1e-9 * len(returned))
        return returned[-1]

    init = GridProfile(g, np.zeros(5))
    with pytest.raises(NumericalFailure, match="energy bookkeeping drifted") as err:
        minimize(energy, grad, init, np.ones(5, dtype=bool), precondition=identity)
    last = err.value.last_profile
    assert last.grid == g
    np.testing.assert_allclose(last.values, 1.0, atol=1e-6)
    assert err.value.last_energy in returned[:-1]
    assert err.value.last_energy < returned[-1]


def test_minimize_rejects_a_bad_free_mask():
    g = make_grid(0.0, 1.0, 4)
    energy, grad = quadratic_target(0.0)
    init = GridProfile(g, np.zeros(5))
    with pytest.raises(ValueError, match="at least one free node"):
        minimize(energy, grad, init, np.zeros(5, dtype=bool), precondition=identity)
    for free in (np.ones(4, dtype=bool), np.ones((1, 5), dtype=bool)):
        with pytest.raises(ValueError, match="free mask must be 1-d with 5 entries"):
            minimize(energy, grad, init, free, precondition=identity)


def test_check_gradient_quadratic_is_tiny():
    g = make_grid(0.0, 1.0, 12)
    energy, grad = quadratic_target(0.3)
    p = GridProfile(g, np.linspace(-1, 1, g.n_nodes))
    assert check_gradient(energy, grad, p) <= 1e-9


def test_check_gradient_detects_scaled_gradient():
    g = make_grid(0.0, 1.0, 12)
    energy, grad = quadratic_target(0.3)
    bad = lambda u: 2.0 * grad(u)  # noqa: E731
    p = GridProfile(g, np.linspace(-1, 1, g.n_nodes))
    err = check_gradient(energy, bad, p)
    assert err == pytest.approx(1.0, abs=0.05)


def test_minimize_converges_below_the_energy_rounding_floor():
    # E = 1e6 + sum w_i (u_i - 1)^2 + noise: near the minimum every energy
    # difference is below the rounding of 1e6, and the noise, a deterministic
    # hash of u below 1e-13 |E|, stands in for an evaluator's rounding error,
    # so a trial's energy may rise where it should fall and only the slope
    # test can accept steps.  P^-1 = f / (2 w) is the inverse Hessian up to a
    # factor f in [1/2, 2], and grad_tol = 2e-11 bounds
    # |u_i - 1| = |g_i| / (2 w_i) by 1e-11
    g = make_grid(0.0, 1.0, 64)
    w = np.logspace(0.0, 4.0, g.n_nodes)
    f = np.random.default_rng(0).uniform(0.5, 2.0, g.n_nodes)
    energies = []

    def energy(u):
        noise = 1e-7 * zlib.crc32(u.tobytes()) / 2.0 ** 32
        energies.append(1e6 + float(w @ (u - 1.0) ** 2) + noise)
        return energies[-1]

    def grad(u):
        return 2.0 * w * (u - 1.0)

    res = minimize(energy, grad, GridProfile(g, np.zeros(g.n_nodes)),
                   np.ones(g.n_nodes, dtype=bool), MinimizeOptions(grad_tol=2e-11),
                   precondition=lambda vec: vec * f / (2.0 * w))
    assert res.converged
    assert res.stop_reason == "grad_tol"
    assert res.final_grad_norm <= 2e-11
    np.testing.assert_allclose(res.profile.values, 1.0, atol=1e-11)
    # no trial was rejected, so every recorded energy but minimize's final
    # re-evaluation is an accepted step's; Armijo's test accepts no rise, the
    # slope test accepts some, each within 1e-10 |E|
    assert res.backtracks == 0 and len(energies) == res.iterations + 2
    accepted = np.array(energies[:-1])
    rises = np.diff(accepted)
    assert np.any(rises > 0.0)
    assert np.all(rises <= 1e-10 * accepted[:-1])


def test_minimize_never_accepts_a_null_step():
    # the gradient is far below the resolution of u = 1, so every trial
    # u - t g equals u bit for bit; none may be accepted
    g = make_grid(0.0, 1.0, 8)
    trials = []

    def energy(u):
        trials.append(u.copy())
        return 1.0

    def grad(u):
        return np.full(u.size, 1e-30)

    init = GridProfile(g, np.ones(g.n_nodes))
    res = minimize(energy, grad, init, np.ones(g.n_nodes, dtype=bool),
                   MinimizeOptions(grad_tol=1e-40, max_iters=200), precondition=identity)
    assert res.iterations == 0
    assert not res.converged
    assert res.stop_reason == "line_search_underflow"
    assert all(np.array_equal(t, init.values) for t in trials)
    assert len(trials) == res.energy_evals == 2  # initial and final evaluation


def test_minimize_reports_stop_reason_and_counts():
    g = make_grid(0.0, 1.0, 16)
    energy, grad = quadratic_target(1.0)
    calls = {"energy": 0, "grad": 0}

    def counted_energy(u):
        calls["energy"] += 1
        return energy(u)

    def counted_grad(u):
        calls["grad"] += 1
        return grad(u)

    # the unit first step along g = 2 (u - 1) lands on 2 - u, as high as u:
    # one backtrack halves it onto the minimum
    init = GridProfile(g, np.zeros(g.n_nodes))
    res = minimize(counted_energy, counted_grad, init, np.ones(g.n_nodes, dtype=bool),
                   MinimizeOptions(grad_tol=1e-9), precondition=identity)
    assert res.stop_reason == "grad_tol"
    assert (res.energy_evals, res.grad_evals) == (calls["energy"], calls["grad"])
    # every backtrack costs one energy evaluation on top of one per accepted step
    assert res.energy_evals >= res.iterations + res.backtracks + 2
    assert res.backtracks >= res.iterations > 0

    # a quartic is not solved in one step
    energy, grad = quartic_chain(np.linspace(-1.0, 2.0, g.n_nodes))
    capped = minimize(energy, grad, init, np.ones(g.n_nodes, dtype=bool),
                      MinimizeOptions(grad_tol=1e-9, max_iters=1), precondition=identity)
    assert capped.stop_reason == "max_iters"
    assert not capped.converged
    assert capped.iterations == 1


def test_minimize_backtracks_from_non_finite_trial_energies():
    # the unit first step from 0 along g = 2 (u - 1.5) lands on u = 3, where
    # the energy is -inf
    g = make_grid(0.0, 1.0, 4)

    def energy(u):
        return -np.inf if np.max(u) > 2.0 else float(np.sum((u - 1.5) ** 2))

    def grad(u):
        return 2.0 * (u - 1.5)

    res = minimize(energy, grad, GridProfile(g, np.zeros(5)), np.ones(5, dtype=bool),
                   precondition=identity)
    assert res.converged and np.isfinite(res.energy)
    assert res.backtracks > 0
    np.testing.assert_allclose(res.profile.values, 1.5, atol=1e-6)


def test_minimize_options_reject_bad_values():
    for bad in (dict(grad_tol=-1.0), dict(grad_tol=float("nan")), dict(grad_tol=float("inf")),
                dict(max_iters=0), dict(max_iters=-1)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            MinimizeOptions(**bad)
    # the edges are admissible: a zero tolerance, one step
    assert MinimizeOptions(grad_tol=0.0, max_iters=1).max_iters == 1


def test_minimize_with_inverse_hessian_preconditioner_takes_one_step():
    g = make_grid(0.0, 1.0, 32)
    weights = np.logspace(0, 6, g.n_nodes)
    mask = np.zeros(g.n_nodes, dtype=bool)
    mask[[0, g.n_nodes - 1]] = True
    fixed = np.where(mask, 3.0, 0.0)

    def energy(u):
        return float(0.5 * weights @ (u - 1.0) ** 2)

    def grad(u):
        return weights * (u - 1.0)

    def inverse_hessian(vec):
        return np.where(mask, 0.0, vec / weights)

    init = GridProfile(g, np.where(mask, fixed, 0.0))
    opts = MinimizeOptions(grad_tol=1e-9)
    res = minimize(energy, grad, init, ~mask, opts, precondition=inverse_hessian)
    assert (res.iterations, res.stop_reason, res.backtracks) == (1, "grad_tol", 0)
    np.testing.assert_array_equal(res.profile.values[mask], 3.0)
    np.testing.assert_allclose(res.profile.values[~mask], 1.0, rtol=0, atol=1e-12)
    # unpreconditioned, the same solve is still short of grad_tol after 10 steps
    plain = minimize(energy, grad, init, ~mask, MinimizeOptions(grad_tol=1e-9, max_iters=10),
                     precondition=identity)
    assert plain.stop_reason == "max_iters"


def quartic_chain(target, coupling=1.0):
    # sum (u - target)^4 + coupling * sum (u_{i+1} - u_i)^2: not quadratic,
    # so L-BFGS needs many steps
    def energy(u):
        return float(np.sum((u - target) ** 4) + coupling * np.sum(np.diff(u) ** 2))

    def grad(u):
        du = np.diff(u)
        out = 4.0 * (u - target) ** 3
        out[:-1] -= 2.0 * coupling * du
        out[1:] += 2.0 * coupling * du
        return out

    return energy, grad


def test_minimize_first_trial_is_the_initial_step_along_p_inverse_g():
    # with no stored pair the direction is exactly P^-1 g, and the first
    # trial step is 1
    g = make_grid(0.0, 1.0, 16)
    free = np.ones(g.n_nodes, dtype=bool)
    free[[0, -1]] = False
    energy, grad = quartic_chain(np.linspace(-1.0, 2.0, g.n_nodes))
    weights = np.linspace(0.5, 2.0, g.n_nodes)
    trials = []

    def precondition(vec):
        return np.where(free, vec * weights, 0.0)

    def recording(u):
        trials.append(u.copy())
        return energy(u)

    init = GridProfile(g, np.zeros(g.n_nodes))
    minimize(recording, grad, init, free, MinimizeOptions(max_iters=1),
             precondition=precondition)
    g0 = np.where(free, grad(init.values), 0.0)
    np.testing.assert_array_equal(trials[1], init.values - precondition(g0))


def test_minimize_skips_a_step_with_negative_curvature_and_converges():
    # node 1 on W(u) = (1 - u^2)^2 from u = 0.1, node 2 on (u - 1)^2 / 4 from
    # 0: the first step, to (0.496, 0.5), crosses W's concave part and has
    # s.y < 0, so no pair is stored and the second direction is again the
    # plain gradient (a stored pair would give another descent direction)
    g = make_grid(0.0, 1.0, 3)
    well = DoubleWell(0.0)
    free = np.array([False, True, True, False])
    trials = []

    def energy(u):
        trials.append(u.copy())
        return float(well.value(u[1]) + 0.25 * (u[2] - 1.0) ** 2)

    def grad(u):
        return np.array([0.0, well.deriv(u[1]), 0.5 * (u[2] - 1.0), 0.0])

    init = GridProfile(g, np.array([0.5, 0.1, 0.0, 0.5]))
    res = minimize(energy, grad, init, free, MinimizeOptions(grad_tol=1e-10),
                   precondition=identity)
    u0, u1 = trials[0], trials[1]
    assert (u1 - u0) @ (grad(u1) - grad(u0)) < 0.0
    np.testing.assert_array_equal(trials[2], u1 - grad(u1))
    assert res.converged
    np.testing.assert_allclose(res.profile.values[1:3], 1.0, rtol=0, atol=1e-10)


def test_direction_falls_back_to_p_inverse_g_when_not_a_descent_direction():
    # minimize stores only pairs with s.y > 0, for which the two-loop
    # direction is a descent direction; a pair of negative curvature turns
    # it uphill, and the direction falls back to P^-1 g
    g = np.array([1.0, 0.0])
    s = np.array([1.0, 0.0])
    double = lambda vec: 2.0 * vec  # noqa: E731
    np.testing.assert_array_equal(_direction(g, [(s, 3.0 * s, 1.0 / 3.0)], double), s / 3.0)
    np.testing.assert_array_equal(_direction(g, [(s, -s, -1.0)], double), 2.0 * g)
    np.testing.assert_array_equal(_direction(g, [], double), 2.0 * g)


def test_minimize_keeps_clamped_nodes_bit_identical_with_a_full_memory():
    g = make_grid(0.0, 1.0, 32)
    rng = np.random.default_rng(7)
    free = rng.uniform(size=g.n_nodes) < 0.7
    free[[0, -1]] = False
    init = np.where(free, 0.0, rng.uniform(-2.0, 2.0, g.n_nodes))
    energy, grad = quartic_chain(rng.standard_normal(g.n_nodes), coupling=5.0)
    weights = rng.uniform(0.5, 2.0, g.n_nodes)
    trials = []

    def recording(u):
        trials.append(u.copy())
        return energy(u)

    res = minimize(recording, grad, GridProfile(g, init), free, MinimizeOptions(grad_tol=1e-9),
                   precondition=lambda vec: np.where(free, vec * weights, 0.0))
    assert res.converged and res.iterations > 2 * _MEMORY
    for u in trials + [res.profile.values]:
        np.testing.assert_array_equal(u[~free], init[~free])
