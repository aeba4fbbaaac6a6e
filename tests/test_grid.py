import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fraclab
from fraclab import (
    GridProfile,
    make_bv_target,
    make_grid,
    resample_scaled,
)
from fraclab.grid import _REACH, BVTarget, _stencil_adjoint, _stencil_apply
from probes import kth_difference


def test_make_grid_basic():
    g = make_grid(0.0, 1.0, 4)
    assert g.h == 0.25
    assert g.n_nodes == 5
    np.testing.assert_allclose(g.nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_make_grid_wide():
    g = make_grid(-2.0, 2.0, 8)
    assert g.h == 0.5
    assert g.n_nodes == 9


@pytest.mark.parametrize("args", [(1.0, 0.0, 4), (0.0, 0.0, 4), (0.0, 1.0, 1), (0.0, 1.0, 2.5),
                                  (0.0, 1.0, float("inf")), (0.0, 1.0, float("nan")),
                                  (0.0, 1.0, 1e30), (float("-inf"), 1.0, 8)])
def test_make_grid_rejects(args):
    with pytest.raises(ValueError) as err:
        make_grid(*args)
    if not np.isfinite(args[2]):  # the grid's own message, not int()'s
        assert "n_cells must be an integer >= 2" in str(err.value)


def test_make_grid_stores_integral_n_cells_as_int():
    g = make_grid(0.0, 1.0, 2.0)
    assert g.n_cells == 2 and type(g.n_cells) is int


def test_profile_validates_shape_and_finiteness():
    g = make_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        GridProfile(g, np.zeros(4))
    with pytest.raises(ValueError):
        GridProfile(g, np.array([0.0, 1.0, np.nan, 0.0, 1.0]))


def test_kth_difference_constant_and_linear():
    g = make_grid(0.0, 1.0, 16)
    const = GridProfile(g, np.full(g.n_nodes, 3.7))
    np.testing.assert_allclose(kth_difference(const, 1).values, 0.0, atol=1e-13)
    linear = GridProfile(g, g.nodes())
    np.testing.assert_allclose(kth_difference(linear, 1).values, 1.0, rtol=1e-12)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("lo,hi,n_cells", [(-12.0, 12.0, 1000), (0.0, 1.0, 40), (-3.7, 3.7, 768)],
                         ids=["-12,12,1000", "0,1,40", "-3.7,3.7,768"])
def test_kth_difference_annihilates_pure_phases_exactly(lo, hi, n_cells, k):
    # the stencils act in exactly representable units and h^-k comes after
    g = make_grid(lo, hi, n_cells)
    for phase in (1.0, -1.0):
        pure = GridProfile(g, np.full(g.n_nodes, phase))
        assert np.all(kth_difference(pure, k).values == 0.0)


def test_kth_difference_quadratic_exact_for_k2():
    g = make_grid(-1.0, 2.0, 12)
    quad = GridProfile(g, g.nodes() ** 2)
    np.testing.assert_allclose(kth_difference(quad, 2).values, 2.0, rtol=1e-10)
    # degree < k annihilated
    lin = GridProfile(g, 4.0 - 3.0 * g.nodes())
    np.testing.assert_allclose(kth_difference(lin, 2).values, 0.0, atol=1e-10)


def test_kth_difference_k0_identity_and_bad_k():
    g = make_grid(0.0, 1.0, 4)
    p = GridProfile(g, np.arange(5.0))
    assert kth_difference(p, 0) is p
    with pytest.raises(ValueError):
        kth_difference(p, 3)


def test_kth_difference_linearity():
    rng = np.random.default_rng(7)
    g = make_grid(-3.0, 1.0, 40)
    u = rng.standard_normal(g.n_nodes)
    v = rng.standard_normal(g.n_nodes)
    a, b = 2.5, -1.25
    for k in (1, 2):
        left = kth_difference(GridProfile(g, a * u + b * v), k).values
        right = a * kth_difference(GridProfile(g, u), k).values \
            + b * kth_difference(GridProfile(g, v), k).values
        np.testing.assert_allclose(left, right, rtol=1e-11, atol=1e-11)


# h^k D_k written out row by row from the stencil tables: central rows
# (-1/2, 0, 1/2) and (1, -2, 1); one-sided rows (-3/2, 2, -1/2) and
# (2, -5, 4, -1) from the left edge, mirrored times (-1)^k at the right.
_HAND_ROWS = {
    (1, 3): [[-1.5, 2.0, -0.5],
             [-0.5, 0.0, 0.5],
             [0.5, -2.0, 1.5]],
    (1, 7): [[-1.5, 2.0, -0.5, 0.0, 0.0, 0.0, 0.0],
             [-0.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0],
             [0.0, -0.5, 0.0, 0.5, 0.0, 0.0, 0.0],
             [0.0, 0.0, -0.5, 0.0, 0.5, 0.0, 0.0],
             [0.0, 0.0, 0.0, -0.5, 0.0, 0.5, 0.0],
             [0.0, 0.0, 0.0, 0.0, -0.5, 0.0, 0.5],
             [0.0, 0.0, 0.0, 0.0, 0.5, -2.0, 1.5]],
    (2, 5): [[2.0, -5.0, 4.0, -1.0, 0.0],
             [0.0, 2.0, -5.0, 4.0, -1.0],
             [0.0, 1.0, -2.0, 1.0, 0.0],
             [-1.0, 4.0, -5.0, 2.0, 0.0],
             [0.0, -1.0, 4.0, -5.0, 2.0]],
    (2, 7): [[2.0, -5.0, 4.0, -1.0, 0.0, 0.0, 0.0],
             [0.0, 2.0, -5.0, 4.0, -1.0, 0.0, 0.0],
             [0.0, 1.0, -2.0, 1.0, 0.0, 0.0, 0.0],
             [0.0, 0.0, 1.0, -2.0, 1.0, 0.0, 0.0],
             [0.0, 0.0, 0.0, 1.0, -2.0, 1.0, 0.0],
             [0.0, 0.0, -1.0, 4.0, -5.0, 2.0, 0.0],
             [0.0, 0.0, 0.0, -1.0, 4.0, -5.0, 2.0]],
}


@pytest.mark.parametrize("k,n", sorted(_HAND_ROWS), ids=lambda v: str(v))
def test_stencil_columns_match_hand_written_rows(k, n):
    # the minimal sizes n = 2k + 1, where the two edges' rows overlap, and n = 7
    expect = np.array(_HAND_ROWS[k, n])
    unit = np.eye(n)
    np.testing.assert_array_equal(np.column_stack([_stencil_apply(e, k) for e in unit]), expect)
    np.testing.assert_array_equal(np.column_stack([_stencil_adjoint(e, k) for e in unit]), expect.T)


@pytest.mark.parametrize("k,n", [(k, n) for k in (1, 2)
                                 for n in [*range(2 * k + 1, 2 * _REACH[k] + 3), 769]])
def test_stencil_adjoint_is_exact_transpose(k, n):
    # below n = 2 _REACH[k] the two edges' columns overlap
    unit = np.eye(n)
    apply = np.column_stack([_stencil_apply(e, k) for e in unit])
    adjoint = np.column_stack([_stencil_adjoint(e, k) for e in unit])
    np.testing.assert_array_equal(adjoint, apply.T)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [5, 6, 7, 10, 11, 769])
def test_stencil_adjoint_identity(k, n):
    # for k = 2 the two edges' columns overlap at n = 5, 6, 7 (n < 2 _REACH[2] = 10)
    # and lie apart at n = 10, 11; one code path serves both
    rng = np.random.default_rng(100 * n + k)
    u, y = rng.standard_normal(n), rng.standard_normal(n)
    du = _stencil_apply(u, k)
    left, right = du @ y, u @ _stencil_adjoint(y, k)
    assert abs(left - right) <= 1e-13 * (np.abs(du) @ np.abs(y))


def test_cli_import_does_not_load_scipy():
    # every command pays for what importing the CLI loads: the benchmark's
    # setup_s and peak_rss_mb are set by it, so it loads the standard library,
    # numpy and fraclab only, and of them not the packages only some runs need
    # (the curve's thread pool and the logging it pulls in, the selftest
    # suite): no scipy, no third-party argument parser, no test helpers
    src = str(Path(fraclab.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    path = os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    allowed = "(sys.stdlib_module_names - {'concurrent', 'logging'}) | {'numpy', 'fraclab'}"
    script = ("import sys; before = set(sys.modules); import fraclab.cli\n"
              "print(sorted(name for name, m in sys.modules.items() if name not in before and ("
              f"name.split('.')[0] not in {allowed} or name == 'fraclab.selftest'"
              f" or (getattr(m, '__file__', None) or '').startswith({tests + os.sep!r}))))")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_resample_scaled_roundtrip_and_examples():
    g = make_grid(-2.0, 2.0, 8)
    p = GridProfile(g, np.sin(g.nodes()))
    same = resample_scaled(p, 1.0)
    assert same.grid == g
    np.testing.assert_array_equal(same.values, p.values)

    half = resample_scaled(p, 2.0)
    assert (half.grid.x_lo, half.grid.x_hi) == (-1.0, 1.0)
    np.testing.assert_array_equal(half.values, p.values)

    back = resample_scaled(resample_scaled(p, 2.0), 0.5)
    assert back.grid == g
    np.testing.assert_array_equal(back.values, p.values)

    with pytest.raises(ValueError):
        resample_scaled(p, 0.0)


def test_bv_target_single_jump():
    t = make_bv_target([(0.5, +1)])
    g = make_grid(0.0, 1.0, 4)
    np.testing.assert_array_equal(t.value_at(g.nodes()), [-1, -1, 1, 1, 1])


def test_bv_target_needs_a_jump():
    with pytest.raises(ValueError, match="at least one jump"):
        make_bv_target([])


def test_bv_target_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="equal length"):
        BVTarget((0.5,), ())


def test_bv_target_rejects_bad_alternation():
    with pytest.raises(ValueError):
        make_bv_target([(0.3, +1), (0.6, +1)])
    with pytest.raises(ValueError):
        make_bv_target([(0.5, +2)])  # signs are +-1


def test_bv_target_rejects_unsorted_or_outside():
    with pytest.raises(ValueError):
        make_bv_target([(0.6, +1), (0.3, -1)])
    with pytest.raises(ValueError):
        make_bv_target([(1.2, +1)])


def test_bv_target_node_at_jump_takes_right_limit():
    t = make_bv_target([(0.25, +1), (0.75, -1)])
    assert t.value_at(0.25) == 1.0
    assert t.value_at(0.75) == -1.0
    assert t.value_at(0.74) == 1.0
