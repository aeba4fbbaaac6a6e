import numpy as np
import pytest

from fraclab import (
    GridProfile,
    kth_difference,
    make_bv_target,
    make_grid,
    resample_scaled,
    sample_bv_target,
)


def test_make_grid_basic():
    g = make_grid(0.0, 1.0, 4)
    assert g.h == 0.25
    assert g.n_nodes == 5
    np.testing.assert_allclose(g.nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_make_grid_wide():
    g = make_grid(-2.0, 2.0, 8)
    assert g.h == 0.5
    assert g.n_nodes == 9


@pytest.mark.parametrize("args", [(1.0, 0.0, 4), (0.0, 0.0, 4), (0.0, 1.0, 1)])
def test_make_grid_rejects(args):
    with pytest.raises(ValueError):
        make_grid(*args)


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
    t = make_bv_target([(0.5, +1)], left_value=-1)
    assert t.ascending == (0.5,)
    assert t.descending == ()
    g = make_grid(0.0, 1.0, 4)
    np.testing.assert_array_equal(sample_bv_target(t, g).values, [-1, -1, 1, 1, 1])


def test_bv_target_no_jumps_constant():
    t = make_bv_target([], left_value=+1)
    g = make_grid(0.0, 1.0, 4)
    np.testing.assert_array_equal(sample_bv_target(t, g).values, np.ones(5))


def test_bv_target_rejects_bad_alternation():
    with pytest.raises(ValueError):
        make_bv_target([(0.3, +1), (0.6, +1)], left_value=-1)


def test_bv_target_rejects_unsorted_or_outside():
    with pytest.raises(ValueError):
        make_bv_target([(0.6, +1), (0.3, -1)], left_value=-1)
    with pytest.raises(ValueError):
        make_bv_target([(1.2, +1)], left_value=-1)


def test_bv_target_node_at_jump_takes_right_limit():
    t = make_bv_target([(0.25, +1), (0.75, -1)], left_value=-1)
    assert t.value_at(0.25) == 1.0
    assert t.value_at(0.75) == -1.0
    assert t.value_at(0.74) == 1.0
