"""Uniform 1-D grids, nodal profiles, finite-difference derivatives, and
piecewise-constant jump targets.

All types are immutable values; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UniformGrid",
    "GridProfile",
    "BVTarget",
    "make_grid",
    "kth_difference",
    "resample_scaled",
    "make_bv_target",
    "sample_bv_target",
]

SUPPORTED_ORDERS = (0, 1, 2)


@dataclass(frozen=True)
class UniformGrid:
    """Uniform grid on [x_lo, x_hi] with ``n_cells`` cells and ``n_cells + 1`` nodes.

    Node ``i`` sits at ``x_lo + i * h`` with ``h = (x_hi - x_lo) / n_cells``.
    """

    x_lo: float
    x_hi: float
    n_cells: int

    def __post_init__(self):
        if not (np.isfinite(self.x_lo) and np.isfinite(self.x_hi)):
            raise ValueError("grid endpoints must be finite")
        if self.x_lo >= self.x_hi:
            raise ValueError(
                f"grid endpoints must satisfy x_lo < x_hi, got ({self.x_lo}, {self.x_hi})"
            )
        if int(self.n_cells) != self.n_cells or self.n_cells < 2:
            raise ValueError(f"n_cells must be an integer >= 2, got {self.n_cells}")

    @property
    def h(self) -> float:
        return (self.x_hi - self.x_lo) / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    def nodes(self) -> np.ndarray:
        return self.x_lo + self.h * np.arange(self.n_nodes)


def make_grid(x_lo: float, x_hi: float, n_cells: int) -> UniformGrid:
    """Build a uniform grid; rejects reversed endpoints and n_cells < 2."""
    return UniformGrid(float(x_lo), float(x_hi), int(n_cells))


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GridProfile:
    """Nodal values of an order parameter on a uniform grid."""

    grid: UniformGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size != self.grid.n_nodes:
            raise ValueError(
                f"values must be a 1-d array of length {self.grid.n_nodes}, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("profile values must be finite")
        object.__setattr__(self, "values", _freeze(vals))


# Second-order one-sided stencils anchored at the leftmost node of their
# support; right-edge stencils are the mirror image, times (-1)^k.  The
# entries are in units of h^-k and exactly representable, so each row sums to
# exactly zero and maps a pure phase +-1 to exactly zero; h^-k is applied
# after the stencil.
_CENTRAL_STENCILS = {
    1: np.array([-0.5, 0.0, 0.5]),
    2: np.array([1.0, -2.0, 1.0]),
}
_EDGE_STENCILS = {
    1: np.array([-1.5, 2.0, -0.5]),
    2: np.array([2.0, -5.0, 4.0, -1.0]),
}


def _float_coefs(k: int, sign: float) -> tuple:
    return (tuple((sign * _CENTRAL_STENCILS[k]).tolist()),
            tuple((sign * _EDGE_STENCILS[k]).tolist()))


# The (central, one-sided) entries as Python floats, read from the left edge
# inwards and, times (-1)^k, from the right edge inwards; and the reach
# m = k + len(edge) - 1 of the one-sided rows: they read the m nodes nearest
# their edge, so D_k^T departs from the central formula on those m columns.
_LEFT_COEFS = {k: _float_coefs(k, 1.0) for k in (1, 2)}
_RIGHT_COEFS = {k: _float_coefs(k, (-1.0) ** k) for k in (1, 2)}
_REACH = {k: k + e.size - 1 for k, e in _EDGE_STENCILS.items()}


def _edge_rows(vals: list, k: int, coefs: tuple) -> tuple:
    """The k one-sided rows of h^k D_k nearest an edge, from the _REACH[k]
    nodal values nearest it, edge node first."""
    if k == 1:
        e0, e1, e2 = coefs[1]
        v0, v1, v2 = vals
        return (e0 * v0 + e1 * v1 + e2 * v2,)
    e0, e1, e2, e3 = coefs[1]
    v0, v1, v2, v3, v4 = vals
    return (e0 * v0 + e1 * v1 + e2 * v2 + e3 * v3,
            e0 * v1 + e1 * v2 + e2 * v3 + e3 * v4)


def _edge_columns(vals: list, k: int, coefs: tuple) -> tuple:
    """The _REACH[k] columns of h^k D_k^T y nearest an edge, from the
    _REACH[k] + 1 entries of y nearest it, edge node first.  Column j sums
    e[j - i] y_i over the one-sided rows i < k and c[j - i + 1] y_i over the
    central rows i >= k."""
    c0, c1, c2 = coefs[0]
    if k == 1:
        e0, e1, e2 = coefs[1]
        y0, y1, y2, y3 = vals
        return (e0 * y0 + c0 * y1,
                e1 * y0 + c1 * y1 + c0 * y2,
                e2 * y0 + c2 * y1 + c1 * y2 + c0 * y3)
    e0, e1, e2, e3 = coefs[1]
    y0, y1, y2, y3, y4, y5 = vals
    return (e0 * y0,
            e1 * y0 + e0 * y1 + c0 * y2,
            e2 * y0 + e1 * y1 + c1 * y2 + c0 * y3,
            e3 * y0 + e2 * y1 + c2 * y2 + c1 * y3 + c0 * y4,
            e3 * y1 + c2 * y3 + c1 * y4 + c0 * y5)


def _stencil_apply(values: np.ndarray, k: int) -> np.ndarray:
    """h^k D_k values for k = 1, 2 on n >= 2k + 1 nodes, without a matrix.

    The central rows k..n-k-1 are one sliced expression, (v_{i+1} -
    v_{i-1}) / 2 or (v_{i+1} - v_i) - (v_i - v_{i-1}); the k one-sided rows
    per side are summed from the few values they touch.
    """
    n, m = values.size, _REACH[k]
    out = np.empty(n)
    inner = out[k:n - k]
    if k == 1:
        np.subtract(values[2:], values[:-2], out=inner)
        inner *= 0.5
    else:
        d = values[1:] - values[:-1]
        np.subtract(d[2:-1], d[1:-2], out=inner)
    out[:k] = _edge_rows(values[:m].tolist(), k, _LEFT_COEFS[k])
    out[n - k:] = _edge_rows(values[n - m:].tolist()[::-1], k, _RIGHT_COEFS[k])[::-1]
    return out


def _stencil_adjoint(values: np.ndarray, k: int) -> np.ndarray:
    """h^k D_k^T values, the adjoint of ``_stencil_apply``.

    Away from the edges column j of D_k is the central stencil reversed, one
    sliced expression; the _REACH[k] columns per side that the one-sided rows
    reach are summed from the few values they touch.  On grids too small for
    the two edges' reach to stay apart (n < 2 _REACH[k]) the columns are
    assembled from ``_stencil_apply`` instead.
    """
    n, m = values.size, _REACH[k]
    if n < 2 * m:
        return np.array([_stencil_apply(e, k) for e in np.eye(n)]) @ values
    out = np.empty(n)
    inner = out[1:n - 1]
    if k == 1:
        np.subtract(values[:-2], values[2:], out=inner)
        inner *= 0.5
    else:
        d = values[1:] - values[:-1]
        np.subtract(d[1:], d[:-1], out=inner)
    out[:m] = _edge_columns(values[:m + 1].tolist(), k, _LEFT_COEFS[k])
    out[n - m:] = _edge_columns(values[:n - m - 2:-1].tolist(), k, _RIGHT_COEFS[k])[::-1]
    return out


def kth_difference(p: GridProfile, k: int) -> GridProfile:
    """k-th derivative of a nodal profile; k = 0 returns the profile unchanged.

    Second-order central differences at interior nodes and second-order
    one-sided differences at the k boundary nodes on each side: exact on
    polynomials up to degree k (hence annihilates degree < k).  h^-k is
    applied after the stencil, so a pure phase +-1 maps to exactly zero on
    every grid.
    """
    if k not in SUPPORTED_ORDERS:
        raise ValueError(f"derivative order k must be one of {SUPPORTED_ORDERS}, got {k}")
    if k == 0:
        return p
    if p.grid.n_nodes < 2 * k + 1:
        raise ValueError(f"k={k} needs at least {2 * k + 1} nodes, grid has {p.grid.n_nodes}")
    return GridProfile(p.grid, _stencil_apply(p.values, k) * p.grid.h ** -k)


def resample_scaled(p: GridProfile, lam: float) -> GridProfile:
    """Nodal image of v(lam * x): endpoints divided by lam, values unchanged."""
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be positive, got {lam}")
    g = p.grid
    return GridProfile(make_grid(g.x_lo / lam, g.x_hi / lam, g.n_cells), p.values)


@dataclass(frozen=True)
class BVTarget:
    """Piecewise +-1 target with jumps at ``jump_locations`` in (0, 1).

    ``jump_signs[j]`` is the jump direction sgn(u(t+) - u(t-)); signs must
    alternate starting from -left_value so the target stays in {-1, +1}.
    """

    jump_locations: tuple
    jump_signs: tuple
    left_value: int

    def __post_init__(self):
        locs = tuple(float(t) for t in self.jump_locations)
        signs = tuple(int(s) for s in self.jump_signs)
        if len(locs) != len(signs):
            raise ValueError("jump_locations and jump_signs must have equal length")
        if self.left_value not in (-1, 1):
            raise ValueError(f"left_value must be +-1, got {self.left_value}")
        if any(not (0.0 < t < 1.0) for t in locs):
            raise ValueError(f"jump locations must lie strictly inside (0, 1), got {locs}")
        if any(locs[i] >= locs[i + 1] for i in range(len(locs) - 1)):
            raise ValueError(f"jump locations must be strictly increasing, got {locs}")
        value = self.left_value
        for t, s in zip(locs, signs):
            if s != -value:
                raise ValueError(
                    f"jump sign {s:+d} at t={t} is inconsistent: the target would leave"
                    " {-1, +1} (signs must alternate starting from -left_value)"
                )
            value = s
        object.__setattr__(self, "jump_locations", locs)
        object.__setattr__(self, "jump_signs", signs)

    @property
    def ascending(self) -> tuple:
        """S^+ : locations of up jumps."""
        return tuple(t for t, s in zip(self.jump_locations, self.jump_signs) if s == 1)

    @property
    def descending(self) -> tuple:
        """S^- : locations of down jumps."""
        return tuple(t for t, s in zip(self.jump_locations, self.jump_signs) if s == -1)

    def value_at(self, x) -> np.ndarray:
        """Piecewise-constant value; a point exactly at a jump takes the right limit."""
        x = np.asarray(x, dtype=float)
        count = np.searchsorted(np.asarray(self.jump_locations), x, side="right")
        return self.left_value * np.where(count % 2 == 0, 1.0, -1.0)


def make_bv_target(jumps, left_value: int | None = None) -> BVTarget:
    """Build a BVTarget from (location, sign) pairs.

    left_value may be omitted when there is at least one jump (it is then
    forced by the first jump sign).
    """
    jumps = list(jumps)
    if left_value is None:
        if not jumps:
            raise ValueError("left_value is required for a target with no jumps")
        left_value = -int(jumps[0][1])
    locs = tuple(t for t, _ in jumps)
    signs = tuple(int(s) for _, s in jumps)
    return BVTarget(locs, signs, int(left_value))


def sample_bv_target(target: BVTarget, grid: UniformGrid) -> GridProfile:
    """Sample the piecewise-constant target at the grid nodes."""
    return GridProfile(grid, target.value_at(grid.nodes()))
