"""Uniform 1-D grids, nodal profiles, finite-difference derivatives, and
piecewise-constant jump targets.

All types are immutable values; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

__all__ = [
    "UniformGrid",
    "GridProfile",
    "BVTarget",
    "make_grid",
    "kth_difference",
    "difference_matrix",
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
# support; right-edge stencils are the mirror image.  The entries are in units
# of h^-k and exactly representable, so each row sums to exactly zero and maps
# a pure phase +-1 to exactly zero; h^-k is applied after the product.
_CENTRAL_STENCILS = {
    1: np.array([-0.5, 0.0, 0.5]),
    2: np.array([1.0, -2.0, 1.0]),
}
_EDGE_STENCILS = {
    1: np.array([-1.5, 2.0, -0.5]),
    2: np.array([2.0, -5.0, 4.0, -1.0]),
}


def _stencil_matrix(n: int, k: int) -> sparse.csr_matrix:
    """h^k times the k-th difference matrix on n nodes (see ``difference_matrix``)."""
    if k not in SUPPORTED_ORDERS:
        raise ValueError(f"derivative order k must be one of {SUPPORTED_ORDERS}, got {k}")
    if n < 2 * k + 1:
        raise ValueError(f"k={k} needs at least {2 * k + 1} nodes, grid has {n}")
    if k == 0:
        return sparse.identity(n, format="csr")

    rows, cols, vals = [], [], []
    central, edge = _CENTRAL_STENCILS[k], _EDGE_STENCILS[k]
    for i in range(k):
        # left edge: one-sided rightward anchored at node i
        rows.extend([i] * edge.size)
        cols.extend(range(i, i + edge.size))
        vals.extend(edge)
        # right edge: mirrored
        j = n - 1 - i
        rows.extend([j] * edge.size)
        cols.extend(range(j, j - edge.size, -1))
        sign = -1.0 if k % 2 == 1 else 1.0
        vals.extend(sign * edge)
    for i in range(k, n - k):
        rows.extend([i] * central.size)
        cols.extend(range(i - 1, i + 2))
        vals.extend(central)

    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def difference_matrix(grid: UniformGrid, k: int) -> sparse.csr_matrix:
    """Sparse matrix applying the k-th finite-difference operator to nodal values.

    Second-order central stencils at interior nodes, second-order one-sided
    stencils at the k boundary nodes on each side.  Exact on polynomials up to
    degree k (hence annihilates degree < k).  The entries carry the factor
    h^-k; ``kth_difference`` applies it after the product instead, which
    maps a pure phase +-1 to exactly zero on every grid.
    """
    return _stencil_matrix(grid.n_nodes, k) * grid.h ** -k


def kth_difference(p: GridProfile, k: int) -> GridProfile:
    """k-th derivative of a nodal profile; k = 0 returns the profile unchanged."""
    if k == 0:
        return p
    mat = _stencil_matrix(p.grid.n_nodes, k)
    return GridProfile(p.grid, (mat @ p.values) * p.grid.h ** -k)


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
