"""Uniform 1-D grids, nodal profiles, the finite-difference stencils of D_k,
and piecewise-constant jump targets.

All types are immutable values; every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

__all__ = [
    "UniformGrid",
    "GridProfile",
    "BVTarget",
    "make_grid",
    "resample_scaled",
    "make_bv_target",
]

SUPPORTED_ORDERS = (0, 1, 2)
_MAX_NODES = np.iinfo(np.intp).max // 8  # numpy caps an array's bytes at the largest intp


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
        n = self.n_cells  # int() of a NaN or an infinity would raise its own error
        if not (isinstance(n, Real) and math.isfinite(n) and int(n) == n and n >= 2):
            raise ValueError(f"n_cells must be an integer >= 2, got {self.n_cells}")
        if n >= _MAX_NODES:
            raise ValueError(f"n_cells must be below {_MAX_NODES} (numpy's limit), got {n:.6g}")
        object.__setattr__(self, "n_cells", int(self.n_cells))

    @property
    def h(self) -> float:
        return (self.x_hi - self.x_lo) / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    def nodes(self) -> np.ndarray:
        return self.x_lo + self.h * np.arange(self.n_nodes)


def make_grid(x_lo: float, x_hi: float, n_cells: int) -> UniformGrid:
    """Build a uniform grid; rejects reversed endpoints, a fractional n_cells
    and n_cells < 2."""
    return UniformGrid(float(x_lo), float(x_hi), n_cells)


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


# h^k D_k: second-order central rows, (-1/2, 0, 1/2) for k = 1 and (1, -2, 1)
# for k = 2, and k one-sided rows at each edge.  _EDGE_ROWS holds the left
# edge's rows, padded to the _REACH[k] nodes nearest the edge that they read
# (so D_k^T departs from the central formula on those columns); the right
# edge's rows are the left's mirrored, times (-1)^k.  The entries are in units
# of h^-k and exactly representable, so each row sums to exactly zero and maps
# a pure phase +-1 to exactly zero; h^-k is applied after the stencil.
_EDGE_ROWS = {
    1: np.array([[-1.5, 2.0, -0.5]]),
    2: np.array([[2.0, -5.0, 4.0, -1.0, 0.0],
                 [0.0, 2.0, -5.0, 4.0, -1.0]]),
}
_EDGES = {k: (rows, (-1.0) ** k * rows[::-1, ::-1]) for k, rows in _EDGE_ROWS.items()}
_REACH = {k: rows.shape[1] for k, rows in _EDGE_ROWS.items()}


def _central(values: np.ndarray, k: int, out: np.ndarray, transpose: bool = False) -> None:
    """The central rows of h^k D_k, or of their transpose, at nodes 1..n-2 of
    ``values``, into ``out``; the k = 2 rows are their own transpose."""
    if k == 1:
        np.subtract(values[2:], values[:-2], out=out)
        out *= -0.5 if transpose else 0.5
    else:
        d = values[1:] - values[:-1]
        np.subtract(d[1:], d[:-1], out=out)


def _stencil_apply(values: np.ndarray, k: int) -> np.ndarray:
    """h^k D_k values for k = 1, 2 on n >= 2k + 1 nodes, without a matrix."""
    n, m = values.size, _REACH[k]
    left, right = _EDGES[k]
    out = np.empty(n)
    _central(values[k - 1:n - k + 1], k, out[k:n - k])
    np.dot(left, values[:m], out=out[:k])
    np.dot(right, values[n - m:], out=out[n - k:])
    return out


def _stencil_adjoint(values: np.ndarray, k: int) -> np.ndarray:
    """h^k D_k^T values, the adjoint of ``_stencil_apply``: the central rows'
    transpose over their entries, zero-padded one node past each end, plus
    the edge rows' transpose on the _REACH[k] columns nearest each edge,
    which overlap when n < 2 _REACH[k]."""
    n, m = values.size, _REACH[k]
    left, right = _EDGES[k]
    inner = np.zeros(n + 2)
    inner[k + 1:n + 1 - k] = values[k:n - k]
    out = np.empty(n)
    _central(inner, k, out, transpose=True)
    out[:m] += np.dot(values[:k], left)
    out[n - m:] += np.dot(values[n - k:], right)
    return out


def resample_scaled(p: GridProfile, lam: float) -> GridProfile:
    """Nodal image of v(lam * x): endpoints divided by lam, values unchanged."""
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be positive, got {lam}")
    g = p.grid
    return GridProfile(make_grid(g.x_lo / lam, g.x_hi / lam, g.n_cells), p.values)


@dataclass(frozen=True)
class BVTarget:
    """Piecewise +-1 target given by its jumps, at least one, at
    ``jump_locations`` in (0, 1).

    ``jump_signs[j]`` is the jump direction sgn(u(t+) - u(t-)); the signs are
    +-1 and alternate, so the target stays in {-1, +1}, and the value left of
    the first jump is -jump_signs[0].
    """

    jump_locations: tuple
    jump_signs: tuple

    def __post_init__(self):
        locs = tuple(float(t) for t in self.jump_locations)
        signs = tuple(int(s) for s in self.jump_signs)
        if len(locs) != len(signs):
            raise ValueError("jump_locations and jump_signs must have equal length")
        if not locs:
            raise ValueError("a target needs at least one jump")
        if any(not (0.0 < t < 1.0) for t in locs):
            raise ValueError(f"jump locations must lie strictly inside (0, 1), got {locs}")
        if any(locs[i] >= locs[i + 1] for i in range(len(locs) - 1)):
            raise ValueError(f"jump locations must be strictly increasing, got {locs}")
        # the value left of each jump: -signs[0], then the previous jump's sign
        for t, s, left in zip(locs, signs, (-signs[0], *signs)):
            if s != -left or s not in (-1, 1):
                raise ValueError(
                    f"jump sign {s:+d} at t={t} is inconsistent: the target would leave"
                    " {-1, +1} (signs must be +-1 and alternate)"
                )
        object.__setattr__(self, "jump_locations", locs)
        object.__setattr__(self, "jump_signs", signs)

    def value_at(self, x) -> np.ndarray:
        """Piecewise-constant value; a point exactly at a jump takes the right limit."""
        x = np.asarray(x, dtype=float)
        count = np.searchsorted(np.asarray(self.jump_locations), x, side="right")
        return -self.jump_signs[0] * np.where(count % 2 == 0, 1.0, -1.0)


def make_bv_target(jumps) -> BVTarget:
    """Build a BVTarget from (location, sign) pairs, at least one."""
    jumps = list(jumps)
    return BVTarget(tuple(t for t, _ in jumps), tuple(s for _, s in jumps))
