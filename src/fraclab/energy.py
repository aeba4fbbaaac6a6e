"""Double-well potentials, oscillating interaction kernels, singular-kernel
quadrature weights, and the discrete phase-transition energy.

``DiscreteEnergy`` is the one evaluator of the functional

    (1/eps) * trapezoid(W(u)) + eps^{2(k+s)-1} * (nonlocal sum + exterior),

with the kernel at (x/delta, y/delta), for the parameters (k, s, eps, delta)
of an ``EnergyParams`` (``eval_F`` evaluates it once); the rescaled
functional is the case eps = 1, where both coefficients are exactly 1.  The
nonlocal term is the nodal double sum over ordered pairs i != j of
``a_ij * h^2 |x_i - x_j|^{-(1+2s)} * (g_i - g_j)^2`` with ``g`` the k-th
finite difference of the profile, applied by FFT in O(N log N) time and
O(N) memory (``_PairForm``).  The operator's kernel-free part, the weights
with their circulant symbol and row sums, depends on (N, h, s) alone and is
built once per process (``_pair_table``), so an energy at a new eps or delta
pays only for its kernel part: t = cos(2 pi x / delta) and, for the cosine
kernels, one product W t.  The exterior term adds the pairs with a node
off the grid, in both orders like the pair sum: the closed-form tail of the
+-1 exterior beyond a symmetric grid, the pinned rest of a larger grid
(``block``), or zero.  All gradients are exact derivatives of the
implemented sums; one at the last energy call's point reuses its FFT
product.
"""

from __future__ import annotations

import copy
import functools
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import numpy.fft  # noqa: F401  numpy >= 2 would load it lazily, inside the first energy call

from .grid import (_REACH, SUPPORTED_ORDERS, GridProfile, UniformGrid, _stencil_adjoint,
                   _stencil_apply, make_grid)
from .optimize import _warn_unconverged

__all__ = [
    "DoubleWell",
    "KernelSpec",
    "EnergyParams",
    "eval_F",
    "DiscreteEnergy",
]


@dataclass(frozen=True)
class DoubleWell:
    """W_chi(z) = (1 - z^2)^2 * (1 + chi * sin(pi z / 2)).

    Vanishes exactly at z = +-1; chi in (-1, 1) tilts the well, W(z) != W(-z)
    for chi != 0.  The tilt does not make positive and negative transitions
    cost differently: every supported kernel is even, a(-x, -y) = a(x, y),
    and every reference grid is symmetric about 0, so the reflection
    x -> -x maps an ascending profile to a descending one of the same
    energy, and m+ = m- for every chi.  Satisfies
    ``alpha_w * (1-|z|)^2 <= W(z) <= beta_w * (1-|z|)^2`` for |z| <= 2 and
    ``inf_{|z|>=2} W >= 9 * (1 - |chi|) > 0``.
    """

    chi: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.chi) and abs(self.chi) < 1.0):
            raise ValueError(f"chi must lie in (-1, 1), got {self.chi}")

    @property
    def alpha_w(self) -> float:
        return 1.0 - abs(self.chi)

    @property
    def beta_w(self) -> float:
        return 9.0 * (1.0 + abs(self.chi))

    def value(self, z):
        z = np.asarray(z, dtype=float)
        out = self._value(z, 1.0 - z * z)
        return out if out.ndim else float(out)

    def deriv(self, z):
        z = np.asarray(z, dtype=float)
        out = self._deriv(z, 1.0 - z * z)
        return out if out.ndim else float(out)

    def _value(self, z, q):  # q = 1 - z^2; the even well needs no sin or cos
        return q * q if not self.chi else q ** 2 * (1.0 + self.chi * np.sin(0.5 * np.pi * z))

    def _deriv(self, z, q):
        if not self.chi:
            return -4.0 * z * q
        return -4.0 * z * q * (1.0 + self.chi * np.sin(0.5 * np.pi * z)) \
            + q * q * self.chi * 0.5 * np.pi * np.cos(0.5 * np.pi * z)


# kind -> the terms (p, q), p and q 0 or 1, of a = c0 + c1 sum cos(2 pi x)^p cos(2 pi y)^q
_KERNEL_TERMS = {"constant": (), "cos_sum": ((1, 0), (0, 1)), "cos_prod": ((1, 1),)}
_KERNEL_KINDS = tuple(_KERNEL_TERMS)


@dataclass(frozen=True)
class KernelSpec:
    """Symmetric, 1-periodic a(x, y) = c0 + c1 sum cos(2 pi x)^p cos(2 pi y)^q over ``terms``:

      constant  -- no term: a = c0
      cos_sum   -- (1, 0), (0, 1): a = c0 + c1 * (cos 2 pi x + cos 2 pi y)
      cos_prod  -- (1, 1): a = c0 + c1 * cos 2 pi x * cos 2 pi y

    Construction rejects parameters whose essential infimum is <= 0.
    """

    kind: str
    c0: float
    c1: float = 0.0

    def __post_init__(self):
        if self.kind not in _KERNEL_TERMS:
            raise ValueError(f"unknown kernel kind {self.kind!r}, expected one of {_KERNEL_KINDS}")
        if not (np.isfinite(self.c0) and np.isfinite(self.c1)):
            raise ValueError("kernel coefficients must be finite")
        if self.alpha_a <= 0.0:
            raise ValueError(
                f"kernel is not uniformly positive: ess inf = {self.alpha_a} <= 0"
            )

    @classmethod
    def constant(cls, c: float) -> "KernelSpec":
        return cls("constant", float(c))

    @classmethod
    def cos_sum(cls, c0: float, c1: float) -> "KernelSpec":
        return cls("cos_sum", float(c0), float(c1))

    @classmethod
    def cos_prod(cls, c0: float, c1: float) -> "KernelSpec":
        return cls("cos_prod", float(c0), float(c1))

    @property
    def terms(self) -> tuple:
        return _KERNEL_TERMS[self.kind]

    @property
    def alpha_a(self) -> float:  # the terms, each in [-1, 1], reach 1 together and -1 together
        return self.c0 - abs(self.c1) * len(self.terms)

    @property
    def beta_a(self) -> float:
        return self.c0 + abs(self.c1) * len(self.terms)

    @property
    def a_bar(self) -> float:
        """Mean over the unit square (the cosine means vanish)."""
        return self.c0

    def _diag_min(self) -> tuple[float, float]:
        """(a_inf, r): the least a(r, r) at r = 0, 1/2, 1/4, where cos 2 pi r =
        1, -1, 0 bound every kind's diagonal, linear in cos 2 pi r or its square."""
        return min((self.c0 + self.c1 * sum(c ** (p + q) for p, q in self.terms), r)
                   for c, r in ((1, 0.0), (-1, 0.5), (0, 0.25)))

    @property
    def a_inf(self) -> float:
        """Infimum of the diagonal t -> a(t, t)."""
        return self._diag_min()[0]

    def diag_argmin(self) -> float:
        """A point r in [0, 1) with a(r, r) = a_inf, the least such of 0, 1/4, 1/2."""
        return self._diag_min()[1]

    def eval(self, x, y):
        cx, cy = (np.cos(2 * np.pi * np.asarray(v, dtype=float)) for v in (x, y))
        terms = (self.c1 * (cx if p else 1.0) * (cy if q else 1.0) for p, q in self.terms)
        out = self.c0 + sum(terms, np.zeros(np.broadcast_shapes(cx.shape, cy.shape)))
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class EnergyParams:
    """(k, s, eps, delta) of the eps/delta functional, the one check that
    k + s > 1/2, and its coefficients: 1/eps on the well term and
    eps^{2(k+s)-1} on the nonlocal one, both exactly 1 at eps = 1."""

    k: int
    s: float
    eps: float
    delta: float

    def __post_init__(self):
        if self.k not in SUPPORTED_ORDERS:
            raise ValueError(f"k must be one of {SUPPORTED_ORDERS}, got {self.k}")
        if not (0.0 < self.s < 1.0):
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        if self.k + self.s <= 0.5:
            raise ValueError(f"(k, s) = ({self.k}, {self.s}) is excluded: need k + s > 1/2")
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be positive, got {self.delta}")

    @property
    def well_coef(self) -> float:
        return 1.0 / self.eps

    @property
    def nonlocal_coef(self) -> float:
        return self.eps ** (2.0 * (self.k + self.s) - 1.0)


class _PairTable(NamedTuple):
    """The kernel-free part of the pair operator on n nodes at spacing h:
    the offset weights h^2 |x_i - x_j|^{-(1+2s)} by |i - j| (entry 0, the
    excluded diagonal, zero), the real symbol of their circulant embedding
    of length L = 2^a, 3 2^a or 5 2^a >= 2n - 2 (lag n - 1 occurs only
    once), and the row sums W 1.  Every array is read-only, so threads
    share a table."""

    weights: np.ndarray
    symbol: np.ndarray
    length: int
    ones: np.ndarray  # W 1

    def product(self, g: np.ndarray) -> np.ndarray:
        """W g, the head of a circular convolution with the symbol; rows of
        a 2-d ``g`` in one batched FFT."""
        spectrum = np.fft.rfft(g, self.length) * self.symbol
        return np.fft.irfft(spectrum, self.length)[..., :self.weights.size]


@functools.lru_cache(maxsize=8)
def _pair_table(n: int, h: float, s: float) -> _PairTable:
    """The ``_PairTable`` of (n, h, s), built once per process; the least
    recently used of 8 is dropped.  A table holds 3 n to 3.25 n floats
    (3.1 MB at n = 128,001), so the cache holds at most 8 times the largest
    table in use: 25 MB if every one had 128,001 nodes."""
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    n = int(n)  # a numpy integer has no bit_length
    d = np.arange(n, dtype=float)
    d[0] = 1.0  # placeholder; the diagonal is excluded everywhere
    w = h * h * (d * h) ** (-(1.0 + 2.0 * s))
    w[0] = 0.0
    length = min(p << ((2 * n - 3) // p).bit_length() for p in (1, 3, 5))
    col = np.zeros(length)
    col[:n] = w
    col[length - n + 1:] = w[:0:-1]
    symbol = np.fft.rfft(col).real.copy()  # symmetric column: real symbol
    table = _PairTable(w, symbol, length, None)
    ones = table.product(np.ones(n))
    for a in (w, symbol, ones):
        a.flags.writeable = False
    return table._replace(ones=ones)


def _phase(x: np.ndarray, scale: float, name: str = "delta") -> np.ndarray:
    """2 pi x / scale at the ascending nodes x, finite at the farther end or a ValueError."""
    far = max(-float(x[0]), float(x[-1]))  # the same rounding as the array's, with no warning
    if not np.isfinite(2 * np.pi * far / float(scale)):
        raise ValueError(f"{name} = {scale:.6g} is too small: the kernel phase 2 pi x / {name}"
                         f" overflows at the node x = {far:.6g}")
    return 2 * np.pi * np.asarray(x) / scale


class _PairForm:
    """Quadratic form  g -> sum_{i != j} A_ij (g_i - g_j)^2  with
    A_ij = W_|i-j| a(x_i / scale, x_j / scale), applied without forming A.

    W g is the ``_PairTable``'s product, which the form shares with every
    other form of its (n, h, s); the form adds only its kernel part, the one
    place where the kernel meets the nodes: t = cos(2 pi x / scale), sampled
    once (None for the constant kernel; ``block`` slices it).  The kernel's
    ``terms`` (p, q) are separable, A g = c0 W g + c1 sum t^p o W(t^q o g),
    so t gives the row A 1 and, where read, ``diag`` a(x_i/scale, x_i/scale)
    and the exterior tail's ``period_mean`` of y -> a(x_i/scale, y/scale).
    The value reads W g, and W (t o g) in the same batched FFT if a term has
    a cosine on both sides (cos_prod); W is symmetric, so a term with one
    reads W g, and cos_sum's gradient adds the product W (t o g).  With
    g' = g - mean(g), the value is 2 g' . (diag(row) - A) g' and its gradient
    4 (row o g' - A g'), both exactly zero wherever g' is, as on every pure
    +-1 phase.
    """

    def __init__(self, table: _PairTable, kspec: KernelSpec, x: np.ndarray, scale: float):
        self._kspec, self._terms, self._both = kspec, kspec.terms, (1, 1) in kspec.terms
        self._reads = [(q, (1 + (p > q)) * kspec.c1) for p, q in kspec.terms if p >= q]
        self._on(table, np.cos(_phase(x, scale)) if kspec.terms else None)

    def _on(self, table: _PairTable, t: np.ndarray | None) -> None:
        """Take the ``table`` and samples ``t`` of the nodes; the row A 1 from W 1 and W t."""
        self._table, self.t = table, t  # apply reads g = 1 only through these products
        self.row = self.apply(None, (table.ones, None if t is None else table.product(t)))

    def _nodal(self, powers) -> np.ndarray:  # c0 + c1 sum t^n over the powers n, 1 or 2
        terms = [self.t * self.t if n == 2 else self.t for n in powers] or [np.zeros(self.row.size)]
        return self._kspec.c0 + self._kspec.c1 * functools.reduce(np.add, terms)

    def diag(self) -> np.ndarray:
        """a(x_i/scale, x_i/scale) on the nodes, from the samples."""
        return self._nodal([p + q for p, q in self._terms])

    def period_mean(self) -> np.ndarray:
        """The one-period mean of y -> a(x_i/scale, y/scale): the terms with q = 0."""
        return self._nodal([p for p, q in self._terms if not q])

    def block(self, lo: int, hi: int, table: _PairTable) -> "_PairForm":
        """The form on the nodes lo..hi-1, on their ``table`` and a slice of the samples."""
        out = copy.copy(self)
        out._on(table, None if self.t is None else self.t[lo:hi])
        return out

    def product(self, g: np.ndarray) -> tuple:
        """The value's FFT product (W g, W (t o g)), the second None unless a
        term has a cosine on both sides."""
        if self._both:
            return tuple(self._table.product(np.stack([g, self.t * g])))
        return self._table.product(g), None

    def apply(self, g: np.ndarray, prod: tuple | None = None) -> np.ndarray:
        """A @ g; ``prod`` is ``product(g)`` if the caller has it (cos_sum
        then needs one more transform, W (t o g), the other kernels none)."""
        wg, wtg = self.product(g) if prod is None else prod
        if wtg is None and self.t is not None:  # a is symmetric: some term has q = 1
            wtg = self._table.product(self.t * g)
        out, terms = self._kspec.c0 * wg, None
        for p, q in self._terms:
            term = self.t * (wtg if q else wg) if p else (wtg if q else wg)
            terms = term if terms is None else terms + term
        return out if terms is None else out + self._kspec.c1 * terms

    def value(self, g: np.ndarray) -> float:
        gc = g - g.mean()
        return self.centred_value(gc, self.product(gc))

    def centred_value(self, gc: np.ndarray, prod: tuple) -> float:
        quad = self._kspec.c0 * (gc @ prod[0])
        for q, coef in self._reads:  # (t o g) . W(t^q o g); W symmetric: (q, p) adds as (p, q)
            quad += coef * ((self.t * gc) @ prod[q])
        return max(2.0 * float(self.row @ (gc * gc) - quad), 0.0)


def _sine_solve(scales: np.ndarray, weights: np.ndarray):
    """r -> sum_j S_j V diag(w_j) V^T S_j r for the rows S_j of ``scales`` and
    w_j of ``weights`` (modes l = 1..m), V the orthonormal sine modes of m
    nodes: one batched rfft and irfft of length 2(m+1) on odd extensions."""
    rows, m = weights.shape
    coef = np.zeros((rows, m + 2))  # modes 0 and m+1 vanish
    coef[:, 1:m + 1] = weights
    ext, spec = np.zeros((rows, 2 * (m + 1))), np.zeros((rows, m + 2), dtype=complex)

    def solve(r):
        np.multiply(scales, r, out=ext[:, 1:m + 1])
        np.negative(ext[:, m:0:-1], out=ext[:, m + 2:])
        np.multiply(np.fft.rfft(ext).imag, coef, out=spec.imag)
        y = np.fft.irfft(spec, ext.shape[1])[:, 1:m + 1]
        y *= scales
        return y.sum(axis=0)

    return solve


def _cross_tail_constant(kspec: KernelSpec, s: float, T_out: float) -> float:
    """Closed-form interaction of the two opposite-sign exterior tails over
    ordered pairs: 8 * a_bar * (2 T_out)^{1-2s} / (2s (2s - 1)).  Requires
    s > 1/2."""
    if s <= 0.5:
        raise ValueError(f"the cross-tail integral needs s > 1/2, got s={s}")
    return 8.0 * kspec.a_bar * (2.0 * T_out) ** (1.0 - 2.0 * s) / (2.0 * s * (2.0 * s - 1.0))


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not report them."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return float("inf")
    return float(pages * size) if pages > 0 and size > 0 else float("inf")


def _check_nodes(grid: UniformGrid, k: int) -> None:
    """Raises ValueError unless ``grid`` has the 2k + 3 nodes an order-k energy
    needs, a spacing h whose powers in the set-up stay finite and nonzero:
    h^2 (the pair weights), h^-k (D_k) and h^2k (|D_k|^2 = O(h^-2k), in the
    preconditioner), and a run that fits in physical memory at 512 bytes per
    node.  Whole profile, curve, sweep and recovery runs (one worker, every
    kernel, k = 0 to 2, 2^14 to 2^19 cells) raised the peak resident size
    by 170 to 510 bytes per node of their largest grid.  The bound is
    necessary, not sufficient: memory shared with other work, or with the
    other grids of a curve on several workers, is not counted."""
    if grid.n_nodes < 2 * k + 3:
        raise ValueError(f"grid has {grid.n_nodes} nodes; k={k} needs at least {2 * k + 3}")
    power = max(2, 2 * k)
    h_max = np.finfo(float).max ** (1.0 / power)
    if not grid.h < h_max:
        raise ValueError(f"grid spacing h = {grid.h:.6g} overflows h^{power}; k={k} needs"
                         f" h < {h_max:.6g}")
    need, memory = 512.0 * grid.n_nodes, _physical_memory()
    if need > memory:
        raise ValueError(f"n_cells = {grid.n_cells} needs about {need / 2**30:.3g} GiB to run,"
                         f" more than the {memory / 2**30:.3g} GiB of physical memory")


class DiscreteEnergy:
    """Energy/gradient evaluator for repeated calls on one grid.

    Precomputes the kernel part of the matrix-free pair operator, on the
    grid's shared ``_pair_table``, the trapezoid weights and the exterior
    term.  ``energy`` evaluates each point afresh
    with one O(N log N) FFT product and keeps what the gradient shares, which
    ``gradient`` at an equal point reuses (cos_sum adds one single-row product).
    So an instance holds per-point state and must not be shared across threads
    (the curve's thread pool builds one per T).  ``preconditioner`` returns the
    inverse of the energy's mean-kernel Hessian at a pure phase, applied by
    one rfft and one irfft per free block; for k = 0 and 1 with a varying
    kernel, modes shorter than the kernel period see its local diagonal
    instead (the two-scale rule).

    ``params`` (``EnergyParams``) fixes the functional: k, s, the kernel
    scale delta and the coefficients 1/eps and eps^{2(k+s)-1}, both 1 in the
    rescaled form (eps = 1); ``kspec`` is the kernel a.  The exterior term
    on g = D_k u, sum_i (R_i g_i - 2 B_i) g_i + c0, has gradient 2 (R g - B)
    in g; it is held as (R, B, c0), arrays R and B for every k.  Without
    ``tail_signs``, R, B and c0 are zero.  ``tail_signs`` = (left, right)
    fills it with the ordered-pair interactions with the +-1 exterior
    beyond a grid on (-T_out, T_out): R = c_+ + c_- with c_+-,i = 2 h
    rho_i (T_out -+ x_i)^{-2s} / (2s) off the end nodes, rho the pair
    operator's ``period_mean``; for k = 0 (s > 1/2), B = c_+ right +
    c_- left and c0 = sum(R), plus the cross-tail constant if the signs
    differ; for k >= 1, B and c0 stay 0.
    Difference stencils act in exactly representable units and h^-k is
    applied after the stencil, so pure phases +-1 have exactly zero energy
    and gradient for every k and grid.
    """

    def __init__(self, grid: UniformGrid, params: EnergyParams, well: DoubleWell,
                 kspec: KernelSpec, tail_signs=None):
        k, s, scale = int(params.k), params.s, params.delta
        _check_nodes(grid, k)
        self.grid, self._h, self.params, self.k, self.well = grid, grid.h, params, k, well
        self.well_coef, self.nonlocal_coef = params.well_coef, params.nonlocal_coef
        self._trap = np.full(grid.n_nodes, grid.h * self.well_coef)  # trapezoid weights
        self._trap[[0, -1]] *= 0.5
        self._h_k = grid.h ** -self.k
        x = grid.nodes()
        table = _pair_table(grid.n_nodes, grid.h, s)
        self._weights = table.weights  # the preconditioner's; a block keeps the grid's
        self.kspec = kspec
        self._form = _PairForm(table, kspec, x, scale)
        self._row = self._form.row  # for P's k = 2 boundary terms; a block keeps the grid's
        self._last = (None,)  # u (a private copy), q = 1 - u^2, g = D_k u, gc, product(gc)

        self._exterior = (np.zeros(x.size), np.zeros(x.size), 0.0)  # (R, B, c0)
        if tail_signs is not None:
            T_out = grid.x_hi
            if grid.x_lo != -T_out:
                raise ValueError(f"the exterior tail needs a grid symmetric about 0,"
                                 f" got ({grid.x_lo}, {T_out})")
            if not set(tail_signs) <= {-1, 1}:
                raise ValueError(f"tail signs must be +-1, got {tail_signs}")
            xi, rho = x[1:-1], self._form.period_mean()[1:-1]
            c_right, c_left = np.zeros(x.size), np.zeros(x.size)
            c_right[1:-1] = 2.0 * grid.h * rho * (T_out - xi) ** (-2.0 * s) / (2.0 * s)
            c_left[1:-1] = 2.0 * grid.h * rho * (T_out + xi) ** (-2.0 * s) / (2.0 * s)
            sl, sr = tail_signs
            R = c_right + c_left
            self._exterior = (R, self._exterior[1], 0.0) if k else (
                R, c_right * sr + c_left * sl,
                float(R.sum()) + (_cross_tail_constant(kspec, s, T_out) if sl != sr else 0.0))

    def _difference(self, values: np.ndarray) -> np.ndarray:
        if not self.k:
            return values
        g = _stencil_apply(values, self.k)
        g *= self._h_k
        return g

    def _exterior_energy(self, g: np.ndarray) -> float:
        """The exterior term, before ``nonlocal_coef``; g = k-th difference."""
        R, B, c0 = self._exterior
        return float(((R * g - 2.0 * B) * g).sum()) + c0

    def _point(self, values: np.ndarray) -> None:
        """Evaluate and keep the pieces energy and gradient share at ``values``."""
        u = np.array(values, dtype=float)
        g = self._difference(u)
        gc = g - g.sum() / g.size  # g.mean() bit for bit, without its dispatch
        self._last = (u, 1.0 - u * u, g, gc, self._form.product(gc))

    def energy(self, values: np.ndarray) -> float:
        self._point(values)
        u, q, g, gc, prod = self._last
        total = float(self._trap @ self.well._value(u, q))
        total += self.nonlocal_coef * self._form.centred_value(gc, prod)
        total += self.nonlocal_coef * self._exterior_energy(g)
        return total

    def gradient(self, values: np.ndarray) -> np.ndarray:
        last = self._last[0]
        if last is None or (values != last).any():  # equal content, never identity
            self._point(values)
        u, q, g, gc, prod = self._last
        inner = 4.0 * (self._form.row * gc - self._form.apply(gc, prod))
        inner += 2.0 * (self._exterior[0] * g - self._exterior[1])
        if self.k:
            inner = _stencil_adjoint(inner, self.k)
            inner *= self._h_k
        grad = self._trap * self.well._deriv(u, q)
        grad += self.nonlocal_coef * inner
        return grad

    def block(self, lo: int, hi: int, values: np.ndarray) -> "DiscreteEnergy":
        """This energy on the nodes lo..hi-1, the others pinned to ``values``.

        The block's exterior term is the pinned rest of the pair sum plus
        this energy's own exterior rows on lo..hi-1.  The pinned rest has
        R = 2 (full row - block row); for k = 0, B = 2 A u_C (u_C: ``values``
        off the block, 0 on it); for k >= 1, it adds no B, which needs D_k
        ``values`` to vanish off the block and on its one-sided edge rows
        (equal values on its _REACH[k] end nodes).  c0 is the full energy at
        ``values`` less the block's, so it holds every term the block's
        nodes do not move: the pinned-pinned pairs, the pinned rest's
        2 A_ij u_j^2 (i on the block, j off it) and the exterior rows of the
        pinned nodes.  The block keeps the full grid's h, trapezoid weights
        and preconditioner symbol; its pair weights are the prefix of the
        grid's, and its operator takes the slice lo..hi-1 of this one's
        kernel samples (``_PairForm.block``).
        """
        x_lo, h = self.grid.x_lo, self._h  # node i at x_lo + h i, as in UniformGrid.nodes
        out = copy.copy(self)
        out.grid = make_grid(x_lo + h * lo, x_lo + h * (hi - 1), hi - lo - 1)
        out._form = self._form.block(lo, hi, _pair_table(hi - lo, h, self.params.s))
        out._trap, out._row, out._last = self._trap[lo:hi], self._row[lo:hi], (None,)
        R, B = self._exterior[:2]
        R, B = 2.0 * (self._form.row[lo:hi] - out._form.row) + R[lo:hi], B[lo:hi]
        if not self.k:
            pinned = np.array(values, dtype=float)
            pinned[lo:hi] = 0.0
            B = 2.0 * self._form.apply(pinned)[lo:hi] + B
        out._exterior = (R, B, 0.0)
        c0 = (self.energy(values) - out.energy(values[lo:hi])) / self.nonlocal_coef
        out._exterior = (R, B, c0)
        return out

    def solve_window(self, init: np.ndarray, free: np.ndarray, opts, solve, what: str):
        """Minimize from ``init`` over the nodes of the boolean mask ``free``,
        the others pinned to ``init``, on one block a:b: the free nodes' span
        plus ``_REACH[k]`` pinned nodes per side (one for k = 0, which keeps
        the block a grid).  ``free[a:b]`` is the mask of both ``solve``, the
        caller's ``minimize`` run with ``opts``, and the block's
        preconditioner; the pinned rest is the block's exterior term, so the
        energy is the full one.  The result's profile is the full grid's; a
        solve short of ``grad_tol`` warns, naming ``what``."""
        idx, margin = np.flatnonzero(free), _REACH.get(self.k, 1)
        a, b = max(idx[0] - margin, 0), min(idx[-1] + 1 + margin, free.size)
        block = self.block(a, b, init)
        res = solve(block.energy, block.gradient, GridProfile(block.grid, init[a:b]), free[a:b],
                    opts, precondition=block.preconditioner(free[a:b]))
        values = np.r_[init[:a], res.profile.values, init[b:]]
        res = replace(res, profile=GridProfile(self.grid, values))
        _warn_unconverged(res, what)
        return res

    def preconditioner(self, free_mask: np.ndarray):
        """P^-1 as a callable g -> P^-1 g, zero wherever ``free_mask`` is false.

        On each contiguous block of m free nodes, V holds the orthonormal
        sine modes sin(i theta_l), theta_l = l pi/(m+1), and lambda_l =
        K_l + 8 h well_coef is the symbol of the energy's Hessian at a pure
        phase with the kernel replaced by its mean a_bar, K_l = nonlocal_coef
        8 a_bar sum_j w_j (1 - cos j theta_l) |D_k(theta_l)|^2, where w_j are
        the pair weights, |D_1|^2 = sin^2 theta / h^2, |D_2|^2 = (2 - 2 cos
        theta)^2 / h^4, and 8 = W''(+-1) at chi = 0 (the sine-transform form
        of Chan's circulant preconditioner).  For k = 2, constant kernels and
        delta < h/2, P^-1 = V diag(1/lambda) V^T, one rfft and irfft per
        block; for k = 2 P also carries its boundary rows (``_block_solve``).

        Otherwise modes shorter than the kernel period see its local
        diagonal rather than its mean (the two-scale rule):

            P^-1 = V diag(phi/lambda) V^T
                   + V E U^T S U diag((1 - phi)/sigma) U^T S U E V^T,

        phi_l = 1/(1 + (xi_l/(2 kappa))^2), xi_l = theta_l/h, kappa =
        2 pi/delta, and S = (diag/a_bar)^(-1/2) on the nodes of g = D_k u,
        the pair operator's diag = a(x/delta, x/delta).  For k = 0, g = u:
        U = V, sigma = lambda and E = 1.  For k = 1, U holds the cosine modes
        that the central difference maps the sine modes to, on the block and
        its two clamped neighbours, orthonormal under node weights 1/2 at
        both ends and 1 between (as U^T S U sums); sigma_l = K_l/|D_1(theta_l)|^2
        and E = diag(sigma/lambda)^(1/2).  S = 1 gives back V diag(1/lambda) V^T.
        Below delta = h/2 the second part would weigh under 1/65 on every
        mode and is left out.  P is symmetric positive definite on the free
        nodes.
        """
        free = np.asarray(free_mask, dtype=bool)
        edges = np.flatnonzero(np.diff(np.concatenate(([False], free, [False])).astype(np.int8)))
        blocks = list(zip(edges[::2], edges[1::2]))
        symbols = {m: self._symbol(m) for m in {b - a for a, b in blocks}}
        solves = [(a, b, self._block_solve(a, b, *symbols[b - a])) for a, b in blocks]

        def apply(g: np.ndarray) -> np.ndarray:
            d = np.zeros_like(g)
            for a, b, solve in solves:
                d[a:b] = solve(g[a:b])
            return d

        return apply

    def _block_solve(self, a: int, b: int, lam: np.ndarray, sigma: np.ndarray):
        """P^-1 on the free block [a, b), from the block's symbol lambda and
        its kernel part sigma on g (``_symbol``): the two-scale rule, or the
        mean kernel's V diag(1/lambda) V^T, the rule's k = 0 solve of one row.

        For k = 2 the sine basis extends the block oddly about its clamped
        neighbours, where the second difference then vanishes; the energy's
        does not.  The terms 4 row_q (D u)_q^2 of the rows q outside the
        block that D couples to it (two for an interior block) are added to
        P as a low-rank update, inverted by the Sherman-Morrison-Woodbury
        formula; without it P^-1 H keeps two eigenvalues growing like N^2.
        """
        if self.k < 2 and self._form.t is not None and self.params.delta >= 0.5 * self._h:
            return self._two_scale_solve(a, b, lam, sigma)
        mean_solve = _sine_solve(np.ones((1, b - a)), 1.0 / lam[None])
        if self.k != 2:
            return mean_solve
        # a row outside the block reaches fewer than _REACH[2] columns into
        # it: read those rows off the stencil applied to the end columns
        n, m = self.grid.n_nodes, _REACH[2]
        cols = np.unique(np.r_[a:min(a + m, b), max(b - m, a):b])
        hits = np.array([_stencil_apply(np.eye(1, n, j)[0], 2) for j in cols])
        outside = np.ones(n, dtype=bool)
        outside[a:b] = False
        rows = np.flatnonzero(outside & hits.any(axis=0))
        if not rows.size:
            return mean_solve
        U = np.zeros((b - a, rows.size))
        U[cols - a] = hits[:, rows] * self._h_k
        z = np.column_stack([mean_solve(col) for col in U.T])
        coef = 4.0 * self.nonlocal_coef * self._row[rows]
        core = np.linalg.inv(np.diag(1.0 / coef) + U.T @ z)

        def solve(r):
            y = mean_solve(r)
            return y - z @ (core @ (U.T @ y))

        return solve

    def _two_scale_solve(self, a: int, b: int, lam: np.ndarray, sigma: np.ndarray):
        """The two-scale P^-1 (``preconditioner``) on the free block [a, b).
        For k = 0 its two parts are the rows r and S r of one ``_sine_solve``.
        For k = 1 they share the first and last transform, on odd (sine)
        extensions, and the second part takes four more, on even (cosine)
        ones, all of length 2(m+1), their scales folded into the mode weights."""
        m, k = b - a, self.k
        L = 2 * (m + 1)
        theta = np.arange(1, m + 1) * (np.pi / (m + 1))
        with np.errstate(over="ignore"):  # phi -> 0, its limit, past delta/h ~ 1e153
            phi = 1.0 / (1.0 + (theta * self.params.delta / (4.0 * np.pi * self._h)) ** 2)
        # a neighbour off the grid (a block at its end) takes the end node's diag
        S = (self._form.diag().take(np.arange(a - k, b + k), mode="clip") / self.kspec.a_bar) ** -0.5
        if not k:
            return _sine_solve(np.stack([np.ones(m), S]), np.stack([phi / lam, (1.0 - phi) / lam]))
        S = np.r_[S, S[-2:0:-1]]  # even extension
        end, mid, low = np.zeros((3, m + 2))  # mode weights; modes 0 and m+1 vanish
        end[1:-1] = -0.5 * (m + 1) * np.sqrt(sigma / lam)
        mid[1:-1] = 4.0 * (1.0 - phi) / ((m + 1) ** 2 * sigma)
        low[1:-1] = phi / lam
        ext, spec = np.zeros(L), np.zeros(m + 2, dtype=complex)

        def solve(r):
            ext[1:m + 1] = r
            np.negative(r[::-1], out=ext[m + 2:])
            fr = np.fft.rfft(ext).imag
            y = np.fft.irfft(fr * end, L)
            y *= S
            y = np.fft.irfft(np.fft.rfft(y).real * mid, L)
            y *= S
            np.multiply(fr, low, out=spec.imag)
            spec.imag += np.fft.rfft(y).real * end
            return np.fft.irfft(spec, L)[1:m + 1]

        return solve

    def _symbol(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(lambda_l, sigma_l), l = 1..m: the symbol of P and its kernel part
        on g = D_k u (``preconditioner``)."""
        period = 2 * (m + 1)
        w = self._weights
        folded = np.bincount(np.arange(w.size) % period, weights=w, minlength=period)
        sym = np.maximum(w.sum() - np.fft.rfft(folded)[1:m + 1].real, 0.0)
        theta = np.arange(1, m + 1) * (np.pi / (m + 1))
        h = self._h
        # |D_k(theta)|^2, of this order only
        dk2 = (1.0 if self.k == 0 else np.sin(theta) ** 2 / h ** 2 if self.k == 1
               else (2.0 - 2.0 * np.cos(theta)) ** 2 / h ** 4)
        coef = self.nonlocal_coef * 8.0 * self.kspec.a_bar
        return coef * (sym * dk2) + 8.0 * h * self.well_coef, coef * sym


def _end_runs(u: np.ndarray, k: int) -> tuple[int, int]:
    """The span [a, b) of ``eval_F``: u[:a] and u[b:] lie in the longest runs
    of u[0] and of u[-1] (a pure phase: of u[0] only) where that end is
    exactly +-1, less ``_REACH[k]`` nodes (one for k = 0), so D_k of the span
    reads u[0] or u[-1] on its edge rows; at least the 2k + 3 nodes an
    order-k energy needs."""
    n, margin, need = u.size, _REACH.get(k, 1), 2 * k + 3
    left, right = (int(np.argmax(v != v[0])) or n if abs(v[0]) == 1.0 else 0 for v in (u, u[::-1]))
    a = max(min(left - margin, n - need), 0)
    return a, min(max(n - (right if left < n else 0) + margin, a + need), n)


def _end_run_pairs(grid: UniformGrid, kspec: KernelSpec, s: float, delta: float,
                   a: int, b: int, g: np.ndarray, g_l: float, g_r: float) -> float:
    """The ordered pairs of ``eval_F`` with a node in an end run, before
    ``nonlocal_coef``: 2 sum_i [L_i (g_i - g_L)^2 + R_i (g_i - g_R)^2] +
    2 (g_L - g_R)^2 X over the span's nodes i and g, with L_i and R_i the
    sums of row i of A over the runs [0, a) and [b, n), and X the sum of R_i
    over the left run.  A_ij = w_|i-j| (c0 + c1 sum t_i^p t_j^q) with t =
    cos theta, theta_j = theta_i + phi (j - i) and phi = 2 pi h / delta, so a
    run's part of a row is a difference of two lag tails, sum_{d >= e} w_d
    and sum_{d >= e} w_d e^{i phi d}, each summed from the far end, the least
    weights first; e^{i phi d} comes by angle addition from two tables of
    about sqrt(n) phases."""
    w = _pair_table(grid.n_nodes, grid.h, s).weights
    n, tails, z = w.size, [w], None
    if kspec.terms:
        r, step = int(n ** 0.5) + 1, 2 * np.pi * grid.h / delta
        turns = np.outer(np.exp(1j * (step * r) * np.arange(-(-n // r))),
                         np.exp(1j * step * np.arange(r))).ravel()[:n]
        tails.append(w * turns)
        z = np.exp(1j * _phase(np.array([grid.x_lo, grid.x_hi]), delta)[0]) * turns[:b]
    tails = [np.append(np.cumsum(t[::-1])[::-1], 0.0) for t in tails]

    def rows(near, far, zi, conj):  # sum_j A_ij over a run, its lags near..far-1 per row
        s0 = tails[0][near] - tails[0][far]
        if zi is None:
            return kspec.c0 * s0
        s1 = tails[1][near] - tails[1][far]
        s1 = (zi * (s1.conj() if conj else s1)).real  # sum_j w_|i-j| t_j
        return kspec.c0 * s0 + kspec.c1 * sum((zi.real if p else 1.0) * (s1 if q else s0)
                                              for p, q in kspec.terms)

    # rows i < b reach the right run at lags b - i .. n - i - 1, rows
    # a <= i < b the left one at lags i - a + 1 .. i
    right = rows(slice(b, 0, -1), slice(n, n - b, -1), z, False)
    left = rows(slice(1, b - a + 1), slice(a + 1, b + 1), None if z is None else z[a:], True)
    pairs = float(left @ ((g - g_l) ** 2) + right[a:] @ ((g - g_r) ** 2))
    return 2.0 * (pairs + (g_l - g_r) ** 2 * float(right[:a].sum()))


def eval_F(p: GridProfile, params: EnergyParams, well: DoubleWell,
           kspec: KernelSpec) -> float:
    """One-shot value of the eps/delta functional on the profile's interval
    (no exterior tail): a ``DiscreteEnergy`` on the span between the +-1 end
    runs (``_end_runs``), whose well term is the whole one (W(+-1) = 0), plus
    the pairs with a node in an end run in closed form (``_end_run_pairs``;
    g = D_k u is u[0] or u[-1] there for k = 0, 0 for k >= 1).  Only a
    profile without a +-1 end run takes an FFT product of the grid's length."""
    grid, u, k = p.grid, p.values, params.k
    a, b = _end_runs(u, k)
    if (a, b) == (0, u.size):
        return DiscreteEnergy(grid, params, well, kspec).energy(u)
    x_lo, h = grid.x_lo, grid.h  # the span's nodes as DiscreteEnergy.block builds a block's
    span = DiscreteEnergy(make_grid(x_lo + h * a, x_lo + h * (b - 1), b - a - 1),
                          params, well, kspec)
    total = span.energy(u[a:b])
    g_l, g_r = (0.0, 0.0) if k else (float(u[0]), float(u[-1]))
    return total + span.nonlocal_coef * _end_run_pairs(grid, kspec, params.s, params.delta,
                                                       a, b, span._last[2], g_l, g_r)
