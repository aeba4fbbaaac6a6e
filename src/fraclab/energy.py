"""Double-well potentials, oscillating interaction kernels, singular-kernel
quadrature weights, and the discrete phase-transition energy.

``DiscreteEnergy`` is the one evaluator of the functional

    well_coef * trapezoid(W(u)) + nonlocal_coef * nonlocal sum (+ tail),

with (well_coef, nonlocal_coef) = (1/eps, eps^{2(k+s)-1}) and the kernel at
(x/delta, y/delta) for the eps/delta functional (``eval_F`` evaluates it
once), and (1, 1) for the rescaled one.  The nonlocal term is the nodal
double sum over ordered pairs i != j of ``a_ij * h^2 |x_i - x_j|^{-(1+2s)}
* (g_i - g_j)^2`` with ``g`` the k-th finite difference of the profile,
applied by FFT in O(N log N) time and O(N) memory (``_PairForm``).  The
optional tail adds the closed-form interaction of a clamped profile with the
constant +-1 exterior beyond a symmetric grid, counting each
interior-exterior pair in both orders like the pair sum.  All gradients are
exact derivatives of the implemented sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridProfile, UniformGrid, _stencil_matrix

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

    Vanishes exactly at z = +-1; chi in (-1, 1) tilts the wells so positive
    and negative transitions can cost differently.  Satisfies
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
        out = (1.0 - z * z) ** 2 * (1.0 + self.chi * np.sin(0.5 * np.pi * z))
        return out if out.ndim else float(out)

    def deriv(self, z):
        z = np.asarray(z, dtype=float)
        q = 1.0 - z * z
        out = -4.0 * z * q * (1.0 + self.chi * np.sin(0.5 * np.pi * z)) \
            + q * q * self.chi * 0.5 * np.pi * np.cos(0.5 * np.pi * z)
        return out if out.ndim else float(out)

    __call__ = value


_KERNEL_KINDS = ("constant", "cos_sum", "cos_prod")


@dataclass(frozen=True)
class KernelSpec:
    """Symmetric, 1-periodic interaction coefficient a(x, y).

    Variants:
      constant  -- a = c0
      cos_sum   -- a = c0 + c1 * (cos 2 pi x + cos 2 pi y)
      cos_prod  -- a = c0 + c1 * cos 2 pi x * cos 2 pi y

    Construction rejects parameters whose essential infimum is <= 0.
    """

    kind: str
    c0: float
    c1: float = 0.0

    def __post_init__(self):
        if self.kind not in _KERNEL_KINDS:
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
    def alpha_a(self) -> float:
        if self.kind == "constant":
            return self.c0
        if self.kind == "cos_sum":
            return self.c0 - 2.0 * abs(self.c1)
        return self.c0 - abs(self.c1)

    @property
    def beta_a(self) -> float:
        if self.kind == "constant":
            return self.c0
        if self.kind == "cos_sum":
            return self.c0 + 2.0 * abs(self.c1)
        return self.c0 + abs(self.c1)

    @property
    def a_bar(self) -> float:
        """Mean over the unit square (the cosine means vanish)."""
        return self.c0

    @property
    def a_inf(self) -> float:
        """Infimum of the diagonal t -> a(t, t)."""
        if self.kind == "constant":
            return self.c0
        if self.kind == "cos_sum":
            return self.c0 - 2.0 * abs(self.c1)
        return self.c0 + min(0.0, self.c1)

    def diag_argmin(self) -> float:
        """A point r in [0, 1) with a(r, r) = a_inf (closed form per variant)."""
        if self.kind == "cos_sum" and self.c1 > 0:
            return 0.5
        if self.kind == "cos_prod" and self.c1 > 0:
            return 0.25
        return 0.0

    def eval(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "constant":
            out = np.broadcast_to(self.c0, np.broadcast_shapes(x.shape, y.shape)).copy()
        elif self.kind == "cos_sum":
            out = self.c0 + self.c1 * (np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y))
        else:
            out = self.c0 + self.c1 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
        return out if out.ndim else float(out)

    def row_mean(self, x, scale: float = 1.0):
        """One-period mean of y -> a(x/scale, y/scale) at fixed x.

        Used by tail corrections, where the far variable sweeps many kernel
        periods.
        """
        x = np.asarray(x, dtype=float)
        if self.kind == "cos_sum":
            out = self.c0 + self.c1 * np.cos(2 * np.pi * x / scale)
        else:
            out = np.broadcast_to(float(self.c0), x.shape).copy()
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class EnergyParams:
    """Exponents and scales (k, s, eps, delta) of the eps/delta functional."""

    k: int
    s: float
    eps: float
    delta: float

    def __post_init__(self):
        if self.k not in (0, 1, 2):
            raise ValueError(f"k must be in {{0, 1, 2}}, got {self.k}")
        if not (0.0 < self.s < 1.0):
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        if self.k + self.s <= 0.5 or (self.k == 0 and self.s == 0.5):
            raise ValueError(
                f"(k, s) = ({self.k}, {self.s}) is excluded: need k + s > 1/2 and"
                " (k, s) != (0, 1/2)"
            )
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be positive, got {self.delta}")


def _pair_weights(grid: UniformGrid, s: float) -> np.ndarray:
    """Kernel-free pair weights h^2 |x_i - x_j|^{-(1+2s)} by offset |i - j|.

    On a uniform grid the weight depends only on the offset, so one read-only
    row is returned; entry 0, the excluded diagonal, is zero.
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    h = grid.h
    d = np.arange(grid.n_nodes, dtype=float)
    d[0] = 1.0  # placeholder; the diagonal is excluded everywhere
    w = h * h * (d * h) ** (-(1.0 + 2.0 * s))
    w[0] = 0.0
    w.flags.writeable = False
    return w


def _trapezoid(grid: UniformGrid) -> np.ndarray:
    t = np.full(grid.n_nodes, grid.h)
    t[0] *= 0.5
    t[-1] *= 0.5
    return t


class _PairForm:
    """Quadratic form  g -> sum_{i != j} A_ij (g_i - g_j)^2  with
    A_ij = W_|i-j| a(x_i / scale, x_j / scale), applied without forming A.

    W g is the head of a circular convolution with W's circulant symbol, of
    length L = 2^a, 3 2^a or 5 2^a >= 2N - 2 (lag N - 1 occurs only once).
    With t = cos(2 pi x / scale), constant: A g = c0 W g;  cos_sum: c0 W g +
    c1 (t o W g + W (t o g));  cos_prod: c0 W g + c1 t o W (t o g);  one
    batched FFT covers [g, t o g].  The value is 2 g' . (diag(row) - A) g'
    with g' the mean-centered vector, so constants evaluate to exactly zero.
    Row sums come from the same path as A @ g, so the gradient vanishes
    exactly on pure +-1 phases.
    """

    def __init__(self, offset_weights: np.ndarray, kspec: KernelSpec | None,
                 x: np.ndarray, scale: float):
        n = offset_weights.size
        self._n, self._len = n, min(p << ((2 * n - 3) // p).bit_length() for p in (1, 3, 5))
        col = np.zeros(self._len)
        col[:n] = offset_weights
        col[self._len - n + 1:] = offset_weights[:0:-1]
        self._symbol = np.fft.rfft(col).real  # symmetric column: real symbol
        self._kspec = kspec or KernelSpec.constant(1.0)
        if self._kspec.kind != "constant":
            self._t = np.cos(2 * np.pi * x / scale)
        self.row = self.apply(np.ones(n))

    def _w_product(self, g: np.ndarray) -> np.ndarray:
        spectrum = np.fft.rfft(g, self._len) * self._symbol
        return np.fft.irfft(spectrum, self._len)[..., :self._n]

    def apply(self, g: np.ndarray) -> np.ndarray:
        """A @ g."""
        c0, c1 = self._kspec.c0, self._kspec.c1
        if self._kspec.kind == "constant":
            return c0 * self._w_product(g)
        t = self._t
        wg, wtg = self._w_product(np.stack([g, t * g]))
        if self._kspec.kind == "cos_sum":
            return c0 * wg + c1 * (t * wg + wtg)
        return c0 * wg + c1 * (t * wtg)

    def value(self, g: np.ndarray) -> float:
        gc = g - g.mean()
        # cos_sum needs one transform, not two: W symmetric, g . W(t g) = (t g) . W g
        if self._kspec.kind == "cos_sum":
            wg = self._w_product(gc)
            quad = self._kspec.c0 * (gc @ wg) + 2.0 * self._kspec.c1 * ((self._t * gc) @ wg)
        else:
            quad = gc @ self.apply(gc)
        return max(2.0 * float(self.row @ (gc * gc) - quad), 0.0)

    def grad(self, g: np.ndarray) -> np.ndarray:
        return 4.0 * (self.row * g - self.apply(g))


def _dst1(x: np.ndarray) -> np.ndarray:
    """Unnormalized DST-I, y_l = sum_n x_n sin(pi (n+1) (l+1) / (m+1)), as the
    imaginary part of an rfft of the odd extension [0, x, 0, -reversed(x)].
    Applied twice it multiplies by (m+1)/2."""
    m = x.size
    ext = np.zeros(2 * (m + 1))
    ext[1:m + 1] = x
    ext[m + 2:] = -x[::-1]
    return -0.5 * np.fft.rfft(ext)[1:m + 1].imag


def _cross_tail_constant(kspec: KernelSpec | None, s: float, T_out: float) -> float:
    """Closed-form interaction of the two opposite-sign exterior tails over
    ordered pairs: 8 * a_bar * (2 T_out)^{1-2s} / (2s (2s - 1)).  Requires
    s > 1/2."""
    if s <= 0.5:
        raise ValueError(f"the cross-tail integral needs s > 1/2, got s={s}")
    a_bar = 1.0 if kspec is None else kspec.a_bar
    return 8.0 * a_bar * (2.0 * T_out) ** (1.0 - 2.0 * s) / (2.0 * s * (2.0 * s - 1.0))


class DiscreteEnergy:
    """Energy/gradient evaluator for repeated calls on one grid.

    Precomputes the matrix-free pair operator, the difference stencils, the
    trapezoid weights, and (optionally) the tail coefficients, so a
    minimization loop costs one batched FFT product, O(N log N), per energy
    or gradient call.  ``preconditioner`` returns the inverse of the
    energy's constant-coefficient Hessian at a pure phase, applied by fast
    sine transforms on the free nodes, for preconditioned descent.

    ``well_coef`` and ``nonlocal_coef`` select the functional: (1/eps,
    eps^{2(k+s)-1}) gives the eps/delta form, (1, 1) the rescaled form, and
    ``well_coef=0`` the nonlocal term alone.  ``tail_signs`` = (left, right)
    adds the interactions with the +-1 exterior beyond a grid spanning
    (-T_out, T_out); each interior node contributes, over ordered pairs,
    2 h rho(x_i) [(T_out - x_i)^{-2s} + (T_out + x_i)^{-2s}] / (2s) times
    |g_i|^2 for k >= 1, or times the per-side |u_i - sign|^2 for k = 0 (which
    needs s > 1/2), plus the cross-tail constant when the signs differ.
    Difference stencils act in exactly representable units and h^-k is
    applied after the sparse product, so pure phases +-1 have exactly zero
    energy and gradient for every k and grid.
    """

    def __init__(self, grid: UniformGrid, k: int, s: float, well: DoubleWell,
                 kspec: KernelSpec | None = None, kernel_scale: float = 1.0,
                 well_coef: float = 1.0, nonlocal_coef: float = 1.0,
                 tail_signs=None):
        if grid.n_nodes < 2 * k + 3:
            raise ValueError(
                f"grid has {grid.n_nodes} nodes; k={k} energies need at least {2 * k + 3}"
            )
        self.grid = grid
        self.k = int(k)
        self.s = float(s)
        self.well = well
        self.well_coef = float(well_coef)
        self.nonlocal_coef = float(nonlocal_coef)
        self._trap = _trapezoid(grid) * self.well_coef
        if self.k:
            self._stencil = _stencil_matrix(grid.n_nodes, self.k)
            self._stencilT = self._stencil.T.tocsr()
            self._h_k = grid.h ** -self.k
        x = grid.nodes()
        self._weights = _pair_weights(grid, s)
        self._a_bar = 1.0 if kspec is None else kspec.a_bar
        self._form = _PairForm(self._weights, kspec, x, kernel_scale)

        self._tail_signs = tail_signs
        if tail_signs is not None:
            T_out = grid.x_hi
            if grid.x_lo != -T_out:
                raise ValueError(
                    f"the exterior tail needs a grid symmetric about 0, got ({grid.x_lo}, {T_out})"
                )
            if not set(tail_signs) <= {-1, 1}:
                raise ValueError(f"tail signs must be +-1, got {tail_signs}")
            if k == 0 and s <= 0.5:
                raise ValueError(f"tail correction with k=0 needs s > 1/2, got s={s}")
            xi = x[1:-1]
            rho = 1.0 if kspec is None else kspec.row_mean(xi, kernel_scale)
            h = grid.h
            self._c_right = 2.0 * h * rho * (T_out - xi) ** (-2.0 * s) / (2.0 * s)
            self._c_left = 2.0 * h * rho * (T_out + xi) ** (-2.0 * s) / (2.0 * s)
            self._c_sum = self._c_right + self._c_left
            sl, sr = tail_signs
            self._cross = (
                _cross_tail_constant(kspec, s, T_out) if (k == 0 and sl != sr) else 0.0
            )

    def _difference(self, values: np.ndarray) -> np.ndarray:
        return (self._stencil @ values) * self._h_k if self.k else values

    def _tail_energy(self, values: np.ndarray, g: np.ndarray) -> float:
        """The exterior tail term, before ``nonlocal_coef``; g = k-th difference."""
        if self.k >= 1:
            gi = g[1:-1]
            return float((gi * gi) @ self._c_sum)
        sl, sr = self._tail_signs
        u = values[1:-1]
        return float((u - sr) ** 2 @ self._c_right + (u - sl) ** 2 @ self._c_left) + self._cross

    def energy(self, values: np.ndarray) -> float:
        total = float(self._trap @ self.well.value(values))
        g = self._difference(values)
        total += self.nonlocal_coef * self._form.value(g)
        if self._tail_signs is not None:
            total += self.nonlocal_coef * self._tail_energy(values, g)
        return total

    def gradient(self, values: np.ndarray) -> np.ndarray:
        g = self._difference(values)
        inner = self._form.grad(g)
        if self._tail_signs is not None and self.k >= 1:
            inner[1:-1] += 2.0 * self._c_sum * g[1:-1]
        grad = self._trap * self.well.deriv(values)
        grad += self.nonlocal_coef * ((self._stencilT @ inner) * self._h_k if self.k else inner)
        if self._tail_signs is not None and self.k == 0:
            sl, sr = self._tail_signs
            u = values[1:-1]
            grad[1:-1] += self.nonlocal_coef * 2.0 * (
                self._c_right * (u - sr) + self._c_left * (u - sl)
            )
        return grad

    def preconditioner(self, free_mask: np.ndarray):
        """P^-1 as a callable g -> P^-1 g, zero wherever ``free_mask`` is false.

        On each contiguous block of m free nodes, P is diagonal in the sine
        modes sin(i theta_l), theta_l = l pi/(m+1), with the symbol of the
        energy's Hessian at a pure phase (kernel replaced by its mean a_bar)
        as eigenvalues:

            nonlocal_coef 8 a_bar sum_j w_j (1 - cos j theta_l) |D_k(theta_l)|^2
            + 8 h well_coef,

        where w_j are the pair weights, |D_1|^2 = sin^2 theta / h^2,
        |D_2|^2 = (2 - 2 cos theta)^2 / h^4, and 8 = W''(+-1) at chi = 0
        (the sine-transform form of Chan's circulant preconditioner).  The
        sum over j is one rfft of w folded modulo 2(m+1), so the set-up
        costs O(N + m log m) and each application two DST-Is per block.  For
        k = 2, P also carries the block's boundary rows (``_block_solve``).
        P is symmetric positive definite on the free nodes.
        """
        free = np.asarray(free_mask, dtype=bool)
        edges = np.flatnonzero(np.diff(np.concatenate(([False], free, [False])).astype(np.int8)))
        blocks = list(zip(edges[::2], edges[1::2]))
        inverse = {m: self._inverse_symbol(m) for m in {b - a for a, b in blocks}}
        solves = [(a, b, self._block_solve(a, b, inverse[b - a])) for a, b in blocks]

        def apply(g: np.ndarray) -> np.ndarray:
            d = np.zeros_like(g)
            for a, b, solve in solves:
                d[a:b] = solve(g[a:b])
            return d

        return apply

    def _block_solve(self, a: int, b: int, inverse: np.ndarray):
        """P^-1 on the free block [a, b).

        For k = 2 the sine basis extends the block oddly about its clamped
        neighbours, where the second difference then vanishes; the energy's
        does not.  The terms 4 row_q (D u)_q^2 of the rows q outside the
        block that D couples to it (two for an interior block) are added to
        P as a low-rank update, inverted by the Sherman-Morrison-Woodbury
        formula; without it P^-1 H keeps two eigenvalues growing like N^2.
        """
        def sine_solve(r):
            return _dst1(inverse * _dst1(r))

        if self.k != 2:
            return sine_solve
        rows = np.setdiff1d(self._stencil[:, a:b].nonzero()[0], np.arange(a, b))
        if not rows.size:
            return sine_solve
        U = self._stencil[rows, a:b].toarray().T * self._h_k
        z = np.column_stack([sine_solve(col) for col in U.T])
        coef = 4.0 * self.nonlocal_coef * self._form.row[rows]
        core = np.linalg.inv(np.diag(1.0 / coef) + U.T @ z)

        def solve(r):
            y = sine_solve(r)
            return y - z @ (core @ (U.T @ y))

        return solve

    def _inverse_symbol(self, m: int) -> np.ndarray:
        """2 / ((m+1) lambda_l), l = 1..m: the DST-I normalization folded in."""
        period = 2 * (m + 1)
        w = self._weights
        folded = np.bincount(np.arange(w.size) % period, weights=w, minlength=period)
        sym = np.maximum(w.sum() - np.fft.rfft(folded)[1:m + 1].real, 0.0)
        theta = np.arange(1, m + 1) * (np.pi / (m + 1))
        h = self.grid.h
        if self.k == 1:
            sym *= np.sin(theta) ** 2 / h ** 2
        elif self.k == 2:
            sym *= (2.0 - 2.0 * np.cos(theta)) ** 2 / h ** 4
        lam = self.nonlocal_coef * 8.0 * self._a_bar * sym + 8.0 * h * self.well_coef
        return 2.0 / ((m + 1) * lam)


def eval_F(p: GridProfile, params: EnergyParams, well: DoubleWell,
           kspec: KernelSpec | None) -> float:
    """One-shot value of the eps/delta functional on the profile's interval
    (no exterior tail); repeated calls on one grid should reuse a
    ``DiscreteEnergy``."""
    k, s, eps = params.k, params.s, params.eps
    return DiscreteEnergy(
        p.grid, k, s, well, kspec=kspec, kernel_scale=params.delta,
        well_coef=1.0 / eps, nonlocal_coef=eps ** (2.0 * (k + s) - 1.0),
    ).energy(p.values)
