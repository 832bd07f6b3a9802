"""Constitutive content of the model.

Nonlinear drag f(u) = phi(|u|^2) u with phi(z) = alpha + beta z^l + gamma sqrt(z)
and its Jacobian, the constant symmetric positive definite medium matrix D, the
divergence right-inverse (minimum-seminorm realization) with the sampled
certificate of the perturbed energy functional, and the energy-preserving
convective term. Every field is a plain array on a `Grid` (a velocity has
its component axis before the grid axes, and leading batch axes pass
through); the forcing g is one fixed velocity-shaped array.

For every admissible parameter set phi is nonnegative and nondecreasing, so f
is monotone; the elliptic solves rely on this and add no shift.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import grid as gr
from .grid import Grid
from .krylov import conjugate_gradient

__all__ = [
    "NonlinearityParams", "MediumMatrix", "bogovski", "convective_array",
    "certify_eps",
]


@dataclass(frozen=True)
class NonlinearityParams:
    """Coefficients of phi(z) = alpha + beta z^l + gamma sqrt(z), z = |u|^2."""

    alpha: float
    beta: float
    gamma: float = 0.0
    l: float = 1.0

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError("alpha, beta, gamma must be nonnegative")
        if not 0.0 < self.l <= 2.0:
            raise ValueError(f"growth exponent l must lie in (0, 2], got {self.l}")

    def is_zero(self) -> bool:
        return self.alpha == 0.0 and self.beta == 0.0 and self.gamma == 0.0


@dataclass(frozen=True)
class MediumMatrix:
    """Constant symmetric positive definite medium matrix."""

    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("medium matrix must be square")
        if not np.isfinite(mat).all():
            raise ValueError("medium matrix must have finite entries")
        scale = max(1.0, float(np.abs(mat).max()))
        if np.abs(mat - mat.T).max() > 1e-14 * scale:
            raise ValueError("medium matrix must be symmetric (to 1e-14)")
        eigs = np.linalg.eigvalsh(mat)
        if eigs[0] <= 0:
            raise ValueError(f"medium matrix must be positive definite, eigmin={eigs[0]}")
        object.__setattr__(self, "_eigs", eigs)

    @classmethod
    def identity(cls, dim: int) -> "MediumMatrix":
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, diag) -> "MediumMatrix":
        return cls(np.diag(np.asarray(diag, dtype=float)))

    @property
    def eigmin(self) -> float:
        return float(self._eigs[0])

    @property
    def eigmax(self) -> float:
        return float(self._eigs[-1])

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def apply_array(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Matrix-vector product over the component axis preceding the grid
        axes (batch axes may precede it), as one product over the nodes of a
        (..., dim, nodes) view; into `out` (not u), allocated when not given,
        which must allow that view, or a ValueError is raised."""
        out = np.empty(u.shape) if out is None else out
        return _medium(*_medium_constants(self, u.shape, out), u)


# Each operator is a sequence and the lookup of its constants, as in `grid`:
# the arrays and constants come first and the input last, so a kernel binds
# them once.

def _medium(entries, nodes, out_nodes, out, u):
    """D u into `out`, through its (..., dim, nodes) view `out_nodes`."""
    np.matmul(entries, u.reshape(nodes), out=out_nodes)
    return out


def _medium_constants(D: MediumMatrix, shape: tuple[int, ...], out: np.ndarray) -> tuple:
    dim = len(D.entries)
    nodes = shape[:len(shape) - dim - 1] + (dim, -1)
    return D.entries, nodes, gr._view(out, nodes), out


# ---------------------------------------------------------------------------
# nonlinearity
# ---------------------------------------------------------------------------

def _phi_array(z: np.ndarray, p: NonlinearityParams) -> np.ndarray:
    """phi(z), into z's own array (a caller that reads z later passes a
    copy)."""
    root = p.gamma * np.sqrt(z) if p.gamma else None  # read before z is overwritten
    if p.beta:
        # beta z^l + alpha: the same rounded sum as alpha + beta z^l; raised in
        # place, z takes np.power's general loop, so l = 2 squares instead,
        # with the same bytes
        if p.l == 2.0:
            np.square(z, out=z)
        else:
            z **= p.l
        if p.beta != 1.0:  # times 1 leaves every entry as it is
            z *= p.beta
        z += p.alpha
    else:
        z.fill(p.alpha)
    if root is not None:
        z += root
    return z


def _f_apply(out, work, axis, params, u):
    """phi(|u|^2) u into `out`, |u|^2 and then phi(|u|^2) into `work` (each
    allocated when None); `axis` is u's component axis."""
    if params.is_zero():
        out.fill(0.0)
        return out
    z = np.add.reduce(np.multiply(u, u, out=out), axis=axis, keepdims=True, out=work)
    return np.multiply(_phi_array(z, params), u, out=out)


def f_apply_array(u: np.ndarray, params: NonlinearityParams, dim: int,
                  out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """phi(|u|^2) u, batch-safe over leading axes; into `out` (not u) if
    given, and with `work`, an array of u's shape but a component axis of
    length 1, |u|^2 and then phi(|u|^2) go into it."""
    out = np.empty_like(u) if out is None else out
    return _f_apply(out, work, u.ndim - dim - 1, params, u)


def _fprime_coefficients(u: np.ndarray, params: NonlinearityParams, dim: int):
    """The coefficients (phi(z), c) of f'(u), z = |u|^2, c = 2 phi'(z); c is
    None where phi is constant, and both are None for a vanishing drag.

    The phi' branch is masked at z = 0, where the rank-one term vanishes in
    the limit for every admissible exponent.
    """
    if params.is_zero():
        return None, None
    z = np.add.reduce(u * u, axis=u.ndim - dim - 1, keepdims=True)
    phi = _phi_array(z.copy(), params)
    if params.beta == 0.0 and params.gamma == 0.0:
        return phi, None
    zsafe = np.where(z > 0.0, z, 1.0)
    dphi = np.zeros_like(z)
    if params.beta:
        dphi += params.beta * params.l * zsafe ** (params.l - 1.0)
    if params.gamma:
        dphi += params.gamma / (2.0 * np.sqrt(zsafe))
    return phi, 2.0 * np.where(z > 0.0, dphi, 0.0)


def _fprime_apply(out, work, axis, coefficients, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """f'(u) v = phi v + (c (u.v)) u from `_fprime_coefficients(u, ...)`;
    into `out` (not u or v; allocated when None), and with `work`, a
    u-shaped array and one with a component axis of length 1 (or None), u.v
    and the rank-one term go into them; `axis` is u's component axis."""
    out = np.empty_like(v) if out is None else out
    phi, c = coefficients
    if phi is None:
        out.fill(0.0)
        return out
    np.multiply(phi, v, out=out)
    if c is None:
        return out
    tmp, s = (None, None) if work is None else work
    s = np.add.reduce(np.multiply(u, v, out=tmp), axis=axis, keepdims=True, out=s)
    s *= c
    out += np.multiply(s, u, out=tmp)
    return out


def fprime_apply_array(u: np.ndarray, v: np.ndarray,
                       params: NonlinearityParams, dim: int) -> np.ndarray:
    """Exact Jacobian action f'(u) v = phi(z) v + 2 phi'(z) (u.v) u, z = |u|^2."""
    return _fprime_apply(None, None, u.ndim - dim - 1,
                         _fprime_coefficients(u, params, dim), u, v)


# ---------------------------------------------------------------------------
# divergence right-inverse
# ---------------------------------------------------------------------------

def _a0_symbol_preconditioner(grid: Grid):
    """Approximate inverse of G^T (-lap)^-1 G in the sine basis.

    The wide central-difference symbol over the compact Laplacian symbol is
    the diagonal of that operator up to boundary coupling; dividing by it is
    an SPD preconditioner that tames the near-checkerboard pressure modes.
    """
    h = grid.h
    k = np.arange(1, grid.n + 1)
    wide1 = (np.sin(k * np.pi * h) / h) ** 2
    wide = np.zeros(grid.shape)
    for a in range(grid.dim):
        shape = [1] * grid.dim
        shape[a] = grid.n
        wide = wide + wide1.reshape(shape)
    symbol = wide / gr.laplacian_eigenvalues(grid)

    def apply(r: np.ndarray) -> np.ndarray:
        c = gr.sine_coefficients_array(r, grid)
        return gr.sine_synthesis_array(c / symbol, grid)

    return apply


def bogovski(p: np.ndarray, grid: Grid, rtol: float = 1e-10) -> np.ndarray:
    """Minimum-H1-seminorm right inverse of the divergence on mean-zero fields.

    Solves (G^T M G) s = -p with M the inverse Dirichlet vector Laplacian
    (applied directly in the sine basis) and returns w = M G s, so that
    div w = p to the conjugate-gradient tolerance and w carries the zero
    extension by construction. The CG is symbol-preconditioned; its residual
    is still measured against the true operator.
    """
    p0 = p - p.mean()
    scale = float(np.abs(p0).max())
    if scale > 0 and abs(p.mean()) > 1e-12 * scale:
        warnings.warn("bogovski input had nonzero mean; projected internally",
                      stacklevel=2)
    if scale == 0.0:
        return np.zeros((grid.dim,) + grid.shape)

    def apply_a0(s: np.ndarray) -> np.ndarray:
        w = gr.poisson_solve_array(gr.grad_array(s, grid.h, grid.dim), grid)
        return -gr.div_array(w, grid.h, grid.dim)

    s = conjugate_gradient(apply_a0, -p0, rtol=rtol,
                           precondition=_a0_symbol_preconditioner(grid))
    return gr.poisson_solve_array(gr.grad_array(s, grid.h, grid.dim), grid)


# ---------------------------------------------------------------------------
# perturbed energy functional
# ---------------------------------------------------------------------------

def certify_eps(grid: Grid, D: MediumMatrix, n_samples: int = 50,
                seed: int = 2024) -> float:
    """Largest eps keeping the perturbed energy within [1/2, 3/2] of the plain
    one over `n_samples` random states (sampled certificate)."""
    from .rng import SplitMix64
    rng = SplitMix64(seed)
    best = np.inf
    for _ in range(n_samples):
        u = rng.normal((grid.dim,) + grid.shape)
        p = gr.mean_project_array(rng.normal(grid.shape), grid.dim)
        e_plain = gr.weighted_inner(D, u, u, grid) + gr.inner(p, p, grid)
        coupling = gr.inner(u, bogovski(p, grid), grid)
        if coupling != 0.0:
            best = min(best, e_plain / (4.0 * abs(coupling)))
    return float(best)


# ---------------------------------------------------------------------------
# convective term
# ---------------------------------------------------------------------------

def convective_array(u: np.ndarray, v: np.ndarray, h: float, dim: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """B(u, v) = (u.grad) v + (1/2) div(u) v in the split central form
    (1/2)[(u.grad) v + grad.(u x v)], whose discrete pairing with v vanishes
    identically because the central difference matrix is antisymmetric;
    into `out` (neither u nor v) if given."""
    comp_ax = u.ndim - dim - 1
    out = np.empty_like(v) if out is None else out
    C = gr._stencil_products(u.shape[-1], dim)[1]
    for a in range(dim):
        va = np.take(v, a, axis=comp_ax)
        acc = np.zeros_like(va)
        for b in range(dim):
            ub = np.take(u, b, axis=comp_ax)
            # each central difference x_{i+1} - x_{i-1} is one product with C
            dva = C[b](va, None) / (2.0 * h)
            prod = ub * va
            dprod = C[b](prod, None) / (2.0 * h)
            acc += 0.5 * (ub * dva + dprod)
        idx = [slice(None)] * out.ndim
        idx[comp_ax] = a
        out[tuple(idx)] = acc
    return out
