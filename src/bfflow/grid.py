"""Discrete calculus on a uniform interior grid over the unit square/cube.

Conventions:
  * Interior nodes x_i = i*h, i = 1..n per axis, h = 1/(n+1); fields carry
    values on interior nodes only and are treated as zero outside them
    (homogeneous Dirichlet for velocities, plain zero extension otherwise).
  * grad/div are central second-order differences and are exact negative
    adjoints of each other under the h^d-weighted inner product.
  * the Laplacian is the compact 5-point (2D) / 7-point (3D) stencil, whose
    eigenvectors are exactly the sampled sine modes; all fractional norms
    are defined spectrally through that sine eigenbasis.
  * n must be even: for odd n the central-difference gradient has a
    checkerboard kernel mode, which would break the pressure operator's
    positivity and the divergence right-inverse.

All stencil helpers act on the trailing `dim` axes, so arrays with extra
leading axes (field components, ensemble members) go through unchanged.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid", "grad_array", "div_array", "lap_array", "weighted_inner",
    "mean_project_array", "inner", "norm_l2", "sine_coefficients_array",
    "sine_synthesis_array", "spectral_norm", "laplacian_eigenvalues",
    "poisson_solve_array", "sine_mode", "coordinates",
]


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n^dim interior nodes on the unit box."""

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 4:
            raise ValueError(f"need n >= 4 interior nodes per axis, got {self.n}")
        if self.n % 2 != 0:
            raise ValueError(
                f"n must be even (odd n gives the central-difference gradient "
                f"a checkerboard kernel), got {self.n}")
        if self.h * (self.n + 1) != 1.0:
            raise ValueError(
                f"h*(n+1) != 1 in double precision for n={self.n}; "
                f"choose a neighbouring size")

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def num_nodes(self) -> int:
        return self.n ** self.dim

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim


def coordinates(grid: Grid) -> tuple[np.ndarray, ...]:
    """Mesh arrays of the interior node coordinates, shape grid.shape each."""
    axis = (np.arange(1, grid.n + 1) * grid.h)
    return tuple(np.meshgrid(*([axis] * grid.dim), indexing="ij"))


# ---------------------------------------------------------------------------
# stencils (array level, trailing-axes convention)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _window(dim: int, axis: int, offset: int, component: int | None = None) -> tuple:
    """Ellipsis-led index of the interior-sized window of a padded array,
    shifted by `offset` in {-1, 0, 1} nodes along grid axis `axis`; with a
    `component`, it also picks that entry of the axis before the grid axes."""
    grid_axes = tuple(slice(1 + offset, -1 + offset or None) if a == axis
                      else slice(1, -1) for a in range(dim))
    lead = () if component is None else (component,)
    return (Ellipsis,) + lead + grid_axes


@functools.lru_cache(maxsize=None)
def _component(dim: int, a: int) -> tuple:
    """Ellipsis-led index of component `a` of the axis before the grid axes."""
    return (Ellipsis, a) + (slice(None),) * dim


def _padded(a: np.ndarray, dim: int) -> np.ndarray:
    """Copy of `a` with one zero ghost node around each trailing grid axis."""
    shape = a.shape[:-dim] + tuple(s + 2 for s in a.shape[-dim:])
    b = np.zeros(shape, dtype=a.dtype)
    b[_window(dim, 0, 0)] = a
    return b


def _shifted(a: np.ndarray, dim: int, axis: int, offset: int) -> np.ndarray:
    """a shifted by `offset` nodes along grid axis `axis`, zero-filled.

    out[..., i, ...] = a[..., i - offset, ...] with zero extension.
    """
    return _padded(a, dim)[_window(dim, axis, -offset)].copy()


# Each stencil's arithmetic is one kernel: it reads a padded input `b` with
# zero ghosts (`_padded`, or a buffer the caller owns and refills) and writes
# into `out`, which it returns.

def _grad_into(b: np.ndarray, h: float, dim: int, out: np.ndarray) -> np.ndarray:
    for a in range(dim):
        np.subtract(b[_window(dim, a, 1)], b[_window(dim, a, -1)],
                    out=out[_component(dim, a)])
    out *= 1.0 / (2.0 * h)
    return out


def _div_into(b: np.ndarray, h: float, dim: int, out: np.ndarray) -> np.ndarray:
    np.subtract(b[_window(dim, 0, 1, 0)], b[_window(dim, 0, -1, 0)], out=out)
    for a in range(1, dim):
        out += b[_window(dim, a, 1, a)] - b[_window(dim, a, -1, a)]
    out *= 1.0 / (2.0 * h)
    return out


def _lap_into(b: np.ndarray, x: np.ndarray, h: float, dim: int,
              out: np.ndarray) -> np.ndarray:
    """`x` is the interior of `b`."""
    np.multiply(x, -2.0 * dim, out=out)
    for a in range(dim):
        out += b[_window(dim, a, 1)]
        out += b[_window(dim, a, -1)]
    out *= 1.0 / (h * h)
    return out


def grad_array(p: np.ndarray, h: float, dim: int) -> np.ndarray:
    """Central gradient; output gains a component axis before the grid axes."""
    out = np.empty(p.shape[:-dim] + (dim,) + p.shape[-dim:], dtype=p.dtype)
    return _grad_into(_padded(p, dim), h, dim, out)


def div_array(U: np.ndarray, h: float, dim: int) -> np.ndarray:
    """Central divergence; consumes the component axis preceding the grid axes."""
    out = np.empty(U.shape[:-dim - 1] + U.shape[-dim:], dtype=U.dtype)
    return _div_into(_padded(U, dim), h, dim, out)


def lap_array(x: np.ndarray, h: float, dim: int) -> np.ndarray:
    """Compact Dirichlet Laplacian, applied over the trailing grid axes."""
    return _lap_into(_padded(x, dim), x, h, dim, np.empty_like(x))


# ---------------------------------------------------------------------------
# inner products and means
# ---------------------------------------------------------------------------

def inner(a: np.ndarray, b: np.ndarray, grid: Grid) -> float:
    """h^d-weighted inner product of two arrays of one shape."""
    return float(grid.cell_volume * np.vdot(a, b))


def norm_l2(a: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(grid.cell_volume * np.vdot(a, a)))


def weighted_inner(D, U: np.ndarray, V: np.ndarray, grid: Grid) -> float:
    """h^d * sum over nodes of (D u) . v for a constant symmetric matrix D.

    Accepts a physics.MediumMatrix or a bare (dim, dim) array.
    """
    mat = np.asarray(getattr(D, "entries", D), dtype=float)
    d = grid.dim
    if mat.shape != (d, d):
        raise ValueError(f"D must be {d}x{d}, got {mat.shape}")
    DU = np.einsum("ab,b...->a...", mat, U)
    return float(grid.cell_volume * np.vdot(DU, V))


def mean_project_array(p: np.ndarray, dim: int, out: np.ndarray | None = None) -> np.ndarray:
    """Subtract the grid mean over the trailing `dim` axes (batch-safe),
    into `out` if given (which may be p)."""
    # the sum-then-divide of ndarray.mean, without its Python wrapper
    axes = (-3, -2, -1)[-dim:]
    count = math.prod(p.shape[-dim:])
    return np.subtract(p, np.add.reduce(p, axis=axes, keepdims=True) / count, out=out)


# ---------------------------------------------------------------------------
# sine eigenbasis: transforms, eigenvalues, fractional norms
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _dst1_matrix(n: int) -> np.ndarray:
    """Read-only DST-I matrix S[k, j] = 2 sin(pi k j/(n+1)), S @ S = 2(n+1) I;
    k j is reduced mod 2(n+1) first, so S is exactly symmetric."""
    k = np.arange(1, n + 1)
    S = 2.0 * np.sin(np.pi * (np.outer(k, k) % (2 * (n + 1))) / (n + 1))
    S.flags.writeable = False
    return S


def _dst_all_axes(a: np.ndarray, dim: int) -> np.ndarray:
    """DST-I over the trailing `dim` axes by stacked matrix products, with no
    axis moved: S @ a transforms the second-to-last axis, a @ S the last (S
    is symmetric), and in 3D the first grid axis goes first, as the rows of
    an (n, n*n) view. Each leading index gets its own products."""
    S = _dst1_matrix(a.shape[-1])
    if dim == 3:
        a = (S @ a.reshape(a.shape[:-3] + (len(S), -1))).reshape(a.shape)
    return (S @ a) @ S


def sine_coefficients_array(values: np.ndarray, grid: Grid) -> np.ndarray:
    scale = (grid.h / np.sqrt(2.0)) ** grid.dim
    return scale * _dst_all_axes(values, grid.dim)


def sine_synthesis_array(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    scale = (1.0 / np.sqrt(2.0)) ** grid.dim
    return scale * _dst_all_axes(coeffs, grid.dim)


@functools.lru_cache(maxsize=None)
def laplacian_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of -lap on the sine modes, indexed like a field array
    (cached per grid, read-only)."""
    h = grid.h
    k = np.arange(1, grid.n + 1)
    lam1 = (4.0 / (h * h)) * np.sin(k * np.pi * h / 2.0) ** 2
    lam = sum(np.ix_(*[lam1] * grid.dim))
    lam.flags.writeable = False
    return lam


def poisson_solve_array(b: np.ndarray, grid: Grid, shift: float = 0.0) -> np.ndarray:
    """Solve (-lap + shift) x = b over the trailing grid axes.

    The compact Dirichlet Laplacian is diagonal in the sine basis, so its
    shifted inverse is one transform pair (the fast Poisson solver); leading
    component and batch axes pass through. Needs shift > -lambda_min.
    """
    c = sine_coefficients_array(b, grid)
    return sine_synthesis_array(c / (laplacian_eigenvalues(grid) + shift), grid)


def spectral_norm(a: np.ndarray, grid: Grid, exponent: float) -> float:
    """sqrt(sum_k lambda_k^exponent c_k^2) over the components of `a` (one
    scalar array, or a component axis before the grid axes); exponent 0 is
    the plain L2 norm.

    Any real exponent is accepted: the fractional H^delta norms, delta in
    [0, 1], and the H^{1+delta} diagnostics alike.
    """
    lam = laplacian_eigenvalues(grid)
    total = 0.0
    for comp in a.reshape((-1,) + grid.shape):
        c = sine_coefficients_array(comp, grid)
        total += float(np.sum(lam ** exponent * c * c))
    return float(np.sqrt(total))


def sine_mode(grid: Grid, k: tuple[int, ...]) -> np.ndarray:
    """Sampled sine mode prod_a sqrt(2) sin(k_a pi x_a), of unit discrete L2
    norm."""
    if len(k) != grid.dim:
        raise ValueError("wave vector length must equal grid.dim")
    xs = coordinates(grid)
    vals = np.ones(grid.shape)
    for a, ka in enumerate(k):
        vals = vals * np.sin(ka * np.pi * xs[a])
    return vals * (np.sqrt(2.0) ** grid.dim)
