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
  * each stencil is a Kronecker sum of 1D matrices along the grid axes: with
    S the neighbour sum (1 on both first off-diagonals) and C the central
    difference (+1 above the diagonal, -1 below), taken along axis a as S_a
    and C_a,
        lap x  = ((-2d x + S_0 x) + S_1 x [+ S_2 x]) / h^2,
        grad_a = C_a p / (2h),
        div U  = (C_0 U_0 + C_1 U_1 [+ C_2 U_2]) / (2h).
    Every entry of S_a x or C_a x adds exactly two nonzero terms with weight
    +-1, so a matrix product gives each exactly, in any summation order, and
    equal to the same terms read off a zero-padded copy. `_axis_products`
    applies every such 1D matrix, cached and read-only, as one stacked
    product per axis, and a batch gives each member what it gets alone. A
    product costs O(n) per node where a padded window costs O(1): one RK4 step
    measured within 4% of the windows or faster up to 2D n = 64 and 3D
    n = 32, and 1.3-1.6 times slower at 2D n = 128, a size no config runs.
  * n must be even: for odd n the central-difference gradient has a
    checkerboard kernel mode, which would break the pressure operator's
    positivity and the divergence right-inverse.

All stencil helpers act on the trailing `dim` axes, so arrays with extra
leading axes (field components, ensemble members) go through unchanged.
Each operator's product sequence is written once, here, as a private
function that runs the products and ufuncs into the arrays it is given, with
the lookup of its constants (per-axis products and scale factors, cached per
grid; component views) beside it. A public function looks them up and
runs the sequence at every call: with `out=` (and a scratch array where the
sequence needs one) into arrays the caller keeps, and without it into fresh
ones. A time stepper's kernel looks them up once and binds the sequence to
its own arrays. Every way gives the same bytes.
"""

from __future__ import annotations

import functools
import math
import operator
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

# per dim: the getter of an array's component views (the axis before the
# grid axes), and the grid axes themselves
_COMPONENTS = {d: operator.itemgetter(*((Ellipsis, a) + (slice(None),) * d for a in range(d)))
               for d in (2, 3)}
_GRID_AXES = {2: (-2, -1), 3: (-3, -2, -1)}


def _read_only(*mats: np.ndarray) -> tuple[np.ndarray, ...]:
    for M in mats:
        M.flags.writeable = False
    return mats


@functools.lru_cache(maxsize=None)
def _stencil_matrices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only 1D neighbour sum S and central difference C, and a copy of
    C's transpose, which multiplies the last grid axis from the right."""
    S = np.eye(n, k=1) + np.eye(n, k=-1)
    C = np.eye(n, k=1) - np.eye(n, k=-1)
    return _read_only(S, C, C.T.copy())


@functools.lru_cache(maxsize=None)
def _shift_matrices(n: int, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only 1D shift by `offset` nodes, T[i, i - offset] = 1, and a copy
    of its transpose."""
    T = np.eye(n, k=-offset)
    return _read_only(T, T.T.copy())


def _view(a: np.ndarray, shape: tuple) -> np.ndarray:
    """a reshaped to `shape` without a copy, so that what is written into the
    result lands in a; a ValueError where the reshape would have to copy (a
    view's base is a or a's own base, a copy's is the copy)."""
    view = a.reshape(shape)
    if view.base is not a and view.base is not a.base:
        raise ValueError(f"an array of shape {a.shape} and strides {a.strides} "
                         f"has no view of shape {shape}")
    return view


def _axis_products(M: np.ndarray, MT: np.ndarray, dim: int) -> tuple:
    """Per grid axis, in order, the product of M along it: product(a, out)
    returns out, out_i = sum_k M[i, k] a_k, by one stacked matrix product
    with no axis moved: M @ a on the second-to-last axis, a @ MT on the last
    (MT is M's transpose), and in 3D the first grid axis as the rows of an
    (n, n*n) view. Each leading index gets its own products. Into `out` (not
    a), allocated when None; in 3D its grid axes must allow the row view, or
    a ValueError is raised, so the product is never written into a copy."""
    def last(a, out):
        return np.matmul(a, MT, out)

    products = (functools.partial(np.matmul, M), last)
    if dim == 2:
        return products
    n = len(M)

    def first(a, out):
        out = np.empty(a.shape) if out is None else out
        rows = a.shape[:-3] + (n, -1)
        np.matmul(M, a.reshape(rows), _view(out, rows))
        return out
    return (first,) + products


@functools.lru_cache(maxsize=None)
def _stencil_products(n: int, dim: int) -> tuple[tuple, tuple]:
    """The per-axis products of S and of C (`_axis_products`)."""
    S, C, CT = _stencil_matrices(n)
    return _axis_products(S, S, dim), _axis_products(C, CT, dim)


def _shifted(a: np.ndarray, dim: int, axis: int, offset: int) -> np.ndarray:
    """a shifted by `offset` nodes along grid axis `axis`, zero-filled.

    out[..., i, ...] = a[..., i - offset, ...] with zero extension. The
    package no longer calls it (a central difference is one product with C);
    it stays while the benchmark's tracer names it as a layer boundary.
    """
    T, TT = _shift_matrices(a.shape[-1], offset)
    return _axis_products(T, TT, dim)[axis](a, None)


# Each operator is its sequence (`_lap`, ...) and the lookup of the
# sequence's constants (`_lap_constants`, ...), cached per grid. A sequence
# takes the arrays it writes into first, then the constants, and its input
# last, so that a kernel binds all but the input once,
# `functools.partial(_lap, out, scratch, *_lap_constants(n, h, dim))`.

def _lap(out, scratch, products, diagonal, scale, x):
    """((diagonal x + S_0 x) + S_1 x [+ S_2 x]) scale into `out`, each product
    into `scratch` (each allocated when None)."""
    out = np.multiply(x, diagonal, out=out)
    for product in products:
        out += product(x, scratch)
    out *= scale
    return out


@functools.lru_cache(maxsize=None)
def _lap_constants(n: int, h: float, dim: int) -> tuple:
    return _stencil_products(n, dim)[0], -2.0 * dim, 1.0 / (h * h)


def _grad(out, parts, products, scale, p):
    """C_a p into each component view `parts[a]` of `out`, then out scale."""
    for product, part in zip(products, parts):
        product(p, part)
    out *= scale
    return out


def _div(out, scratch, products, scale, parts):
    """(C_0 U_0 + C_1 U_1 [+ C_2 U_2]) scale into `out` (allocated when
    None), from the component views `parts` of U, the products after the
    first into `scratch`."""
    pairs = zip(products, parts)
    product, part = next(pairs)
    out = product(part, out)
    for product, part in pairs:
        out += product(part, scratch)
    out *= scale
    return out


@functools.lru_cache(maxsize=None)
def _difference_constants(n: int, h: float, dim: int) -> tuple:
    """The constants of `_grad` and `_div` after the component views."""
    return _stencil_products(n, dim)[1], 1.0 / (2.0 * h)


def grad_array(p: np.ndarray, h: float, dim: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """Central gradient; output gains a component axis before the grid axes.
    Into `out` if given (not p)."""
    if out is None:
        out = np.empty(p.shape[:-dim] + (dim,) + p.shape[-dim:], dtype=p.dtype)
    return _grad(out, _COMPONENTS[dim](out), *_difference_constants(p.shape[-1], h, dim), p)


def div_array(U: np.ndarray, h: float, dim: int, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """Central divergence; consumes the component axis preceding the grid
    axes. Into `out` if given, with the products after the first in
    `scratch` if given (both of the output's shape, neither in U)."""
    if out is None:
        out = np.empty(U.shape[:-dim - 1] + U.shape[-dim:], dtype=U.dtype)
    return _div(out, scratch, *_difference_constants(U.shape[-1], h, dim),
                _COMPONENTS[dim](U))


def lap_array(x: np.ndarray, h: float, dim: int, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """Compact Dirichlet Laplacian, applied over the trailing grid axes. Into
    `out` if given, with each product in `scratch` if given (both of x's
    shape, neither x)."""
    return _lap(out, scratch, *_lap_constants(x.shape[-1], h, dim), x)


# ---------------------------------------------------------------------------
# inner products and means
# ---------------------------------------------------------------------------

def inner(a: np.ndarray, b: np.ndarray, grid: Grid) -> float:
    """h^d-weighted inner product of two arrays of one shape."""
    return float(grid.cell_volume * np.vdot(a, b))


def norm_l2(a: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(grid.cell_volume * np.vdot(a, a)))


def weighted_inner(D, U: np.ndarray, V: np.ndarray, grid: Grid) -> float:
    """h^d * sum over nodes of (D u) . v for a physics.MediumMatrix D."""
    mat, d = D.entries, grid.dim
    if mat.shape != (d, d):
        raise ValueError(f"D must be {d}x{d}, got {mat.shape}")
    DU = np.einsum("ab,b...->a...", mat, U)
    return float(grid.cell_volume * np.vdot(DU, V))


def _mean_project(out, mean, axes, p):
    """p less its mean over the grid `axes` (`_GRID_AXES[dim]`), into `out`
    (p itself allowed), the mean into `mean` (each allocated when None)."""
    # the sum-then-divide of ndarray.mean, without its Python wrapper
    mean = np.add.reduce(p, axis=axes, keepdims=True, out=mean, dtype=float)
    mean /= p.size / mean.size  # the nodes per field, as a float
    return np.subtract(p, mean, out=out)


def mean_project_array(p: np.ndarray, dim: int, out: np.ndarray | None = None,
                       mean: np.ndarray | None = None) -> np.ndarray:
    """Subtract the grid mean over the trailing `dim` axes (batch-safe). Into
    `out` if given (p itself allowed), and the mean into `mean` if given, of
    p's shape with each grid axis of length 1."""
    return _mean_project(out, mean, _GRID_AXES[dim], p)


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


@functools.lru_cache(maxsize=None)
def _dst_products(n: int, dim: int) -> tuple:
    """The per-axis products (`_axis_products`) of the DST-I matrix."""
    S = _dst1_matrix(n)
    return _axis_products(S, S, dim)


def _dst(targets, products, a):
    """DST-I over the grid axes, one axis after the other, each product into
    the next of `targets`."""
    for product, target in zip(products, targets):
        a = product(a, target)
    return a


def _dst_all_axes(a: np.ndarray, dim: int, out: np.ndarray | None = None,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """DST-I over the trailing `dim` axes, one grid axis after the other, into
    `out` (both float arrays of a's shape, allocated when not given): in 3D
    the first axis's product goes into `out`, then the next into `scratch`
    and the last into `out`. So a may be `out` in 2D and `scratch` in 3D."""
    out = np.empty(a.shape) if out is None else out
    scratch = np.empty(a.shape) if scratch is None else scratch
    return _dst((out, scratch, out)[-dim:], _dst_products(a.shape[-1], dim), a)


def _sine_scales(grid: Grid) -> tuple[float, float]:
    """The factors that make the DST-I the sine coefficients and the sine
    synthesis."""
    return (grid.h / math.sqrt(2.0)) ** grid.dim, (1.0 / math.sqrt(2.0)) ** grid.dim


def sine_coefficients_array(values: np.ndarray, grid: Grid, out: np.ndarray | None = None,
                            scratch: np.ndarray | None = None) -> np.ndarray:
    """The sine coefficients of `values`, into `out` as `_dst_all_axes`."""
    c = _dst_all_axes(values, grid.dim, out, scratch)
    c *= _sine_scales(grid)[0]
    return c


def sine_synthesis_array(coeffs: np.ndarray, grid: Grid, out: np.ndarray | None = None,
                         scratch: np.ndarray | None = None) -> np.ndarray:
    """The field of the sine coefficients `coeffs`, into `out` as
    `_dst_all_axes`."""
    x = _dst_all_axes(coeffs, grid.dim, out, scratch)
    x *= _sine_scales(grid)[1]
    return x


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


def _poisson(coefficient_targets, synthesis_targets, products, scales, eigenvalues, b):
    """The sine coefficients of b divided by `eigenvalues`, synthesized: each
    transform's products go into its targets, and the synthesis starts
    where the coefficients end."""
    c = _dst(coefficient_targets, products, b)
    c *= scales[0]
    c /= eigenvalues
    x = _dst(synthesis_targets, products, c)
    x *= scales[1]
    return x


def _poisson_constants(grid: Grid, out: np.ndarray, scratch: np.ndarray) -> tuple:
    # the coefficients end in `out` in 2D and in `scratch` in 3D, where the
    # synthesis, ending in `out`, can start from them
    dim = grid.dim
    return ((scratch, out, scratch)[:dim], (out, scratch, out)[-dim:],
            _dst_products(grid.n, dim), _sine_scales(grid))


def poisson_solve_array(b: np.ndarray, grid: Grid, shift: float = 0.0,
                        out: np.ndarray | None = None,
                        scratch: np.ndarray | None = None) -> np.ndarray:
    """Solve (-lap + shift) x = b over the trailing grid axes.

    The compact Dirichlet Laplacian is diagonal in the sine basis, so its
    shifted inverse is one transform pair (the fast Poisson solver); leading
    component and batch axes pass through. Needs shift > -lambda_min. Into
    `out` if given, with `scratch` if given (both float arrays of b's shape,
    neither b).
    """
    out = np.empty(b.shape) if out is None else out
    scratch = np.empty(b.shape) if scratch is None else scratch
    return _poisson(*_poisson_constants(grid, out, scratch), _shifted_eigenvalues(grid, shift), b)


@functools.lru_cache(maxsize=16)
def _shifted_eigenvalues(grid: Grid, shift: float) -> np.ndarray:
    """laplacian_eigenvalues(grid) + shift, cached (read-only): a run's
    preconditioner divides by the same array at every call."""
    lam = laplacian_eigenvalues(grid) + shift
    lam.flags.writeable = False
    return lam


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
