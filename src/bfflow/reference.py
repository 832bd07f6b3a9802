"""Independent oracles for the linear dynamics.

The dense propagator assembles the linear generator from Kronecker products
of 1D difference matrices (a code path sharing nothing with the slicing
stencils) and exponentiates it by eigendecomposition, falling back to
scaling-and-squaring when the eigenbasis is ill-conditioned. The periodic
mode oracle evolves single Fourier modes by analytic 2x2 exponentials built
from the closed-form discrete symbols. Production runs are Dirichlet-only;
the periodic stencils below exist only for this module's test configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn
from .grid import Grid
from .physics import MediumMatrix, NonlinearityParams

__all__ = [
    "DensePropagator", "ModeSolution", "build_propagator",
    "periodic_mode_solution", "periodic_linear_run",
    "periodic_mode_fields", "convergence_errors",
]

_SIZE_GUARD_PER_AXIS = {2: 8, 3: 6}


# ---------------------------------------------------------------------------
# dense matrices by Kronecker assembly (independent of the slicing stencils)
# ---------------------------------------------------------------------------

def _lap1d(n: int, h: float) -> np.ndarray:
    K = -2.0 * np.eye(n)
    idx = np.arange(n - 1)
    K[idx, idx + 1] = 1.0
    K[idx + 1, idx] = 1.0
    return K / (h * h)


def _central1d(n: int, h: float) -> np.ndarray:
    C = np.zeros((n, n))
    idx = np.arange(n - 1)
    C[idx, idx + 1] = 1.0 / (2.0 * h)
    C[idx + 1, idx] = -1.0 / (2.0 * h)
    return C


def _kron_chain(mats) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def dense_scalar_laplacian(grid: Grid) -> np.ndarray:
    n, h, d = grid.n, grid.h, grid.dim
    I = np.eye(n)
    K = _lap1d(n, h)
    total = np.zeros((grid.num_nodes, grid.num_nodes))
    for a in range(d):
        total += _kron_chain([K if b == a else I for b in range(d)])
    return total


def dense_gradient(grid: Grid) -> np.ndarray:
    """(dim*N, N): stacked per-component central difference matrices."""
    n, h, d = grid.n, grid.h, grid.dim
    I = np.eye(n)
    C = _central1d(n, h)
    return np.vstack([_kron_chain([C if b == a else I for b in range(d)])
                      for a in range(d)])


def _expm_dense(M: np.ndarray, ntaylor: int = 18) -> np.ndarray:
    """Scaling-and-squaring with a truncated Taylor series (fallback path)."""
    norm = np.linalg.norm(M, 1)
    nsquare = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1)
    S = M / 2.0 ** nsquare
    E = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, ntaylor + 1):
        term = term @ S / k
        E = E + term
    for _ in range(nsquare):
        E = E @ E
    return E


@dataclass
class DensePropagator:
    """exp(t A) for the stacked linear (u, mean-zero p) unknowns."""

    grid: Grid
    D: MediumMatrix
    generator: np.ndarray
    basis: np.ndarray          # mean-zero reduction map for p
    eigenvalues: np.ndarray
    _eigvecs: np.ndarray | None
    _eigvecs_inv: np.ndarray | None
    used_fallback: bool

    def matrix_exp(self, t: float) -> np.ndarray:
        if self._eigvecs is not None:
            core = self._eigvecs * np.exp(self.eigenvalues * t)
            return (core @ self._eigvecs_inv).real
        return _expm_dense(self.generator * t)

    def apply(self, u0: np.ndarray, p0: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(u, p) at time t from (u0, p0); p0's mean is dropped."""
        z = self.matrix_exp(t) @ np.concatenate([u0.ravel(), self.basis.T @ p0.ravel()])
        k = u0.size
        return z[:k].reshape(u0.shape), (self.basis @ z[k:]).reshape(p0.shape)


def build_propagator(grid: Grid, D: MediumMatrix,
                     cond_limit: float = 1e8) -> DensePropagator:
    """Stack [[lap, -grad], [-P0 div D., 0]] on the mean-zero-p reduced space."""
    if grid.n > _SIZE_GUARD_PER_AXIS[grid.dim]:
        raise ValueError(
            f"dense propagator guarded to {_SIZE_GUARD_PER_AXIS[grid.dim]} "
            f"nodes per axis in {grid.dim}D")
    d, N = grid.dim, grid.num_nodes
    lap = dense_scalar_laplacian(grid)
    G = dense_gradient(grid)                       # (dN, N)
    Div = -G.T                                     # (N, dN)
    Dkron = np.kron(D.entries, np.eye(N))          # component-major mixing
    from .analysis import _mean_zero_basis
    Q = _mean_zero_basis(N)
    A = np.zeros((d * N + N - 1, d * N + N - 1))
    A[:d * N, :d * N] = np.kron(np.eye(d), lap)
    A[:d * N, d * N:] = -G @ Q
    A[d * N:, :d * N] = -Q.T @ Div @ Dkron
    vals, vecs = np.linalg.eig(A)
    used_fallback = False
    vecs_inv = None
    if np.linalg.cond(vecs) <= cond_limit:
        vecs_inv = np.linalg.inv(vecs)
    else:
        used_fallback = True
        vecs = None
    return DensePropagator(grid=grid, D=D, generator=A, basis=Q,
                           eigenvalues=vals, _eigvecs=vecs,
                           _eigvecs_inv=vecs_inv, used_fallback=used_fallback)


def convergence_errors(state: tuple[np.ndarray, np.ndarray], grid: Grid, D: MediumMatrix,
                       horizon: float, dts) -> list[float]:
    """Relative phase-space error at `horizon` of the unforced linear RK4 run
    from `state` = (u, p), one per step size in `dts`, against the dense
    propagator."""
    u_ref, p_ref = build_propagator(grid, D).apply(*state, horizon)
    den = np.sqrt(np.sum(u_ref ** 2) + np.sum(p_ref ** 2))
    errors = []
    for dt in dts:
        traj = dyn.simulate(state, grid, dyn.SolverConfig(dt=dt),
                            np.zeros((grid.dim,) + grid.shape), D,
                            NonlinearityParams(0.0, 0.0), horizon,
                            snapshot_every=int(round(horizon / dt)))
        u, p = traj.u[-1], traj.p[-1]
        num = np.sqrt(np.sum((u - u_ref) ** 2) + np.sum((p - p_ref) ** 2))
        errors.append(float(num / den))
    return errors


# ---------------------------------------------------------------------------
# periodic single-mode oracle (D = I)
# ---------------------------------------------------------------------------

def _periodic_symbols(k: tuple[int, ...], n: int) -> tuple[float, float]:
    """(lam, b): compact-Laplacian symbol and central div-grad symbol of the
    periodic mode exp(2 pi i k.x) on n nodes per axis, spacing 1/n."""
    h = 1.0 / n
    lam = sum(-4.0 * np.sin(np.pi * ka / n) ** 2 / (h * h) for ka in k)
    b = sum(np.sin(2.0 * np.pi * ka / n) ** 2 / (h * h) for ka in k)
    return float(lam), float(b)


@dataclass
class ModeSolution:
    """State of one periodic Fourier mode of the linear system.

    The potential pair (a, p) multiplies (gtilde sin(2 pi k.x), cos(2 pi k.x))
    and obeys a' = lam a + p, p' = -b a; the solenoidal amplitude rides the
    scalar heat factor exp(lam t).
    """

    k: tuple[int, ...]
    n: int
    potential_pair: np.ndarray
    solenoidal_amp: float
    t: float

    @property
    def symbols(self) -> tuple[float, float]:
        return _periodic_symbols(self.k, self.n)

    def oscillator_matrix(self) -> np.ndarray:
        lam, b = self.symbols
        return np.array([[lam, 1.0], [-b, 0.0]])


def _exp2x2(M: np.ndarray, t: float) -> np.ndarray:
    """Analytic exponential of a 2x2 matrix via its traceless split."""
    theta = 0.5 * (M[0, 0] + M[1, 1])
    B = M - theta * np.eye(2)
    disc = complex(B[0, 0] ** 2 + B[0, 1] * B[1, 0])
    delta = np.sqrt(disc)
    if abs(delta) < 1e-14:
        core = np.eye(2) + t * B
    else:
        core = np.cosh(delta * t) * np.eye(2) + (np.sinh(delta * t) / delta) * B
    return (np.exp(theta * t) * core).real


def periodic_mode_solution(k: tuple[int, ...], init: ModeSolution | tuple,
                           t: float, n: int = 16) -> ModeSolution:
    """Closed-form state at time t of the periodic mode k (D = I assumed)."""
    if isinstance(init, ModeSolution):
        pair0 = np.asarray(init.potential_pair, dtype=float)
        sol0 = init.solenoidal_amp
        n = init.n
    else:
        pair0 = np.asarray(init, dtype=float)
        sol0 = 0.0
    if all(ka % n == 0 for ka in k):
        # mean mode: p constant (excluded by mean-zero), u unaffected
        return ModeSolution(k, n, pair0.copy(), sol0, t)
    lam, _ = _periodic_symbols(k, n)
    M = ModeSolution(k, n, pair0, sol0, 0.0).oscillator_matrix()
    pair_t = _exp2x2(M, t) @ pair0
    return ModeSolution(k, n, pair_t, sol0 * float(np.exp(lam * t)), t)


def periodic_mode_fields(mode: ModeSolution, dim: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Sampled (u, p) fields of a potential-pair mode on the n^dim torus."""
    n = mode.n
    h = 1.0 / n
    x = np.arange(n) * h
    mesh = np.meshgrid(*([x] * dim), indexing="ij")
    phase = sum(2.0 * np.pi * ka * xa for ka, xa in zip(mode.k, mesh))
    gtilde = np.array([np.sin(2.0 * np.pi * ka / n) / h for ka in mode.k])
    a, p_amp = mode.potential_pair
    u = np.stack([a * ga * np.sin(phase) for ga in gtilde])
    p = p_amp * np.cos(phase)
    return u, p


# ---------------------------------------------------------------------------
# periodic test stepper (test-only configuration of the dynamics integrator)
# ---------------------------------------------------------------------------

def _proll(a: np.ndarray, dim: int, axis: int, off: int) -> np.ndarray:
    return np.roll(a, off, axis=a.ndim - dim + axis)


def _pgrad(p: np.ndarray, h: float, dim: int) -> np.ndarray:
    return np.stack([(_proll(p, dim, a, -1) - _proll(p, dim, a, 1)) / (2.0 * h)
                     for a in range(dim)], axis=p.ndim - dim)


def _pdiv(U: np.ndarray, h: float, dim: int) -> np.ndarray:
    comp_ax = U.ndim - dim - 1
    out = np.zeros(U.shape[:comp_ax] + U.shape[comp_ax + 1:])
    for a in range(dim):
        Ua = np.take(U, a, axis=comp_ax)
        out += (_proll(Ua, dim, a, -1) - _proll(Ua, dim, a, 1)) / (2.0 * h)
    return out


def _plap(x: np.ndarray, h: float, dim: int) -> np.ndarray:
    out = -2.0 * dim * x
    for a in range(dim):
        out += _proll(x, dim, a, 1) + _proll(x, dim, a, -1)
    return out / (h * h)


def periodic_linear_run(u0: np.ndarray, p0: np.ndarray, n: int, dt: float,
                        t_max: float, dim: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """RK4 on the periodic linear system (D = I): the production integrator
    driven by periodic stencils; exists only for oracle comparisons."""
    h = 1.0 / n
    shapes, nu = (u0.shape, p0.shape), u0.size

    def rate(y):  # y: the flat state, u-block then p-block
        u, p = y[:nu].reshape(shapes[0]), y[nu:].reshape(shapes[1])
        return np.concatenate((_plap(u, h, dim) - _pgrad(p, h, dim), -_pdiv(u, h, dim)),
                              axis=None)

    steps = int(round(t_max / dt))
    _, (u, p) = dyn.integrate(
        np.concatenate((u0, p0), axis=None, dtype=float), shapes, dt, steps,
        dyn.rk4_stepper(rate, dt), dim, snapshots={steps})
    return u[0], p[0]

