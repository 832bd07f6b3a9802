"""Time integration of the full, truncated, and split systems.

The system is autonomous (g is one fixed field): a run starts at t = 0, step
k ends at k dt, and no right-hand side takes a time argument. Every run steps
through one loop, `integrate`, on a tuple-of-arrays state. The caller
supplies `advance(y)` (the run's `rk4_stepper`, or a semi-implicit step),
the pressure components to re-project to mean zero, and the steps to store,
which `snapshot_steps` derives before the loop: every m steps plus the last,
or the nearest step end to each target time. After every step the loop
re-projects those components in place, and it checks finiteness (at the
start too) and then the drift, the mean each projection removed; either
error names the step and, in a batch, the member. It stores each recorded
component as one array stacked over the stored steps. A state is the array
pair (u, p) on a `Grid` passed beside it, and a batch of runs is the same
pair with a leading member axis. The drivers (`simulate` and the
splittings) supply only a right-hand side and what to store. A splitting is
one run: the truncated run from p0 steps jointly with its parts, which are
checked to recombine to it at every stored time.

The full system evolves (u, p) by

    du/dt = lap u - grad p - f(u) - [B(u,u)] + g,
    dp/dt = -P0 div(D u),

where P0 is the mean projection: the discrete divergence of a zero-extended
field does not sum to zero exactly (boundary-layer artifact of the central
stencil), and projecting the pressure rate keeps the evolution on the
mean-zero manifold without disturbing the energy identity, because p itself
is mean-zero.

`simulate` takes the work integrals (dissipation, drag work, forcing work,
convective work) from each RK4 stage's own right-hand side, which records
them, and sums them with the RK4 weights (5th-order accurate per step) for
the energy audit; a step end's terms are those of the next step's stage 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import grid as gr
from . import physics as ph
from .grid import Grid
from .krylov import conjugate_gradient
from .physics import MediumMatrix, NonlinearityParams

__all__ = [
    "cfl_limit", "SolverConfig", "Trajectory", "SplitTrajectory",
    "ExpSplitTrajectory", "BlowUpError", "NewtonError", "RecombinationError",
    "simulate", "run_split", "run_exp_split", "run_bootstrap_split",
    "rk4_stepper", "snapshot_steps", "integrate",
]

RK4_WEIGHTS = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)
_NO_DRAG = NonlinearityParams(0.0, 0.0)  # for kernels of a linear system, with no drag arrays


class BlowUpError(RuntimeError):
    def __init__(self, step_count: int, t: float, member: int | None = None):
        message = f"solution lost finiteness at step {step_count} (t = {t:.6g})"
        if member is not None:
            message = f"ensemble member {member}: {message}"
        super().__init__(message)
        self.step_count = step_count
        self.t = t
        self.member = member


class NewtonError(RuntimeError):
    def __init__(self, history: list[float]):
        super().__init__(
            f"Newton iteration did not converge after {len(history) - 1} steps; "
            f"residual history {['%.3e' % r for r in history]}")
        self.history = history


class RecombinationError(RuntimeError):
    """The parts of a splitting do not add up to the run they split."""


def cfl_limit(grid: Grid, D: MediumMatrix) -> float:
    """The explicit RK4 step bound before the safety factor."""
    h = grid.h
    return min(h * h / (2.0 * grid.dim), h / np.sqrt(D.eigmax))


@dataclass
class SolverConfig:
    dt: float
    scheme: str = "rk4"
    newton_tol: float = 1e-10
    newton_max: int = 30
    cg_tol: float = 1e-12
    cfl_safety: float = 0.9

    def __post_init__(self):
        # cfl_safety first: a CFL step of 0 or less comes from a bad safety
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in ("rk4", "semi_implicit"):
            raise ValueError(f"unknown scheme {self.scheme!r}")

    def validate(self, grid: Grid, D: MediumMatrix):
        if self.scheme == "rk4":
            limit = self.cfl_safety * cfl_limit(grid, D)
            if self.dt > limit * (1.0 + 1e-12):
                raise ValueError(
                    f"dt = {self.dt:.3e} violates the rk4 CFL bound "
                    f"{limit:.3e} (cfl_safety = {self.cfl_safety})")


# ---------------------------------------------------------------------------
# the one time-stepping loop
# ---------------------------------------------------------------------------

def rk4_stepper(rhs, dt: float):
    """advance(y): one classical RK4 step of y' = rhs(*y) on a tuple-of-arrays
    state, for one run.

    Per component, the stage sum k1 + 2 k2 + 2 k3 + k4 (added left to
    right), the stage state y + c k and one temporary are allocated at the
    first step (per state shape) and reused by every later one; they are
    kept as three flat tuples, so `rhs` gets the stage states as they are.
    Each stage's k is used up before the next call of `rhs`, so `rhs` may
    return arrays that its next call overwrites. y is left unchanged, and
    y_{n+1} is returned in fresh arrays, so a caller may keep each step's
    state.
    """
    work = {}  # state shapes -> (stage sums, stage states, temporaries)
    half, sixth = 0.5 * dt, dt / 6.0

    def advance(y):
        shapes = tuple(a.shape for a in y)
        bufs = work.get(shapes)
        if bufs is None:
            bufs = work[shapes] = tuple(tuple(np.empty_like(a, dtype=float) for a in y)
                                        for _ in range(3))
        sums, stages, tmps = bufs
        for a, b, s, x, t in zip(y, rhs(*y), sums, stages, tmps):
            np.copyto(s, b)
            np.add(a, np.multiply(b, half, out=t), out=x)
        for c in (half, dt):
            for a, b, s, x, t in zip(y, rhs(*stages), sums, stages, tmps):
                s += np.multiply(b, 2.0, out=t)
                np.add(a, np.multiply(b, c, out=t), out=x)
        return tuple(a + np.multiply(np.add(s, b, out=s), sixth, out=t)
                     for a, b, s, t in zip(y, rhs(*stages), sums, tmps))
    return advance


def _check_finite(arrays, step_count: int, t: float, members: bool = False):
    """Raise BlowUpError naming the step (and, when the leading axis indexes
    ensemble members, the first member) if any of `arrays` is not finite."""
    for a in arrays:
        # a . a is finite when every entry is; when it is not, an entry is
        # NaN or infinite, or the sum overflowed, which the entrywise test
        # tells apart
        if not math.isfinite(np.vdot(a, a)) and not np.isfinite(a).all():
            break
    else:
        return
    member = None
    if members:
        member = next(m for m in range(len(arrays[0]))
                      if not all(np.isfinite(a[m]).all() for a in arrays))
    raise BlowUpError(step_count, t, member)


def snapshot_steps(n_steps: int, dt: float, every: int = 1,
                   targets=None) -> frozenset[int]:
    """Indices of the steps after which a run of `n_steps` steps stores its
    state; step k ends at k dt, and 0 (the initial state) is always one of
    them. With `targets`, for each target time the first step
    ending no earlier than half a step before it (the nearest step end), plus
    the last step; otherwise every `every`-th step, plus the last.
    """
    if targets is not None:
        bounds = np.arange(1, n_steps + 1) * dt + 0.5 * dt
        idx = np.searchsorted(bounds, sorted(float(s) for s in targets))
        steps = set((idx[idx < n_steps] + 1).tolist())
    else:
        steps = set(range(every, n_steps + 1, every))
    return frozenset(steps | {0, n_steps})


def integrate(y0: tuple, dt: float, n_steps: int, advance, dim: int,
              project: tuple[int, ...] = (), snapshots=frozenset(), record=None,
              on_step=None, members: bool = False) -> tuple[np.ndarray, tuple]:
    """Take `n_steps` steps y <- advance(y) from y0; `advance` returns each
    step's state in fresh arrays.

    After each step, the components whose indices are in `project` (the
    pressures) are re-projected to mean zero over the trailing `dim` axes
    in place. At every step end k, the initial state k = 0 included, the
    state is checked for finiteness, a projection that removed a mean above
    1e-12 (1 + max |p|) raises "pressure mean drifted", and `on_step(k, y)`
    runs. At the steps in `snapshots` the loop stores `record(y)`, by
    default y itself. It returns the stored times k dt and one array per
    recorded component, of shape (stored steps,) + component shape,
    allocated at the first stored step and filled in place. With `members`,
    the leading axis of every component indexes ensemble members, and a
    blow-up or a drift names the first member it found.
    """
    n_stored = sum(1 for k in snapshots if 0 <= k <= n_steps)
    times, stored = [], ()
    y = tuple(y0)
    axes = tuple(range(-dim, 0))
    # per projected component, the |mean| its last projection removed
    drifts = {i: np.zeros(y[i].shape[:-dim] + (1,) * dim) for i in project}
    for k in range(n_steps + 1):
        if k:
            y = advance(y)
            for i, drift in drifts.items():
                gr.mean_project_array(y[i], dim, out=y[i], mean=drift)
        _check_finite(y, k, k * dt, members)
        for i, drift in drifts.items():
            # a drift within 1e-12 is within the bound, whatever max |p| is
            if np.abs(drift, out=drift).max() > 1e-12:
                bound = 1e-12 * (1.0 + np.abs(y[i]).max(axis=axes, keepdims=True))
                over = np.flatnonzero(drift > bound)
                if over.size:
                    who = f"ensemble member {over[0]}: " if members else ""
                    raise RuntimeError(f"{who}pressure mean drifted to "
                                       f"{np.ravel(drift)[over[0]]:.3e} at step {k}")
        if on_step is not None:
            on_step(k, y)
        if k in snapshots:
            rec = y if record is None else record(y)
            if not stored:
                stored = tuple(np.empty((n_stored,) + a.shape, a.dtype) for a in rec)
            for buf, a in zip(stored, rec):
                buf[len(times)] = a
            times.append(k * dt)
    return np.array(times), stored


# ---------------------------------------------------------------------------
# full system
# ---------------------------------------------------------------------------

class _Kernel:
    """The arrays that one use of a system writes into at one state shape,
    built once per run, with the `grid` and `physics` sequences bound to them
    (`functools.partial` over each operator's lookup, made here once) and the
    system's constants (D, the drag and the forcing; a kernel without
    `forcing` adds none).

    `use` is one of:
      * "rate": the full system's right-hand side `rate` and its pressure
        equation `pressure_rate` (the default with D);
      * "pressure_rate": that equation alone;
      * "semi_implicit": the rate's arrays, and a CG's load, operator value
        and preconditioned residual;
      * "newton": the Newton solve of the truncated system (the default
        without D): no medium, the CG's arrays, and the iterates, residuals
        and u.v of the solve.
    Drag arrays exist where the drag does not vanish; a kernel without
    `params` keeps them, and its caller passes the drag to each call.

    `rate` and `pressure_rate` write into arrays of the kernel and return
    them, so each overwrites what its previous call returned."""

    def __init__(self, shape: tuple[int, ...], grid: Grid, D: MediumMatrix | None = None,
                 params: NonlinearityParams | None = None, forcing: np.ndarray | None = None,
                 convective: bool = False, use: str | None = None):
        use = ("newton" if D is None else "rate") if use is None else use
        dim, n, h = grid.dim, grid.n, grid.h
        lead = shape[:-dim - 1]
        field, axis = lead + grid.shape, len(lead)  # axis: the component axis
        self.D, self.params, self.forcing, self.h, self.dim = D, params, forcing, h, dim
        self.fu = self.phi = self.bu = None
        if use != "newton":  # D u, and its divergence and mean
            self.Du, self.dp, self.tp = np.empty(shape), np.empty(field), np.empty(field)
            self.mean = np.empty(lead + (1,) * dim)
            self.medium = partial(ph._medium, *ph._medium_constants(D, shape, self.Du))
            self.divergence = partial(gr._div, self.dp, self.tp,
                                      *gr._difference_constants(n, h, dim),
                                      gr._COMPONENTS[dim](self.Du))
            self.project = partial(gr._mean_project, self.dp, self.mean, gr._GRID_AXES[dim])
        if use == "pressure_rate":
            return
        self.lap, self.du, self.tu = (np.empty(shape) for _ in range(3))
        self.laplacian = partial(gr._lap, self.lap, self.tu, *gr._lap_constants(n, h, dim))
        self.gradient = partial(gr._grad, self.du, gr._COMPONENTS[dim](self.du),
                                *gr._difference_constants(n, h, dim))
        if params is None or not params.is_zero():
            # f(u), and |u|^2, then phi(|u|^2); drag(params, u)
            self.fu, self.phi = np.empty(shape), np.empty(lead + (1,) + grid.shape)
            self.drag = partial(ph._f_apply, self.fu, self.phi, axis)
        if convective:
            self.bu = np.empty(shape)
        if use == "rate":
            return
        self.load, self.Ax, self.z = (np.empty(shape) for _ in range(3))
        # poisson(eigenvalues, b) into z, scratch tu
        self.poisson = partial(gr._poisson, *gr._poisson_constants(grid, self.z, self.tu))
        if use == "newton":
            # the iterate and residual, each with its line-search trial
            self.iterates, self.residuals = ((np.empty(shape), np.empty(shape)) for _ in range(2))
            self.uv = np.empty(lead + (1,) + grid.shape)
            # fprime(coefficients, u, v) into Ax, u.v into uv, scratch tu
            self.fprime = partial(ph._fprime_apply, self.Ax, (self.tu, self.uv), axis)

    def rate(self, u: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The full system's (du/dt, dp/dt) at (u, p) into `du` and `dp`,
        leaving lap u, f(u), B(u, u) and D u in `lap`, `fu`, `bu` and `Du`:
        du = (((lap u - grad p) [- f(u)]) [- B(u, u)]) [+ g]."""
        fu, bu = self.fu, self.bu
        lap = self.laplacian(u)
        if fu is not None:
            self.drag(self.params, u)
        if bu is not None:
            ph.convective_array(u, u, self.h, self.dim, out=bu)
        du = np.subtract(lap, self.gradient(p), out=self.du)
        if fu is not None:
            du -= fu
        if bu is not None:
            du -= bu
        if self.forcing is not None:
            du += self.forcing
        return du, self.pressure_rate(u)

    def pressure_rate(self, u: np.ndarray) -> np.ndarray:
        """dp/dt = -P0 div(D u) into `dp`, leaving D u in `Du`."""
        self.medium(u)
        dp = self.project(self.divergence())
        return np.negative(dp, out=dp)


class _FullSystem:
    """The full system's right-hand side; batch-safe over leading axes.

    The system builds one `_Kernel` per state shape and use it meets, and
    `rhs` is the "rate" kernel's `rate`, whose operators write into the
    kernel's arrays. A call returns those arrays, so it overwrites what the
    previous call returned: a caller uses (or copies) a result before it
    calls again.

    With `work_rows`, each call of `rhs`, which must be at a single state,
    also fills the next row of `work` with (dissipation, drag work, forcing
    work, convective work, (D u, u)), read from the kernel's lap u, f(u),
    B(u, u) and D u.
    """

    def __init__(self, grid: Grid, D: MediumMatrix, params: NonlinearityParams,
                 forcing: np.ndarray, convective_on: bool, work_rows: int = 0):
        self.grid = grid
        self.D = D
        self.params = params
        self.forcing = forcing
        self.convective_on = convective_on
        self.work = np.empty((work_rows, 5)) if work_rows else None
        self._row = 0
        self._kernels: dict[tuple, _Kernel] = {}  # by state shape and use

    def _kernel(self, shape: tuple[int, ...], use: str = "rate") -> _Kernel:
        k = self._kernels.get((shape, use))
        if k is None:
            k = self._kernels[shape, use] = _Kernel(shape, self.grid, self.D, self.params,
                                                    self.forcing, self.convective_on, use)
        return k

    def rhs(self, u: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k = self._kernel(u.shape)
        rates = k.rate(u, p)
        if self.work is not None:
            w, Du = self.grid.cell_volume, k.Du
            terms = [0.0 if a is None else s * float(np.vdot(a, Du))
                     for s, a in ((-w, k.lap), (w, k.fu), (w, self.forcing), (w, k.bu))]
            self.work[self._row] = terms + [np.vdot(Du, u)]
            self._row += 1
        return rates


def _as_forcing(g: np.ndarray, grid: Grid) -> np.ndarray:
    """The forcing g, checked to be one velocity-shaped array on `grid`."""
    shape = (grid.dim,) + grid.shape
    if np.shape(g) != shape:
        raise ValueError(f"forcing shape {np.shape(g)} != expected {shape}")
    return g


def _rk4_full(sys: _FullSystem, dt: float):
    """advance(y) of one full-system RK4 run: `rk4_stepper` on the system's
    in-place right-hand side."""
    return rk4_stepper(sys.rhs, dt)


def _member_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot products of the members (the leading axis) of a and b, one
    per member, as one stacked matrix product: the bytes of a per-member
    `np.vdot`."""
    m = len(a)
    return np.matmul(a.reshape(m, 1, -1), b.reshape(m, -1, 1)).reshape(m)


def _semi_implicit_full(sys: _FullSystem, u: np.ndarray, p: np.ndarray,
                        dt: float, cg_tol: float, x0: np.ndarray | None = None):
    """Implicit Euler on the linear part (CG in the D-weighted metric, from
    x0, by default u), explicit drag and convection. The CG is preconditioned
    by the inverse of the heat part, (1 - dt lap)^-1 = (-lap + 1/dt)^-1 / dt,
    one sine transform pair (SPD in the weighted metric as well, since it
    acts componentwise).

    The step runs on the system's "semi_implicit" kernel for u's shape: the
    load, the operator, D b of the inner product and the preconditioner
    write into the kernel's arrays. A batch's per-member inner products are
    one stacked product, which gives the bytes of a per-member `np.vdot`."""
    k = sys._kernel(u.shape, "semi_implicit")
    # the load u + dt (g - f(u) [- B(u,u)]) - dt grad p
    load = k.load
    if k.fu is None:
        np.copyto(load, sys.forcing)
    else:
        np.subtract(sys.forcing, k.drag(sys.params, u), out=load)
    if k.bu is not None:
        load -= ph.convective_array(u, u, k.h, k.dim, out=k.bu)
    load *= dt
    np.add(u, load, out=load)
    grad = k.gradient(p)
    load -= np.multiply(grad, dt, out=grad)

    def apply_op(x):
        lap = k.laplacian(x)
        Ax = np.subtract(x, np.multiply(lap, dt, out=lap), out=k.Ax)
        # implicit Euler adds dt^2 grad(rate x) (ROADMAP item 1); the sign
        # stays until the benchmark references are regenerated with it
        grad = k.gradient(k.pressure_rate(x))
        return np.subtract(Ax, np.multiply(grad, dt * dt, out=grad), out=Ax)

    batch = u.ndim > k.dim + 1

    def d_inner(a, b):
        Db = k.medium(b)
        if batch:  # members: each its own product, so its own CG
            return _member_dots(a, Db)
        return float(np.vdot(a, Db))

    eigenvalues = gr._shifted_eigenvalues(sys.grid, 1.0 / dt)

    def precondition(r):
        z = k.poisson(eigenvalues, r)
        return np.divide(z, dt, out=z)

    u_new = conjugate_gradient(apply_op, load, x0=u if x0 is None else x0, rtol=cg_tol,
                               inner=d_inner, precondition=precondition)
    return u_new, p + np.multiply(k.pressure_rate(u_new), dt, out=k.dp)


# x0 = sum_j c_j u_{n-j}: the polynomial through the last 1-4 step-end
# velocities, evaluated one step ahead (constant, linear, quadratic, cubic)
_EXTRAPOLATION = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0))


def _full_advance(sys: _FullSystem, cfg: SolverConfig):
    """advance((u, p)) of the configured scheme, for one run: the
    semi-implicit step starts its CG from the cubic extrapolation of the
    run's last four step-end velocities (fewer at the start), which it keeps
    by reference, so successive calls must be successive steps. The start
    and one term of it are built in two arrays that the advance keeps."""
    if cfg.scheme == "rk4":
        return _rk4_full(sys, cfg.dt)
    history = []  # u_n, u_{n-1}, u_{n-2}, u_{n-3}, newest first
    work = []  # x0 and one term c_j u_{n-j} of it

    def advance(y):
        history.insert(0, y[0])
        del history[4:]
        c0, *cs = _EXTRAPOLATION[len(history) - 1]
        if not work:
            work.extend(np.empty_like(y[0]) for _ in range(2))
        x0, term = work
        np.multiply(history[0], c0, out=x0)
        for c, v in zip(cs, history[1:]):
            x0 += np.multiply(v, c, out=term)
        return _semi_implicit_full(sys, *y, cfg.dt, cfg.cg_tol, x0)
    return advance


@dataclass
class Trajectory:
    """Snapshots plus per-step scalar series of a full-system run."""

    grid: Grid
    cfg: SolverConfig
    D: MediumMatrix
    params: NonlinearityParams
    forcing: np.ndarray
    convective_on: bool
    times: np.ndarray                 # snapshot times
    u: np.ndarray                     # (snapshot, [member,] component, *grid)
    p: np.ndarray                     # (snapshot, [member,] *grid)
    step_times: np.ndarray | None = None
    energy_series: np.ndarray | None = None        # e_plain at step endpoints
    endpoint_terms: np.ndarray | None = None       # (N+1, 4) diss, fw, gw, bw
    work_increments: np.ndarray | None = None      # (N, 4) stage-quadrature integrals


def simulate(state0: tuple[np.ndarray, np.ndarray], grid: Grid, cfg: SolverConfig,
             forcing: np.ndarray, D: MediumMatrix, params: NonlinearityParams,
             t_max: float,
             snapshot_every: int = 1, snapshot_times=None,
             convective_on: bool = False,
             collect_work: bool = False) -> Trajectory:
    """Integrate from t = 0 to t_max, storing snapshots and (optionally)
    audit series.

    `snapshot_times` overrides `snapshot_every` with explicit targets; each
    target is matched to the closest step endpoint.

    A state (u, p) whose p has a leading axis beyond the grid axes is a
    batch: its members step together and are axis 1 of the stored
    snapshots, and each member's numbers are those of its run alone. A
    blow-up or pressure drift names the member, and `collect_work` needs a
    single state and the RK4 scheme.
    """
    u0, p0 = state0
    batch = p0.ndim > grid.dim
    if collect_work and (batch or cfg.scheme != "rk4"):
        raise ValueError("collect_work needs a single state and scheme = rk4")
    forcing = _as_forcing(forcing, grid)
    cfg.validate(grid, D)
    n_steps = max(1, int(round(t_max / cfg.dt)))
    # work rows: the four stages of each step in turn, then the last step end
    sys = _FullSystem(grid, D, params, forcing, convective_on,
                      work_rows=4 * n_steps + 1 if collect_work else 0)
    p_squares = []  # (p, p) at each step end; (D u, u) is in its work row

    def on_step(k, y):
        p_squares.append(np.vdot(y[1], y[1]))
        if k == n_steps:  # the one step end no later stage records
            sys.rhs(*y)

    times, (u, p) = integrate(
        (u0, gr.mean_project_array(p0, grid.dim)), cfg.dt, n_steps,
        _full_advance(sys, cfg), grid.dim, project=(1,),
        snapshots=snapshot_steps(n_steps, cfg.dt, every=snapshot_every,
                                 targets=snapshot_times),
        on_step=on_step if collect_work else None, members=batch)
    series = {}
    if collect_work:
        stages = sys.work[:-1, :4].reshape(n_steps, 4, 4)  # step, stage, term
        work = np.zeros((n_steps, 4))
        for i, weight in enumerate(RK4_WEIGHTS):
            work += weight * stages[:, i]
        ends = sys.work[::4]
        series = dict(step_times=np.arange(n_steps + 1) * cfg.dt,
                      energy_series=grid.cell_volume * (ends[:, 4] + p_squares),
                      endpoint_terms=ends[:, :4].copy(), work_increments=cfg.dt * work)
    return Trajectory(grid=grid, cfg=cfg, D=D, params=params, forcing=forcing,
                      convective_on=convective_on, times=times, u=u, p=p, **series)


# ---------------------------------------------------------------------------
# truncated system: Newton elliptic solve for u(p)
# ---------------------------------------------------------------------------

def _elliptic_residual(u: np.ndarray, p: np.ndarray, g_t: np.ndarray,
                       params: NonlinearityParams, grid: Grid, kernel: _Kernel | None = None,
                       grad_p: np.ndarray | None = None,
                       out: np.ndarray | None = None) -> np.ndarray:
    """((-lap u + f(u)) + grad p) - g_t, on `kernel` (one for u's shape is
    built if none is given), into `out` (a fresh array by default), with
    grad p taken from `grad_p` when the caller has it."""
    k = _Kernel(u.shape, grid) if kernel is None else kernel
    r = np.negative(k.laplacian(u), out=out)
    r += k.drag(params, u)
    r += k.gradient(p) if grad_p is None else grad_p
    r -= g_t
    return r


def solve_elliptic_arrays(p: np.ndarray, g_t: np.ndarray,
                          params: NonlinearityParams, grid: Grid,
                          newton_tol: float = 1e-10, newton_max: int = 30,
                          cg_floor: float = 1e-13, u0: np.ndarray | None = None,
                          kernel: _Kernel | None = None) -> tuple[np.ndarray, list[float]]:
    """Newton with exact Jacobian (CG inner solves) and halving line search.

    Solves -lap u + f(u) + grad p = g_t; f is monotone, so the Jacobian is
    positive definite with no shift. The CG is preconditioned by
    (-lap + alpha)^-1, the Jacobian at u = 0, applied in the sine basis;
    with beta = gamma = 0 it is the exact inverse.

    The solve runs on `kernel`, a `_Kernel` for g_t's shape (one is built if
    none is given): its iterates, residuals, Jacobian actions and
    preconditioned residuals are arrays of the kernel, grad p is formed once
    and f'(u)'s coefficients once per Newton step. u is returned in a fresh
    array.
    """
    k = _Kernel(g_t.shape, grid) if kernel is None else kernel
    w = grid.cell_volume
    (u, u_try), (r, r_try) = k.iterates, k.residuals
    np.copyto(u, 0.0 if u0 is None else u0)
    grad_p = k.gradient(p)
    eigenvalues = gr._shifted_eigenvalues(grid, params.alpha)

    def rnorm(r):
        return float(np.sqrt(w * np.vdot(r, r)))

    res = rnorm(_elliptic_residual(u, p, g_t, params, grid, k, grad_p, out=r))
    history = [res]
    for _ in range(newton_max):
        if res <= newton_tol:
            return u.copy(), history
        coefficients = ph._fprime_coefficients(u, params, grid.dim)

        def apply_jac(v, u_lin=u):
            neg = np.negative(k.laplacian(v), out=k.lap)
            return np.add(neg, k.fprime(coefficients, u_lin, v), out=k.Ax)

        rtol = min(1e-2, max(res, cg_floor))
        delta = conjugate_gradient(
            apply_jac, np.negative(r, out=k.load), rtol=max(rtol, cg_floor),
            precondition=partial(k.poisson, eigenvalues))
        lam = 1.0
        while lam > 1e-8:
            np.add(u, np.multiply(delta, lam, out=k.tu), out=u_try)
            res_try = rnorm(_elliptic_residual(u_try, p, g_t, params, grid, k, grad_p,
                                               out=r_try))
            if res_try < res * (1.0 - 1e-4 * lam) or res_try <= newton_tol:
                break
            lam *= 0.5
        (u, u_try), (r, r_try), res = (u_try, u), (r_try, r), res_try
        history.append(res)
    if res <= newton_tol:
        return u.copy(), history
    raise NewtonError(history)


class _TruncatedSystem:
    """The velocity u(p) of the truncated system dp/dt = -P0 div(D u(p)),
    re-solved at every evaluation on one kernel, kept for the run."""

    def __init__(self, grid: Grid, params: NonlinearityParams, forcing: np.ndarray,
                 cfg: SolverConfig):
        self.grid = grid
        self.params = params
        self.forcing = forcing
        self.cfg = cfg
        self._kernel = _Kernel(forcing.shape, grid)
        self._warm: np.ndarray | None = None

    def solve_u(self, p: np.ndarray) -> np.ndarray:
        """u(p), Newton warm-started from the previous solve."""
        u, _ = solve_elliptic_arrays(
            p, self.forcing, self.params, self.grid,
            newton_tol=self.cfg.newton_tol, newton_max=self.cfg.newton_max,
            cg_floor=self.cfg.cg_tol, u0=self._warm, kernel=self._kernel)
        self._warm = u  # a fresh array, which the next solve only reads
        return u


# ---------------------------------------------------------------------------
# splittings
# ---------------------------------------------------------------------------

@dataclass
class SplitTrajectory:
    """Two-part splitting p = q + r of a truncated run, stepped with the run:
    p and u(p) at every stored time, the parts (q, v) and (r, w) beside them,
    each stacked over the stored times; q + r must recombine to p and v + w
    to u."""

    grid: Grid
    times: np.ndarray
    p: np.ndarray
    u: np.ndarray
    q: np.ndarray
    v: np.ndarray
    r: np.ndarray
    w: np.ndarray
    recombination_p: float   # max over stored times of |q+r-p| / max(|p|, tiny)
    recombination_u: float

    def __post_init__(self):
        if max(self.recombination_p, self.recombination_u) > 1e-6:
            raise RecombinationError(
                f"splitting failed to recombine: defects "
                f"{self.recombination_p:.3e}, {self.recombination_u:.3e}")


def _linear_velocity(p: np.ndarray, load: np.ndarray | float, grid: Grid) -> np.ndarray:
    """u solving -lap u + grad p = load: one sine transform pair."""
    return gr.poisson_solve_array(load - gr.grad_array(p, grid.h, grid.dim), grid)


def _split(p0: np.ndarray, grid: Grid, forcing: np.ndarray, cfg: SolverConfig,
           D: MediumMatrix,
           params: NonlinearityParams, t_max: float, snapshot_every: int,
           parts) -> SplitTrajectory:
    """RK4 on (p, q, r) from (p0, p0, 0), p0 projected to mean zero, where p
    is the truncated run and `parts(y, u) -> (v, w)` gives the parts'
    velocities at the state y and the run's u = u(p). At every
    `snapshot_every`-th step and the last it stores p, u, q, v, r and w; after
    the initial state, q + r is checked against p and v + w against u. The
    next step's first stage takes the stored state's velocities as they are:
    solved again, warm-started from them, they would come back unchanged
    (in 0 Newton steps)."""
    dt = cfg.dt
    sys_p = _TruncatedSystem(grid, params, forcing, cfg)
    rates = _Kernel((3, grid.dim) + grid.shape, grid, D, use="pressure_rate")
    kept = [(None,) * 3, None]  # the state record() stored last, its velocities

    def velocities(y):
        if all(a is b for a, b in zip(y, kept[0])):
            return kept[1]
        u = sys_p.solve_u(y[0])
        return (u, *parts(y, u))

    def rhs(*y):
        # the three rates as one batch, each member with the bytes it gets alone
        return tuple(rates.pressure_rate(np.stack(velocities(y))))

    def record(y):
        kept[:] = y, velocities(y)
        (p, q, r), (u, v, w) = kept
        return p, u, q, v, r, w

    n_steps = int(round(t_max / dt))
    p0 = gr.mean_project_array(p0, grid.dim)
    times, stored = integrate(
        (p0, p0, np.zeros_like(p0)), dt, n_steps,
        rk4_stepper(rhs, dt), grid.dim, project=(0, 1, 2),
        snapshots=snapshot_steps(n_steps, dt, every=snapshot_every), record=record)
    p, u, q, v, r, w = stored
    # after the initial state: |q + r - p| over the largest |p| of the run,
    # |v + w - u| over the largest |u| at the same time
    axes = tuple(range(-grid.dim - 1, 0))
    defect_p = (float(np.abs(q[1:] + r[1:] - p[1:]).max(initial=0.0))
                / (float(np.abs(p).max()) or 1.0))
    defect_u = float((np.abs(v[1:] + w[1:] - u[1:]).max(axis=axes)
                      / np.maximum(np.abs(u[1:]).max(axis=axes), 1e-30)).max(initial=0.0))
    return SplitTrajectory(grid, times, p, u, q, v, r, w, defect_p, defect_u)


def run_split(p0: np.ndarray, grid: Grid, forcing: np.ndarray, cfg: SolverConfig,
              D: MediumMatrix, params: NonlinearityParams, t_max: float,
              snapshot_every: int = 1) -> SplitTrajectory:
    """Contracting/compact splitting of the truncated run from p0.

    q evolves with the unshifted (monotone) drag and q(0) = p(0); r evolves
    with the drag difference f(u) - f(v) and the load g, r(0) = 0, so its
    velocity w is a direct linear solve. p steps jointly with the parts, so
    that every RK stage sees consistent data; q + r = p is checked at the
    stored times, never enforced.
    """
    forcing = _as_forcing(forcing, grid)
    sys_v = _TruncatedSystem(grid, params, np.zeros_like(forcing), cfg)

    def parts(y, u):
        _, q, r = y
        v = sys_v.solve_u(q)
        return v, _linear_velocity(r, forcing
                                   - ph.f_apply_array(u, params, grid.dim)
                                   + ph.f_apply_array(v, params, grid.dim), grid)

    return _split(p0, grid, forcing, cfg, D, params, t_max, snapshot_every, parts)


def run_bootstrap_split(p0: np.ndarray, grid: Grid, forcing: np.ndarray,
                        cfg: SolverConfig, D: MediumMatrix,
                        params: NonlinearityParams, t_max: float,
                        snapshot_every: int = 1) -> SplitTrajectory:
    """Linear decaying part plus forced smooth part of the truncated run
    from p0.

    Part 1 is the force-free linear system from p(0); part 2 carries the load
    g - f(u(t)) with zero initial data. Both velocities are direct linear
    solves; recombination with the run is checked.
    """
    forcing = _as_forcing(forcing, grid)

    def parts(y, u):
        _, p1, p2 = y
        return (_linear_velocity(p1, 0.0, grid), _linear_velocity(
            p2, forcing - ph.f_apply_array(u, params, grid.dim), grid))

    return _split(p0, grid, forcing, cfg, D, params, t_max, snapshot_every, parts)


@dataclass
class ExpSplitTrajectory:
    """Contracting + smoothing decomposition of the difference of two runs,
    stacked over the stored times, with the hat and tilde parts on axis 1."""

    times: np.ndarray
    V: np.ndarray    # (snapshot, part, component, *grid)
    Q: np.ndarray    # (snapshot, part, *grid)
    recombination: float   # max over stored times of |hat+tilde-diff| / max |diff(0)|

    def __post_init__(self):
        if self.recombination > 1e-6:
            raise RecombinationError(
                f"hat + tilde failed to recombine to the difference "
                f"(defect {self.recombination:.3e})")


_GAUSS3_NODES = (0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0)
_GAUSS3_WEIGHTS = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)


def averaged_jacobian_apply(u1: np.ndarray, u2: np.ndarray, v: np.ndarray,
                            params: NonlinearityParams, dim: int) -> np.ndarray:
    """l(t) v with l(t) the tau-averaged Jacobian along the segment [u2, u1],
    by 3-point Gauss quadrature (exact through quintic drag); the three
    nodes go through one batched Jacobian action."""
    mids = np.stack([tau * u1 + (1.0 - tau) * u2 for tau in _GAUSS3_NODES])
    jv = ph.fprime_apply_array(mids, np.broadcast_to(v, mids.shape), params, dim)
    out = np.zeros_like(v)
    for wgt, j in zip(_GAUSS3_WEIGHTS, jv):
        out += wgt * j
    return out


def run_exp_split(pair: tuple[np.ndarray, np.ndarray], grid: Grid,
                  forcing: np.ndarray, cfg: SolverConfig, D: MediumMatrix,
                  params: NonlinearityParams, t_max: float,
                  snapshot_every: int = 1) -> ExpSplitTrajectory:
    """Difference splitting behind the exponential-attractor construction.

    The hat part solves the homogeneous linear system from the initial
    difference; the tilde part absorbs the averaged-Jacobian load -l(t) ubar
    with zero initial data. They step jointly with the runs from `pair`, a
    batch of two states, without convection, as two two-member batches, the
    runs (u1, u2) and the parts (hat, tilde), stored as `simulate` would;
    the parts are checked to recombine to the difference u1 - u2 after the
    run.
    """
    cfg.validate(grid, D)
    sys = _FullSystem(grid, D, params, _as_forcing(forcing, grid), False)
    # the parts' linear system: the full one with no drag and no forcing
    linear = _Kernel((2, grid.dim) + grid.shape, grid, D, _NO_DRAG)

    def rhs(U, P, V, Q):  # runs (u1, u2) and parts (hat, tilde), member-stacked
        dU, dP = sys.rhs(U, P)
        dV, dQ = linear.rate(V, Q)
        dV[1] -= averaged_jacobian_apply(U[0], U[1], U[0] - U[1], params, grid.dim)
        return dU, dP, dV, dQ

    U, P = pair
    P = gr.mean_project_array(P, grid.dim)
    y0 = (U, P, np.stack((U[0] - U[1], np.zeros_like(U[0]))),
          np.stack((P[0] - P[1], np.zeros_like(P[0]))))
    scale = max(float(np.abs(y0[2][0]).max()), float(np.abs(y0[3][0]).max()), 1e-30)
    n_steps = max(1, int(round(t_max / cfg.dt)))
    times, (U, P, V, Q) = integrate(
        y0, cfg.dt, n_steps, rk4_stepper(rhs, cfg.dt), grid.dim, project=(1, 3),
        snapshots=snapshot_steps(n_steps, cfg.dt, every=snapshot_every))
    defect = max(float(np.abs(V[:, 0] + V[:, 1] - (U[:, 0] - U[:, 1])).max()),
                 float(np.abs(Q[:, 0] + Q[:, 1] - (P[:, 0] - P[:, 1])).max()))
    return ExpSplitTrajectory(times, V, Q, defect / scale)
