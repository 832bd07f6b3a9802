"""Time integration of the full, truncated, and split systems.

The full system evolves (u, p) by

    du/dt = lap u - grad p - f(u) - [B(u,u)] + g,
    dp/dt = -P0 div(D u),

where P0 is the mean projection: the discrete divergence of a zero-extended
field does not sum to zero exactly (boundary-layer artifact of the central
stencil), and projecting the pressure rate keeps the evolution on the
mean-zero manifold without disturbing the energy identity, because p itself
is mean-zero.

The classical RK4 stepper can accumulate work integrals (dissipation, drag
work, forcing work, convective work) with its own stage weights; those
integrals are 5th-order accurate per step and feed the energy audit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as gr
from . import physics as ph
from .grid import Grid, ScalarField, VectorField
from .krylov import conjugate_gradient
from .physics import Forcing, MediumMatrix, NonlinearityParams

__all__ = [
    "SimState", "SolverConfig", "Trajectory", "TruncatedTrajectory",
    "SplitTrajectory", "ExpSplitTrajectory", "BlowUpError", "NewtonError",
    "rhs_full", "step", "simulate", "solve_elliptic_u", "step_truncated",
    "run_truncated", "run_split", "run_exp_split", "run_bootstrap_split",
    "rk4_step_generic",
]

RK4_NODES = (0.0, 0.5, 0.5, 1.0)
RK4_WEIGHTS = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)


class BlowUpError(RuntimeError):
    def __init__(self, step_count: int, t: float):
        super().__init__(f"solution lost finiteness at step {step_count} (t = {t:.6g})")
        self.step_count = step_count
        self.t = t


class NewtonError(RuntimeError):
    def __init__(self, history: list[float]):
        super().__init__(
            f"Newton iteration did not converge after {len(history) - 1} steps; "
            f"residual history {['%.3e' % r for r in history]}")
        self.history = history


@dataclass
class SimState:
    u: VectorField
    p: ScalarField
    t: float = 0.0

    def __post_init__(self):
        if self.u.grid != self.p.grid:
            raise ValueError("u and p live on different grids")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    @classmethod
    def zero(cls, grid: Grid, t: float = 0.0) -> "SimState":
        return cls(gr.zeros_vector(grid), gr.zeros_scalar(grid), t)

    def mean_defect(self) -> float:
        return float(abs(self.p.values.mean()))


@dataclass
class SolverConfig:
    dt: float
    scheme: str = "rk4"
    newton_tol: float = 1e-10
    newton_max: int = 30
    cg_tol: float = 1e-12
    cfl_safety: float = 0.9

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in ("rk4", "semi_implicit"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")

    def cfl_limit(self, grid: Grid, D: MediumMatrix) -> float:
        h = grid.h
        return min(h * h / (2.0 * grid.dim), h / np.sqrt(D.eigmax))

    def validate(self, grid: Grid, D: MediumMatrix):
        if self.scheme == "rk4":
            limit = self.cfl_safety * self.cfl_limit(grid, D)
            if self.dt > limit * (1.0 + 1e-12):
                raise ValueError(
                    f"dt = {self.dt:.3e} violates the rk4 CFL bound "
                    f"{limit:.3e} (cfl_safety = {self.cfl_safety})")


def _check_finite(arrays, step_count: int, t: float):
    """Raise BlowUpError naming the step if any of `arrays` is not finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise BlowUpError(step_count, t)


def rk4_step_generic(y: tuple, t: float, dt: float, rhs) -> tuple:
    """One classical RK4 step on a tuple-of-arrays state."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, tuple(a + 0.5 * dt * b for a, b in zip(y, k1)))
    k3 = rhs(t + 0.5 * dt, tuple(a + 0.5 * dt * b for a, b in zip(y, k2)))
    k4 = rhs(t + dt, tuple(a + dt * b for a, b in zip(y, k3)))
    return tuple(a + (dt / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))


# ---------------------------------------------------------------------------
# full system
# ---------------------------------------------------------------------------

class _FullSystem:
    """Array-level right-hand side bundle; batch-safe over leading axes."""

    def __init__(self, grid: Grid, D: MediumMatrix, params: NonlinearityParams,
                 forcing: Forcing, convective_on: bool):
        self.grid = grid
        self.D = D
        self.params = params
        self.forcing = forcing
        self.convective_on = convective_on

    def rhs(self, t: float, u: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = self.grid
        du = gr.lap_array(u, g.h, g.dim) - gr.grad_array(p, g.h, g.dim)
        if not self.params.is_zero():
            du -= ph.f_apply_array(u, self.params, g.dim)
        if self.convective_on:
            du -= ph.convective_array(u, u, g.h, g.dim)
        du += self.forcing.at_array(t)
        dp = -gr.mean_project_array(
            gr.div_array(self.D.apply_array(u), g.h, g.dim), g.dim)
        return du, dp

    def work_terms(self, t: float, u: np.ndarray, p: np.ndarray) -> tuple[float, float, float, float]:
        """(dissipation, drag work, forcing work, convective work) at one state."""
        g = self.grid
        w = g.cell_volume
        Du = self.D.apply_array(u)
        diss = -w * float(np.vdot(gr.lap_array(u, g.h, g.dim), Du))
        fw = w * float(np.vdot(ph.f_apply_array(u, self.params, g.dim), Du))
        gw = w * float(np.vdot(self.forcing.at_array(t), Du))
        bw = 0.0
        if self.convective_on:
            bw = w * float(np.vdot(ph.convective_array(u, u, g.h, g.dim), Du))
        return diss, fw, gw, bw

    def energy_plain(self, u: np.ndarray, p: np.ndarray) -> float:
        w = self.grid.cell_volume
        return w * float(np.vdot(self.D.apply_array(u), u) + np.vdot(p, p))


def _as_forcing(g, grid: Grid) -> Forcing:
    if isinstance(g, Forcing):
        return g
    if isinstance(g, VectorField):
        return Forcing(g)
    raise TypeError("forcing must be a Forcing or a VectorField")


def rhs_full(state: SimState, g, D: MediumMatrix, params: NonlinearityParams,
             convective_on: bool = False) -> tuple[VectorField, ScalarField]:
    sys = _FullSystem(state.grid, D, params, _as_forcing(g, state.grid), convective_on)
    du, dp = sys.rhs(state.t, state.u.values, state.p.values)
    return VectorField(state.grid, du), ScalarField(state.grid, dp)


def _rk4_full(sys: _FullSystem, t: float, u: np.ndarray, p: np.ndarray, dt: float,
              collect_work: bool):
    work = np.zeros(4) if collect_work else None
    ku, kp = sys.rhs(t, u, p)
    if collect_work:
        work += RK4_WEIGHTS[0] * np.array(sys.work_terms(t, u, p))
    acc_u = ku.copy(); acc_p = kp.copy()
    su, sp = u + 0.5 * dt * ku, p + 0.5 * dt * kp
    ku, kp = sys.rhs(t + 0.5 * dt, su, sp)
    if collect_work:
        work += RK4_WEIGHTS[1] * np.array(sys.work_terms(t + 0.5 * dt, su, sp))
    acc_u += 2.0 * ku; acc_p += 2.0 * kp
    su, sp = u + 0.5 * dt * ku, p + 0.5 * dt * kp
    ku, kp = sys.rhs(t + 0.5 * dt, su, sp)
    if collect_work:
        work += RK4_WEIGHTS[2] * np.array(sys.work_terms(t + 0.5 * dt, su, sp))
    acc_u += 2.0 * ku; acc_p += 2.0 * kp
    su, sp = u + dt * ku, p + dt * kp
    ku, kp = sys.rhs(t + dt, su, sp)
    if collect_work:
        work += RK4_WEIGHTS[3] * np.array(sys.work_terms(t + dt, su, sp))
    acc_u += ku; acc_p += kp
    u_new = u + (dt / 6.0) * acc_u
    p_new = p + (dt / 6.0) * acc_p
    return u_new, p_new, (dt * work if collect_work else None)


def _semi_implicit_full(sys: _FullSystem, t: float, u: np.ndarray, p: np.ndarray,
                        dt: float, cg_tol: float):
    """Implicit Euler on the linear part (CG in the D-weighted metric),
    explicit drag and convection. The CG is preconditioned by the inverse of
    the heat part, (1 - dt lap)^-1 = (-lap + 1/dt)^-1 / dt, one sine
    transform pair (SPD in the weighted metric as well, since it acts
    componentwise)."""
    g = sys.grid
    expl = sys.forcing.at_array(t) - ph.f_apply_array(u, sys.params, g.dim)
    if sys.convective_on:
        expl -= ph.convective_array(u, u, g.h, g.dim)
    rhs = u + dt * expl - dt * gr.grad_array(p, g.h, g.dim)

    def apply_op(x):
        coupling = gr.grad_array(gr.mean_project_array(
            gr.div_array(sys.D.apply_array(x), g.h, g.dim), g.dim), g.h, g.dim)
        return x - dt * gr.lap_array(x, g.h, g.dim) + dt * dt * coupling

    def d_inner(a, b):
        return float(np.vdot(a, sys.D.apply_array(b)))

    u_new = conjugate_gradient(
        apply_op, rhs, x0=u.copy(), rtol=cg_tol, inner=d_inner,
        precondition=lambda r: gr.poisson_solve_array(r, g, 1.0 / dt) / dt)
    p_new = p - dt * gr.mean_project_array(
        gr.div_array(sys.D.apply_array(u_new), g.h, g.dim), g.dim)
    return u_new, p_new


def step(state: SimState, cfg: SolverConfig, g, D: MediumMatrix,
         params: NonlinearityParams, convective_on: bool = False) -> SimState:
    """Advance one step; re-projects p to mean zero."""
    sys = _FullSystem(state.grid, D, params, _as_forcing(g, state.grid), convective_on)
    cfg.validate(state.grid, D)
    if cfg.scheme == "rk4":
        u, p, _ = _rk4_full(sys, state.t, state.u.values, state.p.values, cfg.dt, False)
    else:
        u, p = _semi_implicit_full(sys, state.t, state.u.values, state.p.values,
                                   cfg.dt, cfg.cg_tol)
    _check_finite((u, p), 1, state.t + cfg.dt)
    p = gr.mean_project_array(p, state.grid.dim)
    return SimState(VectorField(state.grid, u), ScalarField(state.grid, p),
                    state.t + cfg.dt)


@dataclass
class Trajectory:
    """Snapshots plus per-step scalar series of a full-system run."""

    grid: Grid
    cfg: SolverConfig
    D: MediumMatrix
    params: NonlinearityParams
    forcing: Forcing
    convective_on: bool
    times: np.ndarray                 # snapshot times
    states: list[tuple[np.ndarray, np.ndarray]]
    step_times: np.ndarray | None = None
    energy_series: np.ndarray | None = None        # e_plain at step endpoints
    endpoint_terms: np.ndarray | None = None       # (N+1, 4) diss, fw, gw, bw
    work_increments: np.ndarray | None = None      # (N, 4) stage-quadrature integrals

    def state_at(self, i: int) -> SimState:
        u, p = self.states[i]
        return SimState(VectorField(self.grid, u.copy()),
                        ScalarField(self.grid, p.copy()), float(self.times[i]))

    @property
    def initial(self) -> SimState:
        return self.state_at(0)

    @property
    def final(self) -> SimState:
        return self.state_at(len(self.states) - 1)


def simulate(state0: SimState, cfg: SolverConfig, forcing, D: MediumMatrix,
             params: NonlinearityParams, t_max: float,
             snapshot_every: int = 1, snapshot_times=None,
             convective_on: bool = False, collect_work: bool = False,
             check_every: int = 16) -> Trajectory:
    """Integrate to t_max, storing snapshots and (optionally) audit series.

    `snapshot_times` overrides `snapshot_every` with explicit targets; each
    target is matched to the closest step endpoint.
    """
    grid = state0.grid
    forcing = _as_forcing(forcing, grid)
    cfg.validate(grid, D)
    sys = _FullSystem(grid, D, params, forcing, convective_on)
    n_steps = max(1, int(round(t_max / cfg.dt)))

    u = state0.u.values.copy()
    p = gr.mean_project_array(state0.p.values.copy(), grid.dim)
    t0 = state0.t

    targets = None
    if snapshot_times is not None:
        targets = sorted(float(s) for s in snapshot_times)
        next_target = 0

    times = [t0]
    states = [(u.copy(), p.copy())]
    step_times = [t0]
    work_rows = []
    energy = [sys.energy_plain(u, p)] if collect_work else None
    endpoint = [sys.work_terms(t0, u, p)] if collect_work else None

    for k in range(n_steps):
        t = t0 + k * cfg.dt
        if cfg.scheme == "rk4":
            u, p, wrow = _rk4_full(sys, t, u, p, cfg.dt, collect_work)
        else:
            u, p = _semi_implicit_full(sys, t, u, p, cfg.dt, cfg.cg_tol)
            wrow = None
        mean_before = abs(float(p.mean()))
        p = gr.mean_project_array(p, grid.dim)
        t_new = t0 + (k + 1) * cfg.dt
        if mean_before > 1e-12 * (1.0 + float(np.abs(p).max())):
            raise RuntimeError(
                f"pressure mean drifted to {mean_before:.3e} at step {k + 1}")
        if (k + 1) % check_every == 0 or k + 1 == n_steps:
            _check_finite((u, p), k + 1, t_new)
        if collect_work:
            step_times.append(t_new)
            energy.append(sys.energy_plain(u, p))
            endpoint.append(sys.work_terms(t_new, u, p))
            if wrow is not None:
                work_rows.append(wrow)
        take = False
        if targets is not None:
            while next_target < len(targets) and targets[next_target] <= t_new + 0.5 * cfg.dt:
                take = True
                next_target += 1
        else:
            take = (k + 1) % snapshot_every == 0
        if take or k + 1 == n_steps:
            if times[-1] != t_new:
                times.append(t_new)
                states.append((u.copy(), p.copy()))

    return Trajectory(
        grid=grid, cfg=cfg, D=D, params=params, forcing=forcing,
        convective_on=convective_on, times=np.array(times), states=states,
        step_times=np.array(step_times) if collect_work else None,
        energy_series=np.array(energy) if collect_work else None,
        endpoint_terms=np.array(endpoint) if collect_work else None,
        work_increments=np.array(work_rows) if work_rows else None,
    )


# ---------------------------------------------------------------------------
# truncated system: Newton elliptic solve and pressure stepping
# ---------------------------------------------------------------------------

def _elliptic_residual(u: np.ndarray, p: np.ndarray, g_t: np.ndarray,
                       params: NonlinearityParams, a: np.ndarray | None,
                       grid: Grid) -> np.ndarray:
    r = (-gr.lap_array(u, grid.h, grid.dim)
         + ph.f_apply_array(u, params, grid.dim)
         + gr.grad_array(p, grid.h, grid.dim) - g_t)
    if params.shift:
        r += params.shift * u
    if a is not None:
        r += a * u
    return r


def solve_elliptic_arrays(p: np.ndarray, g_t: np.ndarray,
                          params: NonlinearityParams, grid: Grid,
                          a: np.ndarray | None = None,
                          newton_tol: float = 1e-10, newton_max: int = 30,
                          cg_floor: float = 1e-13,
                          u0: np.ndarray | None = None) -> tuple[np.ndarray, list[float]]:
    """Newton with exact Jacobian (CG inner solves) and halving line search.

    Solves -lap u + f(u) + shift*u + a(x) u + grad p = g_t. Requires the
    shifted drag to be monotone on the range in play (the Jacobian is then
    positive definite). The carried params.shift is applied here. The CG is
    preconditioned by (-lap + alpha + shift)^-1, the Jacobian at u = 0
    without a(x), applied in the sine basis; with beta = gamma = 0 and
    a = None it is the exact inverse.
    """
    w = grid.cell_volume
    lin_shift = params.alpha + params.shift
    u = np.zeros_like(g_t) if u0 is None else u0.copy()

    def rnorm(r):
        return float(np.sqrt(w * np.vdot(r, r)))

    r = _elliptic_residual(u, p, g_t, params, a, grid)
    res = rnorm(r)
    history = [res]
    for _ in range(newton_max):
        if res <= newton_tol:
            return u, history

        def apply_jac(v, u_lin=u):
            out = -gr.lap_array(v, grid.h, grid.dim)
            out += ph.fprime_apply_array(u_lin, v, params, grid.dim)
            if params.shift:
                out += params.shift * v
            if a is not None:
                out += a * v
            return out

        rtol = min(1e-2, max(res, cg_floor))
        delta = conjugate_gradient(
            apply_jac, -r, rtol=max(rtol, cg_floor),
            precondition=lambda x: gr.poisson_solve_array(x, grid, lin_shift))
        lam = 1.0
        while lam > 1e-8:
            u_try = u + lam * delta
            r_try = _elliptic_residual(u_try, p, g_t, params, a, grid)
            res_try = rnorm(r_try)
            if res_try < res * (1.0 - 1e-4 * lam) or res_try <= newton_tol:
                break
            lam *= 0.5
        u, r, res = u_try, r_try, res_try
        history.append(res)
    if res <= newton_tol:
        return u, history
    raise NewtonError(history)


def solve_elliptic_u(p: ScalarField, g_t: VectorField, params: NonlinearityParams,
                     extra_linear: ScalarField | None = None,
                     newton_tol: float = 1e-10, newton_max: int = 30,
                     cg_floor: float = 1e-13) -> VectorField:
    if p.grid != g_t.grid:
        raise ValueError("fields live on different grids")
    a = None
    if extra_linear is not None:
        if np.any(extra_linear.values < 0):
            raise ValueError("extra_linear weight must be nonnegative")
        a = extra_linear.values
    u, _ = solve_elliptic_arrays(p.values, g_t.values, params, p.grid, a=a,
                                 newton_tol=newton_tol, newton_max=newton_max,
                                 cg_floor=cg_floor)
    return VectorField(p.grid, u)


class _TruncatedSystem:
    """dp/dt = -P0 div(D u(p, t)), with u re-solved at every evaluation."""

    def __init__(self, grid: Grid, D: MediumMatrix, params: NonlinearityParams,
                 forcing: Forcing, cfg: SolverConfig):
        self.grid = grid
        self.D = D
        self.params = params
        self.forcing = forcing
        self.cfg = cfg
        self._warm: np.ndarray | None = None

    def solve_u(self, t: float, p: np.ndarray) -> np.ndarray:
        u, _ = solve_elliptic_arrays(
            p, self.forcing.at_array(t), self.params, self.grid,
            newton_tol=self.cfg.newton_tol, newton_max=self.cfg.newton_max,
            cg_floor=self.cfg.cg_tol, u0=self._warm)
        self._warm = u.copy()
        return u

    def rhs(self, t: float, p: np.ndarray) -> np.ndarray:
        u = self.solve_u(t, p)
        return -gr.mean_project_array(
            gr.div_array(self.D.apply_array(u), self.grid.h, self.grid.dim),
            self.grid.dim)


def step_truncated(p: ScalarField, forcing, cfg: SolverConfig, D: MediumMatrix,
                   params: NonlinearityParams) -> ScalarField:
    """One RK4 step of the truncated pressure equation; mean is preserved."""
    grid = p.grid
    sys = _TruncatedSystem(grid, D, params, _as_forcing(forcing, grid), cfg)
    (p_new,) = rk4_step_generic((gr.mean_project_array(p.values, grid.dim),),
                                0.0, cfg.dt,
                                lambda t, y: (sys.rhs(t, y[0]),))
    return ScalarField(grid, gr.mean_project_array(p_new, grid.dim))


@dataclass
class TruncatedTrajectory:
    grid: Grid
    cfg: SolverConfig
    D: MediumMatrix
    params: NonlinearityParams
    forcing: Forcing
    times: np.ndarray
    ps: list[np.ndarray]
    us: list[np.ndarray]

    def pressure_at(self, i: int) -> ScalarField:
        return ScalarField(self.grid, self.ps[i].copy())

    def velocity_at(self, i: int) -> VectorField:
        return VectorField(self.grid, self.us[i].copy())


def run_truncated(p0: ScalarField, forcing, cfg: SolverConfig, D: MediumMatrix,
                  params: NonlinearityParams, t_max: float,
                  snapshot_every: int = 1, start_time: float = 0.0) -> TruncatedTrajectory:
    grid = p0.grid
    forcing = _as_forcing(forcing, grid)
    sys = _TruncatedSystem(grid, D, params, forcing, cfg)
    n_steps = int(round(t_max / cfg.dt))
    p = gr.mean_project_array(p0.values.copy(), grid.dim)
    times = [start_time]
    ps = [p.copy()]
    us = [sys.solve_u(start_time, p)]
    for k in range(n_steps):
        t = start_time + k * cfg.dt
        (p,) = rk4_step_generic((p,), t, cfg.dt, lambda tt, y: (sys.rhs(tt, y[0]),))
        p = gr.mean_project_array(p, grid.dim)
        _check_finite((p,), k + 1, t + cfg.dt)
        if (k + 1) % snapshot_every == 0 or k + 1 == n_steps:
            t_new = start_time + (k + 1) * cfg.dt
            if times[-1] != t_new:
                times.append(t_new)
                ps.append(p.copy())
                us.append(sys.solve_u(t_new, p))
    return TruncatedTrajectory(grid, cfg, D, params, forcing,
                               np.array(times), ps, us)


# ---------------------------------------------------------------------------
# splittings
# ---------------------------------------------------------------------------

@dataclass
class SplitTrajectory:
    """Two-part splitting of a truncated run; q+r must recombine to p."""

    times: np.ndarray
    qv: list[tuple[ScalarField, VectorField]]
    rw: list[tuple[ScalarField, VectorField]]
    recombination_p: float   # max over stored times of |q+r-p| / max(|p|, tiny)
    recombination_u: float

    def __post_init__(self):
        if max(self.recombination_p, self.recombination_u) > 1e-6:
            raise ValueError(
                f"splitting failed to recombine: defects "
                f"{self.recombination_p:.3e}, {self.recombination_u:.3e}")


def run_split(reference: TruncatedTrajectory, cfg: SolverConfig, D: MediumMatrix,
              params: NonlinearityParams, L: float) -> SplitTrajectory:
    """Contracting/compact splitting of the truncated system.

    q evolves with the L-shifted drag and q(0) = p(0); r evolves with the
    drag difference f(u) - f(v) and the transferred load L v + g(t), r(0)=0.
    p is re-integrated jointly so that every RK stage sees consistent data;
    q + r = p is checked against the reference snapshots, never enforced.
    """
    grid = reference.grid
    forcing = reference.forcing
    shifted = params.with_shift(L)
    sys_p = _TruncatedSystem(grid, D, params, forcing, cfg)
    sys_v = _TruncatedSystem(grid, D, shifted, Forcing.zero(grid), cfg)
    w_warm: dict[str, np.ndarray | None] = {"w": None}

    def solve_w(t, r, u, v):
        load = (forcing.at_array(t) + L * v
                - ph.f_apply_array(u, params, grid.dim)
                + ph.f_apply_array(v, params, grid.dim))
        w, _ = solve_elliptic_arrays(
            r, load, NonlinearityParams(0.0, 0.0), grid,
            newton_tol=cfg.newton_tol, newton_max=cfg.newton_max,
            cg_floor=cfg.cg_tol, u0=w_warm["w"])
        w_warm["w"] = w.copy()
        return w

    def rhs(t, y):
        p, q, r = y
        u = sys_p.solve_u(t, p)
        v = sys_v.solve_u(t, q)
        w = solve_w(t, r, u, v)
        proj = lambda x: gr.mean_project_array(
            gr.div_array(D.apply_array(x), grid.h, grid.dim), grid.dim)
        return (-proj(u), -proj(v), -proj(w))

    p = reference.ps[0].copy()
    q = p.copy()
    r = np.zeros_like(p)
    t0 = float(reference.times[0])
    t_end = float(reference.times[-1])
    n_steps = int(round((t_end - t0) / cfg.dt))
    stored_times = [t0]
    qv = [(ScalarField(grid, q.copy()),
           VectorField(grid, sys_v.solve_u(t0, q)))]
    rw = [(ScalarField(grid, r.copy()),
           VectorField(grid, solve_w(t0, r, sys_p.solve_u(t0, p), qv[0][1].values)))]
    ref_times = set(np.round(reference.times, 9).tolist())
    defect_p = 0.0
    defect_u = 0.0
    scale = max(float(np.abs(v).max()) for v in reference.ps) or 1.0

    for k in range(n_steps):
        t = t0 + k * cfg.dt
        p, q, r = rk4_step_generic((p, q, r), t, cfg.dt, rhs)
        p = gr.mean_project_array(p, grid.dim)
        q = gr.mean_project_array(q, grid.dim)
        r = gr.mean_project_array(r, grid.dim)
        t_new = t0 + (k + 1) * cfg.dt
        _check_finite((p, q, r), k + 1, t_new)
        if round(t_new, 9) in ref_times:
            i = int(np.argmin(np.abs(reference.times - t_new)))
            u_ref = reference.us[i]
            v = sys_v.solve_u(t_new, q)
            w = solve_w(t_new, r, sys_p.solve_u(t_new, p), v)
            stored_times.append(t_new)
            qv.append((ScalarField(grid, q.copy()), VectorField(grid, v.copy())))
            rw.append((ScalarField(grid, r.copy()), VectorField(grid, w.copy())))
            defect_p = max(defect_p,
                           float(np.abs(q + r - reference.ps[i]).max()) / scale)
            u_scale = max(float(np.abs(u_ref).max()), 1e-30)
            defect_u = max(defect_u,
                           float(np.abs(v + w - u_ref).max()) / u_scale)
    return SplitTrajectory(np.array(stored_times), qv, rw, defect_p, defect_u)


def run_bootstrap_split(reference: TruncatedTrajectory, cfg: SolverConfig,
                        D: MediumMatrix, params: NonlinearityParams) -> SplitTrajectory:
    """Linear decaying part plus forced smooth part of a truncated run.

    Part 1 solves the force-free linear system from p(0); part 2 carries
    g(t) - f(u(t)) with zero initial data. Their velocities come from plain
    Poisson solves; recombination against the reference is checked.
    """
    grid = reference.grid
    forcing = reference.forcing
    lin = NonlinearityParams(0.0, 0.0)
    sys_p = _TruncatedSystem(grid, D, params, forcing, cfg)
    zero_load = np.zeros((grid.dim,) + grid.shape)

    def solve_lin(pfield, load):
        u, _ = solve_elliptic_arrays(pfield, load, lin, grid,
                                     newton_tol=cfg.newton_tol,
                                     newton_max=cfg.newton_max,
                                     cg_floor=cfg.cg_tol)
        return u

    def rhs(t, y):
        p, p1, p2 = y
        u = sys_p.solve_u(t, p)
        u1 = solve_lin(p1, zero_load)
        u2 = solve_lin(p2, forcing.at_array(t)
                       - ph.f_apply_array(u, params, grid.dim))
        proj = lambda x: gr.mean_project_array(
            gr.div_array(D.apply_array(x), grid.h, grid.dim), grid.dim)
        return (-proj(u), -proj(u1), -proj(u2))

    p = reference.ps[0].copy()
    p1 = p.copy()
    p2 = np.zeros_like(p)
    t0 = float(reference.times[0])
    t_end = float(reference.times[-1])
    n_steps = int(round((t_end - t0) / cfg.dt))
    ref_times = set(np.round(reference.times, 9).tolist())
    stored_times = [t0]
    qv = [(ScalarField(grid, p1.copy()), VectorField(grid, solve_lin(p1, zero_load)))]
    rw = [(ScalarField(grid, p2.copy()), VectorField(grid, np.zeros_like(qv[0][1].values)))]
    defect_p = 0.0
    defect_u = 0.0
    scale = max(float(np.abs(v).max()) for v in reference.ps) or 1.0

    for k in range(n_steps):
        t = t0 + k * cfg.dt
        p, p1, p2 = rk4_step_generic((p, p1, p2), t, cfg.dt, rhs)
        p = gr.mean_project_array(p, grid.dim)
        p1 = gr.mean_project_array(p1, grid.dim)
        p2 = gr.mean_project_array(p2, grid.dim)
        t_new = t0 + (k + 1) * cfg.dt
        _check_finite((p, p1, p2), k + 1, t_new)
        if round(t_new, 9) in ref_times:
            i = int(np.argmin(np.abs(reference.times - t_new)))
            u_ref = reference.us[i]
            u1 = solve_lin(p1, zero_load)
            u2 = solve_lin(p2, forcing.at_array(t_new)
                           - ph.f_apply_array(sys_p.solve_u(t_new, p), params, grid.dim))
            stored_times.append(t_new)
            qv.append((ScalarField(grid, p1.copy()), VectorField(grid, u1)))
            rw.append((ScalarField(grid, p2.copy()), VectorField(grid, u2)))
            defect_p = max(defect_p,
                           float(np.abs(p1 + p2 - reference.ps[i]).max()) / scale)
            u_scale = max(float(np.abs(u_ref).max()), 1e-30)
            defect_u = max(defect_u,
                           float(np.abs(u1 + u2 - u_ref).max()) / u_scale)
    return SplitTrajectory(np.array(stored_times), qv, rw, defect_p, defect_u)


@dataclass
class ExpSplitTrajectory:
    """Contracting + smoothing decomposition of the difference of two runs."""

    times: np.ndarray
    hat: list[tuple[VectorField, ScalarField]]
    tilde: list[tuple[VectorField, ScalarField]]
    recombination: float

    def __post_init__(self):
        if self.recombination > 1e-6:
            raise ValueError(
                f"hat + tilde failed to recombine to the difference "
                f"(defect {self.recombination:.3e})")


_GAUSS3_NODES = (0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0)
_GAUSS3_WEIGHTS = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)


def averaged_jacobian_apply(u1: np.ndarray, u2: np.ndarray, v: np.ndarray,
                            params: NonlinearityParams, dim: int) -> np.ndarray:
    """l(t) v with l(t) the tau-averaged Jacobian along the segment [u2, u1],
    by 3-point Gauss quadrature (exact through quintic drag)."""
    out = np.zeros_like(v)
    for tau, wgt in zip(_GAUSS3_NODES, _GAUSS3_WEIGHTS):
        mid = tau * u1 + (1.0 - tau) * u2
        out += wgt * ph.fprime_apply_array(mid, v, params, dim)
    return out


def run_exp_split(traj1: Trajectory, traj2: Trajectory, cfg: SolverConfig,
                  D: MediumMatrix, params: NonlinearityParams) -> ExpSplitTrajectory:
    """Difference splitting behind the exponential-attractor construction.

    The hat part solves the homogeneous linear system from the initial
    difference; the tilde part absorbs the averaged-Jacobian load -l(t) ubar
    with zero initial data. Both reference solutions are re-integrated
    jointly so every RK stage sees consistent states.
    """
    if traj1.grid != traj2.grid:
        raise ValueError("trajectories live on different grids")
    if not np.allclose(traj1.times, traj2.times):
        raise ValueError("trajectories must share snapshot times")
    grid = traj1.grid
    forcing = traj1.forcing
    sys = _FullSystem(grid, D, params, forcing, traj1.convective_on)

    def rhs(t, y):
        u1, p1, u2, p2, uh, phat, ut, pt = y
        du1, dp1 = sys.rhs(t, u1, p1)
        du2, dp2 = sys.rhs(t, u2, p2)
        proj = lambda x: gr.mean_project_array(
            gr.div_array(D.apply_array(x), grid.h, grid.dim), grid.dim)
        duh = gr.lap_array(uh, grid.h, grid.dim) - gr.grad_array(phat, grid.h, grid.dim)
        dph = -proj(uh)
        load = averaged_jacobian_apply(u1, u2, u1 - u2, params, grid.dim)
        dut = (gr.lap_array(ut, grid.h, grid.dim)
               - gr.grad_array(pt, grid.h, grid.dim) - load)
        dpt = -proj(ut)
        return du1, dp1, du2, dp2, duh, dph, dut, dpt

    u1, p1 = (a.copy() for a in traj1.states[0])
    u2, p2 = (a.copy() for a in traj2.states[0])
    uh, phat = u1 - u2, p1 - p2
    ut = np.zeros_like(u1)
    pt = np.zeros_like(p1)
    t0 = float(traj1.times[0])
    t_end = float(traj1.times[-1])
    n_steps = int(round((t_end - t0) / cfg.dt))
    ref_times = set(np.round(traj1.times, 9).tolist())
    stored = [t0]
    hat = [(VectorField(grid, uh.copy()), ScalarField(grid, phat.copy()))]
    tilde = [(VectorField(grid, ut.copy()), ScalarField(grid, pt.copy()))]
    defect = 0.0
    scale = max(float(np.abs(uh).max()), float(np.abs(phat).max()), 1e-30)

    y = (u1, p1, u2, p2, uh, phat, ut, pt)
    for k in range(n_steps):
        t = t0 + k * cfg.dt
        y = rk4_step_generic(y, t, cfg.dt, rhs)
        u1, p1, u2, p2, uh, phat, ut, pt = y
        p1 = gr.mean_project_array(p1, grid.dim)
        p2 = gr.mean_project_array(p2, grid.dim)
        phat = gr.mean_project_array(phat, grid.dim)
        pt = gr.mean_project_array(pt, grid.dim)
        y = (u1, p1, u2, p2, uh, phat, ut, pt)
        t_new = t0 + (k + 1) * cfg.dt
        _check_finite(y, k + 1, t_new)
        if round(t_new, 9) in ref_times:
            stored.append(t_new)
            hat.append((VectorField(grid, uh.copy()), ScalarField(grid, phat.copy())))
            tilde.append((VectorField(grid, ut.copy()), ScalarField(grid, pt.copy())))
            defect = max(defect,
                         float(np.abs(uh + ut - (u1 - u2)).max()) / scale,
                         float(np.abs(phat + pt - (p1 - p2)).max()) / scale)
    return ExpSplitTrajectory(np.array(stored), hat, tilde, defect)
