"""Measurements on trajectories and operators.

Everything here is diagnostic: dense assembly and spectrum of the pressure
operator, decay-rate fits, energy-identity audits, weighted smoothing
diagnostics, and ensemble studies of the attraction to the higher-energy ball.
Each PASS/FAIL threshold of a criterion is one constant here, next to its
measurement, and the command line and the acceptance gate both read it; a
fitted decay rate passes below 0.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics as dyn
from . import grid as gr
from . import physics as ph
from .grid import Grid
# unused here since assembly solves directly; the benchmark tracer rebinds it
from .krylov import conjugate_gradient
from .physics import MediumMatrix, NonlinearityParams
from .rng import SplitMix64

__all__ = [
    "AssembledOperator", "DecayFit", "SmoothingReport", "AttractorReport",
    "AuditReport", "assemble_operator", "semigroup_decay", "fit_decay",
    "energy_audit", "smoothing_report", "ensemble_study", "energy_norm",
    "fit_envelope", "box_counts",
    "SpectrumStudy", "AuditStudy", "LipschitzStudy", "ExpSplitStudy", "SplitStudy",
    "spectrum_study", "audit_study", "smoothing_study", "lipschitz_study",
    "exp_split_study", "split_study",
]

_SIZE_GUARD = 4096
Q_FLOOR = 1e-28  # split_study fits the decay of |q|^2 where it exceeds this
_BISECT_BLOCK = 1 << 15  # coefficients per block of the ensemble's bisection


# ---------------------------------------------------------------------------
# norms on the phase space and distance to the higher-energy ball
# ---------------------------------------------------------------------------

def energy_norm(u: np.ndarray, p: np.ndarray, grid: Grid) -> float:
    """Phase-space norm: H1 seminorm of u plus L2 norm of p, in quadrature."""
    return float(np.sqrt(gr.spectral_norm(u, grid, 1.0) ** 2 + gr.norm_l2(p, grid) ** 2))


def _spectral_weights(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(E weights, E1 weights) over concatenated (u components, p) coefficients."""
    lam = gr.laplacian_eigenvalues(grid).ravel()
    w_e = np.concatenate([np.tile(lam, grid.dim), np.ones_like(lam)])
    w_e1 = np.concatenate([np.tile(lam * lam, grid.dim), lam])
    return w_e, w_e1


def _state_coefficients(U: np.ndarray, P: np.ndarray, grid: Grid) -> np.ndarray:
    """Sine coefficients of (u components, p), concatenated along the last
    axis; leading member axes pass through, one transform per field."""
    lead = P.shape[:P.ndim - grid.dim]
    return np.concatenate(
        [gr.sine_coefficients_array(U, grid).reshape(lead + (-1,)),
         gr.sine_coefficients_array(P, grid).reshape(lead + (-1,))], axis=-1)


def _ball_distances(c: np.ndarray, w: np.ndarray, v: np.ndarray,
                    radius: float) -> np.ndarray:
    """Distance of each coefficient row of c (R, L) to the ball
    sum(v c^2) <= radius^2, in the norm sum(w c^2); 0 for rows inside.

    Both norms are diagonal, so the nearest ball point of a row outside
    solves a scalar Lagrange condition in its multiplier mu. One vectorised
    bisection runs over all outside rows: hi grows by 4 until the constraint
    is met (or passes 1e18), then up to 200 halvings. It stops early at the
    first halving that leaves every lo and hi as they were: the next one
    would see the same mid and do the same, so the rest change nothing. Rows
    do not interact, so a row's distance does not depend on the rows beside
    it; its temporaries are a few copies of c.
    """
    r2 = radius * radius
    out = np.zeros(len(c))
    far = np.sum(v * c * c, axis=-1) > r2
    c = c[far]
    if not len(c):
        return out

    def constraint(mu: np.ndarray) -> np.ndarray:
        y = c * w / (w + mu[:, None] * v)
        return np.sum(v * y * y, axis=-1) - r2

    lo, hi = np.zeros(len(c)), np.ones(len(c))
    grow = constraint(hi) > 0.0
    while grow.any():
        hi[grow] *= 4.0
        grow &= (hi <= 1e18) & (constraint(hi) > 0.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = constraint(mid) > 0.0
        lo_next, hi_next = np.where(above, mid, lo), np.where(above, hi, mid)
        if np.array_equal(lo_next, lo) and np.array_equal(hi_next, hi):
            break
        lo, hi = lo_next, hi_next
    mu = (0.5 * (lo + hi))[:, None]
    gap = c * (mu * v) / (w + mu * v)
    out[far] = np.sqrt(np.sum(w * gap * gap, axis=-1))
    return out


# ---------------------------------------------------------------------------
# pressure operator: assembly and semigroup decay
# ---------------------------------------------------------------------------

SYMMETRY_MAX = 1e-12  # the largest symmetry defect of a passing operator


@dataclass
class AssembledOperator:
    """Dense form of the pressure operator on the mean-zero subspace."""

    grid: Grid
    D: MediumMatrix
    basis: np.ndarray         # (N, m) orthonormal mean-zero reduction map, m = N - 1
    spectrum: np.ndarray      # ascending eigenvalues of the symmetric part
    symmetry_defect: float    # |A - A^T|_F / |A|_F
    eigenvectors: np.ndarray  # columns, in the reduced coordinates

    @property
    def eigmin(self) -> float:
        return float(self.spectrum[0])

    def propagate_coeffs(self, c0: np.ndarray, t: float) -> np.ndarray:
        return self.eigenvectors @ (np.exp(-self.spectrum * t)
                                    * (self.eigenvectors.T @ c0))


def _mean_zero_basis(N: int) -> np.ndarray:
    """Orthonormal basis of the mean-zero subspace via a Householder map."""
    q = np.full(N, 1.0 / np.sqrt(N))
    v = q.copy()
    v[0] -= 1.0
    H = np.eye(N) - 2.0 * np.outer(v, v) / np.dot(v, v)
    return H[:, 1:]


def assemble_operator(grid: Grid, D: MediumMatrix) -> AssembledOperator:
    """Column-by-column dense assembly of p -> -div(D (-lap)^-1 grad p),
    restricted to the mean-zero subspace, with (-lap)^-1 applied directly in
    the sine basis; spectrum from the symmetric eigensolver after the
    symmetry-defect check."""
    N = grid.num_nodes
    if N > _SIZE_GUARD:
        raise ValueError(f"dense assembly guarded to {_SIZE_GUARD} nodes, got {N}")
    Q = _mean_zero_basis(N)
    m = N - 1
    cols = np.empty((N, m))
    for j in range(m):
        pj = Q[:, j].reshape(grid.shape)
        w = gr.poisson_solve_array(gr.grad_array(pj, grid.h, grid.dim), grid)
        cols[:, j] = -gr.div_array(D.apply_array(w), grid.h, grid.dim).ravel()
    A = Q.T @ cols
    normA = float(np.linalg.norm(A))
    defect = float(np.linalg.norm(A - A.T)) / normA if normA else 0.0
    sym = 0.5 * (A + A.T)
    vals, vecs = np.linalg.eigh(sym)
    return AssembledOperator(grid=grid, D=D, basis=Q,
                             spectrum=vals, symmetry_defect=defect,
                             eigenvectors=vecs)


DECAY_R2_MIN = 0.9  # the least r^2 of a passing decay fit


@dataclass
class DecayFit:
    c: float
    rate: float
    r_squared: float
    window: tuple[float, float]


def fit_decay(times, values) -> DecayFit:
    """Least squares on (t, log value): c = exp(intercept), rate = slope;
    `window` is the span of the fitted times."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(t) < 5:
        raise ValueError(f"need at least 5 points in the fit window, got {len(t)}")
    if np.any(v <= 0.0):
        raise ValueError("fit window contains nonpositive values")
    y = np.log(v)
    slope, intercept = np.polyfit(t, y, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(c=float(np.exp(intercept)), rate=float(slope),
                    r_squared=float(r2), window=(float(t[0]), float(t[-1])))


def semigroup_decay(op: AssembledOperator, delta: float, t_max: float = 4.0,
                    samples: int = 24, n_init: int = 10,
                    seed: int = 515) -> DecayFit:
    """Worst (largest) fitted decay rate of the H^delta norm of exp(-tA) p0
    over `n_init` random initial pressures, via the dense eigendecomposition."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    rng = SplitMix64(seed)
    ts = np.linspace(0.0, t_max, samples)
    worst: DecayFit | None = None
    for _ in range(n_init):
        p0 = rng.normal(op.grid.shape)
        c0 = op.basis.T @ p0.ravel()
        ps = [(op.basis @ op.propagate_coeffs(c0, t)).reshape(op.grid.shape) for t in ts]
        fit = fit_decay(ts, [gr.spectral_norm(p, op.grid, delta) for p in ps])
        if worst is None or fit.rate > worst.rate:
            worst = fit
    return worst


# ---------------------------------------------------------------------------
# energy-identity audit
# ---------------------------------------------------------------------------

RESIDUAL_TOL = 1e-4    # simulate's sanity gate: the largest total residual per unit energy
AUDIT_RATIO_MIN = 8.0  # the order gate: the least drop of the integrated residual per dt halving


@dataclass
class AuditReport:
    """Residuals of the semi-discrete energy identity along a stored run.

    `residual_stage` uses the integrator's own stage quadrature for the work
    integrals (5th order per step); `residual_trap` uses endpoint trapezoid
    (3rd order per step). `gp_violation` is the positive excess of the
    one-sided decay surrogate dE/dt + eps*E <= 0 evaluated with the
    minus-coupled perturbed functional on the stored snapshots, where
    `e_plain_series` and `e_eps_series` are the plain and plus-coupled
    energies.
    """

    step_times: np.ndarray
    residual_trap: np.ndarray
    residual_stage: np.ndarray
    e_plain_series: np.ndarray
    e_eps_series: np.ndarray
    gp_violation: np.ndarray


def energy_audit(traj: dyn.Trajectory, eps: float = 0.0) -> AuditReport:
    if traj.energy_series is None:
        raise ValueError("trajectory was not run with collect_work=True")

    E = traj.energy_series
    terms = traj.endpoint_terms  # columns diss, fw, gw, bw
    phi = terms[:, 0] + terms[:, 1] + terms[:, 3] - terms[:, 2]
    dts = np.diff(traj.step_times)
    residual_trap = 0.5 * np.diff(E) + 0.5 * dts * (phi[:-1] + phi[1:])
    W = traj.work_increments
    residual_stage = 0.5 * np.diff(E) + (W[:, 0] + W[:, 1] + W[:, 3] - W[:, 2])

    # decay surrogate on snapshots, with the minus-coupled functional
    grid = traj.grid
    e_plain, e_eps, e_dec = [], [], []
    for u, p in zip(traj.u, traj.p):
        e_plain.append(gr.weighted_inner(traj.D, u, u, grid) + gr.inner(p, p, grid))
        coupling = (2.0 * eps * gr.inner(u, ph.bogovski(p, grid), grid)
                    if eps > 0 else 0.0)
        e_eps.append(e_plain[-1] + coupling)
        e_dec.append(e_plain[-1] - coupling)
    e_eps, e_dec = np.array(e_eps), np.array(e_dec)
    viol = np.zeros(max(len(e_dec) - 1, 0))
    if len(e_dec) > 1:
        rate = np.diff(e_dec) / np.diff(traj.times)
        viol = np.maximum(rate + eps * 0.5 * (e_dec[:-1] + e_dec[1:]), 0.0)
    return AuditReport(
        step_times=traj.step_times, residual_trap=residual_trap,
        residual_stage=residual_stage, e_plain_series=np.array(e_plain),
        e_eps_series=e_eps, gp_violation=viol)


# ---------------------------------------------------------------------------
# smoothing diagnostics
# ---------------------------------------------------------------------------

SMOOTHING_WEIGHTS = ("t|grad_u|^2", "t^2|du_dt|^2", "t|dp_dt|^2", "t^(8/3)|du_dt|^2")


@dataclass
class SmoothingReport:
    weighted_sups: dict[str, float]
    grid_tag: str
    times: np.ndarray
    series: dict[str, np.ndarray]


def smoothing_report(traj: dyn.Trajectory) -> SmoothingReport:
    """Weighted-in-time sups over the stored snapshots of a run on (0, 1].

    Time derivatives are the stepper's own right-hand side evaluated at the
    snapshots, never finite differences of neighbouring snapshots.
    """
    sys = dyn._FullSystem(traj.grid, traj.D, traj.params, traj.forcing,
                          traj.convective_on)
    w = traj.grid.cell_volume
    rows = {name: [] for name in SMOOTHING_WEIGHTS}
    times = []
    for t, u, p in zip(traj.times, traj.u, traj.p):
        if t <= 0.0:
            continue
        du, dp = sys.rhs(u, p)
        grad_u2 = -w * float(np.vdot(gr.lap_array(u, traj.grid.h, traj.grid.dim), u))
        du2 = w * float(np.vdot(du, du))
        dp2 = w * float(np.vdot(dp, dp))
        times.append(t)
        rows["t|grad_u|^2"].append(t * grad_u2)
        rows["t^2|du_dt|^2"].append(t * t * du2)
        rows["t|dp_dt|^2"].append(t * dp2)
        rows["t^(8/3)|du_dt|^2"].append(t ** (8.0 / 3.0) * du2)
    series = {k: np.array(v) for k, v in rows.items()}
    sups = {k: float(v.max()) if len(v) else 0.0 for k, v in series.items()}
    return SmoothingReport(weighted_sups=sups,
                           grid_tag=f"{traj.grid.n}^{traj.grid.dim}",
                           times=np.array(times), series=series)


# ---------------------------------------------------------------------------
# ensemble / attractor diagnostics
# ---------------------------------------------------------------------------

DIST_DROP = 1e-3    # the largest final distance to the ball, per unit of an early one
DIST_R2_MIN = 0.8   # the least r^2 of a passing distance fit


@dataclass
class AttractorReport:
    ensemble_size: int
    diam_series: np.ndarray          # (k, 2): t, phase-space diameter
    dist_to_ball_series: np.ndarray  # (k, 2): t, sup over members of dist
    r_ball: float
    box_counts: list[tuple[float, int]]


def box_counts(points: np.ndarray, n_scales: int = 6) -> list[tuple[float, int]]:
    """Occupied-box counts of a 2D point cloud at dyadic scales."""
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0)
    extent = float((pts - lo).max())
    if extent == 0.0:
        return [(1.0 / 2 ** k, 1) for k in range(1, n_scales + 1)]
    out = []
    for k in range(1, n_scales + 1):
        scale = extent / 2 ** k
        idx = np.floor((pts - lo) / scale).astype(np.int64)
        out.append((scale, len({(int(a), int(b)) for a, b in idx})))
    return out


def ensemble_report_from_snaps(grid: Grid, snap_times, U: np.ndarray,
                               P: np.ndarray) -> AttractorReport:
    """Diagnostics over stored ensemble snapshots U (snapshot, member,
    component, *grid) and P (snapshot, member, *grid): phase-space diameter,
    distance to the operationally defined higher-energy ball (radius = twice
    the largest higher-energy norm of member 0 over the last quarter of the
    run), and box counts of the (|u|_H1, |p|_L2) projection."""
    B = U.shape[1]
    w_e, w_e1 = _spectral_weights(grid)
    L = w_e.size
    coeffs = np.empty((len(U), B, L))
    for c, Us, Ps in zip(coeffs, U, P):  # one snapshot at a time: small temporaries
        c[...] = _state_coefficients(Us, Ps, grid)
    e1_sq = np.array([np.sum(w_e1 * c * c, axis=-1) for c in coeffs])  # (S, B)

    # ball radius from member 0 over the last quarter
    q0 = len(snap_times) - max(1, len(snap_times) // 4)
    r_ball = 2.0 * float(np.sqrt(e1_sq[q0:, 0]).max())

    # sup over members of the distance to the ball: one bisection over the
    # (snapshot, member) rows outside it, taken in blocks of about
    # _BISECT_BLOCK coefficients so its temporaries stay small at any size
    far = np.argwhere(e1_sq > r_ball * r_ball)
    far_dist = np.zeros(len(coeffs))
    rows = max(1, _BISECT_BLOCK // L)
    for start in range(0, len(far), rows):
        s, m = far[start:start + rows].T
        np.maximum.at(far_dist, s, _ball_distances(coeffs[s, m], w_e, w_e1, r_ball))

    # diameter over member pairs
    i, j = np.triu_indices(B, 1)
    diam = []
    for c in coeffs:
        d = c[i] - c[j]
        diam.append(float(np.sqrt(np.sum(w_e * d * d, axis=-1)).max(initial=0.0)))

    # box counting of the (|u|_H1, |p|_L2) projection over the last half
    half = len(snap_times) // 2
    k = grid.dim * grid.num_nodes
    pts = [np.stack([np.sqrt(np.sum(w_e[:k] * c[:, :k] ** 2, axis=-1)),
                     np.sqrt(np.sum(c[:, k:] ** 2, axis=-1))], axis=-1)
           for c in coeffs[half:]]
    boxes = box_counts(np.concatenate(pts))

    times = np.asarray(snap_times, dtype=float)
    diam_series = np.column_stack([times, diam])
    dist_series = np.column_stack([times, far_dist])
    return AttractorReport(ensemble_size=B, diam_series=diam_series,
                           dist_to_ball_series=dist_series, r_ball=r_ball,
                           box_counts=boxes)


def ensemble_study(states: tuple[np.ndarray, np.ndarray], grid: Grid,
                   cfg: dyn.SolverConfig, g: np.ndarray, D: MediumMatrix,
                   params: NonlinearityParams, t_max: float, snapshot_every: int = 50,
                   convective_on: bool = False) -> AttractorReport:
    """Evolve the ensemble `states`, a batch of (u, p), and reduce the
    attractor diagnostics."""
    tr = dyn.simulate(states, grid, cfg, g, D, params, t_max,
                      snapshot_every=snapshot_every, convective_on=convective_on)
    return ensemble_report_from_snaps(tr.grid, tr.times, tr.u, tr.p)


# ---------------------------------------------------------------------------
# envelope fitting (Lipschitz-style diagnostics)
# ---------------------------------------------------------------------------

def fit_envelope(times, ratios) -> tuple[float, float]:
    """(C, K) with ratios(t) <= C e^{K t}: K from least squares on the log,
    C lifted so the envelope touches the series from above."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(ratios, dtype=float)
    if np.any(v <= 0.0):
        raise ValueError("ratio series must be positive")
    K = float(np.polyfit(t, np.log(v), 1)[0])
    C = float(np.max(v * np.exp(-K * t)))
    return C, K


# ---------------------------------------------------------------------------
# criterion measurements, shared by the command line and the acceptance gate;
# both gate them with the thresholds above and below
# ---------------------------------------------------------------------------

SpectrumStudy = namedtuple("SpectrumStudy", "op fits")
AuditStudy = namedtuple("AuditStudy", "audits totals ratios")
LipschitzStudy = namedtuple("LipschitzStudy", "times ratios envelope C K excess")
ExpSplitStudy = namedtuple("ExpSplitStudy", "split hat hat_fit tilde_h1 C K")
SplitStudy = namedtuple("SplitStudy", "rows q_fit r_at r_sup")

ENVELOPE_SLACK = 1.05       # the largest ratio / envelope of a passing Lipschitz study
SPLIT_BOUND_FACTOR = 10.0   # the largest late sup of |r|, per unit of its window-start value


def spectrum_study(grid: Grid, D: MediumMatrix, deltas) -> SpectrumStudy:
    """The assembled pressure operator and, per delta of `deltas`, the
    `semigroup_decay` fit over t in [0, 4 / eigmin]."""
    op = assemble_operator(grid, D)
    return SpectrumStudy(op, [semigroup_decay(op, d, t_max=4.0 / op.eigmin) for d in deltas])


def audit_study(state0: tuple[np.ndarray, np.ndarray], grid: Grid, cfg: dyn.SolverConfig,
                g: np.ndarray, D: MediumMatrix, params: NonlinearityParams, t_max: float,
                dts, convective_on: bool = False) -> AuditStudy:
    """The energy audit of the run from `state0` at each step of `dts`, its
    integrated residual sum |residual_stage| dt, and the ratio of each total
    to the next (inf after a zero). The totals come from every step, so the
    runs store only their first and last state."""
    audits = [energy_audit(dyn.simulate(state0, grid, replace(cfg, dt=dt), g, D, params, t_max,
                                        snapshot_every=10 ** 9, convective_on=convective_on,
                                        collect_work=True)) for dt in dts]
    totals = [float(np.abs(a.residual_stage).sum() * dt) for a, dt in zip(audits, dts)]
    ratios = [a / b if b > 0 else np.inf for a, b in zip(totals, totals[1:])]
    return AuditStudy(audits, totals, ratios)


def smoothing_study(state0: tuple[np.ndarray, np.ndarray], grid: Grid, cfg: dyn.SolverConfig,
                    g: np.ndarray, D: MediumMatrix, params: NonlinearityParams,
                    convective_on: bool = False) -> SmoothingReport:
    """`smoothing_report` of the run from `state0` to t = 1, stored at the
    step ends nearest to t = 2^-10, 2^-9, ..., 1."""
    return smoothing_report(dyn.simulate(
        state0, grid, cfg, g, D, params, 1.0,
        snapshot_times=[2.0 ** -k for k in range(10, -1, -1)], convective_on=convective_on))


def lipschitz_study(pair: tuple[np.ndarray, np.ndarray], grid: Grid,
                    cfg: dyn.SolverConfig, g: np.ndarray, D: MediumMatrix,
                    params: NonlinearityParams, t_max: float, snapshot_every: int,
                    convective_on: bool = False) -> LipschitzStudy:
    """Phase-space distance of the runs from `pair`, a batch of two states:
    its `ratios` to the initial distance at `times`, their `envelope`
    C e^{K t}, and the largest ratio / envelope."""
    tr = dyn.simulate(pair, grid, cfg, g, D, params, t_max,
                      snapshot_every=snapshot_every, convective_on=convective_on)
    times = tr.times
    dists = np.array([energy_norm(u[0] - u[1], p[0] - p[1], grid)
                      for u, p in zip(tr.u, tr.p)])
    ratios = dists / dists[0]
    C, K = fit_envelope(times, ratios)
    envelope = C * np.exp(K * times)
    return LipschitzStudy(times, ratios, envelope, C, K, float(np.max(ratios / envelope)))


def exp_split_study(pair: tuple[np.ndarray, np.ndarray], grid: Grid,
                    cfg: dyn.SolverConfig, g: np.ndarray, D: MediumMatrix,
                    params: NonlinearityParams, t_max: float,
                    snapshot_every: int) -> ExpSplitStudy:
    """`dyn.run_exp_split` from `pair`; the phase-space norm of its hat part
    (`hat[0]` is the initial distance d0) with the decay fit of hat^2; the H1
    norm of its tilde pressure with the envelope C e^{K t} of tilde_h1 / d0
    after the start."""
    es = dyn.run_exp_split(pair, grid, g, cfg, D, params, t_max, snapshot_every)
    hat = np.array([energy_norm(v, q, grid) for v, q in zip(es.V[:, 0], es.Q[:, 0])])
    tilde = np.array([gr.spectral_norm(gr.mean_project_array(q, grid.dim), grid, 1.0)
                      for q in es.Q[:, 1]])
    C, K = fit_envelope(es.times[1:], np.maximum(tilde[1:] / hat[0], 1e-300))
    return ExpSplitStudy(es, hat, fit_decay(es.times, np.maximum(hat ** 2, 1e-300)),
                         tilde, C, K)


def split_study(split: dyn.SplitTrajectory, delta: float, t_max: float) -> SplitStudy:
    """Rows of t, |q|, |v|_H1, |r|_H^delta and |w|_H^(1+delta) per stored
    time of a truncated-system splitting; the decay fit of |q|^2 where it
    exceeds Q_FLOOR; |r|_H^delta at the first time >= t_max/5 and its sup from
    there on."""
    grid = split.grid
    rows = np.array([(t, gr.norm_l2(q, grid), gr.spectral_norm(v, grid, 1.0),
                      gr.spectral_norm(gr.mean_project_array(r, grid.dim), grid, delta),
                      gr.spectral_norm(w, grid, 1.0 + delta))
                     for t, q, v, r, w in zip(split.times, split.q, split.v, split.r, split.w)])
    qsq = rows[:, 1] ** 2
    late = rows[:, 0] >= t_max / 5.0
    return SplitStudy(rows, fit_decay(rows[qsq > Q_FLOOR, 0], qsq[qsq > Q_FLOOR]),
                      float(rows[np.argmax(late), 3]), float(rows[late, 3].max()))
