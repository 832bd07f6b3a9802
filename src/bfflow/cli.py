"""Scenario runner: INI-style configs in, CSV/SVG/summary files out.

Exit codes: 0 all criteria passed, 1 criterion failure, 2 runtime failure
(blow-up, solver non-convergence), 3 configuration error. SVG emission never
affects the exit code.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis as an
from . import dynamics as dyn
from . import grid as gr
from .grid import Grid
from .physics import MediumMatrix, NonlinearityParams
from .rng import SplitMix64

__all__ = ["ConfigError", "ScenarioConfig", "parse_config", "run_scenario",
           "main", "make_initial_state", "make_forcing", "perturbed_pair",
           "ensemble_states", "DEFAULT_CONFIG"]


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

# section -> key -> (type tag, default); types: int, float, str, bool, floats
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "grid": {"dim": ("int", 2), "n": ("int", 16)},
    "medium": {"diag": ("floats", None), "rows": ("str", None)},
    "nonlinearity": {"alpha": ("float", 0.0), "beta": ("float", 0.0),
                     "gamma": ("float", 0.0), "l": ("float", 1.0)},
    "forcing": {"kind": ("str", "zero"), "seed": ("int", 1),
                "amplitude": ("float", 1.0), "path": ("str", "")},
    "initial": {"kind": ("str", "zero"), "amplitude": ("float", 1.0),
                "seed": ("int", 2), "u_share": ("float", 0.5)},
    "solver": {"dt": ("float", 0.0), "scheme": ("str", "rk4"),
               "newton_tol": ("float", 1e-10), "newton_max": ("int", 30),
               "cg_tol": ("float", 1e-12), "cfl_safety": ("float", 0.9)},
    "run": {"t_max": ("float", 1.0), "snapshot_stride": ("float", 0.1),
            "seed": ("int", 1)},
    "scenario": {
        "eps": ("float", 0.05),
        "deltas": ("floats", [0.0, 0.25, 0.5, 0.75, 1.0]),
        "ensemble_size": ("int", 16),
        "convective": ("bool", False),
        "split_kind": ("str", "trunc"),
        "delta_exponent": ("float", 0.25),
        "perturbation": ("float", 1e-3),
        "horizon": ("float", 0.02),     # oracle order-measurement horizon
    },
}

# (section, key) -> (test, domain): each key whose admissible values are one
# range, checked once, when a ScenarioConfig is made, with the key named
_DOMAINS: dict[tuple[str, str], tuple[object, str]] = {
    ("initial", "u_share"): (lambda x: 0.0 <= x <= 1.0, "lie in [0, 1]"),
    ("solver", "dt"): (lambda x: x >= 0.0, "be positive, or 0 for the CFL step"),
    ("solver", "newton_tol"): (lambda x: x > 0.0, "be positive"),
    ("solver", "newton_max"): (lambda x: x >= 1, "be at least 1"),
    ("solver", "cg_tol"): (lambda x: x > 0.0, "be positive"),
    ("run", "t_max"): (lambda x: x > 0.0, "be positive"),
    ("run", "snapshot_stride"): (lambda x: x > 0.0, "be positive"),
}

# the most steps one run may take at the configured dt, checked before any
# run starts (`audit` adds a run at dt/2, of twice as many): 100 times the
# 10^5 of c12, the longest run of any test, config or benchmark workload
MAX_STEPS = 10 ** 7

DEFAULT_CONFIG = "\n".join(
    ["# bfflow scenario defaults"] +
    [line for s, keys in _SCHEMA.items()
     for line in [f"[{s}]"] + [
         f"{k} = {','.join(str(x) for x in d) if isinstance(d, list) else d}"
         for k, (tp, d) in keys.items() if d is not None]]) + "\n"


def _parse_value(tag: str, raw: str, lineno: int, key: str):
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            value = float(raw)
        elif tag == "floats":
            value = [float(x) for x in raw.replace(";", ",").split(",") if x.strip()]
        elif tag == "bool":
            low = raw.strip().lower()
            if low in ("on", "true", "1", "yes"):
                return True
            if low in ("off", "false", "0", "no"):
                return False
            raise ValueError(raw)
        else:
            return raw.strip()
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse {key!r} value {raw!r} as {tag}")
    if not np.all(np.isfinite(value)):
        raise ConfigError(f"line {lineno}: {key!r} must be finite, got {raw!r}")
    return value


@dataclass
class ScenarioConfig:
    sections: dict[str, dict[str, object]]

    def __post_init__(self):
        for (section, key), (test, domain) in _DOMAINS.items():
            if not test(self[section, key]):
                raise ConfigError(f"[{section}] {key} must {domain}, "
                                  f"got {self[section, key]!r}")

    def __getitem__(self, pair: tuple[str, str]):
        return self.sections[pair[0]][pair[1]]

    def grid(self) -> Grid:
        try:
            return Grid(self["grid", "dim"], self["grid", "n"])
        except ValueError as e:
            raise ConfigError(f"grid: {e}")

    def medium(self) -> MediumMatrix:
        dim = self["grid", "dim"]
        diag = self["medium", "diag"]
        rows = self["medium", "rows"]
        if diag is not None and rows is not None:
            raise ConfigError("medium: give either diag or rows, not both")
        if rows is not None:
            try:
                mat = np.array([[float(x) for x in row.split()]
                                for row in rows.split(";")])
            except ValueError:
                raise ConfigError(f"medium: rows {rows!r} is not a matrix of floats")
            if not np.isfinite(mat).all():
                raise ConfigError(f"medium: 'rows' must be finite, got {rows!r}")
        elif diag is not None:
            mat = np.diag(diag)
        else:
            mat = np.eye(dim)
        if mat.shape != (dim, dim):
            key = "rows" if rows is not None else "diag"
            raise ConfigError(f"[medium] {key} gives a matrix of shape {mat.shape}; "
                              f"[grid] dim = {dim} needs ({dim}, {dim})")
        try:
            return MediumMatrix(mat)
        except ValueError as e:
            raise ConfigError(f"medium: {e}")

    def nonlinearity(self) -> NonlinearityParams:
        try:
            return NonlinearityParams(self["nonlinearity", "alpha"],
                                      self["nonlinearity", "beta"],
                                      self["nonlinearity", "gamma"],
                                      self["nonlinearity", "l"])
        except ValueError as e:
            raise ConfigError(f"nonlinearity: {e}")

    def solver(self, grid: Grid, D: MediumMatrix,
               horizon: float | None = None) -> dyn.SolverConfig:
        """The solver config, checked to reach `horizon` (by default
        [run] t_max) in at most MAX_STEPS steps."""
        dt = self["solver", "dt"]
        safety = self["solver", "cfl_safety"]
        if dt == 0.0:
            dt = safety * dyn.cfl_limit(grid, D)
        try:
            cfg = dyn.SolverConfig(dt=dt, scheme=self["solver", "scheme"],
                                   newton_tol=self["solver", "newton_tol"],
                                   newton_max=self["solver", "newton_max"],
                                   cg_tol=self["solver", "cg_tol"],
                                   cfl_safety=safety)
            cfg.validate(grid, D)
        except ValueError as e:
            raise ConfigError(f"solver: {e}")
        t_max = self["run", "t_max"]
        horizon = t_max if horizon is None else horizon
        steps = horizon / cfg.dt
        if steps > MAX_STEPS:
            raise ConfigError(
                f"solver: a run to t = {horizon:g} in steps of {cfg.dt:.3g} takes "
                f"{steps:.3g} steps, more than the {MAX_STEPS:.0e} "
                f"a run may take ([run] t_max = {t_max:g}, [solver] dt = "
                f"{self['solver', 'dt']:g}, cfl_safety = {safety:g})")
        return cfg

    def forcing(self, grid: Grid) -> np.ndarray:
        return make_forcing(grid, self["forcing", "kind"],
                            self["forcing", "seed"],
                            self["forcing", "amplitude"],
                            self["forcing", "path"])

    def system(self, horizon: float | None = None) -> tuple[
            Grid, MediumMatrix, NonlinearityParams, dyn.SolverConfig, np.ndarray]:
        """Grid, medium, nonlinearity, solver config (for a run to
        `horizon`, by default [run] t_max) and forcing, built in that order."""
        grid, D = self.grid(), self.medium()
        return (grid, D, self.nonlinearity(), self.solver(grid, D, horizon),
                self.forcing(grid))

    def initial(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        return make_initial_state(grid, self["initial", "kind"],
                                  self["initial", "amplitude"],
                                  self["initial", "seed"],
                                  self["initial", "u_share"])


def parse_config(text: str) -> ScenarioConfig:
    """INI-style grammar: [section] headers, key = value, '#' comments,
    case-sensitive keys; unknown sections and keys are errors."""
    values = {s: {k: d for k, (tp, d) in keys.items()}
              for s, keys in _SCHEMA.items()}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {raw!r}")
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, rawval = (x.strip() for x in line.partition("="))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        tag = _SCHEMA[section][key][0]
        values[section][key] = _parse_value(tag, rawval, lineno, key)

    cfg = ScenarioConfig(values)
    # semantic re-checks at parse time
    cfg.nonlinearity()
    cfg.medium()
    cfg.grid()
    return cfg


# ---------------------------------------------------------------------------
# deterministic field synthesis
# ---------------------------------------------------------------------------

def _spectral_noise_scalar(grid: Grid, rng: SplitMix64, decay: float) -> np.ndarray:
    """Random field with sine coefficients ~ N(0,1) * (lam/lam_min)^-decay."""
    lam = gr.laplacian_eigenvalues(grid)
    c = rng.normal(grid.shape) * (lam / lam.min()) ** (-decay)
    return gr.sine_synthesis_array(c, grid)


def make_initial_state(grid: Grid, kind: str, amplitude: float, seed: int,
                       u_share: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic initial data (u, p) with phase-space norm `amplitude`.

    kinds: zero; smooth (decaying random spectrum, safe under the explicit
    CFL bound); white_pressure (u = 0, white-noise mean-zero p, the rough
    datum of the smoothing scenarios); mode (lowest sine profiles).
    """
    rng = SplitMix64(seed)
    zero_u = np.zeros((grid.dim,) + grid.shape)
    if kind == "zero":
        return zero_u, np.zeros(grid.shape)
    if kind == "white_pressure":
        p = gr.mean_project_array(rng.normal(grid.shape), grid.dim)
        return zero_u, p * (amplitude / gr.norm_l2(p, grid))
    if kind == "smooth":
        u = np.stack([_spectral_noise_scalar(grid, rng, 1.5)
                      for _ in range(grid.dim)])
        p = _spectral_noise_scalar(grid, rng, 1.5)
    elif kind == "mode":
        base = gr.sine_mode(grid, (1,) * grid.dim)
        second = gr.sine_mode(grid, (2,) + (1,) * (grid.dim - 1))
        u = np.stack([base] + [second] * (grid.dim - 1))
        p = second
    else:
        raise ConfigError(f"[initial] kind must be zero, smooth, white_pressure or mode, "
                          f"got {kind!r}")
    p = gr.mean_project_array(p, grid.dim)
    nu = gr.spectral_norm(u, grid, 1.0)
    npn = gr.norm_l2(p, grid)
    u_amp = amplitude * np.sqrt(u_share)
    p_amp = amplitude * np.sqrt(1.0 - u_share)
    return u * (u_amp / nu if nu else 0.0), p * (p_amp / npn if npn else 0.0)


def _band_limited_scalar(grid: Grid, rng: SplitMix64, kmax: int = 6) -> np.ndarray:
    """Random combination of the lowest kmax^dim sine modes; the draw count
    is grid-independent, so one seed gives the same function on every grid."""
    kmax = min(kmax, grid.n)
    coeffs = rng.normal((kmax,) * grid.dim)
    c = np.zeros(grid.shape)
    c[(slice(0, kmax),) * grid.dim] = coeffs
    return gr.sine_synthesis_array(c, grid)


def make_forcing(grid: Grid, kind: str, seed: int, amplitude: float,
                 path: str = "") -> np.ndarray:
    """The forcing g, one velocity-shaped array; a file's array is checked
    for shape and finiteness here, where it enters."""
    shape = (grid.dim,) + grid.shape
    if kind == "zero":
        return np.zeros(shape)
    if kind in ("fixed_random", "band_random"):
        rng = SplitMix64(seed)
        if kind == "band_random":
            comps = [_band_limited_scalar(grid, rng) for _ in range(grid.dim)]
        else:
            comps = [_spectral_noise_scalar(grid, rng, 1.0)
                     for _ in range(grid.dim)]
        g = np.stack(comps)
        return g * (amplitude / gr.norm_l2(g, grid))
    if kind == "file":
        try:
            g = np.asarray(np.load(path), dtype=float)
        except (OSError, ValueError) as e:
            raise ConfigError(f"forcing file {path!r}: {e}")
        if g.shape != shape:
            raise ConfigError(f"forcing file {path!r}: shape {g.shape} != expected {shape}")
        if not np.isfinite(g).all():
            raise ConfigError(f"forcing file {path!r}: contains non-finite entries")
        return g
    raise ConfigError(f"[forcing] kind must be zero, fixed_random, band_random or file, "
                      f"got {kind!r}")


# ---------------------------------------------------------------------------
# file emission
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_summary(path: Path, entries: dict[str, object]) -> None:
    with open(path, "w") as fh:
        for k, v in entries.items():
            fh.write(f"{k} = {v}\n")


def write_svg(path: Path, title: str, xs, series: dict[str, np.ndarray],
              logy: bool = False) -> None:
    """Minimal SVG 1.1 line plot; purely cosmetic output."""
    W, H, M = 640, 400, 50
    xs = np.asarray(xs, dtype=float)
    colors = ["#1b6ca8", "#c1403d", "#3d8b37", "#8047a3", "#b07d2b"]
    finite_series = {}
    for name, ys in series.items():
        ys = np.asarray(ys, dtype=float)
        if logy:
            ys = np.where(ys > 0, ys, np.nan)
            ys = np.log10(ys)
        finite_series[name] = ys
    allv = np.concatenate([v[np.isfinite(v)] for _, v in finite_series.items()
                           if np.any(np.isfinite(v))] or [np.zeros(1)])
    ymin, ymax = (float(allv.min()), float(allv.max())) if allv.size else (0, 1)
    if ymax == ymin:
        ymax = ymin + 1.0
    xmin, xmax = float(xs.min()), float(xs.max())
    if xmax == xmin:
        xmax = xmin + 1.0

    def px(x):
        return M + (x - xmin) / (xmax - xmin) * (W - 2 * M)

    def py(y):
        return H - M - (y - ymin) / (ymax - ymin) * (H - 2 * M)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{W}" height="{H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>',
             f'<text x="{W / 2}" y="20" text-anchor="middle" '
             f'font-size="14">{title}{" (log10 y)" if logy else ""}</text>',
             f'<line x1="{M}" y1="{H - M}" x2="{W - M}" y2="{H - M}" stroke="black"/>',
             f'<line x1="{M}" y1="{M}" x2="{M}" y2="{H - M}" stroke="black"/>',
             f'<text x="{M}" y="{H - M + 20}" font-size="11">{xmin:.3g}</text>',
             f'<text x="{W - M}" y="{H - M + 20}" text-anchor="end" '
             f'font-size="11">{xmax:.3g}</text>',
             f'<text x="{M - 5}" y="{H - M}" text-anchor="end" '
             f'font-size="11">{ymin:.3g}</text>',
             f'<text x="{M - 5}" y="{M}" text-anchor="end" '
             f'font-size="11">{ymax:.3g}</text>']
    for i, (name, ys) in enumerate(finite_series.items()):
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys)
                       if np.isfinite(y))
        color = colors[i % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
        parts.append(f'<text x="{W - M}" y="{M + 14 * (i + 1)}" text-anchor="end" '
                     f'font-size="11" fill="{color}">{name}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# subcommand implementations (each returns a dict of summary entries; keys
# starting with "pass_" are criteria)
# ---------------------------------------------------------------------------

def _snapshot_every(cfg: dyn.SolverConfig, stride: float) -> int:
    return max(1, int(round(stride / cfg.dt)))


def _fitted_snapshot_every(sc: ScenarioConfig, cfg: dyn.SolverConfig) -> int:
    """Snapshot cadence of a run whose series feeds `fit_decay`, checked to
    give the fit its 5 points (initial state plus one per stride)."""
    t_max, stride = sc["run", "t_max"], sc["run", "snapshot_stride"]
    every = _snapshot_every(cfg, stride)
    count = 1 + -(-int(round(t_max / cfg.dt)) // every)
    if count < 5:
        raise ConfigError(f"t_max = {t_max} with snapshot_stride = {stride} "
                          f"gives {count} snapshots; the decay fit needs 5")
    return every


def perturbed_pair(base: tuple[np.ndarray, np.ndarray], grid: Grid, seed: int,
                   size: float) -> tuple[np.ndarray, np.ndarray]:
    """The batch of two states: `base` = (u, p), and `base` moved by `size`
    in the phase-space norm along a smooth direction drawn from `seed`; a
    size that leaves them at zero distance (0, or one that rounds away) has
    no growth ratio."""
    (u, p), (du, dp) = base, make_initial_state(grid, "smooth", 1.0, seed)
    scale = size / an.energy_norm(du, dp, grid)
    U, P = np.stack((u, u + scale * du)), np.stack((p, p + scale * dp))
    if an.energy_norm(U[0] - U[1], P[0] - P[1], grid) == 0.0:
        raise ConfigError(f"scenario: perturbation must be nonzero; perturbation = {size:g} "
                          f"leaves the pair at zero initial distance, which has no growth ratio")
    return U, P


def ensemble_states(grid: Grid, size: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The batch of `size` smooth states with amplitudes spread geometrically
    over [0.1, 10]; member i is drawn from seed + 1000 + i."""
    states = [make_initial_state(grid, "smooth", a, seed + 1000 + i)
              for i, a in enumerate(np.geomspace(0.1, 10.0, size))]
    return tuple(map(np.stack, zip(*states)))


def _cmd_simulate(sc: ScenarioConfig, out: Path, svg: bool) -> dict:
    eps = sc["scenario", "eps"]
    if eps < 0.0:
        raise ConfigError(f"scenario: eps must be nonnegative, got {eps}")
    grid, D, params, cfg, forcing = sc.system()
    state0 = sc.initial(grid)
    conv = sc["scenario", "convective"]
    traj = dyn.simulate(state0, grid, cfg, forcing, D, params, sc["run", "t_max"],
                        snapshot_every=_snapshot_every(cfg, sc["run", "snapshot_stride"]),
                        convective_on=conv, collect_work=True)
    audit = an.energy_audit(traj, eps=eps)
    # residual accumulated over the steps inside each snapshot interval
    res_col, j = [0.0], 0
    for t in traj.times[1:]:
        j2 = int(np.searchsorted(traj.step_times, t + 1e-12)) - 1
        res_col.append(float(np.abs(audit.residual_stage[j:j2]).sum()))
        j = j2
    rows = [(t, audit.e_plain_series[i], audit.e_eps_series[i],
             gr.spectral_norm(u, grid, 1.0), gr.norm_l2(p, grid), res_col[i])
            for i, (t, u, p) in enumerate(zip(traj.times, traj.u, traj.p))]
    write_csv(out / "energies.csv",
              ["t [time]", "e_plain [energy]", "e_eps [energy]",
               "h1_u [field]", "l2_p [field]", "residual [energy]"], rows)
    if svg:
        arr = np.array(rows)
        write_svg(out / "energies.svg", "energy series", arr[:, 0],
                  {"e_plain": arr[:, 1], "e_eps": arr[:, 2]})
    mean_defect = max(abs(float(p.mean())) for p in traj.p)
    total_res = float(np.abs(audit.residual_stage).sum())
    scale = max(1.0, float(np.array(rows)[:, 1].max()))
    return {
        "final_t": traj.times[-1],
        "mean_defect": mean_defect,
        "residual_total": total_res,
        "pass_finite": True,
        "pass_mean_zero": mean_defect <= 1e-12 * max(1.0, sc["run", "t_max"]),
        "pass_residual": total_res <= an.RESIDUAL_TOL * scale,
    }


def _cmd_spectrum(sc: ScenarioConfig, out: Path, svg: bool) -> dict:
    deltas = sc["scenario", "deltas"]
    if not deltas:
        raise ConfigError("scenario: deltas must list at least one delta, got none")
    if not all(0.0 <= d <= 1.0 for d in deltas):
        raise ConfigError(f"scenario: deltas must lie in [0, 1], got {deltas}")
    grid = sc.grid()
    if grid.num_nodes > an._SIZE_GUARD:
        raise ConfigError(f"spectrum: dense assembly is guarded to {an._SIZE_GUARD} "
                          f"nodes, got {grid.num_nodes} ({grid.n}^{grid.dim})")
    st = an.spectrum_study(grid, sc.medium(), deltas)
    op, fits = st.op, list(zip(deltas, st.fits))
    write_csv(out / "spectrum.csv", ["index [-]", "eigenvalue [1/time]"],
              list(enumerate(op.spectrum)))
    write_csv(out / "decay.csv", ["delta [-]", "fitted_rate [1/time]"],
              [(d, f.rate) for d, f in fits])
    if svg:
        write_svg(out / "spectrum.svg", "pressure operator spectrum",
                  np.arange(len(op.spectrum)), {"eigenvalue": op.spectrum})
        write_svg(out / "decay.svg", "fitted decay rate vs delta",
                  np.array(deltas), {"fitted_rate": np.array([f.rate for _, f in fits])})
    entries = {
        "symmetry_defect": op.symmetry_defect,
        "eigmin": op.eigmin,
        "pass_symmetry": op.symmetry_defect <= an.SYMMETRY_MAX,
        "pass_positive": op.eigmin > 0,
        "pass_decay": all(f.rate < 0 for _, f in fits),
    }
    for d, f in fits:
        entries[f"rate_delta_{d:g}"] = f.rate
        if d == 0.5:
            entries["note_delta_0.5"] = ("index at the edge of the fractional "
                                         "range used by the elliptic estimates; "
                                         "reported for completeness")
    return entries


def _cmd_lipschitz(sc: ScenarioConfig, out: Path, svg: bool) -> dict:
    grid, D, params, cfg, forcing = sc.system()
    pair = perturbed_pair(sc.initial(grid), grid, sc["initial", "seed"] + 77,
                          sc["scenario", "perturbation"])
    st = an.lipschitz_study(pair, grid, cfg, forcing, D, params, sc["run", "t_max"],
                            _snapshot_every(cfg, sc["run", "snapshot_stride"]),
                            convective_on=sc["scenario", "convective"])
    write_csv(out / "pairs.csv", ["t [time]", "ratio [-]", "envelope [-]"],
              list(zip(st.times, st.ratios, st.envelope)))
    if svg:
        write_svg(out / "pairs.svg", "difference growth", st.times,
                  {"ratio": st.ratios, "envelope": st.envelope}, logy=True)
    return {
        "envelope_C": st.C, "envelope_K": st.K, "max_excess": st.excess,
        "pass_envelope": bool(np.isfinite(st.K)
                              and st.excess <= an.ENVELOPE_SLACK),
    }


def _cmd_split(sc: ScenarioConfig, out: Path, svg: bool) -> dict:
    kind = sc["scenario", "split_kind"]
    if kind not in ("trunc", "bootstrap"):
        raise ConfigError(f"scenario: split_kind must be trunc or bootstrap, got {kind!r}")
    if sc["scenario", "convective"]:
        raise ConfigError("split: the truncated system and its parts carry no convective "
                          "term, so they cannot honour convective = on")
    grid, D, params, cfg, forcing = sc.system()
    p0 = gr.mean_project_array(sc.initial(grid)[1], grid.dim)
    t_max = sc["run", "t_max"]
    every = _fitted_snapshot_every(sc, cfg)
    if not np.any(p0):
        raise ConfigError(
            f"split needs a nonzero mean-zero initial pressure to fit the "
            f"decay of q; initial.kind = {sc['initial', 'kind']!r} gives p = 0")
    run = dyn.run_bootstrap_split if kind == "bootstrap" else dyn.run_split
    split = run(p0, grid, forcing, cfg, D, params, t_max, snapshot_every=every)
    fitted = sum(gr.norm_l2(q, grid) ** 2 > an.Q_FLOOR for q in split.q)
    if fitted < 5:
        raise ConfigError(
            f"[initial] amplitude = {sc['initial', 'amplitude']:g} leaves {fitted} stored "
            f"values of |q|^2 above the decay fit's floor {an.Q_FLOOR:g}; the fit needs 5")
    st = an.split_study(split, sc["scenario", "delta_exponent"], t_max)
    write_csv(out / "split.csv",
              ["t [time]", "norm_q [field]", "norm_v [field]",
               "norm_r_hdelta [field]", "norm_w_h1delta [field]"], st.rows)
    if svg:
        write_svg(out / "split.svg", "splitting norms", st.rows[:, 0],
                  {"norm_q": st.rows[:, 1], "norm_r_hdelta": st.rows[:, 3]}, logy=True)
    return {
        "recombination_p": split.recombination_p,
        "recombination_u": split.recombination_u,
        "q_rate": st.q_fit.rate, "q_r2": st.q_fit.r_squared,
        "r_sup_late": st.r_sup, "r_at_window_start": st.r_at,
        "pass_contracting": st.q_fit.rate < 0,
        "pass_bounded": st.r_sup <= an.SPLIT_BOUND_FACTOR * max(st.r_at, 1e-30),
    }


def _cmd_expsplit(sc: ScenarioConfig, out: Path, svg: bool) -> dict:
    if sc["scenario", "convective"]:
        raise ConfigError("expsplit: the hat and tilde parts carry no convective "
                          "term, so they cannot recombine with convective = on")
    grid, D, params, cfg, forcing = sc.system()
    pair = perturbed_pair(sc.initial(grid), grid, sc["initial", "seed"] + 101,
                          sc["scenario", "perturbation"])
    st = an.exp_split_study(pair, grid, cfg, forcing, D, params, sc["run", "t_max"],
                            _fitted_snapshot_every(sc, cfg))
    times = st.split.times
    write_csv(out / "expsplit.csv", ["t [time]", "hat_norm [field]", "tilde_h1 [field]"],
              list(zip(times, st.hat, st.tilde_h1)))
    if svg:
        write_svg(out / "expsplit.svg", "difference splitting", times,
                  {"hat_norm": st.hat, "tilde_h1": st.tilde_h1}, logy=True)
    return {
        "recombination": st.split.recombination,
        "hat_rate": st.hat_fit.rate, "hat_r2": st.hat_fit.r_squared,
        "tilde_envelope_C": st.C, "tilde_envelope_K": st.K,
        "pass_hat_decay": st.hat_fit.rate < 0 and st.hat_fit.r_squared >= an.DECAY_R2_MIN,
        "pass_tilde_bounded": bool(np.isfinite(st.tilde_h1).all() and np.isfinite(st.K)),
    }


def _cmd_smoothing(sc: ScenarioConfig, out: Path, svg: bool) -> dict:
    grid, D, params, cfg, forcing = sc.system(horizon=1.0)  # smoothing_study's horizon
    rep = an.smoothing_study(sc.initial(grid), grid, cfg, forcing, D, params,
                             sc["scenario", "convective"])
    rows = list(zip(rep.times, rep.series["t|grad_u|^2"],
                    rep.series["t^2|du_dt|^2"], rep.series["t|dp_dt|^2"],
                    rep.series["t^(8/3)|du_dt|^2"]))
    write_csv(out / "smoothing.csv",
              ["t [time]", "t_grad_u2 [energy]", "t2_dtu2 [energy]",
               "t_dtp2 [energy]", "t83_dtu2 [energy]"], rows)
    if svg:
        arr = np.array(rows)
        write_svg(out / "smoothing.svg", "weighted smoothing", arr[:, 0],
                  {"t2_dtu2": arr[:, 2], "t83_dtu2": arr[:, 4]}, logy=True)
    entries = {f"sup_{k}": v for k, v in rep.weighted_sups.items()}
    entries["grid_tag"] = rep.grid_tag
    entries["pass_finite_sups"] = all(np.isfinite(v)
                                      for _, v in rep.weighted_sups.items())
    return entries


def _cmd_attractor(sc: ScenarioConfig, out: Path, svg: bool) -> dict:
    size = sc["scenario", "ensemble_size"]
    if size < 1:
        raise ConfigError(f"scenario: ensemble_size must be at least 1, got {size}")
    grid, D, params, cfg, forcing = sc.system()
    every = _snapshot_every(cfg, sc["run", "snapshot_stride"])
    report = an.ensemble_study(ensemble_states(grid, size, sc["run", "seed"]), grid, cfg,
                               forcing, D, params, sc["run", "t_max"], snapshot_every=every,
                               convective_on=sc["scenario", "convective"])
    write_csv(out / "attractor.csv",
              ["t [time]", "diameter [field]", "dist_to_ball [field]"],
              [(t, d, x) for (t, d), (_, x) in
               zip(report.diam_series, report.dist_to_ball_series)])
    write_csv(out / "boxcount.csv", ["scale [field]", "count [-]"],
              report.box_counts)
    if svg:
        write_svg(out / "attractor.svg", "ensemble attraction",
                  report.diam_series[:, 0],
                  {"diameter": report.diam_series[:, 1],
                   "dist_to_ball": report.dist_to_ball_series[:, 1]}, logy=True)
        scales = np.array([s for s, _ in report.box_counts])
        counts = np.array([c for _, c in report.box_counts], dtype=float)
        write_svg(out / "boxcount.svg", "box counts vs scale", scales,
                  {"count": counts})
    dist = report.dist_to_ball_series
    pos = dist[:, 1] > 0  # members outside the ball: something to drop and fit
    final = dist[-1, 1]
    drop_ok = not pos.any() or final <= an.DIST_DROP * dist[pos][0, 1]
    rate_ok, fit_rate, fit_r2 = True, 0.0, 1.0
    if pos.sum() >= 5:
        fit = an.fit_decay(dist[pos, 0], dist[pos, 1])
        fit_rate, fit_r2 = fit.rate, fit.r_squared
        rate_ok = fit.rate < 0 and fit.r_squared >= an.DIST_R2_MIN
    by_scale = sorted(report.box_counts)  # counts must not grow with scale
    return {
        "r_ball": report.r_ball, "dist_final": final,
        "dist_rate": fit_rate, "dist_r2": fit_r2,
        "pass_attraction": bool(drop_ok),
        "pass_dist_fit": bool(rate_ok),
        "pass_boxcounts_monotone": all(c1 <= c0 for (_, c0), (_, c1) in
                                       zip(by_scale, by_scale[1:])),
    }


def _cmd_audit(sc: ScenarioConfig, out: Path, svg: bool) -> dict:
    grid, D, params, cfg, forcing = sc.system()
    dts = (cfg.dt, cfg.dt / 2.0)
    st = an.audit_study(sc.initial(grid), grid, cfg, forcing, D, params, sc["run", "t_max"],
                        dts, sc["scenario", "convective"])
    rows = [(dt, t, rs, rt) for dt, audit in zip(dts, st.audits)
            for t, rs, rt in zip(audit.step_times[1:], audit.residual_stage,
                                 audit.residual_trap)]
    write_csv(out / "audit.csv",
              ["dt [time]", "t [time]", "residual_stage [energy]",
               "residual_trap [energy]"], rows)
    if svg:
        arr = np.array([(t, abs(rs)) for d, t, rs, _ in rows if d == cfg.dt])
        write_svg(out / "audit.svg", "audit residual", arr[:, 0],
                  {"|residual|": arr[:, 1]}, logy=True)
    [ratio] = st.ratios
    return {
        "residual_total_dt": st.totals[0], "residual_total_half": st.totals[1],
        "ratio": ratio,
        "pass_order": ratio >= an.AUDIT_RATIO_MIN,
    }


def _cmd_oracle(sc: ScenarioConfig, out: Path, svg: bool) -> dict:
    from . import reference as ref  # only this subcommand compiles the oracle
    dts = (4e-4, 2e-4, 1e-4)
    horizon = sc["scenario", "horizon"]
    coarse_steps = horizon / dts[0]
    if not (1 <= coarse_steps < np.inf and np.isclose(coarse_steps, round(coarse_steps))):
        raise ConfigError(f"scenario: horizon = {horizon} must be a positive multiple of {dts[0]}")
    dim = sc["grid", "dim"]
    grid = Grid(dim, min(sc["grid", "n"], ref._SIZE_GUARD_PER_AXIS[dim]))
    state0 = make_initial_state(grid, "smooth", 1.0, sc["initial", "seed"])
    errors = ref.convergence_errors(state0, grid, sc.medium(), horizon, dts)
    write_csv(out / "oracle.csv", ["dt [time]", "error [-]"], list(zip(dts, errors)))
    if svg:
        write_svg(out / "oracle.svg", "convergence to dense propagator", dts,
                  {"error": errors}, logy=True)
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    return {
        "ratios": " ".join(f"{r:.2f}" for r in ratios),
        "pass_order": all(r >= 12.0 for r in ratios),
    }


_COMMANDS = {"simulate": _cmd_simulate, "spectrum": _cmd_spectrum,
             "lipschitz": _cmd_lipschitz, "split": _cmd_split,
             "expsplit": _cmd_expsplit, "smoothing": _cmd_smoothing,
             "attractor": _cmd_attractor, "audit": _cmd_audit, "oracle": _cmd_oracle}
SUBCOMMANDS = tuple(_COMMANDS)
# the subcommands that need scheme = rk4, and why
_WORK = "needs the work integrals that only scheme = rk4 collects"
_STEPS = "steps by explicit RK4 only, so needs scheme = rk4"
_RK4_ONLY = {"simulate": _WORK, "audit": _WORK, "split": _STEPS, "expsplit": _STEPS}


def run_scenario(config: ScenarioConfig, subcommand: str, out_dir: str | Path = ".",
                 svg: bool = False, seed: int | None = None) -> int:
    """Execute a subcommand; emits CSVs plus summary.txt, returns the exit
    code. A `seed` overrides the config's [run] seed, which only attractor
    reads."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    if seed is not None and subcommand != "attractor":
        raise ConfigError(f"--seed overrides [run] seed, which only attractor reads; "
                          f"{subcommand} reads none")
    if subcommand in _RK4_ONLY and config["solver", "scheme"] == "semi_implicit":
        raise ConfigError(f"{subcommand} {_RK4_ONLY[subcommand]}, "
                          f"got scheme = semi_implicit")
    if seed is not None:
        config = ScenarioConfig({**config.sections,
                                 "run": {**config.sections["run"], "seed": seed}})
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create the output directory {str(out)!r}: {err}")
    try:
        entries = _COMMANDS[subcommand](config, out, svg)
    except RuntimeError as err:
        # blow-up, Newton/CG non-convergence, invariant drift
        write_summary(out / "summary.txt",
                      {"status": "RUNTIME_ERROR", "error": err})
        return 2
    ok = all(v for k, v in entries.items() if k.startswith("pass_"))
    summary = {"subcommand": subcommand, "status": "PASS" if ok else "FAIL"}
    for k, v in entries.items():
        summary[k] = ("PASS" if v else "FAIL") if k.startswith("pass_") else v
    write_summary(out / "summary.txt", summary)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bfflow",
        description="scenario runner for the slightly compressible "
                    "Brinkman-Forchheimer laboratory")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="scenario config path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--svg", action="store_true", help="emit SVG line plots")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the run seed (attractor only)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # usage errors are configuration errors; --help stays 0
        return 0 if err.code in (0, None) else 3
    try:
        text = Path(args.config).read_text()
        config = parse_config(text)
    except (OSError, ConfigError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 3
    try:
        return run_scenario(config, args.subcommand, args.out, svg=args.svg,
                            seed=args.seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
