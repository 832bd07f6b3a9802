"""Seeded scenario configs for the benchmark workloads, and their checks.

The benchmark seed sets every seed a config carries (forcing, initial data,
run); sizes, horizons and physics are fixed per workload, so every seed does
the same kind and amount of work. Reference verdicts and gated summary
numbers for DEFAULT_SEED live in references.json next to this file.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
REFERENCES = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Workload:
    subcommand: str
    template: str
    # summary keys compared against the references, with (rtol, atol)
    gated: dict[str, tuple[float, float]]


_QUINTIC = """[nonlinearity]
alpha = 1
beta = 1
l = 2
"""

WORKLOADS = {
    # Batched explicit RK4 of six members on 8x8; no CG at all. The medium
    # D = 4 I makes the ensemble enter the ball within t = 7 (D = I needs
    # t = 30), keeping one invocation near a second and a half. Forcing
    # amplitude 2 and a 0.1 stride leave at least 5 snapshots with a member
    # outside the ball, so the distance fit and the drop check both run.
    "ensemble": Workload("attractor", """[grid]
dim = 2
n = 8
[medium]
diag = 4, 4
""" + _QUINTIC + """[forcing]
kind = fixed_random
seed = {forcing_seed}
amplitude = 2
[scenario]
ensemble_size = 6
[run]
t_max = 7
snapshot_stride = 0.1
seed = {run_seed}
""", {"r_ball": (1e-6, 1e-12), "dist_rate": (1e-6, 1e-9),
      "dist_r2": (1e-6, 1e-9), "dist_final": (1e-6, 1e-9)}),

    # Truncated (quasi-static) splitting on 16x16: every RK4 stage is three
    # Newton elliptic solves with unpreconditioned CG inside. The CLI holds
    # split to the full-system RK4 CFL step, so dt is about 7.8e-4.
    "quasistatic": Workload("split", """[grid]
dim = 2
n = 16
""" + _QUINTIC + """[forcing]
kind = band_random
seed = {forcing_seed}
[initial]
kind = white_pressure
seed = {initial_seed}
[scenario]
split_kind = trunc
[run]
t_max = 0.01
snapshot_stride = 0.0005
""", {"q_rate": (1e-6, 1e-9), "q_r2": (1e-6, 1e-9),
      "r_sup_late": (1e-6, 1e-12), "r_at_window_start": (1e-6, 1e-12),
      # recombination defects sit at the Newton tolerance, not at a physical
      # value; a different solver may move them anywhere far below the
      # 1e-6 gate that run_split enforces
      "recombination_p": (0.0, 1e-8), "recombination_u": (0.0, 1e-8)}),

    # Two semi-implicit runs on 32x32 (lipschitz): PCG in the D-weighted
    # metric, preconditioned through sine transforms. simulate and audit
    # crash on semi_implicit, so this path is reached through lipschitz.
    "dissipative": Workload("lipschitz", """[grid]
dim = 2
n = 32
[medium]
diag = 1, 2
""" + _QUINTIC + """[forcing]
kind = fixed_random
seed = {forcing_seed}
[initial]
kind = smooth
seed = {initial_seed}
[solver]
scheme = semi_implicit
dt = 0.01
[run]
t_max = 3
snapshot_stride = 0.1
""", {"envelope_C": (1e-6, 1e-12), "envelope_K": (1e-6, 1e-9)}),
    # (max_excess is not gated: fit_envelope lifts C until the envelope
    # touches the series, so it reads 1 for any input)

    # Single-state RK4 at the CFL step on 32x32 with per-stage work
    # integrals, then the eps-coupled energy audit: one nested-CG bogovski
    # per snapshot.
    "energy": Workload("simulate", """[grid]
dim = 2
n = 32
[medium]
diag = 1, 2
""" + _QUINTIC + """[forcing]
kind = fixed_random
seed = {forcing_seed}
[initial]
kind = smooth
seed = {initial_seed}
[scenario]
eps = 0.05
[run]
t_max = 0.05
snapshot_stride = 0.01
""", {"final_t": (1e-12, 0.0),
      # a sum of per-step energy-identity residuals of about 1e-7; rounding
      # in the state moves it by about 1e-14 per step
      "residual_total": (1e-5, 1e-12)}),
}


def config_text(workload: str, seed: int) -> str:
    """The INI config of `workload` for benchmark seed `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    seeds = {key: rng.randrange(1, 1 << 31)
             for key in ("forcing_seed", "initial_seed", "run_seed")}
    w = WORKLOADS[workload]
    return (f"# perfbench workload {workload}, seed {seed}: "
            f"bfflow {w.subcommand}\n" + w.template.format(**seeds))


def read_summary(text: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def verdict_problems(summary: dict[str, str]) -> list[str]:
    """Every pass_* entry must read PASS, and there must be at least one."""
    verdicts = {k: v for k, v in summary.items() if k.startswith("pass_")}
    problems = [f"{k} = {v}" for k, v in verdicts.items() if v != "PASS"]
    if not verdicts:
        problems.append("summary has no pass_* verdicts")
    if summary.get("status") != "PASS":
        problems.append(f"status = {summary.get('status')}")
    return problems


def reference_problems(workload: str, summary: dict[str, str]) -> list[str]:
    """Gated numbers of a DEFAULT_SEED run against references.json."""
    ref = json.loads(REFERENCES.read_text())[workload]
    problems = []
    for key, want in ref["verdicts"].items():
        if summary.get(key) != want:
            problems.append(f"{key} = {summary.get(key)}, reference {want}")
    for key, (rtol, atol) in WORKLOADS[workload].gated.items():
        want = ref["numbers"][key]
        try:
            got = float(summary[key])
        except (KeyError, ValueError):
            problems.append(f"{key} missing or not a number")
            continue
        if not math.isclose(got, want, rel_tol=rtol, abs_tol=atol):
            problems.append(f"{key} = {got!r}, reference {want!r} "
                            f"(rtol {rtol:g}, atol {atol:g})")
    return problems
