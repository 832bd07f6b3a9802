"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
criterion. A threshold that a subcommand also applies is read from
`bfflow.analysis`, with the measurement both share. Scenario parameters not
pinned by a criterion (seeds, forcing amplitudes, fit windows) are fixed here
and documented inline.
"""

import time

import numpy as np
import pytest

from bfflow import analysis as an
from bfflow import dynamics as dyn
from bfflow import grid as gr
from bfflow import physics as ph
from bfflow import reference as ref
from bfflow.cli import ensemble_states, make_forcing, make_initial_state, perturbed_pair
from bfflow.grid import Grid
from bfflow.physics import MediumMatrix, NonlinearityParams
from bfflow.rng import SplitMix64

QUINTIC = NonlinearityParams(alpha=1.0, beta=1.0, gamma=0.0, l=2.0)


def _report(num: int, ok: bool, started: float, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} {status} ({time.time() - started:5.1f}s): {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c01_linear_oracle_equivalence():
    t0 = time.time()
    g = Grid(2, 8)
    D = MediumMatrix.diagonal([1.0, 2.0])
    state = make_initial_state(g, "smooth", 1.0, seed=705)
    # agreement at t = 0.5 with dt = 1e-4
    [rel] = ref.convergence_errors(state, g, D, 0.5, (1e-4,))
    # convergence order over three dt halvings; measured on a short horizon
    # where the transient error sits well above the rounding floor
    errs = ref.convergence_errors(state, g, D, 0.02, (4e-4, 2e-4, 1e-4))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    ok = rel <= 1e-6 and all(abs(o - 4.0) <= 0.3 for o in orders)
    _report(1, ok, t0, f"rel err {rel:.2e} (<=1e-6), orders "
                       + ", ".join(f"{o:.2f}" for o in orders) + " (4.0 +- 0.3)")


def test_c02_periodic_mode_oracle():
    t0 = time.time()
    n = 16
    modes = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    inits = [np.array([0.8, -0.4]), np.array([-0.5, 0.9]), np.array([1.0, 0.2]),
             np.array([0.3, 0.7]), np.array([-0.9, -0.1])]
    u0 = np.stack([ref.periodic_mode_fields(
        ref.ModeSolution(k, n, a, 0.0, 0.0))[0] for k, a in zip(modes, inits)])
    p0 = np.stack([ref.periodic_mode_fields(
        ref.ModeSolution(k, n, a, 0.0, 0.0))[1] for k, a in zip(modes, inits)])
    u1, p1 = ref.periodic_linear_run(u0, p0, n, dt=1e-4, t_max=0.5)
    worst = 0.0
    for i, (k, a) in enumerate(zip(modes, inits)):
        mode_t = ref.periodic_mode_solution(k, ref.ModeSolution(k, n, a, 0.0, 0.0), 0.5)
        ue, pe = ref.periodic_mode_fields(mode_t)
        scale = max(np.abs(u0[i]).max(), np.abs(p0[i]).max())
        worst = max(worst,
                    np.abs(u1[i] - ue).max() / scale,
                    np.abs(p1[i] - pe).max() / scale)
    _report(2, worst <= 1e-8, t0,
            f"worst mode defect {worst:.2e} (<=1e-8) over 5 lowest modes at t=0.5")


def test_c03_pressure_operator_spectrum():
    t0 = time.time()
    g = Grid(2, 16)
    media = [MediumMatrix.identity(2), MediumMatrix.diagonal([1.0, 2.0]),
             MediumMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))]
    details = []
    ok = True
    for D in media:
        st = an.spectrum_study(g, D, (0.0, 0.25, 0.5, 0.75, 1.0))
        op, rates = st.op, [f.rate for f in st.fits]
        ok = ok and op.symmetry_defect <= an.SYMMETRY_MAX and op.eigmin > 0 \
             and all(r < 0 for r in rates)
        details.append(f"defect {op.symmetry_defect:.1e}, eigmin {op.eigmin:.3f}, "
                       f"max rate {max(rates):.3f}")
    _report(3, ok, t0, " | ".join(details))


def _quintic_32_setup():
    g = Grid(2, 32)
    D = MediumMatrix.diagonal([1.0, 2.0])
    forcing = make_forcing(g, "fixed_random", seed=42, amplitude=1.0)
    return g, D, forcing


def test_c04_energy_identity_order():
    t0 = time.time()
    g, D, forcing = _quintic_32_setup()
    state = make_initial_state(g, "smooth", 1.0, seed=900)
    st = an.audit_study(state, g, dyn.SolverConfig(dt=2e-4), forcing, D, QUINTIC, 1.0,
                        (2e-4, 1e-4, 5e-5))
    totals, (r1, r2) = st.totals, st.ratios
    _report(4, min(r1, r2) >= an.AUDIT_RATIO_MIN, t0,
            f"integrated residual {totals[0]:.2e} -> {totals[1]:.2e} -> "
            f"{totals[2]:.2e}; ratios {r1:.1f}, {r2:.1f} (>={an.AUDIT_RATIO_MIN:g})")


def test_c05_dissipative_absorbing_ball():
    t0 = time.time()
    g, D, forcing = _quintic_32_setup()
    eps = 0.05
    eps_star = ph.certify_eps(g, D, n_samples=50, seed=2024)
    assert eps <= eps_star / 2.0  # inside the certified equivalence window
    # pressure-dominated single-mode profiles: one dominant approach rate,
    # so the log-linear fit is meaningful across the whole approach
    states = [make_initial_state(g, "mode", a, seed=910 + i, u_share=0.1)
              for i, a in enumerate((0.1, 1.0, 10.0))]
    states = tuple(map(np.stack, zip(*states)))  # one batch of three members
    # semi-implicit scheme: the integrator offered for long dissipativity
    # runs; the linear part is unconditionally damped, the explicit drag is
    # stable here (dt * sup f' well below the explicit bound)
    cfg = dyn.SolverConfig(dt=0.01, scheme="semi_implicit", cg_tol=1e-11)
    run = dyn.simulate(states, g, cfg, forcing, D, QUINTIC, 40.0,
                       snapshot_every=int(round(0.5 / cfg.dt)))
    times = run.times
    e_eps = np.zeros((3, len(times)))
    for j, (members_u, members_p) in enumerate(zip(run.u, run.p)):
        for m, (us, ps) in enumerate(zip(members_u, members_p)):
            assert np.isfinite(us).all() and np.isfinite(ps).all()
            p = ps - ps.mean()
            plain = gr.weighted_inner(D, us, us, g) + gr.inner(p, p, g)
            e_eps[m, j] = plain + 2.0 * eps * gr.inner(us, ph.bogovski(p, g), g)
    late = times >= 20.0
    sups = e_eps[:, late].max(axis=1)
    bound = 3.0 * sups.min()  # one shared bound for all three runs
    entered_by_20 = all(e_eps[m, late].max() <= bound for m in range(3))
    # approach phase of the largest run: fit the decaying stretch down to
    # twice the settled level
    settled = np.median(e_eps[2, late])
    dec_end = np.argmax(e_eps[2] <= 2.0 * settled)
    fit = an.fit_decay(times[:dec_end + 1], e_eps[2, :dec_end + 1])
    ok = entered_by_20 and fit.rate < 0 and fit.r_squared >= an.DECAY_R2_MIN
    _report(5, ok, t0,
            f"sups in [20,40]: {sups[0]:.3f}/{sups[1]:.3f}/{sups[2]:.3f} "
            f"<= shared bound {bound:.3f}; approach rate {fit.rate:.3f}, "
            f"r2 {fit.r_squared:.3f} (>={an.DECAY_R2_MIN:g})")


def test_c06_lipschitz_envelope():
    t0 = time.time()
    g = Grid(2, 16)
    D = MediumMatrix.diagonal([1.0, 2.0])
    forcing = make_forcing(g, "fixed_random", seed=43, amplitude=1.0)
    pair = perturbed_pair(make_initial_state(g, "smooth", 1.0, seed=930), g, 931, 1e-3)
    cfg = dyn.SolverConfig(dt=5e-4)
    st = an.lipschitz_study(pair, g, cfg, forcing, D, QUINTIC, 2.0, int(round(0.05 / cfg.dt)))
    ok = np.isfinite(st.K) and st.excess <= an.ENVELOPE_SLACK
    _report(6, ok, t0, f"envelope C={st.C:.3f}, K={st.K:.3f}; max point/envelope "
                       f"{st.excess:.4f} (<={an.ENVELOPE_SLACK:g}) over [0,2]")


def test_c07_exponential_attractor_split():
    t0 = time.time()
    g = Grid(2, 16)
    D = MediumMatrix.diagonal([1.0, 2.0])
    forcing = make_forcing(g, "fixed_random", seed=44, amplitude=1.0)
    pair = perturbed_pair(make_initial_state(g, "smooth", 1.0, seed=940), g, 941, 1e-3)
    cfg = dyn.SolverConfig(dt=5e-4)
    st = an.exp_split_study(pair, g, cfg, forcing, D, QUINTIC, 2.0, int(round(0.05 / cfg.dt)))
    fit, C, K, times, d0 = st.hat_fit, st.C, st.K, st.split.times, st.hat[0]
    finite = bool(np.isfinite(st.tilde_h1).all())
    covered = np.all(st.tilde_h1[1:] <= d0 * C * np.exp(K * times[1:]) * (1 + 1e-9))
    ok = fit.rate < 0 and fit.r_squared >= an.DECAY_R2_MIN and finite and covered \
         and np.isfinite(K)
    _report(7, ok, t0,
            f"hat rate {fit.rate:.3f} (r2 {fit.r_squared:.3f} >= {an.DECAY_R2_MIN:g}); "
            f"tilde H1 <= {C:.3f} e^({K:.3f} t) d0, recombination "
            f"{st.split.recombination:.1e}")


def test_c08_truncated_splitting():
    t0 = time.time()
    g = Grid(2, 16)
    D = MediumMatrix.diagonal([1.0, 2.0])
    forcing = make_forcing(g, "band_random", seed=45, amplitude=1.0)
    rng = SplitMix64(950)
    p0 = gr.mean_project_array(rng.normal(g.shape), g.dim)
    cfg = dyn.SolverConfig(dt=0.05, newton_tol=1e-12, cg_tol=1e-13)
    split = dyn.run_split(p0, g, forcing, cfg, D, QUINTIC, 50.0, snapshot_every=20)
    st = an.split_study(split, 0.25, 50.0)  # r window from t = 50/5 = 10
    ok = st.q_fit.rate < 0 and st.r_sup <= an.SPLIT_BOUND_FACTOR * st.r_at
    _report(8, ok, t0,
            f"(q,v) rate {st.q_fit.rate:.3f} (<0); sup_[10,50] |r|_H0.25 = "
            f"{st.r_sup:.4f} <= {an.SPLIT_BOUND_FACTOR:g} x {st.r_at:.4f}; recombination "
            f"{split.recombination_p:.1e}")


def test_c09_partial_smoothing():
    t0 = time.time()
    D = MediumMatrix.identity(2)

    def sup(n, seed, weight, convective_on=False):
        # fixed band-limited forcing: same function on both grids, so the
        # measured sup is grid-convergent (the unforced white-noise sup is
        # transient-dominated and shrinks with h by itself)
        g = Grid(2, n)
        rep = an.smoothing_study(make_initial_state(g, "white_pressure", 1.0, seed=seed), g,
                                 dyn.SolverConfig(dt=0.5 * dyn.cfl_limit(g, D)),
                                 make_forcing(g, "band_random", seed=11, amplitude=5.0),
                                 D, QUINTIC, convective_on)
        return rep.weighted_sups[weight]

    sups = {n: sup(n, 401, "t^2|du_dt|^2") for n in (16, 32)}
    ratio = sups[16] / sups[32]
    # convective variant: l = 2, beta = 1, identity medium
    conv_sup = sup(16, 402, "t^(8/3)|du_dt|^2", convective_on=True)
    ok = 0.5 <= ratio <= 2.0 and np.isfinite(conv_sup)
    _report(9, ok, t0,
            f"sup t^2|du|^2: 16^2 {sups[16]:.3e} vs 32^2 {sups[32]:.3e} "
            f"(ratio {ratio:.2f}, within 2); convective t^(8/3) sup "
            f"{conv_sup:.3e} finite")


def test_c10_bogovski_right_inverse():
    t0 = time.time()
    worst = 0.0
    for n in (16, 32):
        g = Grid(2, n)
        rng = SplitMix64(960 + n)
        for _ in range(20):
            p = gr.mean_project_array(rng.normal(g.shape), g.dim)
            w = ph.bogovski(p, g)
            res = gr.norm_l2(gr.div_array(w, g.h, g.dim) - p, g)
            worst = max(worst, res / gr.norm_l2(p, g))
    _report(10, worst <= 1e-8, t0,
            f"worst div residual {worst:.2e} (<=1e-8) over 20 fields "
            f"on 16^2 and 32^2")


def test_c11_convective_skew_symmetry():
    t0 = time.time()
    g = Grid(2, 16)
    rng = SplitMix64(970)
    worst = 0.0
    for _ in range(100):
        u = rng.normal((2,) + g.shape)
        v = rng.normal((2,) + g.shape)
        val = abs(gr.inner(ph.convective_array(u, v, g.h, g.dim), v, g))
        worst = max(worst, val / (gr.norm_l2(u, g) * gr.norm_l2(v, g) ** 2))
    _report(11, worst <= 1e-12, t0,
            f"worst |<B(u,v),v>| / (|u||v|^2) = {worst:.2e} (<=1e-12), 100 pairs")


def test_c12_attraction_to_higher_ball():
    t0 = time.time()
    g = Grid(2, 16)
    D = MediumMatrix.diagonal([1.0, 2.0])
    forcing = make_forcing(g, "fixed_random", seed=46, amplitude=1.0)
    cfg = dyn.SolverConfig(dt=5e-4)
    # members drawn from seeds 1000-1015, as `attractor` does at [run] seed = 0
    report = an.ensemble_study(ensemble_states(g, 16, seed=0), g, cfg, forcing, D,
                               QUINTIC, 50.0, snapshot_every=int(round(0.5 / cfg.dt)))
    dist = report.dist_to_ball_series
    at_1 = dist[np.argmin(np.abs(dist[:, 0] - 1.0)), 1]
    final = dist[-1, 1]
    pos = dist[:, 1] > 0
    fit = an.fit_decay(dist[pos, 0], dist[pos, 1])
    ok = final <= an.DIST_DROP * at_1 and fit.rate < 0 and fit.r_squared >= an.DIST_R2_MIN
    _report(12, ok, t0,
            f"dist(50) {final:.2e} <= {an.DIST_DROP:g} x dist(1) {at_1:.2e}; "
            f"fit rate {fit.rate:.3f}, r2 {fit.r_squared:.3f} (>={an.DIST_R2_MIN:g}); "
            f"ball radius {report.r_ball:.3f}")
