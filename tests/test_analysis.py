"""Operator assembly, decay fits, audits, smoothing, ensembles."""

import numpy as np
import pytest

from bfflow import analysis as an
from bfflow import dynamics as dyn
from bfflow import grid as gr
from bfflow import reference as ref
from bfflow.cli import make_forcing, make_initial_state
from bfflow.grid import Grid
from bfflow.physics import MediumMatrix, NonlinearityParams
from bfflow.rng import SplitMix64

LINEAR = NonlinearityParams(0.0, 0.0)
QUINTIC = NonlinearityParams(1.0, 1.0, 0.0, l=2.0)


def _batch(states):
    """One batch (U, P) of (u, p) states, stacked on a leading member axis."""
    return tuple(map(np.stack, zip(*states)))


def _zero_state(g):
    return np.zeros((g.dim,) + g.shape), np.zeros(g.shape)


class TestAssembleOperator:
    def test_small_identity_medium(self):
        g = Grid(2, 4)
        op = an.assemble_operator(g, MediumMatrix.identity(2))
        assert op.symmetry_defect <= 1e-12
        assert op.eigmin > 0.0
        assert op.eigenvectors.shape == (15, 15)

    def test_scaling_in_medium(self):
        g = Grid(2, 4)
        s1 = an.assemble_operator(g, MediumMatrix.identity(2)).spectrum
        s3 = an.assemble_operator(g, MediumMatrix(3.0 * np.eye(2))).spectrum
        assert np.abs(s3 / s1 - 3.0).max() <= 1e-10

    def test_against_independent_dense_build(self):
        # oracle: explicit dense algebra from the Kronecker matrices
        g = Grid(2, 8)
        D = MediumMatrix.diagonal([1.0, 2.0])
        op = an.assemble_operator(g, D)
        G = ref.dense_gradient(g)
        lap = ref.dense_scalar_laplacian(g)
        N = g.num_nodes
        Dk = np.kron(D.entries, np.eye(N))
        dense = G.T @ Dk @ np.linalg.solve(-np.kron(np.eye(2), lap), G)
        A_red = op.basis.T @ dense @ op.basis
        eig_dense = np.linalg.eigvalsh(0.5 * (A_red + A_red.T))
        assert op.eigmin > 0.0
        assert op.eigmin == pytest.approx(eig_dense[0], rel=1e-8)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            an.assemble_operator(Grid(2, 80), MediumMatrix.identity(2))


@pytest.fixture(scope="module")
def op():
    return an.assemble_operator(Grid(2, 8), MediumMatrix.diagonal([1.0, 2.0]))


class TestSemigroupDecay:

    def test_l2_rate_bounded_by_eigmin(self, op):
        fit = an.semigroup_decay(op, 0.0, t_max=4.0 / op.eigmin)
        assert fit.rate <= -op.eigmin * 0.95

    def test_h1_rate_negative(self, op):
        fit = an.semigroup_decay(op, 1.0, t_max=4.0 / op.eigmin)
        assert fit.rate < 0.0

    def test_slowest_eigenvector_rate_exact(self, op):
        g = op.grid
        c0 = op.eigenvectors[:, 0]
        ts = np.linspace(0.0, 2.0 / op.eigmin, 20)
        for delta in (0.0, 0.25, 0.5, 0.75, 1.0):
            norms = [gr.spectral_norm((op.basis @ op.propagate_coeffs(c0, t)).reshape(g.shape),
                                      g, delta) for t in ts]
            fit = an.fit_decay(ts, norms)
            assert fit.rate == pytest.approx(-op.eigmin, rel=1e-6)

    def test_delta_validated(self, op):
        with pytest.raises(ValueError):
            an.semigroup_decay(op, 1.5)


class TestFitDecay:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 3.0, 10)
        fit = an.fit_decay(t, 2.0 * np.exp(-3.0 * t))
        assert fit.c == pytest.approx(2.0, abs=1e-12)
        assert fit.rate == pytest.approx(-3.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        t = np.linspace(0.0, 1.0, 8)
        fit = an.fit_decay(t, np.full(8, 4.2))
        assert abs(fit.rate) <= 1e-12

    def test_noisy_recovery(self):
        rng = SplitMix64(211)
        t = np.linspace(0.0, 2.0, 40)
        v = 5.0 * np.exp(-t) + 1e-6 * rng.normal(40)
        fit = an.fit_decay(t, v)
        assert -1.01 <= fit.rate <= -0.99

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            an.fit_decay([0, 1, 2], [1.0, -1.0, 1.0])
        with pytest.raises(ValueError):
            an.fit_decay([0, 1], [1.0, 1.0])

    def test_window_selects_points(self):
        # the fit's window is the span of the times it was given
        t = np.linspace(0.0, 10.0, 50)
        inside = (t >= 2.0) & (t <= 8.0)
        fit = an.fit_decay(t[inside], np.exp(-t[inside]))
        assert fit.window == (t[inside][0], t[inside][-1])
        assert fit.window[0] >= 2.0 and fit.window[1] <= 8.0
        assert fit.rate == pytest.approx(-1.0, abs=1e-10)


class TestEnergyAudit:
    def _run(self, dt, n=8, t_max=0.25, conv=False, D=None, seed=303):
        g = Grid(2, n)
        D = D or MediumMatrix.diagonal([1.0, 2.0])
        state = make_initial_state(g, "smooth", 1.0, seed=seed)
        rng = SplitMix64(seed + 1)
        gf = 0.3 * rng.normal((2,) + g.shape)
        cfg = dyn.SolverConfig(dt=dt)
        traj = dyn.simulate(state, g, cfg, gf, D, QUINTIC, t_max,
                            snapshot_every=max(1, int(round(t_max / dt / 8))),
                            convective_on=conv, collect_work=True)
        return dyn, an.energy_audit(traj, eps=0.0), traj

    def test_zero_trajectory_zero_residuals(self):
        g = Grid(2, 8)
        D = MediumMatrix.identity(2)
        traj = dyn.simulate(_zero_state(g), g, dyn.SolverConfig(dt=1e-3),
                            np.zeros((2,) + g.shape), D, QUINTIC, 0.05,
                            collect_work=True)
        audit = an.energy_audit(traj)
        assert np.all(audit.residual_trap == 0.0)
        assert np.all(audit.residual_stage == 0.0)

    def test_residual_orders_under_halving(self):
        _, a1, _ = self._run(4e-4)
        _, a2, _ = self._run(2e-4)
        # stage-quadrature residual: integrated L1 drops by >= 8 (about 32)
        tot1 = np.abs(a1.residual_stage).sum() * 4e-4
        tot2 = np.abs(a2.residual_stage).sum() * 2e-4
        assert tot1 / tot2 >= 8.0
        # trapezoid residual: pointwise third order (ratio about 8)
        m1 = np.abs(a1.residual_trap).max()
        m2 = np.abs(a2.residual_trap).max()
        assert 5.0 <= m1 / m2 <= 12.0

    def test_stage_residual_order_sweep(self):
        # seeded even sizes and seeds, 2D and 3D, convection off and on: at
        # an eighth of the CFL bound, halving dt shrinks the integrated stage
        # residual by >= 8 (about 32)
        rng = SplitMix64(2718)
        for dim in (2, 3):
            for conv in (False, True):
                for _ in range(3):
                    n = 2 * int(rng.integers(3, 7) if dim == 2 else rng.integers(2, 4))
                    g = Grid(dim, n)
                    seed = int(rng.integers(1, 1 << 30))
                    D = MediumMatrix.diagonal((1.0, 2.0, 1.5)[:dim])
                    forcing = make_forcing(g, "fixed_random", seed=seed, amplitude=1.0)
                    state = make_initial_state(g, "smooth", 1.0, seed=seed + 1)
                    dt = 0.125 * dyn.cfl_limit(g, D)
                    st = an.audit_study(state, g, dyn.SolverConfig(dt=dt), forcing, D, QUINTIC,
                                        32 * dt, (dt, dt / 2.0), conv)
                    assert st.ratios[0] >= 8.0, (dim, conv, g.n, seed, st.totals)

    def test_convective_work_negligible_with_identity_medium(self):
        _, audit, traj = self._run(4e-4, conv=True, D=MediumMatrix.identity(2))
        bw = np.abs(traj.endpoint_terms[:, 3]).max()
        scale = np.abs(traj.endpoint_terms[:, 0]).max()
        assert bw <= 1e-12 * max(scale, 1.0)
        tot = np.abs(audit.residual_stage).sum() * 4e-4
        assert tot <= 1e-10

    def test_decay_surrogate_no_violation(self):
        # unforced monotone quintic inside the certified window: the
        # minus-coupled functional obeys dE/dt + eps E <= 0 along the run
        g = Grid(2, 8)
        D = MediumMatrix.diagonal([1.0, 2.0])
        state = make_initial_state(g, "smooth", 1.0, seed=307)
        cfg = dyn.SolverConfig(dt=1e-3)
        traj = dyn.simulate(state, g, cfg, np.zeros((2,) + g.shape), D, QUINTIC, 1.0,
                            snapshot_every=5, collect_work=True)
        audit = an.energy_audit(traj, eps=0.05)
        scale = audit.e_eps_series[0]
        assert audit.gp_violation.max() <= 1e-8 * scale

    def test_requires_collected_series(self):
        g = Grid(2, 8)
        traj = dyn.simulate(_zero_state(g), g, dyn.SolverConfig(dt=1e-3),
                            np.zeros((2,) + g.shape), MediumMatrix.identity(2),
                            QUINTIC, 0.01)
        with pytest.raises(ValueError):
            an.energy_audit(traj)


class TestSmoothing:
    def _smoothing_sup(self, n, seed=401, conv=False):
        # fixed band-limited forcing: the same function on every grid, so the
        # weighted sup is a grid-convergent quantity; the white-noise datum
        # still drives the t -> 0 transient that the weight must tame
        g = Grid(2, n)
        D = MediumMatrix.identity(2)
        state = make_initial_state(g, "white_pressure", 1.0, seed=seed)
        gf = make_forcing(g, "band_random", seed=11, amplitude=5.0)
        cfg = dyn.SolverConfig(dt=0.5 * dyn.cfl_limit(g, D))
        targets = [2.0 ** -k for k in range(9, -1, -1)]
        traj = dyn.simulate(state, g, cfg, gf, D, QUINTIC, 1.0,
                            snapshot_times=targets, convective_on=conv)
        return an.smoothing_report(traj)

    def test_smooth_data_no_singular_layer(self):
        g = Grid(2, 8)
        D = MediumMatrix.identity(2)
        state = make_initial_state(g, "smooth", 1.0, seed=403)
        cfg = dyn.SolverConfig(dt=1e-3)
        targets = [2.0 ** -k for k in range(9, -1, -1)]
        traj = dyn.simulate(state, g, cfg, np.zeros((2,) + g.shape), D, QUINTIC, 1.0,
                            snapshot_times=targets)
        rep = an.smoothing_report(traj)
        sys = dyn._FullSystem(g, D, QUINTIC, np.zeros((2,) + g.shape), False)
        du0, _ = sys.rhs(*state)
        unweighted = g.cell_volume * np.vdot(du0, du0)
        assert rep.weighted_sups["t^2|du_dt|^2"] <= 2.0 * unweighted

    def test_rough_pressure_sup_stable_under_refinement(self):
        s8 = self._smoothing_sup(8).weighted_sups["t^2|du_dt|^2"]
        s16 = self._smoothing_sup(16).weighted_sups["t^2|du_dt|^2"]
        assert 0.5 <= s8 / s16 <= 2.0

    def test_convective_weight_finite(self):
        rep = self._smoothing_sup(8, conv=True)
        assert np.isfinite(rep.weighted_sups["t^(8/3)|du_dt|^2"])


def _dist_to_ball(u, p, g, radius):
    """Distance of one state (u, p) to the higher-energy ball of `radius`."""
    c = an._state_coefficients(u, p, g)
    return an._ball_distances(c[None], *an._spectral_weights(g), radius)[0]


class TestDistToBall:
    def test_inside_ball_zero(self):
        g = Grid(2, 8)
        state = make_initial_state(g, "smooth", 0.1, seed=501)
        assert _dist_to_ball(*state, g, 1e6) == 0.0

    def test_single_mode_exact_distance(self):
        # one sine coefficient: the nearest ball point is radial clipping
        g = Grid(2, 8)
        u = np.stack([gr.sine_mode(g, (1, 1)), np.zeros(g.shape)])
        p = np.zeros(g.shape)
        lam = 2.0 * (4.0 / g.h ** 2) * np.sin(np.pi * g.h / 2.0) ** 2
        # a fraction of the mode's higher-energy norm; at 0.01 the bisection
        # must first grow its bracket
        for fraction in (0.25, 0.01):
            got = _dist_to_ball(u, p, g, fraction * lam)
            exact = np.sqrt(lam) * (1.0 - fraction)
            assert got == pytest.approx(exact, rel=1e-8)


def _seeded_snaps(g, B, S, seed, scales):
    """Times and stacked (U, P) of S snapshots of B random members; member
    m is scaled by scales[m]."""
    rng = SplitMix64(seed)
    scale = np.reshape(scales, (B,) + (1,) * g.dim)
    U, P = np.empty((S, B, g.dim) + g.shape), np.empty((S, B) + g.shape)
    for k in range(S):
        U[k] = rng.normal((B, g.dim) + g.shape) * scale[:, None]
        P[k] = gr.mean_project_array(rng.normal((B,) + g.shape) * scale, g.dim)
    return [0.1 * k for k in range(S)], U, P


class TestEnsembleReport:
    """The batched report against per-member and per-pair evaluation."""

    def _check(self, g, snap_times, Us, Ps):
        rep = an.ensemble_report_from_snaps(g, snap_times, Us, Ps)
        B = Us.shape[1]
        q0 = len(Us) - max(1, len(Us) // 4)
        # the higher-energy norm, spectral H2 of u and H1 of p, field by field
        r_ball = 2.0 * max(np.sqrt(gr.spectral_norm(U[0], g, 2.0) ** 2
                                   + gr.spectral_norm(P[0], g, 1.0) ** 2)
                           for U, P in zip(Us[q0:], Ps[q0:]))
        assert rep.r_ball == pytest.approx(r_ball, rel=1e-12)
        assert np.array_equal(rep.dist_to_ball_series[:, 0], snap_times)
        assert np.array_equal(rep.diam_series[:, 0], snap_times)
        w_e, w_e1 = an._spectral_weights(g)
        for k, (U, P) in enumerate(zip(Us, Ps)):
            # the batched bisection gives each row what it gives that row alone
            c = an._state_coefficients(U, P, g)
            batched = an._ball_distances(c, w_e, w_e1, rep.r_ball)
            alone = [an._ball_distances(c[m:m + 1], w_e, w_e1, rep.r_ball)[0]
                     for m in range(B)]
            assert np.array_equal(batched, alone)
            dists = [_dist_to_ball(U[m], P[m], g, rep.r_ball) for m in range(B)]
            assert rep.dist_to_ball_series[k, 1] == pytest.approx(max(dists),
                                                                  rel=1e-12)
            pairs = [an.energy_norm(U[i] - U[j], P[i] - P[j], g)
                     for i in range(B) for j in range(i + 1, B)]
            assert rep.diam_series[k, 1] == pytest.approx(max(pairs, default=0.0),
                                                          rel=1e-12)
        return rep

    def test_members_outside_the_ball(self):
        g = Grid(2, 8)
        times, U, P = _seeded_snaps(g, 5, 12, 801, [1.0, 3.0, 0.5, 2.5, 1.0])
        rep = self._check(g, times, U, P)
        assert np.count_nonzero(rep.dist_to_ball_series[:, 1]) >= 6

    def test_blocked_bisection_matches_one_block(self, monkeypatch):
        g = Grid(2, 8)
        times, U, P = _seeded_snaps(g, 5, 12, 801, [1.0, 3.0, 0.5, 2.5, 1.0])
        whole = an.ensemble_report_from_snaps(g, times, U, P)
        monkeypatch.setattr(an, "_BISECT_BLOCK", 3 * 192)  # 3 rows a block
        blocked = an.ensemble_report_from_snaps(g, times, U, P)
        assert np.array_equal(blocked.dist_to_ball_series,
                              whole.dist_to_ball_series)

    def test_all_inside_the_ball(self):
        g = Grid(2, 8)
        times, U, P = _seeded_snaps(g, 4, 8, 803, [1.0, 0.1, 0.1, 0.1])
        U[:, 0], P[:, 0] = U[-1, 0], P[-1, 0]  # member 0 fixed: always in the ball
        rep = self._check(g, times, U, P)
        assert np.all(rep.dist_to_ball_series[:, 1] == 0.0)

    def test_single_member_has_zero_diameter(self):
        g = Grid(3, 4)
        times, U, P = _seeded_snaps(g, 1, 6, 805, [1.0])
        rep = self._check(g, times, U, P)
        assert rep.ensemble_size == 1
        assert np.all(rep.diam_series[:, 1] == 0.0)

    @staticmethod
    def _distances_after_200_halvings(c, w, v, radius):
        """The bisection of `an._ball_distances` without its early stop."""
        r2 = radius * radius
        out = np.zeros(len(c))
        far = np.sum(v * c * c, axis=-1) > r2
        c = c[far]

        def constraint(mu):
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
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        mu = (0.5 * (lo + hi))[:, None]
        gap = c * (mu * v) / (w + mu * v)
        out[far] = np.sqrt(np.sum(w * gap * gap, axis=-1))
        return out

    @pytest.mark.parametrize("dim", [2, 3])
    def test_early_stop_equals_200_halvings(self, dim):
        # rows inside and outside the ball, and rows scaled up to 1e20,
        # whose hi grows towards (and past) 1e18 before the halvings
        g = Grid(dim, 4)
        rng = SplitMix64(807 + dim)
        w_e, w_e1 = an._spectral_weights(g)
        scales = 10.0 ** np.concatenate([5.0 * rng.uniform(40) - 2.0,
                                         np.arange(4.0, 21.0)])
        c = rng.normal((len(scales), w_e.size)) * scales[:, None]
        radius = float(np.sqrt(np.sum(w_e1 * c[0] * c[0])))
        got = an._ball_distances(c, w_e, w_e1, radius)
        assert np.array_equal(got, self._distances_after_200_halvings(c, w_e, w_e1, radius))
        assert 0 < np.count_nonzero(got) < len(c)


class TestEnsemble:
    def test_identical_members_zero_diameter(self):
        g = Grid(2, 8)
        D = MediumMatrix.identity(2)
        s = make_initial_state(g, "smooth", 1.0, seed=601)
        rep = an.ensemble_study(_batch([s, s, s]), g, dyn.SolverConfig(dt=2e-3),
                                np.zeros((2,) + g.shape), D, LINEAR, t_max=0.2,
                                snapshot_every=25)
        assert np.all(rep.diam_series[:, 1] <= 1e-13)

    def test_linear_unforced_contracts(self):
        g = Grid(2, 8)
        D = MediumMatrix.diagonal([1.0, 2.0])
        states = [make_initial_state(g, "smooth", a, seed=610 + i)
                  for i, a in enumerate((0.5, 1.0, 2.0, 4.0))]
        rep = an.ensemble_study(_batch(states), g, dyn.SolverConfig(dt=2e-3),
                                np.zeros((2,) + g.shape), D, LINEAR, t_max=4.0,
                                snapshot_every=100)
        diam = rep.diam_series
        fit = an.fit_decay(diam[:, 0], diam[:, 1])
        assert fit.rate < 0.0
        # unforced linear flow: the ball shrinks with its reference member,
        # so the distance decays at the semigroup rate (not to zero exactly)
        dist = rep.dist_to_ball_series
        dfit = an.fit_decay(dist[:, 0][dist[:, 1] > 0], dist[:, 1][dist[:, 1] > 0])
        assert dfit.rate < 0.0
        assert dist[-1, 1] <= 0.15 * dist[0, 1]

    def test_box_counts_monotone(self):
        rng = SplitMix64(617)
        pts = rng.normal((500, 2))
        counts = an.box_counts(pts)
        by_scale = sorted(counts)
        assert all(c1 >= c0 for (_, c0), (_, c1) in
                   zip(by_scale[1:], by_scale[:-1])) or True
        # scales descend in construction order; counts must not decrease
        assert all(c1 >= c0 for (_, c0), (_, c1) in zip(counts, counts[1:]))

    def test_member_blowup_named(self):
        g = Grid(2, 8)
        D = MediumMatrix.identity(2)
        ok = make_initial_state(g, "smooth", 1.0, seed=621)
        hot = (80.0 * ok[0], ok[1])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(dyn.BlowUpError) as err:
                an.ensemble_study(_batch([ok, hot]), g, dyn.SolverConfig(dt=2e-3),
                                  np.zeros((2,) + g.shape), D, QUINTIC, t_max=1.0,
                                  snapshot_every=50)
        assert "member 1" in str(err.value)
        assert err.value.member == 1
        assert err.value.step_count == 1

    def test_reproducible_bitwise(self):
        g = Grid(2, 8)
        D = MediumMatrix.identity(2)
        states = _batch([make_initial_state(g, "smooth", 1.0, seed=631 + i)
                         for i in range(3)])
        r1 = an.ensemble_study(states, g, dyn.SolverConfig(dt=2e-3),
                               np.zeros((2,) + g.shape), D, QUINTIC, t_max=0.2,
                               snapshot_every=25)
        r2 = an.ensemble_study(states, g, dyn.SolverConfig(dt=2e-3),
                               np.zeros((2,) + g.shape), D, QUINTIC, t_max=0.2,
                               snapshot_every=25)
        assert np.array_equal(r1.diam_series, r2.diam_series)
        assert np.array_equal(r1.dist_to_ball_series, r2.dist_to_ball_series)


class TestEnvelope:
    def test_envelope_touches_from_above(self):
        t = np.linspace(0.0, 2.0, 30)
        v = np.exp(0.5 * t) * (1.0 + 0.05 * np.sin(8 * t))
        C, K = an.fit_envelope(t, v)
        assert np.all(v <= C * np.exp(K * t) * (1 + 1e-12))
        assert K == pytest.approx(0.5, abs=0.1)
