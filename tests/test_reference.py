"""Dense propagator, periodic mode oracle, residuals of the equations."""

import numpy as np
import pytest

from bfflow import dynamics as dyn
from bfflow import grid as gr
from bfflow import reference as ref
from bfflow.cli import make_initial_state
from bfflow.grid import Grid
from bfflow.physics import MediumMatrix, NonlinearityParams
from bfflow.rng import SplitMix64

LINEAR = NonlinearityParams(0.0, 0.0)
QUINTIC = NonlinearityParams(1.0, 1.0, 0.0, l=2.0)


class TestDenseMatrices:
    def test_kron_build_matches_stencils(self):
        # cross-validation of two independent constructions
        g = Grid(2, 6)
        rng = SplitMix64(701)
        p = rng.normal(g.shape)
        got = (ref.dense_gradient(g) @ p.ravel()).reshape((2,) + g.shape)
        want = gr.grad_array(p, g.h, g.dim)
        assert np.abs(got - want).max() <= 1e-13
        got_l = (ref.dense_scalar_laplacian(g) @ p.ravel()).reshape(g.shape)
        want_l = gr.lap_array(p, g.h, g.dim)
        assert np.abs(got_l - want_l).max() <= 1e-10


@pytest.fixture(scope="module")
def prop():
    return ref.build_propagator(Grid(2, 6), MediumMatrix.diagonal([1.0, 2.0]))


class TestPropagator:

    def test_identity_at_t0(self, prop):
        E0 = prop.matrix_exp(0.0)
        assert np.abs(E0 - np.eye(E0.shape[0])).max() <= 1e-13

    def test_semigroup_property(self, prop):
        rng = SplitMix64(703)
        z = rng.normal(prop.generator.shape[0])
        a = prop.matrix_exp(0.2) @ (prop.matrix_exp(0.3) @ z)
        b = prop.matrix_exp(0.5) @ z
        assert np.abs(a - b).max() <= 1e-10 * max(1.0, np.abs(b).max())

    def test_generator_dissipative(self, prop):
        assert prop.eigenvalues.real.max() <= 1e-10

    def test_size_guard(self):
        with pytest.raises(ValueError):
            ref.build_propagator(Grid(2, 16), MediumMatrix.identity(2))

    def test_taylor_expm_agrees_with_eig(self, prop):
        A = prop.generator
        direct = ref._expm_dense(A * 0.1)
        assert np.abs(direct - prop.matrix_exp(0.1)).max() <= 1e-10

    def test_rk4_global_order(self, prop):
        # short horizon keeps the transient error above the rounding floor
        g = prop.grid
        state = make_initial_state(g, "smooth", 1.0, seed=705)
        horizon = 0.02
        ue, pe = prop.apply(*state, horizon)
        errs = []
        for dt in (4e-4, 2e-4, 1e-4):
            traj = dyn.simulate(state, g, dyn.SolverConfig(dt=dt),
                                np.zeros((2,) + g.shape), prop.D, LINEAR, horizon,
                                snapshot_every=10 ** 9)
            u, p = traj.u[-1], traj.p[-1]
            errs.append(np.sqrt(np.sum((u - ue) ** 2) + np.sum((p - pe) ** 2)))
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        for o in orders:
            assert abs(o - 4.0) <= 0.3

    def test_exceptional_point_takes_the_taylor_fallback(self):
        # d was found by bisecting on d where a real eigenvalue pair of the
        # generator meets and turns complex: within 1e-13 of such a point the
        # eigenvector condition passes the 1e8 switch (about 5e9 here), so an
        # admissible medium reaches the fallback, and RK4 still converges to
        # the fallback's propagator at fourth order
        g = Grid(2, 4)
        D = MediumMatrix.diagonal([1.0, 1332.7698924020224])
        assert ref.build_propagator(g, D).used_fallback
        state = make_initial_state(g, "smooth", 1.0, seed=709)
        errs = ref.convergence_errors(state, g, D, 0.05, (1e-3, 5e-4, 2.5e-4))
        for a, b in zip(errs, errs[1:]):
            assert abs(np.log2(a / b) - 4.0) <= 0.3


def _mode_energy(mode):
    """b |a|^2 + |p|^2 of a mode's potential pair, nonincreasing along the
    mode flow."""
    _, b = mode.symbols
    a, p = mode.potential_pair
    return float(b * a * a + p * p)


class TestModeOracle:
    def test_zero_init(self):
        out = ref.periodic_mode_solution((1, 0), (0.0, 0.0), 1.0, n=8)
        assert np.all(out.potential_pair == 0.0)
        assert out.solenoidal_amp == 0.0

    def test_frozen_continuum_oscillator(self):
        # analytic 2x2 exponential at |k|^2 = 1: eigenvalues (-1 +- i sqrt 3)/2
        M = np.array([[-1.0, -1.0], [1.0, 0.0]])
        out = ref._exp2x2(M, 1.0) @ np.array([1.0, 0.0])
        assert out[0] == pytest.approx(0.1261929582770086, rel=1e-12)
        assert out[1] == pytest.approx(0.53350719511469302, rel=1e-12)

    def test_mode_energy_nonincreasing(self):
        rng = SplitMix64(707)
        for _ in range(20):
            init = tuple(rng.normal(2))
            mode0 = ref.periodic_mode_solution((1, 1), init, 0.0, n=8)
            energies = [_mode_energy(ref.periodic_mode_solution((1, 1), init, t, n=8))
                        for t in np.linspace(0.0, 1.0, 11)]
            assert all(b <= a * (1 + 1e-12) for a, b in zip(energies, energies[1:]))
            assert _mode_energy(mode0) == pytest.approx(energies[0])

    def test_oscillator_eigenvalues_nonpositive_real(self):
        for k in ((1, 0), (1, 1), (3, 2), (4, 4)):
            mode = ref.ModeSolution(k, 8, np.array([1.0, 0.0]), 0.0, 0.0)
            w = np.linalg.eigvals(mode.oscillator_matrix())
            assert w.real.max() <= 1e-12


class TestPeriodicStepper:
    def test_matches_mode_solution(self):
        n = 8
        k = (1, 0)
        mode0 = ref.ModeSolution(k, n, np.array([0.7, -0.3]), 0.0, 0.0)
        u0, p0 = ref.periodic_mode_fields(mode0)
        u1, p1 = ref.periodic_linear_run(u0, p0, n, dt=5e-4, t_max=0.1)
        mode1 = ref.periodic_mode_solution(k, mode0, 0.1)
        ue, pe = ref.periodic_mode_fields(mode1)
        scale = max(np.abs(ue).max(), np.abs(pe).max())
        assert np.abs(u1 - ue).max() <= 1e-9 * scale
        assert np.abs(p1 - pe).max() <= 1e-9 * scale

    def test_solenoidal_mode_rides_heat_factor(self):
        n = 8
        h = 1.0 / n
        k = (1, 2)
        x = np.arange(n) * h
        X, Y = np.meshgrid(x, x, indexing="ij")
        phase = 2 * np.pi * (k[0] * X + k[1] * Y)
        gtilde = np.array([np.sin(2 * np.pi * ka / n) / h for ka in k])
        tau = np.array([-gtilde[1], gtilde[0]])  # discrete-divergence-free
        u0 = np.stack([tau[0] * np.sin(phase), tau[1] * np.sin(phase)])
        p0 = np.zeros((n, n))
        # this mode decays at rate ~165; dt must keep the rk4 defect below
        # the relative tolerance on the surviving amplitude
        u1, p1 = ref.periodic_linear_run(u0, p0, n, dt=5e-5, t_max=0.1)
        lam, _ = ref._periodic_symbols(k, n)
        expected = np.exp(lam * 0.1) * u0
        assert np.abs(u1 - expected).max() <= 1e-9 * np.abs(expected).max()
        assert np.abs(p1).max() <= 1e-12


    @staticmethod
    def _hand_rolled_run(u0, p0, n, dt, t_max, dim):
        """Reference: a plain RK4 step loop on the periodic stencils."""
        h = 1.0 / n

        def rhs(y):
            u, p = y
            return ref._plap(u, h, dim) - ref._pgrad(p, h, dim), -ref._pdiv(u, h, dim)

        y = (u0.copy(), p0.copy())
        for _ in range(int(round(t_max / dt))):
            k1 = rhs(y)
            k2 = rhs(tuple(a + (0.5 * dt) * k for a, k in zip(y, k1)))
            k3 = rhs(tuple(a + (0.5 * dt) * k for a, k in zip(y, k2)))
            k4 = rhs(tuple(a + dt * k for a, k in zip(y, k3)))
            y = tuple(a + (dt / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
                      for a, s1, s2, s3, s4 in zip(y, k1, k2, k3, k4))
        return y

    @pytest.mark.parametrize("t_max", [0.0, 0.01])
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["single", "leading_axis"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_equals_hand_rolled_loop(self, dim, lead, t_max):
        n = 8 if dim == 2 else 6
        rng = SplitMix64(713 + dim)
        u0 = rng.normal(lead + (dim,) + (n,) * dim)
        p0 = rng.normal(lead + (n,) * dim)
        got = ref.periodic_linear_run(u0, p0, n, 1e-3, t_max, dim)
        want = self._hand_rolled_run(u0, p0, n, 1e-3, t_max, dim)
        for a, b, a0 in zip(got, want, (u0, p0)):
            assert np.array_equal(a, b)
            assert a is not a0


class TestResidualCheck:
    """The full system's right-hand side and the elliptic residual vanish
    where the equations hold and only there."""

    @staticmethod
    def _norm(g, *arrays):
        return float(np.sqrt(g.cell_volume * sum(np.vdot(a, a) for a in arrays)))

    def test_zero_state(self):
        g = Grid(2, 8)
        D = MediumMatrix.identity(2)
        u, p = np.zeros((2,) + g.shape), np.zeros(g.shape)
        sys = dyn._FullSystem(g, D, QUINTIC, np.zeros_like(u), False)
        assert self._norm(g, *sys.rhs(u, p)) == 0.0
        for params in (QUINTIC, LINEAR):
            assert self._norm(g, dyn._elliptic_residual(u, p, u, params, g)) == 0.0

    def test_elliptic_solution_closes(self):
        g = Grid(2, 8)
        rng = SplitMix64(709)
        p = gr.mean_project_array(rng.normal(g.shape), g.dim)
        gt = rng.normal((2,) + g.shape)
        u, _ = dyn.solve_elliptic_arrays(p, gt, QUINTIC, g, newton_tol=1e-11)
        assert self._norm(g, dyn._elliptic_residual(u, p, gt, QUINTIC, g)) <= 1e-11

    def test_random_state_fails_check(self):
        g = Grid(2, 8)
        rng = SplitMix64(711)
        u = rng.normal((2,) + g.shape)
        p = gr.mean_project_array(rng.normal(g.shape), g.dim)
        r = dyn._elliptic_residual(u, p, np.zeros_like(u), QUINTIC, g)
        assert self._norm(g, r) > 1e-3
