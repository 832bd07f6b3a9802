"""Steppers, the Newton elliptic solver, the truncated system, splittings."""

import numpy as np
import pytest

from bfflow import analysis as an
from bfflow import dynamics as dyn
from bfflow import grid as gr
from bfflow import physics as ph
from bfflow import reference as ref
from bfflow.cli import make_forcing, make_initial_state, perturbed_pair
from bfflow.grid import Grid
from bfflow.krylov import CGError, conjugate_gradient
from bfflow.physics import MediumMatrix, NonlinearityParams
from bfflow.rng import SplitMix64

LINEAR = NonlinearityParams(0.0, 0.0)
QUINTIC = NonlinearityParams(1.0, 1.0, 0.0, l=2.0)


def small_setup(n=8, diag=(1.0, 2.0)):
    g = Grid(2, n)
    return g, MediumMatrix.diagonal(diag)


def _batch(states):
    """One batch (U, P) of (u, p) states, stacked on a leading member axis."""
    return tuple(map(np.stack, zip(*states)))


def _zero_forcing(g):
    return np.zeros((g.dim,) + g.shape)


def _random_pressure(g, rng):
    return gr.mean_project_array(rng.normal(g.shape), g.dim)


class TestSolverConfig:
    def test_cfl_enforced_for_rk4(self):
        g, D = small_setup()
        cfg = dyn.SolverConfig(dt=1.0)
        with pytest.raises(ValueError):
            cfg.validate(g, D)

    def test_semi_implicit_unconstrained(self):
        g, D = small_setup()
        dyn.SolverConfig(dt=1.0, scheme="semi_implicit").validate(g, D)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            dyn.SolverConfig(dt=0.1, scheme="leapfrog")


def _full_system(g, D, params, forcing):
    return dyn._FullSystem(g, D, params, forcing, False)


def _seeded_system(seed, dim):
    """Grid (n drawn from `seed`), medium, forcing and the generator."""
    rng = SplitMix64(seed)
    g = Grid(dim, 2 * int(rng.integers(4, 6) if dim == 2 else rng.integers(2, 4)))
    D = MediumMatrix.diagonal((1.0, 2.0, 1.5)[:dim])
    forcing = make_forcing(g, "fixed_random", seed=int(rng.integers(1, 1 << 30)),
                           amplitude=1.0)
    return g, D, forcing, rng


def _mean_defect(p, dim):
    """The largest |mean| / (1 + max |p|) over the trailing `dim` axes of a
    stacked pressure array, in one reduction over the run."""
    axes = tuple(range(-dim, 0))
    return float((np.abs(p.mean(axis=axes)) / (1.0 + np.abs(p).max(axis=axes))).max())


def _one_step(state, g, cfg, forcing, D, params):
    """(u, p) after one step of `simulate`, which ends at t = dt."""
    traj = dyn.simulate(state, g, cfg, forcing, D, params, cfg.dt)
    assert traj.times.tolist() == [0.0, cfg.dt]
    return traj.u[-1], traj.p[-1]


class TestRhsFull:
    def test_zero_state_zero_forcing(self):
        g, D = small_setup()
        zero = np.zeros((2,) + g.shape)
        du, dp = _full_system(g, D, QUINTIC, _zero_forcing(g)).rhs(zero, zero[0])
        assert np.all(du == 0.0) and np.all(dp == 0.0)

    def test_definition_unrolls_for_pressure_mode(self):
        g, D = small_setup()
        p = gr.mean_project_array(gr.sine_mode(g, (1, 1)), g.dim)
        rng = SplitMix64(3)
        gf = rng.normal((2,) + g.shape)
        du, _ = _full_system(g, D, QUINTIC, gf).rhs(np.zeros((2,) + g.shape), p)
        expected = -gr.grad_array(p, g.h, g.dim) + gf
        assert np.abs(du - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_pressure_rate_is_mean_zero(self):
        g, D = small_setup()
        sys = _full_system(g, D, QUINTIC, _zero_forcing(g))
        rng = SplitMix64(5)
        for _ in range(20):
            u = rng.normal((2,) + g.shape)
            _, dp = sys.rhs(u, _random_pressure(g, rng))
            assert abs(dp.mean()) <= 1e-13


def _allocating_pressure_rate(u, D, g):
    """dp/dt = -P0 div(D u) as a composition of the public, allocating array
    functions."""
    return -gr.mean_project_array(gr.div_array(D.apply_array(u), g.h, g.dim), g.dim)


def _allocating_rhs(sys, u, p):
    """The full right-hand side as a composition of the public, allocating
    array functions."""
    g = sys.grid
    du = gr.lap_array(u, g.h, g.dim) - gr.grad_array(p, g.h, g.dim)
    du -= ph.f_apply_array(u, sys.params, g.dim)
    if sys.convective_on:
        du -= ph.convective_array(u, u, g.h, g.dim)
    du += sys.forcing
    return du, _allocating_pressure_rate(u, sys.D, g)


def _rk4_written_out(y, dt, rhs):
    """One classical RK4 step in the arithmetic order of the stepper: the
    stage sum is k1 + 2 k2 + 2 k3 + k4 added left to right."""
    k1 = rhs(y)
    k2 = rhs(tuple(a + (0.5 * dt) * k for a, k in zip(y, k1)))
    k3 = rhs(tuple(a + (0.5 * dt) * k for a, k in zip(y, k2)))
    k4 = rhs(tuple(a + dt * k for a, k in zip(y, k3)))
    return tuple(a + (dt / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
                 for a, s1, s2, s3, s4 in zip(y, k1, k2, k3, k4))


def _flat(state):
    """The flat state of the component arrays `state`: their blocks in turn."""
    return np.concatenate(state, axis=None)


def _components(y, like):
    """The components of the flat state y, shaped as the arrays `like`."""
    return dyn._state_views(y, [a.shape for a in like])


def _coupled_rhs(shapes):
    """rhs(*y) of a nonlinear system coupling every component, returning
    arrays that its next call overwrites: component i's rate is
    y_i (1 - y_i) plus the sum of the components' first entries."""
    out = [np.empty(shape) for shape in shapes]

    def rhs(*y):
        s = sum(float(a.flat[0]) for a in y)
        for o, a in zip(out, y):
            np.multiply(a, 1.0 - a, out=o)
            o += s
        return tuple(out)
    return rhs


def _kernel_arrays(k):
    """Every array a `dyn._Kernel` writes into."""
    found = []
    for v in vars(k).values():
        found += [a for a in (v if isinstance(v, (tuple, list)) else (v,))
                  if isinstance(a, np.ndarray) and a.flags.writeable]
    return found


class TestInPlaceRhs:
    """The full system's right-hand side writes into buffers it owns, and the
    RK4 stepper keeps its stage arrays across steps; both give the bits of
    the allocating formulas, and neither touches y or hands out its own
    buffers as a step's result."""

    MEDIA = {2: ((2.0, 0.5), (0.5, 1.0)),
             3: ((1.5, 0.2, 0.0), (0.2, 1.0, 0.1), (0.0, 0.1, 2.0))}

    def _system(self, dim, conv, work, seed):
        rng = SplitMix64(seed)
        g = Grid(dim, 8 if dim == 2 else 4)
        params = NonlinearityParams(1.0, 0.3, 0.7, l=1.5)
        sys = dyn._FullSystem(g, MediumMatrix(np.array(self.MEDIA[dim])), params,
                              rng.normal((dim,) + g.shape), conv,
                              work_rows=8 if work else 0)
        return sys, rng

    @staticmethod
    def _state(sys, rng, members):
        g = sys.grid
        lead = () if members is None else (members,)
        return (rng.normal(lead + (g.dim,) + g.shape),
                gr.mean_project_array(rng.normal(lead + g.shape), g.dim))

    @staticmethod
    def _buffers(sys):
        """Every array the kernels of `sys` write into."""
        return [a for k in sys._kernels.values() for a in _kernel_arrays(k)]

    # work rows belong to a single run (`simulate` refuses them on a batch)
    @pytest.mark.parametrize("members,work", [(None, False), (None, True), (3, False)],
                             ids=["single", "single_work_rows", "batch3"])
    @pytest.mark.parametrize("conv", [False, True], ids=["no_conv", "conv"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_rhs_equals_allocating_composition(self, dim, conv, members, work):
        sys, rng = self._system(dim, conv, work, seed=900 + dim)
        g = sys.grid
        for row in range(2):  # the second call refills the same buffers
            u, p = self._state(sys, rng, members)
            want = _allocating_rhs(sys, u, p)
            got = sys.rhs(u, p)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            if work:
                w, Du = g.cell_volume, sys.D.apply_array(u)
                terms = [-w * float(np.vdot(gr.lap_array(u, g.h, g.dim), Du)),
                         w * float(np.vdot(ph.f_apply_array(u, sys.params, g.dim), Du)),
                         w * float(np.vdot(sys.forcing, Du)),
                         w * float(np.vdot(ph.convective_array(u, u, g.h, g.dim), Du))
                         if conv else 0.0, np.vdot(Du, u)]
                assert np.array_equal(sys.work[row], terms)

    # the run shapes: the ensemble workload (6 at 8^2), c12 (16 at 16^2) and
    # a 3D batch, whose first-axis products go straight into the kernel's
    # arrays; drag-free, the kernel has no drag array and f(u) is None
    @pytest.mark.parametrize("params", [NonlinearityParams(1.0, 1.0, 0.0, l=2.0),
                                        NonlinearityParams(0.0, 0.0)],
                             ids=["quintic", "drag_free"])
    @pytest.mark.parametrize("dim,n,members", [(2, 8, 6), (2, 16, 16), (3, 8, 6)],
                             ids=["2d_n8_x6", "2d_n16_x16", "3d_n8_x6"])
    def test_rhs_at_run_shapes_equals_allocating_composition(self, dim, n, members, params):
        rng = SplitMix64(940 + n + dim)
        g = Grid(dim, n)
        sys = dyn._FullSystem(g, MediumMatrix(np.array(self.MEDIA[dim])), params,
                              rng.normal((dim,) + g.shape), False)
        for _ in range(2):
            u, p = self._state(sys, rng, members)
            for a, b in zip(sys.rhs(u, p), _allocating_rhs(sys, u, p)):
                assert np.array_equal(a, b)
            k = sys._kernel(u.shape)
            assert (k.fu is None) == params.is_zero() and k.bu is None

    @pytest.mark.parametrize("dim", [2, 3])
    def test_linear_parts_rate_equals_allocating_composition(self, dim):
        # the exponential split's parts (hat, tilde) step the linear system
        # on a kernel with no drag and no forcing: lap V - grad Q and the
        # pressure rate of V
        rng = SplitMix64(945 + dim)
        g = Grid(dim, 8 if dim == 2 else 6)
        D = MediumMatrix(np.array(self.MEDIA[dim]))
        k = dyn._Kernel((2, dim) + g.shape, g, D, NonlinearityParams(0.0, 0.0))
        for _ in range(2):  # the second call refills the same arrays
            V = rng.normal((2, dim) + g.shape)
            Q = gr.mean_project_array(rng.normal((2,) + g.shape), dim)
            dV, dQ = k.rate(V, Q)
            want = gr.lap_array(V, g.h, dim) - gr.grad_array(Q, g.h, dim)
            assert dV.tobytes() == want.tobytes()
            assert dQ.tobytes() == _allocating_pressure_rate(V, D, g).tobytes()

    def test_two_systems_in_turn_keep_their_bytes(self):
        # kernels belong to their system: interleaved calls on two grids and
        # media, one of them drag-free, each give their own reference
        rng = SplitMix64(950)
        systems = [dyn._FullSystem(Grid(2, 8), MediumMatrix(np.array(self.MEDIA[2])),
                                   NonlinearityParams(1.0, 0.3, 0.7, l=1.5),
                                   rng.normal((2, 8, 8)), True),
                   dyn._FullSystem(Grid(3, 6), MediumMatrix(np.array(self.MEDIA[3])),
                                   NonlinearityParams(0.0, 0.0), rng.normal((3, 6, 6, 6)),
                                   False)]
        for members in (None, 4, None, 4):
            for sys in systems:
                u, p = self._state(sys, rng, members)
                want = _allocating_rhs(sys, u, p)
                for a, b in zip(sys.rhs(u, p), want):
                    assert a.shape == b.shape and np.array_equal(a, b)

    @pytest.mark.parametrize("conv", [False, True], ids=["no_conv", "conv"])
    @pytest.mark.parametrize("members", [None, 3], ids=["single", "batch3"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_stepper_equals_written_out_rk4(self, dim, members, conv):
        # the flat stepper against the written-out step on (u, p) tuples
        sys, rng = self._system(dim, conv, False, seed=910 + dim)
        state = self._state(sys, rng, members)
        step, dt = dyn._rk4_full(sys, 1e-3, state[0].shape), 1e-3
        y, results = _flat(state), []
        for _ in range(2):  # the second step reuses the first one's stage arrays
            before = y.copy()
            want = _rk4_written_out(
                _components(y, state), dt, lambda ys: tuple(a.copy() for a in sys.rhs(*ys)))
            got = step(y)
            assert np.array_equal(y, before)                   # y unchanged
            for a, b in zip(_components(got, state), want):
                assert np.array_equal(a, b)
            assert not np.shares_memory(got, y)
            assert not any(np.shares_memory(got, b) for b in self._buffers(sys))
            assert not any(np.shares_memory(got, r) for r in results)
            results.append(got)
            y = got

    # work rows belong to a single run; a batch of 1 keeps its member axis
    @pytest.mark.parametrize("members,work", [(None, False), (None, True), (1, False),
                                              (6, False), (16, False)],
                             ids=["single", "single_work_rows", "batch1", "batch6", "batch16"])
    @pytest.mark.parametrize("params", [NonlinearityParams(1.0, 1.0, 0.0, l=2.0),
                                        NonlinearityParams(0.0, 0.0, 3.0),
                                        NonlinearityParams(0.0, 0.0)],
                             ids=["quintic", "sqrt", "zero"])
    @pytest.mark.parametrize("conv", [False, True], ids=["no_conv", "conv"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_rate_equals_allocating_composition(self, dim, conv, params, members, work):
        rng = SplitMix64(960 + dim)
        g = Grid(dim, 8 if dim == 2 else 4)
        sys = dyn._FullSystem(g, MediumMatrix(np.array(self.MEDIA[dim])), params,
                              rng.normal((dim,) + g.shape), conv, work_rows=2 if work else 0)
        for row in range(2):  # the second call refills the same arrays
            u, p = self._state(sys, rng, members)
            k = sys._kernel(u.shape)
            want = _allocating_rhs(sys, u, p)
            for got in (sys.rhs(u, p), k.rate(u, p)):
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)
            # what the work rows read: lap u, f(u), B(u, u) and D u
            assert np.array_equal(k.lap, gr.lap_array(u, g.h, g.dim))
            assert np.array_equal(k.Du, sys.D.apply_array(u))
            assert (k.fu is None) == params.is_zero() and (k.bu is None) != conv
            if k.fu is not None:
                assert np.array_equal(k.fu, ph.f_apply_array(u, params, g.dim))
            if conv:
                assert np.array_equal(k.bu, ph.convective_array(u, u, g.h, g.dim))
            if work:
                terms = [*TestWorkIntegrals._terms(sys, u), np.vdot(sys.D.apply_array(u), u)]
                assert np.array_equal(sys.work[row], terms)

    # the state shapes of the full system (u, p), a split (p, q, r) and an
    # exponential split (U, P, V, Q), whose U and V hold two members
    @pytest.mark.parametrize("shapes", [((2, 8, 8), (8, 8)),
                                        ((8, 8),) * 3,
                                        ((2, 2, 8, 8), (2, 8, 8)) * 2,
                                        ((3, 4, 4, 4), (4, 4, 4))],
                             ids=["full", "split", "exp_split", "full_3d"])
    def test_flat_stepper_equals_written_out_rk4(self, shapes):
        # the rate of a flat state writes the coupled rates into one array
        # that its next call overwrites
        rng = SplitMix64(970 + len(shapes))
        rhs, dt = _coupled_rhs(shapes), 0.05
        rates = np.empty(sum(np.prod(shape, dtype=int) for shape in shapes))

        def rate(y):
            return np.concatenate(rhs(*dyn._state_views(y, shapes)), axis=None, out=rates)

        step = dyn.rk4_stepper(rate, dt)
        state = tuple(0.5 * rng.normal(shape) for shape in shapes)
        y, results = _flat(state), []
        for _ in range(4):  # later steps reuse the first one's stage arrays
            before = y.copy()
            want = _rk4_written_out(_components(y, state), dt,
                                    lambda ys: tuple(a.copy() for a in rhs(*ys)))
            got = step(y)
            assert np.array_equal(y, before)                   # y unchanged
            for a, b in zip(_components(got, state), want):
                assert a.shape == b.shape and np.array_equal(a, b)
            assert not np.shares_memory(got, y) and not np.shares_memory(got, rates)
            assert not any(np.shares_memory(got, r) for r in results)
            results.append(got)
            y = got

    def test_two_batch_shapes_in_turn(self):
        # one system, one run (stepper) per batch shape, stepped in turn:
        # each run's kernel keeps its own arrays
        sys, rng = self._system(2, True, False, seed=920)
        steps, results = {}, []
        for members in (None, 3, None, 2, 3):
            state = self._state(sys, rng, members)
            for a, b in zip(sys.rhs(*state), _allocating_rhs(sys, *state)):
                assert a.shape == b.shape and np.array_equal(a, b)
            shape = state[0].shape
            if shape not in steps:
                steps[shape] = dyn._rk4_full(sys, 1e-3, shape)
            step, y = steps[shape], _flat(state)
            want = _rk4_written_out(state, 1e-3,
                                    lambda ys: tuple(a.copy() for a in sys.rhs(*ys)))
            got = step(y)
            assert np.array_equal(y, _flat(state))            # y unchanged
            for a, b in zip(_components(got, state), want):
                assert a.shape == b.shape and np.array_equal(a, b)
            assert not np.shares_memory(got, y)
            assert not any(np.shares_memory(got, r) for r in results)
            results.append(got)

    @pytest.mark.parametrize("params", [NonlinearityParams(1.0, 0.3, 0.7, l=1.5),
                                        NonlinearityParams(0.5, 0.0, 2.0),
                                        NonlinearityParams(0.0, 1.0, 0.0, l=2.0),
                                        NonlinearityParams(0.0, 0.0)])
    def test_drag_into_out_equals_written_out_formula(self, params):
        # phi(z) = alpha + beta z^l + gamma sqrt(z), summed left to right
        u = SplitMix64(930).normal((3, 2, 8, 8))
        z = (u * u).sum(axis=1, keepdims=True)
        phi = np.full_like(z, params.alpha)
        if params.beta:
            phi = phi + params.beta * z ** params.l
        if params.gamma:
            phi = phi + params.gamma * np.sqrt(z)
        want = phi * u if not params.is_zero() else np.zeros_like(u)
        out = np.full_like(u, np.nan)
        assert np.array_equal(ph.f_apply_array(u, params, 2), want)
        assert ph.f_apply_array(u, params, 2, out=out) is out
        assert np.array_equal(out, want)
        # |u|^2, then phi, in an array of the caller (the kernel's)
        work, out = np.full_like(z, np.nan), np.full_like(u, np.nan)
        assert ph.f_apply_array(u, params, 2, out=out, work=work) is out
        assert np.array_equal(out, want)
        if not params.is_zero():
            assert np.array_equal(work, phi)


class TestStep:
    def test_zero_fixed_point(self):
        g, D = small_setup()
        cfg = dyn.SolverConfig(dt=1e-3)
        zero = (np.zeros((2,) + g.shape), np.zeros(g.shape))
        u, p = _one_step(zero, g, cfg, _zero_forcing(g), D, QUINTIC)
        assert np.all(u == 0.0) and np.all(p == 0.0)

    def test_local_order_against_dense_exponential(self):
        # linear case: one rk4 step vs the matrix exponential, local order >= 4.5
        g, D = small_setup()
        prop = ref.build_propagator(g, D)
        state = make_initial_state(g, "smooth", 1.0, seed=11)
        errs = []
        for dt in (4e-4, 2e-4):
            cfg = dyn.SolverConfig(dt=dt)
            u, p = _one_step(state, g, cfg, _zero_forcing(g), D, LINEAR)
            ue, pe = prop.apply(*state, dt)
            errs.append(np.sqrt(np.sum((u - ue) ** 2) + np.sum((p - pe) ** 2)))
        order = np.log2(errs[0] / errs[1])
        assert order >= 4.5

    def test_energy_audit_single_step_third_order(self):
        # trapezoid residual of the energy identity: |r| <= C dt^3, C stable
        g, D = small_setup()
        state = make_initial_state(g, "smooth", 1.0, seed=13)
        rng = SplitMix64(17)
        gf = 0.3 * rng.normal((2,) + g.shape)
        cs = []
        for dt in (4e-4, 2e-4, 1e-4):
            cfg = dyn.SolverConfig(dt=dt)
            traj = dyn.simulate(state, g, cfg, gf, D, QUINTIC, t_max=dt,
                                collect_work=True)
            audit = an.energy_audit(traj)
            cs.append(abs(float(audit.residual_trap[0])) / dt ** 3)
        assert cs[0] > 0
        assert max(cs) <= 1.6 * min(cs)  # constant stable under halving

    def test_work_integrals_need_rk4(self):
        g, D = small_setup()
        s = make_initial_state(g, "smooth", 1.0, seed=14)
        cfg = dyn.SolverConfig(dt=1e-2, scheme="semi_implicit")
        with pytest.raises(ValueError, match="scheme = rk4"):
            dyn.simulate(s, g, cfg, _zero_forcing(g), D, QUINTIC, 0.05,
                         collect_work=True)

    def test_semi_implicit_consistent_with_rk4(self):
        g, D = small_setup()
        state = make_initial_state(g, "smooth", 1.0, seed=19)
        fine = dyn.simulate(state, g, dyn.SolverConfig(dt=1e-4), _zero_forcing(g),
                            D, QUINTIC, t_max=0.05, snapshot_every=500)
        u_ref, p_ref = fine.u[-1], fine.p[-1]
        errs = []
        for dt in (5e-3, 2.5e-3):
            cfg = dyn.SolverConfig(dt=dt, scheme="semi_implicit", cg_tol=1e-12)
            traj = dyn.simulate(state, g, cfg, _zero_forcing(g), D, QUINTIC,
                                t_max=0.05, snapshot_every=int(0.05 / dt))
            u, p = traj.u[-1], traj.p[-1]
            errs.append(np.sqrt(np.sum((u - u_ref) ** 2) + np.sum((p - p_ref) ** 2)))
        assert 1.5 <= errs[0] / errs[1] <= 2.6  # first order in dt

    def test_blowup_detected_with_step_count(self):
        g, D = small_setup()
        state = make_initial_state(g, "smooth", 1.0, seed=23)
        # drag-stiff configuration: linear CFL holds, explicit drag does not
        hot = (60.0 * state[0], state[1])
        cfg = dyn.SolverConfig(dt=2e-3)
        with np.errstate(over="ignore", invalid="ignore"):
            # the first step is still finite (|u| ~ 4e192); the second overflows
            u, _ = _one_step(hot, g, cfg, _zero_forcing(g), D, QUINTIC)
            assert np.isfinite(u).all()
            with pytest.raises(dyn.BlowUpError) as err:
                dyn.simulate(hot, g, cfg, _zero_forcing(g), D, QUINTIC, t_max=1.0)
        assert err.value.step_count == 2
        assert "step 2 " in str(err.value)

    @pytest.mark.parametrize("seed", [29, 31], ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("dim", [2, 3], ids=lambda d: f"{d}d")
    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    @pytest.mark.parametrize("scheme", ["rk4", "semi_implicit"])
    def test_mean_preserved_along_run(self, scheme, batched, dim, seed):
        # seeded grid size, forcing, initial data and stride; every stored
        # pressure, of every member, has |mean| <= 1e-12 (1 + max |p|)
        g, D, forcing, rng = _seeded_system(seed, dim)
        states = [make_initial_state(g, kind, 1.0 + 3.0 * rng.uniform(),
                                     seed=int(rng.integers(1, 1 << 30)))
                  for kind in ("white_pressure", "smooth")[:2 if batched else 1]]
        cfg = dyn.SolverConfig(dt=1e-3 if scheme == "rk4" else 1e-2, scheme=scheme)
        traj = dyn.simulate(_batch(states) if batched else states[0], g, cfg, forcing, D,
                            QUINTIC, 40 * cfg.dt, snapshot_every=int(rng.integers(1, 8)))
        assert traj.p.shape == (len(traj.times),) + (2,) * batched + g.shape
        assert _mean_defect(traj.p, dim) <= 1e-12

    @pytest.mark.parametrize("seed", [37, 41], ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("dim", [2, 3], ids=lambda d: f"{d}d")
    def test_split_pressures_mean_preserved(self, dim, seed):
        # p, q, r of both splittings and the hat and tilde pressures Q of the
        # difference splitting, read off their stacked arrays
        g, D, forcing, rng = _seeded_system(seed, dim)
        cfg = dyn.SolverConfig(dt=1e-3)
        state = make_initial_state(g, "white_pressure", 1.0 + 3.0 * rng.uniform(),
                                   seed=int(rng.integers(1, 1 << 30)))
        every = int(rng.integers(1, 8))
        for run in (dyn.run_split, dyn.run_bootstrap_split):
            split = run(state[1], g, forcing, cfg, D, QUINTIC, 20 * cfg.dt,
                        snapshot_every=every)
            for part in (split.p, split.q, split.r):
                assert _mean_defect(part, dim) <= 1e-12
        pair = perturbed_pair(state, g, int(rng.integers(1, 1 << 30)), 0.1)
        es = dyn.run_exp_split(pair, g, forcing, cfg, D, QUINTIC, 20 * cfg.dt, every)
        assert _mean_defect(es.Q, dim) <= 1e-12


class TestLipschitz:
    def test_difference_admits_exponential_envelope(self):
        g, D = small_setup()
        pair = perturbed_pair(make_initial_state(g, "smooth", 1.0, seed=31), g, 32, 1e-3)
        st = an.lipschitz_study(pair, g, dyn.SolverConfig(dt=1e-3), _zero_forcing(g),
                                D, QUINTIC, 2.0, 100)
        assert np.isfinite(st.K)
        assert st.excess <= 1.05


def _member_dots(u, v):
    return np.array([np.vdot(a, b) for a, b in zip(u, v)])


class TestBatchedCG:
    """A leading member axis with one inner product per member: every member
    gets exactly the solution it gets alone."""

    @pytest.mark.parametrize("with_x0", [False, True])
    def test_batched_equals_per_member(self, with_x0):
        # -lap + a(x) on four members, a per-member weight whose spread sets
        # the member's iteration count
        g = Grid(2, 8)
        rng = SplitMix64(811)
        a = np.stack([np.zeros(g.shape), 0.5 + rng.uniform(g.shape),
                      400.0 * rng.uniform(g.shape) ** 4,
                      50.0 * rng.uniform(g.shape)])[:, None]
        b = rng.normal((4, 2) + g.shape)
        b[0] = 0.0                       # member 0: b = 0 gives zeros

        def op(weight, calls):
            def apply_op(x):
                calls.append(1)
                return -gr.lap_array(x, g.h, g.dim) + weight * x
            return apply_op

        def prec(r):
            return gr.poisson_solve_array(r, g)

        x0 = SplitMix64(812).normal(b.shape) if with_x0 else None
        if with_x0:                      # member 1 starts at its solution
            x0[1] = conjugate_gradient(op(a[1], []), b[1], rtol=1e-15)
        got = conjugate_gradient(op(a, []), b, x0, rtol=1e-10, inner=_member_dots,
                                 precondition=prec)
        iters = []
        for m in range(4):
            calls = []
            one = conjugate_gradient(op(a[m], calls), b[m],
                                     None if x0 is None else x0[m],
                                     rtol=1e-10, precondition=prec)
            iters.append(len(calls))
            assert np.array_equal(got[m], one), m
        assert not got[0].any()
        assert len(set(iters[2:])) == 2  # members 2 and 3 stop at different steps
        if with_x0:
            assert iters[1] == 1 and np.array_equal(got[1], x0[1])

    def test_indefinite_member_named(self):
        d = np.ones((3, 6))
        d[2, 4] = -5.0
        b = np.ones((3, 6))
        with pytest.raises(CGError) as err:
            conjugate_gradient(lambda x: d * x, b, inner=_member_dots)
        assert err.value.member == 2 and "member 2" in str(err.value)

    def test_nan_load_runs_to_an_error(self):
        b = np.ones((2, 6))
        b[1, 3] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(CGError) as err:
                conjugate_gradient(lambda x: 2.0 * x, b, inner=_member_dots)
            assert err.value.member == 1
            with pytest.raises(CGError):
                conjugate_gradient(lambda x: 2.0 * x, b[1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("batched", [True, False])
    def test_nonfinite_member_stops_at_once(self, bad, batched):
        # a non-finite load stops within two iterations, not after max_iter
        b = np.ones((3, 36))
        b[1, 7] = bad
        with np.errstate(invalid="ignore"):
            with pytest.raises(CGError, match="residual is non-finite") as err:
                if batched:
                    conjugate_gradient(lambda x: 2.0 * x, b, inner=_member_dots)
                else:
                    conjugate_gradient(lambda x: 2.0 * x, b[1])
        assert err.value.iterations <= 2
        assert err.value.member == (1 if batched else None)

    def test_slow_member_named_at_max_iter(self):
        d = np.stack([np.ones(6), np.arange(1.0, 7.0)])
        b = np.ones((2, 6))
        with pytest.raises(CGError) as err:
            conjugate_gradient(lambda x: d * x, b, inner=_member_dots, max_iter=3)
        assert err.value.member == 1 and err.value.iterations == 3


class TestPreconditionedCG:
    @pytest.mark.parametrize("batched", [False, True])
    def test_true_residual_within_rtol(self, batched):
        # the stop test is on the true residual (r, r), not on (r, M r): with
        # M = (-lap)^-1 at 16^2, (r, M r) lies between (r, r)/2300 and (r, r)/20
        g = Grid(2, 16)
        rng = SplitMix64(821)
        a = 10.0 * rng.uniform((2, 1) + g.shape)
        b = rng.normal((2, 2) + g.shape)
        if not batched:
            a, b = a[0], b[0]

        def apply_op(x):
            return -gr.lap_array(x, g.h, g.dim) + a * x

        rtol = 1e-8
        x = conjugate_gradient(apply_op, b, rtol=rtol,
                               inner=_member_dots if batched else None,
                               precondition=lambda r: gr.poisson_solve_array(r, g))
        r = b - apply_op(x)
        for bm, rm in zip(b, r) if batched else [(b, r)]:
            assert np.linalg.norm(rm) <= rtol * np.linalg.norm(bm)


class TestWorkIntegrals:
    """simulate's work integrals equal, bit for bit, those of the formula
    they replaced: each term computed afresh at each RK4 stage's state and
    summed with the RK4 weights, and again at each step end."""

    @staticmethod
    def _terms(sys, u):
        g = sys.grid
        w = g.cell_volume
        Du = sys.D.apply_array(u)
        diss = -w * float(np.vdot(gr.lap_array(u, g.h, g.dim), Du))
        fw = w * float(np.vdot(ph.f_apply_array(u, sys.params, g.dim), Du))
        gw = w * float(np.vdot(sys.forcing, Du))
        bw = 0.0
        if sys.convective_on:
            bw = w * float(np.vdot(ph.convective_array(u, u, g.h, g.dim), Du))
        return diss, fw, gw, bw

    @pytest.mark.parametrize("params", [QUINTIC, LINEAR], ids=["quintic", "zero"])
    @pytest.mark.parametrize("conv", [False, True])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_equal_the_per_stage_formula(self, dim, conv, params):
        g = Grid(dim, 8 if dim == 2 else 4)
        D = MediumMatrix.diagonal((1.0, 2.0, 1.5)[:dim])
        forcing = make_forcing(g, "fixed_random", seed=301, amplitude=1.0)
        state = make_initial_state(g, "smooth", 1.0, seed=303)
        cfg, n_steps = dyn.SolverConfig(dt=1e-3), 25
        traj = dyn.simulate(state, g, cfg, forcing, D, params, n_steps * cfg.dt,
                            convective_on=conv, collect_work=True)

        sys = dyn._FullSystem(g, D, params, forcing, conv)
        axes = tuple(range(-dim, 0))
        y = (state[0], gr.mean_project_array(state[1], dim))
        energy, endpoint, work = [], [], []
        for k in range(n_steps + 1):
            energy.append(g.cell_volume * float(np.vdot(D.apply_array(y[0]), y[0])
                                                + np.vdot(y[1], y[1])))
            endpoint.append(self._terms(sys, y[0]))
            if k == n_steps:
                break
            work.append(np.zeros(4))
            weights = iter(dyn.RK4_WEIGHTS)

            def rate(ys):
                u, p = _components(ys, y)
                work[-1] += next(weights) * np.array(self._terms(sys, u))
                return _flat(sys.rhs(u, p))

            u, p = _components(dyn.rk4_stepper(rate, cfg.dt)(_flat(y)), y)
            y = (u, p - np.add.reduce(p, axis=axes, keepdims=True) / g.num_nodes)

        assert np.array_equal(traj.u[-1], y[0])
        assert np.array_equal(traj.energy_series, energy)
        assert np.array_equal(traj.endpoint_terms, endpoint)
        assert np.array_equal(traj.work_increments, cfg.dt * np.array(work))
        assert np.array_equal(traj.step_times, [k * cfg.dt for k in range(n_steps + 1)])
        if not conv:
            assert not traj.endpoint_terms[:, 3].any()


class TestBatchedSimulate:
    @pytest.mark.parametrize("dim,scheme", [(2, "rk4"), (2, "semi_implicit"),
                                            (3, "rk4"), (3, "semi_implicit")])
    def test_members_equal_single_runs(self, dim, scheme):
        g = Grid(dim, 8 if dim == 2 else 4)
        D = MediumMatrix.diagonal((1.0, 2.0, 1.5)[:dim])
        forcing = make_forcing(g, "fixed_random", seed=91, amplitude=1.0)
        states = [make_initial_state(g, "smooth", amp, seed=92 + i)
                  for i, amp in enumerate((0.3, 1.0, 4.0))]
        cfg = dyn.SolverConfig(dt=1e-3 if scheme == "rk4" else 1e-2, scheme=scheme)
        kw = dict(snapshot_every=3, convective_on=dim == 3)
        batch = dyn.simulate(_batch(states), g, cfg, forcing, D, QUINTIC, 0.06, **kw)
        assert batch.u.shape[:2] == batch.p.shape[:2] == (len(batch.times), len(states))
        for m, s in enumerate(states):
            one = dyn.simulate(s, g, cfg, forcing, D, QUINTIC, 0.06, **kw)
            assert np.array_equal(batch.times, one.times) and len(one.times) > 2
            assert np.array_equal(batch.u[:, m], one.u)
            assert np.array_equal(batch.p[:, m], one.p)

    @pytest.mark.parametrize("scheme,error", [("rk4", dyn.BlowUpError),
                                              ("semi_implicit", CGError)])
    def test_member_blowup_named(self, scheme, error):
        # explicit drag overflows in member 2: RK4 loses finiteness, and the
        # semi-implicit step hands that member's CG a NaN load
        g, D = small_setup()
        ok = make_initial_state(g, "smooth", 1.0, seed=95)
        hot = (80.0 * ok[0], ok[1])
        cfg = dyn.SolverConfig(dt=2e-3 if scheme == "rk4" else 0.05, scheme=scheme)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(error) as err:
                dyn.simulate(_batch([ok, ok, hot]), g, cfg, _zero_forcing(g), D, QUINTIC, 1.0)
        assert err.value.member == 2 and "member 2:" in str(err.value)

    @pytest.mark.parametrize("batch", [False, True])
    def test_pressure_drift_names_the_member(self, monkeypatch, batch):
        # a step that moves member 1's pressure mean trips the drift guard
        real = dyn._full_advance

        def drifting(sys, cfg, shape):
            step = real(sys, cfg, shape)

            def advance(y):
                y = step(y)  # a fresh array
                _, p = dyn._state_views(y, sys._kernel(shape).shapes)
                p[1 if batch else ...] += 1e-9
                return y
            return advance

        monkeypatch.setattr(dyn, "_full_advance", drifting)
        g, D = small_setup()
        s = make_initial_state(g, "smooth", 1.0, seed=97)
        who = "ensemble member 1: " if batch else ""
        with pytest.raises(RuntimeError, match=f"^{who}pressure mean drifted to 1.000e-09 at step 1$"):
            dyn.simulate(_batch([s, s, s]) if batch else s, g, dyn.SolverConfig(dt=1e-3),
                         _zero_forcing(g), D, QUINTIC, 0.01)

    @pytest.mark.parametrize("member", [0, 2])
    def test_nan_in_a_member_pressure_named(self, member):
        # a NaN planted at step 3 in member m's pressure block: the loop's
        # one dot product over the flat state sees it, and the error names
        # the member and the step
        g = Grid(2, 4)
        shapes = ((3, 2) + g.shape, (3,) + g.shape)
        calls = []

        def advance(y):
            y = y.copy()
            calls.append(y)
            if len(calls) == 3:
                dyn._state_views(y, shapes)[1][member, 1, 2] = np.nan
            return y

        y0 = np.zeros(sum(np.prod(shape, dtype=int) for shape in shapes))
        with pytest.raises(dyn.BlowUpError,
                           match=f"^ensemble member {member}: solution lost finiteness "
                                 r"at step 3 \(t = 0.3\)$") as err:
            dyn.integrate(y0, shapes, 0.1, 5, advance, g.dim, project=(1,), members=True)
        assert err.value.member == member and err.value.step_count == 3

    def test_batch_rejects_work_integrals(self):
        g, D = small_setup()
        s = make_initial_state(g, "smooth", 1.0, seed=96)
        cfg = dyn.SolverConfig(dt=1e-3)
        with pytest.raises(ValueError, match="collect_work"):
            dyn.simulate(_batch([s, s]), g, cfg, _zero_forcing(g), D, QUINTIC, 0.01,
                         collect_work=True)


def _count_cg_iterations(monkeypatch) -> list[int]:
    """Route dyn.conjugate_gradient through a counter of operator
    applications; each solve appends its iterations (its applications less
    the one that forms the initial residual from x0)."""
    real, iters = dyn.conjugate_gradient, []

    def counted(apply_op, b, *args, **kwargs):
        calls = []

        def op(x):
            calls.append(1)
            return apply_op(x)
        x = real(op, b, *args, **kwargs)
        iters.append(len(calls) - 1)
        return x

    monkeypatch.setattr(dyn, "conjugate_gradient", counted)
    return iters


class TestWarmStart:
    """simulate's semi-implicit CG starts from the cubic extrapolation of the
    run's last step-end velocities; a cold step, with no history, starts
    from u_n. The two agree to the CG tolerance, and the warm start saves
    iterations."""

    @staticmethod
    def _cold_run(state, g, cfg, forcing, D, n_steps):
        """(u, p) at each step end of cold semi-implicit steps from `state`."""
        sys = dyn._FullSystem(g, D, QUINTIC, forcing, False)
        run = [(state[0], gr.mean_project_array(state[1], g.dim))]
        for _ in range(n_steps):
            u, p = _semi_implicit_step(sys, *run[-1], cfg.dt, cfg.cg_tol)
            run.append((u, gr.mean_project_array(p, g.dim)))
        return run

    def test_sweep_agrees_with_cold_steps(self):
        rng = SplitMix64(4242)
        cfg = dyn.SolverConfig(dt=0.01, scheme="semi_implicit")
        n_steps = 12
        for dim in (2, 3):
            for batched in (False, True):
                for kind in ("smooth", "white_pressure"):
                    n = 2 * int(rng.integers(3, 7) if dim == 2 else rng.integers(2, 4))
                    g = Grid(dim, n)
                    seed = int(rng.integers(1, 1 << 30))
                    every = int(rng.integers(1, 4))
                    D = MediumMatrix.diagonal((1.0, 2.0, 1.5)[:dim])
                    forcing = make_forcing(g, "fixed_random", seed=seed, amplitude=1.0)
                    states = [make_initial_state(g, kind, amp, seed=seed + 1 + i)
                              for i, amp in enumerate((1.0, 3.0) if batched else (2.0,))]
                    warm = dyn.simulate(_batch(states) if batched else states[0], g, cfg,
                                        forcing, D, QUINTIC, n_steps * cfg.dt,
                                        snapshot_every=every)
                    assert len(warm.times) > 2
                    for m, s in enumerate(states):
                        cold = self._cold_run(s, g, cfg, forcing, D, n_steps)
                        # step 1 has no history: it is the cold step, bit for bit
                        first = dyn.simulate(s, g, cfg, forcing, D, QUINTIC, cfg.dt)
                        assert np.array_equal(first.u[1], cold[1][0])
                        us, ps = (warm.u[:, m], warm.p[:, m]) if batched else (warm.u, warm.p)
                        for t, u, p in zip(warm.times, us, ps):
                            ref_u, ref_p = cold[int(round(t / cfg.dt))]
                            scale = max(np.abs(ref_u).max(), np.abs(ref_p).max())
                            err = max(np.abs(u - ref_u).max(), np.abs(p - ref_p).max())
                            assert err <= 1e-10 * scale, (dim, batched, kind, n, seed, t)

    @pytest.mark.parametrize("kind", ["white_pressure", "smooth", "white_u"])
    def test_fewer_iterations_than_cold_steps(self, monkeypatch, kind):
        # 60 steps at 32^2 with dt = 0.01 (cold: 5 per solve). The warm start
        # never needs more in total, and from the 41st step on it needs at
        # most 0.7x (3 against 5). Over all 60 steps white-noise pressure
        # needs 0.62x; smooth data 0.70x and white-noise velocities 0.74x,
        # whose start-up steps cost up to one iteration more than cold
        g = Grid(2, 32)
        D = MediumMatrix.diagonal((1.0, 2.0))
        forcing = make_forcing(g, "fixed_random", seed=71, amplitude=1.0)
        if kind == "white_u":
            state = (SplitMix64(73).normal((2,) + g.shape), np.zeros(g.shape))
        else:
            state = make_initial_state(g, kind, 1.0, seed=72)
        cfg = dyn.SolverConfig(dt=0.01, scheme="semi_implicit")
        iters = _count_cg_iterations(monkeypatch)
        dyn.simulate(state, g, cfg, forcing, D, QUINTIC, 60 * cfg.dt, snapshot_every=60)
        warm = iters.copy()
        iters.clear()
        self._cold_run(state, g, cfg, forcing, D, 60)
        cold = iters
        assert len(warm) == len(cold) == 60
        # the cubic extrapolation's count, pinned: a lower-order start meets
        # the ratios below but needs more iterations
        assert sum(warm) == {"white_pressure": 186, "smooth": 211, "white_u": 226}[kind]
        assert sum(warm) <= sum(cold)
        assert sum(warm[40:]) <= 0.7 * sum(cold[40:]), (warm, cold)
        if kind == "white_pressure":
            assert sum(warm) <= 0.7 * sum(cold), (sum(warm), sum(cold))


def _semi_implicit_step(sys, u, p, dt, cg_tol, x0=None):
    """(u, p) of one semi-implicit step: the blocks of the flat state that
    `dyn._semi_implicit_full` returns."""
    y = dyn._semi_implicit_full(sys, u, p, dt, cg_tol, x0)
    assert y.shape == (u.size + p.size,)
    return _components(y, (u, p))


def _allocating_semi_implicit(sys, u, p, dt, cg_tol, x0=None):
    """The semi-implicit step as a composition of the public, allocating
    array functions: lap_array, grad_array, the pressure rate above,
    D.apply_array, per-member np.vdot and poisson_solve_array."""
    g = sys.grid
    expl = sys.forcing - ph.f_apply_array(u, sys.params, g.dim)
    if sys.convective_on:
        expl -= ph.convective_array(u, u, g.h, g.dim)
    load = u + dt * expl - dt * gr.grad_array(p, g.h, g.dim)

    def apply_op(x):
        return (x - dt * gr.lap_array(x, g.h, g.dim)
                - dt * dt * gr.grad_array(_allocating_pressure_rate(x, sys.D, g), g.h, g.dim))

    def d_inner(a, b):
        Db = sys.D.apply_array(b)
        if a.ndim > g.dim + 1:
            return _member_dots(a, Db)
        return float(np.vdot(a, Db))

    u_new = conjugate_gradient(
        apply_op, load, x0=u if x0 is None else x0, rtol=cg_tol, inner=d_inner,
        precondition=lambda r: gr.poisson_solve_array(r, g, 1.0 / dt) / dt)
    return u_new, p + dt * _allocating_pressure_rate(u_new, sys.D, g)


def _written_out_pcg(apply_op, b, x0, rtol, inner, precondition):
    """Preconditioned CG for one system, each update a fresh array, in the
    arithmetic order of `conjugate_gradient`."""
    x = x0.copy()
    r = b - apply_op(x)
    tol2 = (rtol * np.sqrt(inner(b, b))) ** 2
    if inner(r, r) <= tol2:
        return x
    z = precondition(r)
    p, rz = z.copy(), inner(r, z)
    while True:
        Ap = apply_op(p)
        alpha = rz / inner(p, Ap)
        x = x + alpha * p
        r = r - alpha * Ap
        if inner(r, r) <= tol2:
            return x
        z = precondition(r)
        rz_new = inner(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new


class TestKernelSemiImplicit:
    """The semi-implicit step runs on its system's kernel and gives, bit for
    bit, the step composed of the allocating array functions."""

    @staticmethod
    def _system(dim, n, params, conv, seed):
        rng = SplitMix64(seed)
        g = Grid(dim, n)
        sys = dyn._FullSystem(g, MediumMatrix(np.array(TestInPlaceRhs.MEDIA[dim])),
                              params, rng.normal((dim,) + g.shape), conv)
        return sys, rng

    @staticmethod
    def _assert_steps_equal(sys, u, p, dt, x0=None):
        want = _allocating_semi_implicit(sys, u, p, dt, 1e-12, x0)
        got = _semi_implicit_step(sys, u, p, dt, 1e-12, x0)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)
        for a in got:  # fresh arrays: the next step cannot overwrite them
            assert not any(np.shares_memory(a, b)
                           for b in TestInPlaceRhs._buffers(sys) + [u, p])
        return got

    @pytest.mark.parametrize("params", [QUINTIC, LINEAR], ids=["quintic", "drag_free"])
    @pytest.mark.parametrize("conv", [False, True], ids=["no_conv", "conv"])
    @pytest.mark.parametrize("members", [None, 2, 6], ids=["single", "x2", "x6"])
    @pytest.mark.parametrize("dim,n", [(2, 8), (2, 32), (3, 6)], ids=["2d_n8", "2d_n32", "3d_n6"])
    def test_step_equals_allocating_composition(self, dim, n, members, conv, params):
        sys, rng = self._system(dim, n, params, conv, seed=960 + 10 * dim + n)
        u, p = TestInPlaceRhs._state(sys, rng, members)
        # a cold step, then a warm one from an extrapolated start, which
        # refills the arrays of the first
        u1, p1 = self._assert_steps_equal(sys, u, p, 0.01)
        self._assert_steps_equal(sys, u1, p1, 0.01, x0=2.0 * u1 - u)

    def test_systems_and_steps_in_turn_keep_their_bytes(self):
        # kernels belong to their system and a step to its dt: interleaved
        # steps of two systems (2D with convection, 3D drag-free), single and
        # batched, at two dt each, each give their own reference
        systems = [self._system(2, 8, NonlinearityParams(1.0, 0.3, 0.7, l=1.5), True, 970),
                   self._system(3, 6, LINEAR, False, 971)]
        for members in (None, 3, None, 3):
            for dt in (0.01, 0.002):
                for sys, rng in systems:
                    self._assert_steps_equal(sys, *TestInPlaceRhs._state(sys, rng, members), dt)

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 6)])
    def test_cg_equals_written_out_pcg(self, monkeypatch, dim, n):
        # the in-place CG updates (products into a scratch array, then
        # p *= beta; p += z) give the bytes of fresh-array updates; a batch's
        # members are checked against their single runs in TestBatchedCG
        sys, rng = self._system(dim, n, QUINTIC, False, seed=980 + n)
        u, p = TestInPlaceRhs._state(sys, rng, None)
        got = dyn._semi_implicit_full(sys, u, p, 0.01, 1e-12)
        monkeypatch.setattr(dyn, "conjugate_gradient", _written_out_pcg)
        assert np.array_equal(got, dyn._semi_implicit_full(sys, u, p, 0.01, 1e-12))

    @pytest.mark.parametrize("shape", [(2, 2, 32, 32), (6, 2, 8, 8), (16, 2, 16, 16),
                                       (2, 3, 8, 8, 8), (3, 2, 64, 64)])
    def test_stacked_dots_equal_per_member_vdot(self, shape):
        rng = SplitMix64(990 + sum(shape))
        for _ in range(50):
            a, b = rng.normal(shape), rng.normal(shape)
            assert np.array_equal(dyn._member_dots(a, b), _member_dots(a, b))

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: the operator subtracts dt^2 grad(rate) where implicit "
        "Euler adds it, so the step does not solve its own equations (and "
        "dt = 1 ends in CGError); the change that flips the sign removes this mark"))
    @pytest.mark.parametrize("members", [None, 2], ids=["single", "x2"])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("dt", [0.01, 0.1, 1.0])
    def test_step_solves_its_own_equations(self, dt, dim, members):
        # u_new = u + dt (lap u_new - grad p_new - f(u) + g),
        # p_new = p + dt rate(u_new), in the max norm to 1e-10 of the larger
        # of the old and the new state
        g = Grid(dim, 16 if dim == 2 else 6)
        D = MediumMatrix.diagonal((1.0, 2.0, 1.5)[:dim])
        forcing = make_forcing(g, "fixed_random", seed=41, amplitude=1.0)
        states = [make_initial_state(g, "smooth", amp, seed=42 + i)
                  for i, amp in enumerate((1.0, 2.0)[:members or 1])]
        u, p = _batch(states) if members else states[0]
        p = gr.mean_project_array(p, dim)
        sys = dyn._FullSystem(g, D, QUINTIC, forcing, False)
        u_new, p_new = _semi_implicit_step(sys, u, p, dt, 1e-12)
        res_u = u_new - u - dt * (gr.lap_array(u_new, g.h, dim) - gr.grad_array(p_new, g.h, dim)
                                  - ph.f_apply_array(u, QUINTIC, dim) + forcing)
        res_p = p_new - p - dt * _allocating_pressure_rate(u_new, D, g)
        for res, old, new in ((res_u, u, u_new), (res_p, p, p_new)):
            assert np.abs(res).max() <= 1e-10 * max(np.abs(old).max(), np.abs(new).max())

    @pytest.mark.parametrize("members", [None, 2], ids=["single", "x2"])
    def test_extrapolated_start_equals_fresh_array_start(self, members):
        # the advance builds its CG start in arrays it keeps; steps from a
        # start built in fresh arrays, c0 u_n + c1 u_{n-1} + ..., keep its bytes
        sys, rng = self._system(2, 16, QUINTIC, False, seed=1000)
        cfg = dyn.SolverConfig(dt=0.01, scheme="semi_implicit")
        state, history = TestInPlaceRhs._state(sys, rng, members), []
        advance = dyn._full_advance(sys, cfg, state[0].shape)
        y = _flat(state)
        for _ in range(6):
            u, p = _components(y, state)
            history = [u] + history[:3]
            c0, *cs = dyn._EXTRAPOLATION[len(history) - 1]
            x0 = c0 * history[0]
            for c, v in zip(cs, history[1:]):
                x0 += c * v
            want = dyn._semi_implicit_full(sys, u, p, cfg.dt, cfg.cg_tol, x0)
            assert np.array_equal(advance(y), want)
            y = want


def _allocating_fprime(u, v, params, dim):
    """f'(u) v as one allocating formula: phi(z) v + 2 phi'(z) (u.v) u,
    z = |u|^2, phi' masked at z = 0."""
    if params.is_zero():
        return np.zeros_like(v)
    comp_ax = u.ndim - dim - 1
    z = np.add.reduce(u * u, axis=comp_ax, keepdims=True)
    out = ph._phi_array(z.copy(), params) * v
    if params.beta == 0.0 and params.gamma == 0.0:
        return out
    zsafe = np.where(z > 0.0, z, 1.0)
    dphi = np.zeros_like(z)
    if params.beta:
        dphi += params.beta * params.l * zsafe ** (params.l - 1.0)
    if params.gamma:
        dphi += params.gamma / (2.0 * np.sqrt(zsafe))
    dphi = np.where(z > 0.0, dphi, 0.0)
    s = np.add.reduce(u * v, axis=comp_ax, keepdims=True)
    return out + 2.0 * dphi * s * u


def _allocating_residual(u, p, g_t, params, g):
    return (-gr.lap_array(u, g.h, g.dim) + ph.f_apply_array(u, params, g.dim)
            + gr.grad_array(p, g.h, g.dim) - g_t)


def _allocating_newton(p, g_t, params, g, newton_tol=1e-10, newton_max=30,
                       cg_floor=1e-13, u0=None):
    """The Newton elliptic solve composed of the allocating array functions
    (lap_array, grad_array, f_apply_array, the formula of f'(u) v above and
    poisson_solve_array), each iterate and residual a fresh array."""
    w = g.cell_volume
    u = np.zeros_like(g_t) if u0 is None else u0.copy()

    def rnorm(r):
        return float(np.sqrt(w * np.vdot(r, r)))

    r = _allocating_residual(u, p, g_t, params, g)
    res = rnorm(r)
    history = [res]
    for _ in range(newton_max):
        if res <= newton_tol:
            return u, history

        def apply_jac(v, u_lin=u):
            return -gr.lap_array(v, g.h, g.dim) + _allocating_fprime(u_lin, v, params, g.dim)

        rtol = min(1e-2, max(res, cg_floor))
        delta = conjugate_gradient(
            apply_jac, -r, rtol=max(rtol, cg_floor),
            precondition=lambda x: gr.poisson_solve_array(x, g, params.alpha))
        lam = 1.0
        while lam > 1e-8:
            u_try = u + lam * delta
            r_try = _allocating_residual(u_try, p, g_t, params, g)
            res_try = rnorm(r_try)
            if res_try < res * (1.0 - 1e-4 * lam) or res_try <= newton_tol:
                break
            lam *= 0.5
        u, r, res = u_try, r_try, res_try
        history.append(res)
    if res <= newton_tol:
        return u, history
    raise dyn.NewtonError(history)


DRAGS = {"quintic": QUINTIC, "linear": NonlinearityParams(1.0, 0.0),
         "sqrt": NonlinearityParams(1.0, 0.0, 0.5),
         "mixed": NonlinearityParams(1.0, 0.3, 0.7, l=1.5), "zero": LINEAR}


class TestKernelNewton:
    """The Newton elliptic solve runs on a kernel and gives, bit for bit, the
    solve composed of the allocating array functions: the same u and the
    same residual history."""

    @staticmethod
    def _problem(dim, n, seed, amplitude):
        rng = SplitMix64(seed)
        g = Grid(dim, n)
        return g, _random_pressure(g, rng), amplitude * rng.normal((dim,) + g.shape), rng

    @staticmethod
    def _assert_solves_equal(p, gt, params, g, kernel, u0=None):
        want = _allocating_newton(p, gt, params, g, u0=u0)
        got = dyn.solve_elliptic_arrays(p, gt, params, g, u0=u0, kernel=kernel)
        assert got[1] == want[1]
        assert got[0].shape == want[0].shape and np.array_equal(got[0], want[0])
        # a fresh u: the next solve on the kernel cannot overwrite it
        assert not any(np.shares_memory(got[0], a) for a in _kernel_arrays(kernel))
        return got

    @pytest.mark.parametrize("drag", sorted(DRAGS))
    @pytest.mark.parametrize("dim,n", [(2, 8), (2, 16), (3, 6)], ids=["2d_n8", "2d_n16", "3d_n6"])
    @pytest.mark.parametrize("amplitude", [1.0, 30.0])
    def test_solve_equals_allocating_solve(self, dim, n, drag, amplitude):
        g, p, gt, rng = self._problem(dim, n, 1100 + 10 * dim + n, amplitude)
        params = DRAGS[drag]
        kernel = dyn._Kernel(gt.shape, g)
        # a cold start (every node at z = 0, the masked phi' branch), then
        # a warm one for a nearby p on the same kernel
        u, hist = self._assert_solves_equal(p, gt, params, g, kernel)
        assert len(hist) >= 2
        p_near = p + 0.05 * _random_pressure(g, rng)
        self._assert_solves_equal(p_near, gt, params, g, kernel, u0=u)

    def test_line_search_and_nonconvergence_keep_their_bytes(self):
        # a cold quintic solve at 16^2 with forcing amplitude 100 halves its
        # first step; and a solve cut at one Newton step raises with the
        # history of the allocating solve
        g = Grid(2, 16)
        p = np.zeros(g.shape)
        gt = make_forcing(g, "fixed_random", seed=5, amplitude=100.0)
        kernel = dyn._Kernel(gt.shape, g)
        self._assert_solves_equal(p, gt, QUINTIC, g, kernel)
        with pytest.raises(dyn.NewtonError) as want:
            _allocating_newton(p, gt, QUINTIC, g, newton_max=1)
        with pytest.raises(dyn.NewtonError) as got:
            dyn.solve_elliptic_arrays(p, gt, QUINTIC, g, newton_max=1, kernel=kernel)
        assert got.value.history == want.value.history

    @pytest.mark.parametrize("drag", sorted(DRAGS))
    def test_residual_equals_allocating_residual(self, drag):
        for dim, n in ((2, 8), (3, 6)):
            g, p, gt, rng = self._problem(dim, n, 1200 + dim, 1.0)
            u = rng.normal(gt.shape)
            u[..., 0, :] = 0.0  # z = 0 on one face
            want = _allocating_residual(u, p, gt, DRAGS[drag], g)
            assert np.array_equal(dyn._elliptic_residual(u, p, gt, DRAGS[drag], g), want)

    @pytest.mark.parametrize("drag", sorted(DRAGS))
    def test_fprime_apply_keeps_its_bytes(self, drag):
        # seeded random (u, v), with z = 0 at some nodes, single and as the
        # three stacked Gauss nodes of averaged_jacobian_apply (v broadcast)
        params = DRAGS[drag]
        for dim, n in ((2, 8), (2, 16), (3, 6)):
            rng = SplitMix64(1300 + 10 * dim + n)
            for _ in range(5):
                u, v = rng.normal((dim,) + (n,) * dim), rng.normal((dim,) + (n,) * dim)
                u[:, 1] = 0.0
                got = ph.fprime_apply_array(u, v, params, dim)
                assert np.array_equal(got, _allocating_fprime(u, v, params, dim))
                mids = np.stack([u, 0.5 * u, rng.normal(u.shape)])
                vb = np.broadcast_to(v, mids.shape)
                assert np.array_equal(ph.fprime_apply_array(mids, vb, params, dim),
                                      _allocating_fprime(mids, vb, params, dim))

    def test_fprime_masks_the_rank_one_term_where_z_underflows(self):
        # u = 1e-170 is nonzero but |u|^2 rounds to 0: with phi(0) = 0 the
        # masked action is exactly 0, where the unmasked one would give
        # 4 (u.v) u = 1.6e-39 at v = 1e300
        params = NonlinearityParams(0.0, 1.0, 0.0, l=2.0)
        u, v = np.full((2, 4, 4), 1e-170), np.full((2, 4, 4), 1e300)
        got = ph.fprime_apply_array(u, v, params, 2)
        assert np.array_equal(got, _allocating_fprime(u, v, params, 2)) and not got.any()

    def test_truncated_system_keeps_one_kernel_per_run(self, monkeypatch):
        # each system solves on the one kernel it built, and two systems (a
        # trunc split's u(p) and v(q)) never share one; 4 steps, each stage
        # and the last stored time solving both
        g, D = small_setup(n=8)
        solve, kernels = dyn.solve_elliptic_arrays, []

        def spy(*args, kernel=None, **kwargs):
            kernels.append(kernel)
            return solve(*args, kernel=kernel, **kwargs)

        monkeypatch.setattr(dyn, "solve_elliptic_arrays", spy)
        rng = SplitMix64(1400)
        cfg = dyn.SolverConfig(dt=0.05, newton_tol=1e-12)
        dyn.run_split(_random_pressure(g, rng), g, 0.5 * rng.normal((2,) + g.shape), cfg, D,
                      QUINTIC, 0.2)
        assert len(kernels) == 2 * (4 * 4 + 1)
        assert all(isinstance(k, dyn._Kernel) for k in kernels)
        assert kernels[0::2] == [kernels[0]] * len(kernels[0::2])
        assert kernels[1::2] == [kernels[1]] * len(kernels[1::2])
        assert kernels[0] is not kernels[1]


# the arrays of each kernel use, besides the drag's (fu, phi) and the
# convective term's (bu)
_USE_ARRAYS = {
    "pressure_rate": {"Du", "dp", "tp", "mean"},
    "rate": {"rates", "Du", "dp", "tp", "mean", "lap", "du", "tu"},
    "semi_implicit": {"rates", "Du", "dp", "tp", "mean", "lap", "du", "tu", "load", "Ax", "z"},
    "newton": {"lap", "du", "tu", "load", "Ax", "z", "iterates", "residuals", "uv"},
}


def _allocated(k):
    """The names of the arrays, and pairs of arrays, that a kernel holds,
    the forcing it was given left out."""
    return {name for name, v in vars(k).items() if name != "forcing"
            and all(isinstance(a, np.ndarray) for a in (v if isinstance(v, tuple) else (v,)))}


class TestKernelUses:
    """A kernel allocates the arrays of its use and no others, each run
    builds the kernels of its use, and each sequence a kernel binds gives,
    called on inputs in turn, the bytes of the allocating call."""

    MEDIA = {2: MediumMatrix.diagonal((1.0, 2.0)), 3: MediumMatrix(np.array(TestInPlaceRhs.MEDIA[3]))}

    @staticmethod
    def _expected(use, params, conv):
        drag = use == "newton" or (use != "pressure_rate" and not params.is_zero())
        return (_USE_ARRAYS[use] | ({"fu", "phi"} if drag else set())
                | ({"bu"} if conv and use in ("rate", "semi_implicit") else set()))

    @pytest.mark.parametrize("use", sorted(_USE_ARRAYS))
    @pytest.mark.parametrize("params,conv", [(QUINTIC, False), (LINEAR, True)],
                             ids=["quintic", "drag_free_conv"])
    @pytest.mark.parametrize("dim,lead", [(2, ()), (2, (3,)), (3, (3,))],
                             ids=["2d_single", "2d_x3", "3d_x3"])
    def test_arrays_of_each_use(self, use, params, conv, dim, lead):
        g = Grid(dim, 8 if dim == 2 else 6)
        shape = lead + (dim,) + g.shape
        newton = use == "newton"
        k = dyn._Kernel(shape, g, None if newton else self.MEDIA[dim],
                        None if newton else params, None, conv and not newton, use)
        assert _allocated(k) == self._expected(use, params, conv)
        for name in _allocated(k):
            for a in getattr(k, name) if name in ("iterates", "residuals") else (getattr(k, name),):
                want = {"dp": lead + g.shape, "tp": lead + g.shape, "mean": lead + (1,) * dim,
                        "phi": lead + (1,) + g.shape, "uv": lead + (1,) + g.shape,
                        "rates": (np.prod(shape) + np.prod(lead + g.shape),)}
                assert a.shape == want.get(name, shape)
        if use in ("rate", "semi_implicit"):  # du, then dp: the blocks of one flat array
            k.rates[...] = np.arange(k.rates.size)
            assert np.array_equal(k.du.ravel(), k.rates[:k.du.size])
            assert np.array_equal(k.dp.ravel(), k.rates[k.du.size:])
        # the default use: "newton" without a medium, "rate" with one
        assert _allocated(dyn._Kernel(shape, g)) == self._expected("newton", params, False)
        assert (_allocated(dyn._Kernel(shape, g, self.MEDIA[dim], params, None, conv))
                == self._expected("rate", params, conv))

    def test_runs_build_the_kernels_of_their_use(self, monkeypatch):
        made = []

        class Recorded(dyn._Kernel):
            def __init__(self, shape, *args, **kwargs):
                super().__init__(shape, *args, **kwargs)
                made.append((shape, frozenset(_allocated(self))))

        monkeypatch.setattr(dyn, "_Kernel", Recorded)
        g, D = small_setup()
        rng = SplitMix64(1450)
        forcing = rng.normal((2,) + g.shape)
        states = [(rng.normal((2,) + g.shape), _random_pressure(g, rng)) for _ in range(3)]
        vel = (2,) + g.shape
        uses = {name: frozenset(self._expected(name, QUINTIC, False)) for name in _USE_ARRAYS}
        runs = [
            (lambda: dyn.simulate(_batch(states), g, dyn.SolverConfig(dt=1e-3), forcing, D,
                                  QUINTIC, 0.003),
             [((3,) + vel, uses["rate"])]),
            (lambda: dyn.simulate(states[0], g, dyn.SolverConfig(dt=0.01, scheme="semi_implicit"),
                                  forcing, D, QUINTIC, 0.03),
             [(vel, uses["semi_implicit"])]),
            (lambda: dyn.run_split(states[0][1], g, forcing, dyn.SolverConfig(dt=0.01), D,
                                   QUINTIC, 0.02),
             [(vel, uses["newton"]), (vel, uses["newton"]),
              ((3,) + vel, frozenset(self._expected("pressure_rate", LINEAR, False)))]),
            (lambda: dyn.run_exp_split(_batch(states[:2]), g, forcing, dyn.SolverConfig(dt=1e-3),
                                       D, QUINTIC, 0.002),
             [((2,) + vel, uses["rate"]), ((2,) + vel, frozenset(self._expected("rate", LINEAR,
                                                                                False)))]),
        ]
        for run, kernels in runs:
            made.clear()
            run()
            assert sorted(made, key=repr) == sorted(kernels, key=repr)

    @pytest.mark.parametrize("dim,lead", [(2, ()), (2, (3,)), (3, ()), (3, (3,))],
                             ids=["2d_single", "2d_x3", "3d_single", "3d_x3"])
    def test_bound_calls_equal_allocating_calls(self, dim, lead):
        g = Grid(dim, 8 if dim == 2 else 6)
        rng = SplitMix64(1460 + 10 * dim + len(lead))
        shape, D = lead + (dim,) + g.shape, self.MEDIA[dim]
        h = g.h
        semi = dyn._Kernel(shape, g, D, QUINTIC, None, False, "semi_implicit")
        newton = dyn._Kernel(shape, g)
        eigenvalues = gr._shifted_eigenvalues(g, 2.0)
        for _ in range(2):
            for k in (semi, newton):  # the two kernels in turn, as two runs
                u, v = rng.normal(shape), rng.normal(shape)
                p = rng.normal(lead + g.shape)
                calls = [(lambda: k.laplacian(u), k.lap, gr.lap_array(u, h, dim)),
                         (lambda: k.gradient(p), k.du, gr.grad_array(p, h, dim)),
                         (lambda: k.drag(QUINTIC, u), k.fu, ph.f_apply_array(u, QUINTIC, dim)),
                         (lambda: k.poisson(eigenvalues, v), k.z,
                          gr.poisson_solve_array(v, g, 2.0))]
                if k is newton:
                    coefficients = ph._fprime_coefficients(u, QUINTIC, dim)
                    calls.append((lambda: k.fprime(coefficients, u, v), k.Ax,
                                  ph.fprime_apply_array(u, v, QUINTIC, dim)))
                else:  # the pressure rate's three, the divergence of D u
                    Du = D.apply_array(u)
                    div = gr.div_array(Du, h, dim)
                    calls += [(lambda: k.medium(u), k.Du, Du), (k.divergence, k.dp, div),
                              (lambda: k.project(k.dp), k.dp, gr.mean_project_array(div, dim))]
                for call, array, want in calls:
                    got = call()
                    assert got is array and got.tobytes() == want.tobytes()


class TestEllipticSolver:
    def test_zero_data(self):
        g, _ = small_setup()
        zero = np.zeros((2,) + g.shape)
        u, _ = dyn.solve_elliptic_arrays(zero[0], zero, QUINTIC, g)
        assert np.all(u == 0.0)

    def test_linear_matches_direct_cg(self):
        g, _ = small_setup()
        rng = SplitMix64(37)
        p = _random_pressure(g, rng)
        gt = rng.normal((2,) + g.shape)
        u, _ = dyn.solve_elliptic_arrays(p, gt, LINEAR, g, newton_tol=1e-12)
        rhs = gt - gr.grad_array(p, g.h, g.dim)
        direct = conjugate_gradient(
            lambda x: -gr.lap_array(x, g.h, g.dim), rhs, rtol=1e-13)
        assert np.abs(u - direct).max() <= 1e-10

    @pytest.mark.parametrize("amp", [1.0, 10.0])
    def test_quintic_converges_with_quadratic_tail(self, amp):
        g, _ = small_setup(n=16)
        rng = SplitMix64(41)
        p = _random_pressure(g, rng)
        gt = rng.normal((2,) + g.shape)
        gt = gt * (amp / gr.norm_l2(gt, g))
        u, hist = dyn.solve_elliptic_arrays(p, gt, QUINTIC, g,
                                            newton_tol=1e-10, newton_max=20)
        assert hist[-1] <= 1e-10
        assert len(hist) <= 20
        tail = [r for r in hist if 1e-9 < r < 1e-1]
        rates = [b / a for a, b in zip(tail, tail[1:])]
        assert all(r2 < r1 for r1, r2 in zip(rates, rates[1:])) or len(rates) <= 1

    def test_line_search_halves_a_full_step_that_fails(self):
        # a cold solve at 16^2 with quintic drag and forcing amplitude 100:
        # the full first Newton step (-lap + alpha)^-1 g raises the residual,
        # so the line search must halve; the history still falls strictly
        # and reaches the tolerance
        g = Grid(2, 16)
        p = np.zeros(g.shape)
        gt = make_forcing(g, "fixed_random", seed=5, amplitude=100.0)

        def rnorm(u):
            r = dyn._elliptic_residual(u, p, gt, QUINTIC, g)
            return np.sqrt(g.cell_volume * np.vdot(r, r))

        full_step = gr.poisson_solve_array(gt, g, QUINTIC.alpha)
        assert rnorm(full_step) >= rnorm(np.zeros_like(gt))
        u, hist = dyn.solve_elliptic_arrays(p, gt, QUINTIC, g, newton_tol=1e-10)
        assert hist[-1] <= 1e-10 and rnorm(u) == hist[-1]
        assert all(b < a for a, b in zip(hist, hist[1:])), hist

    def test_nonconvergence_reports_history(self):
        g, _ = small_setup()
        rng = SplitMix64(47)
        p = _random_pressure(g, rng)
        gt = 10.0 * rng.normal((2,) + g.shape)
        with pytest.raises(dyn.NewtonError) as err:
            dyn.solve_elliptic_arrays(p, gt, QUINTIC, g,
                                      newton_tol=1e-14, newton_max=1)
        assert len(err.value.history) >= 1


class TestTruncated:
    """The truncated run p, u(p) as the bootstrap split steps and stores it."""

    def test_zero_fixed_point(self):
        g, D = small_setup()
        cfg = dyn.SolverConfig(dt=0.05)
        traj = dyn.run_bootstrap_split(np.zeros(g.shape), g, _zero_forcing(g), cfg, D,
                                       QUINTIC, cfg.dt)
        assert len(traj.p) == 2 and not traj.p[-1].any() and not traj.u[-1].any()

    def test_linear_matches_operator_exponential(self):
        # oracle: dense assembled pressure operator, exponential + Duhamel
        g, D = small_setup()
        op = an.assemble_operator(g, D)
        rng = SplitMix64(53)
        p0 = _random_pressure(g, rng)
        gf = 0.5 * rng.normal((2,) + g.shape)
        cfg = dyn.SolverConfig(dt=0.01, newton_tol=1e-12, cg_tol=1e-13)
        traj = dyn.run_bootstrap_split(p0, g, gf, cfg, D, LINEAR, t_max=0.5,
                                       snapshot_every=50)
        # constant source in reduced coordinates
        minv_g = conjugate_gradient(lambda x: -gr.lap_array(x, g.h, g.dim),
                                    gf, rtol=1e-13)
        r = -gr.mean_project_array(
            gr.div_array(D.apply_array(minv_g), g.h, g.dim), g.dim)
        c_r = op.basis.T @ r.ravel()
        c0 = op.basis.T @ p0.ravel()
        V, s = op.eigenvectors, op.spectrum
        t = 0.5
        decay = np.exp(-s * t)
        c_t = V @ (decay * (V.T @ c0)) + V @ ((1.0 - decay) / s * (V.T @ c_r))
        p_exact = (op.basis @ c_t).reshape(g.shape)
        err = np.linalg.norm(traj.p[-1] - p_exact) / np.linalg.norm(p_exact)
        assert err <= 1e-6

    def test_unforced_linear_norm_decays(self):
        g, D = small_setup()
        rng = SplitMix64(59)
        p0 = _random_pressure(g, rng)
        cfg = dyn.SolverConfig(dt=0.05, newton_tol=1e-12)
        traj = dyn.run_bootstrap_split(p0, g, _zero_forcing(g), cfg, D, LINEAR, t_max=1.0)
        norms = [np.linalg.norm(p) for p in traj.p]
        assert all(b < a for a, b in zip(norms, norms[1:]))


def _drift_component(monkeypatch, shapes, index):
    """Make every RK4 step add 1e-9 to component `index` of the flat state,
    whose components have `shapes`."""
    real = dyn.rk4_stepper

    def drifting(rate, dt):
        step = real(rate, dt)

        def advance(y):
            y = step(y)
            dyn._state_views(y, shapes)[index][...] += 1e-9  # a fresh array
            return y
        return advance

    monkeypatch.setattr(dyn, "rk4_stepper", drifting)


class TestSplits:
    @staticmethod
    def _run(split, g, D, params, seed=61, t_max=2.0, every=4):
        rng = SplitMix64(seed)
        p0 = _random_pressure(g, rng)
        gf = 0.5 * rng.normal((2,) + g.shape)
        cfg = dyn.SolverConfig(dt=0.05, newton_tol=1e-12, cg_tol=1e-13)
        return split(p0, g, gf, cfg, D, params, t_max, snapshot_every=every)

    def test_zero_reference_gives_zero_parts(self):
        g, D = small_setup()
        cfg = dyn.SolverConfig(dt=0.05, newton_tol=1e-12)
        split = dyn.run_split(np.zeros(g.shape), g, _zero_forcing(g), cfg, D, QUINTIC,
                              t_max=0.5)
        assert np.abs(split.q).max() <= 1e-12
        assert np.abs(split.r).max() <= 1e-12

    def test_recombination_and_contraction(self):
        g, D = small_setup(n=8)
        split = self._run(dyn.run_split, g, D, QUINTIC)
        assert split.recombination_p <= 1e-8
        assert split.recombination_u <= 1e-8
        assert an.split_study(split, 0.25, 2.0).q_fit.rate < 0.0

    def test_part_pressure_drift_raises(self, monkeypatch):
        # a step that moves q's mean trips the drift guard
        g, D = small_setup(n=8)
        _drift_component(monkeypatch, (g.shape,) * 3, 1)  # p, q, r
        with pytest.raises(RuntimeError, match="^pressure mean drifted to 1.000e-09 at step 1$"):
            self._run(dyn.run_split, g, D, QUINTIC, t_max=0.1)

    def test_bootstrap_parts(self):
        g, D = small_setup(n=8)
        split = self._run(dyn.run_bootstrap_split, g, D, QUINTIC, seed=67)
        assert split.recombination_p <= 1e-8
        st = an.split_study(split, 1.0, 2.0)  # the p2 part in H1
        assert st.q_fit.rate < 0.0
        assert np.isfinite(st.rows).all()

    def test_bootstrap_velocity_at_t0(self):
        # w(t0) carries the part-2 load at the run's u(t0), so v + w is u(t0)
        # there as at every later stored time
        g, D = small_setup(n=8)
        split = self._run(dyn.run_bootstrap_split, g, D, QUINTIC, seed=67)
        v, w, u0 = split.v[0], split.w[0], split.u[0]
        assert gr.spectral_norm(w, g, 1.0) > 0.0
        assert np.abs(v + w - u0).max() <= 1e-8 * np.abs(u0).max()

    def test_bootstrap_zero_reference(self):
        g, D = small_setup()
        cfg = dyn.SolverConfig(dt=0.05, newton_tol=1e-12)
        split = dyn.run_bootstrap_split(np.zeros(g.shape), g, _zero_forcing(g), cfg, D,
                                        QUINTIC, t_max=0.5)
        assert np.abs(split.q).max() <= 1e-12
        assert np.abs(split.r).max() <= 1e-12

    def test_newton_solves_only_the_reference_drag(self, monkeypatch):
        # the linear velocities (w; u1 and u2) are direct sine-basis solves,
        # so every Newton solve a split makes carries the run's drag. Per RK
        # stage and at the last stored time, each split solves u(p) once and
        # the trunc split also v(q): 8N + 2 and 4N + 1 solves over N steps (a
        # stored step's first stage takes the velocities it stored)
        g, D = small_setup(n=8)
        solve, seen = dyn.solve_elliptic_arrays, []

        def spy(p, g_t, params, grid, **kwargs):
            seen.append(params)
            return solve(p, g_t, params, grid, **kwargs)

        monkeypatch.setattr(dyn, "solve_elliptic_arrays", spy)
        n_steps = 10  # t_max = 0.5 at dt = 0.05, stored at steps 0, 4, 8, 10
        for run, per_stage in ((dyn.run_split, 2), (dyn.run_bootstrap_split, 1)):
            seen.clear()
            split = self._run(run, g, D, QUINTIC, t_max=0.5)
            assert len(split.times) == 4
            assert len(seen) == per_stage * (4 * n_steps + 1)
            assert all(params == QUINTIC for params in seen)

    @pytest.mark.parametrize("run", [dyn.run_split, dyn.run_bootstrap_split],
                             ids=["trunc", "bootstrap"])
    def test_stored_velocities_start_the_next_step(self, monkeypatch, run):
        # storing every step takes each step's first-stage velocities from
        # the stored ones; storing only the ends solves them as the run goes
        # at every step but the first. Both runs make the same solves, none
        # of them a 0-step re-solve of a stored state, and end in the same
        # bytes
        g, D = small_setup(n=8)
        solve, steps = dyn.solve_elliptic_arrays, []

        def spy(*args, **kwargs):
            u, history = solve(*args, **kwargs)
            steps.append(len(history) - 1)
            return u, history

        monkeypatch.setattr(dyn, "solve_elliptic_arrays", spy)
        runs, per_stage = [], 2 if run is dyn.run_split else 1
        for every in (1, 10):  # 10 steps: stored at each, or at 0 and 10
            steps.clear()
            runs.append(self._run(run, g, D, QUINTIC, t_max=0.5, every=every))
            assert len(steps) == per_stage * (4 * 10 + 1) and 0 not in steps
        for name in "puqvrw":
            a, b = getattr(runs[0], name), getattr(runs[1], name)
            assert np.array_equal(a[[0, -1]], b)

    @pytest.mark.parametrize("dim,n", [(2, 16), (3, 6)])
    def test_stacked_pressure_rates_equal_single_ones(self, dim, n):
        # a split takes the rates of (u, v, w) as one three-member batch on
        # a kernel, whose rows each equal the allocating rate of one member
        g = Grid(dim, n)
        rng = SplitMix64(1500 + dim)
        for D in (MediumMatrix.diagonal((1.0, 2.0, 1.5)[:dim]),
                  MediumMatrix(np.array(TestInPlaceRhs.MEDIA[dim]))):
            kernel = dyn._Kernel((3, dim) + g.shape, g, D, LINEAR)
            for _ in range(5):  # later calls refill the same arrays
                us = [rng.normal((dim,) + g.shape) for _ in range(3)]
                rates = kernel.pressure_rate(np.stack(us))
                for u, rate in zip(us, rates):
                    assert np.array_equal(rate, _allocating_pressure_rate(u, D, g))

    def test_a_wrong_part_fails_to_recombine(self, monkeypatch):
        # one part's velocity off by 1e-3 relative (w of the trunc split, both
        # parts of the bootstrap split) moves the parts off the run they step
        # with, and the split's own check catches it
        g, D = small_setup(n=8)
        linear = dyn._linear_velocity
        monkeypatch.setattr(dyn, "_linear_velocity",
                            lambda *args: (1.0 + 1e-3) * linear(*args))
        for run in (dyn.run_split, dyn.run_bootstrap_split):
            with pytest.raises(dyn.RecombinationError, match="failed to recombine"):
                self._run(run, g, D, QUINTIC, t_max=0.5)


class TestRecombination:
    def test_defects_raise_a_runtime_error(self):
        # a RuntimeError, so that the command line maps it to exit code 2
        with pytest.raises(dyn.RecombinationError, match="failed to recombine"):
            dyn.SplitTrajectory(Grid(2, 4), *[np.zeros(1)] * 7, 0.0, 1e-3)
        with pytest.raises(dyn.RecombinationError, match="failed to recombine"):
            dyn.ExpSplitTrajectory(*[np.zeros(1)] * 3, 1e-3)
        assert issubclass(dyn.RecombinationError, RuntimeError)


class TestExpSplit:
    def test_identical_trajectories_give_zero(self):
        g, D = small_setup()
        state = make_initial_state(g, "smooth", 1.0, seed=71)
        cfg = dyn.SolverConfig(dt=1e-3)
        es = dyn.run_exp_split(_batch([state, state]), g, _zero_forcing(g), cfg, D, QUINTIC,
                               0.2, snapshot_every=50)
        assert np.abs(es.V).max() <= 1e-13  # hat and tilde

    def test_part_pressure_drift_raises(self, monkeypatch):
        # a step that moves the parts' pressure means (Q) trips the drift guard
        g, D = small_setup()
        vel = (2, 2) + g.shape
        _drift_component(monkeypatch, (vel, vel, vel[:1] + g.shape, vel[:1] + g.shape), 3)
        pair = perturbed_pair(make_initial_state(g, "smooth", 1.0, seed=77), g, 78, 1e-3)
        with pytest.raises(RuntimeError, match="^pressure mean drifted to 1.000e-09 at step 1$"):
            dyn.run_exp_split(pair, g, _zero_forcing(g), dyn.SolverConfig(dt=1e-3), D,
                              QUINTIC, 0.01)

    def test_overflowing_initial_difference_raises_blowup_at_step_1(self):
        # a finite initial difference whose quintic drag overflows, so the
        # state turns NaN within the first step
        g, D = small_setup()
        state = make_initial_state(g, "smooth", 1.0, seed=75)
        u_bad = state[0].copy()
        u_bad[0, 3, 3] = 1e100
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(dyn.BlowUpError) as err:
                dyn.run_exp_split(_batch([state, (u_bad, state[1])]), g, _zero_forcing(g),
                                  dyn.SolverConfig(dt=1e-3), D, QUINTIC, 0.02,
                                  snapshot_every=5)
        assert err.value.step_count == 1
        assert "step 1 " in str(err.value)

    def test_nonfinite_initial_state_raises_blowup_at_step_0(self):
        g, D = small_setup()
        state = make_initial_state(g, "smooth", 1.0, seed=76)
        u_bad = state[0].copy()
        u_bad[1, 2, 5] = np.nan
        with pytest.raises(dyn.BlowUpError) as err:
            dyn.run_exp_split(_batch([state, (u_bad, state[1])]), g, _zero_forcing(g),
                              dyn.SolverConfig(dt=1e-3), D, QUINTIC, 0.02,
                              snapshot_every=5)
        assert err.value.step_count == 0
        assert "step 0 " in str(err.value)

    def test_hat_decays_tilde_smooth(self):
        g, D = small_setup()
        pair = perturbed_pair(make_initial_state(g, "smooth", 1.0, seed=73), g, 74, 1e-3)
        st = an.exp_split_study(pair, g, dyn.SolverConfig(dt=1e-3), _zero_forcing(g),
                                D, QUINTIC, 2.0, 100)
        assert st.split.recombination <= 1e-8
        assert st.hat_fit.rate < 0.0
        assert np.isfinite(st.tilde_h1).all()
        assert np.isfinite(st.K)


class TestSnapshotPolicy:
    """Every driver stores exactly the step ends its rule names, swept over
    seeded step sizes, horizons, strides and target times on a 4x4 grid."""

    @staticmethod
    def _draws(seed, count=5):
        rng = SplitMix64(seed)
        for _ in range(count):
            dt = 1e-3 + 8e-3 * rng.uniform()  # the rk4 CFL bound here is 9e-3
            t_max = 0.01 + 0.09 * rng.uniform()
            yield dt, t_max, rng.integers(1, 8), rng

    @staticmethod
    def _every(dt, n, every):
        # every `every`-th step end plus the last, each once
        return [k * dt for k in range(n + 1) if k % every == 0 or k == n]

    @staticmethod
    def _nearest(dt, n, targets):
        # each target goes to the first step ending at most half a step
        # before it; targets past the last step end are dropped
        ks = {0, n}
        for s in targets:
            ks.add(next((k for k in range(1, n + 1) if s <= k * dt + 0.5 * dt), 0))
        return [k * dt for k in sorted(ks)]

    def test_simulate_every_and_targets(self):
        g = Grid(2, 4)
        D = MediumMatrix.identity(2)
        state = make_initial_state(g, "smooth", 1.0, seed=702)
        for dt, t_max, every, rng in self._draws(701):
            cfg = dyn.SolverConfig(dt=dt)
            n = max(1, int(round(t_max / dt)))
            traj = dyn.simulate(state, g, cfg, _zero_forcing(g), D, QUINTIC, t_max,
                                snapshot_every=every)
            assert traj.times.tolist() == self._every(dt, n, every)
            targets = -0.01 + (t_max + 0.03) * rng.uniform(6)
            targets = np.append(targets, targets[0] + 0.2 * dt)  # shares a step
            traj = dyn.simulate(state, g, cfg, _zero_forcing(g), D, QUINTIC, t_max,
                                snapshot_times=targets)
            assert traj.times.tolist() == self._nearest(dt, n, targets)
            assert len(traj.u) == len(traj.p) == len(traj.times)

    def test_truncated_and_ensemble_every(self):
        g = Grid(2, 4)
        D = MediumMatrix.identity(2)
        for dt, t_max, every, rng in self._draws(711):
            cfg = dyn.SolverConfig(dt=dt)
            n = int(round(t_max / dt))
            p0 = _random_pressure(g, rng)
            tr = dyn.run_bootstrap_split(p0, g, _zero_forcing(g), cfg, D, LINEAR, t_max,
                                         snapshot_every=every)
            assert tr.times.tolist() == self._every(dt, n, every)
            assert len(tr.p) == len(tr.u) == len(tr.times)
            states = _batch([make_initial_state(g, "smooth", a, seed=712) for a in (0.5, 1.0)])
            traj = dyn.simulate(states, g, cfg, _zero_forcing(g), D, QUINTIC, t_max,
                                snapshot_every=every)
            assert traj.times.tolist() == self._every(dt, n, every)
            assert traj.u.shape[:2] == traj.p.shape[:2] == (len(traj.times), 2)

    def test_splits_store_every(self):
        g = Grid(2, 4)
        D = MediumMatrix.diagonal((1.0, 2.0))
        for dt, t_max, every, rng in self._draws(721, count=3):
            cfg = dyn.SolverConfig(dt=dt)
            p0 = _random_pressure(g, rng)
            gf = 0.5 * rng.normal((2,) + g.shape)
            for run in (dyn.run_split, dyn.run_bootstrap_split):
                split = run(p0, g, gf, cfg, D, QUINTIC, t_max, snapshot_every=every)
                assert split.times.tolist() == self._every(dt, int(round(t_max / dt)), every)
                assert all(len(a) == len(split.times) for a in (
                    split.p, split.u, split.q, split.v, split.r, split.w))
            # the difference splitting stores as simulate does, at least one step
            pair = _batch([make_initial_state(g, "smooth", a, seed=722) for a in (1.0, 1.1)])
            es = dyn.run_exp_split(pair, g, gf, cfg, D, QUINTIC, t_max, snapshot_every=every)
            n = max(1, int(round(t_max / dt)))
            assert es.times.tolist() == self._every(dt, n, every)
            assert es.V.shape[:2] == es.Q.shape[:2] == (len(es.times), 2)
