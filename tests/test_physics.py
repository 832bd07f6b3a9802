"""Nonlinearity, medium matrix, divergence right-inverse, energy functionals."""

from functools import partial

import numpy as np
import pytest

from bfflow import analysis as an
from bfflow import dynamics as dyn
from bfflow import grid as gr
from bfflow import physics as ph
from bfflow.grid import Grid
from bfflow.physics import MediumMatrix, NonlinearityParams
from bfflow.rng import SplitMix64

QUINTIC = NonlinearityParams(alpha=1.0, beta=1.0, gamma=0.0, l=2.0)
CUBIC = NonlinearityParams(alpha=1.0, beta=1.0, gamma=0.0, l=1.0)
SQRT = NonlinearityParams(alpha=0.0, beta=0.0, gamma=3.0, l=1.0)


def _dot(g, a, b):
    """The h^d-weighted inner product of two field arrays."""
    return g.cell_volume * float(np.vdot(a, b))


def _convective(u, v, g):
    return ph.convective_array(u, v, g.h, g.dim)


def _div_residual(p, g):
    """|div bogovski(p) - p| / |p| for a mean-zero p."""
    w = ph.bogovski(p, g)
    return gr.norm_l2(gr.div_array(w, g.h, g.dim) - p, g) / gr.norm_l2(p, g)


def _potential(u, params, g):
    """Oracle for the drag: h^d * sum of F(u), F the radial antiderivative of
    f, so that dF(su)/ds at s = 1 is f(u).u."""
    z = np.sum(u * u, axis=0)
    F = 0.5 * (params.alpha * z
               + params.beta * z ** (params.l + 1.0) / (params.l + 1.0)
               + (2.0 / 3.0) * params.gamma * z ** 1.5)
    return float(g.cell_volume * F.sum())


class TestParams:
    def test_l_range(self):
        with pytest.raises(ValueError):
            NonlinearityParams(1.0, 1.0, 0.0, l=3.0)
        with pytest.raises(ValueError):
            NonlinearityParams(1.0, 1.0, 0.0, l=0.0)

    def test_negative_coeff_rejected(self):
        with pytest.raises(ValueError):
            NonlinearityParams(-1.0, 0.0)


class TestMedium:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            MediumMatrix(np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            MediumMatrix(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            MediumMatrix(np.diag([1.0, np.inf]))

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            MediumMatrix(np.diag([1.0, -2.0]))

    def test_eig_bounds(self):
        D = MediumMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
        assert 0 < D.eigmin < D.eigmax

    @pytest.mark.parametrize("lead", [(), (4,)])
    def test_apply_array_matches_einsum(self, lead):
        D = MediumMatrix(np.array([[2.0, 0.5, -0.3], [0.5, 1.5, 0.2],
                                   [-0.3, 0.2, 1.0]]))
        g = Grid(3, 6)
        u = SplitMix64(59 + len(lead)).normal(lead + (3,) + g.shape)
        ref = np.einsum("ab,...bxyz->...axyz", D.entries, u)
        got = D.apply_array(u)
        assert got.shape == u.shape
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("dim,n", [(2, 8), (2, 16), (3, 6), (3, 8)])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_apply_array_out_keeps_the_bytes(self, dim, n, lead):
        # the medium's sequence into a fresh array and into the first `dim`
        # components of a wider velocity, as into the arrays of a kernel;
        # grid axes that cannot be viewed as one node axis raise rather than
        # take the product in a copy
        D = MediumMatrix(np.array([[2.0, 0.5, -0.3], [0.5, 1.5, 0.2],
                                   [-0.3, 0.2, 1.0]])[:dim, :dim])
        rng = SplitMix64(61 + 10 * dim + n + len(lead))
        u = rng.normal(lead + (dim,) + (n,) * dim)
        want = D.apply_array(u)
        wide = rng.normal(lead + (dim + 1,) + (n,) * dim)
        for out in (rng.normal(u.shape), wide[(Ellipsis, slice(0, dim)) + (slice(None),) * dim]):
            assert ph._medium(*ph._medium_constants(D, u.shape, out), u) is out
            assert out.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="has no view of shape"):
            ph._medium_constants(D, u.shape, np.empty(u.shape).swapaxes(-1, -2))


class TestPhi:
    def test_boundary_value(self):
        assert ph._phi_array(np.zeros(1), QUINTIC)[0] == 1.0

    def test_direct_evaluations(self):
        assert ph._phi_array(np.array([2.0]), QUINTIC)[0] == pytest.approx(5.0, rel=1e-15)
        assert ph._phi_array(np.array([4.0]), SQRT)[0] == pytest.approx(6.0, rel=1e-15)

    def test_square_keeps_the_bytes_of_the_power(self):
        # l = 2 squares z in place; the bytes are those of z ** 2.0 and of z
        # raised in place (`z **= 2.0`, np.power's loop for a scalar
        # exponent, as phi was formed before), on seeded draws with zeros,
        # subnormals, magnitudes up to 1e150 and inf
        rng = SplitMix64(71)
        for _ in range(5):
            z = rng.uniform(100_000) * 10.0 ** rng.integers(-325, 151, 100_000)
            z[::97] = 0.0
            z[::89] = np.inf
            z[::83] = 5e-324 * rng.integers(1, 1 << 40, z[::83].size)
            assert np.count_nonzero((z > 0) & (z < np.finfo(float).tiny)) > 1000
            want, raised = z ** 2.0, z.copy()
            raised **= 2.0
            assert raised.tobytes() == want.tobytes()
            got = ph._phi_array(z.copy(), NonlinearityParams(0.0, 1.0, 0.0, l=2.0))
            assert got.tobytes() == want.tobytes()


class TestF:
    def test_zero(self):
        g = Grid(2, 8)
        assert np.all(ph.f_apply_array(np.zeros((2,) + g.shape), QUINTIC, g.dim) == 0.0)

    def test_unit_field_cubic(self):
        g = Grid(2, 8)
        u = np.stack([np.ones(g.shape), np.zeros(g.shape)])
        out = ph.f_apply_array(u, CUBIC, g.dim)
        assert np.abs(out[0] - 2.0).max() <= 1e-15
        assert np.all(out[1] == 0.0)

    def test_drag_work_lower_bound(self):
        # phi >= 0 for this family, so f(u).u >= 0 >= -C|u| pointwise
        rng = SplitMix64(61)
        v = rng.normal((10000, 3)) * 3.0
        z = np.sum(v * v, axis=1)
        for params in (QUINTIC, SQRT, CUBIC):
            fv = ph._phi_array(z.copy(), params)[:, None] * v
            assert np.min(np.sum(fv * v, axis=1)) >= 0.0


class TestPotential:
    """The drag is the gradient of a potential written here, independently."""

    def test_zero(self):
        g = Grid(2, 8)
        assert _potential(np.zeros((2,) + g.shape), QUINTIC, g) == 0.0

    def test_single_node_closed_form(self):
        g = Grid(2, 8)
        vals = np.zeros((2,) + g.shape)
        vals[0, 3, 4] = 1.0
        params = NonlinearityParams(alpha=2.0, beta=0.0, gamma=0.0, l=1.0)
        assert _potential(vals, params, g) == pytest.approx(g.h ** 2, rel=1e-15)

    @pytest.mark.parametrize("params", [QUINTIC, SQRT])
    def test_directional_derivative(self, params):
        # finite-difference oracle: d/ds of the potential at s=1 is (f(u), u)
        g = Grid(2, 8)
        rng = SplitMix64(67)
        u = rng.normal((2,) + g.shape) + 0.5
        s = 1e-5
        fd = (_potential((1 + s) * u, params, g) - _potential((1 - s) * u, params, g)) / (2 * s)
        exact = _dot(g, ph.f_apply_array(u, params, g.dim), u)
        assert fd == pytest.approx(exact, rel=1e-6)


def _first_components(shape, dim, rng, count=None):
    """The first `count` (by default all) components of an array with one
    more, of `shape` but for that: its leading axes are strided."""
    lead, comps = shape[:len(shape) - dim - 1], shape[len(shape) - dim - 1]
    wide = rng.normal(lead + (comps + 1,) + shape[len(shape) - dim:])
    return wide[(Ellipsis, slice(0, comps if count is None else count)) + (slice(None),) * dim]


class TestBoundSequences:
    """D u, f(u) and f'(u) v, each bound once to its lookup's constants and
    to arrays that are component views of member-stacked arrays, as a kernel
    binds them, then called on two inputs in turn, as RK4's stages call
    them: every call returns its bound array, with the bytes of the
    allocating call."""

    DRAGS = [QUINTIC, CUBIC, SQRT, NonlinearityParams(1.0, 0.3, 0.7, l=1.5),
             NonlinearityParams(0.0, 0.0)]

    @pytest.mark.parametrize("dim,n", [(2, 8), (2, 16), (3, 6), (3, 8)])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_bound_calls_keep_the_bytes(self, dim, n, lead):
        rng = SplitMix64(80 + 10 * dim + n + len(lead))
        shape, axis = lead + (dim,) + (n,) * dim, len(lead)
        D = MediumMatrix(np.array([[2.0, 0.5, -0.3], [0.5, 1.5, 0.2],
                                   [-0.3, 0.2, 1.0]])[:dim, :dim])
        out, work = _first_components(shape, dim, rng), _first_components(shape, dim, rng, 1)
        medium = partial(ph._medium, *ph._medium_constants(D, shape, out))
        drag = partial(ph._f_apply, out, work, axis)
        fprime = partial(ph._fprime_apply, out, (_first_components(shape, dim, rng), work), axis)
        inputs = [rng.normal(shape) for _ in range(2)]
        for u in inputs + inputs:
            assert medium(u) is out
            assert out.tobytes() == D.apply_array(u).tobytes()
            for params in self.DRAGS:
                assert drag(params, u) is out
                assert out.tobytes() == ph.f_apply_array(u, params, dim).tobytes()
                v = rng.normal(shape)
                u[..., 0, :] = 0.0  # z = 0 on one face, the masked phi' branch
                coefficients = ph._fprime_coefficients(u, params, dim)
                assert fprime(coefficients, u, v) is out
                assert out.tobytes() == ph.fprime_apply_array(u, v, params, dim).tobytes()


class TestFPrime:
    def test_zero_direction(self):
        g = Grid(2, 8)
        rng = SplitMix64(71)
        u = rng.normal((2,) + g.shape)
        out = ph.fprime_apply_array(u, np.zeros_like(u), QUINTIC, g.dim)
        assert np.all(out == 0.0)

    # linear drag takes the early return of the beta = gamma = 0 case
    @pytest.mark.parametrize("params", [QUINTIC, CUBIC, SQRT, NonlinearityParams(1.0, 0.0)])
    def test_matches_central_difference(self, params):
        g = Grid(2, 8)
        rng = SplitMix64(73)
        # keep |u| away from 0: the sqrt branch is not differentiable there
        u = rng.normal((2,) + g.shape) + 2.0
        v = rng.normal((2,) + g.shape)
        s = 1e-5
        fd = (ph.f_apply_array(u + s * v, params, g.dim)
              - ph.f_apply_array(u - s * v, params, g.dim)) / (2 * s)
        got = ph.fprime_apply_array(u, v, params, g.dim)
        assert np.abs(got - fd).max() <= 1e-8 * max(1.0, np.abs(fd).max())

    def test_symmetric_bilinear_form(self):
        g = Grid(2, 8)
        rng = SplitMix64(79)
        u, v, w = (rng.normal((2,) + g.shape) for _ in range(3))
        a = _dot(g, ph.fprime_apply_array(u, v, QUINTIC, g.dim), w)
        b = _dot(g, v, ph.fprime_apply_array(u, w, QUINTIC, g.dim))
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)

    def test_monotone_quadratic_form(self):
        g = Grid(2, 8)
        rng = SplitMix64(83)
        u = rng.normal((2,) + g.shape) + 3.0
        v = rng.normal((2,) + g.shape)
        assert _dot(g, ph.fprime_apply_array(u, v, QUINTIC, g.dim), v) >= 0.0


class TestMonotoneDrag:
    """f is monotone for every admissible parameter set, with no shift: the
    elliptic solves rely on it."""

    @staticmethod
    def _points(rng, comps, count):
        """Random directions with |u| log-uniform from 1e-6 to 10."""
        x = rng.normal((comps, count))
        radius = 10.0 ** (-6.0 + 7.0 * rng.uniform(count))
        return x * (radius / np.linalg.norm(x, axis=0))

    @pytest.mark.parametrize("gamma_on", [True, False], ids=["gamma", "no_gamma"])
    @pytest.mark.parametrize("l_range", [(0.0, 0.5), (0.5, 0.5), (0.5, 1.0), (1.0, 2.0)],
                             ids=["l_below_half", "l_half", "l_half_to_1", "l_1_to_2"])
    def test_sweep(self, l_range, gamma_on):
        rng = SplitMix64(int(1000 * sum(l_range)) + gamma_on)
        lo, hi = l_range
        for draw in range(6):
            alpha, beta, gamma = 2.0 * rng.uniform(3)
            l = hi - (hi - lo) * float(rng.uniform())    # in (lo, hi]
            params = NonlinearityParams(alpha if draw % 3 else 0.0, beta,
                                        gamma if gamma_on else 0.0, l)
            comps = 2 + draw % 2
            a, b, v = (self._points(rng, comps, 20000) for _ in range(3))
            fa = ph.f_apply_array(a, params, 1)
            fb = ph.f_apply_array(b, params, 1)
            gap = np.sum((fa - fb) * (a - b), axis=0)
            scale = np.linalg.norm(fa - fb, axis=0) * np.linalg.norm(a - b, axis=0)
            assert np.all(gap >= -1e-12 * scale), params
            jac = np.sum(ph.fprime_apply_array(a, v, params, 1) * v, axis=0)
            assert np.all(jac >= 0.0), params


class TestBogovski:
    def test_zero(self):
        g = Grid(2, 8)
        w = ph.bogovski(np.zeros(g.shape), g)
        assert w.shape == (2,) + g.shape and np.all(w == 0.0)

    @pytest.mark.parametrize("n", [8, 16])
    def test_right_inverse(self, n):
        g = Grid(2, n)
        rng = SplitMix64(101 + n)
        p = gr.mean_project_array(rng.normal(g.shape), g.dim)
        assert _div_residual(p, g) <= 1e-8

    def test_mean_projection_warns(self):
        g = Grid(2, 8)
        rng = SplitMix64(103)
        p = rng.normal(g.shape) + 1.0
        with pytest.warns(UserWarning):
            ph.bogovski(p, g)

    def test_bounded_in_h1(self):
        g = Grid(2, 8)
        rng = SplitMix64(107)
        ratios = []
        for _ in range(20):
            p = gr.mean_project_array(rng.normal(g.shape), g.dim)
            w = ph.bogovski(p, g)
            ratios.append(gr.spectral_norm(w, g, 1.0) / gr.norm_l2(p, g))
        # one constant across all samples; report-style bound
        assert max(ratios) < 10.0 * min(ratios) and max(ratios) < 100.0


class TestEnergyReport:
    """The energy functionals as the energy audit and the run's work rows
    compute them."""

    @staticmethod
    def _audit(state, g, D, eps):
        traj = dyn.simulate(state, g, dyn.SolverConfig(dt=1e-3), np.zeros((2,) + g.shape),
                            D, QUINTIC, 1e-3, collect_work=True)
        return traj, an.energy_audit(traj, eps)

    def test_all_zero(self):
        g = Grid(2, 8)
        zero = (np.zeros((2,) + g.shape), np.zeros(g.shape))
        traj, audit = self._audit(zero, g, MediumMatrix.identity(2), 0.1)
        assert not traj.energy_series.any() and not traj.endpoint_terms.any()
        assert not traj.work_increments.any() and not audit.e_eps_series.any()

    def test_eps_zero_decouples(self):
        g = Grid(2, 8)
        D = MediumMatrix.diagonal([1.0, 2.0])
        rng = SplitMix64(109)
        u = rng.normal((2,) + g.shape)
        p = gr.mean_project_array(rng.normal(g.shape), g.dim)
        traj, audit = self._audit((u, p), g, D, 0.0)
        for e_eps, u, p in zip(audit.e_eps_series, traj.u, traj.p):
            assert e_eps == gr.weighted_inner(D, u, u, g) + gr.inner(p, p, g)

    def test_certified_equivalence_window(self):
        g = Grid(2, 8)
        D = MediumMatrix.diagonal([1.0, 2.0])
        eps_star = ph.certify_eps(g, D, n_samples=50, seed=2024)
        assert eps_star > 0
        eps = eps_star / 2.0
        rng = SplitMix64(997)  # fresh states, different stream
        for _ in range(50):
            u = rng.normal((2,) + g.shape)
            p = gr.mean_project_array(rng.normal(g.shape), g.dim)
            e_plain = gr.weighted_inner(D, u, u, g) + gr.inner(p, p, g)
            e_eps = e_plain + 2.0 * eps * gr.inner(u, ph.bogovski(p, g), g)
            assert 0.5 * e_plain <= e_eps <= 1.5 * e_plain

    def test_dissipation_is_weighted_gradient_energy(self):
        # the work row's -<lap u, D u> against the D-weighted forward-difference
        # gradient energy (D diagonal: one weight per component)
        g = Grid(2, 8)
        D = MediumMatrix.diagonal([1.0, 2.0])
        rng = SplitMix64(113)
        u = rng.normal((2,) + g.shape)
        sys = dyn._FullSystem(g, D, QUINTIC, np.zeros_like(u), False, work_rows=1)
        sys.rhs(u, np.zeros(g.shape))  # the work row reads u alone
        energy = 0.0
        for comp, weight in enumerate((1.0, 2.0)):
            padded = np.pad(u[comp], 1)
            for ax in range(g.dim):
                dif = np.diff(padded, axis=ax)
                energy += weight * g.cell_volume / g.h ** 2 * np.sum(dif * dif)
        assert sys.work[0, 0] > 0.0
        assert sys.work[0, 0] == pytest.approx(energy, rel=1e-12)


def _shifted_convective(u, v, h, dim):
    """B(u, v) with each central difference taken as the difference of two
    zero-filled shifts, `gr._shifted(x, dim, b, -1) - gr._shifted(x, dim, b, 1)`."""
    out = np.empty_like(v)
    for a in range(dim):
        acc = np.zeros_like(v[a])
        for b in range(dim):
            dva = (gr._shifted(v[a], dim, b, -1) - gr._shifted(v[a], dim, b, 1)) / (2.0 * h)
            prod = u[b] * v[a]
            dprod = (gr._shifted(prod, dim, b, -1) - gr._shifted(prod, dim, b, 1)) / (2.0 * h)
            acc += 0.5 * (u[b] * dva + dprod)
        out[a] = acc
    return out


class TestConvective:
    @pytest.mark.parametrize("dim,n,members", [(2, 8, 1), (2, 64, 3), (3, 6, 1), (3, 8, 4),
                                               (3, 16, 2)])
    def test_products_with_c_keep_the_bytes_of_the_shifts(self, dim, n, members):
        # each member's entries spread over 10 decades
        g = Grid(dim, n)
        rng = SplitMix64(137 + 10 * dim + n)
        shape = (members, dim) + g.shape
        u = rng.normal(shape) * 10.0 ** (10.0 * rng.uniform(shape) - 5.0)
        v = rng.normal(shape) * 10.0 ** (10.0 * rng.uniform(shape) - 5.0)
        got = ph.convective_array(u, v, g.h, dim)
        for m in range(members):
            want = _shifted_convective(u[m], v[m], g.h, dim)
            assert got[m].tobytes() == want.tobytes()
            assert ph.convective_array(u[m], v[m], g.h, dim).tobytes() == want.tobytes()

    def test_zero(self):
        g = Grid(2, 8)
        rng = SplitMix64(127)
        v = rng.normal((2,) + g.shape)
        out = _convective(np.zeros((2,) + g.shape), v, g)
        assert np.all(out == 0.0)

    def test_skew_symmetry_20_pairs(self):
        g = Grid(2, 8)
        rng = SplitMix64(131)
        for _ in range(20):
            u = rng.normal((2,) + g.shape)
            v = rng.normal((2,) + g.shape)
            val = gr.inner(_convective(u, v, g), v, g)
            assert abs(val) <= 1e-12 * gr.norm_l2(u, g) * gr.norm_l2(v, g) ** 2

    def test_divergence_free_constant_direction(self):
        # u = curl of a stream bump (analytic), v constant: B(u, v) -> 0 at O(h^2)
        errs = []
        for n in (16, 32):
            g = Grid(2, n)
            x, y = gr.coordinates(g)
            sx, sy = np.sin(np.pi * x), np.sin(np.pi * y)
            cx, cy = np.cos(np.pi * x), np.cos(np.pi * y)
            # psi = (sx sy)^3; u = (d psi/dy, -d psi/dx)
            ux = 3.0 * np.pi * (sx * sy) ** 2 * sx * cy
            uy = -3.0 * np.pi * (sx * sy) ** 2 * cx * sy
            u = np.stack([ux, uy])
            v = np.stack([np.ones(g.shape), np.ones(g.shape)])
            errs.append(np.abs(_convective(u, v, g)).max())
        assert errs[1] <= errs[0] / 2.5

