"""Discrete calculus: stencil contracts, adjointness, spectral norms."""

from functools import partial

import numpy as np
import pytest

from bfflow import grid as gr
from bfflow.grid import Grid
from bfflow.physics import MediumMatrix
from bfflow.rng import SplitMix64


def random_scalar(grid, rng):
    return rng.normal(grid.shape)


def random_vector(grid, rng):
    return rng.normal((grid.dim,) + grid.shape)


def grad(p, g):
    return gr.grad_array(p, g.h, g.dim)


def div(U, g):
    return gr.div_array(U, g.h, g.dim)


class TestGridType:
    def test_spacing_invariant(self):
        for n in (4, 6, 8, 16, 32):
            g = Grid(2, n)
            assert g.h * (n + 1) == 1.0

    @pytest.mark.parametrize("dim,n", [(1, 8), (4, 8), (2, 2), (2, 7), (2, 48)])
    def test_invalid_grids_rejected(self, dim, n):
        with pytest.raises(ValueError):
            Grid(dim, n)

    def test_3d_supported(self):
        g = Grid(3, 4)
        assert g.num_nodes == 64


class TestGrad:
    def test_zero(self):
        g = Grid(2, 8)
        out = grad(np.zeros(g.shape), g)
        assert out.shape == (2,) + g.shape and np.all(out == 0.0)

    @pytest.mark.parametrize("n", [16, 32])
    def test_matches_analytic_gradient(self, n):
        # oracle: hand-differentiated sin(pi x) sin(pi y)
        g = Grid(2, n)
        x, y = gr.coordinates(g)
        p = np.sin(np.pi * x) * np.sin(np.pi * y)
        exact = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
        err = np.abs(grad(p, g)[0] - exact).max()
        # central-difference truncation bound (pi^3/6) h^2, with margin
        assert err <= 1.2 * (np.pi ** 3 / 6.0) * g.h ** 2

    def test_second_order(self):
        errs = []
        for n in (16, 32):
            g = Grid(2, n)
            x, y = gr.coordinates(g)
            p = np.sin(np.pi * x) * np.sin(np.pi * y)
            exact = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
            errs.append(np.abs(grad(p, g)[0] - exact).max())
        order = np.log2(errs[0] / errs[1]) / np.log2(33.0 / 17.0)
        assert order == pytest.approx(2.0, abs=0.3)

    def test_adjointness_10_random_pairs(self):
        g = Grid(2, 8)
        rng = SplitMix64(7)
        for _ in range(10):
            p = random_scalar(g, rng)
            U = random_vector(g, rng)
            lhs = gr.inner(grad(p, g), U, g)
            rhs = -gr.inner(p, div(U, g), g)
            assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs), 1.0)


class TestDiv:
    def test_zero(self):
        g = Grid(2, 8)
        assert np.all(div(np.zeros((2,) + g.shape), g) == 0.0)

    def test_matches_analytic_laplacian_in_interior(self):
        # div(grad s) equals the analytic Laplacian away from the
        # zero-extension boundary layer (grad s does not vanish on the walls)
        errs = []
        for n in (16, 32):
            g = Grid(2, n)
            x, y = gr.coordinates(g)
            s = np.sin(np.pi * x) * np.sin(np.pi * y)
            got = div(grad(s, g), g)
            exact = -2.0 * np.pi ** 2 * s
            interior = (slice(2, -2), slice(2, -2))
            errs.append(np.abs(got[interior] - exact[interior]).max())
        assert errs[1] <= errs[0] / 2.5  # about 4x per halving of h

    def test_constant_field_boundary_layer_only(self):
        g = Grid(2, 8)
        U = np.stack([np.ones(g.shape), np.zeros(g.shape)])
        d = div(U, g)
        assert np.all(d[2:-2, 2:-2] == 0.0)
        assert np.any(d[0, :] != 0.0) and np.any(d[-1, :] != 0.0)


class TestLaplacian:
    def test_zero(self):
        g = Grid(2, 8)
        assert np.all(gr.lap_array(np.zeros((2,) + g.shape), g.h, g.dim) == 0.0)

    @pytest.mark.parametrize("k", [(1, 1), (2, 3), (5, 1)])
    def test_sine_modes_are_exact_eigenvectors(self, k):
        g = Grid(2, 8)
        mode = gr.sine_mode(g, k)
        U = np.stack([mode, np.zeros(g.shape)])
        lam = -(4.0 / g.h ** 2) * (np.sin(k[0] * np.pi * g.h / 2) ** 2
                                   + np.sin(k[1] * np.pi * g.h / 2) ** 2)
        got = gr.lap_array(U, g.h, g.dim)[0]
        assert np.abs(got - lam * mode).max() <= 1e-11 * abs(lam)

    def test_negative_definite(self):
        g = Grid(2, 8)
        rng = SplitMix64(11)
        for _ in range(10):
            U = random_vector(g, rng)
            assert np.vdot(gr.lap_array(U, g.h, g.dim), U) < 0.0

    def test_symmetric_and_matches_forward_difference_energy(self):
        # the compact stencil pairs exactly with the forward-difference
        # gradient energy (summation by parts), which backs the spectral H1
        g = Grid(2, 8)
        rng = SplitMix64(13)
        U = random_vector(g, rng)
        V = random_vector(g, rng)
        w = g.cell_volume
        a = w * np.vdot(gr.lap_array(U, g.h, g.dim), V)
        b = w * np.vdot(U, gr.lap_array(V, g.h, g.dim))
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)
        energy = 0.0
        for comp in range(g.dim):
            for ax in range(g.dim):
                padded = np.zeros((g.n + 2, g.n + 2))
                padded[1:-1, 1:-1] = U[comp]
                dif = np.diff(padded, axis=ax)
                energy += g.cell_volume / g.h ** 2 * np.sum(dif * dif)
        quad = -w * np.vdot(gr.lap_array(U, g.h, g.dim), U)
        assert quad == pytest.approx(energy, rel=1e-12)


class TestWeightedInner:
    def test_identity_matches_plain_norm(self):
        g = Grid(2, 8)
        rng = SplitMix64(17)
        U = random_vector(g, rng)
        assert gr.weighted_inner(MediumMatrix.identity(2), U, U, g) == pytest.approx(
            gr.norm_l2(U, g) ** 2, rel=1e-14)

    def test_hand_summation(self):
        g = Grid(2, 8)
        U = np.stack([np.ones(g.shape), np.zeros(g.shape)])
        val = gr.weighted_inner(MediumMatrix.diagonal([2.0, 3.0]), U, U, g)
        assert val == pytest.approx(2.0 * g.h ** 2 * 64, rel=1e-15)

    def test_symmetry(self):
        g = Grid(2, 8)
        rng = SplitMix64(19)
        D = MediumMatrix([[2.0, 0.5], [0.5, 1.0]])
        U, V = random_vector(g, rng), random_vector(g, rng)
        a = gr.weighted_inner(D, U, V, g)
        b = gr.weighted_inner(D, V, U, g)
        assert abs(a - b) <= 1e-15 * max(abs(a), 1.0)


class TestSpectral:
    def test_parseval_and_roundtrip(self):
        g = Grid(2, 16)
        rng = SplitMix64(23)
        f = random_scalar(g, rng)
        c = gr.sine_coefficients_array(f, g)
        assert np.sum(c * c) == pytest.approx(gr.norm_l2(f, g) ** 2, rel=1e-12)
        back = gr.sine_synthesis_array(c, g)
        assert np.abs(back - f).max() <= 1e-12

    def test_sobolev_zero_field(self):
        g = Grid(2, 8)
        assert gr.spectral_norm(np.zeros(g.shape), g, 0.7) == 0.0

    def test_sobolev_delta0_is_l2(self):
        g = Grid(2, 16)
        rng = SplitMix64(29)
        f = random_scalar(g, rng)
        assert gr.spectral_norm(f, g, 0.0) == pytest.approx(gr.norm_l2(f, g), rel=1e-12)

    def test_sobolev_lowest_mode_delta1(self):
        g = Grid(2, 8)
        f = gr.sine_mode(g, (1, 1))
        lam1 = (8.0 / g.h ** 2) * np.sin(np.pi * g.h / 2.0) ** 2
        assert lam1 == pytest.approx(19.539590865365682, rel=1e-14)  # frozen
        assert gr.spectral_norm(f, g, 1.0) == pytest.approx(np.sqrt(lam1), rel=1e-12)

    def test_sobolev_monotone_in_delta(self):
        g = Grid(2, 16)
        lam = gr.laplacian_eigenvalues(g)
        assert lam.min() >= 1.0  # precondition for monotonicity
        rng = SplitMix64(31)
        f = random_scalar(g, rng)
        norms = [gr.spectral_norm(f, g, d) for d in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(a <= b * (1 + 1e-13) for a, b in zip(norms, norms[1:]))


class TestMeanProjection:
    def test_constant_to_zero(self):
        g = Grid(2, 8)
        out = gr.mean_project_array(np.full(g.shape, 3.7), g.dim)
        assert np.abs(out).max() <= 1e-14

    def test_idempotent(self):
        g = Grid(2, 8)
        rng = SplitMix64(37)
        p0 = gr.mean_project_array(random_scalar(g, rng), g.dim)
        p1 = gr.mean_project_array(p0, g.dim)
        assert np.abs(p1 - p0).max() <= 1e-15

    def test_mean_removed_and_reconstructible(self):
        g = Grid(2, 8)
        rng = SplitMix64(41)
        p = random_scalar(g, rng)
        m = p.mean()
        out = gr.mean_project_array(p, g.dim)
        assert abs(out.mean()) <= 1e-14
        assert np.abs(out + m - p).max() <= 1e-14


class TestStencilProperties:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_adjointness_quantified(self, n):
        g = Grid(2, n)
        rng = SplitMix64(43 + n)
        for _ in range(100):
            p = random_scalar(g, rng)
            U = random_vector(g, rng)
            lhs = gr.inner(grad(p, g), U, g)
            rhs = -gr.inner(p, div(U, g), g)
            assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs), 1.0)

    def test_linearity(self):
        g = Grid(2, 8)
        rng = SplitMix64(47)
        a, b = 1.7, -2.3
        F, G = random_scalar(g, rng), random_scalar(g, rng)
        lin = grad(a * F + b * G, g)
        sep = a * grad(F, g) + b * grad(G, g)
        assert np.abs(lin - sep).max() <= 1e-13 * np.abs(sep).max()
        U, V = random_vector(g, rng), random_vector(g, rng)
        for op in (gr.div_array, gr.lap_array):
            lin = op(a * U + b * V, g.h, g.dim)
            sep = a * op(U, g.h, g.dim) + b * op(V, g.h, g.dim)
            assert np.abs(lin - sep).max() <= 1e-13 * np.abs(sep).max()

    def test_3d_adjointness_and_eigenvalue(self):
        g = Grid(3, 4)
        rng = SplitMix64(53)
        p = random_scalar(g, rng)
        U = random_vector(g, rng)
        lhs = gr.inner(grad(p, g), U, g)
        rhs = -gr.inner(p, div(U, g), g)
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1.0)
        mode = gr.sine_mode(g, (1, 2, 1))
        W = np.stack([mode] + [np.zeros(g.shape)] * 2)
        lam = -(4.0 / g.h ** 2) * sum(np.sin(k * np.pi * g.h / 2) ** 2
                                      for k in (1, 2, 1))
        got = gr.lap_array(W, g.h, g.dim)[0]
        assert np.abs(got - lam * mode).max() <= 1e-11 * abs(lam)


def _pad_reference(x, dim):
    return np.pad(x, [(0, 0)] * (x.ndim - dim) + [(1, 1)] * dim)


def _window_reference(b, dim, axis, offset):
    """Interior-sized window of a padded array, shifted by `offset` along
    grid axis `axis`."""
    lead = b.ndim - dim
    idx = [slice(None)] * lead + [slice(1, s - 1) for s in b.shape[lead:]]
    size = b.shape[lead + axis]
    idx[lead + axis] = slice(1 + offset, size - 1 + offset)
    return b[tuple(idx)]


# n = 32 and the 2D n = 64 come last so the earlier cases keep their ids
_STENCIL_CASES = ([(dim, lead, n) for dim in (2, 3) for lead in ((), (3,), (2, 3))
                   for n in (4, 6, 8, 16)]
                  + [(dim, lead, 32) for dim in (2, 3) for lead in ((), (3,), (2, 3))]
                  + [(2, lead, 64) for lead in ((), (3,), (2, 3))])


class TestStencilsAgainstPaddedReference:
    """Seeded inputs in 2D and 3D with 0, 1 and 2 leading axes; the stencils
    must equal an np.pad reference in the same operation order exactly."""

    @pytest.mark.parametrize("dim,lead,n", _STENCIL_CASES)
    def test_lap_grad_div_shifted_exact(self, dim, lead, n):
        h = 1.0 / (n + 1)
        rng = SplitMix64(5000 + 100 * dim + 10 * len(lead) + n)
        x = rng.normal(lead + (n,) * dim)
        U = rng.normal(lead + (dim,) + (n,) * dim)
        b = _pad_reference(x, dim)
        lap = -2.0 * dim * x
        for a in range(dim):
            lap = lap + (_window_reference(b, dim, a, 1) + _window_reference(b, dim, a, -1))
        assert np.array_equal(gr.lap_array(x, h, dim), lap * (1.0 / (h * h)))
        grad = np.stack([(1.0 / (2.0 * h)) * (_window_reference(b, dim, a, 1)
                                              - _window_reference(b, dim, a, -1))
                         for a in range(dim)], axis=len(lead))
        assert np.array_equal(gr.grad_array(x, h, dim), grad)
        bU = _pad_reference(U, dim)
        div = 0.0
        for a in range(dim):
            comp = bU[(Ellipsis, a) + (slice(None),) * dim]
            div = div + (_window_reference(comp, dim, a, 1)
                         - _window_reference(comp, dim, a, -1))
        assert np.array_equal(gr.div_array(U, h, dim), div * (1.0 / (2.0 * h)))
        for a in range(dim):
            for offset in (-1, 1):
                # bytes, so that the zeros shifted in keep a + sign
                assert (gr._shifted(x, dim, a, offset).tobytes()
                        == _window_reference(b, dim, a, -offset).tobytes())

    @pytest.mark.parametrize("dim,lead,n", _STENCIL_CASES)
    def test_mean_projection_exact(self, dim, lead, n):
        p = SplitMix64(6000 + 100 * dim + 10 * len(lead) + n).normal(lead + (n,) * dim)
        axes = tuple(range(len(lead), p.ndim))
        assert np.array_equal(gr.mean_project_array(p, dim),
                              p - p.mean(axes, keepdims=True))

    @pytest.mark.parametrize("dim,lead,n", _STENCIL_CASES)
    def test_grad_div_negative_adjoint(self, dim, lead, n):
        h = 1.0 / (n + 1)
        rng = SplitMix64(7000 + 100 * dim + 10 * len(lead) + n)
        p = rng.normal(lead + (n,) * dim)
        U = rng.normal(lead + (dim,) + (n,) * dim)
        lhs = np.vdot(gr.grad_array(p, h, dim), U)
        rhs = -np.vdot(p, gr.div_array(U, h, dim))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8), (2, 64), (3, 32)])
def test_stencils_of_a_batch_equal_each_member_alone(dim, n):
    h = 1.0 / (n + 1)
    rng = SplitMix64(9000 + 100 * dim + n)
    x = rng.normal((16,) + (n,) * dim)
    U = rng.normal((16, dim) + (n,) * dim)
    lap, grad_x, div_U = (gr.lap_array(x, h, dim), gr.grad_array(x, h, dim),
                          gr.div_array(U, h, dim))
    for m in range(16):
        assert lap[m].tobytes() == gr.lap_array(x[m], h, dim).tobytes()
        assert grad_x[m].tobytes() == gr.grad_array(x[m], h, dim).tobytes()
        assert div_U[m].tobytes() == gr.div_array(U[m], h, dim).tobytes()


class TestPoissonSolve:
    @pytest.mark.parametrize("dim,n", [(2, 4), (2, 8), (2, 16), (2, 32),
                                       (3, 4), (3, 6), (3, 8)])
    @pytest.mark.parametrize("shift", [0.0, 1.5])
    def test_residual_and_batching(self, dim, n, shift):
        g = Grid(dim, n)
        rng = SplitMix64(1000 * dim + n)
        b = rng.normal((3, dim) + g.shape)
        x = gr.poisson_solve_array(b, g, shift)
        res = -gr.lap_array(x, g.h, dim) + shift * x - b
        assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(b)
        for m in range(3):
            one = gr.poisson_solve_array(b[m], g, shift)
            assert np.abs(x[m] - one).max() <= 1e-14 * np.abs(one).max()
            for a in range(dim):
                comp = gr.poisson_solve_array(b[m, a], g, shift)
                assert np.abs(x[m, a] - comp).max() <= 1e-14 * np.abs(comp).max()


def _dst_by_definition(a, dim):
    """out_k = 2 sum_j a_j sin(pi k j/(n+1)) along each trailing grid axis,
    summed in extended precision with unreduced arguments."""
    n = a.shape[-1]
    k = np.arange(1, n + 1, dtype=np.longdouble)
    pi = np.arccos(np.longdouble(-1.0))
    S = 2 * np.sin(pi * np.outer(k, k) / (n + 1))
    out = a.astype(np.longdouble)
    for axis in range(a.ndim - dim, a.ndim):
        out = np.moveaxis(np.tensordot(out, S, axes=([axis], [1])), -1, axis)
    return out


class TestSineTransform:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_matches_defining_sum(self, dim, n):
        rng = SplitMix64(2000 * dim + n)
        a = rng.normal((2, 3) + (n,) * dim)
        ref = _dst_by_definition(a, dim)
        got = gr._dst_all_axes(a, dim)
        assert got.shape == a.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("dim,n", [(2, 4), (2, 6), (2, 8), (2, 16), (2, 32),
                                       (3, 4), (3, 6), (3, 8), (3, 16)])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_equals_axis_rotation_bitwise(self, dim, n, lead):
        # oracle: each grid axis in turn rotated to the end, as rows @ S
        def rotated(a):
            S, first = gr._dst1_matrix(n), a.ndim - dim
            for _ in range(dim):
                a = (np.moveaxis(a, first, -1).reshape(-1, n) @ S).reshape(a.shape)
            return a

        a = SplitMix64(5000 * dim + 10 * n + len(lead)).normal(lead + (n,) * dim)
        assert np.array_equal(gr._dst_all_axes(a, dim), rotated(a))

    @pytest.mark.parametrize("dim,n", [(2, 4), (2, 32), (2, 64), (3, 4), (3, 16)])
    def test_synthesis_inverts_coefficients(self, dim, n):
        g = Grid(dim, n)
        x = SplitMix64(3000 * dim + n).normal((2,) + g.shape)
        back = gr.sine_synthesis_array(gr.sine_coefficients_array(x, g), g)
        assert np.abs(back - x).max() <= 1e-13 * np.abs(x).max()

    @pytest.mark.parametrize("dim,n", [(2, 8), (2, 32), (3, 8)])
    def test_batched_equals_sliced(self, dim, n):
        g = Grid(dim, n)
        x = SplitMix64(4000 * dim + n).normal((4, dim) + g.shape)
        c = gr.sine_coefficients_array(x, g)
        for m in range(4):
            for a in range(dim):
                one = gr.sine_coefficients_array(x[m, a], g)
                assert np.abs(c[m, a] - one).max() <= 1e-14 * np.abs(one).max()

    @pytest.mark.parametrize("n", [4, 30, 64])
    def test_matrix_symmetric_and_involutive(self, n):
        S = gr._dst1_matrix(n)
        assert np.array_equal(S, S.T)
        assert np.abs(S @ S - 2 * (n + 1) * np.eye(n)).max() <= 1e-12 * n
        with pytest.raises(ValueError):
            S[0, 0] = 0.0

    def test_eigenvalues_cached_read_only(self):
        g = Grid(2, 8)
        lam = gr.laplacian_eigenvalues(g)
        assert gr.laplacian_eigenvalues(Grid(2, 8)) is lam
        with pytest.raises(ValueError):
            lam[0, 0] = 0.0


def _scalar_out(shape, dim, rng):
    """A component view of a velocity stacked like a field of `shape` (its
    grid axes contiguous, its member axis, if any, strided), holding noise."""
    lead = shape[:len(shape) - dim]
    return rng.normal(lead + (dim,) + shape[len(lead):])[(Ellipsis, dim - 1) + (slice(None),) * dim]


def _velocity_out(shape, dim, rng):
    """The first `dim` components of a velocity with one more component: an
    array of `shape` whose leading axes are strided, holding noise."""
    lead, comps = shape[:len(shape) - dim - 1], shape[len(shape) - dim - 1]
    full = rng.normal(lead + (comps + 1,) + shape[len(shape) - dim:])
    return full[(Ellipsis, slice(0, comps)) + (slice(None),) * dim]


_OUT_CASES = [(dim, n, lead) for dim, ns in ((2, (8, 16)), (3, (6, 8)))
              for n in ns for lead in ((), (3,))]


class TestOutForms:
    """Each function that takes `out=` writes the bytes of its allocating call
    into a fresh array and into a view of the kind the time steppers' kernels
    pass, with and without its scratch array, and returns `out`."""

    @staticmethod
    def _outs(shape, dim, rng, velocity):
        view = _velocity_out if velocity else _scalar_out
        return [rng.normal(shape), view(shape, dim, rng)]

    @pytest.mark.parametrize("dim,n,lead", _OUT_CASES)
    def test_stencils(self, dim, n, lead):
        rng = SplitMix64(12000 + 100 * dim + 10 * n + len(lead))
        h, grid = 1.0 / (n + 1), (n,) * dim
        x, U = rng.normal(lead + grid), rng.normal(lead + (dim,) + grid)
        calls = [  # (allocating call, call into out, shape of out, velocity-shaped)
            (lambda: gr.lap_array(x, h, dim),
             lambda out, s: gr.lap_array(x, h, dim, out=out, scratch=s), x.shape, False),
            (lambda: gr.lap_array(U, h, dim),
             lambda out, s: gr.lap_array(U, h, dim, out=out, scratch=s), U.shape, True),
            (lambda: gr.grad_array(x, h, dim),
             lambda out, s: gr.grad_array(x, h, dim, out=out), U.shape, True),
            (lambda: gr.div_array(U, h, dim),
             lambda out, s: gr.div_array(U, h, dim, out=out, scratch=s), x.shape, False),
        ]
        for allocating, into, shape, velocity in calls:
            want = allocating()
            for out in self._outs(shape, dim, rng, velocity):
                for scratch in (None, rng.normal(shape)):
                    assert into(out, scratch) is out
                    assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim,n,lead", _OUT_CASES)
    def test_mean_projection(self, dim, n, lead):
        rng = SplitMix64(13000 + 100 * dim + 10 * n + len(lead))
        p = rng.normal(lead + (n,) * dim)
        want = gr.mean_project_array(p, dim)
        want_mean = np.add.reduce(p, axis=tuple(range(-dim, 0)), keepdims=True) / n ** dim
        for out in self._outs(p.shape, dim, rng, False):
            mean = rng.normal(lead + (1,) * dim)
            assert gr.mean_project_array(p, dim, out=out, mean=mean) is out
            assert out.tobytes() == want.tobytes()
            assert mean.tobytes() == want_mean.tobytes()
        # in place, as `simulate` projects a step's p
        q = p.copy()
        assert gr.mean_project_array(q, dim, out=q) is q
        assert q.tobytes() == want.tobytes()
        # an integer field projects as its float copy does
        ints = np.arange(p.size).reshape(p.shape) % 7
        assert np.array_equal(gr.mean_project_array(ints, dim),
                              gr.mean_project_array(ints.astype(float), dim))

    @pytest.mark.parametrize("dim,n,lead", _OUT_CASES)
    def test_sine_transforms_and_poisson_solve(self, dim, n, lead):
        g = Grid(dim, n)
        rng = SplitMix64(14000 + 100 * dim + 10 * n + len(lead))
        b = rng.normal(lead + (dim,) + g.shape)
        calls = [
            (lambda: gr._dst_all_axes(b, dim),
             lambda out, s: gr._dst_all_axes(b, dim, out, s)),
            (lambda: gr.sine_coefficients_array(b, g),
             lambda out, s: gr.sine_coefficients_array(b, g, out, s)),
            (lambda: gr.sine_synthesis_array(b, g),
             lambda out, s: gr.sine_synthesis_array(b, g, out, s)),
            (lambda: gr.poisson_solve_array(b, g, 1.5),
             lambda out, s: gr.poisson_solve_array(b, g, 1.5, out=out, scratch=s)),
        ]
        for allocating, into in calls:
            want = allocating()
            for out in self._outs(b.shape, dim, rng, True):
                for scratch in (None, _velocity_out(b.shape, dim, rng)):
                    assert into(out, scratch) is out
                    assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim,n,lead", _OUT_CASES)
    def test_bound_sequences(self, dim, n, lead):
        # each sequence bound once to its lookup's constants and to arrays
        # that are component views of member-stacked arrays, as a kernel
        # binds it, then called on two inputs in turn, as RK4's stages call
        # it: every call returns its bound array, with the bytes of the
        # allocating call
        g = Grid(dim, n)
        rng = SplitMix64(17000 + 100 * dim + 10 * n + len(lead))
        vel, field = lead + (dim,) + g.shape, lead + g.shape
        U = _velocity_out(vel, dim, rng)  # the divergence reads its bound U
        lap_out, grad_out, poisson_out = (_velocity_out(vel, dim, rng) for _ in range(3))
        mean_out, div_out = _scalar_out(field, dim, rng), _scalar_out(field, dim, rng)
        mean = rng.normal(lead + (1,) * dim)
        eigenvalues = gr._shifted_eigenvalues(g, 1.5)
        bound = [  # (sequence, input shape, its call, the allocating call, out)
            (partial(gr._lap, lap_out, _velocity_out(vel, dim, rng),
                     *gr._lap_constants(n, g.h, dim)),
             vel, lambda f, x: f(x), lambda x: gr.lap_array(x, g.h, dim), lap_out),
            (partial(gr._grad, grad_out, gr._COMPONENTS[dim](grad_out),
                     *gr._difference_constants(n, g.h, dim)),
             field, lambda f, x: f(x), lambda x: gr.grad_array(x, g.h, dim), grad_out),
            (partial(gr._div, div_out, _scalar_out(field, dim, rng),
                     *gr._difference_constants(n, g.h, dim), gr._COMPONENTS[dim](U)),
             vel, lambda f, x: (np.copyto(U, x), f())[1], lambda x: gr.div_array(x, g.h, dim),
             div_out),
            (partial(gr._mean_project, mean_out, mean, gr._GRID_AXES[dim]),
             field, lambda f, x: f(x), lambda x: gr.mean_project_array(x, dim), mean_out),
            (partial(gr._poisson, *gr._poisson_constants(g, poisson_out,
                                                         _velocity_out(vel, dim, rng))),
             vel, lambda f, x: f(eigenvalues, x), lambda x: gr.poisson_solve_array(x, g, 1.5),
             poisson_out),
        ]
        for sequence, shape, call, allocating, out in bound:
            inputs = [rng.normal(shape), rng.normal(shape)]
            for x in inputs + inputs:
                assert call(sequence, x) is out
                assert out.tobytes() == allocating(x).tobytes()
        # the kernels' pressure projection: the divergence's output in place
        project = partial(gr._mean_project, div_out, mean, gr._GRID_AXES[dim])
        for x in [rng.normal(vel), rng.normal(vel)] * 2:
            np.copyto(U, x)
            want = gr.mean_project_array(gr.div_array(x, g.h, dim), dim)
            assert project(bound[2][0]()) is div_out
            assert div_out.tobytes() == want.tobytes()

    def test_poisson_solve_keeps_the_bytes_of_its_transform_pair(self):
        # the solve, which works in its two arrays, equals the transforms and
        # the divide written out with fresh arrays
        for dim, n in ((2, 16), (3, 8)):
            g = Grid(dim, n)
            b = SplitMix64(15000 + dim).normal((3, dim) + g.shape)
            c = gr.sine_coefficients_array(b, g) / (gr.laplacian_eigenvalues(g) + 0.5)
            want = gr.sine_synthesis_array(c, g)
            assert gr.poisson_solve_array(b, g, 0.5).tobytes() == want.tobytes()

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_3d_out_without_a_row_view_raises(self, lead):
        # grid axes that cannot be viewed as (n, n*n) rows: a product into
        # them would land in a copy, so the call raises instead
        n, h = 6, 1.0 / 7
        rng = SplitMix64(16000 + len(lead))
        x, U = rng.normal(lead + (n,) * 3), rng.normal(lead + (3,) + (n,) * 3)

        def rowless(shape):  # the middle grid axis taken with step 2
            big = np.zeros(shape[:-2] + (2 * n, n))
            return big[..., ::2, :]

        g = Grid(3, n)
        calls = [lambda: gr.grad_array(x, h, 3, out=rowless(U.shape)),
                 lambda: gr.div_array(U, h, 3, out=rowless(x.shape)),
                 lambda: gr.lap_array(x, h, 3, out=np.empty(x.shape), scratch=rowless(x.shape)),
                 lambda: gr._dst_all_axes(x, 3, rowless(x.shape)),
                 lambda: gr.poisson_solve_array(U, g, out=rowless(U.shape))]
        for call in calls:
            with pytest.raises(ValueError):
                call()
