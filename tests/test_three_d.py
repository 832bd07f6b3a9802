"""3D coverage: the whole pipeline at 4^3-8^3 desk scale, every subcommand included."""

from pathlib import Path

import numpy as np
import pytest

from bfflow import analysis as an
from bfflow import cli
from bfflow import dynamics as dyn
from bfflow import grid as gr
from bfflow import physics as ph
from bfflow import reference as ref
from bfflow.cli import make_initial_state
from bfflow.grid import Grid
from bfflow.physics import MediumMatrix, NonlinearityParams
from bfflow.rng import SplitMix64

QUINTIC = NonlinearityParams(1.0, 1.0, 0.0, l=2.0)
CONFIGS = Path(__file__).parents[1] / "configs"
# split needs a nonzero initial pressure, and 5 snapshots in a short run
_SPLIT = "\n[initial]\nkind = white_pressure\n[run]\nt_max = 0.05\nsnapshot_stride = 0.01\n"


def _div_residual(p, g):
    """|div bogovski(p) - p| / |p| for a mean-zero p."""
    w = ph.bogovski(p, g)
    return gr.norm_l2(gr.div_array(w, g.h, g.dim) - p, g) / gr.norm_l2(p, g)


def _skew_pairing(u, v, g):
    """|<B(u, v), v>| and its bound 1e-12 |u| |v|^2."""
    val = abs(gr.inner(ph.convective_array(u, v, g.h, g.dim), v, g))
    return val, 1e-12 * gr.norm_l2(u, g) * gr.norm_l2(v, g) ** 2


@pytest.fixture(scope="module")
def setup3d():
    g = Grid(3, 4)
    D = MediumMatrix.diagonal([1.0, 2.0, 1.5])
    return g, D


def test_sobolev_and_parseval(setup3d):
    g, _ = setup3d
    rng = SplitMix64(811)
    f = rng.normal(g.shape)
    c = gr.sine_coefficients_array(f, g)
    assert np.sum(c * c) == pytest.approx(gr.norm_l2(f, g) ** 2, rel=1e-12)
    assert gr.spectral_norm(f, g, 0.0) == pytest.approx(gr.norm_l2(f, g), rel=1e-12)
    norms = [gr.spectral_norm(f, g, d) for d in (0.0, 0.5, 1.0)]
    assert norms[0] <= norms[1] <= norms[2]


def test_bogovski_right_inverse(setup3d):
    g, _ = setup3d
    rng = SplitMix64(813)
    p = gr.mean_project_array(rng.normal(g.shape), g.dim)
    assert _div_residual(p, g) <= 1e-8


def test_energy_audit_third_order(setup3d):
    g, D = setup3d
    state = make_initial_state(g, "smooth", 1.0, seed=815)
    rng = SplitMix64(816)
    gf = 0.3 * rng.normal((3,) + g.shape)
    maxima = []
    for dt in (2e-3, 1e-3):
        traj = dyn.simulate(state, g, dyn.SolverConfig(dt=dt), gf, D, QUINTIC,
                            0.1, collect_work=True)
        audit = an.energy_audit(traj)
        maxima.append(np.abs(audit.residual_trap).max())
    assert 5.0 <= maxima[0] / maxima[1] <= 12.0


def test_convective_skew_symmetry(setup3d):
    g, _ = setup3d
    rng = SplitMix64(817)
    u = rng.normal((3,) + g.shape)
    v = rng.normal((3,) + g.shape)
    val, bound = _skew_pairing(u, v, g)
    assert val <= bound


def test_convective_skew_symmetry_seeded_sweep(setup3d):
    # 24 seeded pairs of all scales, one at a time and as one member batch
    g, _ = setup3d
    rng = SplitMix64(823)
    scales = np.geomspace(1e-3, 1e3, 24)[:, None, None, None, None]
    us = scales * rng.normal((24, 3) + g.shape)
    vs = scales[::-1] * rng.normal((24, 3) + g.shape)
    batched = ph.convective_array(us, vs, g.h, g.dim)
    for u, v, b in zip(us, vs, batched):
        val, bound = _skew_pairing(u, v, g)
        assert val <= bound
        assert abs(gr.inner(b, v, g)) <= bound


def test_rk4_matches_dense_propagator(setup3d):
    g, D = setup3d
    assert ref.build_propagator(g, D).eigenvalues.real.max() <= 1e-10
    state = make_initial_state(g, "smooth", 1.0, seed=819)
    assert ref.convergence_errors(state, g, D, 0.05, (2e-4,))[0] <= 1e-8


def test_propagator_guard_tighter_in_3d():
    with pytest.raises(ValueError):
        ref.build_propagator(Grid(3, 8), MediumMatrix.identity(3))


def test_operator_positive(setup3d):
    g, D = setup3d
    op = an.assemble_operator(g, D)
    assert op.symmetry_defect <= 1e-12
    assert op.eigmin > 0.0
    fit = an.semigroup_decay(op, 0.5, t_max=4.0 / op.eigmin, n_init=3)
    assert fit.rate < 0.0


def test_truncated_step_and_split(setup3d):
    g, D = setup3d
    rng = SplitMix64(821)
    p0 = gr.mean_project_array(rng.normal(g.shape), g.dim)
    gf = 0.3 * rng.normal((3,) + g.shape)
    cfg = dyn.SolverConfig(dt=0.05, newton_tol=1e-12, cg_tol=1e-13)
    split = dyn.run_split(p0, g, gf, cfg, D, QUINTIC, 1.0, snapshot_every=5)
    assert split.recombination_p <= 1e-8
    assert split.recombination_u <= 1e-8


def test_bogovski_div_residual_direct_solves():
    g = Grid(3, 6)
    rng = SplitMix64(817)
    p = gr.mean_project_array(rng.normal(g.shape), g.dim)
    assert _div_residual(p, g) <= 1e-10


@pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
def test_every_subcommand_passes_on_the_3d_configs(tmp_path, subcommand):
    name = "cube8_attractor.cfg" if subcommand == "attractor" else "cube8.cfg"
    text = (CONFIGS / name).read_text() + (_SPLIT if subcommand == "split" else "")
    assert cli.run_scenario(cli.parse_config(text), subcommand, tmp_path) == 0
