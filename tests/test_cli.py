"""Config grammar, file emission, exit codes, reproducibility."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bfflow import analysis as an
from bfflow import cli
from bfflow import dynamics as dyn
from bfflow import grid as gr
from bfflow.cli import ConfigError, parse_config
from bfflow.grid import Grid

CONFIGS = Path(__file__).parents[1] / "configs"
MINIMAL = """
[grid]
n = 16
[forcing]
kind = zero
"""

# n = 8 scenario pieces for the rerun tests
_QUINTIC8 = "[grid]\nn = 8\n[nonlinearity]\nalpha = 1\nbeta = 1\nl = 2\n"
_SMOOTH = "[forcing]\nkind = fixed_random\nseed = 9\n[initial]\nkind = smooth\n"
_WHITE_P = ("[forcing]\nkind = band_random\nseed = 3\n[initial]\nkind = white_pressure\n"
            "seed = 4\n[run]\nt_max = 0.01\nsnapshot_stride = 0.002\n")
_ATTRACTOR8 = (_QUINTIC8 + "[medium]\ndiag = 4, 4\n[forcing]\nkind = fixed_random\n"
               "seed = 5\namplitude = 2\n[scenario]\nensemble_size = 3\n"
               "[run]\nt_max = 3\nsnapshot_stride = 0.1\nseed = 3\n")


# subcommand -> (small config, the SVG files that --svg adds)
_SVG_RUNS = {
    "simulate": (_QUINTIC8 + _SMOOTH + "[run]\nt_max = 0.05\nsnapshot_stride = 0.01\n",
                 ["energies.svg"]),
    "spectrum": ("[grid]\nn = 8\n[medium]\ndiag = 1, 2\n[scenario]\ndeltas = 0, 0.5, 1\n",
                 ["decay.svg", "spectrum.svg"]),
    "lipschitz": (_QUINTIC8 + _SMOOTH + "[run]\nt_max = 0.05\nsnapshot_stride = 0.01\n",
                  ["pairs.svg"]),
    "split": (_QUINTIC8 + _WHITE_P, ["split.svg"]),
    "expsplit": (_QUINTIC8 + _SMOOTH + "[run]\nt_max = 0.5\nsnapshot_stride = 0.05\n",
                 ["expsplit.svg"]),
    "smoothing": (_QUINTIC8 + _WHITE_P, ["smoothing.svg"]),
    "attractor": (_ATTRACTOR8, ["attractor.svg", "boxcount.svg"]),
    "audit": (_QUINTIC8 + _SMOOTH + "[run]\nt_max = 0.05\n", ["audit.svg"]),
    "oracle": ("[grid]\nn = 8\n[medium]\ndiag = 1, 2\n", ["oracle.svg"]),
}


def _outputs(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestParser:
    def test_minimal_with_defaults(self):
        sc = parse_config(MINIMAL)
        assert sc["grid", "n"] == 16
        assert sc["grid", "dim"] == 2
        assert sc["solver", "scheme"] == "rk4"
        g = sc.grid()
        assert np.allclose(sc.medium().entries, np.eye(2))
        assert sc.solver(g, sc.medium()).dt > 0

    def test_growth_exponent_constraint_named(self):
        with pytest.raises(ConfigError, match=r"\(0, 2\]"):
            parse_config("[nonlinearity]\nl = 3.0\n")

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("[solver]\ndt = 0.1\ndtt = 0.1\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[solvers]\ndt = 0.1\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("dt = 0.1\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[solver]\ndt 0.1\n")

    def test_comments_and_case_sensitivity(self):
        sc = parse_config("[solver]\ndt = 0.25  # quarter step\n")
        assert sc["solver", "dt"] == 0.25
        with pytest.raises(ConfigError):
            parse_config("[solver]\nDT = 0.25\n")

    def test_medium_rows_and_diag(self):
        sc = parse_config("[medium]\nrows = 2 0.5; 0.5 1\n")
        assert sc.medium().eigmin > 0
        sc = parse_config("[medium]\ndiag = 1, 2\n")
        assert sc.medium().eigmax == 2.0
        with pytest.raises(ConfigError):
            parse_config("[medium]\nrows = 1 0; 0 -1\n").medium()

    def test_default_config_text_parses(self):
        parse_config(cli.DEFAULT_CONFIG)

    @pytest.mark.parametrize("dim,u_share", [(2, 0.5), (3, 0.25)])
    def test_mode_initial_state(self, dim, u_share):
        # u = (s_11, s_21[, s_21]) and p = s_21, scaled to the amplitude and
        # its u_share; no draw, so every seed gives the same state
        g = Grid(dim, 8 if dim == 2 else 4)
        u, p = cli.make_initial_state(g, "mode", 2.0, seed=1, u_share=u_share)
        base, second = (gr.sine_mode(g, (k,) + (1,) * (dim - 1)) for k in (1, 2))
        assert u.shape == (dim,) + g.shape and p.shape == g.shape
        cu = np.vdot(u[0], base) / np.vdot(base, base)
        cp = np.vdot(p, second) / np.vdot(second, second)
        assert cu > 0 and cp > 0
        assert np.allclose(u, cu * np.stack([base] + [second] * (dim - 1)), rtol=0, atol=1e-13)
        assert np.allclose(p, cp * second, rtol=0, atol=1e-13)
        assert abs(p.mean()) <= 1e-15
        assert np.isclose(gr.spectral_norm(u, g, 1.0), 2.0 * np.sqrt(u_share), rtol=1e-12)
        assert np.isclose(gr.norm_l2(p, g), 2.0 * np.sqrt(1.0 - u_share), rtol=1e-12)
        again = cli.make_initial_state(g, "mode", 2.0, seed=2, u_share=u_share)
        assert all(np.array_equal(a, b) for a, b in zip((u, p), again))


class TestRunScenario:
    def test_simulate_zero_everything(self, tmp_path):
        sc = parse_config("""
[grid]
n = 8
[run]
t_max = 0.05
snapshot_stride = 0.01
""")
        code = cli.run_scenario(sc, "simulate", tmp_path)
        assert code == 0
        lines = (tmp_path / "energies.csv").read_text().splitlines()
        assert lines[0].startswith("t [time],e_plain [energy]")
        data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        assert np.all(data[:, 1:] == 0.0)
        summary = (tmp_path / "summary.txt").read_text()
        assert "status = PASS" in summary

    def test_oracle_subcommand(self, tmp_path):
        sc = parse_config("[grid]\nn = 8\n[medium]\ndiag = 1, 2\n")
        code = cli.run_scenario(sc, "oracle", tmp_path)
        assert code == 0
        rows = (tmp_path / "oracle.csv").read_text().splitlines()[1:]
        errs = [float(r.split(",")[1]) for r in rows]
        assert errs[0] / errs[1] >= 12.0 and errs[1] / errs[2] >= 12.0

    def test_spectrum_subcommand(self, tmp_path):
        sc = parse_config("""
[grid]
n = 8
[medium]
diag = 1, 2
[scenario]
deltas = 0, 0.5, 1
""")
        code = cli.run_scenario(sc, "spectrum", tmp_path, svg=True)
        assert code == 0
        decay = (tmp_path / "decay.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) < 0 for r in decay)
        assert (tmp_path / "spectrum.svg").exists()
        assert "note_delta_0.5" in (tmp_path / "summary.txt").read_text()

    def test_criterion_failure_exit_code(self, tmp_path):
        # at t_max = 1 the quintic16 ensemble has not yet entered the ball
        sc = parse_config((CONFIGS / "quintic16.cfg").read_text())
        code = cli.run_scenario(sc, "attractor", tmp_path)
        assert code == 1
        summary = (tmp_path / "summary.txt").read_text()
        assert "status = FAIL" in summary and "pass_attraction = FAIL" in summary

    def test_runtime_error_exit_code(self, tmp_path):
        sc = parse_config("""
[grid]
n = 8
[nonlinearity]
alpha = 1
beta = 1
l = 2
[initial]
kind = smooth
amplitude = 400
[run]
t_max = 0.5
""")
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.run_scenario(sc, "simulate", tmp_path)
        assert code == 2
        assert "RUNTIME_ERROR" in (tmp_path / "summary.txt").read_text()

    def test_main_config_error_exit_3(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[solver]\ndtt = 1\n")
        assert cli.main(["simulate", "--config", str(bad)]) == 3
        assert cli.main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 3

    def test_main_usage_error_exit_3(self, capsys):
        assert cli.main(["not-a-subcommand", "--config", "x"]) == 3
        assert cli.main(["simulate"]) == 3  # missing --config
        capsys.readouterr()

    @pytest.mark.parametrize("subcommand,text,check", [
        ("simulate", _QUINTIC8 + _SMOOTH + "[run]\nt_max = 0.1\nsnapshot_stride = 0.02\n",
         None),
        ("split", _QUINTIC8 + _WHITE_P + "[scenario]\nsplit_kind = trunc\n", None),
        ("split", _QUINTIC8 + _WHITE_P + "[scenario]\nsplit_kind = bootstrap\n", None),
        ("expsplit", _QUINTIC8 + _SMOOTH + "[run]\nt_max = 0.5\nsnapshot_stride = 0.05\n",
         None),
        ("attractor", _ATTRACTOR8, None),
        # the only semi-implicit row: its CG warm start keeps per-run history
        ("lipschitz", _QUINTIC8 + _SMOOTH + "[solver]\nscheme = semi_implicit\ndt = 0.01\n"
                      "[run]\nt_max = 0.5\nsnapshot_stride = 0.05\n", None),
        # the audit's residual drops by at least its gate's ratio per dt halving
        ("audit", _QUINTIC8 + _SMOOTH + "[run]\nt_max = 0.05\n",
         lambda s: s["pass_order"] == "PASS" and float(s["ratio"]) >= an.AUDIT_RATIO_MIN),
        # smoothing's horizon is fixed at t = 1; its four weighted sups are
        # finite and positive
        ("smoothing", _QUINTIC8 + _WHITE_P,
         lambda s: [0.0 < float(v) < np.inf for k, v in s.items()
                    if k.startswith("sup_")] == [True] * 4),
    ], ids=["simulate", "split_trunc", "split_bootstrap", "expsplit", "attractor",
            "lipschitz_semi_implicit", "audit", "smoothing"])
    def test_bit_identical_reruns(self, tmp_path, subcommand, text, check):
        sc = parse_config(text)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.run_scenario(sc, subcommand, a) == 0
        assert cli.run_scenario(sc, subcommand, b) == 0
        names = sorted(p.name for p in a.iterdir())
        assert "summary.txt" in names and any(n.endswith(".csv") for n in names)
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        if check is not None:
            lines = (a / "summary.txt").read_text().splitlines()
            assert check(dict(line.split(" = ", 1) for line in lines))

    def test_seed_overrides_the_run_seed(self, tmp_path):
        sc = parse_config(_ATTRACTOR8)
        assert cli.run_scenario(sc, "attractor", tmp_path / "flag", seed=5) == 0
        assert cli.run_scenario(parse_config(_ATTRACTOR8 + "[run]\nseed = 5\n"),
                                "attractor", tmp_path / "key") == 0
        assert cli.run_scenario(sc, "attractor", tmp_path / "seed3") == 0
        flag = _outputs(tmp_path / "flag")
        assert flag == _outputs(tmp_path / "key")
        assert flag["attractor.csv"] != _outputs(tmp_path / "seed3")["attractor.csv"]

    def test_attractor_honours_convective(self, tmp_path):
        csv = {}
        for key in ("off", "on"):
            sc = parse_config(_ATTRACTOR8 + f"[scenario]\nconvective = {key}\n")
            assert cli.run_scenario(sc, "attractor", tmp_path / key) in (0, 1)
            csv[key] = (tmp_path / key / "attractor.csv").read_bytes()
        assert csv["on"] != csv["off"]

    def test_module_run_warns_nothing(self):
        # running bfflow.cli as a module must not find it imported already
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                              "bfflow.cli", "--help"], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr

    def test_reference_loads_only_for_the_oracle(self, tmp_path):
        # importing the CLI leaves the dense oracle unloaded, and the oracle
        # subcommand loads it and exits 0
        config = tmp_path / "oracle.cfg"
        config.write_text("[grid]\nn = 8\n[medium]\ndiag = 1, 2\n")
        script = ("import sys\n"
                  "import bfflow.cli as cli\n"
                  "assert 'bfflow.reference' not in sys.modules\n"
                  "code = cli.main(['oracle', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
                  "assert 'bfflow.reference' in sys.modules\n"
                  "sys.exit(code)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", script, str(config), str(tmp_path / "out")],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr

    def test_simulate_with_convection(self, tmp_path):
        sc = parse_config("""
[grid]
n = 8
[nonlinearity]
alpha = 1
beta = 1
l = 2
[initial]
kind = smooth
[run]
t_max = 0.1
[scenario]
convective = on
""")
        assert cli.run_scenario(sc, "simulate", tmp_path) == 0

    def test_file_forcing_roundtrip(self, tmp_path):
        from bfflow.cli import make_forcing
        from bfflow.grid import Grid
        g = Grid(2, 8)
        arr = np.arange(2 * 64, dtype=float).reshape(2, 8, 8)
        path = tmp_path / "g.npy"
        np.save(path, arr)
        f = make_forcing(g, "file", seed=0, amplitude=1.0, path=str(path))
        assert np.array_equal(f, arr)

    @pytest.mark.parametrize("subcommand", sorted(_SVG_RUNS))
    def test_svg_never_affects_exit(self, tmp_path, subcommand):
        text, svgs = _SVG_RUNS[subcommand]
        config = tmp_path / "run.cfg"
        config.write_text(text)
        plain, drawn = tmp_path / "plain", tmp_path / "drawn"
        codes = [cli.main([subcommand, "--config", str(config), "--out", str(out), *flag])
                 for out, flag in ((plain, []), (drawn, ["--svg"]))]
        assert codes[0] == codes[1]
        files, with_svgs = _outputs(plain), _outputs(drawn)
        assert "summary.txt" in files and not any(n.endswith(".svg") for n in files)
        assert sorted(with_svgs) == sorted(list(files) + svgs)
        for name, data in files.items():
            assert with_svgs[name] == data, name

    def test_unknown_subcommand(self, tmp_path):
        sc = parse_config(MINIMAL)
        with pytest.raises(ConfigError):
            cli.run_scenario(sc, "simulatee", tmp_path)


# case -> (subcommand and any flags, config text, phrase the error message
# must name), so that one config error cannot stand in for another.
_BAD_INPUTS = {
    "odd_n": ("simulate", "[grid]\nn = 15\n", "n must be even"),
    "missing_forcing_file": ("simulate", "[grid]\nn = 8\n[forcing]\nkind = file\n"
                             "path = {tmp}/no-such-forcing.npy\n",
                             "no-such-forcing.npy"),
    "simulate_semi_implicit": ("simulate", "[grid]\nn = 8\n[solver]\n"
                               "scheme = semi_implicit\ndt = 0.01\n",
                               "only scheme = rk4 collects"),
    "audit_semi_implicit": ("audit", "[grid]\nn = 8\n[solver]\n"
                            "scheme = semi_implicit\ndt = 0.01\n",
                            "only scheme = rk4 collects"),
    # valid but for the scheme: the parent ran split by RK4 anyway (exit 0),
    # and expsplit blew up at step 2 (exit 2)
    "split_semi_implicit": ("split", _QUINTIC8 + _WHITE_P + "[solver]\nscheme = semi_implicit\n"
                            "dt = 0.002\n",
                            "split steps by explicit RK4 only, so needs scheme = rk4, "
                            "got scheme = semi_implicit"),
    "expsplit_semi_implicit": ("expsplit", _QUINTIC8 + _SMOOTH + "[run]\nt_max = 0.5\n"
                               "snapshot_stride = 0.1\n[solver]\nscheme = semi_implicit\n"
                               "dt = 0.05\n",
                               "expsplit steps by explicit RK4 only, so needs "
                               "scheme = rk4, got scheme = semi_implicit"),
    "unknown_scheme": ("lipschitz", "[grid]\nn = 8\n[solver]\nscheme = euler\n",
                       "unknown scheme 'euler'"),
    "split_too_few_snapshots": ("split", "[grid]\nn = 8\n[run]\nt_max = 0.002\n"
                                "snapshot_stride = 0.001\n",
                                "snapshot_stride = 0.001 gives 2 snapshots"),
    "split_zero_pressure": ("split", "[grid]\nn = 8\n[run]\nt_max = 0.05\n"
                            "snapshot_stride = 0.005\n",
                            "nonzero mean-zero initial pressure"),
    "split_unknown_kind": ("split", _QUINTIC8 + _WHITE_P + "[scenario]\nsplit_kind = bogus\n",
                           "split_kind must be trunc or bootstrap, got 'bogus'"),
    "spectrum_delta_above_1": ("spectrum", _QUINTIC8 + "[scenario]\ndeltas = 0.5, 2\n",
                               "deltas must lie in [0, 1]"),
    # used to pass with no decay measured (exit 0)
    "spectrum_empty_deltas": ("spectrum", _QUINTIC8 + "[scenario]\ndeltas =\n",
                              "deltas must list at least one delta"),
    # |q|^2 never clears the decay fit's floor: used to raise a ValueError
    # out of cli.main
    "split_tiny_amplitude": ("split", _QUINTIC8 + _WHITE_P + "[initial]\namplitude = 1e-20\n",
                             "[initial] amplitude = 1e-20 leaves 0 stored values"),
    "attractor_empty_ensemble": ("attractor", _QUINTIC8 + "[scenario]\nensemble_size = 0\n",
                                 "ensemble_size must be at least 1, got 0"),
    "oracle_zero_horizon": ("oracle", _QUINTIC8 + "[scenario]\nhorizon = 0\n",
                            "horizon = 0.0 must be a positive multiple"),
    "removed_shift_key": ("split", _QUINTIC8 + _WHITE_P + "[scenario]\nshift_u_max = 10\n",
                          "unknown key 'shift_u_max'"),
    "removed_amplitudes_key": ("attractor", _ATTRACTOR8 + "[scenario]\namplitudes = 0.1, 1\n",
                               "unknown key 'amplitudes'"),
    # the gates' thresholds are constants of bfflow.analysis, which no config sets
    **{f"removed_{key}_key": ("simulate", f"[grid]\nn = 8\n[scenario]\n{key} = 1\n",
                              f"line 4: unknown key '{key}' in [scenario]")
       for key in ("rate_max", "r2_min", "ratio_min", "dist_drop", "residual_tol",
                   "bound_factor", "envelope_slack")},
    "expsplit_convective": ("expsplit", _QUINTIC8 + _SMOOTH + "[run]\nt_max = 0.05\n"
                            "snapshot_stride = 0.01\n[scenario]\nconvective = on\n",
                            "cannot recombine with convective = on"),
    "split_convective": ("split", _QUINTIC8 + _WHITE_P + "[scenario]\nconvective = on\n",
                         "cannot honour convective = on"),
    "seed_without_run_seed": ("lipschitz --seed 9", _QUINTIC8 + _SMOOTH,
                              "only attractor reads; lipschitz reads none"),
    "spectrum_above_dense_guard": ("spectrum", "[grid]\ndim = 3\nn = 18\n",
                                   "guarded to 4096 nodes, got 5832"),
    "nan_amplitude": ("simulate", "[grid]\nn = 8\n[initial]\nkind = smooth\n"
                      "amplitude = nan\n", "'amplitude' must be finite, got 'nan'"),
    "nan_medium_rows": ("simulate", "[grid]\nn = 8\n[medium]\nrows = 1 nan; nan 1\n",
                        "'rows' must be finite"),
    "ragged_medium_rows": ("simulate", "[grid]\nn = 8\n[medium]\nrows = 1 0; 0\n",
                           "is not a matrix of floats"),
    "negative_eps": ("simulate", "[grid]\nn = 8\n[scenario]\neps = -5\n",
                     "eps must be nonnegative, got -5.0"),
    "zero_perturbation": ("lipschitz", _QUINTIC8 + _SMOOTH + "[run]\nt_max = 0.05\n"
                          "snapshot_stride = 0.01\n[scenario]\nperturbation = 0\n",
                          "perturbation must be nonzero"),
    # a size that rounds away leaves the two states identical, which used to
    # end in nan envelopes and exit 1
    "rounded_perturbation_lipschitz": ("lipschitz", _QUINTIC8 + _SMOOTH + "[run]\nt_max = 0.05\n"
                                       "snapshot_stride = 0.01\n[scenario]\n"
                                       "perturbation = 1e-170\n", "perturbation = 1e-170 leaves"),
    "rounded_perturbation_expsplit": ("expsplit", _QUINTIC8 + _SMOOTH + "[run]\nt_max = 0.05\n"
                                      "snapshot_stride = 0.01\n[scenario]\n"
                                      "perturbation = 1e-300\n", "perturbation = 1e-300 leaves"),
    # keys outside their domain: each used to run (exit 0), end in a
    # Newton failure (exit 2) or raise a ValueError out of cli.main
    "u_share_above_1": ("simulate", _QUINTIC8 + _SMOOTH + "[initial]\nu_share = 2\n",
                        "[initial] u_share must lie in [0, 1], got 2.0"),
    "negative_dt": ("simulate", _QUINTIC8 + _SMOOTH + "[solver]\ndt = -5\n",
                    "[solver] dt must be positive, or 0 for the CFL step, got -5.0"),
    "negative_cg_tol": ("lipschitz", _QUINTIC8 + _SMOOTH + "[solver]\nscheme = semi_implicit\n"
                        "dt = 0.01\ncg_tol = -1e-12\n[run]\nt_max = 0.05\n"
                        "snapshot_stride = 0.01\n",
                        "[solver] cg_tol must be positive, got -1e-12"),
    "negative_newton_tol": ("split", _QUINTIC8 + _WHITE_P + "[solver]\nnewton_tol = -1\n",
                            "[solver] newton_tol must be positive, got -1.0"),
    "zero_newton_max": ("split", _QUINTIC8 + _WHITE_P + "[solver]\nnewton_max = 0\n",
                        "[solver] newton_max must be at least 1, got 0"),
    "negative_t_max": ("simulate", _QUINTIC8 + _SMOOTH + "[run]\nt_max = -1\n",
                       "[run] t_max must be positive, got -1.0"),
    "negative_snapshot_stride": ("simulate", _QUINTIC8 + _SMOOTH + "[run]\nt_max = 0.05\n"
                                 "snapshot_stride = -1\n",
                                 "[run] snapshot_stride must be positive, got -1.0"),
    # a zero safety gives a CFL step of 0, which must not be reported as a bad dt
    "zero_cfl_safety": ("simulate", _QUINTIC8 + _SMOOTH + "[solver]\ncfl_safety = 0\n",
                        "solver: cfl_safety must lie in (0, 1]"),
    "cfl_safety_above_1": ("simulate", _QUINTIC8 + _SMOOTH + "[solver]\ncfl_safety = 2\n",
                           "solver: cfl_safety must lie in (0, 1]"),
    # about 1e302 steps each: both used to raise "ValueError: Maximum allowed
    # dimension exceeded" out of cli.main
    "tiny_cfl_safety": ("simulate", _QUINTIC8 + _SMOOTH + "[solver]\ncfl_safety = 1e-300\n",
                        "a run may take ([run] t_max = 1, [solver] dt = 0, "
                        "cfl_safety = 1e-300)"),
    "huge_t_max": ("attractor", _ATTRACTOR8 + "[run]\nt_max = 1e300\n",
                   "a run may take ([run] t_max = 1e+300, [solver] dt = 0, "
                   "cfl_safety = 0.9)"),
    # config parsing and field synthesis: each raise names its key
    "unknown_initial_kind": ("simulate", "[grid]\nn = 8\n[initial]\nkind = vortex\n",
                             "[initial] kind must be zero, smooth, white_pressure or mode, "
                             "got 'vortex'"),
    "unknown_forcing_kind": ("simulate", "[grid]\nn = 8\n[forcing]\nkind = gusty\n",
                             "[forcing] kind must be zero, fixed_random, band_random or "
                             "file, got 'gusty'"),
    "malformed_header": ("simulate", "[grid\nn = 8\n",
                         "line 1: malformed section header '[grid'"),
    "diag_with_rows": ("simulate", "[grid]\nn = 8\n[medium]\ndiag = 1, 2\nrows = 1 0; 0 1\n",
                       "medium: give either diag or rows, not both"),
    "medium_wrong_shape": ("simulate", "[grid]\nn = 8\n[medium]\ndiag = 1, 2, 3\n",
                           "[medium] diag gives a matrix of shape (3, 3); [grid] dim = 2 "
                           "needs (2, 2)"),
    "unparsable_value": ("simulate", "[grid]\nn = eight\n",
                         "line 2: cannot parse 'n' value 'eight' as int"),
    "unparsable_bool": ("simulate", "[grid]\nn = 8\n[scenario]\nconvective = maybe\n",
                        "line 4: cannot parse 'convective' value 'maybe' as bool"),
}


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
    def test_bad_input_exits_3_without_traceback(self, tmp_path, capsys, case):
        subcommand, text, phrase = _BAD_INPUTS[case]
        config = tmp_path / "bad.cfg"
        config.write_text(text.format(tmp=tmp_path))
        code = cli.main([*subcommand.split(), "--config", str(config),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("config error:") and "Traceback" not in err
        assert phrase in err

    @pytest.mark.parametrize("case", ["wrong_shape", "nan_entry"])
    def test_bad_forcing_file_exits_3(self, tmp_path, capsys, case):
        # the file's array is checked where it enters, before any run
        if case == "wrong_shape":
            arr = np.ones((2, 6, 6))
        else:
            arr = np.ones((2, 8, 8))
            arr[1, 3, 4] = np.nan
        np.save(tmp_path / "g.npy", arr)
        config = tmp_path / "bad.cfg"
        config.write_text(f"[grid]\nn = 8\n[forcing]\nkind = file\npath = {tmp_path}/g.npy\n")
        code = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("config error:") and "Traceback" not in err
        assert "forcing file" in err

    def test_attractor_semi_implicit_honours_the_scheme(self, tmp_path):
        # the ensemble steps semi-implicitly, above the RK4 CFL bound, cleanly
        text = (CONFIGS / "attractor8.cfg").read_text()
        config = tmp_path / "semi.cfg"
        config.write_text(text.replace("t_max = 30", "t_max = 2")
                          + "\n[solver]\nscheme = semi_implicit\ndt = 0.01\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["attractor", "--config", str(config),
                             "--out", str(tmp_path / "out")])
        assert code in (0, 1)
        assert "status = RUNTIME_ERROR" not in (tmp_path / "out" / "summary.txt").read_text()

    @pytest.mark.parametrize("subcommand,driver,text", [
        ("split", "run_split", _QUINTIC8 + _WHITE_P + "[scenario]\nsplit_kind = trunc\n"),
        ("expsplit", "run_exp_split",
         _QUINTIC8 + _SMOOTH + "[run]\nt_max = 0.05\nsnapshot_stride = 0.01\n"),
    ], ids=["split", "expsplit"])
    def test_recombination_failure_exits_2(self, tmp_path, monkeypatch, capsys,
                                           subcommand, driver, text):
        def unrecombined(*args, **kwargs):
            if driver == "run_split":
                return dyn.SplitTrajectory(Grid(2, 8), *[np.zeros(1)] * 7, 1e-3, 0.0)
            return dyn.ExpSplitTrajectory(*[np.zeros(1)] * 3, 1e-3)

        monkeypatch.setattr(dyn, driver, unrecombined)
        config = tmp_path / "ok.cfg"
        config.write_text(text)
        code = cli.main([subcommand, "--config", str(config),
                         "--out", str(tmp_path / "out")])
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert code == 2
        assert "RUNTIME_ERROR" in summary and "failed to recombine" in summary
        assert "Traceback" not in capsys.readouterr().err

    def test_out_naming_a_file_exits_3(self, tmp_path, capsys):
        # the output directory's mkdir used to raise FileExistsError
        config = tmp_path / "ok.cfg"
        config.write_text(MINIMAL)
        (tmp_path / "taken").write_text("")
        code = cli.main(["simulate", "--config", str(config),
                         "--out", str(tmp_path / "taken")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("config error:") and "Traceback" not in err
        assert "output directory" in err

    def test_removed_threads_flag_is_a_usage_error(self, tmp_path, capsys):
        config = tmp_path / "ok.cfg"
        config.write_text(MINIMAL)
        code = cli.main(["attractor", "--config", str(config), "--threads", "2",
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert "--threads" in err and "Traceback" not in err


class TestFileFormats:
    def test_csv_lf_endings_and_decimal_points(self, tmp_path):
        path = tmp_path / "t.csv"
        cli.write_csv(path, ["a [x]", "b [y]"], [(1, 2.5), (3, 0.1)])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode().splitlines()[1] == "1,2.5"

    def test_svg_is_valid_xml(self, tmp_path):
        import xml.etree.ElementTree as ET
        path = tmp_path / "t.svg"
        cli.write_svg(path, "demo", np.linspace(0, 1, 5),
                      {"v": np.linspace(1, 2, 5)})
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")
