"""Tracing must not change what bfflow computes, and the per-layer self
times it derives must account for the traced wall time.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import importlib
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from bfflow import analysis, cli, dynamics, krylov, physics  # noqa: E402
from tracing import BOUNDARIES, Tracer, per_layer_metrics  # noqa: E402

_QUINTIC = "[nonlinearity]\nalpha = 1\nbeta = 1\nl = 2\n"

# tiny versions of the quasistatic and energy workloads: Newton-CG, nested
# CG inside bogovski, RK4 with work collection
TINY = {
    "split": "[grid]\nn = 8\n" + _QUINTIC + "[forcing]\nkind = band_random\n"
             "seed = 3\n[initial]\nkind = white_pressure\nseed = 4\n"
             "[run]\nt_max = 0.01\nsnapshot_stride = 0.002\n",
    "simulate": "[grid]\nn = 8\n[medium]\ndiag = 1, 2\n" + _QUINTIC +
                "[forcing]\nkind = fixed_random\nseed = 5\n[initial]\n"
                "kind = smooth\nseed = 6\n[scenario]\neps = 0.05\n"
                "[run]\nt_max = 0.02\nsnapshot_stride = 0.005\n",
}


def _outputs(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("subcommand", sorted(TINY))
def test_traced_invocation_matches_untraced(tmp_path, subcommand):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY[subcommand])
    rc_plain = cli.main([subcommand, "--config", str(config),
                         "--out", str(tmp_path / "plain")])
    tracer = Tracer()
    with tracer.installed():
        t0 = time.perf_counter()
        rc_traced = cli.main([subcommand, "--config", str(config),
                              "--out", str(tmp_path / "traced")])
        wall = time.perf_counter() - t0
    assert rc_plain == rc_traced == 0
    assert _outputs(tmp_path / "plain") == _outputs(tmp_path / "traced")

    rep = tracer.report()
    assert rep["spans"]["cli.main"]["calls"] == 1
    assert sum(rep["layers"].values()) == pytest.approx(wall, rel=0.03)
    metrics = per_layer_metrics(rep, tracer.counts)
    assert metrics["krylov.cg.solves"] > 0
    assert metrics["krylov.cg.iters"] >= metrics["krylov.cg.solves"]
    assert metrics["krylov.cg.failures"] == 0
    if subcommand == "split":
        assert metrics["dynamics.newton.steps"] >= metrics["dynamics.newton.solves"] > 0
    else:
        assert metrics["physics.bogovski.calls"] == 5
    # CG nested inside bogovski's CG: inclusive time still fits in the wall
    assert metrics["krylov.cg.total_s"] <= wall


def test_installed_rebinds_imported_names_and_restores():
    bound = {mod: mod.conjugate_gradient for mod in (analysis, dynamics, physics)}
    apply_array = physics.MediumMatrix.apply_array
    with Tracer().installed():
        for mod, fn in bound.items():
            assert mod.conjugate_gradient is not fn
            assert mod.conjugate_gradient is krylov.conjugate_gradient
        assert physics.MediumMatrix.apply_array is not apply_array
        assert dynamics._rk4_full.__wrapped__ is not None   # reached from analysis
    for mod, fn in bound.items():
        assert mod.conjugate_gradient is fn
    assert physics.MediumMatrix.apply_array is apply_array
    assert not hasattr(dynamics._rk4_full, "__wrapped__")


def test_boundaries_exist():
    # a renamed private boundary would silently drop out of the trace
    for name in BOUNDARIES:
        layer, attr = name.split(".")
        assert hasattr(importlib.import_module(f"bfflow.{layer}"), attr), name


def test_cg_iterations_counted_on_the_operator():
    # three distinct eigenvalues: CG converges in exactly three iterations
    diag = np.array([1.0, 2.0, 4.0, 4.0, 2.0])
    b = np.ones(5)
    tracer = Tracer()
    with tracer.installed():
        krylov.conjugate_gradient(lambda x: diag * x, b)
        krylov.conjugate_gradient(lambda x: diag * x, b, np.zeros(5))
    assert tracer.counts["cg_iters"] == 6
    assert tracer.report()["spans"]["krylov.conjugate_gradient"]["calls"] == 2
