"""Check that this checkout and another one give the same CLI outputs.

    python tools/same_outputs.py <other-checkout>

Runs one fixed list of 51 CLI invocations with the sources of each
checkout: every subcommand on configs/quintic16.cfg (`split` with both split
kinds, both also with a square-root drag, beta = 0 and gamma = 0.5, and the
trunc kind also with a linear drag, beta = 0; `simulate` also with
initial.kind = mode and drag-free with alpha = beta = 0; `attractor`,
`smoothing` and `lipschitz` also with scheme = semi_implicit at dt = 0.01,
`lipschitz` with the convective term on), `attractor` on
configs/attractor8.cfg, the four benchmark workload configs at seed 1
(`quasistatic` also with split_kind = bootstrap, `ensemble` also with a
full `rows` medium), `attractor` on the `ensemble` workload config at seeds
2-12, `simulate` and `lipschitz` on a short 3D run at 6^3 (`lipschitz` also
semi-implicit, `simulate` also with the convective term on), every
subcommand on the 3D configs configs/cube8.cfg (`split` from a white-noise
pressure at t_max = 0.05) and
configs/cube8_attractor.cfg (`attractor`), and two short `simulate` runs on
larger grids: 20^3, and 40^2 with the convective term on. Each checkout runs
the whole list in one process, calling `bfflow.cli.main` once per run, as
the benchmark does. The configs are read from this checkout
(perfbench/workloads.py is imported, not changed).

Prints one line per run, comparing exit codes and every output file byte for
byte, and exits 0 only when every run is identical. For files that differ it
also prints the largest relative difference over numeric cells (the cells of
a CSV row, the value of a `key = value` line) and names each other cell that
differs, such as a verdict or a status.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# quintic drag with an anisotropic medium, a few CFL steps
_QUINTIC = """[grid]
dim = {dim}
n = {n}
[medium]
diag = {diag}
[nonlinearity]
alpha = 1
beta = 1
l = 2
[forcing]
kind = fixed_random
seed = 42
[initial]
kind = smooth
seed = 7
[run]
t_max = {t_max}
snapshot_stride = {stride}
"""
_CUBE6 = _QUINTIC.format(dim=3, n=6, diag="1, 2, 1.5", t_max=0.05, stride=0.01)
_SEMI_IMPLICIT = "\n[solver]\nscheme = semi_implicit\ndt = 0.01\n"

# run in a fresh interpreter per checkout: argv = src dir, runs file, out dir
_RUNNER = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from bfflow import cli
out = Path(sys.argv[3])
codes = {}
for label, subcommand, text in json.loads(Path(sys.argv[2]).read_text()):
    config = out / (label + ".cfg")
    config.write_text(text)
    try:
        codes[label] = cli.main([subcommand, "--config", str(config),
                                 "--out", str(out / label)])
    except Exception as err:
        codes[label] = "raised " + type(err).__name__
(out / "codes.json").write_text(json.dumps(codes))
"""


def _runs() -> list[tuple[str, str, str]]:
    """(label, subcommand, config text) of every run in the list."""
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, config_text

    quintic = (ROOT / "configs" / "quintic16.cfg").read_text()
    bootstrap = "\n[scenario]\nsplit_kind = bootstrap\n"
    runs = [(f"quintic16-{sub}", sub, quintic) for sub in (
        "simulate", "spectrum", "lipschitz", "split", "expsplit", "smoothing",
        "attractor", "audit", "oracle")]
    runs.append(("quintic16-split-bootstrap", "split", quintic + bootstrap))
    runs.append(("quintic16-simulate-mode", "simulate",
                 quintic + "\n[initial]\nkind = mode\n"))
    runs.append(("quintic16-simulate-drag-free", "simulate",
                 quintic + "\n[nonlinearity]\nalpha = 0\nbeta = 0\n"))
    # the Newton Jacobian's square-root and linear branches
    sqrt_drag = quintic + "\n[nonlinearity]\nbeta = 0\ngamma = 0.5\n"
    runs.append(("quintic16-split-sqrt-drag", "split", sqrt_drag))
    runs.append(("quintic16-split-bootstrap-sqrt-drag", "split", sqrt_drag + bootstrap))
    runs.append(("quintic16-split-linear-drag", "split",
                 quintic + "\n[nonlinearity]\nbeta = 0\n"))
    runs += [(f"quintic16-{sub}-semi-implicit", sub, quintic + _SEMI_IMPLICIT)
             for sub in ("attractor", "smoothing")]
    runs.append(("quintic16-lipschitz-semi-implicit-convective", "lipschitz",
                 quintic + _SEMI_IMPLICIT + "[scenario]\nconvective = on\n"))
    runs.append(("attractor8-attractor", "attractor",
                 (ROOT / "configs" / "attractor8.cfg").read_text()))
    for name, w in WORKLOADS.items():
        runs.append((f"{name}-seed1", w.subcommand, config_text(name, 1)))
    runs.append(("quasistatic-seed1-bootstrap", "split",
                 config_text("quasistatic", 1) + bootstrap))
    runs.append(("ensemble-seed1-rows", "attractor",
                 config_text("ensemble", 1).replace("diag = 4, 4", "rows = 6 1; 1 5")))
    runs += [(f"ensemble-seed{s}", "attractor", config_text("ensemble", s))
             for s in range(2, 13)]
    runs += [(f"cube6-{sub}", sub, _CUBE6) for sub in ("simulate", "lipschitz")]
    runs.append(("cube6-lipschitz-semi-implicit", "lipschitz", _CUBE6 + _SEMI_IMPLICIT))
    runs.append(("cube6-simulate-convective", "simulate",
                 _CUBE6 + "[scenario]\nconvective = on\n"))
    cube8 = (ROOT / "configs" / "cube8.cfg").read_text()
    runs += [(f"cube8-{sub}", sub, cube8) for sub in (
        "simulate", "spectrum", "lipschitz", "expsplit", "smoothing", "audit", "oracle")]
    runs.append(("cube8-split", "split", cube8 + "\n[initial]\nkind = white_pressure\n"
                 "[run]\nt_max = 0.05\nsnapshot_stride = 0.01\n"))
    runs.append(("cube8_attractor-attractor", "attractor",
                 (ROOT / "configs" / "cube8_attractor.cfg").read_text()))
    runs.append(("cube20-simulate", "simulate",
                 _QUINTIC.format(dim=3, n=20, diag="1, 2, 1.5", t_max=0.01, stride=0.002)))
    runs.append(("square40-simulate-convective", "simulate",
                 _QUINTIC.format(dim=2, n=40, diag="1, 2", t_max=0.01, stride=0.002)
                 + "[scenario]\nconvective = on\n"))
    return runs


def _outputs(directory: Path) -> dict[str, bytes]:
    if not directory.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _cells(data: bytes) -> list[list[str]]:
    return [re.split(r",| = ", line) for line in data.decode(errors="replace").splitlines()]


def _compare(name: str, a: bytes, b: bytes) -> tuple[tuple[float, str], list[str]]:
    """(largest relative difference over the numeric cells of two versions
    of output file `name`, where it is), and a note for each other cell that
    differs."""
    rows_a, rows_b = _cells(a), _cells(b)
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return (0.0, ""), [f"{name}: rows or cells differ in number"]
    worst, notes = (0.0, ""), []
    for line, (row_a, row_b) in enumerate(zip(rows_a, rows_b), 1):
        for col, (x, y) in enumerate(zip(row_a, row_b)):
            if x == y:
                continue
            where = f"{name} line {line} cell {col} ({row_a[0]})"
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                fx = fy = math.nan
            if math.isfinite(fx) and math.isfinite(fy):
                worst = max(worst, (abs(fx - fy) / max(abs(fx), abs(fy)), f"{where}: {x} vs {y}"))
            else:
                notes.append(f"{where}: {x} here, {y} there")
    return worst, notes


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    if not (other / "src" / "bfflow" / "__init__.py").is_file():
        print(f"{other}: no src/bfflow in that checkout", file=sys.stderr)
        return 2
    runs = _runs()
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        spec = Path(tmp) / "runs.json"
        spec.write_text(json.dumps(runs))
        outs = {"this": Path(tmp) / "this", "other": Path(tmp) / "other"}
        procs = []
        for key, checkout in (("this", ROOT), ("other", other)):
            outs[key].mkdir()
            procs.append(subprocess.Popen(
                [sys.executable, "-c", _RUNNER, str(checkout / "src"), str(spec),
                 str(outs[key])], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True))
        for key, proc in zip(outs, procs):
            _, err = proc.communicate()
            if proc.returncode:
                print(f"the {key} checkout's runner failed:\n{err[-2000:]}", file=sys.stderr)
                return 1
        codes = {k: json.loads((d / "codes.json").read_text()) for k, d in outs.items()}
        same, overall = 0, 0.0
        for label, _, _ in runs:
            a, b = codes["this"][label], codes["other"][label]
            fa, fb = _outputs(outs["this"] / label), _outputs(outs["other"] / label)
            differ = sorted(k for k in fa.keys() | fb.keys() if fa.get(k) != fb.get(k))
            if a == b and not differ:
                same += 1
                print(f"same  {label}: exit {a}, {len(fa)} files")
                continue
            worst, notes = (0.0, ""), []
            for name in differ:
                if name in fa and name in fb:
                    w, n = _compare(name, fa[name], fb[name])
                    worst, notes = max(worst, w), notes + n
                else:
                    notes.append(f"{name}: {'only here' if name in fa else 'only there'}")
            overall = max(overall, worst[0])
            exits = f"EXIT {a} here, {b} there" if a != b else f"exit {a}"
            print(f"DIFF  {label}: {exits}; files differ: {differ}; "
                  f"largest relative difference {worst[0]:.2g}")
            if worst[1]:
                print(f"        at {worst[1]}")
            for note in notes:
                print(f"        {note}")
    print(f"{same} of {len(runs)} runs identical; largest relative difference "
          f"over numeric cells {overall:.2g}")
    return 0 if same == len(runs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
