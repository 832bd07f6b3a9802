"""Scenario benchmark of the bfflow command line.

Run from the repository root:

    python3 perfbench/run.py --workload quasistatic --seed 1 --seconds 20 --trace 0

The benchmark writes the workload's config for the given seed (see
workloads.py), imports bfflow from src/, and calls `bfflow.cli.main` on that
config in this process, again and again for `--seconds` seconds. Every
invocation is checked: exit code 0, every pass_* verdict PASS, and outputs
byte-identical to the first invocation. At the default seed the gated summary
numbers are compared with references.json; at any other seed the default-seed
config is run once first and compared instead.

With `--trace 0` the result line carries the end-to-end metrics, measured
with the program untouched. With `--trace 1` untraced and traced invocations
alternate; the traced ones record spans (tracing.py) that give the per-layer
metrics, and the difference between the two medians is the tracing overhead.
The last line of standard output is the JSON result; outputs and the spans of
the last traced invocation go to .perfbench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import Tracer, per_layer_metrics, unit_of
from workloads import (DEFAULT_SEED, WORKLOADS, config_text, read_summary,
                       reference_problems, verdict_problems)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# set-ups timed after every untraced invocation; spread over the whole run,
# their median follows the host's speed the way scenario_s does
SETUPS_PER_ROUND = 4
MIN_ROUNDS = 3


def _bfflow_modules() -> dict:
    return {m: sys.modules[m] for m in list(sys.modules)
            if m == "bfflow" or m.startswith("bfflow.")}


def setup_seconds(text: str) -> float:
    """Seconds to import bfflow anew and turn the config text into the
    objects a scenario runs on. numpy, its one dependency, stays loaded, so
    this is bfflow's own set-up cost. The modules loaded before are put back
    afterwards, so the invocations keep running on one copy of bfflow."""
    loaded = _bfflow_modules()
    for name in loaded:
        del sys.modules[name]
    t0 = time.perf_counter()
    cli = importlib.import_module("bfflow.cli")
    sc = cli.parse_config(text)
    grid = sc.grid()
    D = sc.medium()
    sc.nonlinearity()
    sc.solver(grid, D)
    sc.forcing(grid)
    sc.initial(grid)
    seconds = time.perf_counter() - t0
    for name in _bfflow_modules():
        del sys.modules[name]
    sys.modules.update(loaded)
    gc.collect()  # the dropped module copy must not lift peak_rss_mb
    return seconds


_PROBE_FIELD = np.linspace(-1.0, 1.0, 2 * 16 * 16).reshape(2, 16, 16)


def probe_seconds() -> float:
    """Time of a fixed numpy loop that never touches bfflow.

    It is shaped like bfflow's small-array stencils, so a slow phase of a
    shared host slows it about as much as an invocation next to it;
    scenario_probes divides each invocation by the mean of the probes just
    before and after it, setup_probes each set-up by the probe just before.
    """
    a = _PROBE_FIELD
    t0 = time.perf_counter()
    for _ in range(2000):
        b = np.pad(a, ((0, 0), (1, 1), (1, 1)))
        (b[:, 2:, 1:-1] + b[:, :-2, 1:-1] - 2.0 * a).sum()
    return time.perf_counter() - t0


class Bench:
    def __init__(self, cli, workload: str):
        self.cli = cli
        self.workload = workload
        self.subcommand = WORKLOADS[workload].subcommand
        self.attempted = 0
        self.failed = 0

    def invoke(self, config: Path, out: Path):
        """One CLI invocation; returns (exit code, seconds, {file: bytes})."""
        shutil.rmtree(out, ignore_errors=True)
        argv = [self.subcommand, "--config", str(config), "--out", str(out)]
        t0 = time.perf_counter()
        rc = self.cli.main(argv)
        seconds = time.perf_counter() - t0
        return rc, seconds, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def checked(self, label: str, config: Path, out: Path, *,
                reference: bool = False, expected: dict | None = None):
        """Invoke and check; returns (seconds, outputs), or None on failure."""
        self.attempted += 1
        try:
            rc, seconds, outputs = self.invoke(config, out)
        except Exception:
            self.failed += 1
            print(f"{label}: invocation raised", file=sys.stderr)
            traceback.print_exc()
            return None
        problems = [] if rc == 0 else [f"exit code {rc}"]
        summary = read_summary(outputs.get("summary.txt", b"").decode())
        problems += verdict_problems(summary)
        if reference:
            problems += reference_problems(self.workload, summary)
        if expected is not None and outputs != expected:
            diff = sorted(k for k in expected.keys() | outputs.keys()
                          if expected.get(k) != outputs.get(k))
            problems.append(f"outputs differ from the first invocation: {diff}")
        if problems:
            self.failed += 1
            print(f"{label}: " + "; ".join(problems), file=sys.stderr)
            return None
        return seconds, outputs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bfflow" / "__init__.py").is_file():
        print(f"perfbench: no bfflow sources at {SRC}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    config = out / "config.cfg"
    text = config_text(args.workload, args.seed)
    config.write_text(text)

    bench = Bench(importlib.import_module("bfflow.cli"), args.workload)
    setup_times, setup_per_probe = [], []

    if args.seed != DEFAULT_SEED:
        ref_config = out / "config_default_seed.cfg"
        ref_config.write_text(config_text(args.workload, DEFAULT_SEED))
        bench.checked("reference seed", ref_config, out / "reference", reference=True)
    first = bench.checked("first", config, out / "plain",
                          reference=args.seed == DEFAULT_SEED)
    expected = first[1] if first else None

    plain, traced, layer_rows, per_probe = [], [], [], []
    tracer = Tracer()
    probes = [] if args.trace else [probe_seconds()]
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while time.perf_counter() < deadline or rounds < MIN_ROUNDS:
        rounds += 1
        got = bench.checked("untraced", config, out / "plain", expected=expected)
        if got:
            plain.append(got[0])
        if not args.trace:
            probes.append(probe_seconds())
            if got:
                per_probe.append(got[0] / (0.5 * (probes[-2] + probes[-1])))
            for _ in range(SETUPS_PER_ROUND):
                setup_times.append(setup_seconds(text))
                setup_per_probe.append(setup_times[-1] / probes[-1])
            continue
        tracer.clear()
        with tracer.installed():
            got = bench.checked("traced", config, out / "traced", expected=expected)
        if got:
            traced.append(got[0])
            layer_rows.append(per_layer_metrics(tracer.report(), tracer.counts))

    if args.trace:
        tracer.write(out / "spans.csv")
        metrics = {}
        if layer_rows:
            for name in layer_rows[0]:
                metrics[name] = statistics.median(r[name] for r in layer_rows)
            metrics["trace.scenario_s"] = statistics.median(traced)
            metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "scenario_s": {"value": statistics.median(plain) if plain else 0.0, "unit": "s"},
            "scenario_probes": {"value": statistics.median(per_probe) if per_probe else 0.0,
                                "unit": "probes"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "setup_probes": {"value": statistics.median(setup_per_probe), "unit": "probes"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    print(f"perfbench {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced invocations timed, {len(setup_times)} set-ups; "
          f"{bench.failed} of {bench.attempted} invocations failed")
    correct = bench.failed == 0
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
