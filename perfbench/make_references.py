"""Regenerate references.json: verdicts and gated summary numbers of every
workload at the default seed.

    python3 perfbench/make_references.py

Run it only when a change is meant to alter the scenarios' numbers, and say
so in the change; the benchmark compares against this file.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from workloads import (DEFAULT_SEED, REFERENCES, WORKLOADS, config_text,
                       read_summary, verdict_problems)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from bfflow import cli  # noqa: E402


def main() -> int:
    refs = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for name, w in WORKLOADS.items():
            config = Path(tmp) / f"{name}.cfg"
            config.write_text(config_text(name, DEFAULT_SEED))
            rc = cli.main([w.subcommand, "--config", str(config), "--out", str(Path(tmp) / name)])
            summary = read_summary((Path(tmp) / name / "summary.txt").read_text())
            if rc != 0 or verdict_problems(summary):
                print(f"{name}: exit {rc}, {verdict_problems(summary)}", file=sys.stderr)
                return 1
            refs[name] = {
                "verdicts": {k: v for k, v in summary.items() if k.startswith("pass_")},
                "numbers": {k: float(summary[k]) for k in w.gated},
            }
    REFERENCES.write_text(json.dumps(refs, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
