"""Desk-scale numerical laboratory for slightly compressible Brinkman-Forchheimer flow."""

# cli is left out so that `python -m bfflow.cli` does not find it imported,
# and reference, which only the oracle subcommand and the tests use, so that
# importing bfflow does not load it
from . import analysis, dynamics, grid, physics, rng

__all__ = ["analysis", "cli", "dynamics", "grid", "physics", "reference", "rng"]
__version__ = "0.1.0"
