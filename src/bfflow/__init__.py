"""Desk-scale numerical laboratory for slightly compressible Brinkman-Forchheimer flow."""

# cli is left out so that `python -m bfflow.cli` does not find it imported
from . import analysis, dynamics, grid, physics, reference, rng

__all__ = ["analysis", "cli", "dynamics", "grid", "physics", "reference", "rng"]
__version__ = "0.1.0"
