"""Workbench for exclusion dynamics on the discrete torus.

Pieces: jump-law analysis, event-driven simulation with exact small-system
oracles and relative entropies, a finite-subset dual engine that extracts
density-dependent diffusion matrices, a conservative solver for the limiting
nonlinear diffusion equation, and a CLI harness that compares rescaled
particle densities against the PDE.
"""

__version__ = "0.1.0"

from .errors import ConfigError, InvariantViolation
from .kernels import TransitionKernel, KernelAnalysis, validate_kernel
from .lattice import TorusGeometry, Configuration
from .simulate import RngStream, CurrentLedger, evolve

__all__ = [
    "ConfigError",
    "InvariantViolation",
    "TransitionKernel",
    "KernelAnalysis",
    "validate_kernel",
    "TorusGeometry",
    "Configuration",
    "RngStream",
    "CurrentLedger",
    "evolve",
]
