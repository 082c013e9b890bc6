"""Steady compressible duct flow with Navier-slip walls.

Solver for the perturbation form of the steady barotropic flow system in
a rectangular duct: a fixed-point iteration over a linearized viscous
step coupled to a density transport step, plus the diagnostic machinery
that certifies the contraction and a-priori estimates at desk scale.

The package exports what a library user needs to run a solve as the CLI
does; everything else is reached through its module (slipflow.transport,
slipflow.diagnostics, ...).
"""

from .config import ConfigError, RunConfig, config_from_mapping, parse_config
from .fields import NormKind, norm
from .grid import GeometryConfig, build_grid
from .picard import ProblemSetup, SolutionBundle, build_setup, picard_solve
from .transport import apply_S
from .cli import main

__all__ = [
    "config_from_mapping",
    "parse_config",
    "ConfigError",
    "RunConfig",
    "build_setup",
    "ProblemSetup",
    "picard_solve",
    "SolutionBundle",
    "GeometryConfig",
    "build_grid",
    "norm",
    "NormKind",
    "apply_S",
    "main",
]
