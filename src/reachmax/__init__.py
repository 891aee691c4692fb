"""Exact quadratic maximization over the reachable values of convergent affine systems."""

from .geometry import Box, Polytope, VRep
from .solver import ProblemInstance, SolveReport, SolveStatus, solve

__version__ = "0.1.0"

__all__ = [
    "Box",
    "Polytope",
    "ProblemInstance",
    "SolveReport",
    "SolveStatus",
    "VRep",
    "solve",
]
