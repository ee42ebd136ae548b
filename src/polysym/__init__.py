"""Compute linear and orthogonal symmetry groups of convex polytopes.

The pipeline colors the polytope's edge-graph with spectrally meaningful
vertex/edge weights, enumerates the colored graph's automorphisms, and
reconstructs each one as an explicit linear map on the ambient space.
"""

from .config import DEFAULT_TOLERANCES, Tolerances
from .geometry import Polytope, load_polytope, make_polytope

__all__ = [
    "DEFAULT_TOLERANCES",
    "Tolerances",
    "Polytope",
    "load_polytope",
    "make_polytope",
]
