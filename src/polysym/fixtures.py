"""Canonical polytopes and embeddings used by tests, scripts and the CLI.

Coordinates here are the exact ones shipped in fixtures/*.json; the JSON
files are regenerated by scripts/make_fixtures.py.
"""

from __future__ import annotations

import numpy as np

from .geometry import Polytope, make_polytope


def square() -> Polytope:
    return make_polytope(2, [[1, 1], [-1, 1], [-1, -1], [1, -1]], name="square")


def rectangle() -> Polytope:
    return make_polytope(2, [[2, 1], [-2, 1], [-2, -1], [2, -1]], name="rectangle")


def triangle() -> Polytope:
    """Equilateral triangle with unit circumradius."""
    verts = [[np.cos(2 * np.pi * k / 3), np.sin(2 * np.pi * k / 3)] for k in range(3)]
    return make_polytope(2, verts, name="triangle")


def hexagon() -> Polytope:
    verts = [[np.cos(np.pi * k / 3), np.sin(np.pi * k / 3)] for k in range(6)]
    return make_polytope(2, verts, name="hexagon")


def stretched_hexagon() -> Polytope:
    """Regular hexagon stretched by diag(2, 1): extra non-orthogonal symmetry."""
    verts = [[2 * np.cos(np.pi * k / 3), np.sin(np.pi * k / 3)] for k in range(6)]
    return make_polytope(2, verts, name="stretched_hexagon")


def perturbed_hexagon(seed: int = 20240) -> Polytope:
    """Generic hexagon: radial/angular jitter kills every symmetry."""
    rng = np.random.RandomState(seed)
    radii = 1.0 + 0.08 * rng.uniform(-1, 1, size=6)
    angles = np.pi * np.arange(6) / 3 + 0.08 * rng.uniform(-1, 1, size=6)
    verts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    return make_polytope(2, verts, name="perturbed_hexagon")


def simplex(dim: int) -> Polytope:
    """Regular simplex in R^dim with unit circumradius, centred at the origin.

    Columns of the Helmert basis give d+1 equidistant unit-norm points
    with pairwise inner product -1/d.
    """
    n = dim + 1
    helmert = np.zeros((dim, n))
    for k in range(1, n):
        helmert[k - 1, :k] = 1.0
        helmert[k - 1, k] = -k
        helmert[k - 1] /= np.sqrt(k * (k + 1))
    verts = (helmert * np.sqrt(n / dim)).T
    return make_polytope(dim, verts, name=f"simplex{dim}")


def cube() -> Polytope:
    verts = [[x, y, z] for x in (1, -1) for y in (1, -1) for z in (1, -1)]
    return make_polytope(3, verts, name="cube")


def octahedron() -> Polytope:
    verts = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    return make_polytope(3, verts, name="octahedron")


def prism3() -> Polytope:
    """Triangular prism: equilateral cross-section at z = +-1."""
    verts = [[np.cos(2 * np.pi * k / 3), np.sin(2 * np.pi * k / 3), z]
             for z in (1, -1) for k in range(3)]
    return make_polytope(3, verts, name="prism3")


def cyclic4(n: int = 6) -> Polytope:
    """Cyclic 4-polytope on the trigonometric moment curve, n >= 6 vertices.

    Every pair of vertices spans an edge, so the edge-graph is K_n, yet the
    symmetry group is much smaller than Sym(n).
    """
    if n < 6:
        raise ValueError("need n >= 6 for a non-simplex cyclic 4-polytope")
    verts = [[np.cos(2 * np.pi * k / n), np.sin(2 * np.pi * k / n),
              np.cos(4 * np.pi * k / n), np.sin(4 * np.pi * k / n)]
             for k in range(n)]
    return make_polytope(4, verts, name=f"cyclic4_{n}")


def k44_coordinates() -> np.ndarray:
    """The standard cross-pattern embedding of K_{4,4} into R^4."""
    e = np.eye(4)
    return np.array([e[0], e[1], -e[0], -e[1], e[2], e[3], -e[2], -e[3]])


def k44_edges() -> tuple[tuple[int, int], ...]:
    """The edges of K_{4,4} on the eight points of ``k44_coordinates``."""
    return tuple((i, j) for i in range(4) for j in range(4, 8))


# Registry of the acceptance fixture polytopes, in report order.
FIXTURES = {
    "triangle": triangle,
    "square": square,
    "rectangle": rectangle,
    "hexagon": hexagon,
    "stretched_hexagon": stretched_hexagon,
    "perturbed_hexagon": perturbed_hexagon,
    "simplex2": lambda: simplex(2),
    "simplex3": lambda: simplex(3),
    "simplex4": lambda: simplex(4),
    "cube": cube,
    "octahedron": octahedron,
    "prism3": prism3,
    "cyclic4_6": cyclic4,
}
