"""Seeded inputs and job lists for the three benchmark workloads.

Every polytope is built here in code, then relabelled by a random vertex
permutation and rotated by a random orthogonal map, so group orders do not
depend on the seed while the labelling the search sees does.  Each job is
the argv a user would type for one ``polysym`` invocation, plus what the
checker expects of its output.  Inputs are built here rather than taken
from ``polysym.fixtures``, so that no change to the program under test can
change what the benchmark measures.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GOLDEN = (1 + 5 ** 0.5) / 2

# Group orders of the benchmark inputs; both flavors agree on every input.
EXPECTED_ORDER = {
    "H3": 120,       # icosahedron, dodecahedron
    "B4": 384,       # 4-cube, 4-cross-polytope
    "S4xC2": 48,     # 3-permutahedron
    "D3h": 12,       # triangular prism capped over its square faces
    "k44": 128,      # cross-pattern embedding of K_{4,4}
    "generic": 1,
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the checks its output must pass."""

    name: str
    argv: tuple
    kind: str                   # "analyze" | "oracle" | "validate"
    vertices: np.ndarray = field(repr=False)   # coordinates written to the input file
    group: str | None = None    # key into EXPECTED_ORDER
    flavor: str | None = None   # oracle flavor


def _signed_cyclic(base):
    """All cyclic shifts of ``base`` under every sign pattern, deduplicated."""
    out = set()
    for shift in range(3):
        v = base[shift:] + base[:shift]
        for signs in itertools.product((1, -1), repeat=3):
            out.add(tuple(s * x for s, x in zip(signs, v)))
    return sorted(out)


def icosahedron() -> np.ndarray:
    return np.array(_signed_cyclic([0.0, 1.0, GOLDEN]))


def dodecahedron() -> np.ndarray:
    cube = list(itertools.product((1.0, -1.0), repeat=3))
    return np.array(cube + _signed_cyclic([0.0, 1.0 / GOLDEN, GOLDEN]))


def permutahedron3() -> np.ndarray:
    """Truncated octahedron: all permutations of (0, +-1, +-2)."""
    pts = set()
    for perm in itertools.permutations((0.0, 1.0, 2.0)):
        for signs in itertools.product((1, -1), repeat=3):
            pts.add(tuple(s * x for s, x in zip(signs, perm)))
    return np.array(sorted(pts))


def hypercube(d: int) -> np.ndarray:
    return np.array(list(itertools.product((1.0, -1.0), repeat=d)))


def cross_polytope(d: int) -> np.ndarray:
    e = np.eye(d)
    return np.concatenate([e, -e])


def cyclic4_6() -> np.ndarray:
    k = np.arange(6)
    return np.stack([np.cos(2 * np.pi * k / 6), np.sin(2 * np.pi * k / 6),
                     np.cos(4 * np.pi * k / 6), np.sin(4 * np.pi * k / 6)], axis=1)


def capped_prism() -> np.ndarray:
    """Triangular prism with a pyramid on each square face: 9 vertices, D3h."""
    angles = 2 * np.pi * np.arange(3) / 3
    prism = [[np.cos(a), np.sin(a), z] for z in (1.0, -1.0) for a in angles]
    caps = [[1.2 * np.cos(a + np.pi / 3), 1.2 * np.sin(a + np.pi / 3), 0.0] for a in angles]
    return np.array(prism + caps)


def k44() -> tuple[np.ndarray, list]:
    e = np.eye(4)
    coords = np.array([e[0], e[1], -e[0], -e[1], e[2], e[3], -e[2], -e[3]])
    edges = [(i, j) for i in range(4) for j in range(4, 8)]
    return coords, edges


def random_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def scramble(rng: np.random.Generator, vertices: np.ndarray):
    """Random relabelling then random rotation; returns (vertices, new_index_of_old)."""
    n, d = vertices.shape
    order = rng.permutation(n)            # new vertex k is old vertex order[k]
    new_of_old = np.argsort(order)
    return vertices[order] @ random_orthogonal(rng, d).T, new_of_old


def random_sphere_polytope(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Uniform points on the unit sphere, redrawn until polysym accepts them as a polytope.

    Rejection is against input validation only (``make_polytope``), never
    against the outcome of an analysis.
    """
    from polysym.errors import ValidationError
    from polysym.geometry import make_polytope

    while True:
        pts = rng.standard_normal((n, d))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        try:
            make_polytope(d, pts)
        except ValidationError:
            continue
        return pts


SYMMETRIC = (
    ("icosahedron", icosahedron, "H3"),
    ("dodecahedron", dodecahedron, "H3"),
    ("permutahedron3", permutahedron3, "S4xC2"),
    ("cube4", lambda: hypercube(4), "B4"),
    ("cross4", lambda: cross_polytope(4), "B4"),
)
# The 24-cell (|G| 1152) is left out: one analysis takes 12-21 s, by its
# labelling and the host's speed, so a run holds only two of them and its
# median carries their luck.
GENERIC = ((20, 4), (16, 5), (12, 6))
# The generic point sets are drawn once from this fixed seed, just as the
# regular polytopes are built once; the run's seed relabels and rotates
# them like every other input.  A fresh draw per pass would add the spread
# of random polytopes' face counts to every timing: the (12, 6) analysis
# took 2.6-9.2 s across draws.
GENERIC_SEED = 0
VALIDATE = (
    ("octahedron", lambda: cross_polytope(3)),
    ("cube", lambda: hypercube(3)),
    ("cyclic4_6", cyclic4_6),
)
FLAVORS = ("linear", "orthogonal")


def _write_input(workdir: Path, name: str, verts: np.ndarray, **extra) -> str:
    path = workdir / f"{name}.json"
    doc = {"name": name, "dimension": int(verts.shape[1]), "vertices": verts.tolist(), **extra}
    path.write_text(json.dumps(doc))
    return str(path)


def make_jobs(workload: str, seed, workdir: Path) -> list[Job]:
    """Write the inputs of one pass under ``workdir`` and return its jobs in order.

    ``seed`` is anything ``numpy.random.default_rng`` accepts; equal seeds
    give identical inputs.
    """
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    jobs: list[Job] = []
    if workload == "symmetric":
        for name, build, group in SYMMETRIC:
            verts, _ = scramble(rng, build())
            path = _write_input(workdir, name, verts)
            jobs.append(Job(name, ("analyze", path), "analyze", verts, group))
    elif workload == "generic":
        base = np.random.default_rng(GENERIC_SEED)
        for n, d in GENERIC:
            name = f"sphere{n}_{d}"
            verts, _ = scramble(rng, random_sphere_polytope(base, n, d))
            path = _write_input(workdir, name, verts)
            jobs.append(Job(name, ("analyze", path), "analyze", verts, "generic"))
    elif workload == "certify":
        for name, build in VALIDATE:
            verts, _ = scramble(rng, build())
            path = _write_input(workdir, name, verts)
            jobs.append(Job(name, ("validate", path), "validate", verts))
        coords, edges = k44()
        verts, new_of_old = scramble(rng, coords)
        path = _write_input(workdir, "k44_embedding", verts, edges=sorted(
            sorted((int(new_of_old[i]), int(new_of_old[j]))) for i, j in edges))
        for flavor in FLAVORS:
            argv = ("oracle", path, "--embedding", "--candidates", "graph-auts", "--flavor", flavor)
            jobs.append(Job(f"k44_embedding-{flavor}", argv, "oracle", verts, "k44", flavor))
        verts, _ = scramble(rng, capped_prism())
        path = _write_input(workdir, "capped_prism", verts)
        for flavor in FLAVORS:
            argv = ("oracle", path, "--flavor", flavor)
            jobs.append(Job(f"capped_prism-{flavor}", argv, "oracle", verts, "D3h", flavor))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs
