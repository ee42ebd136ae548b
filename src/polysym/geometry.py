"""Polytope ingestion, facet enumeration, edge-graph and dual-face geometry.

Vertices are the single source of truth.  Everything else (facets, dual
faces, volumes) is derived by brute force over d-subsets, which at desk
scale (n <= ~20, d <= 6) is exact by construction and dependency-free.
Each hull is searched once: validation finds the facets a ``Polytope``
carries, and the volume recursion reuses each facet plane's fitted frame.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    DegenerateGeometry,
    DimensionMismatch,
    ParseError,
    Unbounded,
    ValidationError,
)


@dataclass(frozen=True, eq=False)
class Polytope:
    """Full-dimensional convex polytope with the origin strictly interior.

    ``vertices`` has shape (n, d); row i is vertex i.  Vertex order is
    contract-bearing: permutations and reconstructed linear maps refer to
    these indices.  ``facets`` are the ones validation found, under the
    tolerances the polytope was built with.
    """

    dim: int
    vertices: np.ndarray
    facets: FacetSystem
    name: str | None = None

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    @property
    def phi(self) -> np.ndarray:
        """Vertex matrix of shape (d, n): column j is vertex j."""
        return self.vertices.T

    @property
    def scale(self) -> float:
        return float(np.max(np.linalg.norm(self.vertices, axis=1)))

    def to_json_dict(self) -> dict:
        doc = {"dimension": self.dim, "vertices": self.vertices.tolist()}
        if self.name is not None:
            doc["name"] = self.name
        return doc


@dataclass(frozen=True, eq=False)
class FacetSystem:
    """Facet normals u with <u, x> <= 1 on P, plus facet-vertex incidence.

    The normals are exactly the vertices of the polar dual.
    """

    normals: np.ndarray    # (m, d)
    incidence: np.ndarray  # (m, n) boolean

    @property
    def m(self) -> int:
        return self.normals.shape[0]


@dataclass(frozen=True, eq=False)
class EdgeGraph:
    """Simple graph on vertex indices 0..n-1 with sorted edge pairs and adjacency lists."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        edges = tuple(sorted(tuple(sorted(e)) for e in self.edges))
        adj = [[] for _ in range(self.n)]
        for i, j in edges:  # lexicographic edge order leaves every list sorted
            adj[i].append(j)
            adj[j].append(i)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_adj", tuple(map(tuple, adj)))

    @property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    def neighbors(self, i: int) -> list[int]:
        return list(self._adj[i])

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for i, j in self.edges:
            a[i, j] = a[j, i] = 1.0
        return a

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in self._adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.n


def complete_graph(n: int) -> EdgeGraph:
    return EdgeGraph(n, tuple(combinations(range(n), 2)))


@dataclass(frozen=True, eq=False)
class DualFace:
    """Dual-polytope face attached to an edge: its vertices and relative volume."""

    edge: tuple[int, int]
    points: np.ndarray  # (k, d) dual vertices incident to both endpoints
    relvol: float


# ---------------------------------------------------------------------------
# supporting hyperplanes (shared by validation, which finds the facets, and volumes)

def _affine_basis(points: np.ndarray, eps: float):
    """Centred SVD of a point set: (centroid, singular values, V^T rows)."""
    centroid = points.mean(axis=0)
    _, s, vt = np.linalg.svd(points - centroid, full_matrices=True)
    smax = s[0] if len(s) else 0.0
    rank = int(np.sum(s > max(eps, 1e-13 * max(smax, 1.0))))
    return centroid, rank, vt


def affine_rank(points: np.ndarray, eps: float) -> int:
    return _affine_basis(points, eps)[1]


def supporting_hyperplanes(points: np.ndarray, eps: float):
    """All facet hyperplanes of conv(points) in R^d (d >= 2), as (w, b, incident, frame).

    w is the unit outward normal, <w, x> <= b holds for every point, and
    ``incident`` flags the points with <w, x> = b up to eps.  ``frame`` is
    (centroid, basis) of the incident points, the d-1 basis rows spanning
    the plane.  Found by brute force over d-subsets (batched through
    numpy); each plane is refit against its full incident set and
    deduplicated by that set, so the result is complete and contains each
    facet exactly once.
    """
    pts = np.asarray(points, dtype=float)
    m, d = pts.shape
    if m < d + 1:
        raise DegenerateGeometry(f"need at least {d + 1} points in R^{d}, got {m}")
    subsets = np.array(list(combinations(range(m), d)))
    sub = pts[subsets]                                # (S, d, d)
    diffs = sub[:, 1:, :] - sub[:, :1, :]             # (S, d-1, d)
    _, s, vt = np.linalg.svd(diffs)
    indep = s[:, -1] > 1e-12 * np.maximum(s[:, 0], 1.0)
    normals = vt[indep][:, -1, :]                     # (S', d) nullspace dirs
    offsets = np.einsum("sd,sd->s", normals, sub[indep][:, 0, :])
    vals = normals @ pts.T                            # (S', m)
    below = np.all(vals <= offsets[:, None] + eps, axis=1)
    above = np.all(vals >= offsets[:, None] - eps, axis=1)
    keep = below | above
    normals, offsets, vals = normals[keep], offsets[keep], vals[keep]
    flip = ~below[keep]
    normals[flip] *= -1.0
    offsets[flip] *= -1.0
    vals[flip] *= -1.0
    incident = vals >= offsets[:, None] - eps
    planes: dict[bytes, tuple] = {}
    for idx in range(len(normals)):
        w, b, inc = normals[idx], offsets[idx], incident[idx]
        fit_key = inc.tobytes()
        if fit_key in planes:
            continue
        # refit on the full incident set for a better-conditioned plane
        centroid, rank, fvt = _affine_basis(pts[inc], eps)
        if rank == d - 1:
            w_fit = fvt[-1]
            if w_fit @ w < 0:
                w_fit = -w_fit
            b_fit = float(w_fit @ centroid)
            v_fit = pts @ w_fit
            if np.all(v_fit <= b_fit + eps):
                w, b = w_fit, b_fit
                inc = v_fit >= b - eps
        key = inc.tobytes()
        if key not in planes:
            if key != fit_key:  # the refit moved the incident set: fit the frame again
                centroid, _, fvt = _affine_basis(pts[inc], eps)
            planes[key] = (w, float(b), inc, (centroid, fvt[: d - 1]))
    if not planes:
        raise DegenerateGeometry("no supporting hyperplanes found (rank-deficient input?)")
    # deterministic order: by sorted incident set
    return sorted(planes.values(), key=lambda p: np.flatnonzero(p[2]).tolist())


# ---------------------------------------------------------------------------
# validation and loading

def validate_vertices(dim: int, vertices: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES):
    """Raise ValidationError naming the first violated invariant; else return the facets."""
    if dim < 2:
        raise ValidationError(f"dimension {dim} < 2: the edge-graph needs d >= 2")
    n = vertices.shape[0]
    if n < dim + 1:
        raise ValidationError(f"not full-dimensional: {n} vertices in R^{dim} (need >= {dim + 1})")
    if not np.all(np.isfinite(vertices)):
        raise ValidationError("non-finite vertex coordinate")
    scale = float(np.max(np.linalg.norm(vertices, axis=1)))
    if scale == 0.0:
        raise ValidationError("all vertices at the origin")
    eps = tol.geom(scale)
    for i, j in combinations(range(n), 2):
        if np.linalg.norm(vertices[i] - vertices[j]) <= eps:
            raise ValidationError(f"duplicate vertices: {i} and {j}")
    if affine_rank(vertices, eps) < dim:
        raise ValidationError("not full-dimensional: vertices lie in a proper affine subspace")
    planes = supporting_hyperplanes(vertices, eps)
    # origin strictly interior: every facet plane at positive distance from 0
    min_b = min(b for _, b, _, _ in planes)
    if min_b <= eps:
        raise ValidationError("origin not interior")
    # every listed point must be extreme: its incident facet normals span R^d
    for i in range(n):
        normals = np.array([w for w, _, inc, _ in planes if inc[i]])
        if len(normals) < dim or np.linalg.matrix_rank(normals, tol=1e-10) < dim:
            raise ValidationError(f"non-extreme point: vertex {i}")
    normals, incidences = [], []
    for w, b, _, _ in planes:
        u = w / b
        vals = vertices @ u
        if np.any(vals > 1.0 + eps):
            raise DegenerateGeometry("facet normalization failed feasibility")
        inc = vals >= 1.0 - eps
        if np.sum(inc) < dim:
            raise DegenerateGeometry("facet incident to fewer than d vertices")
        if affine_rank(vertices[inc], eps) != dim - 1:
            raise DegenerateGeometry("facet vertices do not span a hyperplane")
        normals.append(u)
        incidences.append(inc)
    return FacetSystem(normals=np.array(normals), incidence=np.array(incidences))


def make_polytope(dim, vertices, name=None, tol: Tolerances = DEFAULT_TOLERANCES,
                  recenter: bool = False) -> Polytope:
    """Build and validate a Polytope from raw coordinates."""
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != dim:
        raise ParseError(f"vertex array has shape {verts.shape}, expected (n, {dim})")
    if recenter:
        verts = verts - verts.mean(axis=0)
    facets = validate_vertices(dim, verts, tol)
    verts.setflags(write=False)
    return Polytope(dim=int(dim), vertices=verts, facets=facets, name=name)


def load_polytope(source, tol: Tolerances = DEFAULT_TOLERANCES, recenter: bool = False) -> Polytope:
    """Load a polytope from a JSON file path or a parsed dict.

    Schema: {"name": str?, "dimension": int, "vertices": [[float,...],...]}.
    """
    if isinstance(source, dict):
        doc = source
    else:
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise ParseError(f"cannot read {source}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document root must be a JSON object")
    if "dimension" not in doc or "vertices" not in doc:
        raise ParseError("document needs 'dimension' and 'vertices' keys")
    dim = doc["dimension"]
    if not isinstance(dim, int) or dim < 1:
        raise ParseError("'dimension' must be a positive integer")
    verts = doc["vertices"]
    if not isinstance(verts, list) or not verts or not all(
            isinstance(v, list) and len(v) == dim for v in verts):
        raise ParseError(f"'vertices' must be a non-empty list of length-{dim} lists")
    try:
        arr = np.asarray(verts, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"non-numeric vertex coordinate: {exc}") from exc
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("'name' must be a string")
    return make_polytope(dim, arr, name=name, tol=tol, recenter=recenter)


# ---------------------------------------------------------------------------
# edge-graph, dual faces (from the facets validation found)

def _is_edge(inc: np.ndarray, i: int, j: int) -> bool:
    """{i, j} is an edge iff some facet holds both and those facets share no third vertex."""
    both = inc[:, i] & inc[:, j]
    return bool(both.any()) and int(inc[both].all(axis=0).sum()) == 2


def edge_graph(poly: Polytope) -> EdgeGraph:
    """Edges are pairs whose smallest common face is the segment itself.

    {i, j} is an edge iff some facet contains both endpoints and the
    vertices incident to every such facet are exactly {i, j}.
    """
    inc = poly.facets.incidence
    edges = tuple((i, j) for i, j in combinations(range(poly.n), 2) if _is_edge(inc, i, j))
    graph = EdgeGraph(poly.n, edges)
    if not graph.is_connected():
        raise DegenerateGeometry("edge-graph not connected")
    mindeg = min(graph.degree(i) for i in range(poly.n))
    if mindeg < poly.dim:
        raise DegenerateGeometry(f"edge-graph min degree {mindeg} < d = {poly.dim}")
    return graph


def dual_edge_face(poly: Polytope, edge, tol: Tolerances = DEFAULT_TOLERANCES) -> DualFace:
    """Dual face of an edge: the dual vertices shared by both endpoints.

    The dual face of {i, j} has dimension d - 2 exactly when {i, j} is an
    edge; for any other pair it is empty or of dimension at most d - 3.
    """
    i, j = sorted(edge)
    inc = poly.facets.incidence
    if not _is_edge(inc, i, j):
        raise DimensionMismatch(
            f"({i},{j}) is not an edge: its dual face has dimension below {poly.dim - 2}")
    points = poly.facets.normals[inc[:, i] & inc[:, j]]
    return DualFace(edge=(i, j), points=points, relvol=relative_volume(points, tol))


# ---------------------------------------------------------------------------
# volumes

def _dedupe_points(pts: np.ndarray, eps: float) -> np.ndarray:
    kept: list[np.ndarray] = []
    for p in pts:
        if all(np.max(np.abs(p - q)) > eps for q in kept):
            kept.append(p)
    return np.array(kept)


def relative_volume(points, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Volume of conv(points) measured inside its own affine hull.

    The set is mapped isometrically onto R^k (k = affine dimension) via an
    orthonormal basis of the affine hull, then the full-dimensional volume
    is computed by fan triangulation over the hull facets from the
    centroid.  A single point has relative volume 1 by convention.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.shape[0] == 0:
        raise ValueError("empty point set")
    scale = float(np.max(np.abs(pts))) if pts.size else 1.0
    eps = tol.geom(max(scale, 1.0))
    centroid, k, vt = _affine_basis(pts, eps)
    if k == 0:
        return 1.0
    flat = (pts - centroid) @ vt[:k].T  # (m, k), isometric image, centred
    return _hull_volume(flat, eps)


def _hull_volume(flat: np.ndarray, eps: float) -> float:
    """Full-dimensional hull volume of centred points in R^k."""
    k = flat.shape[1]
    if k == 1:
        x = flat[:, 0]
        return float(x.max() - x.min())
    total = 0.0
    for _, b, inc, (fc, basis) in supporting_hyperplanes(flat, eps):
        # centroid is the origin, so b is its distance to the facet plane;
        # the facet is projected in the frame its plane was fitted in
        total += b * _hull_volume((flat[inc] - fc) @ basis.T, eps) / k
    return float(total)


def volume_generalized_dual(poly: Polytope, c, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Volume of {x : <x, v_i> <= c_i}, the dual with facets shifted by c.

    Vertex-enumerates the region by intersecting all d-subsets of the n
    constraint hyperplanes and keeping feasible intersection points.  The
    offsets must stay in the trust region |c_i - 1| <= ``tol.dual_trust``
    so the region stays bounded and combinatorially tame.
    """
    c = np.asarray(c, dtype=float)
    n, d = poly.n, poly.dim
    if c.shape != (n,):
        raise ValueError(f"offset vector must have shape ({n},)")
    delta = tol.dual_trust
    if np.any(c < 1.0 - delta - 1e-15) or np.any(c > 1.0 + delta + 1e-15):
        raise Unbounded(f"offsets outside trust region [1-{delta}, 1+{delta}]")
    verts = poly.vertices  # (n, d): rows are constraint normals
    eps = tol.geom(poly.scale)
    subsets = np.array(list(combinations(range(n), d)))
    mats = verts[subsets]                       # (m, d, d)
    rhs = c[subsets]                            # (m, d)
    dets = np.abs(np.linalg.det(mats))
    ok = dets > 1e-12 * max(poly.scale, 1.0) ** d
    if not ok.any():
        raise Unbounded("no non-degenerate constraint intersections")
    sols = np.linalg.solve(mats[ok], rhs[ok][..., None])[..., 0]  # (m', d)
    feas = np.all(verts @ sols.T <= (c[:, None] + eps), axis=0)
    candidates = sols[feas]
    if len(candidates) == 0:
        raise Unbounded("no feasible vertices (offsets outside trust region?)")
    points = _dedupe_points(candidates, eps)
    if affine_rank(points, eps) != d:
        raise Unbounded("dual vertex set is not full-dimensional")
    return relative_volume(points, tol)
