"""Test-only helpers: checks, views and routines that no pipeline stage needs.

Most are definition-level restatements of something the package does in
bulk (lifting, group membership, orbits, refinement), kept here so the
tests can compare the two.  The rest (complete-graph Gram colorings,
relative and shifted-dual volumes, dual-edge faces) are independent
cross-checks that no stage or CLI command calls.  The fixtures are
loaded here by name from fixtures/*.json, their only source.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from itertools import chain, combinations, islice, product
from pathlib import Path

import numpy as np

from polysym import geometry
from polysym.autgroup import PermutationSet, _neighbor_table, _refine, compose
from polysym.cli import _emit
from polysym.colorings import Coloring, orbit_coloring, quantize
from polysym.config import DEFAULT_TOLERANCES, Tolerances
from polysym.errors import DomainMismatch, NotAGroup, ValidationError
from polysym.geometry import Polytope, load_polytope, make_polytope
from polysym.oracle import brute_force_group
from polysym.reconstruct import MatrixGroup, pseudo_inverse


# ---------------------------------------------------------------------------
# reports

def written(doc) -> str:
    """The bytes the CLI writes for a report document: the stdout of ``cli._emit(doc)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(doc)
    return out.getvalue()


def read_back(doc):
    """A report document as a reader of the CLI's stdout sees it."""
    return json.loads(written(doc))


# ---------------------------------------------------------------------------
# graphs and permutations

def complete_edges(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(n), 2))


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    return a


def perm_matrix(p) -> np.ndarray:
    """1 in row p[j], column j: column j of phi @ Pi is vertex p[j]."""
    n = len(p)
    mat = np.zeros((n, n))
    mat[list(p), range(n)] = 1.0
    return mat


def orbits(group: PermutationSet, edges):
    """Vertex orbits and edge orbits of a permutation group, by min element."""
    col = orbit_coloring(group.n, edges, group)
    return (tuple(map(tuple, col.vertex_classes())),
            tuple(tuple(orbit) for orbit in col.edge_classes()))


# ---------------------------------------------------------------------------
# colorings

def color_refinement(col: Coloring) -> tuple:
    """Stable vertex partition of the colored graph (dense class ids)."""
    return _refine(col.n, _neighbor_table(col), col.vertex)


def is_finer(c1: Coloring, c2: Coloring) -> bool:
    """True iff c1's classes refine c2's, on vertices and on edges."""
    if c1.n != c2.n or set(c1.edge) != set(c2.edge):
        raise DomainMismatch("colorings on different graphs")
    vmap = {}
    for a, b in zip(c1.vertex, c2.vertex):
        if vmap.setdefault(a, b) != b:
            return False
    emap = {}
    for e, a in c1.edge.items():
        if emap.setdefault(a, c2.edge[e]) != c2.edge[e]:
            return False
    return True


def complete_metric(poly: Polytope, variant: str) -> Coloring:
    """Coloring of the complete graph K_n from a vertex Gram matrix.

    variant "orthogonal" uses phi.T @ phi (plain inner products); variant
    "linear" uses pinv(phi) @ phi, which is invariant under invertible
    linear maps of the polytope.  Diagonal entries color the vertices,
    off-diagonal entries color every vertex pair.  An independent
    cross-check of the edge-graph colorings.
    """
    phi = poly.phi
    if variant == "orthogonal":
        gram = phi.T @ phi
    elif variant == "linear":
        gram = phi.T @ np.linalg.solve(phi @ phi.T, phi)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    n = poly.n
    vvals = [float(gram[i, i]) for i in range(n)]
    evals = {(i, j): float(gram[i, j]) for i, j in combinations(range(n), 2)}
    return quantize(vvals, evals, poly.tol)


def colored_adjacency(col: Coloring) -> np.ndarray:
    """Integer matrix carrying class ids: vertex ids on the diagonal, edge ids shifted apart."""
    n = col.n
    a = np.zeros((n, n), dtype=int)
    for i in range(n):
        a[i, i] = col.vertex[i] + 1
    shift = col.num_vertex_classes + 1
    for (i, j), c in col.edge.items():
        a[i, j] = a[j, i] = c + shift
    return a


# ---------------------------------------------------------------------------
# lifted maps and matrix groups

def frame(phi: np.ndarray) -> MatrixGroup:
    """The bare frame that lifts permutations of phi's columns, under the default ledger."""
    phi = np.asarray(phi, dtype=float)
    return MatrixGroup(None, phi, pseudo_inverse(phi), DEFAULT_TOLERANCES)


def linear_map_from_perm(phi: np.ndarray, perm) -> np.ndarray:
    """The candidate map sending vertex j to vertex perm[j] on the whole space."""
    return frame(phi).lift([perm])[0][0]


def check_realizes(t: np.ndarray, perm, phi: np.ndarray, eps: float) -> bool:
    """True iff t maps every vertex j onto vertex perm[j], relatively to its norm."""
    target = phi[:, [int(x) for x in perm]]
    err = np.linalg.norm(t @ phi - target, axis=0)
    return bool(np.all(err <= eps * np.linalg.norm(target, axis=0)))


def is_orthogonal(t: np.ndarray, eps: float) -> bool:
    """True iff max|t^T t - I| <= eps, for one map."""
    return bool(np.max(np.abs(t.T @ t - np.eye(t.shape[0]))) <= eps)


def member_maps(group: MatrixGroup) -> dict:
    """perm -> the map realizing it, for every member, lifted in one batch."""
    perms = group.perm_group.perms
    return dict(zip(perms, group.lift(perms)[0]))


def verify_homomorphism(group: MatrixGroup, eps: float) -> bool:
    """Check t(p) @ t(q) == t(p*q) for all pairs; the perm map is injective."""
    maps = member_maps(group)
    return all((r := compose(p, q)) in maps
               and np.max(np.abs(tp @ tq - maps[r])) <= eps
               for p, tp in maps.items() for q, tq in maps.items())


def realized_but_not_a_group(phi: np.ndarray, candidates) -> bool:
    """True iff every candidate is an orthogonal symmetry of phi's points, yet the
    oracle's closure check rejects them: brute_force_group raises NotAGroup."""
    if not frame(phi).check(candidates, "orthogonal")[1].all():
        return False
    try:
        brute_force_group(phi, candidates=candidates, flavor="orthogonal")
    except NotAGroup:
        return True
    return False


@dataclass(frozen=True)
class ComparisonReport:
    equal: bool
    order_a: int
    order_b: int
    only_in_a: tuple
    only_in_b: tuple
    max_matrix_diff: float


def compare_groups(a: MatrixGroup, b: MatrixGroup) -> ComparisonReport:
    """Set comparison of the permutation parts plus matrix agreement on overlap."""
    ma, mb = member_maps(a), member_maps(b)
    pa, pb = set(ma), set(mb)
    diff = max((float(np.max(np.abs(ma[p] - mb[p]))) for p in pa & pb), default=0.0)
    return ComparisonReport(
        equal=(pa == pb),
        order_a=a.order,
        order_b=b.order,
        only_in_a=tuple(sorted(pa - pb)),
        only_in_b=tuple(sorted(pb - pa)),
        max_matrix_diff=diff,
    )


# ---------------------------------------------------------------------------
# the fixtures: fixtures/*.json are their only source

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "fixtures"


def _fixture(name: str):
    return lambda: load_polytope(FIXTURE_DIR / f"{name}.json")


# the thirteen acceptance polytopes, in report order: name -> loader
FIXTURES = {name: _fixture(name) for name in (
    "triangle", "square", "rectangle", "hexagon", "stretched_hexagon", "perturbed_hexagon",
    "simplex2", "simplex3", "simplex4", "cube", "octahedron", "prism3", "cyclic4_6")}


def k44_embedding() -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """The cross-pattern embedding of K_{4,4} into R^4: its (8, 4) coordinates and its edges."""
    doc = json.loads((FIXTURE_DIR / "k44_embedding.json").read_text())
    return np.array(doc["vertices"], dtype=float), tuple(map(tuple, doc["edges"]))


# ---------------------------------------------------------------------------
# polytopes beyond the fixtures, and the face lattice

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


def cross_polytope(d: int) -> Polytope:
    e = np.eye(d)
    return make_polytope(d, np.vstack([e, -e]), name=f"cross{d}")


def hypercube(d: int) -> Polytope:
    return make_polytope(d, np.array(list(product((1.0, -1.0), repeat=d))), name=f"cube{d}")


def cell24() -> np.ndarray:
    """The 24-cell's (24, 4) vertices, the permutations of (+-1, +-1, 0, 0), in sorted order."""
    return np.array(sorted({tuple(s if k == i else t if k == j else 0.0 for k in range(4))
                            for i, j in combinations(range(4), 2)
                            for s, t in product((1.0, -1.0), repeat=2)}))


def capped_prism() -> Polytope:
    """Triangular prism with a pyramid on each square face: 9 vertices, D3h (order 12)."""
    angles = 2 * np.pi * np.arange(3) / 3
    prism = [[np.cos(a), np.sin(a), z] for z in (1.0, -1.0) for a in angles]
    caps = [[1.2 * np.cos(a + np.pi / 3), 1.2 * np.sin(a + np.pi / 3), 0.0] for a in angles]
    return make_polytope(3, np.array(prism + caps), name="capped_prism")


def sphere_polytope(n: int, d: int, seed: int) -> Polytope:
    """n uniform points on the unit sphere in R^d, redrawn until they validate as a polytope."""
    rng = np.random.default_rng(seed)
    while True:
        pts = rng.standard_normal((n, d))
        try:
            return make_polytope(d, pts / np.linalg.norm(pts, axis=1, keepdims=True))
        except ValidationError:
            continue


def lattice_faces(calls) -> list:
    """The faces ``geometry._face_volumes`` evaluated, from the argument tuples of its calls.

    One ``(k, mask bytes)`` pair per row of a call's ``faces``, call by call.
    """
    return [(k, face.tobytes()) for *_, faces, k in calls for face in faces]


# ---------------------------------------------------------------------------
# volumes that no pipeline stage needs, from the routines the stages share;
# read off the module at call time, so a test's monkeypatch reaches them

@dataclass(frozen=True, eq=False)
class DualFace:
    """Dual-polytope face attached to an edge: its vertices and relative volume."""

    edge: tuple[int, int]
    points: np.ndarray  # (k, d) dual vertices incident to both endpoints
    relvol: float


def dual_edge_face(poly: Polytope, edge) -> DualFace:
    """Dual face of an edge: the dual vertices shared by both endpoints, and its volume.

    The volume is the one ``geometry.dual_edge_volumes`` gives at the edge's
    place in ``poly.edges``; a pair that is not an edge raises KeyError.
    """
    i, j = sorted(edge)
    inc = poly.incidence
    relvol = dict(zip(poly.edges, geometry.dual_edge_volumes(poly)))[(i, j)]
    return DualFace(edge=(i, j), points=poly.normals[inc[:, i] & inc[:, j]],
                    relvol=relvol)


def scan_vertices(normals: np.ndarray, offsets: np.ndarray, eps: float, block: int = 1 << 15):
    """The reference for ``geometry._vertices``: every d-subset of the planes solved, for each row.

    The subsets go in lexicographic blocks of ``block`` (row, subset) pairs;
    a subset whose determinant is at most 1e-12 of Hadamard's bound (the
    product of its row lengths) is skipped for every row, and each row's
    solve is its own.  A feasible solution is a vertex, known by its tight
    planes, and the first solve of each tight set wins.  Returns what
    ``geometry._vertices`` returns: one ``(points, tight, subsets)`` per row.
    """
    m, d = normals.shape
    lengths = np.linalg.norm(normals, axis=1)
    subsets, found, per = combinations(range(m), d), [], max(1, block // len(offsets))
    while len(chunk := np.fromiter(chain.from_iterable(islice(subsets, per)),
                                   np.intp).reshape(-1, d)):
        mats = normals[chunk]                                     # (S, d, d)
        ok = np.abs(np.linalg.det(mats)) > 1e-12 * np.prod(lengths[chunk], axis=1)
        sols = np.linalg.solve(mats[ok], offsets[:, chunk[ok], None])[..., 0]  # (R, S', d)
        vals = sols @ normals.T                                   # (R, S', m)
        row, s = np.nonzero(np.all(vals <= offsets[:, None] + eps, axis=2))
        tight = vals[row, s] >= offsets[row] - eps
        # a vertex's key: its row, big-endian so that rows sort first, then its tight planes
        key = np.hstack([row.astype(">u4")[:, None].view(np.uint8), tight.view(np.uint8)])
        key, first = np.unique(key.view(np.dtype((np.void, 4 + m)))[:, 0], return_index=True)
        found.append((key, *(a[first] for a in (row, sols[row, s], tight, chunk[ok][s]))))
    # a tight set appears at most once per block and row, so its first entry is its first solve
    key, row, *arrays = map(np.concatenate, zip(*found))
    first = np.unique(key, return_index=True)[1]
    cut = np.searchsorted(row[first], np.arange(1, len(offsets)))
    return [(p, t.T, q) for p, t, q in zip(*(np.split(a[first], cut) for a in arrays))]


def loop_validation_error(unit: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES):
    """The message of validation's first failing rank check on unit-scale vertices, or None.

    The reference for ``geometry.validate_vertices``'s stacked passes: the
    affine rank of all vertices, then of each facet's vertices, then the
    origin's distance to each facet plane, then the rank of each vertex's
    incident unit normals, one point set at a time, each at validation's
    threshold.
    """
    n, d = unit.shape
    eps = tol.geom(np.linalg.norm(unit, axis=1).max())

    def affine_rank(pts):
        s = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        return np.sum(s > max(eps, 1e-13 * s[0]))

    if affine_rank(unit) < d:
        return "not full-dimensional: vertices lie in a proper affine subspace"
    g = unit.mean(axis=0)
    [(x, tight, _)], lost = geometry._vertices(unit - g, np.ones((1, n)), tol.geom_rel)
    if any(affine_rank(unit[on]) != d - 1 for on in tight.T):
        return "facet vertices do not span a supporting hyperplane"
    if any((1.0 + p @ g) / np.linalg.norm(p) <= eps for p in x):
        return "origin not interior"
    w = x / np.linalg.norm(x, axis=1)[:, None]
    for i in range(n):
        if tight[i].sum() < d or np.linalg.matrix_rank(w[tight[i]], tol=1e-10) < d:
            return f"non-extreme point: vertex {i}"
    if lost[0]:
        return "facet walk lost an edge: the polar is degenerate within tolerance"
    return None


def relative_volume(points, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Volume of conv(points) measured inside its own affine hull.

    The set is mapped isometrically onto R^k (k = affine dimension) via an
    orthonormal basis of the affine hull, centred at its centroid.  The
    vertices of the polar there are the facets, and the volume is summed
    over the face lattice they cut out.  A single point has relative
    volume 1 by convention.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.shape[0] == 0:
        raise ValueError("empty point set")
    scale = float(np.max(np.abs(pts))) if pts.size else 1.0
    eps = tol.geom(scale)
    centred, k = pts - pts.mean(axis=0), int(geometry._affine_rank(pts, eps))
    flat = centred @ np.linalg.svd(centred)[2][:k].T  # (m, k), isometric image, centred
    if k <= 1:
        return 1.0 if k == 0 else float(np.ptp(flat))
    [(polar, tight, _)], lost = geometry._vertices(flat, np.ones((1, len(flat))), tol.geom_rel)
    assert not lost.any()
    return float(geometry._face_volumes(flat[None], polar, np.ones((1, len(polar))), tight.T,
                                        np.ones((1, len(flat)), dtype=bool), k)[0, 0])


def volume_generalized_dual(poly: Polytope, c) -> float:
    """Volume of {x : <x, v_i> <= c_i}, the dual with facets shifted by c.

    The volume is summed over the face lattice of the region's vertices,
    found as in ``geometry._shifted_dual`` for the unit-scale vertices
    ``poly.unit``, and brought back to input units, where it is 2^(-kd)
    times the unit-scale one, k = ``poly.exponent``; the offsets must stay
    in the trust region.
    """
    c = np.asarray(c, dtype=float)[None]
    [(points, tight)] = geometry._shifted_dual(poly, c[None])
    vol = geometry._face_volumes(points, poly.unit, c, tight,
                                 np.ones((1, tight.shape[1]), dtype=bool), poly.dim)[0, 0]
    return float(np.ldexp(vol, -poly.exponent * poly.dim))


def fd_raw_hessians(poly: Polytope) -> list[np.ndarray]:
    """The FD oracle's raw Hessians at steps h, h/2 and h/4, one shifted dual per stencil point.

    A reference for ``izmestiev._raw_hessians``: each of the 6n offset
    vectors gets its own vertex enumeration and volume kernel call, with
    no re-solve.  Like it, it differentiates the dual volume of the
    unit-scale vertices ``poly.unit``.
    """
    norms = np.linalg.norm(poly.unit, axis=1)
    grad = lambda c: geometry.dual_facet_volumes(poly, c[None, None])[0, 0] / norms
    base = np.ones(poly.n)
    return [np.column_stack([(grad(base + ei) - grad(base - ei)) / (2.0 * hh)
                             for ei in hh * np.eye(poly.n)])
            for hh in (poly.tol.fd_step / 2 ** k for k in range(3))]
