"""Polytope ingestion, facet enumeration, edge-graph and dual-face geometry.

Vertices are the single source of truth; every stage that solves or measures
runs on them at unit scale.  Validation finds the facets once, as the polar
dual's vertices, and the edge-graph is read off their incidence; the
``Polytope`` carries both.  One vertex enumeration (``_vertices``) serves
validation, with one offset row, and the shifted duals of all stencil rays
in one pass.  Volumes are summed over the face lattice an incidence gives,
by the pyramid formula, a level at a time.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, islice
from math import factorial, frexp
from pathlib import Path

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DegenerateGeometry, NumericalInstability, ParseError, Unbounded, ValidationError


@dataclass(frozen=True, eq=False)
class Polytope:
    """Full-dimensional convex polytope with the origin strictly interior.

    ``vertices`` has shape (n, d); row i is vertex i.  Vertex order is
    contract-bearing: permutations and reconstructed linear maps refer to
    these indices; ``unit`` is them times 2^-``exponent`` (``unit_exponent``).
    Validation of ``unit`` under ``tol``, the polytope's one tolerance
    ledger, finds the facets: ``unit_normals`` (m, d), with <u, x> <= 1 on
    ``unit`` (the polar's vertices), and ``incidence`` (m, n), flagging
    vertex j on facet i.  ``edges`` are the edge-graph their incidence
    fixes, as sorted pairs in lexicographic order.  Every later stage reads
    these fields here.
    """

    vertices: np.ndarray
    unit: np.ndarray
    exponent: int
    unit_normals: np.ndarray
    incidence: np.ndarray
    edges: tuple[tuple[int, int], ...]
    tol: Tolerances
    name: str | None = None

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    @property
    def phi(self) -> np.ndarray:
        """Vertex matrix of shape (d, n): column j is vertex j."""
        return self.vertices.T

    @cached_property
    def normals(self) -> np.ndarray:
        """The facet normals in input units, <u, x> <= 1 on P: ``unit_normals`` / 2^exponent."""
        return np.ldexp(self.unit_normals, -self.exponent)

    @property
    def unit_scale(self) -> float:
        return float(np.linalg.norm(self.unit, axis=1).max())

    @property
    def scale(self) -> float:
        return float(np.ldexp(self.unit_scale, self.exponent))


def unit_exponent(x: np.ndarray) -> int:
    """The k for which max|x| / 2^k lies in [1, 2): scaling by 2^-k is exact and takes no square."""
    return frexp(np.abs(x).max(initial=0.0))[1] - 1


# ---------------------------------------------------------------------------
# polar vertices: one enumeration for the facets and the shifted dual

SUBSET_BLOCK = 1 << 15  # d-subsets per batch of the vertex enumeration; bounds its memory


def _affine_rank(points: np.ndarray, eps: float) -> np.ndarray:
    """Affine ranks of a (..., k, d) stack: centred singular values above max(eps, 1e-13 smax)."""
    s = np.linalg.svd(points - points.mean(axis=-2, keepdims=True), compute_uv=False)
    return np.sum(s > np.maximum(eps, 1e-13 * s[..., :1]), axis=-1)


def _vertices(normals: np.ndarray, offsets: np.ndarray, eps: float) -> list:
    """Vertices of {x : normals @ x <= offsets[r]} for each row r, each once, with the tight planes.

    Every d-subset of the planes is solved, in lexicographic blocks of
    ``SUBSET_BLOCK`` (row, subset) pairs; a subset whose determinant is at
    most 1e-12 of Hadamard's bound (the product of its row lengths) is
    skipped for every row, and each row's solve is its own.  A feasible
    solution is a vertex, known by its tight planes, and the first solve of
    each tight set wins.  ``eps`` bounds <a_i, x> - b_i, so it is relative
    for offsets near 1.  Returns one ``(points, tight, subsets)`` per row:
    points of shape (k, d), ``tight`` of shape (m, k) with ``tight[i, p]``
    flagging point p on plane i, its columns sorted (False before True),
    and the (k, d) subsets the points were solved from.
    """
    m, d = normals.shape
    lengths = np.linalg.norm(normals, axis=1)
    subsets, found, per = combinations(range(m), d), [], max(1, SUBSET_BLOCK // len(offsets))
    while len(block := np.fromiter(chain.from_iterable(islice(subsets, per)),
                                   np.intp).reshape(-1, d)):
        mats = normals[block]                                     # (S, d, d)
        ok = np.abs(np.linalg.det(mats)) > 1e-12 * np.prod(lengths[block], axis=1)
        sols = np.linalg.solve(mats[ok], offsets[:, block[ok], None])[..., 0]  # (R, S', d)
        vals = sols @ normals.T                                   # (R, S', m)
        row, s = np.nonzero(np.all(vals <= offsets[:, None] + eps, axis=2))
        tight = vals[row, s] >= offsets[row] - eps
        # a vertex's key: its row, big-endian so that rows sort first, then its tight planes
        key = np.hstack([row.astype(">u4")[:, None].view(np.uint8), tight.view(np.uint8)])
        key, first = np.unique(key.view(np.dtype((np.void, 4 + m)))[:, 0], return_index=True)
        found.append((key, *(a[first] for a in (row, sols[row, s], tight, block[ok][s]))))
    # a tight set appears at most once per block and row, so its first entry is its first solve
    key, row, *arrays = map(np.concatenate, zip(*found))
    first = np.unique(key, return_index=True)[1]
    cut = np.searchsorted(row[first], np.arange(1, len(offsets)))
    return [(p, t.T, q) for p, t, q in zip(*(np.split(a[first], cut) for a in arrays))]


# ---------------------------------------------------------------------------
# validation and loading

def validate_vertices(dim: int, vertices: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES):
    """Raise ValidationError naming the first violated invariant; else return the facets.

    The facets come as ``(normals, incidence)``, the ``Polytope``'s
    ``unit_normals`` and ``incidence``: each vertex x of the polar of P - g,
    g the vertex centroid, is the facet <x, v> <= 1 + <x, g>, with normal
    x / (1 + <x, g>) and its tight planes as vertices.  Each check is one
    stacked pass: over the facets of each size, and over all vertices.
    """
    if dim < 2:
        raise ValidationError(f"dimension {dim} < 2: the edge-graph needs d >= 2")
    n = vertices.shape[0]
    if n < dim + 1:
        raise ValidationError(f"not full-dimensional: {n} vertices in R^{dim} (need >= {dim + 1})")
    if not np.all(np.isfinite(vertices)):
        raise ValidationError("non-finite vertex coordinate")
    scale = float(np.linalg.norm(vertices, axis=1).max())
    if scale == 0.0:
        raise ValidationError("all vertices at the origin")
    eps = tol.geom(scale)
    close = np.linalg.norm(vertices[:, None] - vertices[None], axis=2) <= eps
    dup = np.argwhere(np.triu(close, 1))  # row-major: the lexicographically first pair leads
    if len(dup):
        raise ValidationError(f"duplicate vertices: {dup[0][0]} and {dup[0][1]}")
    if _affine_rank(vertices, eps) < dim:
        raise ValidationError("not full-dimensional: vertices lie in a proper affine subspace")
    # g is interior, so the polar of P - g is bounded
    g = vertices.mean(axis=0)
    polar, tight, _ = _vertices(vertices - g, np.ones((1, n)), tol.geom_rel)[0]
    # reversed: facets ordered by their sorted vertex index lists
    x, incidence = polar[::-1], np.ascontiguousarray(tight[:, ::-1].T)
    size = incidence.sum(axis=1)  # each facet's vertices span a hyperplane: a stack per size k
    for k in set(size.tolist()):
        facets = vertices[np.nonzero(incidence[size == k])[1].reshape(-1, k)]  # (F, k, d)
        if np.any(_affine_rank(facets, eps) != dim - 1):
            raise DegenerateGeometry("facet vertices do not span a supporting hyperplane")
    # origin strictly interior: every facet plane at positive distance from 0
    b, length = 1.0 + x @ g, np.linalg.norm(x, axis=1)
    if np.min(b / length) <= eps:
        raise ValidationError("origin not interior")
    # every listed point must be extreme: its incident unit normals (the others zeroed) span R^d
    rank = np.linalg.matrix_rank(incidence.T[:, :, None] * (x / length[:, None]), tol=1e-10)
    if np.any(rank < dim):
        raise ValidationError(f"non-extreme point: vertex {np.argmax(rank < dim)}")
    return x / b[:, None], incidence


def make_polytope(dim, vertices, name=None, tol: Tolerances = DEFAULT_TOLERANCES,
                  recenter: bool = False) -> Polytope:
    """Build and validate a Polytope from raw coordinates; it keeps ``tol`` as its ledger.

    It is validated at unit scale; the edges are found once, from its facets.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != dim:
        raise ParseError(f"vertex array has shape {verts.shape}, expected (n, {dim})")
    if recenter:
        verts = verts - verts.mean(axis=0)
    k = unit_exponent(verts)
    unit = np.ldexp(verts, -k)
    normals, incidence = validate_vertices(dim, unit, tol)
    edges = _edges(incidence, dim)
    for arr in (verts, unit):
        arr.setflags(write=False)
    return Polytope(verts, unit, k, normals, incidence, edges, tol, name)


def read_document(source) -> dict:
    """The JSON object in a file, or a parsed dict, after the checks every input document shares.

    Else ParseError: an unreadable file, invalid JSON, a root that is no object, a non-string name.
    """
    if isinstance(source, dict):
        doc = source
    else:
        try:
            data = Path(source).read_bytes()
        except OSError as exc:
            raise ParseError(f"cannot read {source}: {exc}") from exc
        try:
            doc = json.loads(data)
        except ValueError as exc:  # a JSONDecodeError, or bytes that are no UTF-8/16/32 text
            raise ParseError(f"invalid JSON in {source}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document root must be a JSON object")
    if not isinstance(doc.get("name"), (str, type(None))):
        raise ParseError("'name' must be a string")
    return doc


def read_numbers(value, what: str) -> np.ndarray:
    """A non-empty list of equal-length lists of finite JSON numbers as a 2-d float array.

    The one rule for an input number: a bool (an int in Python), a str (numpy parses "1"), NaN,
    Infinity, an int past float range or any other shape raises ParseError "{what}: ...".
    """
    try:
        arr = np.asarray(value, dtype=float)  # first: deep nesting raises, 2-d bounds the walk
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what}: {exc}") from exc
    if not (arr.ndim == 2 and arr.size and np.isfinite(arr).all() and all(
            type(row) is list and all(type(x) in (int, float) for x in row) for row in value)):
        raise ParseError(f"{what}: not a non-empty list of equal-length lists of finite numbers")
    return arr


def load_polytope(source, tol: Tolerances = DEFAULT_TOLERANCES, recenter: bool = False) -> Polytope:
    """Load a polytope from a JSON file path or a parsed dict.

    Schema: {"name": str?, "dimension": int, "vertices": [[float,...],...]}.
    """
    doc = read_document(source)
    if "dimension" not in doc or "vertices" not in doc:
        raise ParseError("document needs 'dimension' and 'vertices' keys")
    dim = doc["dimension"]
    if type(dim) is not int or dim < 1:  # a JSON true is a bool, which is an int
        raise ParseError("'dimension' must be a positive integer")
    arr = read_numbers(doc["vertices"], "non-numeric vertex coordinate")
    return make_polytope(dim, arr, name=doc.get("name"), tol=tol, recenter=recenter)


# ---------------------------------------------------------------------------
# edge-graph, dual faces (from the facets validation found)

def _edges(incidence: np.ndarray, dim: int) -> tuple[tuple[int, int], ...]:
    """Edges are pairs whose smallest common face is the segment itself.

    {i, j} is an edge iff some facet contains both endpoints and the
    vertices incident to every such facet are exactly {i, j}.  The
    edge-graph must be connected, with minimum degree at least d.
    """
    n = incidence.shape[1]
    edges = tuple((i, j) for i, j in combinations(range(n), 2)
                  if (both := incidence[:, i] & incidence[:, j]).any()
                  and incidence[both].all(axis=0).sum() == 2)
    reached, frontier = set(), {0}
    while frontier:  # breadth-first from vertex 0, one pass over the edges per layer
        reached |= frontier
        frontier = {v for e in edges if frontier.intersection(e) for v in e} - reached
    if len(reached) < n:
        raise DegenerateGeometry("edge-graph not connected")
    degree = Counter(v for e in edges for v in e)
    mindeg = min(degree[i] for i in range(n))
    if mindeg < dim:
        raise DegenerateGeometry(f"edge-graph min degree {mindeg} < d = {dim}")
    return edges


def dual_edge_volumes(poly: Polytope) -> list[float]:
    """Relative volumes of the dual faces of the edges of ``poly.unit``, in ``poly.edges`` order.

    The dual face of an edge {i, j} is conv of the facet normals whose
    facets hold both i and j, a (d - 2)-face of the polar dual.  The dual's
    planes are the vertices at offset 1, and its incidence is the facet
    incidence transposed; all dual faces go to one kernel call.
    """
    inc, (i, j) = poly.incidence, np.array(poly.edges).T
    return _face_volumes(poly.unit_normals[None], poly.unit,
                         np.ones((1, poly.n)), inc.T, (inc[:, i] & inc[:, j]).T,
                         poly.dim - 2)[0].tolist()


# ---------------------------------------------------------------------------
# volumes, level by level down the face lattice

def _face_volumes(points, normals, offsets, incidence, faces, k) -> np.ndarray:
    """(S, F) relative volumes of F k-faces of S polytopes of one combinatorial type.

    Polytope s is conv(``points[s]``) = {x : <normals[j], x> <= offsets[s, j]},
    ``incidence[j, p]`` flags point p on plane j, and row f of ``faces``
    flags the points of face f.  Points and simplices are closed-form (Gram
    determinant).  Any other face Q has as sub-faces the inclusion-maximal
    non-empty patterns of the planes not tight on Q, each from the first
    plane with it, and vol_k(Q) = (1/k) sum_R h_R vol_{k-1}(R) in ascending
    plane order (Bueler, Enge & Fukuda 2000), with h_R the distance from
    Q's vertex centroid c to R's plane inside aff(Q): (b_j - <a_j, c>) over
    the length of a_j projected onto Q's direction, the complement of the
    span of Q's tight normals.  The faces of a level are taken at once, and
    their distinct sub-faces make one call on level k - 1.  Dot products
    are elementwise products and sums, centroids ordered sums, so a face's
    volume has the same bits whatever else is in its batch.
    """
    n_sets, n_points, d = points.shape
    size = faces.sum(axis=1)
    vol = np.ones((n_sets, len(faces)))
    if k == 0:
        return vol
    simplex = size == k + 1
    pts = points[:, np.nonzero(faces[simplex])[1].reshape(-1, k + 1)]  # (S, F', k + 1, d)
    rays = pts[:, :, 1:] - pts[:, :, :1]
    vol[:, simplex] = np.sqrt(np.linalg.det(rays @ rays.swapaxes(2, 3))) / factorial(k)
    if simplex.all():
        return vol
    face, size = faces[~simplex], size[~simplex]
    rank = lambda f: np.arange(len(f)) - np.searchsorted(f, f)  # place of each f among equals
    # each face's points, padded with index P: a point off every plane, at the origin
    f, p = np.nonzero(face)
    local = np.full((len(face), size.max()), n_points)
    local[f, rank(f)] = p
    cols = np.vstack([incidence.T, np.zeros(len(normals), bool)])[local]  # (G, Q, m)
    count = cols.sum(axis=1)
    tight = count == size[:, None]
    # sub-faces: the maximal patterns, first plane first, among planes meeting the face
    f, j = np.nonzero((count > 0) & ~tight)
    slot = rank(f)
    pats = np.zeros((len(face), slot.max() + 1, local.shape[1]))
    pats[f, slot] = cols[f, :, j]
    sizes = np.zeros(pats.shape[:2])
    sizes[f, slot] = count[f, j]
    inside = pats @ pats.swapaxes(1, 2) == sizes[:, :, None]  # [g, r, s]: pattern r within s
    sub = ~np.any(inside & (sizes[:, None, :] > sizes[:, :, None]), axis=2) \
        & ((inside & inside.swapaxes(1, 2)).argmax(axis=2) == np.arange(pats.shape[1]))
    keep = sub[f, slot]
    f, j = f[keep], j[keep]
    # denominators: Q's direction from an SVD of its tight normals, stacked by their count
    span, ntight = np.zeros((len(face), d - k, d)), tight.sum(axis=1)
    for t in set(ntight.tolist()):
        rows = np.flatnonzero(ntight == t)
        planes = np.nonzero(tight[rows])[1].reshape(len(rows), t)
        span[rows] = np.linalg.svd(normals[planes])[2][:, :d - k]
    a, span = normals[j], span[f]
    denom = np.linalg.norm(a - ((a[:, None] * span).sum(axis=2)[..., None] * span).sum(axis=1),
                           axis=1)
    # the distinct sub-faces, one call on the level below
    masks = (incidence[j] & face[f]).view(np.dtype((np.void, n_points)))
    children, which = np.unique(masks[:, 0], return_inverse=True)
    below = _face_volumes(points, normals, offsets, incidence,
                          children.view(bool).reshape(-1, n_points), k - 1)
    centroid = np.concatenate([points, np.zeros((n_sets, 1, d))], axis=1)[:, local].sum(axis=2) \
        / size[:, None]
    h = (offsets[:, j] - (centroid[:, f] * a).sum(axis=2)) / denom  # (S, pairs)
    # each pyramid sum in ascending plane order
    terms = np.zeros((n_sets, len(face), np.bincount(f).max()))
    terms[:, f, rank(f)] = h * below[:, which]
    vol[:, ~simplex] = np.cumsum(terms, axis=2)[:, :, -1] / k
    return vol


def _shifted_dual(poly: Polytope, c) -> list:
    """R rays of S regions {x : <x, v_i> <= c[r, s, i]}, each ray's of one type: vertices and tags.

    One ``_vertices`` pass enumerates every ray's region 0, and one batched
    solve re-solves the other regions from the d-subsets of their ray's:
    each must be feasible with exactly its tight planes, so the vertex set
    is complete.  Returns one ``(points, tight)`` per ray, the (S, k, d)
    vertices and ``tight[i, p]``, vertex p on plane i, as ``_face_volumes``
    takes them.  The first failing ray raises its first failure: leaving
    the trust region |c - 1| <= ``poly.tol.dual_trust``, where regions stay
    bounded and tame, or a region 0 not full-dimensional (both Unbounded),
    or a re-solve (NumericalInstability).
    """
    n, d, tol = poly.n, poly.dim, poly.tol
    if c.ndim != 3 or c.shape[2] != n:
        raise ValueError(f"offsets must have shape (R, S, {n})")
    delta, eps = tol.dual_trust, tol.geom_rel
    outside = np.any((c < 1.0 - delta - 1e-15) | (c > 1.0 + delta + 1e-15), axis=(1, 2))
    rays = _vertices(poly.unit, c[:, 0], eps)
    flat = [len(p) <= d or _affine_rank(p, tol.geom(np.linalg.norm(p, axis=1).max())) != d
            for p, _, _ in rays]  # a region's size is about 1
    sizes = [len(p) for p, _, _ in rays]
    tight, subsets = np.hstack([t for _, t, _ in rays]), np.vstack([q for *_, q in rays])
    b = c[ray := np.repeat(np.arange(len(c)), sizes), 1:]        # (K, S - 1, n)
    x = np.linalg.solve(poly.unit[subsets][:, None],
                        np.take_along_axis(b, subsets[:, None], axis=2)[..., None])[..., 0]
    vals, bad = x @ poly.unit.T, np.zeros((len(c), c.shape[1] - 1), bool)
    np.logical_or.at(bad, ray, np.any((vals > b + eps) | ((vals >= b - eps) != tight.T[:, None]),
                                      axis=2))
    for r in np.flatnonzero(outside | flat | bad.any(axis=1))[:1]:
        if outside[r]:
            raise Unbounded(f"offsets outside trust region [1-{delta}, 1+{delta}]")
        if flat[r]:
            raise Unbounded("dual vertex set is not full-dimensional")
        i = int(np.argmax(np.abs((row := c[r, 1 + np.argmax(bad[r])]) - c[r, 0])))
        raise NumericalInstability("shifted dual changed combinatorics inside the stencil: "
                                   f"plane {i} at step {row[i] - 1.0:+.3e}")
    return [(np.concatenate([points[None], x.swapaxes(0, 1)]), tight)
            for (points, tight, _), x in zip(rays, np.split(x, np.cumsum(sizes)[:-1]))]


def dual_facet_volumes(poly: Polytope, c) -> np.ndarray:
    """(R, S, n) volumes of the facets F_i, on the planes <x, v_i> = c_rsi, of the shifted duals.

    Shifted dual (r, s) is {x : <x, v_i> <= c_rsi}, the v_i the rows of
    ``poly.unit``; a ray's S regions are of one type (``_shifted_dual``), and
    ``F_i`` is the face of a region's lattice on plane i.  The rays of one
    type, one ``tight``, make one kernel call, stacked on its S axis; a
    face's bits do not depend on its batch.  A plane that meets the region
    in less than a facet contributes 0: its points, if any, all lie on some
    other plane too, whereas no other plane holds a facet.  Divided by
    |v_i| these are the partial derivatives of the region's volume in c.
    """
    c = np.asarray(c, dtype=float)
    rays, types, vol = _shifted_dual(poly, c), {}, np.zeros(c.shape)
    for r, (_, tight) in enumerate(rays):
        types.setdefault(tight.tobytes(), []).append(r)
    for group in types.values():
        counts = (tight := rays[group[0]][1]).astype(float)  # [i, j] below: plane i's points on j
        facet = (counts @ counts.T == tight.sum(axis=1)[:, None]).sum(axis=1) == 1
        vol[np.ix_(group, range(c.shape[1]), facet)] = _face_volumes(
            np.concatenate([rays[r][0] for r in group]), poly.unit, c[group].reshape(-1, poly.n),
            tight, tight[facet], poly.dim - 1).reshape(len(group), c.shape[1], -1)
    return vol
