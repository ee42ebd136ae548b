"""Polytope ingestion, facet enumeration, edge-graph and dual-face geometry.

Vertices are the single source of truth; every stage that solves or measures
runs on them at unit scale.  Validation finds the facets once, as the polar
dual's vertices, and the edge-graph is read off their incidence; the
``Polytope`` carries both.  One vertex enumeration (``_vertices``), a walk
over the vertex-edge graph that solves d-subsets only next to the
vertices it finds, serves validation and the shifted duals, which read
every stencil ray off one walk at c = 1.  Volumes are summed over the
face lattice an incidence gives, by the pyramid formula, a level at a
time, in groups of whole polytopes.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations
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

WALKS = 8  # start walks per dimension
BLOCK = 1 << 15  # bounds memory: a walk batch's candidates times d, any other batch's floats over m


def _affine_rank(points: np.ndarray, eps: float) -> np.ndarray:
    """Affine ranks of a (..., k, d) stack: centred singular values above max(eps, 1e-13 smax)."""
    s = np.linalg.svd(points - points.mean(axis=-2, keepdims=True), compute_uv=False)
    return np.sum(s > np.maximum(eps, 1e-13 * s[..., :1]), axis=-1)


def _vertices(normals: np.ndarray, offsets: np.ndarray, eps: float) -> tuple[tuple, bool]:
    """Vertices of {x : normals @ x <= offsets}, each once, with the tight planes.

    A breadth-first walk over the vertex-edge graph, a layer at a time in
    batches of at most BLOCK / d d-subsets (``_solve``), visits the vertices
    and their edges only (Avis & Fukuda 1992): it starts from ``_start``'s
    seeds, and the new vertices' ``_pivots`` give the next layer, a pivot an
    edge.  ``eps`` bounds <a_i, x> - b_i, relative for offsets near 1.  Each
    vertex is then re-solved from the first d-subset of its tight planes
    that solves back to them (``_first_solves``), the bits that solving
    every d-subset in lexicographic order, first solve winning, gives it.
    Returns ``(points, tight, subsets)``, (k, d) points, ``tight[i, p]``
    flagging point p on plane i, its columns sorted (False before True), and
    the (k, d) subsets solved; and ``lost``, true when a pivot solves to no
    vertex, an edge meets no plane or a vertex has fewer than d edges: the
    vertices may be a part only, and the caller names the failure.
    """
    m, d = normals.shape
    lengths, seen, tried = np.linalg.norm(normals, axis=1), set(), set()
    found = [(np.zeros((0, d)), np.zeros((0, m), bool), np.zeros((0, d), np.intp))]
    queue, per, lost = deque([(_start(normals, offsets, eps), False)]), max(1, BLOCK // d), False
    while queue:
        subsets, pivot = queue.popleft()
        if len(subsets) > per:  # a layer goes in batches of ``per`` candidates
            queue.appendleft((subsets[per:], pivot))
            subsets = subsets[:per]
        if pivot:  # each pivot solved once; a seed may not be a vertex, so it is not kept
            if not (fresh := _unseen(subsets.view(np.uint8), tried)):
                continue
            subsets = subsets[fresh]
        hit, x, tight = _solve(normals, lengths, offsets, subsets, eps)
        lost |= pivot and len(hit) < len(subsets)  # an edge that leads to no vertex
        if not (new := _unseen(np.packbits(tight, axis=1), seen)):
            continue
        x, tight, subsets = x[new], tight[new], subsets[hit[new]]
        found.append((x, tight, subsets))
        subsets, gone = _pivots(normals, lengths, offsets, x, tight, subsets, eps)
        lost |= gone
        queue.append((subsets, True))
    x, tight, subsets = map(np.concatenate, zip(*found))
    x, subsets = _first_solves(normals, lengths, offsets, x, tight, subsets, eps)
    order = np.lexsort(np.packbits(tight, axis=1).T[::-1])  # by tight planes, as bytes
    return (x[order], tight[order].T, subsets[order]), lost


def _unseen(bits, seen) -> list:
    """Indices of rows of ``bits`` (uint8) new to ``seen``, which they join; of equals the first."""
    key = np.ascontiguousarray(bits).view(np.dtype((np.void, bits.shape[1])))[:, 0].tolist()
    return [i for i, k in enumerate(key) if k not in seen and not seen.add(k)]


def _solve(normals, lengths, offsets, subsets, eps):
    """Which sorted d-subsets solve to a vertex; their points and tight planes.

    A subset whose determinant is at most 1e-12 of Hadamard's bound (the
    product of its row lengths) is skipped.  Any other is solved at the
    offsets (a row, or one a subset); the solution is a vertex when it is
    feasible within ``eps``, and a plane is tight on it within ``eps``.
    """
    mats = normals[subsets]
    ok = np.flatnonzero(np.abs(np.linalg.det(mats)) > 1e-12 * np.prod(lengths[subsets], axis=1))
    b = np.broadcast_to(offsets, (len(subsets), len(normals)))[ok]
    x = np.linalg.solve(mats[ok], np.take_along_axis(b, subsets[ok], axis=1)[..., None])[..., 0]
    vals = x @ normals.T
    feasible = np.all(vals <= b + eps, axis=1)
    return ok[feasible], x[feasible], vals[feasible] >= b[feasible] - eps


def _start(normals: np.ndarray, offsets: np.ndarray, eps: float):
    """The d-subsets where ray walks from the origin stop, each once: vertices of the region.

    The origin is interior (offsets > 0).  A walk takes d ratio tests: it
    moves along its direction, projected off the planes met so far, to the
    first plane it meets among those not yet tight within ``eps``.  A tight
    plane that was not met holds the face reached, so its normal lies in
    the span of theirs, and the d planes met are independent.  WALKS * d
    walks go along fixed generic directions; many starts shorten the walk.
    """
    d = normals.shape[1]
    generic = _generic(d)
    x, proj, met = np.zeros((len(generic), d)), np.eye(d), []  # proj: off the met planes' normals
    walks = np.arange(len(x))
    for k in range(d):
        u = (proj @ generic[:, k, :, None])[..., 0]
        rise, slack = u @ normals.T, offsets - x @ normals.T
        t = np.divide(slack, rise, where=(rise > 0) & (slack > eps),
                      out=np.full(rise.shape, np.inf))
        met.append(hit := t.argmin(axis=1))
        if k + 1 < d:
            x = x + t[walks, hit, None] * u
            q = proj @ normals[hit, :, None]
            proj = proj - q @ q.swapaxes(1, 2) / (q.swapaxes(1, 2) @ q)
    subsets = np.sort(np.column_stack(met), axis=1)
    return subsets[_unseen(subsets.view(np.uint8), set())]


@cache
def _generic(d: int) -> np.ndarray:
    """Fixed generic directions of the start walks in R^d, [walk, step].

    The sines of 1, 4, 9, 16, ...: a fixed sequence with no linear
    recurrence, in no special position to a polytope's planes, made
    without loading ``numpy.random``.  The walks' ends depend on them; the
    enumeration's output does not, but on a region with distinct vertices
    within ``eps`` of one another, whose edges are not all edges within
    ``eps``, a start may reach one that the walk does not.
    """
    generic = np.sin(np.arange(1.0, WALKS * d ** 3 + 1) ** 2).reshape(WALKS * d, d, d)
    generic.setflags(write=False)
    return generic


@cache
def _combinations(k: int, size: int) -> np.ndarray:
    """The size-subsets of range(k) in lexicographic order, as rows."""
    combos = np.array(list(combinations(range(k), size)), np.intp).reshape(-1, size)
    combos.setflags(write=False)
    return combos


def _local(tight: np.ndarray, size: int, rows: int):
    """Every size-subset of the planes each row of ``tight`` flags, in lexicographic batches.

    Yields (row, subset) arrays, about ``rows`` a batch, the rows of one
    count of planes at a time; within a batch each row's subsets stay in order.
    """
    count = tight.sum(axis=1)
    for k in set(count.tolist()):
        at = np.flatnonzero(count == k)
        planes, combos = np.nonzero(tight[at])[1].reshape(len(at), k), _combinations(k, size)
        for lo in range(0, len(combos), per := max(1, rows // len(at))):
            part = combos[lo:lo + per]
            yield np.repeat(at, len(part)), planes[:, part].reshape(-1, size)


def _first_solves(normals, lengths, offsets, x, tight, subsets, eps):
    """Each vertex's point and subset from the first d-subset of its tight planes that solves back.

    The subsets go in lexicographic order, solved at ``offsets`` (a row, or
    one a vertex).  A vertex found from its first d planes keeps them, as
    does one on exactly d planes; any other is re-solved from a local scan
    of its planes, in batches whose temporaries, (d, d) and m floats a row,
    hold about BLOCK * m floats.
    """
    m, d = normals.shape
    todo = np.any(subsets != np.argsort(~tight, axis=1, kind="stable")[:, :d], axis=1)  # not first
    for v, q in _local(tight & todo[:, None], d, BLOCK * m // (m + d * d)):
        if not todo.any():
            break
        v, q = v[todo[v]], q[todo[v]]
        hit, xs, ts = _solve(normals, lengths, offsets[v] if offsets.ndim > 1 else offsets, q, eps)
        back = np.all(ts == tight[v[hit]], axis=1)
        w, first = np.unique(v[hit[back]], return_index=True)
        x[w], subsets[w], todo[w] = xs[back][first], q[hit[back][first]], False
    return x, subsets


def _pivots(normals, lengths, offsets, x, tight, subsets, eps):
    """The d-subsets one pivot from the vertices reaches, the walk's next layer, and a lost edge.

    An edge of a vertex keeps d - 1 of its tight planes, and a ratio test
    along it over the planes not tight on the vertex finds the first one
    it meets, which joins the d - 1.  On a vertex on exactly d planes the
    edge directions are the columns of the negated inverse, one batched
    inverse for all.  On a vertex on more, each (d - 1)-subset of its planes
    spans a line, and each direction along it on which no tight plane rises
    by more than ``eps`` per unit length is taken.
    """
    d = normals.shape[1]
    slack, size = offsets - x @ normals.T, tight.sum(axis=1)
    simple, cands = size == d, []
    if simple.any():
        # rise[v, i, j]: the rate plane i rises at along the edge leaving plane subsets[v, j]
        rise = -(normals @ np.linalg.inv(normals[subsets[simple]]))
        t = np.divide(slack[simple, :, None], rise, where=(rise > 0) & ~tight[simple, :, None],
                      out=np.full(rise.shape, np.inf))
        hit, ok = t.argmin(axis=1), np.isfinite(t.min(axis=1)).ravel()
        bases = np.where(np.eye(d, dtype=bool), hit[:, :, None], subsets[simple, None])
        cands.append((bases.reshape(-1, d)[ok], not ok.all()))
    if not simple.all():
        cands.append(_nonsimple_pivots(normals, lengths, slack, tight, ~simple, eps))
    bases, lost = zip(*cands)
    return np.sort(np.concatenate(bases), axis=1), any(lost)


def _nonsimple_pivots(normals, lengths, slack, tight, which, eps):
    """``_pivots`` of the vertices ``which`` flags, each on more than d planes.

    The line a (d - 1)-subset spans has the direction of its generalized
    cross product, whose j-th entry is (-1)^j times the minor without
    column j; its length over the product of the row lengths is the
    subset's conditioning, as in the determinant test.  An edge of a vertex
    is known by the tight planes that hold it (rise at most ``eps`` either
    way); many (d - 1)-subsets span it, and the best-conditioned one is
    kept.  A line of no rank (conditioning at most 1e-12) is no edge.  The
    subsets go in batches whose temporaries, d (d - 1)^2 minor entries and m
    floats a row, hold about BLOCK * m floats, as in ``_first_solves``.
    """
    m, d = normals.shape
    minor = _combinations(d, d - 1)[::-1]  # row j: every column but j
    moves = []  # (vertex, direction, kept planes, planes holding it, conditioning)
    for v, kept in _local(tight & which[:, None], d - 1, BLOCK * m // (m + d * (d - 1) ** 2)):
        e = np.linalg.det(normals[kept][:, :, minor].swapaxes(1, 2)) * (-1.0) ** np.arange(d)
        length = np.linalg.norm(e, axis=1)
        conditioning = length / np.prod(lengths[kept], axis=1)
        line = conditioning > 1e-12  # the subset spans a line, by the determinant test's bound
        e = np.divide(e, length[:, None], where=line[:, None], out=np.zeros(e.shape))
        up = np.where(tight[v], (e @ normals.T) / lengths, 0.0)  # each tight plane's rise
        hold = tight[v] & (np.abs(up) <= eps)
        # each line both ways: an edge where no tight plane rises
        edge = np.flatnonzero(np.concatenate([line & np.all(up <= eps, axis=1),
                                              line & np.all(-up <= eps, axis=1)]))
        one = edge % len(v)
        moves.append((v[one], np.where((edge < len(v))[:, None], e[one], -e[one]), kept[one],
                      hold[one], conditioning[one]))
    v, e, kept, hold, conditioning = map(np.concatenate, zip(*moves))
    order = np.argsort(-conditioning, kind="stable")  # each edge's best-conditioned subset first
    key = np.hstack([v[order, None].astype(">u4").view(np.uint8), np.packbits(hold[order], axis=1)])
    best = order[_unseen(key, set())]  # an edge is its vertex and the planes holding it
    v, rise, kept = v[best], e[best] @ normals.T, kept[best]
    few = np.any(np.bincount(v, minlength=len(which))[which] < d)
    t = np.divide(slack[v], rise, where=(rise > 0) & ~tight[v], out=np.full(rise.shape, np.inf))
    ok = np.isfinite(t.min(axis=1))
    return np.column_stack([kept[ok], t.argmin(axis=1)[ok]]), bool(few or not ok.all())


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
    (polar, tight, _), lost = _vertices(vertices - g, np.ones(n), tol.geom_rel)
    if not len(polar):
        raise ValidationError("no facet: every d-subset of the polar's planes is near-singular")
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
    if lost:  # the facets found may be a part only
        raise DegenerateGeometry("facet walk lost an edge: the polar is degenerate within tolerance")
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
    vertices incident to every such facet are exactly {i, j}: of the pairs
    that share a facet, in lexicographic order, one count product against
    the incidence gives each pair's common vertices.  The edge-graph must
    be connected, with minimum degree at least d.
    """
    inc = incidence.astype(float)
    shared = inc.T @ inc                                      # [i, j]: facets holding both
    i, j = np.nonzero(np.triu(shared, 1))                     # row-major: lexicographic pairs
    common = (inc[:, i] * inc[:, j]).T @ inc == shared[i, j][:, None]  # [p, v]: v on them all
    edge = common.sum(axis=1) == 2
    i, j = i[edge], j[edge]
    adjacent = np.zeros(shared.shape, bool)
    adjacent[i, j] = adjacent[j, i] = True
    reached = frontier = np.arange(len(adjacent)) == 0
    while frontier.any():  # breadth-first from vertex 0, one array pass per layer
        frontier = adjacent[frontier].any(axis=0) & ~reached
        reached = reached | frontier
    if not reached.all():
        raise DegenerateGeometry("edge-graph not connected")
    if (mindeg := int(adjacent.sum(axis=0).min())) < dim:
        raise DegenerateGeometry(f"edge-graph min degree {mindeg} < d = {dim}")
    return tuple(zip(i.tolist(), j.tolist()))


def dual_edge_volumes(poly: Polytope) -> list[float]:
    """Relative volumes of the dual faces of the edges of ``poly.unit``, in ``poly.edges`` order.

    The dual face of an edge {i, j} is conv of the facet normals whose
    facets hold both i and j, a (d - 2)-face of the polar dual.  The dual's
    planes are the vertices at offset 1, and facet i is its point on the
    planes of its vertices; all dual faces go to one kernel call.
    """
    inc, (i, j) = poly.incidence, np.array(poly.edges).T
    faces = _lists(*np.nonzero((inc[:, i] & inc[:, j]).T), len(inc))
    return _face_volumes(poly.unit_normals[None], poly.unit, np.ones((1, 1, poly.n)),
                         np.zeros(len(i), np.intp), inc, faces, poly.dim - 2)[0].tolist()


# ---------------------------------------------------------------------------
# volumes, level by level down the face lattice

def _rank(f: np.ndarray) -> np.ndarray:
    """The place of each entry of the sorted ``f`` among its equals."""
    return np.arange(len(f)) - np.searchsorted(f, f)


def _lists(f: np.ndarray, p: np.ndarray, fill: int) -> np.ndarray:
    """Index lists from (face, point) pairs sorted by face: row f its points, then ``fill``."""
    rank = _rank(f)
    lists = np.full((f[-1] + 1, rank.max() + 1), fill)
    lists[f, rank] = p
    return lists


def _face_volumes(points, normals, offsets, types, incidence, faces, k) -> np.ndarray:
    """(S, F) relative volumes of F k-faces, each of one of T polytopes, in each of S sets.

    ``incidence[p, j]`` flags point p, ``points[s, p]`` in set s, on plane
    j.  Row f of ``faces`` lists face f's points, ascending, padded with P;
    it lies in polytope t = ``types[f]``, {x : <normals[j], x> <=
    offsets[s, t, j]}.  Points and simplices are closed-form (Gram
    determinant); any other face Q is a sum of ``_pyramids``, vol_k(Q) =
    (1/k) sum_R h_R vol_{k-1}(R) in ascending plane order (Bueler, Enge &
    Fukuda 2000).  Faces go down the levels in groups of whole polytopes,
    of about BLOCK list entries unless one polytope has more, so memory
    does not grow with T; a group's distinct sub-faces make one call on
    level k - 1.  Dot products are elementwise products and sums, centroids
    ordered sums, so a face's volume has the same bits in any batch.
    """
    n_sets, n_points, d = points.shape
    size, vol = np.sum(faces < n_points, axis=1), np.ones((n_sets, len(faces)))
    simplex, per = size == k + 1, max(1, BLOCK // faces.shape[1])  # per: BLOCK * m flags a block
    rows = np.lexsort((types, simplex))[:np.sum(~simplex)]  # by polytope, simplices last
    group = np.searchsorted(types[rows], types[rows]) // per  # where its polytope's first face is
    for at in (rows[group == g] for g in set(group.tolist())):  # no sub-face is in two groups
        f, j, h, child = _pyramids(points, normals, offsets, types[at], incidence, faces[at],
                                   size[at], k)  # child[pair, q]: point q on the pair's plane
        # the distinct sub-faces, as index lists, one call on the level below
        pair, q = np.nonzero(child)
        child = _lists(pair, faces[at[f[pair]], q], n_points)
        _, first, which = np.unique(child.view(np.dtype((np.void, child[0].nbytes)))[:, 0],
                                    return_index=True, return_inverse=True)
        child, pair, q = child[first], None, None  # free before the level below
        below = _face_volumes(points, normals, offsets, types[at[f[first]]], incidence, child,
                              k - 1)
        # each pyramid sum in ascending plane order
        terms = np.zeros((n_sets, len(at), np.bincount(f).max()))
        terms[:, f, _rank(f)] = h.T * below[:, which]
        vol[:, at] = np.cumsum(terms, axis=2)[:, :, -1] / k
    pts = points[:, faces[simplex, :k + 1]]  # (S, F', k + 1, d)
    rays = pts[:, :, 1:] - pts[:, :, :1]
    vol[:, simplex] = np.sqrt(np.linalg.det(rays @ rays.swapaxes(2, 3))) / factorial(k)
    return vol


def _pyramids(points, normals, offsets, types, incidence, local, size, k):
    """The pyramids over the k-faces ``local``: (face, plane) pairs, heights, members.

    A face Q's sub-faces are the inclusion-maximal non-empty patterns of
    the planes not tight on Q, each from the first plane with it.  A pair's
    (S,) heights h are the distances from Q's vertex centroid c to the plane
    inside aff(Q): (b_j - <a_j, c>) over the length of a_j projected onto
    Q's direction, the complement of the span of Q's tight normals.  Faces
    whose points lie on the same planes, in order, share their pairs and
    denominators.  P pads ``local``: a point on no plane, at the origin.
    """
    d, pad = normals.shape[1], local == points.shape[1]
    centroid = np.where(pad[..., None], 0.0, points[:, at := np.where(pad, 0, local)]).sum(axis=2)
    centroid, cols = centroid / size[:, None], incidence[at] & ~pad[..., None]  # cols: (G, Q, m)
    if share := types.min() < types.max():  # one polytope's faces never share their points' planes
        key = np.packbits(cols, axis=2).reshape(len(local), -1)
        _, rep, inv = np.unique(key.view(np.dtype((np.void, key.shape[1])))[:, 0],
                                return_index=True, return_inverse=True)
        cols, size = cols[rep], size[rep]
    count = cols.sum(axis=1)
    tight = count == size[:, None]
    # sub-faces: the maximal patterns, first plane first, among planes meeting the face
    f, j = np.nonzero((count > 0) & ~tight)
    slot = _rank(f)
    pats = np.zeros((len(cols), slot.max() + 1, local.shape[1]))
    pats[f, slot] = cols[f, :, j]
    sizes = np.zeros(pats.shape[:2])
    sizes[f, slot] = count[f, j]
    inside = pats @ pats.swapaxes(1, 2) == sizes[:, :, None]  # [g, r, s]: pattern r within s
    sub = ~np.any(inside & (sizes[:, None, :] > sizes[:, :, None]), axis=2) \
        & ((inside & inside.swapaxes(1, 2)).argmax(axis=2) == np.arange(pats.shape[1]))
    keep = sub[f, slot]
    f, j = f[keep], j[keep]
    # denominators: Q's direction from an SVD of its tight normals, stacked by their count
    span, ntight = np.zeros((len(cols), d - k, d)), tight.sum(axis=1)
    for t in set(ntight.tolist()):
        rows = np.flatnonzero(ntight == t)
        planes = np.nonzero(tight[rows])[1].reshape(len(rows), t)
        span[rows] = np.linalg.svd(normals[planes])[2][:, :d - k]
    a, span = normals[j], span[f]
    denom = np.linalg.norm(a - ((a[:, None] * span).sum(axis=2)[..., None] * span).sum(axis=1),
                           axis=1)
    member, pair = cols[f, :, j], slice(None)
    if share:  # each face takes its pattern's pairs
        first = np.searchsorted(f, np.arange(len(cols) + 1))
        f = np.repeat(np.arange(len(local)), np.diff(first)[inv])
        pair = first[inv[f]] + _rank(f)
    h = (offsets[:, types[f], j[pair]] - (centroid[:, f] * a[pair]).sum(axis=2)) / denom[pair]
    return f, j[pair], h.T, member[pair]


def _shifted_dual(poly: Polytope, c) -> tuple:
    """The vertices of R rays of S regions {x : <x, v_i> <= c[r, s, i]}, each ray's of one type.

    One ``_vertices`` walk enumerates the region at c = 1, and each ray's
    region 0 is read off it: a vertex keeps its subset, unless it lies on
    more than d planes and the ray moves one.  Then its subsets that hold a
    moved plane give its new pieces, each tight set from its first; the
    rest solve to it, and where it stays it takes the first that solves
    back.  One solve re-solves every vertex at every step of its ray, in
    blocks of BLOCK / S; each must be feasible with exactly its tight
    planes, so the set is complete.  A ray whose region 0 fails, or where a
    piece gains a plane (vertices at c = 1 within its step of one another),
    is walked alone.  Returns the (S, K, d) vertices, ray by ray as
    ``_vertices`` orders them, their (K, n) tight planes, (K, d) subsets
    and (K,) rays.  The first failing ray raises its first failure: leaving
    the trust region |c - 1| <= ``poly.tol.dual_trust`` or a flat region 0
    (both Unbounded), or a lost edge or a re-solve (NumericalInstability).
    """
    n, d, tol = poly.n, poly.dim, poly.tol
    if c.ndim != 3 or c.shape[2] != n:
        raise ValueError(f"offsets must have shape (R, S, {n})")
    delta, eps, lengths = tol.dual_trust, tol.geom_rel, np.linalg.norm(poly.unit, axis=1)
    outside = np.any((c < 1.0 - delta - 1e-15) | (c > 1.0 + delta + 1e-15), axis=(1, 2))
    (x, tight, subsets), lost = _vertices(poly.unit, np.ones(n), eps)
    tight, walk, moved = tight.T, np.full(len(c), lost), c[:, 0] != 1.0  # lost: all walked alone
    split = (moved @ tight.T) & (tight.sum(axis=1) > d)  # [r, v]: v splits on ray r
    (ray, kept), (row, v) = np.nonzero(~split), np.nonzero(split)
    parts = [(ray, subsets[kept], tight[kept])]
    for i, cand in _local(tight[v], d, BLOCK * n // (n + d * d)):
        i, cand = i[new := moved[row[i, None], cand].any(axis=1)], cand[new]  # on a moved plane
        hit, _, on = _solve(poly.unit, lengths, c[row[i], 0], cand, eps)
        walk[row[i[hit][np.any(on & ~tight[v[i[hit]]], axis=1)]]] = True  # a piece gained a plane
        parts.append((row[i[hit]], cand[hit], on))
    still = tight[v] & ~moved[row]
    stays = np.all(x[v] @ poly.unit.T <= c[row, 0] + eps, axis=1) & (still.sum(axis=1) >= d)
    row, v, still = row[stays], v[stays], still[stays]
    parts.append((row, _first_solves(poly.unit, lengths, c[row, 0], x[v], still, subsets[v],
                                     eps)[1], still))
    lost, per = np.zeros(len(c), bool), max(1, BLOCK // c.shape[1])
    for again in (False, True):  # each (ray, tight set) once, kept vertices first, in order
        ray, subsets, tight = map(np.concatenate, zip(*parts))
        key = np.hstack([ray[:, None].astype(">u4").view(np.uint8), np.packbits(tight, axis=1)])
        first = np.unique(key.view(np.dtype((np.void, key.shape[1])))[:, 0], return_index=True)[1]
        ray, subsets, tight = ray[first], subsets[first], tight[first]
        x, bad = np.empty((len(ray), c.shape[1], d)), np.zeros(c.shape[:2], bool)
        for lo in range(0, len(ray), per):  # (vertex, step, n) temporaries of BLOCK * n floats
            b, q = c[ray[lo:lo + per]], subsets[lo:lo + per]
            x[lo:lo + per] = np.linalg.solve(poly.unit[q][:, None], np.take_along_axis(
                b, q[:, None], axis=2)[..., None])[..., 0]
            vals = x[lo:lo + per] @ poly.unit.T
            np.logical_or.at(bad, ray[lo:lo + per], np.any(
                (vals > b + eps) | ((vals >= b - eps) != tight[lo:lo + per, None]), axis=2))
        if again or not (walk := walk | bad[:, 0]).any():
            break
        parts = [(ray[~walk[ray]], subsets[~walk[ray]], tight[~walk[ray]])]
        for r in np.flatnonzero(walk):
            (_, on, q), lost[r] = _vertices(poly.unit, c[r, 0], eps)
            parts.append((np.full(len(q), r), q, on.T))
    sizes = np.bincount(ray, minlength=len(c))
    flat, start = sizes <= d, np.cumsum(sizes) - sizes
    for k in set(sizes[~flat].tolist()):  # one stacked rank per size; a region's size is about 1
        at = np.flatnonzero(sizes == k)
        points = x[start[at, None] + np.arange(k), 0]
        scale = np.linalg.norm(points, axis=2).max(axis=1, keepdims=True)
        flat[at] = _affine_rank(points, tol.geom(scale)) != d
    for r in np.flatnonzero(outside | flat | lost | bad.any(axis=1))[:1]:
        if outside[r]:
            raise Unbounded(f"offsets outside trust region [1-{delta}, 1+{delta}]")
        if flat[r]:
            raise Unbounded("dual vertex set is not full-dimensional")
        if lost[r]:
            raise NumericalInstability("shifted dual's vertex walk lost an edge")
        i = int(np.argmax(np.abs((row := c[r, np.argmax(bad[r])]) - c[r, 0])))
        raise NumericalInstability("shifted dual changed combinatorics inside the stencil: "
                                   f"plane {i} at step {row[i] - 1.0:+.3e}")
    return x.swapaxes(0, 1), tight, subsets, ray


def dual_facet_volumes(poly: Polytope, c) -> np.ndarray:
    """(R, S, n) volumes of the facets F_i, on the planes <x, v_i> = c_rsi, of the shifted duals.

    Shifted dual (r, s) is {x : <x, v_i> <= c_rsi}, the v_i the rows of
    ``poly.unit`` (``_shifted_dual``), and ``F_i`` its face on plane i; the
    facets of every ray, of any type, make one kernel call.  A plane that
    meets the region in less than a facet contributes 0: its points, if any,
    all lie on some other plane too, whereas no other plane holds a facet.
    Divided by |v_i| these are the partial derivatives of its volume in c.
    """
    c = np.asarray(c, dtype=float)
    points, tight, _, ray = _shifted_dual(poly, c)
    p, i = np.nonzero(tight)  # (point, plane) pairs, by point, so by ray
    key, face = np.unique(ray[p] * poly.n + i, return_inverse=True)  # each (ray, plane) met
    faces = _lists(np.sort(face), p[np.argsort(face, kind="stable")], len(ray))
    facet = np.all(np.vstack([tight, np.ones(poly.n, bool)])[faces], axis=1).sum(axis=1) == 1
    (r, i), vol = np.divmod(key[facet], poly.n), np.zeros(c.shape)
    vol[r, :, i] = _face_volumes(points, poly.unit, c.swapaxes(0, 1), r, tight, faces[facet],
                                 poly.dim - 1).T
    return vol
