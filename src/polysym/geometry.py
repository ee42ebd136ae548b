"""Polytope ingestion, facet enumeration, edge-graph and dual-face geometry.

Vertices are the single source of truth; every stage that solves or measures
runs on them at unit scale.  Validation finds the facets once, as the polar
dual's vertices, and the edge-graph is read off their incidence; the
``Polytope`` carries both.  One vertex enumeration (``_vertices``), a walk
over the vertex-edge graph that solves d-subsets only next to the
vertices it finds, serves validation, with one offset row, and the
shifted duals of all stencil rays at once.  Volumes are summed over the
face lattice an incidence gives, by the pyramid formula, a level at a
time.
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

WALKS = 8  # start walks on the first offset row, per dimension
BLOCK = 1 << 15  # candidates times d a batch, or a local scan's floats over m; bounds memory


def _affine_rank(points: np.ndarray, eps: float) -> np.ndarray:
    """Affine ranks of a (..., k, d) stack: centred singular values above max(eps, 1e-13 smax)."""
    s = np.linalg.svd(points - points.mean(axis=-2, keepdims=True), compute_uv=False)
    return np.sum(s > np.maximum(eps, 1e-13 * s[..., :1]), axis=-1)


def _vertices(normals: np.ndarray, offsets: np.ndarray, eps: float) -> tuple[list, np.ndarray]:
    """Vertices of {x : normals @ x <= offsets[r]} for each row r, each once, with the tight planes.

    A breadth-first walk over each row's vertex-edge graph, one layer of
    every row at a time in batches of at most BLOCK / d candidates, visits
    the vertices and their edges only (Avis & Fukuda 1992).  Each step
    solves (row, d-subset) candidates (``_solve``); a feasible solve is a
    vertex, known by its row and its tight planes.  The walk starts from
    ``_start``'s seeds, which need not be vertices, and the new vertices'
    ``_pivots`` give the next layer, each pivot one edge.  ``eps`` bounds
    <a_i, x> - b_i, so it is relative for offsets near 1.  At the end each
    vertex is re-solved from the lexicographically first d-subset of its
    tight planes that solves back to them (``_first_solves``), so it keeps
    the bits that solving every d-subset in lexicographic order, first
    solve winning, gives it.
    Returns one ``(points, tight, subsets)`` per row: points of shape (k, d),
    ``tight`` of shape (m, k) with ``tight[i, p]`` flagging point p on
    plane i, its columns sorted (False before True), and the (k, d)
    subsets the points were solved from; and ``lost``, flagging the rows
    whose walk lost an edge: a pivot that solves to no vertex, an edge that
    meets no plane, or a vertex with fewer than d edges.  Such a row's
    vertices may be a part only, and the caller names the failure.
    """
    m, d = normals.shape
    lengths, seen, tried, keys = np.linalg.norm(normals, axis=1), set(), set(), []
    found = [(np.zeros(0, np.intp), np.zeros((0, d)), np.zeros((0, m), bool),
              np.zeros((0, d), np.intp))]
    queue, per = deque([(*_start(normals, offsets, eps), False)]), max(1, BLOCK // d)
    lost = np.zeros(len(offsets), bool)
    while queue:
        row, subsets, pivot = queue.popleft()
        if len(row) > per:  # a layer goes in batches of ``per`` candidates
            queue.appendleft((row[per:], subsets[per:], pivot))
            row, subsets = row[:per], subsets[:per]
        if pivot:  # each pivot solved once; a seed may not be a vertex, so it is not kept
            if not (fresh := _unseen(row, subsets.view(np.uint8), tried)):
                continue
            row, subsets = row[fresh], subsets[fresh]
        hit, x, tight = _solve(normals, lengths, offsets, row, subsets, eps)
        if pivot:  # an edge that leads to no vertex
            lost[np.delete(row, hit)] = True
        if not (new := _unseen(row[hit], np.packbits(tight, axis=1), seen, keys)):
            continue
        row, x, tight, subsets = row[hit[new]], x[new], tight[new], subsets[hit[new]]
        found.append((row, x, tight, subsets))
        row, subsets, gone = _pivots(normals, lengths, offsets, row, x, tight, subsets, eps)
        lost[gone] = True
        queue.append((row, subsets, True))
    row, x, tight, subsets = map(np.concatenate, zip(*found))
    arrays = (*_first_solves(normals, lengths, offsets, row, x, tight, subsets, eps), tight)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    points, subsets, tight = (a[order] for a in arrays)
    cut = np.searchsorted(row[order], np.arange(len(offsets) + 1)).tolist()
    return [(points[lo:hi], tight[lo:hi].T, subsets[lo:hi]) for lo, hi in zip(cut, cut[1:])], lost


def _unseen(row, bits, seen, keys=None) -> list:
    """Indices of the rows of ``bits`` (uint8) whose key, with their row, is not in ``seen`` yet.

    Each new key is added to ``seen``, and to ``keys`` if given, in order; of
    equal keys the first counts.  A key is the row, big-endian, then the bits,
    so keys sort by row first.
    """
    key = np.concatenate([row.astype(">u4")[:, None].view(np.uint8), bits], axis=1)
    key = key.view(np.dtype((np.void, key.shape[1])))[:, 0].tolist()
    new = [i for i, k in enumerate(key) if k not in seen and not seen.add(k)]
    if keys is not None:
        keys.extend(key[i] for i in new)
    return new


def _solve(normals, lengths, offsets, row, subsets, eps):
    """Which (row, sorted d-subset) candidates solve to a vertex; their points and tight planes.

    A subset whose determinant is at most 1e-12 of Hadamard's bound (the
    product of its row lengths) is skipped.  Any other is solved at its
    row's offsets; the solution is a vertex when it is feasible within
    ``eps``, and a plane is tight on it within ``eps`` of its offset.
    """
    mats = normals[subsets]
    ok = np.flatnonzero(np.abs(np.linalg.det(mats)) > 1e-12 * np.prod(lengths[subsets], axis=1))
    row, subsets = row[ok], subsets[ok]
    x = np.linalg.solve(mats[ok], offsets[row[:, None], subsets, None])[..., 0]
    vals, b = x @ normals.T, offsets[row]
    feasible = np.all(vals <= b + eps, axis=1)
    return ok[feasible], x[feasible], vals[feasible] >= b[feasible] - eps


def _start(normals: np.ndarray, offsets: np.ndarray, eps: float):
    """(row, d-subset) candidates where ray walks from the origin stop: vertices of their rows.

    The origin is interior (offsets > 0).  A walk takes d ratio tests: it
    moves along its direction, projected off the planes met so far, to the
    first plane it meets among those not yet tight within ``eps``.  A tight
    plane that was not met holds the face reached, so its normal lies in
    the span of theirs, and the d planes met are independent.  Each row
    takes one walk; row 0 takes WALKS * d, along fixed generic directions,
    and their subsets are every row's candidates too: the rows of one call
    (a stencil's) are near one another, and many starts shorten the walk.
    The walks' own subsets are vertices of their rows; a seed in another
    row may not be, and ``_solve`` drops it then: a seed is no edge.
    """
    d, rows = normals.shape[1], len(offsets)
    generic = _generic(d)
    row = np.concatenate([np.arange(rows), np.zeros(len(generic) - 1, np.intp)])
    steps = np.concatenate([np.broadcast_to(generic[0], (rows, d, d)), generic[1:]])
    walks, b = np.arange(len(row)), offsets[row]
    x, proj, met = np.zeros((len(row), d)), np.eye(d), []  # proj: off the met planes' normals
    for k in range(d):
        u = (proj @ steps[:, k, :, None])[..., 0]
        rise, slack = u @ normals.T, b - x @ normals.T
        t = np.divide(slack, rise, where=(rise > 0) & (slack > eps),
                      out=np.full(rise.shape, np.inf))
        met.append(hit := t.argmin(axis=1))
        if k + 1 < d:
            x = x + t[walks, hit, None] * u
            q = proj @ normals[hit, :, None]
            proj = proj - q @ q.swapaxes(1, 2) / (q.swapaxes(1, 2) @ q)
    subsets = np.sort(np.column_stack(met), axis=1)
    seeds = np.concatenate([subsets[:1], subsets[rows:]])  # row 0's, each once
    seeds = seeds[_unseen(np.zeros(len(seeds), np.intp), seeds.view(np.uint8), set())]
    return (np.concatenate([np.arange(rows), np.repeat(np.arange(rows), len(seeds))]),
            np.concatenate([subsets[:rows], np.tile(seeds, (rows, 1))]))


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


def _local(planes: np.ndarray, size: int, rows: int):
    """Every size-subset of each row of ``planes``, in lexicographic batches of about ``rows``.

    Yields (row of ``planes``, subset) arrays; within a batch each row's subsets stay in order.
    """
    combos = _combinations(planes.shape[1], size)
    per = max(1, rows // len(planes))
    for lo in range(0, len(combos), per):
        part = combos[lo:lo + per]
        yield np.repeat(np.arange(len(planes)), len(part)), planes[:, part].reshape(-1, size)


def _first_solves(normals, lengths, offsets, row, x, tight, subsets, eps):
    """Each vertex's point and subset from the lexicographically first d-subset of its tight planes
    that solves back to them.

    A vertex on exactly d planes has one such subset, the one it was found
    from, and so has a vertex found from its first d planes.  Any other is
    re-solved from a local scan of its planes, in batches whose
    temporaries, (d, d) and m floats a row, hold about BLOCK * m floats,
    as the (row, m) values of one block of a scan of every subset did.
    """
    m, d = normals.shape
    size = tight.sum(axis=1)
    for k in set(size[size > d].tolist()):
        at = np.flatnonzero(size == k)
        planes = np.nonzero(tight[at])[1].reshape(-1, k)
        done = np.all(subsets[at] == planes[:, :d], axis=1)  # found from the first subset
        for v, cand in _local(planes, d, BLOCK * m // (m + d * d)):
            if done.all():
                break
            v, cand = v[~done[v]], cand[~done[v]]
            hit, xs, ts = _solve(normals, lengths, offsets, row[at[v]], cand, eps)
            back = np.all(ts == tight[at[v[hit]]], axis=1)
            w, first = np.unique(v[hit[back]], return_index=True)
            x[at[w]], subsets[at[w]] = xs[back][first], cand[hit[back][first]]
            done[w] = True
    return x, subsets


def _pivots(normals, lengths, offsets, row, x, tight, subsets, eps):
    """The (row, d-subset) candidates one pivot from the vertices reaches: the walk's next layer.

    An edge of a vertex keeps d - 1 of its tight planes, and a ratio test
    along it over the planes not tight on the vertex finds the first one
    it meets, which joins the d - 1.  On a vertex on exactly d planes the
    edge directions are the columns of the negated inverse, one batched
    inverse for all.  On a vertex on more, each (d - 1)-subset of its planes
    spans a line, and each direction along it on which no tight plane rises
    by more than ``eps`` per unit length is taken.
    """
    d = normals.shape[1]
    slack, size = offsets[row] - x @ normals.T, tight.sum(axis=1)
    simple, cands = size == d, []
    if simple.any():
        # rise[v, i, j]: the rate plane i rises at along the edge leaving plane subsets[v, j]
        rise = -(normals @ np.linalg.inv(normals[subsets[simple]]))
        t = np.divide(slack[simple, :, None], rise, where=(rise > 0) & ~tight[simple, :, None],
                      out=np.full(rise.shape, np.inf))
        hit, ok = t.argmin(axis=1), np.isfinite(t.min(axis=1)).ravel()
        bases = np.where(np.eye(d, dtype=bool), hit[:, :, None], subsets[simple, None])
        edges = np.repeat(row[simple], d)
        cands.append((edges[ok], bases.reshape(-1, d)[ok], edges[~ok]))
    if not simple.all():
        cands.append(_nonsimple_pivots(normals, lengths, row, slack, tight, ~simple, eps))
    row, bases, lost = map(np.concatenate, zip(*cands))
    return row, np.sort(bases, axis=1), lost


def _nonsimple_pivots(normals, lengths, row, slack, tight, which, eps):
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
    vertex = np.flatnonzero(which)
    size = tight[vertex].sum(axis=1)
    minor = _combinations(d, d - 1)[::-1]  # row j: every column but j
    moves = []  # (vertex, direction, kept planes, planes holding it, conditioning)
    for k in set(size.tolist()):
        at = vertex[size == k]
        planes = np.nonzero(tight[at])[1].reshape(-1, k)
        for v, kept in _local(planes, d - 1, BLOCK * m // (m + d * (d - 1) ** 2)):
            e = np.linalg.det(normals[kept][:, :, minor].swapaxes(1, 2)) * (-1.0) ** np.arange(d)
            length = np.linalg.norm(e, axis=1)
            conditioning = length / np.prod(lengths[kept], axis=1)
            line = conditioning > 1e-12  # the subset spans a line, by the determinant test's bound
            e = np.divide(e, length[:, None], where=line[:, None], out=np.zeros(e.shape))
            pairs, on = np.arange(len(v))[:, None], planes[v]
            up = (e @ normals.T)[pairs, on] / lengths[on]
            hold = np.zeros((len(v), m), bool)
            hold[pairs, on] = np.abs(up) <= eps
            # each line both ways: an edge where no tight plane rises
            edge = np.flatnonzero(np.concatenate([line & np.all(up <= eps, axis=1),
                                                  line & np.all(-up <= eps, axis=1)]))
            one = edge % len(v)
            moves.append((at[v[one]], np.where((edge < len(v))[:, None], e[one], -e[one]),
                          kept[one], hold[one], conditioning[one]))
    v, e, kept, hold, conditioning = map(np.concatenate, zip(*moves))
    order = np.argsort(-conditioning, kind="stable")  # each edge's best-conditioned subset first
    best = order[_unseen(v[order], np.packbits(hold[order], axis=1), set())]
    v, rise, kept = v[best], e[best] @ normals.T, kept[best]
    few = vertex[np.bincount(v, minlength=len(which))[vertex] < d]
    t = np.divide(slack[v], rise, where=(rise > 0) & ~tight[v], out=np.full(rise.shape, np.inf))
    ok = np.isfinite(t.min(axis=1))
    return (row[v[ok]], np.column_stack([kept[ok], t.argmin(axis=1)[ok]]),
            np.concatenate([row[few], row[v[~ok]]]))


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
    [(polar, tight, _)], lost = _vertices(vertices - g, np.ones((1, n)), tol.geom_rel)
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
    if lost[0]:  # the facets found may be a part only
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

    One ``_vertices`` walk enumerates every ray's region 0, and one batched
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
    rays, lost = _vertices(poly.unit, c[:, 0], eps)
    sizes = np.array([len(p) for p, _, _ in rays])
    flat = sizes <= d
    for k in set(sizes[~flat].tolist()):  # one stacked rank per size; a region's size is about 1
        at = np.flatnonzero(sizes == k)
        points = np.stack([rays[r][0] for r in at])
        scale = np.linalg.norm(points, axis=2).max(axis=1, keepdims=True)
        flat[at] = _affine_rank(points, tol.geom(scale)) != d
    tight, subsets = np.hstack([t for _, t, _ in rays]), np.vstack([q for *_, q in rays])
    b = c[ray := np.repeat(np.arange(len(c)), sizes), 1:]        # (K, S - 1, n)
    x = np.linalg.solve(poly.unit[subsets][:, None],
                        np.take_along_axis(b, subsets[:, None], axis=2)[..., None])[..., 0]
    vals, bad = x @ poly.unit.T, np.zeros((len(c), c.shape[1] - 1), bool)
    np.logical_or.at(bad, ray, np.any((vals > b + eps) | ((vals >= b - eps) != tight.T[:, None]),
                                      axis=2))
    for r in np.flatnonzero(outside | flat | lost | bad.any(axis=1))[:1]:
        if outside[r]:
            raise Unbounded(f"offsets outside trust region [1-{delta}, 1+{delta}]")
        if flat[r]:
            raise Unbounded("dual vertex set is not full-dimensional")
        if lost[r]:
            raise NumericalInstability("shifted dual's vertex walk lost an edge")
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
