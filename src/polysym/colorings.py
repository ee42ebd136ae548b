"""Vertex/edge colorings of a graph and the constructions that produce them.

A coloring is a pair of discrete class assignments, one on vertices and
one on edges, with the two id namespaces kept disjoint.  Real-valued
weights (inner products, matrix entries) are quantized into classes by a
relative gap rule; only class equality ever feeds the automorphism search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DomainMismatch, NotAGroup
from .geometry import Polytope


@dataclass(frozen=True, eq=False)
class Coloring:
    """A colored graph: dense class ids on its vertices and edges.

    The coloring is the colored graph itself: its vertices are 0..n-1 and
    the keys of ``edge`` are its edges.  ``vertex[i]`` is the class of
    vertex i; ``edge[(i, j)]`` (i < j) the class of that edge.
    ``vertex_reps``/``edge_reps`` optionally carry one representative raw
    value per class, for reports.
    """

    vertex: tuple[int, ...]
    edge: dict
    vertex_reps: tuple = ()
    edge_reps: tuple = ()
    # smallest gap between consecutive quantized classes; None when < 2 classes
    vertex_min_gap: float | None = None
    edge_min_gap: float | None = None

    @property
    def n(self) -> int:
        return len(self.vertex)

    @property
    def num_vertex_classes(self) -> int:
        return max(self.vertex) + 1 if self.vertex else 0

    @property
    def num_edge_classes(self) -> int:
        return max(self.edge.values()) + 1 if self.edge else 0

    def vertex_classes(self) -> list[list[int]]:
        out = [[] for _ in range(self.num_vertex_classes)]
        for i, c in enumerate(self.vertex):
            out[c].append(i)
        return out

    def edge_classes(self) -> list[list[tuple[int, int]]]:
        out = [[] for _ in range(self.num_edge_classes)]
        for e in sorted(self.edge):
            out[self.edge[e]].append(e)
        return out


def _gap_classes(values: np.ndarray, eps: float):
    """Assign dense class ids by splitting sorted values at gaps larger than ``eps``.

    Values closer than eps chain into one class; classes are numbered by
    ascending representative (the smallest member).  Also returns the
    smallest inter-class gap, the number to eyeball when worrying about
    false merges or splits.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    gaps = np.diff(values[order])
    starts = np.concatenate([[True], gaps > eps])[:len(values)]  # sorted positions opening a class
    ids = np.empty(len(values), dtype=int)
    ids[order] = np.cumsum(starts) - 1
    jumps = gaps[starts[1:]]
    return ids, values[order][starts].tolist(), float(jumps.min()) if len(jumps) else None


def quantize(vertex_values, edge_values, tol: Tolerances = DEFAULT_TOLERANCES) -> Coloring:
    """Quantize real vertex and edge weights into a Coloring.

    ``vertex_values`` is a sequence indexed by vertex; ``edge_values`` a
    mapping from sorted edge pairs to floats.  Vertices and edges are
    quantized separately under one absolute eps, ``tol.color_rel`` times
    the largest |value| of both lists: a list of values that are all
    round-off next to the other (a square's metric edge colors) is no
    reference of its own.
    """
    vvals = np.asarray(list(vertex_values), dtype=float)
    edges = sorted(edge_values)
    evals = np.asarray([edge_values[e] for e in edges], dtype=float)
    eps = tol.color_rel * float(np.max(np.abs(np.concatenate([vvals, evals])), initial=0.0))
    vids, vreps, vgap = _gap_classes(vvals, eps)
    eids, ereps, egap = _gap_classes(evals, eps)
    return Coloring(
        vertex=tuple(int(c) for c in vids),
        edge={e: int(c) for e, c in zip(edges, eids)},
        vertex_reps=tuple(vreps),
        edge_reps=tuple(ereps),
        vertex_min_gap=vgap,
        edge_min_gap=egap,
    )


def metric_coloring(poly: Polytope) -> Coloring:
    """Vertex color |v_i|^2, edge color <v_i, v_j>: an isometry invariant, classed at unit scale.

    The values and gaps it reports are those of ``poly.unit`` times 2^2k, k = ``poly.exponent``.
    """
    verts, back = poly.unit, lambda x: x if x is None else np.ldexp(x, 2 * poly.exponent).tolist()
    col = quantize([float(v @ v) for v in verts],
                   {(i, j): float(verts[i] @ verts[j]) for i, j in poly.edges}, poly.tol)
    with np.errstate(over="ignore"):  # inf past float range, where the classes still hold
        return replace(col, vertex_reps=tuple(back(col.vertex_reps)),
                       edge_reps=tuple(back(col.edge_reps)),
                       vertex_min_gap=back(col.vertex_min_gap), edge_min_gap=back(col.edge_min_gap))


def izmestiev_coloring(poly: Polytope, m: np.ndarray) -> Coloring:
    """Diagonal entries of the (n, n) matrix ``m`` color vertices, edge entries color edges."""
    vvals = [float(m[i, i]) for i in range(poly.n)]
    evals = {(i, j): float(m[i, j]) for i, j in poly.edges}
    return quantize(vvals, evals, poly.tol)


def product_coloring(c1: Coloring, c2: Coloring) -> Coloring:
    """Componentwise pair of two colorings on the same graph; refines both."""
    if c1.n != c2.n or set(c1.edge) != set(c2.edge):
        raise DomainMismatch("product of colorings on different graphs")
    edges = sorted(c1.edge)
    epairs = np.array([(c1.edge[e], c2.edge[e]) for e in edges]).reshape(-1, 2)
    vreps, vids = np.unique(np.column_stack([c1.vertex, c2.vertex]), axis=0, return_inverse=True)
    ereps, eids = np.unique(epairs, axis=0, return_inverse=True)
    return Coloring(  # raveled: numpy 2.0.0 gives the inverse an extra axis when axis is given
        vertex=tuple(vids.ravel().tolist()),
        edge=dict(zip(edges, eids.ravel().tolist())),
        vertex_reps=tuple(map(tuple, vreps.tolist())),
        edge_reps=tuple(map(tuple, ereps.tolist())),
    )


def orbit_coloring(n: int, edges, group) -> Coloring:
    """Colors are the orbits of a PermutationSet acting on 0..n-1 and on ``edges``.

    ``edges`` are sorted pairs; the group's generators must preserve them.
    An edge's image under a generator is looked up once among the keys i * n + j.
    """
    if group.n != n:
        raise NotAGroup(f"not a permutation group on 0..{n - 1}")
    edges = sorted(set(edges))
    pairs = np.array(edges, dtype=int).reshape(-1, 2)
    gens = np.array(group.generators, dtype=int).reshape(-1, n)
    keys, images = pairs @ (n, 1), np.sort(gens[:, pairs], axis=2) @ (n, 1)
    table = np.searchsorted(keys, images)  # (generators, edges): the index of each image
    missed = (np.take(keys, table, mode="clip") != images).any(axis=1)
    if missed.any():
        raise NotAGroup(f"{group.generators[missed.argmax()]} does not preserve the edge set")
    return Coloring(vertex=tuple(_orbit_ids(gens)), edge=dict(zip(edges, _orbit_ids(table))))


def _orbit_ids(table: np.ndarray) -> list[int]:
    """Orbit index of each column of a (generators, items) image table, numbered by first item.

    Each pass lowers every label to the least label among the item's images,
    then to its label's label, until each orbit carries its least item.
    """
    label = np.arange(table.shape[1])
    while not np.array_equal(label, low := np.vstack([label, label[table]]).min(0)):
        label = low[low]
    return np.unique(label, return_inverse=True)[1].tolist()
