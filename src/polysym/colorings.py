"""Vertex/edge colorings of a graph and the constructions that produce them.

A coloring is a pair of discrete class assignments, one on vertices and
one on edges, with the two id namespaces kept disjoint.  Real-valued
weights (inner products, matrix entries) are quantized into classes by a
relative gap rule; only class equality ever feeds the automorphism search.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    k = len(values)
    if k == 0:
        return np.zeros(0, dtype=int), [], None
    order = np.argsort(values, kind="stable")
    ids = np.zeros(k, dtype=int)
    reps = [float(values[order[0]])]
    current = 0
    min_gap = None
    for prev, cur in zip(order[:-1], order[1:]):
        if values[cur] - values[prev] > eps:
            current += 1
            reps.append(float(values[cur]))
            gap = float(values[cur] - values[prev])
            min_gap = gap if min_gap is None else min(min_gap, gap)
        ids[cur] = current
    ids[order[0]] = 0
    return ids, reps, min_gap


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
    """Vertex color |v_i|^2, edge color <v_i, v_j>: an isometry invariant."""
    verts = poly.vertices
    vvals = [float(verts[i] @ verts[i]) for i in range(poly.n)]
    evals = {(i, j): float(verts[i] @ verts[j]) for i, j in poly.edges}
    return quantize(vvals, evals, poly.tol)


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
    """
    if group.n != n:
        raise NotAGroup(f"not a permutation group on 0..{n - 1}")
    edge_set = set(edges)
    for p in group.generators:
        if any(tuple(sorted((p[i], p[j]))) not in edge_set for i, j in edge_set):
            raise NotAGroup(f"{p} does not preserve the edge set")
    edges = sorted(edge_set)
    return Coloring(
        vertex=tuple(_orbit_ids(range(n), lambda x, g: g[x], group.generators)),
        edge=dict(zip(edges, _orbit_ids(
            edges, lambda e, g: tuple(sorted((g[e[0]], g[e[1]]))), group.generators))))


def _orbit_ids(items, act, gens) -> list[int]:
    """Orbit index of each item under <gens> by union-find, orbits numbered by first item."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for g in gens:
        for x in items:
            a, b = find(x), find(act(x, g))
            if a != b:
                parent[a] = b
    roots = {}
    return [roots.setdefault(find(x), len(roots)) for x in items]
