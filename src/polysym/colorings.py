"""Vertex/edge colorings of a graph and the constructions that produce them.

A coloring is a pair of discrete class assignments, one on vertices and
one on edges, with the two id namespaces kept disjoint.  Real-valued
weights (inner products, matrix entries) are quantized into classes by a
relative gap rule; only class equality ever feeds the automorphism search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DomainMismatch, NotAGroup
from .geometry import EdgeGraph, Polytope
from .izmestiev import IzmestievMatrix


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

    def to_json_dict(self) -> dict:
        doc = {
            "vertex_classes": self.vertex_classes(),
            "edge_classes": [[list(e) for e in cls] for cls in self.edge_classes()],
        }
        reps = {}
        if self.vertex_reps:
            reps["vertex"] = list(self.vertex_reps)
        if self.edge_reps:
            reps["edge"] = list(self.edge_reps)
        if reps:
            doc["representatives"] = reps
            doc["min_class_gap"] = {"vertex": self.vertex_min_gap,
                                    "edge": self.edge_min_gap}
        return doc


def _gap_classes(values: np.ndarray, eps_rel: float):
    """Assign dense class ids by splitting sorted values at large gaps.

    Values closer than eps chain into one class; classes are numbered by
    ascending representative (the smallest member).  Also returns the
    smallest inter-class gap, the number to eyeball when worrying about
    false merges or splits.
    """
    values = np.asarray(values, dtype=float)
    k = len(values)
    if k == 0:
        return np.zeros(0, dtype=int), [], None
    eps = eps_rel * max(1.0, float(np.max(np.abs(values))))
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
    quantized independently.
    """
    vvals = np.asarray(list(vertex_values), dtype=float)
    edges = sorted(edge_values)
    evals = np.asarray([edge_values[e] for e in edges], dtype=float)
    vids, vreps, vgap = _gap_classes(vvals, tol.color_rel)
    eids, ereps, egap = _gap_classes(evals, tol.color_rel)
    return Coloring(
        vertex=tuple(int(c) for c in vids),
        edge={e: int(c) for e, c in zip(edges, eids)},
        vertex_reps=tuple(vreps),
        edge_reps=tuple(ereps),
        vertex_min_gap=vgap,
        edge_min_gap=egap,
    )


def metric_coloring(poly: Polytope, graph: EdgeGraph,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> Coloring:
    """Vertex color |v_i|^2, edge color <v_i, v_j>: an isometry invariant."""
    verts = poly.vertices
    vvals = [float(verts[i] @ verts[i]) for i in range(poly.n)]
    evals = {(i, j): float(verts[i] @ verts[j]) for i, j in graph.edges}
    return quantize(vvals, evals, tol)


def izmestiev_coloring(mat: IzmestievMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> Coloring:
    """Diagonal entries color vertices, edge entries color edges."""
    m = mat.entries
    vvals = [float(m[i, i]) for i in range(mat.n)]
    evals = {(i, j): float(m[i, j]) for i, j in mat.graph.edges}
    return quantize(vvals, evals, tol)


def _densify_pairs(pairs: list) -> list[int]:
    mapping = {}
    for p in sorted(set(pairs)):
        mapping[p] = len(mapping)
    return [mapping[p] for p in pairs]


def product_coloring(c1: Coloring, c2: Coloring) -> Coloring:
    """Componentwise pair of two colorings on the same graph; refines both."""
    if c1.n != c2.n or set(c1.edge) != set(c2.edge):
        raise DomainMismatch("product of colorings on different graphs")
    vpairs = list(zip(c1.vertex, c2.vertex))
    edges = sorted(c1.edge)
    epairs = [(c1.edge[e], c2.edge[e]) for e in edges]
    vids = _densify_pairs(vpairs)
    eids = _densify_pairs(epairs)
    return Coloring(
        vertex=tuple(vids),
        edge=dict(zip(edges, eids)),
        vertex_reps=tuple(sorted(set(vpairs))),
        edge_reps=tuple(sorted(set(epairs))),
    )


def complete_metric(poly: Polytope, variant: str,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> Coloring:
    """Coloring of the complete graph K_n from a vertex Gram matrix.

    variant "orthogonal" uses phi.T @ phi (plain inner products); variant
    "linear" uses pinv(phi) @ phi, which is invariant under invertible
    linear maps of the polytope.  Diagonal entries color the vertices,
    off-diagonal entries color every vertex pair.
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
    return quantize(vvals, evals, tol)


def orbit_coloring(graph: EdgeGraph, group) -> Coloring:
    """Colors are the orbits of a permutation group acting on V and E.

    ``group`` is a PermutationSet or an iterable of permutations (image
    arrays) that PermutationSet accepts as a whole group.  Its generators
    must preserve the edge set.
    """
    from .autgroup import PermutationSet  # autgroup imports this module

    if not isinstance(group, PermutationSet):
        group = PermutationSet(group)
    if group.n != graph.n:
        raise NotAGroup(f"not a permutation group on 0..{graph.n - 1}")
    edge_set = graph.edge_set
    for p in group.generators:
        if any(tuple(sorted((p[i], p[j]))) not in edge_set for i, j in edge_set):
            raise NotAGroup(f"{p} does not preserve the edge set")
    edges = sorted(edge_set)
    return Coloring(
        vertex=tuple(_orbit_ids(range(graph.n), lambda x, g: g[x], group.generators)),
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


def colored_adjacency(col: Coloring) -> np.ndarray:
    """Integer matrix carrying quantized class ids, 0 on non-edges.

    Vertex ids go on the diagonal, edge ids (shifted into a disjoint
    range) off-diagonal, so equal matrix entries mean equal colors.
    """
    n = col.n
    a = np.zeros((n, n), dtype=int)
    for i in range(n):
        a[i, i] = col.vertex[i] + 1
    shift = col.num_vertex_classes + 1
    for (i, j), c in col.edge.items():
        a[i, j] = a[j, i] = c + shift
    return a
