"""Automorphism groups of vertex+edge-colored graphs, held as generators.

Deterministic individualization-refinement search with automorphism
pruning returns a generating set, not the elements.  A Schreier-Sims
stabilizer chain then gives the order (the product of its basic orbit
lengths) and a membership test; the sorted members are built only when
first asked for.

Permutation conventions live here.  A permutation is an image tuple p with
p[i] = sigma(i).  Its matrix Pi has a 1 in row sigma(j), column j, so that
column j of phi @ Pi is vertex sigma(j); on a coordinate vector this means
(Pi v)[i] = v[sigma^-1(i)].  Composition (p * q)(i) = p[q(i)] matches
Pi_p @ Pi_q = Pi_{p*q}.
"""

from __future__ import annotations

from collections import Counter
from math import prod

import numpy as np

from .colorings import Coloring, orbit_coloring
from .errors import DomainMismatch, LimitExceeded, NotAGroup
from .geometry import EdgeGraph

Perm = tuple[int, ...]
MAX_VERTICES = 64  # automorphism search refuses larger graphs


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def invert(p: Perm) -> Perm:
    return tuple(np.argsort(p).tolist())


def perm_matrix(p: Perm) -> np.ndarray:
    n = len(p)
    mat = np.zeros((n, n))
    mat[list(p), range(n)] = 1.0
    return mat


class PermutationSet:
    """A permutation group: generators plus a stabilizer chain.

    ``PermutationSet(perms)`` is the group whose members are exactly the
    set ``perms``.  A set S is a group iff |<S>| = |S|, so any set that is
    not closed raises NotAGroup, at the cost of one sift per element.
    ``PermutationSet.generated(n, gens)`` is the group generated by
    ``gens``.  ``perms``, the sorted members, is built on first use.
    """

    def __init__(self, perms):
        perms = sorted({tuple(int(x) for x in p) for p in perms})
        if not perms:
            raise NotAGroup("empty permutation set")
        n = len(perms[0])
        if any(len(p) != n or sorted(p) != list(range(n)) for p in perms):
            raise NotAGroup("element is not a permutation of 0..n-1")
        self._start(n, ())
        for p in perms:
            self._add(p)
        if self.order != len(perms):
            raise NotAGroup(f"{len(perms)} permutations generate a group of order "
                            f"{self.order}: the set is not a group")
        self._perms = tuple(perms)

    @classmethod
    def generated(cls, n: int, gens, base=()) -> "PermutationSet":
        """The group generated by ``gens`` on 0..n-1; its chain fixes ``base`` first."""
        group = cls.__new__(cls)
        group._start(n, base)
        for g in gens:
            group._add(tuple(int(x) for x in g))
        return group

    def _start(self, n: int, base) -> None:
        self.n = n
        self.generators = []   # the given permutations that enlarged the group
        self._id = identity_perm(n)
        # level i: strong generators fixing base[:i], and the orbit of base[i]
        # under them as point -> (u, u^-1) with u(base[i]) = point
        self._base = list(base) + [x for x in range(n) if x not in base]
        self._strong = [[] for _ in range(n)]
        self._trans = [{b: (self._id, self._id)} for b in self._base]
        self._perms = None

    def _sift(self, g: Perm, level: int = 0) -> bool:
        """True iff g strips to the identity through the chain from ``level`` down."""
        for b, trans in zip(self._base[level:], self._trans[level:]):
            if g[b] != b:
                if g[b] not in trans:
                    return False
                inv = trans[g[b]][1]
                g = tuple(inv[x] for x in g)
        return True

    def _add(self, g: Perm) -> None:
        """Extend the group by g, which is kept as a generator unless already a member.

        Schreier-Sims as in Knuth, "Efficient representation of perm
        groups" (1991): each (strong generator, coset representative) pair
        of a level is composed once; its image point either becomes a new
        representative or its Schreier generator goes one level down.
        """
        if self._sift(g):
            return
        self.generators.append(g)
        todo = [(0, g, True)]
        while todo:
            level, g, is_gen = todo.pop()
            if is_gen:
                if not self._sift(g, level):
                    self._strong[level].append(g)
                    todo += [(level, compose(g, u), False) for u, _ in self._trans[level].values()]
                continue
            trans = self._trans[level]
            point = g[self._base[level]]
            if point in trans:
                todo.append((level + 1, compose(trans[point][1], g), True))
            else:
                trans[point] = (g, invert(g))
                todo += [(level, compose(s, g), False) for s in self._strong[level]]

    @property
    def order(self) -> int:
        return prod(len(trans) for trans in self._trans)

    @property
    def perms(self) -> tuple:
        """Every member, sorted; enumerated from the chain on first use."""
        if self._perms is None:
            members = np.arange(self.n)[None, :]
            for trans in reversed(self._trans):
                reps = np.array([u for u, _ in trans.values()])
                members = reps[:, members].reshape(-1, self.n)
            self._perms = tuple(sorted(map(tuple, members.tolist())))
        return self._perms

    def __iter__(self):
        return iter(self.perms)

    def __contains__(self, p) -> bool:
        p = tuple(int(x) for x in p)
        return sorted(p) == list(self._id) and self._sift(p)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PermutationSet) and self.n == other.n
                and self.order == other.order and all(g in self for g in other.generators))


def _neighbor_table(col: Coloring):
    nbr = [[] for _ in range(col.n)]
    for (i, j), c in col.edge.items():
        nbr[i].append((j, c))
        nbr[j].append((i, c))
    return [tuple(sorted(x)) for x in nbr]


def _refine(n, neighbors, colors: tuple) -> tuple:
    """Stable 1-WL refinement with edge colors, canonically numbered.

    New class ids sort by (old class, neighborhood signature), so the
    output refines the input and identical inputs give identical outputs.
    """
    while True:
        sigs = []
        for v in range(n):
            nb = tuple(sorted((ec, colors[u]) for u, ec in neighbors[v]))
            sigs.append((colors[v], nb))
        ranks = {s: k for k, s in enumerate(sorted(set(sigs)))}
        new = tuple(ranks[s] for s in sigs)
        if new == colors:
            return colors
        colors = new


def _individualize(n, neighbors, colors: tuple, v: int) -> tuple:
    """Give v a class of its own, then refine."""
    split = list(colors)
    split[v] = n
    return _refine(n, neighbors, tuple(split))


def _cert(colors: tuple) -> tuple:
    return tuple(sorted(Counter(colors).items()))


def color_refinement(col: Coloring) -> tuple:
    """Stable vertex partition of the colored graph (dense class ids)."""
    return _refine(col.n, _neighbor_table(col), col.vertex)


def _preserves(col: Coloring, sigma: Perm) -> bool:
    return (all(col.vertex[sigma[i]] == c for i, c in enumerate(col.vertex))
            and all(col.edge.get(tuple(sorted((sigma[i], sigma[j])))) == c
                    for (i, j), c in col.edge.items()))


def automorphisms(col: Coloring, limit: int = 10 ** 6) -> PermutationSet:
    """The group of color-preserving automorphisms, found as generators.

    A first path of individualizations (lowest vertex of the smallest
    non-singleton class, lowest class id first) fixes a base v_1..v_k.
    From the deepest level up, each target w of v_i outside the orbit of
    v_i under the automorphisms found so far is searched for one
    automorphism sending v_i to w (automorphism pruning).  Certificates
    cut branches, every leaf is checked by ``_preserves``, and targets go
    in ascending order, so the group is deterministic.  ``limit`` caps
    the group order, checked before any member is built.
    """
    n = col.n
    if n > MAX_VERTICES:
        raise LimitExceeded(f"graph has {n} > {MAX_VERTICES} vertices")
    if not all(0 <= i < j < n for i, j in col.edge):
        raise DomainMismatch(f"edge keys must be pairs (i, j) with 0 <= i < j < {n}")
    neighbors = _neighbor_table(col)
    path = [_refine(n, neighbors, col.vertex)]
    base = []
    while len(set(path[-1])) < n:
        sizes = Counter(path[-1])
        cls = min((s, c) for c, s in sizes.items() if s > 1)[1]
        base.append(path[-1].index(cls))
        path.append(_individualize(n, neighbors, path[-1], base[-1]))
    certs = [_cert(p) for p in path]

    def search(depth, tgt, skip=()):
        """The first automorphism of each branch below target partition ``tgt``, lazily."""
        if depth == len(base):
            where = {c: w for w, c in enumerate(tgt)}
            sigma = tuple(where[c] for c in path[-1])
            if _preserves(col, sigma):
                yield sigma
            return
        for w in range(n):
            if tgt[w] == path[depth][base[depth]] and w not in skip:
                t2 = _individualize(n, neighbors, tgt, w)
                if _cert(t2) == certs[depth + 1]:
                    sigma = next(search(depth + 1, t2), None)
                    if sigma is not None:
                        yield sigma

    group = PermutationSet.generated(n, (), base)
    for depth in reversed(range(len(base))):
        # the automorphisms found so far fix base[:depth], so the chain's
        # level-depth orbit, grown in place by _add, is the orbit to skip
        for sigma in search(depth, path[depth], skip=group._trans[depth]):
            group._add(sigma)
            if group.order > limit:
                raise LimitExceeded(f"group order exceeds limit {limit}")
    return group


def orbits(group, graph: EdgeGraph):
    """Vertex orbits and edge orbits of a permutation group, by min element."""
    col = orbit_coloring(graph, group)
    return (tuple(map(tuple, col.vertex_classes())),
            tuple(tuple(orbit) for orbit in col.edge_classes()))


def uncolored(graph: EdgeGraph) -> Coloring:
    """The graph with a single vertex color and a single edge color."""
    return Coloring(vertex=(0,) * graph.n, edge={e: 0 for e in graph.edges})
