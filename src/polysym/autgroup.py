"""Automorphism groups of vertex+edge-colored graphs, held as generators.

Deterministic individualization-refinement search with automorphism
pruning returns a generating set, not the elements.  A Schreier-Sims
stabilizer chain then gives the order (the product of its basic orbit
lengths) and a membership test; the sorted members are enumerated from
the chain only when read, and never kept.

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

from .colorings import Coloring
from .errors import DomainMismatch, LimitExceeded

Perm = tuple[int, ...]

MAX_MEMBERS = 10 ** 6  # bounds a listing, or a Sym(n) candidate stream; never the search


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def invert(p: Perm) -> Perm:
    return tuple(np.argsort(p).tolist())


class PermutationSet:
    """A permutation group on 0..n-1: generators plus a stabilizer chain.

    ``PermutationSet(n, gens, base)`` is the group that ``gens``,
    permutations of 0..n-1, generate; its chain fixes the points of
    ``base`` first.  A set S of permutations is a group iff |<S>| = |S|.
    """

    def __init__(self, n: int, gens=(), base=()):
        self.n = n
        self.generators = []   # the given permutations that enlarged the group
        self._id = identity_perm(n)
        # level i: strong generators fixing base[:i], and the orbit of base[i]
        # under them as point -> (u, u^-1) with u(base[i]) = point
        self._base = list(base) + [x for x in range(n) if x not in base]
        self._strong = [[] for _ in range(n)]
        self._trans = [{b: (self._id, self._id)} for b in self._base]
        for g in gens:
            self._add(tuple(int(x) for x in g))

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
        """Every member, sorted: enumerated from the chain each time it is read."""
        if self.order > MAX_MEMBERS:
            raise LimitExceeded(f"group order {self.order} exceeds {MAX_MEMBERS} members to list")
        members = np.arange(self.n)[None, :]
        for trans in reversed(self._trans):
            reps = np.array([u for u, _ in trans.values()])
            members = reps[:, members].reshape(-1, self.n)
        return tuple(sorted(map(tuple, members.tolist())))

    def __iter__(self):
        return iter(self.perms)

    def __contains__(self, p) -> bool:
        p = tuple(int(x) for x in p)
        return sorted(p) == list(self._id) and self._sift(p)


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


def _preserves(col: Coloring, sigma: Perm) -> bool:
    return (all(col.vertex[sigma[i]] == c for i, c in enumerate(col.vertex))
            and all(col.edge.get(tuple(sorted((sigma[i], sigma[j])))) == c
                    for (i, j), c in col.edge.items()))


def automorphisms(col: Coloring) -> PermutationSet:
    """The group of color-preserving automorphisms, found as generators.

    A first path of individualizations (lowest vertex of the smallest
    non-singleton class, lowest class id first) fixes a base v_1..v_k.
    From the deepest level up, each target w of v_i outside the orbit of
    v_i under the automorphisms found so far is searched for one
    automorphism sending v_i to w (automorphism pruning).  Certificates
    cut branches, every leaf is checked by ``_preserves``, and targets go
    in ascending order, so the group is deterministic.
    """
    n = col.n
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

    group = PermutationSet(n, (), base)
    for depth in reversed(range(len(base))):
        # the automorphisms found so far fix base[:depth], so the chain's
        # level-depth orbit, grown in place by _add, is the orbit to skip
        for sigma in search(depth, path[depth], skip=group._trans[depth]):
            group._add(sigma)
    return group


def uncolored(n: int, edges) -> Coloring:
    """The graph on 0..n-1 with a single vertex color and a single edge color.

    Each pair is sorted, so an edge may be given either way round.
    """
    return Coloring(vertex=(0,) * n, edge={tuple(sorted(e)): 0 for e in edges})
