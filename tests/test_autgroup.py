from itertools import permutations

import numpy as np
import pytest

from helpers import (FIXTURES, color_refinement, colored_adjacency, complete_edges, k44_embedding,
                     orbits, perm_matrix, realized_but_not_a_group)
from polysym import autgroup
from polysym.autgroup import (
    PermutationSet,
    automorphisms,
    compose,
    identity_perm,
    invert,
    uncolored,
)
from polysym.colorings import Coloring
from polysym.errors import DomainMismatch, LimitExceeded

C4 = ((0, 1), (1, 2), (2, 3), (0, 3))


def brute_force_auts(col):
    """Exhaustive n! filter straight from the definition."""
    n = col.n
    edges = set(col.edge)
    out = []
    for sigma in permutations(range(n)):
        if any(col.vertex[sigma[i]] != col.vertex[i] for i in range(n)):
            continue
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                img = tuple(sorted((sigma[i], sigma[j])))
                if ((i, j) in edges) != (img in edges):
                    ok = False
                    break
                if (i, j) in edges and col.edge[img] != col.edge[(i, j)]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(sigma)
    return sorted(out)


class TestPermBasics:
    def test_compose_convention(self):
        p, q = (1, 2, 0), (0, 2, 1)
        assert compose(p, q) == tuple(p[q[i]] for i in range(3))
        assert compose(p, invert(p)) == identity_perm(3)

    def test_perm_matrix_column_convention(self):
        # column j of Pi carries a 1 in row sigma(j)
        sigma = (2, 0, 1)
        pi = perm_matrix(sigma)
        phi = np.array([[10.0, 20.0, 30.0]])
        assert np.array_equal(phi @ pi, [[30.0, 10.0, 20.0]])
        v = np.array([5.0, 6.0, 7.0])
        inv = invert(sigma)
        assert np.array_equal(pi @ v, [v[inv[i]] for i in range(3)])

    def test_matrix_respects_composition(self):
        p, q = (1, 2, 0, 3), (3, 0, 2, 1)
        assert np.array_equal(perm_matrix(p) @ perm_matrix(q), perm_matrix(compose(p, q)))


class TestPermutationSet:
    def test_rejects_non_group(self):
        # the square's quarter and half turns, without the three-quarter turn: not closed
        assert realized_but_not_a_group(FIXTURES["square"]().phi,
                                        [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1)])

    def test_rejects_missing_identity(self):
        # the square's reflection in the y axis alone
        assert realized_but_not_a_group(FIXTURES["square"]().phi, [(1, 0, 3, 2)])

    def test_accepts_klein(self):
        klein = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
        ps = PermutationSet(4, klein)
        assert ps.order == 4 and (1, 0, 3, 2) in ps
        assert list(ps.perms) == klein

    def test_large_group_verification(self):
        # bytes-path too: n = 16 forces the non-packed verifier
        swap = tuple([1, 0] + list(range(2, 16)))
        ps = PermutationSet(16, [identity_perm(16), swap])
        assert ps.order == 2 and ps.perms == (identity_perm(16), swap)


class TestRefinement:
    def test_uncolored_cycle_single_class(self):
        assert color_refinement(uncolored(4, C4)) == (0, 0, 0, 0)

    def test_path_splits_by_degree(self):
        colors = color_refinement(uncolored(3, ((0, 1), (1, 2))))
        assert colors[0] == colors[2] != colors[1]

    def test_rectangle_metric_stays_single_class(self, artifacts):
        art = artifacts["rectangle"]
        assert color_refinement(art.met_coloring) == (0, 0, 0, 0)

    def test_refines_input_coloring(self, artifacts):
        art = artifacts["rectangle"]
        stable = color_refinement(art.prod_coloring)
        for i in range(4):
            for j in range(4):
                if stable[i] == stable[j]:
                    assert art.prod_coloring.vertex[i] == art.prod_coloring.vertex[j]

    def test_soundness_orbits_refine_stable_classes(self, artifacts):
        for art in artifacts.values():
            stable = color_refinement(art.izm_coloring)
            group = automorphisms(art.izm_coloring)
            vorbits, _ = orbits(group, art.poly.edges)
            for orbit in vorbits:
                assert len({stable[i] for i in orbit}) == 1


class TestAutomorphisms:
    def test_uncolored_c4_dihedral(self):
        assert automorphisms(uncolored(4, C4)).order == 8

    def test_rectangle_metric_exactly_four(self, artifacts):
        art = artifacts["rectangle"]
        group = automorphisms(art.met_coloring)
        assert group.perms == ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))

    def test_k44_order(self):
        assert automorphisms(uncolored(8, k44_embedding()[1])).order == 2 * 24 * 24

    def test_complete_graph(self):
        assert automorphisms(uncolored(5, complete_edges(5))).order == 120

    def test_matches_brute_force(self, artifacts):
        for name in ("square", "rectangle", "triangle", "hexagon",
                     "perturbed_hexagon", "octahedron", "prism3"):
            art = artifacts[name]
            for col in (art.izm_coloring, art.met_coloring, art.prod_coloring):
                assert list(automorphisms(col).perms) == brute_force_auts(col), name

    def test_commutes_with_colored_adjacency(self, artifacts):
        for art in artifacts.values():
            a = colored_adjacency(art.prod_coloring)
            for sigma in automorphisms(art.prod_coloring):
                pi = perm_matrix(sigma)
                assert np.array_equal(pi @ a, a @ pi)

    def test_deterministic(self, artifacts):
        art = artifacts["cube"]
        col = art.izm_coloring
        assert automorphisms(col).perms == automorphisms(col).perms

    def test_limit_exceeded(self, monkeypatch):
        # the bound is on the listing: the search finds the whole group first
        group = automorphisms(uncolored(4, C4))
        monkeypatch.setattr(autgroup, "MAX_MEMBERS", 7)
        assert group.order == 8
        with pytest.raises(LimitExceeded):
            group.perms
        monkeypatch.setattr(autgroup, "MAX_MEMBERS", 8)
        assert len(group.perms) == 8

    def test_vertex_bound(self):
        # K10's 10! = 3 628 800 automorphisms are found, but never listed
        group = automorphisms(uncolored(10, complete_edges(10)))
        assert group.order == 3628800
        with pytest.raises(LimitExceeded):
            group.perms

    @pytest.mark.parametrize("key", [(1, 0), (0, 5)])
    def test_edge_key_outside_domain(self, key):
        # an unsorted key would fail every edge lookup, an out-of-range one the neighbor table
        with pytest.raises(DomainMismatch):
            automorphisms(Coloring(vertex=(0, 0, 0), edge={key: 0}))


class TestUncolored:
    def test_sorts_reversed_pairs(self):
        # an embedding may list an edge either way round
        col = uncolored(4, ((1, 0), (1, 2), (3, 2), (3, 0)))
        assert col.vertex == (0, 0, 0, 0)
        assert sorted(col.edge) == [(0, 1), (0, 3), (1, 2), (2, 3)]
        assert set(col.edge.values()) == {0}
        assert automorphisms(col).perms == automorphisms(uncolored(4, C4)).perms


class TestOrbits:
    def test_dihedral_transitive(self):
        group = automorphisms(uncolored(4, C4))
        vorbits, eorbits = orbits(group, C4)
        assert vorbits == ((0, 1, 2, 3),)
        assert len(eorbits) == 1

    def test_trivial_group_singletons(self):
        trivial = PermutationSet(4, [identity_perm(4)])
        assert trivial.order == 1
        vorbits, eorbits = orbits(trivial, C4)
        assert vorbits == ((0,), (1,), (2,), (3,))
        assert len(eorbits) == 4

    def test_klein_orbits(self):
        klein = [(0, 1, 2, 3), (2, 1, 0, 3), (0, 3, 2, 1), (2, 3, 0, 1)]
        group = PermutationSet(4, klein)
        assert group.order == 4
        vorbits, eorbits = orbits(group, C4)
        assert vorbits == ((0, 2), (1, 3))
        assert eorbits == (((0, 1), (0, 3), (1, 2), (2, 3)),)
