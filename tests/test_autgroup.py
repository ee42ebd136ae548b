from itertools import permutations

import numpy as np
import pytest

from polysym import EdgeGraph, complete_graph
from polysym.autgroup import (
    PermutationSet,
    automorphisms,
    color_refinement,
    compose,
    identity_perm,
    invert,
    orbits,
    perm_matrix,
    uncolored,
)
from polysym.colorings import Coloring, colored_adjacency
from polysym.errors import DomainMismatch, LimitExceeded, NotAGroup
from polysym.fixtures import k44_graph

C4 = EdgeGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


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
        with pytest.raises(NotAGroup):
            PermutationSet([(0, 1, 2, 3), (1, 2, 3, 0)])  # not closed

    def test_rejects_missing_identity(self):
        with pytest.raises(NotAGroup):
            PermutationSet([(1, 0, 3, 2)])

    def test_accepts_klein(self):
        klein = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
        ps = PermutationSet(klein)
        assert ps.order == 4 and (1, 0, 3, 2) in ps

    def test_large_group_verification(self):
        # bytes-path too: n = 16 forces the non-packed verifier
        swap = tuple([1, 0] + list(range(2, 16)))
        ps = PermutationSet([identity_perm(16), swap])
        assert ps.order == 2


class TestRefinement:
    def test_uncolored_cycle_single_class(self):
        assert color_refinement(uncolored(C4)) == (0, 0, 0, 0)

    def test_path_splits_by_degree(self):
        path = EdgeGraph(3, ((0, 1), (1, 2)))
        colors = color_refinement(uncolored(path))
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
            vorbits, _ = orbits(group, art.graph)
            for orbit in vorbits:
                assert len({stable[i] for i in orbit}) == 1


class TestAutomorphisms:
    def test_uncolored_c4_dihedral(self):
        assert automorphisms(uncolored(C4)).order == 8

    def test_rectangle_metric_exactly_four(self, artifacts):
        art = artifacts["rectangle"]
        group = automorphisms(art.met_coloring)
        assert group.perms == ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))

    def test_k44_order(self):
        assert automorphisms(uncolored(k44_graph())).order == 2 * 24 * 24

    def test_complete_graph(self):
        assert automorphisms(uncolored(complete_graph(5))).order == 120

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

    def test_limit_exceeded(self):
        with pytest.raises(LimitExceeded):
            automorphisms(uncolored(C4), limit=3)

    def test_vertex_bound(self):
        big = complete_graph(70)
        with pytest.raises(LimitExceeded):
            automorphisms(uncolored(big))

    @pytest.mark.parametrize("key", [(1, 0), (0, 5)])
    def test_edge_key_outside_domain(self, key):
        # an unsorted key would fail every edge lookup, an out-of-range one the neighbor table
        with pytest.raises(DomainMismatch):
            automorphisms(Coloring(vertex=(0, 0, 0), edge={key: 0}))


class TestOrbits:
    def test_dihedral_transitive(self):
        group = automorphisms(uncolored(C4))
        vorbits, eorbits = orbits(group, C4)
        assert vorbits == ((0, 1, 2, 3),)
        assert len(eorbits) == 1

    def test_trivial_group_singletons(self):
        vorbits, eorbits = orbits([identity_perm(4)], C4)
        assert vorbits == ((0,), (1,), (2,), (3,))
        assert len(eorbits) == 4

    def test_klein_orbits(self):
        klein = [(0, 1, 2, 3), (2, 1, 0, 3), (0, 3, 2, 1), (2, 3, 0, 1)]
        vorbits, eorbits = orbits(klein, C4)
        assert vorbits == ((0, 2), (1, 3))
        assert eorbits == (((0, 1), (0, 3), (1, 2), (2, 3)),)
