import math

import numpy as np
import pytest

from polysym.autgroup import automorphisms, uncolored
from polysym.errors import TooManyCandidates
from polysym.fixtures import k44_coordinates, k44_graph, simplex, square
from polysym.oracle import brute_force_group, compare_groups, embedding_group
from polysym.reconstruct import linear_group, orthogonal_group


class TestBruteForce:
    def test_rectangle_orders(self, polytopes):
        phi = polytopes["rectangle"].phi
        assert brute_force_group(phi, flavor="linear").order == 8
        assert brute_force_group(phi, flavor="orthogonal").order == 4

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_regular_simplex_all_permutations(self, d):
        phi = simplex(d).phi
        group = brute_force_group(phi, flavor="orthogonal")
        assert group.order == math.factorial(d + 1)

    def test_identity_always_accepted(self, polytopes):
        for poly in polytopes.values():
            group = brute_force_group(poly.phi, flavor="orthogonal")
            assert tuple(range(poly.n)) in group.perm_set

    def test_sym_stream_guard(self):
        phi = np.eye(2) @ np.random.default_rng(0).standard_normal((2, 10))
        with pytest.raises(TooManyCandidates):
            brute_force_group(phi)

    def test_pruned_candidates_equivalent(self, artifacts):
        # filtering Sym(V) and filtering the graph automorphisms agree:
        # geometric symmetries always induce graph automorphisms
        for name in ("square", "rectangle", "hexagon", "octahedron", "cyclic4_6"):
            art = artifacts[name]
            full = brute_force_group(art.poly.phi, flavor="linear")
            cands = automorphisms(uncolored(art.graph)).perms
            pruned = brute_force_group(art.poly.phi, candidates=cands, flavor="linear")
            assert full.perm_set == pruned.perm_set

    def test_cyclic_polytope_strictly_smaller_than_sym(self, artifacts):
        art = artifacts["cyclic4_6"]
        group = brute_force_group(art.poly.phi, flavor="linear")
        assert group.order < math.factorial(6)
        assert group.perm_set == linear_group(art.poly, artifacts=art).perm_set


class TestEmbedding:
    def test_k44_strictly_fewer_than_graph_auts(self):
        cands = automorphisms(uncolored(k44_graph())).perms
        group = embedding_group(k44_coordinates(), candidates=cands, flavor="linear")
        assert len(cands) == 1152
        assert 0 < group.order < 1152

    def test_k44_transposition_rejected(self):
        cands = automorphisms(uncolored(k44_graph())).perms
        group = embedding_group(k44_coordinates(), candidates=cands, flavor="linear")
        assert (1, 0, 2, 3, 4, 5, 6, 7) not in group.perm_set
        assert tuple(range(8)) in group.perm_set

    def test_square_as_embedding_matches_pipeline(self, artifacts):
        art = artifacts["square"]
        group = embedding_group(art.poly.vertices, flavor="linear")
        assert group.perm_set == linear_group(art.poly, artifacts=art).perm_set

    def test_low_rank_coordinates_restricted_to_span(self):
        # square drawn in the z = 0 plane of R^3
        coords = np.hstack([square().vertices, np.zeros((4, 1))])
        assert embedding_group(coords, flavor="orthogonal").order == 8


class TestCompareGroups:
    def test_equal_groups(self, artifacts):
        art = artifacts["cube"]
        a = linear_group(art.poly, artifacts=art)
        b = brute_force_group(art.poly.phi, flavor="linear")
        report = compare_groups(a, b)
        assert report.equal and report.order_a == report.order_b == 48
        assert report.max_matrix_diff <= 1e-8

    def test_subset_difference_listed(self, artifacts):
        art = artifacts["rectangle"]
        lin = linear_group(art.poly, artifacts=art)
        orth = orthogonal_group(art.poly, artifacts=art)
        report = compare_groups(lin, orth)
        assert not report.equal
        assert len(report.only_in_a) == 4 and not report.only_in_b

    def test_self_comparison(self, artifacts):
        art = artifacts["square"]
        group = linear_group(art.poly, artifacts=art)
        report = compare_groups(group, group)
        assert report.equal and report.max_matrix_diff == 0.0
