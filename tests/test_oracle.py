import math
from itertools import islice, permutations

import numpy as np
import pytest

from helpers import FIXTURES, capped_prism, compare_groups, frame, k44_embedding, simplex
from polysym import oracle
from polysym.autgroup import PermutationSet, automorphisms, uncolored
from polysym.config import Tolerances
from polysym.errors import LimitExceeded, NotAGroup, RankDeficient
from polysym.oracle import brute_force_group
from polysym.reconstruct import MatrixGroup, linear_group, orthogonal_group


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
            assert tuple(range(poly.n)) in set(group.perm_group)

    def test_sym_stream_guard(self):
        phi = np.eye(2) @ np.random.default_rng(0).standard_normal((2, 10))
        with pytest.raises(LimitExceeded):
            brute_force_group(phi)

    def test_realized_set_not_closed_raises(self):
        # both candidates are realized, but without its powers the quarter-turn is no group
        with pytest.raises(NotAGroup):
            brute_force_group(FIXTURES["square"]().phi, candidates=[(0, 1, 2, 3), (1, 2, 3, 0)])

    def test_no_realized_candidate_raises(self):
        with pytest.raises(NotAGroup, match="no candidate"):
            brute_force_group(FIXTURES["square"]().phi, candidates=[(1, 2, 0, 3)])

    def test_realized_non_permutation_raises(self):
        # a singular map sends (1, 1) and (-1, 1) to (1, 1), and their negatives to (-1, -1)
        assert frame(FIXTURES["square"]().phi).check([(0, 0, 2, 2)], "linear")[1].all()
        with pytest.raises(NotAGroup, match="not a permutation"):
            brute_force_group(FIXTURES["square"]().phi, candidates=[(0, 1, 2, 3), (0, 0, 2, 2)])

    def test_pruned_candidates_equivalent(self, artifacts):
        # filtering Sym(V) and filtering the graph automorphisms agree:
        # geometric symmetries always induce graph automorphisms
        for name in ("square", "rectangle", "hexagon", "octahedron", "cyclic4_6"):
            art = artifacts[name]
            full = brute_force_group(art.poly.phi, flavor="linear")
            cands = automorphisms(uncolored(art.poly.n, art.poly.edges)).perms
            pruned = brute_force_group(art.poly.phi, candidates=cands, flavor="linear")
            assert set(full.perm_group) == set(pruned.perm_group)

    def test_cyclic_polytope_strictly_smaller_than_sym(self, artifacts):
        art = artifacts["cyclic4_6"]
        group = brute_force_group(art.poly.phi, flavor="linear")
        assert group.order < math.factorial(6)
        assert set(group.perm_group) == set(linear_group(art).perm_group)


def accepted_set(monkeypatch, phi, **kwargs) -> set:
    """The permutations the oracle accepts, recorded before its closure check (NotAGroup or not)."""
    seen = []
    monkeypatch.setattr(oracle, "PermutationSet",
                        lambda n, perms: seen.append(set(perms)) or PermutationSet(n, perms))
    try:
        brute_force_group(phi, **kwargs)
    except NotAGroup:
        pass
    return seen.pop()


MATCHES = (1e-8, 1e-4, 1e-2, 0.2)


class TestPrunedSymStream:
    """The pruned Sym(n) stream accepts exactly what the unpruned one does."""

    @pytest.mark.parametrize("noise", [0.0, 1e-9, 1e-6, 1e-3, 1e-2])
    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_same_accepted_set_as_unpruned(self, monkeypatch, polytopes, name, noise):
        phi = polytopes[name].phi
        assert phi.shape[1] <= 8
        rng = np.random.default_rng(list(FIXTURES).index(name))
        phi = phi + noise * np.abs(phi).max() * rng.standard_normal(phi.shape)
        for match in MATCHES:
            for flavor in ("linear", "orthogonal"):
                tol = Tolerances(match=match)
                pruned = accepted_set(monkeypatch, phi, flavor=flavor, tol=tol)
                full = accepted_set(monkeypatch, phi, flavor=flavor, tol=tol,
                                    candidates=permutations(range(phi.shape[1])))
                assert pruned == full, (match, flavor)

    @pytest.mark.parametrize("poly", [FIXTURES["hexagon"](), FIXTURES["octahedron"]()],
                             ids=["hexagon", "octahedron"])
    def test_vertex_at_origin(self, monkeypatch, poly):
        coords = np.vstack([poly.vertices, np.zeros(poly.dim)])
        n = len(coords)
        for match in MATCHES:
            for flavor in ("linear", "orthogonal"):
                tol = Tolerances(match=match)
                pruned = accepted_set(monkeypatch, coords.T, flavor=flavor, tol=tol)
                full = accepted_set(monkeypatch, coords.T, flavor=flavor, tol=tol,
                                    candidates=permutations(range(n)))
                assert pruned == full, (match, flavor)
                assert all(p[n - 1] == n - 1 for p in pruned)

    def test_unpruned_stream_is_lexicographic_sym(self):
        # nothing prunes on a regular simplex: the stream is Sym(9) itself, block by block
        stream = oracle._pruned_sym(simplex(8).phi, 1e-8)
        assert list(islice(stream, 5000)) == list(islice(permutations(range(9)), 5000))

    def test_capped_prism_lifts_under_one_percent(self, monkeypatch):
        lifted = []
        real = MatrixGroup.check

        def counting(group, perms, *args):
            lifted.append(len(perms))
            return real(group, perms, *args)

        monkeypatch.setattr(MatrixGroup, "check", counting)
        phi = capped_prism().phi
        for flavor in ("linear", "orthogonal"):
            lifted.clear()
            assert brute_force_group(phi, flavor=flavor).order == 12
            assert sum(lifted) < 0.01 * math.factorial(9)


SCALED_INPUTS = {name: (lambda f=f: f().vertices) for name, f in FIXTURES.items()}
SCALED_INPUTS["k44_embedding"] = lambda: k44_embedding()[0]


class TestScaleFree:
    """A uniformly scaled point set has the same permutation group, at any scale."""

    @pytest.mark.parametrize("flavor", ["linear", "orthogonal"])
    @pytest.mark.parametrize("k", range(-12, 13, 3))
    @pytest.mark.parametrize("name", list(SCALED_INPUTS))
    def test_scaled_group_unchanged(self, name, k, flavor):
        coords = SCALED_INPUTS[name]()
        assert len(coords) <= 8
        expected = set(brute_force_group(coords.T, flavor=flavor).perm_group)
        assert set(brute_force_group(coords.T * 10.0 ** k, flavor=flavor).perm_group) == expected


class TestEmbedding:
    def test_k44_strictly_fewer_than_graph_auts(self):
        coords, edges = k44_embedding()
        cands = automorphisms(uncolored(8, edges)).perms
        group = brute_force_group(coords.T, candidates=cands, flavor="linear")
        assert len(cands) == 1152
        assert 0 < group.order < 1152

    def test_k44_transposition_rejected(self):
        coords, edges = k44_embedding()
        cands = automorphisms(uncolored(8, edges)).perms
        group = brute_force_group(coords.T, candidates=cands, flavor="linear")
        assert (1, 0, 2, 3, 4, 5, 6, 7) not in set(group.perm_group)
        assert tuple(range(8)) in set(group.perm_group)

    def test_square_as_embedding_matches_pipeline(self, artifacts):
        art = artifacts["square"]
        group = brute_force_group(art.poly.vertices.T, flavor="linear")
        assert set(group.perm_group) == set(linear_group(art).perm_group)

    def test_low_rank_coordinates_restricted_to_span(self):
        # square drawn in the z = 0 plane of R^3
        coords = np.hstack([FIXTURES["square"]().vertices, np.zeros((4, 1))])
        assert brute_force_group(coords.T, flavor="orthogonal").order == 8

    @pytest.mark.parametrize("graph_auts", [False, True])
    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e170, 1e300])
    @pytest.mark.parametrize("points", ["k44", "square"])
    def test_group_at_extreme_scales(self, points, scale, graph_auts):
        # unscaled, phi @ phi.T under- or overflows here and the rank test fails
        coords, edges = (k44_embedding() if points == "k44"
                         else (FIXTURES["square"]().vertices, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        cands = automorphisms(uncolored(len(coords), edges)).perms if graph_auts else None
        unscaled = brute_force_group(coords.T, candidates=cands)
        group = brute_force_group(coords.T * scale, candidates=cands)
        assert group.order == unscaled.order and set(group.perm_group) == set(unscaled.perm_group)

    def test_points_at_the_origin_only_raise(self):
        with pytest.raises(RankDeficient, match="span no direction"):
            brute_force_group(np.zeros((3, 4)))


class TestCompareGroups:
    def test_equal_groups(self, artifacts):
        art = artifacts["cube"]
        a = linear_group(art)
        b = brute_force_group(art.poly.phi, flavor="linear")
        report = compare_groups(a, b)
        assert report.equal and report.order_a == report.order_b == 48
        assert report.max_matrix_diff <= 1e-8

    def test_subset_difference_listed(self, artifacts):
        art = artifacts["rectangle"]
        lin = linear_group(art)
        orth = orthogonal_group(art)
        report = compare_groups(lin, orth)
        assert not report.equal
        assert len(report.only_in_a) == 4 and not report.only_in_b

    def test_self_comparison(self, artifacts):
        art = artifacts["square"]
        group = linear_group(art)
        report = compare_groups(group, group)
        assert report.equal and report.max_matrix_diff == 0.0
