import numpy as np
import pytest

from conftest import random_invertible, random_orthogonal
from polysym import Tolerances, make_polytope
from polysym.autgroup import compose, uncolored
from polysym.errors import RankDeficient, TheoremViolation
from polysym.fixtures import k44_coordinates, rectangle, square, triangle
from polysym.reconstruct import (
    build_artifacts,
    check_orthogonal,
    check_realizes,
    eigenspace_criterion,
    linear_group,
    linear_map_from_perm,
    orthogonal_group,
    pseudo_inverse,
    verify_homomorphism,
)


class TestPseudoInverse:
    def test_square_quarter_transpose(self):
        phi = square().phi
        assert np.allclose(pseudo_inverse(phi), phi.T / 4.0, atol=1e-12)

    def test_triangle_two_thirds_transpose(self):
        phi = triangle().phi  # phi @ phi.T = (3/2) I for unit circumradius
        assert np.allclose(pseudo_inverse(phi), (2.0 / 3.0) * phi.T, atol=1e-12)

    def test_right_inverse_identity(self, polytopes):
        for poly in polytopes.values():
            pinv = pseudo_inverse(poly.phi)
            assert np.max(np.abs(poly.phi @ pinv - np.eye(poly.dim))) <= 1e-10

    def test_rank_deficient_rejected(self):
        phi = np.array([[1.0, -1.0, 2.0], [2.0, -2.0, 4.0]])  # rank 1
        with pytest.raises(RankDeficient):
            pseudo_inverse(phi)


class TestLinearMapFromPerm:
    def test_square_cycle_is_rotation(self):
        t = linear_map_from_perm(square().phi, (1, 2, 3, 0))
        assert np.allclose(t, [[0, -1], [1, 0]], atol=1e-12)

    def test_rectangle_cycle_is_sheared_rotation(self):
        t = linear_map_from_perm(rectangle().phi, (1, 2, 3, 0))
        assert np.allclose(t, [[0, -2], [0.5, 0]], atol=1e-12)
        assert check_realizes(t, (1, 2, 3, 0), rectangle().phi, 1e-8)
        assert not check_orthogonal(t, 1e-8)

    def test_identity_perm_gives_identity(self, polytopes):
        for poly in polytopes.values():
            t = linear_map_from_perm(poly.phi, tuple(range(poly.n)))
            assert np.allclose(t, np.eye(poly.dim), atol=1e-10)


class TestChecks:
    def test_k44_transposition_unrealizable(self):
        phi = k44_coordinates().T
        sigma = (1, 0, 2, 3, 4, 5, 6, 7)
        t = linear_map_from_perm(phi, sigma)
        assert not check_realizes(t, sigma, phi, 1e-8)

    def test_orthogonality(self):
        assert check_orthogonal(np.array([[0.0, -1.0], [1.0, 0.0]]), 1e-8)
        assert not check_orthogonal(np.array([[0.0, -2.0], [0.5, 0.0]]), 1e-8)
        assert check_orthogonal(np.eye(5), 1e-8)


class TestEigenspaceCriterion:
    def test_matrix_kernel_gives_zero(self, artifacts):
        for art in artifacts.values():
            ok, lam, _ = eigenspace_criterion(art.matrix.entries, art.poly.phi)
            assert ok and lam == pytest.approx(0.0, abs=1e-10)

    def test_projector_gives_one(self, polytopes):
        for poly in polytopes.values():
            phi = poly.phi
            proj = pseudo_inverse(phi) @ phi
            ok, lam, _ = eigenspace_criterion(proj, phi)
            assert ok and lam == pytest.approx(1.0, abs=1e-10)

    def test_random_symmetric_fails_with_residual(self):
        rng = np.random.default_rng(2)
        poly = square()
        a = rng.standard_normal((4, 4))
        a = (a + a.T) / 2
        ok, _, residual = eigenspace_criterion(a, poly.phi)
        assert not ok
        assert residual > 1e-3

    def test_threshold_is_the_ledger_eig_rel(self):
        # a projector nudged by 1e-6: the fit misses by about 1e-6 relative,
        # so only the ledger's eig_rel decides the verdict
        rng = np.random.default_rng(4)
        phi = square().phi
        a = rng.standard_normal((4, 4))
        a = pseudo_inverse(phi) @ phi + 1e-6 * (a + a.T) / 2
        strict = eigenspace_criterion(a, phi, Tolerances(eig_rel=1e-8))
        loose = eigenspace_criterion(a, phi, Tolerances(eig_rel=1e-4))
        assert not strict[0] and loose[0]
        assert strict[1:] == loose[1:]
        assert eigenspace_criterion(a, phi) == strict


class TestPipelineGroups:
    @pytest.mark.parametrize("name,lin,orth", [
        ("rectangle", 8, 4),
        ("cube", 48, 48),
        ("stretched_hexagon", 12, 4),
        ("square", 8, 8),
        ("hexagon", 12, 12),
    ])
    def test_orders(self, artifacts, name, lin, orth):
        art = artifacts[name]
        assert linear_group(art.poly, artifacts=art).order == lin
        assert orthogonal_group(art.poly, artifacts=art).order == orth

    def test_rectangle_contains_non_orthogonal_rotation(self, artifacts):
        art = artifacts["rectangle"]
        group = linear_group(art.poly, artifacts=art)
        t = group.matrix_for((1, 2, 3, 0))
        assert not check_orthogonal(t, 1e-8)

    def test_homomorphism(self, artifacts):
        for name in ("rectangle", "stretched_hexagon", "octahedron", "cyclic4_6"):
            art = artifacts[name]
            assert verify_homomorphism(linear_group(art.poly, artifacts=art), 1e-8)
            assert verify_homomorphism(orthogonal_group(art.poly, artifacts=art), 1e-8)

    def test_orthogonal_subset_of_linear(self, artifacts):
        for art in artifacts.values():
            lin = linear_group(art.poly, artifacts=art).perm_set
            orth = orthogonal_group(art.poly, artifacts=art).perm_set
            assert orth <= lin

    def test_identity_maps_to_identity(self, artifacts):
        art = artifacts["octahedron"]
        group = linear_group(art.poly, artifacts=art)
        assert np.allclose(group.matrix_for(tuple(range(6))), np.eye(3), atol=1e-10)

    def test_composition_matches_permutations(self, artifacts):
        art = artifacts["stretched_hexagon"]
        group = linear_group(art.poly, artifacts=art)
        perms = group.permutations()
        for p in perms[:6]:
            for q in perms[:6]:
                tp, tq = group.matrix_for(p), group.matrix_for(q)
                assert np.allclose(tp @ tq, group.matrix_for(compose(p, q)), atol=1e-9)

    def test_linear_invariance_under_gl(self, artifacts):
        rng = np.random.default_rng(17)
        for name in ("rectangle", "octahedron"):
            art = artifacts[name]
            base = linear_group(art.poly, artifacts=art).perm_set
            for _ in range(3):
                t = random_invertible(rng, art.poly.dim)
                moved = make_polytope(art.poly.dim, art.poly.vertices @ t.T)
                assert linear_group(moved).perm_set == base

    def test_orthogonal_invariance_under_rotations(self, artifacts):
        rng = np.random.default_rng(23)
        for name in ("rectangle", "prism3"):
            art = artifacts[name]
            base = orthogonal_group(art.poly, artifacts=art).perm_set
            for _ in range(3):
                q = random_orthogonal(rng, art.poly.dim)
                moved = make_polytope(art.poly.dim, art.poly.vertices @ q.T)
                assert orthogonal_group(moved).perm_set == base


def test_wrong_coloring_raises_theorem_violation(artifacts):
    # the uncolored edge-graph of a generic hexagon has 12 automorphisms,
    # none of which (except the identity) is geometric
    from polysym.reconstruct import _realize_group
    art = artifacts["perturbed_hexagon"]
    with pytest.raises(TheoremViolation):
        _realize_group(art, uncolored(art.graph),
                       "linear", __import__("polysym.config", fromlist=["x"]).DEFAULT_TOLERANCES,
                       10 ** 6)


def test_artifacts_reuse_consistent(polytopes):
    poly = polytopes["rectangle"]
    art = build_artifacts(poly)
    assert linear_group(poly).perm_set == linear_group(poly, artifacts=art).perm_set


@pytest.mark.parametrize("dim,seed", [(2, 0), (2, 1), (3, 2), (3, 3), (4, 4)])
def test_random_polytopes_match_oracle(dim, seed):
    # generic hulls: pipeline and brute force must agree even when the
    # answer is just the identity
    from scipy.spatial import ConvexHull

    from polysym.autgroup import automorphisms, uncolored
    from polysym.oracle import brute_force_group

    rng = np.random.default_rng(seed)
    cloud = rng.standard_normal((dim + 5, dim))
    hull_pts = cloud[ConvexHull(cloud).vertices]
    poly = make_polytope(dim, hull_pts - hull_pts.mean(axis=0))
    art = build_artifacts(poly)
    lin = linear_group(poly, artifacts=art)
    orth = orthogonal_group(poly, artifacts=art)
    cands = automorphisms(uncolored(art.graph)).perms
    assert lin.perm_set == brute_force_group(
        poly.phi, candidates=cands, flavor="linear").perm_set
    assert orth.perm_set == brute_force_group(
        poly.phi, candidates=cands, flavor="orthogonal").perm_set
