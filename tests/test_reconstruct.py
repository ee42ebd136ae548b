import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from conftest import random_invertible, random_orthogonal
from helpers import (
    FIXTURE_DIR,
    FIXTURES,
    check_realizes,
    cross_polytope,
    is_orthogonal,
    k44_embedding,
    linear_map_from_perm,
    member_maps,
    read_back,
    sphere_polytope,
    verify_homomorphism,
)
from polysym import DEFAULT_TOLERANCES, Tolerances, make_polytope
from polysym.autgroup import PermutationSet, automorphisms, compose, invert, uncolored
from polysym.cli import _group_doc, main
from polysym.errors import RankDeficient, TheoremViolation
from polysym.oracle import brute_force_group
from polysym.reconstruct import (
    build_artifacts,
    eigenspace_criterion,
    linear_group,
    orthogonal_group,
    pseudo_inverse,
)


class TestPseudoInverse:
    def test_square_quarter_transpose(self):
        phi = FIXTURES["square"]().phi
        assert np.allclose(pseudo_inverse(phi), phi.T / 4.0, atol=1e-12)

    def test_triangle_two_thirds_transpose(self):
        phi = FIXTURES["triangle"]().phi  # phi @ phi.T = (3/2) I for unit circumradius
        assert np.allclose(pseudo_inverse(phi), (2.0 / 3.0) * phi.T, atol=1e-12)

    def test_right_inverse_identity(self, polytopes):
        for poly in polytopes.values():
            pinv = pseudo_inverse(poly.phi)
            assert np.max(np.abs(poly.phi @ pinv - np.eye(poly.dim))) <= 1e-10

    def test_rank_deficient_rejected(self):
        phi = np.array([[1.0, -1.0, 2.0], [2.0, -2.0, 4.0]])  # rank 1
        with pytest.raises(RankDeficient):
            pseudo_inverse(phi)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_repeated_row_rejected(self, d):
        # no rank test precedes the solve: an exactly singular Gram matrix fails
        # in solve, a nearly singular one in the residual, both as RankDeficient
        phi = np.random.default_rng(d).standard_normal((d, 3 * d))
        phi[-1] = phi[0]
        with pytest.raises(RankDeficient):
            pseudo_inverse(phi)


class TestLinearMapFromPerm:
    def test_square_cycle_is_rotation(self):
        t = linear_map_from_perm(FIXTURES["square"]().phi, (1, 2, 3, 0))
        assert np.allclose(t, [[0, -1], [1, 0]], atol=1e-12)

    def test_rectangle_cycle_is_sheared_rotation(self):
        t = linear_map_from_perm(FIXTURES["rectangle"]().phi, (1, 2, 3, 0))
        assert np.allclose(t, [[0, -2], [0.5, 0]], atol=1e-12)
        assert check_realizes(t, (1, 2, 3, 0), FIXTURES["rectangle"]().phi, 1e-8)
        assert not is_orthogonal(t, 1e-8)

    def test_identity_perm_gives_identity(self, polytopes):
        for poly in polytopes.values():
            t = linear_map_from_perm(poly.phi, tuple(range(poly.n)))
            assert np.allclose(t, np.eye(poly.dim), atol=1e-10)


class TestChecks:
    def test_k44_transposition_unrealizable(self):
        phi = k44_embedding()[0].T
        sigma = (1, 0, 2, 3, 4, 5, 6, 7)
        t = linear_map_from_perm(phi, sigma)
        assert not check_realizes(t, sigma, phi, 1e-8)

    def test_orthogonality(self):
        assert is_orthogonal(np.array([[0.0, -1.0], [1.0, 0.0]]), 1e-8)
        assert not is_orthogonal(np.array([[0.0, -2.0], [0.5, 0.0]]), 1e-8)
        assert is_orthogonal(np.eye(5), 1e-8)


class TestEigenspaceCriterion:
    def test_matrix_kernel_gives_zero(self, artifacts):
        for art in artifacts.values():
            ok, lam, _ = eigenspace_criterion(art.matrix, art.poly.phi)
            assert ok and lam == pytest.approx(0.0, abs=1e-10)

    def test_projector_gives_one(self, polytopes):
        for poly in polytopes.values():
            phi = poly.phi
            proj = pseudo_inverse(phi) @ phi
            ok, lam, _ = eigenspace_criterion(proj, phi)
            assert ok and lam == pytest.approx(1.0, abs=1e-10)

    def test_random_symmetric_fails_with_residual(self):
        rng = np.random.default_rng(2)
        poly = FIXTURES["square"]()
        a = rng.standard_normal((4, 4))
        a = (a + a.T) / 2
        ok, _, residual = eigenspace_criterion(a, poly.phi)
        assert not ok
        assert residual > 1e-3

    def test_threshold_is_the_ledger_eig_rel(self):
        # a projector nudged by 1e-6: the fit misses by about 1e-6 relative,
        # so only the ledger's eig_rel decides the verdict
        rng = np.random.default_rng(4)
        phi = FIXTURES["square"]().phi
        a = rng.standard_normal((4, 4))
        a = pseudo_inverse(phi) @ phi + 1e-6 * (a + a.T) / 2
        strict = eigenspace_criterion(a, phi, Tolerances(eig_rel=1e-8))
        loose = eigenspace_criterion(a, phi, Tolerances(eig_rel=1e-4))
        assert not strict[0] and loose[0]
        assert strict[1:] == loose[1:]
        assert eigenspace_criterion(a, phi) == strict

    def test_threshold_scales_with_the_matrix(self):
        # the same nudged projector scaled by 1e-6: its misfit scales alike,
        # so no absolute floor may pass it under the strict ledger
        rng = np.random.default_rng(4)
        phi = FIXTURES["square"]().phi
        a = rng.standard_normal((4, 4))
        a = 1e-6 * (pseudo_inverse(phi) @ phi + 1e-6 * (a + a.T) / 2)
        assert not eigenspace_criterion(a, phi, Tolerances(eig_rel=1e-8))[0]
        assert eigenspace_criterion(a, phi, Tolerances(eig_rel=1e-4))[0]


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
        assert linear_group(art).order == lin
        assert orthogonal_group(art).order == orth

    def test_no_vertex_cap(self):
        # the prism over a regular 33-gon: 66 vertices, |G| = 2 * 2 * 33 in both flavors
        angles = 2.0 * np.pi * np.arange(33) / 33
        ring = np.column_stack([np.cos(angles), np.sin(angles)])
        poly = make_polytope(3, np.vstack([np.column_stack([ring, np.full(33, z)])
                                           for z in (1.0, -1.0)]))
        art = build_artifacts(poly)
        assert poly.n == 66
        assert linear_group(art).order == orthogonal_group(art).order == 132

    def test_rectangle_contains_non_orthogonal_rotation(self, artifacts):
        art = artifacts["rectangle"]
        group = linear_group(art)
        t = member_maps(group)[(1, 2, 3, 0)]
        assert not is_orthogonal(t, 1e-8)

    def test_homomorphism(self, artifacts):
        for name in ("rectangle", "stretched_hexagon", "octahedron", "cyclic4_6"):
            art = artifacts[name]
            assert verify_homomorphism(linear_group(art), 1e-8)
            assert verify_homomorphism(orthogonal_group(art), 1e-8)

    def test_orthogonal_subset_of_linear(self, artifacts):
        for art in artifacts.values():
            lin = set(linear_group(art).perm_group)
            orth = set(orthogonal_group(art).perm_group)
            assert orth <= lin

    def test_identity_maps_to_identity(self, artifacts):
        art = artifacts["octahedron"]
        group = linear_group(art)
        assert np.allclose(member_maps(group)[tuple(range(6))], np.eye(3), atol=1e-10)

    def test_composition_matches_permutations(self, artifacts):
        art = artifacts["stretched_hexagon"]
        group = linear_group(art)
        perms, maps = group.perm_group.perms, member_maps(group)
        for p in perms[:6]:
            for q in perms[:6]:
                assert np.allclose(maps[p] @ maps[q], maps[compose(p, q)], atol=1e-9)

    def test_linear_invariance_under_gl(self, artifacts):
        rng = np.random.default_rng(17)
        for name in ("rectangle", "octahedron"):
            art = artifacts[name]
            base = set(linear_group(art).perm_group)
            for _ in range(3):
                t = random_invertible(rng, art.poly.dim)
                moved = make_polytope(art.poly.dim, art.poly.vertices @ t.T)
                assert set(linear_group(build_artifacts(moved)).perm_group) == base

    def test_orthogonal_invariance_under_rotations(self, artifacts):
        rng = np.random.default_rng(23)
        for name in ("rectangle", "prism3"):
            art = artifacts[name]
            base = set(orthogonal_group(art).perm_group)
            for _ in range(3):
                q = random_orthogonal(rng, art.poly.dim)
                moved = make_polytope(art.poly.dim, art.poly.vertices @ q.T)
                assert set(orthogonal_group(build_artifacts(moved)).perm_group) == base


@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf"), 0.0])
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Tolerances)])
def test_tolerances_must_be_positive_finite(field, value):
    # color_rel = -1 would split every class (the cube's order 48 falls to 1), and
    # kernel = nan would switch the kernel residual guard off
    with pytest.raises(ValueError, match=f"^{field} must be a positive finite number"):
        Tolerances(**{field: value})


# scale exponents k for 10^k; the 4-d fixtures stay out at 1e+-100, since their matrix,
# M(sP) = s^-d M(P), is about 1e-+400 there: past float range, by underflow or overflow
SCALES = [(name, k) for name in FIXTURES for k in range(-12, 13, 3)] + [
    (name, k) for name in FIXTURES if name not in ("simplex4", "cyclic4_6") for k in (-100, 100)]


class TestScaleFree:
    """A uniformly scaled polytope has the same permutation groups, at any scale."""

    @pytest.mark.parametrize("name,k", SCALES)
    def test_scaled_groups_unchanged(self, artifacts, name, k):
        art = artifacts[name]
        scaled = build_artifacts(make_polytope(art.poly.dim, art.poly.vertices * 10.0 ** k))
        for pipeline in (linear_group, orthogonal_group):
            assert set(pipeline(scaled).perm_group) == set(pipeline(art).perm_group), pipeline

    @pytest.mark.parametrize("name", list(FIXTURES))
    @pytest.mark.parametrize("j", [-200, -100, -1, 1, 100, 200])
    def test_power_of_two_scaling_is_exact(self, artifacts, name, j):
        # every stage sees the same unit-scale bits, so the matrix is exactly 2^(-jd) times
        # the unscaled one, and each member's map is the unscaled one, bit for bit
        art = artifacts[name]
        scaled = build_artifacts(make_polytope(art.poly.dim, np.ldexp(art.poly.vertices, j)))
        assert np.array_equal(scaled.matrix, np.ldexp(art.matrix, -j * art.poly.dim))
        for pipeline in (linear_group, orthogonal_group):
            want, got = member_maps(pipeline(art)), member_maps(pipeline(scaled))
            assert sorted(got) == sorted(want), pipeline
            assert all(np.array_equal(got[p], want[p]) for p in want), pipeline

    @pytest.mark.parametrize("k", [-40, 40])
    def test_generic_6d_groups_unchanged(self, k):
        # at 1e+-40 its dual faces' Gram determinants, taken in input units, leave float range
        poly = sphere_polytope(12, 6, seed=1)
        base = build_artifacts(poly)
        scaled = build_artifacts(make_polytope(6, poly.vertices * 10.0 ** k))
        for pipeline in (linear_group, orthogonal_group):
            assert set(pipeline(scaled).perm_group) == set(pipeline(base).perm_group), pipeline


class TestRelabelling:
    """Relabelling the vertices by pi conjugates the group by pi and keeps every member's map."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_group_is_conjugated(self, artifacts, name, seed):
        art = artifacts[name]
        old_of_new = tuple(np.random.default_rng(seed).permutation(art.poly.n).tolist())
        pi = invert(old_of_new)     # pi[j]: the new label of old vertex j
        moved = build_artifacts(make_polytope(art.poly.dim, art.poly.vertices[list(old_of_new)]))
        for pipeline in (linear_group, orthogonal_group):
            expected = {compose(pi, compose(p, old_of_new)): t
                        for p, t in member_maps(pipeline(art)).items()}
            got = member_maps(pipeline(moved))
            assert set(got) == set(expected), pipeline
            for p, t in got.items():
                ref = expected[p]
                assert np.max(np.abs(t - ref)) <= 1e-9 * np.max(np.abs(ref)), (pipeline, p)


def both_builds(art, flavor):
    """The pipeline group and the oracle group of one flavor."""
    cands = automorphisms(uncolored(art.poly.n, art.poly.edges)).perms
    pipeline = linear_group if flavor == "linear" else orthogonal_group
    return (pipeline(art),
            brute_force_group(art.poly.phi, candidates=cands, flavor=flavor))


class TestMatrixGroup:
    @pytest.mark.parametrize("flavor", ["linear", "orthogonal"])
    def test_maps_realize_their_members(self, artifacts, flavor):
        for name, art in artifacts.items():
            phi = art.poly.phi
            for group in both_builds(art, flavor):
                perms = group.perm_group.perms
                maps, _ = group.lift(perms)
                assert maps.shape == (len(perms), art.poly.dim, art.poly.dim), name
                for k in range(len(perms)):
                    assert check_realizes(maps[k], perms[k], phi, 1e-8), (name, perms[k])

    @pytest.mark.parametrize("flavor", ["linear", "orthogonal"])
    def test_lift_does_not_depend_on_the_batch(self, artifacts, flavor):
        # a listing lifts its members chunk by chunk: each map must be the
        # bits the one batch of all members gives
        for name, art in artifacts.items():
            for group in both_builds(art, flavor):
                perms = group.perm_group.perms
                maps, orth = group.lift(perms)
                for size in (1, 3):
                    parts = [group.lift(perms[lo:lo + size]) for lo in range(0, len(perms), size)]
                    assert np.array_equal(np.concatenate([m for m, _ in parts]), maps), name
                    assert np.array_equal(np.concatenate([r for _, r in parts]), orth), name

    @pytest.mark.parametrize("flavor", ["linear", "orthogonal"])
    def test_check_lifts_as_lift_does(self, artifacts, flavor):
        # check's maps are lift's, to the bit, in any batch
        for name, art in artifacts.items():
            for group in both_builds(art, flavor):
                perms = group.perm_group.perms
                maps, ok, _ = group.check(perms, flavor)
                assert ok.all(), name
                assert np.array_equal(maps, group.lift(perms)[0]), name
                for size in (1, 3):
                    parts = [group.check(perms[lo:lo + size], flavor)[0]
                             for lo in range(0, len(perms), size)]
                    assert np.array_equal(np.concatenate(parts), maps), name

    @pytest.mark.parametrize("flavor", ["linear", "orthogonal"])
    def test_report_flags_match_definition(self, artifacts, flavor):
        tol = DEFAULT_TOLERANCES
        for name, art in artifacts.items():
            for group in both_builds(art, flavor):
                assert group.tol == tol, name
                members = read_back(_group_doc(group, flavor))["members"]
                assert [tuple(m["perm"]) for m in members] == list(group.perm_group.perms)
                assert [m["orthogonal"] for m in members] == [
                    is_orthogonal(np.array(m["matrix"]), tol.orth) for m in members], name

    def test_stretched_hexagon_linear_flags(self, artifacts):
        # 12 linear symmetries, of which only the 4 orthogonal ones are flagged
        art = artifacts["stretched_hexagon"]
        for group in both_builds(art, "linear"):
            members = read_back(_group_doc(group, "linear"))["members"]
            flags = [m["orthogonal"] for m in members]
            assert (flags.count(True), flags.count(False)) == (4, 8)


class TestOneLedger:
    """Every stage reads the ledger its polytope was validated under."""

    FLAGS = ("--eps-match", "1e-7", "--eps-orth", "1e-6")
    ECHO = {"match": 1e-7, "orth": 1e-6}

    def test_pipeline_quantizes_under_the_polytope_ledger(self, polytopes):
        # as `analyze --eps-color 1e6`: one color class keeps the generic
        # hexagon's 12 cycle automorphisms, and only the identity lifts
        base = polytopes["perturbed_hexagon"]
        poly = make_polytope(base.dim, base.vertices, tol=Tolerances(color_rel=1e6))
        with pytest.raises(TheoremViolation):
            linear_group(build_artifacts(poly))

    def test_pipeline_report_echoes_the_polytope_ledger(self, capsys):
        assert main(["analyze", str(FIXTURE_DIR / "cube.json"), *self.FLAGS]) == 0
        groups = json.loads(capsys.readouterr().out)["groups"]
        assert [g["tolerances"] for g in groups.values()] == [self.ECHO] * 2

    def test_oracle_report_echoes_its_ledger(self, capsys):
        argv = ["oracle", str(FIXTURE_DIR / "square.json"), "--flavor", "orthogonal"]
        assert main([*argv, *self.FLAGS]) == 0
        group = json.loads(capsys.readouterr().out)["group"]
        assert group["order"] == 8
        assert group["tolerances"] == self.ECHO


def test_wrong_coloring_raises_theorem_violation(artifacts):
    # the uncolored edge-graph of a generic hexagon has 12 automorphisms,
    # none of which (except the identity) is geometric
    from polysym.reconstruct import _realize_group
    art = artifacts["perturbed_hexagon"]
    graph = uncolored(art.poly.n, art.poly.edges)
    with pytest.raises(TheoremViolation, match="not realized") as exc:
        _realize_group(art, graph, "linear")
    assert exc.value.diagnostic["perm"] in automorphisms(graph).generators
    # the stretched hexagon's 12 linear symmetries hold 8 that are not orthogonal
    art = artifacts["stretched_hexagon"]
    with pytest.raises(TheoremViolation, match="not orthogonal") as exc:
        _realize_group(art, art.izm_coloring, "orthogonal")
    assert exc.value.diagnostic["perm"] in automorphisms(art.izm_coloring).generators


def test_pipelines_do_no_per_member_work(monkeypatch):
    # |G| = 46 080: only the generators are lifted and checked, and the
    # sorted members are never listed
    reads = []
    monkeypatch.setattr(PermutationSet, "perms", property(lambda group: reads.append(group)))
    art = build_artifacts(cross_polytope(6))
    tracemalloc.start()
    try:
        groups = [linear_group(art), orthogonal_group(art)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [g.order for g in groups] == [46080, 46080]
    assert peak < 5 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
    assert reads == []


def test_artifacts_reuse_consistent(polytopes):
    poly = polytopes["rectangle"]
    art = build_artifacts(poly)
    assert set(linear_group(build_artifacts(poly)).perm_group) == set(linear_group(art).perm_group)


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
    lin = linear_group(art)
    orth = orthogonal_group(art)
    cands = automorphisms(uncolored(art.poly.n, art.poly.edges)).perms
    assert set(lin.perm_group) == set(brute_force_group(
        poly.phi, candidates=cands, flavor="linear").perm_group)
    assert set(orth.perm_group) == set(brute_force_group(
        poly.phi, candidates=cands, flavor="orthogonal").perm_group)
