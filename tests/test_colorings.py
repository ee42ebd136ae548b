import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_invertible
from polysym import EdgeGraph, edge_graph, make_polytope
from polysym.autgroup import automorphisms, uncolored
from polysym.colorings import (
    Coloring,
    complete_metric,
    is_finer,
    izmestiev_coloring,
    metric_coloring,
    orbit_coloring,
    product_coloring,
    quantize,
)
from polysym.errors import DomainMismatch, NotAGroup
from polysym.izmestiev import izmestiev_matrix

C4 = EdgeGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
C4_EDGES = {e: 0.0 for e in C4.edges}


def partition(coloring):
    return ([tuple(c) for c in coloring.vertex_classes()],
            [tuple(map(tuple, c)) for c in coloring.edge_classes()])


class TestQuantize:
    def test_sub_tolerance_jitter_merges(self):
        col = quantize([2.0, 2.0, 2.0 + 1e-13], C4_EDGES)
        assert col.num_vertex_classes == 1

    def test_distinct_values_split(self):
        col = quantize([0, 0, 0, 0], {(0, 1): -3.0, (1, 2): 3.0, (2, 3): -3.0, (0, 3): 3.0})
        assert col.num_edge_classes == 2
        assert col.edge[(0, 1)] == col.edge[(2, 3)] != col.edge[(1, 2)]

    def test_gap_rule_chaining(self):
        # values closer than eps chain into one class; a gap beyond eps splits
        eps = 1e-8
        col = quantize([0.0, 0.5 * eps, 1.6 * eps, 0.0], C4_EDGES)
        assert col.vertex[0] == col.vertex[1] == col.vertex[3]
        assert col.vertex[2] != col.vertex[0]

    def test_class_numbering_by_ascending_value(self):
        col = quantize([5.0, -1.0, 3.0, -1.0], C4_EDGES)
        assert col.vertex == (2, 0, 1, 0)
        assert col.vertex_reps == (-1.0, 3.0, 5.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12))
    def test_classes_are_intervals(self, values):
        n = len(values)
        col = quantize(values, {})
        order = np.argsort(values, kind="stable")
        ids = [col.vertex[i] for i in order]
        assert ids == sorted(ids)  # class ids ascend with sorted values


class TestMetricColoring:
    def test_square(self, artifacts):
        col = metric_coloring(artifacts["square"].poly, artifacts["square"].graph)
        assert col.num_vertex_classes == 1 and col.num_edge_classes == 1
        assert col.vertex_reps == (2.0,) and col.edge_reps == (0.0,)

    def test_rectangle(self, artifacts):
        col = artifacts["rectangle"].met_coloring
        assert col.num_vertex_classes == 1 and col.vertex_reps == (5.0,)
        assert col.num_edge_classes == 2 and col.edge_reps == (-3.0, 3.0)

    def test_hexagon_transitive(self, artifacts):
        col = artifacts["hexagon"].met_coloring
        assert col.num_vertex_classes == 1 and col.num_edge_classes == 1


class TestIzmestievColoring:
    def test_rectangle_coarser_than_metric(self, artifacts):
        art = artifacts["rectangle"]
        izm = art.izm_coloring
        assert izm.num_vertex_classes == 1 and izm.num_edge_classes == 1
        assert izm.vertex_reps[0] == pytest.approx(0.0, abs=1e-12)
        assert izm.edge_reps[0] == pytest.approx(-0.25)
        assert is_finer(art.met_coloring, izm)
        assert not is_finer(izm, art.met_coloring)

    def test_cube(self, artifacts):
        col = artifacts["cube"].izm_coloring
        assert col.num_vertex_classes == 1 and col.num_edge_classes == 1
        assert col.vertex_reps[0] == pytest.approx(0.5)
        assert col.edge_reps[0] == pytest.approx(-0.5)

    def test_partition_invariant_under_linear_maps(self, artifacts):
        rng = np.random.default_rng(5)
        for name in ("rectangle", "cube", "cyclic4_6"):
            art = artifacts[name]
            base = partition(art.izm_coloring)
            for _ in range(3):
                t = random_invertible(rng, art.poly.dim)
                moved = make_polytope(art.poly.dim, art.poly.vertices @ t.T)
                col2 = izmestiev_coloring(izmestiev_matrix(moved, edge_graph(moved)))
                assert partition(col2) == base


class TestProductColoring:
    def test_rectangle_product(self, artifacts):
        art = artifacts["rectangle"]
        prod = art.prod_coloring
        assert prod.num_vertex_classes == 1
        assert prod.num_edge_classes == 2
        assert set(prod.edge_reps) == {(0, 0), (0, 1)}  # one matrix class x two metric classes

    def test_idempotent(self, artifacts):
        col = artifacts["rectangle"].met_coloring
        assert partition(product_coloring(col, col)) == partition(col)

    def test_constant_is_identity(self, artifacts):
        art = artifacts["rectangle"]
        col = art.met_coloring
        const = Coloring(vertex=(0,) * 4, edge={e: 0 for e in art.graph.edges})
        assert partition(product_coloring(col, const)) == partition(col)

    def test_refines_both_factors(self, artifacts):
        art = artifacts["rectangle"]
        prod = art.prod_coloring
        assert is_finer(prod, art.izm_coloring)
        assert is_finer(prod, art.met_coloring)

    def test_domain_mismatch(self, artifacts):
        with pytest.raises(DomainMismatch):
            product_coloring(artifacts["square"].met_coloring,
                             artifacts["cube"].met_coloring)

    def test_aut_is_intersection(self, artifacts):
        for art in artifacts.values():
            a1 = set(automorphisms(art.izm_coloring).perms)
            a2 = set(automorphisms(art.met_coloring).perms)
            ap = set(automorphisms(art.prod_coloring).perms)
            assert ap == a1 & a2


class TestCompleteMetric:
    def test_square_orthogonal_variant(self):
        from polysym.fixtures import square
        col = complete_metric(square(), "orthogonal")
        # Gram: diag 2, adjacent 0, opposite -2
        assert col.num_vertex_classes == 1
        assert col.num_edge_classes == 2
        assert col.edge_reps == (-2.0, 0.0)

    def test_square_linear_variant_same_partition(self):
        from polysym.fixtures import square
        orth = complete_metric(square(), "orthogonal")
        lin = complete_metric(square(), "linear")
        assert partition(lin) == partition(orth)

    def test_linear_variant_gl_invariant(self):
        # projector phi^+ phi is unchanged under phi -> T phi
        from polysym.fixtures import rectangle, square
        assert partition(complete_metric(rectangle(), "linear")) == \
            partition(complete_metric(square(), "linear"))

    def test_unknown_variant(self):
        from polysym.fixtures import square
        with pytest.raises(ValueError):
            complete_metric(square(), "affine")


class TestOrbitColoring:
    def test_full_dihedral_is_transitive(self):
        dihedral = automorphisms(uncolored(C4)).perms
        col = orbit_coloring(C4, dihedral)
        assert col.num_vertex_classes == 1 and col.num_edge_classes == 1

    def test_klein_subgroup(self):
        # diagonal reflections only: vertex orbits {0,2} and {1,3}, edges all one orbit
        klein = [(0, 1, 2, 3), (2, 1, 0, 3), (0, 3, 2, 1), (2, 3, 0, 1)]
        col = orbit_coloring(C4, klein)
        assert partition(col)[0] == [(0, 2), (1, 3)]
        assert col.num_edge_classes == 1

    def test_trivial_group(self):
        col = orbit_coloring(C4, [(0, 1, 2, 3)])
        assert col.num_vertex_classes == 4 and col.num_edge_classes == 4

    def test_not_closed_rejected(self):
        with pytest.raises(NotAGroup):
            orbit_coloring(C4, [(0, 1, 2, 3), (1, 2, 3, 0), (0, 3, 2, 1)])

    def test_non_automorphism_rejected(self):
        path_breaker = [(0, 1, 2, 3), (1, 0, 2, 3)]  # (01) breaks C4's edges
        with pytest.raises(NotAGroup):
            orbit_coloring(C4, path_breaker)

    def test_fixpoint_of_pipeline_groups(self, artifacts):
        from polysym.reconstruct import linear_group, orthogonal_group
        for name in ("rectangle", "stretched_hexagon", "octahedron"):
            art = artifacts[name]
            for builder in (linear_group, orthogonal_group):
                group = builder(art.poly, artifacts=art)
                col = orbit_coloring(art.graph, group.permutations())
                again = automorphisms(col)
                assert set(again.perms) == set(group.permutations())


class TestFiner:
    def test_identical_colorings_finer_both_ways(self, artifacts):
        col = artifacts["square"].met_coloring
        assert is_finer(col, col)

    def test_finer_implies_aut_containment(self, artifacts):
        for art in artifacts.values():
            fine = art.prod_coloring
            for coarse in (art.izm_coloring, art.met_coloring):
                assert is_finer(fine, coarse)
                a_fine = set(automorphisms(fine).perms)
                a_coarse = set(automorphisms(coarse).perms)
                assert a_fine <= a_coarse

    def test_domain_mismatch(self, artifacts):
        with pytest.raises(DomainMismatch):
            is_finer(artifacts["square"].met_coloring, artifacts["cube"].met_coloring)


def test_metric_preserved_by_orthogonal_symmetries(artifacts):
    # norms and inner products are isometry invariants
    from polysym.oracle import brute_force_group
    for name in ("square", "rectangle", "hexagon", "octahedron"):
        art = artifacts[name]
        group = brute_force_group(art.poly.phi, flavor="orthogonal")
        col = art.met_coloring
        for sigma, _ in group.pairs:
            assert all(col.vertex[sigma[i]] == col.vertex[i] for i in range(art.poly.n))
            for (i, j), c in col.edge.items():
                image = tuple(sorted((sigma[i], sigma[j])))
                assert col.edge[image] == c
