import json
import math
import sys

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from polysym import (
    EdgeGraph,
    dual_edge_face,
    geometry,
    load_polytope,
    make_polytope,
    relative_volume,
    volume_generalized_dual,
)
from polysym.errors import DimensionMismatch, ParseError, Unbounded, ValidationError
from polysym.fixtures import FIXTURES, cube, hexagon, octahedron, square, triangle
from polysym.reconstruct import build_artifacts

SQUARE_DOC = {"name": "square", "dimension": 2,
              "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]}


class TestLoading:
    def test_square_document(self):
        poly = load_polytope(dict(SQUARE_DOC))
        assert poly.dim == 2 and poly.n == 4
        assert np.array_equal(poly.vertices[1], [-1, 1])  # order preserved

    def test_interior_point_rejected(self):
        doc = dict(SQUARE_DOC)
        doc["vertices"] = doc["vertices"] + [[0, 0]]
        with pytest.raises(ValidationError, match="non-extreme"):
            load_polytope(doc)

    def test_edge_midpoint_rejected(self):
        doc = dict(SQUARE_DOC)
        doc["vertices"] = doc["vertices"] + [[1, 0]]
        with pytest.raises(ValidationError, match="non-extreme"):
            load_polytope(doc)

    def test_translated_hexagon_origin_not_interior(self):
        verts = hexagon().vertices + np.array([5.0, 0.0])
        with pytest.raises(ValidationError, match="origin not interior"):
            make_polytope(2, verts)

    def test_recenter_fixes_translation(self):
        verts = hexagon().vertices + np.array([5.0, 0.0])
        poly = make_polytope(2, verts, recenter=True)
        assert np.allclose(poly.vertices.mean(axis=0), 0.0)

    def test_duplicate_vertices(self):
        with pytest.raises(ValidationError, match="duplicate"):
            make_polytope(2, [[1, 1], [1, 1], [-1, -1], [1, -1]])

    def test_flat_point_set(self):
        with pytest.raises(ValidationError, match="full-dimensional"):
            make_polytope(3, [[1, 1, 0], [-1, 1, 0], [-1, -1, 0], [1, -1, 0]])

    def test_dimension_one_rejected(self):
        # a segment's edge-graph has no edges, so no coloring can capture its symmetry
        with pytest.raises(ValidationError, match="dimension 1 < 2"):
            make_polytope(1, [[1], [-2]])
        with pytest.raises(ValidationError, match="dimension 1 < 2"):
            load_polytope({"dimension": 1, "vertices": [[1], [-2]]})

    def test_too_few_vertices(self):
        with pytest.raises(ValidationError, match="full-dimensional"):
            make_polytope(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    @pytest.mark.parametrize("doc", [
        {"vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]},
        {"dimension": 2},
        {"dimension": 2, "vertices": [[1, 1], [0, 1, 3]]},
        {"dimension": 2, "vertices": "nope"},
        {"dimension": -1, "vertices": [[1]]},
        {"dimension": 2, "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]], "name": 7},
    ])
    def test_parse_errors(self, doc):
        with pytest.raises(ParseError):
            load_polytope(doc)

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_polytope(bad)
        with pytest.raises(ParseError, match="cannot read"):
            load_polytope(tmp_path / "missing.json")

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "sq.json"
        path.write_text(json.dumps(SQUARE_DOC))
        poly = load_polytope(path)
        assert poly.name == "square"


class TestFacets:
    def test_square_normals(self):
        facets = square().facets
        got = {tuple(np.round(u, 9)) for u in facets.normals}
        assert got == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_cube_normals(self):
        facets = cube().facets
        got = {tuple(np.round(u, 9)) for u in facets.normals}
        expected = {tuple(s * e) for s in (1, -1) for e in np.eye(3, dtype=int)}
        assert got == {tuple(float(x) for x in v) for v in expected}

    def test_triangle_normals_at_radius_two(self):
        # solve <u, v1> = <u, v2> = 1 by hand for the facet through v1, v2:
        # v1 = (-1/2, s), v2 = (-1/2, -s) gives u = (-2, 0); all at radius 2
        facets = triangle().facets
        radii = np.linalg.norm(facets.normals, axis=1)
        assert np.allclose(radii, 2.0, atol=1e-9)
        assert any(np.allclose(u, [-2, 0], atol=1e-9) for u in facets.normals)

    @pytest.mark.parametrize("name", [n for n in FIXTURES if FIXTURES[n]().dim <= 3])
    def test_hull_searched_once(self, name, monkeypatch):
        # validation finds the facets the pipeline uses; the dual edge faces of
        # 2-D and 3-D polytopes are points or segments, which need no search
        calls = []
        search = geometry.supporting_hyperplanes
        monkeypatch.setattr(geometry, "supporting_hyperplanes",
                            lambda *a, **k: calls.append(1) or search(*a, **k))
        poly = FIXTURES[name]()
        art = build_artifacts(poly)
        assert len(calls) == 1
        assert art.poly.facets is poly.facets

    def test_plane_frames_are_fits_of_incident_sets(self, polytopes):
        rng = np.random.default_rng(5)
        clouds = [p.vertices for p in polytopes.values()]
        clouds += [rng.standard_normal((d + 5, d)) for d in (2, 3, 4)]
        for pts in clouds:
            d = pts.shape[1]
            for _, _, inc, (centroid, basis) in geometry.supporting_hyperplanes(pts, 1e-9):
                c, _, vt = geometry._affine_basis(pts[inc], 1e-9)
                assert np.array_equal(c, centroid) and np.array_equal(vt[: d - 1], basis)

    def test_every_vertex_on_at_least_d_facets(self, polytopes):
        for poly in polytopes.values():
            inc = poly.facets.incidence
            assert inc.sum(axis=0).min() >= poly.dim

    def test_euler_formula_3d(self, polytopes, artifacts):
        for name in ("cube", "octahedron", "prism3", "simplex3"):
            art = artifacts[name]
            v, e, f = art.poly.n, len(art.graph.edges), art.poly.facets.m
            assert v - e + f == 2


class TestEdgeGraph:
    def test_cube_is_q3(self, artifacts):
        graph = artifacts["cube"].graph
        assert len(graph.edges) == 12
        assert all(graph.degree(i) == 3 for i in range(8))
        # vertex order (x,y,z) lexicographic over {1,-1}: 0=(1,1,1), 1=(1,1,-1)
        assert (0, 1) in graph.edge_set and (0, 7) not in graph.edge_set

    def test_square_cycle_and_rejected_diagonal(self, artifacts):
        graph = artifacts["square"].graph
        assert graph.edge_set == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_cyclic_polytope_is_complete(self, artifacts):
        graph = artifacts["cyclic4_6"].graph
        assert len(graph.edges) == 15

    def test_adjacency_lists(self):
        graph = EdgeGraph(4, ((2, 1), (0, 1), (3, 1)))
        assert graph.edges == ((0, 1), (1, 2), (1, 3))
        assert graph.neighbors(1) == [0, 2, 3] and graph.neighbors(3) == [1]
        assert [graph.degree(i) for i in range(4)] == [1, 3, 1, 1]
        assert graph.is_connected()
        assert not EdgeGraph(4, ((0, 1), (2, 3))).is_connected()

    def test_connected_min_degree(self, artifacts):
        for art in artifacts.values():
            assert art.graph.is_connected()
            assert min(art.graph.degree(i) for i in range(art.poly.n)) >= art.poly.dim


class TestDualFaces:
    def test_square_edge_dual_is_point(self, artifacts):
        art = artifacts["square"]
        face = dual_edge_face(art.poly, (0, 1))
        assert face.points.shape[0] == 1
        assert face.relvol == 1.0

    def test_cube_edge_dual_segment(self, artifacts):
        art = artifacts["cube"]
        # edge (1,1,1)-(1,1,-1); shared facets x=1 and y=1, dual points e1, e2
        face = dual_edge_face(art.poly, (0, 1))
        got = {tuple(np.round(p, 9)) for p in face.points}
        assert got == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)}
        assert face.relvol == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_octahedron_edge_duals_positive(self, artifacts):
        art = artifacts["octahedron"]
        for e in art.graph.edges:
            face = dual_edge_face(art.poly, e)
            assert face.relvol == pytest.approx(2.0, abs=1e-9)

    def test_non_edge_raises(self, artifacts):
        art = artifacts["square"]
        with pytest.raises(DimensionMismatch):
            dual_edge_face(art.poly, (0, 2))


class TestRelativeVolume:
    def test_point_convention(self):
        assert relative_volume([[3.0, 7.0]]) == 1.0

    def test_segment_length(self):
        assert relative_volume([[1, 0, 0], [0, 1, 0]]) == pytest.approx(np.sqrt(2))

    def test_embedded_unit_square(self):
        pts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
        assert relative_volume(pts) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_standard_simplex(self, d):
        pts = np.vstack([np.zeros(d), np.eye(d)])
        assert relative_volume(pts) == pytest.approx(1.0 / math.factorial(d), rel=1e-9)

    def test_hull_volume_reuses_plane_frames(self, monkeypatch):
        callers = []
        fit = geometry._affine_basis

        def traced(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return fit(*args)

        monkeypatch.setattr(geometry, "_affine_basis", traced)
        pts = np.random.default_rng(3).standard_normal((9, 4))
        assert relative_volume(pts) == pytest.approx(ConvexHull(pts).volume, rel=1e-9)
        assert "supporting_hyperplanes" in callers and "_hull_volume" not in callers

    def test_isometry_invariance(self):
        from conftest import random_orthogonal
        rng = np.random.default_rng(7)
        for d in (2, 3, 4):
            pts = rng.standard_normal((d + 4, d))
            base = relative_volume(pts)
            for _ in range(5):
                q = random_orthogonal(rng, d)
                shift = rng.standard_normal(d)
                moved = pts @ q.T + shift
                assert relative_volume(moved) == pytest.approx(base, rel=1e-8)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_qhull(self, d):
        rng = np.random.default_rng(11 + d)
        pts = rng.standard_normal((d + 6, d))
        assert relative_volume(pts) == pytest.approx(ConvexHull(pts).volume, rel=1e-9)


class TestGeneralizedDualVolume:
    def test_cube_dual_is_cross_polytope(self):
        poly = cube()
        assert volume_generalized_dual(poly, np.ones(8)) == pytest.approx(4.0 / 3.0, rel=1e-10)

    def test_square_dual(self):
        assert volume_generalized_dual(square(), np.ones(4)) == pytest.approx(2.0, rel=1e-10)

    def test_triangle_dual(self):
        got = volume_generalized_dual(triangle(), np.ones(3))
        assert got == pytest.approx(3.0 * np.sqrt(3.0), rel=1e-10)

    def test_agrees_with_facet_normal_hull(self, artifacts):
        # two derivations of the dual's vertex set must give the same volume
        for art in artifacts.values():
            via_h_rep = volume_generalized_dual(art.poly, np.ones(art.poly.n))
            via_normals = relative_volume(art.poly.facets.normals)
            assert via_h_rep == pytest.approx(via_normals, rel=1e-9)

    @pytest.mark.parametrize("t", [0.95, 0.98, 1.0, 1.02, 1.05])
    def test_uniform_scaling_homogeneity(self, t):
        poly = octahedron()
        base = volume_generalized_dual(poly, np.ones(6))
        scaled = volume_generalized_dual(poly, t * np.ones(6))
        assert scaled == pytest.approx(t ** 3 * base, rel=1e-9)

    def test_trust_region_enforced(self):
        with pytest.raises(Unbounded):
            volume_generalized_dual(square(), np.array([1.0, 1.0, 1.0, 0.5]))
