import json
import math
from itertools import combinations, permutations, product

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components
from scipy.spatial import ConvexHull

from helpers import (
    FIXTURES,
    adjacency,
    cross_polytope,
    dual_edge_face,
    hypercube,
    lattice_faces,
    loop_validation_error,
    relative_volume,
    sphere_polytope,
    volume_generalized_dual,
)
from polysym import (
    DEFAULT_TOLERANCES,
    geometry,
    load_polytope,
    make_polytope,
)
from polysym.errors import (DegenerateGeometry, NumericalInstability, ParseError, Unbounded,
                            ValidationError)
from polysym.izmestiev import izmestiev_matrix
from polysym.reconstruct import build_artifacts

# polytopes beyond the fixtures, up to d = 6, built on demand
LADDER = {
    "cube4": lambda: hypercube(4),
    "cross4": lambda: cross_polytope(4),
    "cross5": lambda: cross_polytope(5),
    "cross6": lambda: cross_polytope(6),
    "sphere16_5": lambda: sphere_polytope(16, 5, seed=0),
    "sphere12_6": lambda: sphere_polytope(12, 6, seed=0),
}


def facet_volumes(poly, c):
    """``geometry.dual_facet_volumes`` at one offset vector: one ray of one region."""
    return geometry.dual_facet_volumes(poly, np.asarray(c, dtype=float)[None, None])[0, 0]


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
        verts = FIXTURES["hexagon"]().vertices + np.array([5.0, 0.0])
        with pytest.raises(ValidationError, match="origin not interior"):
            make_polytope(2, verts)

    def test_recenter_fixes_translation(self):
        verts = FIXTURES["hexagon"]().vertices + np.array([5.0, 0.0])
        poly = make_polytope(2, verts, recenter=True)
        assert np.allclose(poly.vertices.mean(axis=0), 0.0)

    def test_duplicate_vertices(self):
        with pytest.raises(ValidationError, match="duplicate"):
            make_polytope(2, [[1, 1], [1, 1], [-1, -1], [1, -1]])

    def test_duplicate_vertices_names_first_pair(self):
        # the pairwise loop the one-pass check replaced is the reference:
        # nine draws from the hexagon's six vertices always repeat one
        rng = np.random.default_rng(4)
        for _ in range(20):
            verts = FIXTURES["hexagon"]().vertices[rng.integers(0, 6, size=9)]
            i, j = next((i, j) for i, j in combinations(range(9), 2)
                        if np.array_equal(verts[i], verts[j]))
            with pytest.raises(ValidationError, match=f"duplicate vertices: {i} and {j}$"):
                make_polytope(2, verts)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate(self, bad):
        with pytest.raises(ValidationError, match="^non-finite vertex coordinate$"):
            make_polytope(2, [[1, 0], [0, 1], [-1, bad]])

    # vertex 2, (0, delta, 0), nears the segment from vertex 0 to vertex 1 as delta shrinks:
    # each of validation's checks in turn is the first to reject the tetrahedron
    @pytest.mark.parametrize("delta,error,message", [
        (1e-6, None, None),
        (1e-8, ValidationError, "non-extreme point: vertex 0"),
        (5e-9, ValidationError, "non-extreme point: vertex 0"),
        (2e-9, DegenerateGeometry, "facet vertices do not span a supporting hyperplane"),
        (1e-9, ValidationError, "not full-dimensional: vertices lie in a proper affine subspace"),
        (1e-12, ValidationError, "not full-dimensional: vertices lie in a proper affine subspace"),
    ])
    def test_thin_tetrahedron(self, delta, error, message):
        verts = [[-1, 0, 0], [1, 0, 0], [0, delta, 0], [0, 1, 1]]
        if error is None:
            poly = make_polytope(3, verts, recenter=True)
            assert (len(poly.incidence), len(poly.edges)) == (4, 6)
            return
        with pytest.raises(error) as exc:
            make_polytope(3, verts, recenter=True)
        assert type(exc.value) is error and str(exc.value) == message

    # the thinning tetrahedron through every check's threshold, and the cube with vertex 0
    # pushed out by 1 + t, near where its three facets at vertex 0 split
    @pytest.mark.parametrize("verts", [
        *([[-1, 0, 0], [1, 0, 0], [0, delta, 0], [0, 1, 1]]
          for delta in np.geomspace(1e-10, 1e-6, 41)),
        *(np.vstack([(1 + t) * np.ones(3), list(product((1, -1), repeat=3))[1:]])
          for t in (5e-10, 1e-9, 2e-9, 4e-9)),
    ])
    def test_stacked_checks_match_the_loop_reference(self, verts):
        verts = np.asarray(verts, dtype=float) - np.mean(verts, axis=0)
        try:
            make_polytope(3, verts)
            got = None
        except (ValidationError, DegenerateGeometry) as exc:
            got = str(exc)
        assert got == loop_validation_error(np.ldexp(verts, -geometry.unit_exponent(verts)))

    @pytest.mark.parametrize("doc", [
        {"vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]},
        {"dimension": 2},
        {"dimension": 2, "vertices": [[1, 1], [0, 1, 3]]},
        {"dimension": 2, "vertices": "nope"},
        {"dimension": -1, "vertices": [[1]]},
        {"dimension": 2, "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]], "name": 7},
        # nested past numpy's 64 dimensions: a ParseError, not a RecursionError
        {"dimension": 2,
         "vertices": [[json.loads("[" * 900 + "1" + "]" * 900), 0], [0, 1], [-1, -1]]},
    ])
    def test_parse_errors(self, doc):
        with pytest.raises(ParseError):
            load_polytope(doc)

    @pytest.mark.parametrize("doc", [
        {"dimension": True, "vertices": [[1], [-1]]},
        {"dimension": 2, "vertices": [[True, False], [False, True], [-1, -1]]},
    ])
    def test_booleans_are_no_numbers(self, doc):
        # a JSON true or false reads as a Python bool, which is an int
        with pytest.raises(ParseError, match="'dimension' must be|non-numeric vertex"):
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
        got = {tuple(np.round(u, 9)) for u in FIXTURES["square"]().normals}
        assert got == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_cube_normals(self):
        got = {tuple(np.round(u, 9)) for u in FIXTURES["cube"]().normals}
        expected = {tuple(s * e) for s in (1, -1) for e in np.eye(3, dtype=int)}
        assert got == {tuple(float(x) for x in v) for v in expected}

    def test_triangle_normals_at_radius_two(self):
        # solve <u, v1> = <u, v2> = 1 by hand for the facet through v1, v2:
        # v1 = (-1/2, s), v2 = (-1/2, -s) gives u = (-2, 0); all at radius 2
        normals = FIXTURES["triangle"]().normals
        radii = np.linalg.norm(normals, axis=1)
        assert np.allclose(radii, 2.0, atol=1e-9)
        assert any(np.allclose(u, [-2, 0], atol=1e-9) for u in normals)

    @pytest.mark.parametrize("name", [*FIXTURES, "cross6"])
    def test_hull_searched_once(self, name, monkeypatch):
        # validation finds the facets the pipeline uses; every dual edge face
        # and its sub-faces are read off their incidence, with no search
        calls = []
        search = geometry._vertices
        monkeypatch.setattr(geometry, "_vertices",
                            lambda *a, **k: calls.append(1) or search(*a, **k))
        poly = {**FIXTURES, **LADDER}[name]()
        art = build_artifacts(poly)
        assert len(calls) == 1
        assert art.poly.normals is poly.normals and art.poly.incidence is poly.incidence

    @pytest.mark.parametrize("name", [*FIXTURES, "cross6"])
    def test_blocked_subset_scan_gives_identical_facets(self, name, monkeypatch):
        # every input here fits one default block; blocks of 7 split most scans
        # (the 6-cross-polytope's 924 subsets into 132), and first-wins
        # deduplication must still keep the same vertices, bit for bit: the
        # polar's (the facets) and the shifted dual's
        factory = {**FIXTURES, **LADDER}[name]
        whole = factory()
        c = 1.0 + 0.03 * np.sin(np.arange(whole.n) + 1.0)  # inside the trust region
        whole_volumes = facet_volumes(whole, c)
        monkeypatch.setattr(geometry, "SUBSET_BLOCK", 7)
        blocked = factory()
        assert whole.normals.shape == blocked.normals.shape
        assert whole.normals.tobytes() == blocked.normals.tobytes()
        assert whole.incidence.tobytes() == blocked.incidence.tobytes()
        assert whole_volumes.tobytes() == facet_volumes(blocked, c).tobytes()

    @pytest.mark.parametrize("k", range(-6, 13))
    @pytest.mark.parametrize("name", FIXTURES)
    def test_scale_free(self, name, k, polytopes):
        # validation compares dimensionless polar values and relative lengths,
        # so scaling by 10^k leaves every facet's vertex set alone
        poly = polytopes[name]
        scaled = make_polytope(poly.dim, 10.0 ** k * poly.vertices)
        assert np.array_equal(scaled.incidence, poly.incidence)

    @pytest.mark.parametrize("name", [*FIXTURES, *LADDER, "cube5"])
    def test_matches_qhull(self, name):
        # qhull triangulates a non-simplicial facet; its simplices share one
        # equation, <n, x> + e <= 0, so merging them gives the facet, u = n / -e
        poly = {**FIXTURES, **LADDER, "cube5": lambda: hypercube(5)}[name]()
        hull = ConvexHull(poly.vertices)
        merged = []  # [equation, incidence] per facet
        for eq, simplex in zip(hull.equations, hull.simplices):
            facet = next((f for f in merged if np.allclose(f[0], eq, rtol=0, atol=1e-8)), None)
            if facet is None:
                facet = [eq, np.zeros(poly.n, dtype=bool)]
                merged.append(facet)
            facet[1][simplex] = True
        want = {inc.tobytes(): eq[:-1] / -eq[-1] for eq, inc in merged}
        got = dict(zip(map(np.ndarray.tobytes, poly.incidence), poly.normals))
        assert len(poly.normals) == len(merged) and got.keys() == want.keys()
        for key, u in got.items():
            assert np.linalg.norm(u - want[key]) <= 1e-9 * np.linalg.norm(want[key])

    def test_every_vertex_on_at_least_d_facets(self, polytopes):
        for poly in polytopes.values():
            assert poly.incidence.sum(axis=0).min() >= poly.dim

    def test_euler_formula_3d(self, polytopes, artifacts):
        for name in ("cube", "octahedron", "prism3", "simplex3"):
            art = artifacts[name]
            v, e, f = art.poly.n, len(art.poly.edges), len(art.poly.normals)
            assert v - e + f == 2


def facet_incidence(n: int, facets) -> np.ndarray:
    """(m, n) incidence of hand-made facets, each given as its vertex list."""
    inc = np.zeros((len(facets), n), dtype=bool)
    for row, facet in zip(inc, facets):
        row[list(facet)] = True
    return inc


class TestEdgeGraph:
    def test_cube_is_q3(self, artifacts):
        edges = artifacts["cube"].poly.edges
        assert len(edges) == 12
        assert np.all(adjacency(8, edges).sum(axis=0) == 3)
        # vertex order (x,y,z) lexicographic over {1,-1}: 0=(1,1,1), 1=(1,1,-1)
        assert (0, 1) in edges and (0, 7) not in edges

    def test_square_cycle_and_rejected_diagonal(self, artifacts):
        assert artifacts["square"].poly.edges == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_cyclic_polytope_is_complete(self, artifacts):
        assert len(artifacts["cyclic4_6"].poly.edges) == 15

    def test_edges_sorted_pairs_in_lexicographic_order(self, polytopes):
        for poly in polytopes.values():
            assert all(i < j for i, j in poly.edges)
            assert list(poly.edges) == sorted(set(poly.edges))

    def test_connected_min_degree(self, artifacts):
        for art in artifacts.values():
            a = adjacency(art.poly.n, art.poly.edges)
            assert connected_components(a, directed=False)[0] == 1
            assert a.sum(axis=0).min() >= art.poly.dim

    def test_disconnected_incidence_raises(self):
        # two triangles in d = 2: every vertex has degree 2 = d, but no edge joins them
        inc = facet_incidence(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(DegenerateGeometry, match="edge-graph not connected"):
            geometry._edges(inc, 2)

    def test_low_degree_incidence_raises(self):
        # a 4-cycle in d = 3 is connected, but each vertex has 2 < 3 neighbours
        inc = facet_incidence(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(DegenerateGeometry, match=r"min degree 2 < d = 3"):
            geometry._edges(inc, 3)

    def test_connectivity_checked_before_degree(self):
        # two disjoint segments in d = 3 fail both checks; connectivity is named
        inc = facet_incidence(4, [(0, 1), (2, 3)])
        with pytest.raises(DegenerateGeometry, match="edge-graph not connected"):
            geometry._edges(inc, 3)


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
        for e in art.poly.edges:
            face = dual_edge_face(art.poly, e)
            assert face.relvol == pytest.approx(2.0, abs=1e-9)

    def test_non_edge_raises(self, artifacts):
        # the square's diagonal shares no facet; the cube's face diagonal shares one
        for name, pair in (("square", (0, 2)), ("cube", (0, 3))):
            with pytest.raises(KeyError):
                dual_edge_face(artifacts[name].poly, pair)

    @pytest.mark.parametrize("name", ["sphere12_6", "sphere16_5", "cross5", "cross6"])
    def test_edge_volumes_match_qhull(self, name):
        poly = LADDER[name]()
        inc = poly.incidence
        # the volumes are those of the unit-scale polytope's dual faces
        for (i, j), relvol in zip(poly.edges, geometry.dual_edge_volumes(poly)):
            pts = np.ldexp(poly.normals, poly.exponent)[inc[:, i] & inc[:, j]]
            centred = pts - pts.mean(axis=0)
            flat = centred @ np.linalg.svd(centred)[2][: poly.dim - 2].T
            assert relvol == pytest.approx(ConvexHull(flat).volume, rel=1e-9), (i, j)

    @pytest.mark.parametrize("name", ["sphere12_6", "sphere16_5", "cross5", "cross6", "cyclic4_6"])
    def test_edge_volumes_do_not_depend_on_the_batch(self, name):
        # each dual face alone gets the bits it gets among all the edges' dual faces
        poly = {**LADDER, "cyclic4_6": FIXTURES["cyclic4_6"]}[name]()
        inc = poly.incidence
        for (i, j), relvol in zip(poly.edges, geometry.dual_edge_volumes(poly)):
            alone = geometry._face_volumes(np.ldexp(poly.normals, poly.exponent)[None], poly.unit,
                                           np.ones((1, poly.n)), inc.T, (inc[:, i] & inc[:, j])[None],
                                           poly.dim - 2)
            assert alone[0, 0] == relvol, (i, j)


class TestFaceLattice:
    """One kernel call per lattice level, and each face of the dual above an edge evaluated once."""

    @staticmethod
    def faces_evaluated(poly, monkeypatch) -> int:
        calls = []
        kernel = geometry._face_volumes
        monkeypatch.setattr(geometry, "_face_volumes", lambda *a: calls.append(a) or kernel(*a))
        izmestiev_matrix(poly)
        # the edges' dual faces, then their distinct sub-faces, one level down per call
        assert [k for *_, k in calls] == list(range(poly.dim - 2, poly.dim - 2 - len(calls), -1))
        faces = lattice_faces(calls)
        assert len(set(faces)) == len(faces)
        return len(faces)

    @pytest.mark.parametrize("d", [4, 6])
    def test_cross_polytope(self, d, monkeypatch):
        # the dual is the d-cube; the faces above an edge are its k-faces for
        # 1 <= k <= d - 2, and segments are closed-form, so no vertex is reached
        faces = sum(math.comb(d, k) * 2 ** (d - k) for k in range(1, d - 1))
        assert faces == {4: 56, 6: 652}[d]
        assert self.faces_evaluated(LADDER[f"cross{d}"](), monkeypatch) == faces

    def test_hypercube_4(self, monkeypatch):
        # the dual faces of the 32 edges are triangles of the 16-cell, closed-form simplices
        assert self.faces_evaluated(LADDER["cube4"](), monkeypatch) == 32


class TestRelativeVolume:
    def test_point_convention(self):
        assert relative_volume([[3.0, 7.0]]) == 1.0

    def test_segment_length(self):
        assert relative_volume([[1, 0, 0], [0, 1, 0]]) == pytest.approx(np.sqrt(2))

    def test_embedded_unit_square(self):
        pts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
        assert relative_volume(pts) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", range(-12, 13))
    def test_scale_free(self, k):
        # the rank decision is relative to the points' own size, with no floor:
        # a small square or cube is not taken for a point
        s = 10.0 ** k
        square_pts = s * np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
        cube_pts = s * np.array(list(product((0.0, 1.0), repeat=3)))
        assert relative_volume(square_pts) == pytest.approx(s ** 2, rel=1e-9)
        assert relative_volume(cube_pts) == pytest.approx(s ** 3, rel=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_standard_simplex(self, d):
        pts = np.vstack([np.zeros(d), np.eye(d)])
        assert relative_volume(pts) == pytest.approx(1.0 / math.factorial(d), rel=1e-9)

    def test_one_hyperplane_search(self, monkeypatch):
        # the facets of the flattened set, its polar's vertices, are searched
        # once; every lower face is read off their incidence
        calls = []
        search = geometry._vertices
        monkeypatch.setattr(geometry, "_vertices",
                            lambda *a, **k: calls.append(1) or search(*a, **k))
        pts = np.random.default_rng(3).standard_normal((9, 4))
        assert relative_volume(pts) == pytest.approx(ConvexHull(pts).volume, rel=1e-9)
        assert len(calls) == 1

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

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_qhull(self, d):
        rng = np.random.default_rng(11 + d)
        pts = rng.standard_normal((d + 6, d))
        assert relative_volume(pts) == pytest.approx(ConvexHull(pts).volume, rel=1e-9)


    @pytest.mark.parametrize("seed", range(5))
    def test_matches_qhull_on_lattice_point_sets(self, seed):
        # subsets of {-1, 0, 1}^4 have coplanar points, non-simplex facets and
        # faces that other facets touch in a vertex or an edge only: those
        # touches are tight patterns that are not sub-faces
        grid = np.array(list(product((-1.0, 0.0, 1.0), repeat=4)))
        pts = grid[np.random.default_rng(seed).random(len(grid)) < 0.3]
        assert relative_volume(pts) == pytest.approx(ConvexHull(pts).volume, rel=1e-9)


SHIFTED = ["octahedron", "cube", "prism3", "simplex4", "cyclic4_6"]


def random_offsets(n, count, margin=0.0):
    """Offset vectors drawn uniformly from the trust region, shrunk by ``margin``."""
    rng = np.random.default_rng(17)
    trust = DEFAULT_TOLERANCES.dual_trust - margin
    return [1.0 + rng.uniform(-trust, trust, n) for _ in range(count)]


def shifted_dual_vertices(poly, c):
    """Vertices of {x : <x, v_i> <= c_i}, found independently by solving every d-subset."""
    pts = []
    for s in map(list, combinations(range(poly.n), poly.dim)):
        if abs(np.linalg.det(poly.vertices[s])) > 1e-9:
            x = np.linalg.solve(poly.vertices[s], c[s])
            if np.all(poly.vertices @ x <= c + 1e-9):
                pts.append(x)
    return np.array(pts)


class TestGeneralizedDualVolume:
    def test_cube_dual_is_cross_polytope(self):
        poly = FIXTURES["cube"]()
        assert volume_generalized_dual(poly, np.ones(8)) == pytest.approx(4.0 / 3.0, rel=1e-10)

    def test_square_dual(self):
        got = volume_generalized_dual(FIXTURES["square"](), np.ones(4))
        assert got == pytest.approx(2.0, rel=1e-10)

    def test_triangle_dual(self):
        got = volume_generalized_dual(FIXTURES["triangle"](), np.ones(3))
        assert got == pytest.approx(3.0 * np.sqrt(3.0), rel=1e-10)

    def test_agrees_with_facet_normal_hull(self, artifacts):
        # two derivations of the dual's vertex set must give the same volume
        for art in artifacts.values():
            via_h_rep = volume_generalized_dual(art.poly, np.ones(art.poly.n))
            via_normals = relative_volume(art.poly.normals)
            assert via_h_rep == pytest.approx(via_normals, rel=1e-9)

    @pytest.mark.parametrize("t", [0.95, 0.98, 1.0, 1.02, 1.05])
    def test_uniform_scaling_homogeneity(self, t):
        poly = FIXTURES["octahedron"]()
        base = volume_generalized_dual(poly, np.ones(6))
        scaled = volume_generalized_dual(poly, t * np.ones(6))
        assert scaled == pytest.approx(t ** 3 * base, rel=1e-9)

    @pytest.mark.parametrize("name", SHIFTED)
    def test_matches_qhull_at_shifted_offsets(self, polytopes, name):
        poly = polytopes[name]
        for c in random_offsets(poly.n, 3):
            assert volume_generalized_dual(poly, c) == pytest.approx(
                ConvexHull(shifted_dual_vertices(poly, c)).volume, rel=1e-9)

    def test_trust_region_enforced(self):
        with pytest.raises(Unbounded):
            volume_generalized_dual(FIXTURES["square"](), np.array([1.0, 1.0, 1.0, 0.5]))


class TestDualFacetVolumes:
    @pytest.mark.parametrize("name", SHIFTED)
    def test_matches_qhull_at_shifted_offsets(self, polytopes, name):
        poly = polytopes[name]
        d = poly.dim
        for c in random_offsets(poly.n, 3):
            pts = shifted_dual_vertices(poly, c)
            got = facet_volumes(poly, c)
            for i, v in enumerate(poly.vertices):
                on = pts[np.abs(pts @ v - c[i]) <= 1e-9]
                # orthonormal frame of the plane <x, v> = c_i: the complement of v
                frame = np.linalg.svd(v[None, :])[2][1:]
                flat = (on - on.mean(axis=0)) @ frame.T
                want = np.ptp(flat) if d == 2 else ConvexHull(flat).volume
                assert got[i] == pytest.approx(want, rel=1e-9), (name, i)

    @pytest.mark.parametrize("name", SHIFTED + ["hexagon", "simplex3"])
    def test_is_gradient_of_volume(self, polytopes, name):
        # d vol / d c_i = vol_{d-1}(F_i) / |v_i|, against the volume route
        poly = polytopes[name]
        h = 1e-4
        norms = np.linalg.norm(poly.vertices, axis=1)
        for c in random_offsets(poly.n, 2, margin=h):
            grad = facet_volumes(poly, c) / norms
            for i, step in enumerate(h * np.eye(poly.n)):
                diff = (volume_generalized_dual(poly, c + step)
                        - volume_generalized_dual(poly, c - step)) / (2.0 * h)
                assert grad[i] == pytest.approx(diff, rel=1e-6), (name, i)

    def test_cube_dual_facets_are_triangles(self):
        # the dual of [-1, 1]^3 is the octahedron conv(+-e_i): 8 triangles of side sqrt 2
        got = facet_volumes(FIXTURES["cube"](), np.ones(8))
        assert got == pytest.approx(np.full(8, np.sqrt(3.0) / 2.0), rel=1e-12)

    # P plus one vertex w just beyond it: the dual plane <x, w> = c_w cuts a sliver off
    # the dual, touches it in a lower face when c_w reaches the dual's support value in
    # direction w, and misses it beyond
    PENTAGON = [[1, 1], [1, -1], [-1, -1], [-1, 1], [1.01, 0]]  # dual: |x| + |y| <= 1
    CROSS4 = [list(s * e) for e in np.eye(4) for s in (1, -1)] + [[0.525, 0.525, 0, 0]]

    @pytest.mark.parametrize("verts, offset, want", [
        (PENTAGON, 1.005, 2.0 * (1.0 - 1.005 / 1.01)),
        (PENTAGON, 1.01, 0.0),   # touches the diamond's corner
        (PENTAGON, 1.02, 0.0),   # misses the diamond
        (CROSS4, 1.05, 0.0),     # touches the dual 4-cube in a square: 4 points, not a facet
    ], ids=["cut", "corner", "miss", "square"])
    def test_extra_plane_cuts_touches_or_misses(self, verts, offset, want):
        poly = make_polytope(len(verts[0]), verts)
        c = np.ones(poly.n)
        c[-1] = offset
        got = facet_volumes(poly, c)
        assert got[-1] == pytest.approx(want, abs=1e-12)
        assert np.all(got[:-1] > 0.5)

    def test_offset_rows_share_one_combinatorial_type(self):
        # row 0 is enumerated and row 1 re-solved: between them only the last plane
        # moves, and the volumes match an enumeration of each row on its own
        poly = FIXTURES["prism3"]()
        c = np.ones((2, poly.n))
        c[:, -1] = [1.01, 1.03]
        got = geometry.dual_facet_volumes(poly, c[None])
        assert got.shape == (1, 2, poly.n)
        for row, want in zip(got[0], c):
            assert row == pytest.approx(facet_volumes(poly, want), rel=1e-12)

    def test_resolve_check_names_a_vertex_that_gains_a_plane(self):
        # the plane of w = (1.01, 0) misses the dual diamond at 1.02 and touches its
        # corner (1, 0) at 1.01: every re-solved vertex stays feasible, but the
        # corner gains a tight plane
        poly = make_polytope(2, self.PENTAGON)
        c = np.ones((2, poly.n))
        c[:, -1] = [1.02, 1.01]
        with pytest.raises(NumericalInstability, match=r"plane 4 at step \+1\.000e-02"):
            geometry.dual_facet_volumes(poly, c[None])

    def test_resolve_check_names_a_vertex_left_infeasible(self):
        # every vertex of the cube's dual octahedron lies on four planes and is
        # solved from the first three; pulling in the last plane leaves the
        # re-solved vertices on it where they were, outside that plane
        poly = FIXTURES["cube"]()
        c = np.ones((2, poly.n))
        c[1, -1] = 0.99
        with pytest.raises(NumericalInstability, match=r"plane 7 at step -1\.000e-02"):
            geometry.dual_facet_volumes(poly, c[None])

    def test_first_failing_ray_raises_its_first_failure(self):
        # rays are checked in order, each for the trust region before its re-solve:
        # in any order, a batch raises what its first failing ray raises alone
        poly = make_polytope(2, self.PENTAGON)
        good, resolve = np.ones((2, 2, poly.n))
        resolve[:, -1] = [1.02, 1.01]  # a corner gains a tight plane, as above
        both = resolve.copy()
        both[:, 0] = 1.2               # and the ray leaves the trust region

        def error(c):
            with pytest.raises((Unbounded, NumericalInstability)) as info:
                geometry.dual_facet_volumes(poly, c)
            return type(info.value), str(info.value)

        rays = {"good": good, "resolve": resolve, "both": both}
        assert error(both[None])[0] is Unbounded
        for order in permutations(rays):
            first = next(name for name in order if name != "good")
            assert error(np.stack([rays[name] for name in order])) == error(rays[first][None])
