import dataclasses
import hashlib
import json
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_invertible
from helpers import (FIXTURES, adjacency, cross_polytope, fd_raw_hessians, hypercube,
                     perm_matrix, pushed_cube, sphere_polytope)
from polysym import DEFAULT_TOLERANCES, Tolerances, cli, geometry, izmestiev, make_polytope
from polysym.errors import NumericalInstability
from polysym.izmestiev import (
    izmestiev_matrix,
    izmestiev_matrix_fd,
    verify_properties,
)
from polysym.reconstruct import build_artifacts

GEO_TOL = 1e-8
FD_TOL = 1e-4


def closed_form(name, poly):
    """Hand-derived matrices: entry formula plus the kernel condition."""
    n = poly.n
    a = adjacency(n, poly.edges)
    if name == "triangle":
        # dual faces are points (vol 1), |v| = 1, sin 120 deg = sqrt(3)/2;
        # v1+v2+v3 = 0 forces the diagonal to the same value
        return -(2.0 / np.sqrt(3.0)) * np.ones((n, n))
    if name == "square":
        # |v| = sqrt(2), adjacent vertices orthogonal; neighbor sums vanish
        return -0.5 * a
    if name == "cube":
        # vol(f) = sqrt(2), |v| = sqrt(3), sin angle = 2 sqrt(2)/3;
        # each vertex equals the sum of its three neighbors
        return 0.5 * (np.eye(n) - a)
    if name == "rectangle":
        # vol(f) = 1, Gram root sqrt(25 - 9) = 4 on every edge
        return -0.25 * a
    if name == "octahedron":
        # dual faces are cube edges (vol 2), adjacent vertices orthogonal
        return -2.0 * a
    raise KeyError(name)


@pytest.mark.parametrize("name", ["triangle", "square", "cube", "rectangle", "octahedron"])
def test_geometric_formula_closed_forms(name, artifacts):
    art = artifacts[name]
    expected = closed_form(name, art.poly)
    assert np.max(np.abs(art.matrix - expected)) <= GEO_TOL


@pytest.mark.parametrize("name", ["triangle", "square", "cube"])
def test_fd_oracle_matches_closed_forms(name, artifacts):
    art = artifacts[name]
    fd = izmestiev_matrix_fd(art.poly)
    expected = closed_form(name, art.poly)
    assert np.max(np.abs(fd - expected)) <= 1e-5


def test_fd_agrees_with_geometric_on_all_fixtures(artifacts):
    # two independent derivations of the same object
    for name, art in artifacts.items():
        fd = izmestiev_matrix_fd(art.poly)
        diff = np.max(np.abs(fd - art.matrix))
        assert diff <= FD_TOL, f"{name}: fd drift {diff:.2e}"


@pytest.mark.parametrize("k", [-6, -3, 3, 6, 9])
@pytest.mark.parametrize("name", FIXTURES)
def test_fd_scale_free(artifacts, name, k):
    # M(sP) = s^-d M(P): the oracle on sP, made dimensionless by scale^d,
    # meets the scaled geometric matrix of P at the unscaled check tolerance
    art, s = artifacts[name], 10.0 ** k
    poly = make_polytope(art.poly.dim, s * art.poly.vertices)
    fd = izmestiev_matrix_fd(poly)
    diff = np.max(np.abs(fd - s ** -poly.dim * art.matrix))
    assert diff * poly.scale ** poly.dim <= DEFAULT_TOLERANCES.fd_check, f"{name}: {diff:.2e}"


def test_fd_reads_neither_facets_nor_graph(polytopes):
    # the oracle is independent of the geometric route: it runs on the vertices alone,
    # reading none of the facet normals, the incidence and the edges
    for name, poly in polytopes.items():
        bare = dataclasses.replace(poly, unit_normals=None, incidence=None, edges=None)
        assert np.array_equal(izmestiev_matrix_fd(bare), izmestiev_matrix_fd(poly)), name


def test_fd_agrees_with_geometric_on_4_cube():
    art = build_artifacts(hypercube(4))
    fd = izmestiev_matrix_fd(art.poly)
    assert (art.poly.n, art.poly.dim) == (16, 4)
    assert np.max(np.abs(fd - art.matrix)) <= FD_TOL


def test_fd_step_halving_drift_raises(artifacts):
    # simplex4's Richardson estimates drift by about 9e-8: a check below that must fire
    art = artifacts["simplex4"]
    poly = make_polytope(art.poly.dim, art.poly.vertices, tol=Tolerances(fd_check=1e-8))
    with pytest.raises(NumericalInstability, match="step-halving drift"):
        izmestiev_matrix_fd(poly)


def test_fd_asymmetry_raises(artifacts, monkeypatch):
    # g_0 skewed by k (c_1 - 1) adds k to H[0, 1] alone, at every step, so the
    # Richardson estimates still agree and only the symmetry check can see it
    art = artifacts["cube"]
    exact = izmestiev.dual_facet_volumes

    def skewed(poly, c):
        g = exact(poly, c)  # (rays, steps, n)
        g[..., 0] += 1e-3 * (c[..., 1] - 1.0) * np.linalg.norm(poly.vertices[0])
        return g

    monkeypatch.setattr(izmestiev, "dual_facet_volumes", skewed)
    with pytest.raises(NumericalInstability, match="asymmetry 1.000e-03"):
        izmestiev_matrix_fd(art.poly)


@pytest.mark.xfail(strict=True, raises=NumericalInstability,
                   reason="asymmetry 1.05e-4 x scale^-d against the 1e-4 bound; "
                          "every stencil ray passes the re-solve check")
def test_fd_agrees_on_generic_6d_sphere_polytope():
    poly = sphere_polytope(12, 6, seed=0)
    fd = izmestiev_matrix_fd(poly)
    assert np.max(np.abs(fd - izmestiev_matrix(poly))) * poly.scale ** 6 <= poly.tol.fd_check


def test_fd_drift_message_names_only_what_it_measured():
    # the shifted dual keeps its combinatorics on every ray (the re-solve check
    # passes), so the message may not blame a change of them
    with pytest.raises(NumericalInstability) as info:
        izmestiev_matrix_fd(sphere_polytope(12, 6, seed=0))
    assert re.fullmatch(r"step-halving drift \S+ / asymmetry \S+ exceeds \S+", str(info.value))


@pytest.mark.parametrize("name", FIXTURES)
def test_fd_enumerates_each_ray_once(polytopes, name, monkeypatch):
    # one vertex enumeration for all 2n stencil rays c = 1 +- t e_i: the region at
    # c = 1, one offset row, off which every ray's region at t = h/4 is read; the
    # offsets at h/2 and h re-solve its vertices
    calls = []
    search = geometry._vertices
    monkeypatch.setattr(geometry, "_vertices",
                        lambda *a, **k: calls.append(np.shape(a[1])) or search(*a, **k))
    izmestiev_matrix_fd(polytopes[name])
    assert calls == [(polytopes[name].n,)]


@pytest.mark.parametrize("name", FIXTURES)
def test_fd_one_kernel_call_per_ray_type(polytopes, name, monkeypatch):
    # the facets of every ray, of whatever combinatorial type, go to one top-level
    # volume kernel call at level d - 1, simplicial or not
    poly = polytopes[name]
    calls = []
    kernel = geometry._face_volumes
    monkeypatch.setattr(geometry, "_face_volumes", lambda *a: calls.append(a[-1]) or kernel(*a))
    izmestiev_matrix_fd(poly)
    assert calls[0] == poly.dim - 1 and calls.count(poly.dim - 1) == 1


def test_fd_resolve_check_raises():
    # at h = 0.05 a plane's shift changes the dual's combinatorics between h/4
    # and h: the re-solved vertices fail their tight sets before any drift is taken
    poly = sphere_polytope(8, 3, seed=1)
    wide = make_polytope(3, poly.vertices, tol=Tolerances(fd_step=0.05))
    with pytest.raises(NumericalInstability, match=r"inside the stencil: plane \d+ at step"):
        izmestiev_matrix_fd(wide)


def test_fd_resolve_check_raises_alike_in_blocks(monkeypatch):
    # the re-solve check goes in blocks of BLOCK / 3 vertices; at BLOCK = 7, two
    # vertices a block, it raises the same text, and a passing oracle keeps its bits
    poly = sphere_polytope(8, 3, seed=1)
    wide = make_polytope(3, poly.vertices, tol=Tolerances(fd_step=0.05))
    with pytest.raises(NumericalInstability) as whole:
        izmestiev_matrix_fd(wide)
    want = izmestiev_matrix_fd(poly)
    monkeypatch.setattr(geometry, "BLOCK", 7)
    with pytest.raises(NumericalInstability) as blocked:
        izmestiev_matrix_fd(wide)
    assert str(blocked.value) == str(whole.value)
    assert izmestiev_matrix_fd(poly).tobytes() == want.tobytes()


# SHA-256 of the FD matrix's bits on the cube pushed out at vertex 0 by 1 + p, as every stencil
# ray enumerated on its own gives them
PUSHED_FD = {
    1e-12: "ce49d25b63283ea447b6dcd4a7414fb91df3398314b58f4ba7a4aa62aed80697",
    1e-10: "4714acd121f86ac5138816e30b246515ebb282ffa12416711368faef9df58ac3",
    5e-10: "39ac2d1bf74b6ae9fde489624f2a7a54ecfead3cf9579d34732d60891a504aa7",
    2e-9: "1660acfe7b5505d53a85ce126fd7effe6c0a54cf49c373a225cc1f04269ad21f",
    4e-9: "7550f6938eea9857d25f476df89f3184c7b2e86e5997881d1af890f393e0660d",
    1e-8: "7fe2e96ffadd8ef866e59a2ca2e0e3287803247edfd62d157f1cf7732455b426",
}


@pytest.mark.parametrize("p", PUSHED_FD)
def test_fd_keeps_its_bits_on_the_pushed_cube(p):
    # the split squares at vertex 0 are flat within eps below about 1e-9, and every ray is
    # read off the region at c = 1; above, vertices at c = 1 lie within a stencil step of
    # one another, and the rays whose region 0 fails its re-solve are walked alone: a
    # region read off c = 1 with no such walk is not full-dimensional there
    poly = make_polytope(3, pushed_cube(p))
    assert hashlib.sha256(izmestiev_matrix_fd(poly).tobytes()).hexdigest() == PUSHED_FD[p]


def test_validate_passes_or_names_its_error_on_the_pushed_cube(tmp_path, capsys):
    # at p = 1e-9 the walk's output depends on where it starts (its polar's squares are
    # degenerate within eps); validate must pass, or exit 2 with a named error
    path = tmp_path / "pushed.json"
    path.write_text(json.dumps({"dimension": 3, "vertices": pushed_cube(1e-9).tolist()}))
    code = cli.main(["validate", str(path)])
    out, err = capsys.readouterr()
    if code == 0:
        assert json.loads(out)["passed"] is True
    else:
        assert code == 2 and re.fullmatch(r"error: \S.*\n", err), (code, err)


@pytest.mark.parametrize("name", [*FIXTURES, "cube4", "cross4"])
def test_raw_hessians_match_per_point_enumeration(name):
    # the one walk at c = 1 and the one volume kernel call give the raw Hessians
    # that a fresh walk and kernel call at every stencil point give
    poly = {**FIXTURES, "cube4": lambda: hypercube(4), "cross4": lambda: cross_polytope(4)}[name]()
    for got, want in zip(izmestiev._raw_hessians(poly), fd_raw_hessians(poly), strict=True):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_fd_recovers_edge_graph(artifacts):
    art = artifacts["cube"]
    fd = izmestiev_matrix_fd(art.poly)
    thresh = 10.0 * DEFAULT_TOLERANCES.fd_check
    support = {(i, j) for i, j in combinations(range(art.poly.n), 2)
               if abs(fd[i, j]) > thresh}
    assert support == set(art.poly.edges)


def test_properties_pass_on_all_fixtures(polytopes, artifacts):
    for name, art in artifacts.items():
        report = verify_properties(art.matrix, art.poly)
        assert report["passed"], f"{name}: {report}"
        assert report["kernel_dim"] == art.poly.dim


def test_spectra(artifacts):
    # Q3 adjacency spectrum {3,1,1,1,-1,-1,-1,-3} maps to {-1,0,0,0,1,1,1,2}
    spec = np.sort(np.linalg.eigvalsh(artifacts["cube"].matrix))
    assert np.allclose(spec, [-1, 0, 0, 0, 1, 1, 1, 2], atol=1e-9)
    spec = np.sort(np.linalg.eigvalsh(artifacts["square"].matrix))
    assert np.allclose(spec, [-1, 0, 0, 1], atol=1e-9)


def test_corrupted_matrix_fails_report(artifacts):
    art = artifacts["square"]
    bad = art.matrix.copy()
    bad[0, 1] = bad[1, 0] = 0.0
    report = verify_properties(bad, art.poly)
    assert not report["sign_ok"]
    assert not report["kernel_ok"]
    assert not report["passed"]


def test_kernel_columns(artifacts):
    for art in artifacts.values():
        phi_t = art.poly.phi.T
        for col in range(art.poly.dim):
            v = phi_t[:, col]
            assert np.linalg.norm(art.matrix @ v) <= 1e-8 * max(1, np.linalg.norm(v))


def test_gl_covariance(artifacts):
    # vol((T P)°(c)) = vol(P°(c)) / |det T|, so the matrix scales by 1/|det T|
    rng = np.random.default_rng(3)
    for name in ("triangle", "rectangle", "cube", "octahedron"):
        art = artifacts[name]
        for _ in range(5):
            t = random_invertible(rng, art.poly.dim)
            moved = make_polytope(art.poly.dim, art.poly.vertices @ t.T)
            m2 = izmestiev_matrix(moved)
            scale = 1.0 / abs(np.linalg.det(t))
            assert np.max(np.abs(m2 - scale * art.matrix)) <= 1e-7 * max(
                1.0, scale)


@settings(max_examples=25, deadline=None)
@given(perm=st.permutations(list(range(4))))
def test_permutation_equivariance(perm):
    # relabeling vertices conjugates the matrix by the permutation matrix
    base = FIXTURES["rectangle"]()
    m = izmestiev_matrix(base)
    relabeled = make_polytope(2, base.vertices[list(perm)])
    m2 = izmestiev_matrix(relabeled)
    pi = perm_matrix(tuple(perm))
    assert np.max(np.abs(m2 - pi.T @ m @ pi)) <= 1e-10
