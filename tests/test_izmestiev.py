import dataclasses
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_invertible
from helpers import (FIXTURES, adjacency, cross_polytope, fd_raw_hessians, hypercube,
                     perm_matrix, sphere_polytope)
from polysym import DEFAULT_TOLERANCES, Tolerances, geometry, izmestiev, make_polytope
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
        bare = dataclasses.replace(poly, normals=None, incidence=None, edges=None)
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
    # one vertex enumeration pass for all 2n stencil rays c = 1 +- t e_i, one
    # offset row each, at t = h/4; the offsets at h/2 and h re-solve its vertices
    calls = []
    search = geometry._vertices
    monkeypatch.setattr(geometry, "_vertices",
                        lambda *a, **k: calls.append(np.shape(a[1])) or search(*a, **k))
    izmestiev_matrix_fd(polytopes[name])
    assert calls == [(2 * polytopes[name].n, polytopes[name].n)]


# rays of the stencil whose shifted duals differ in type: the cube's dual, the
# octahedron, is not simple, and each ray's shift splits its vertices its own way
RAY_TYPES = {"cube": 16, "prism3": 6}


@pytest.mark.parametrize("name", FIXTURES)
def test_fd_one_kernel_call_per_ray_type(polytopes, name, monkeypatch):
    # the top-level volume kernel calls, on the facets at level d - 1: one per
    # distinct combinatorial type of the rays, so one in all when P is simplicial
    poly = polytopes[name]
    calls = []
    kernel = geometry._face_volumes
    monkeypatch.setattr(geometry, "_face_volumes", lambda *a: calls.append(a[-1]) or kernel(*a))
    izmestiev_matrix_fd(poly)
    simplicial = bool(np.all(poly.incidence.sum(axis=1) == poly.dim))
    assert simplicial == (name not in RAY_TYPES)
    assert calls.count(poly.dim - 1) == RAY_TYPES.get(name, 1)


def test_fd_resolve_check_raises():
    # at h = 0.05 a plane's shift changes the dual's combinatorics between h/4
    # and h: the re-solved vertices fail their tight sets before any drift is taken
    poly = sphere_polytope(8, 3, seed=1)
    wide = make_polytope(3, poly.vertices, tol=Tolerances(fd_step=0.05))
    with pytest.raises(NumericalInstability, match=r"inside the stencil: plane \d+ at step"):
        izmestiev_matrix_fd(wide)


@pytest.mark.parametrize("name", [*FIXTURES, "cube4", "cross4"])
def test_raw_hessians_match_per_point_enumeration(name):
    # one enumeration and one volume kernel call per ray give the raw Hessians
    # that a fresh shifted dual at every stencil point gives
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
