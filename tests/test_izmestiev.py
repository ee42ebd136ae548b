from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_invertible
from polysym import DEFAULT_TOLERANCES, edge_graph, make_polytope
from polysym.fixtures import cube, rectangle, square, triangle
from polysym.izmestiev import (
    IzmestievMatrix,
    izmestiev_matrix,
    izmestiev_matrix_fd,
    verify_properties,
)

GEO_TOL = 1e-8
FD_TOL = 1e-4


def closed_form(name, graph):
    """Hand-derived matrices: entry formula plus the kernel condition."""
    a = graph.adjacency()
    n = graph.n
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
    expected = closed_form(name, art.graph)
    assert np.max(np.abs(art.matrix.entries - expected)) <= GEO_TOL


@pytest.mark.parametrize("name", ["triangle", "square", "cube"])
def test_fd_oracle_matches_closed_forms(name, artifacts):
    art = artifacts[name]
    fd = izmestiev_matrix_fd(art.poly, art.graph)
    expected = closed_form(name, art.graph)
    assert np.max(np.abs(fd.entries - expected)) <= 1e-5


def test_fd_agrees_with_geometric_on_all_fixtures(artifacts):
    # two independent derivations of the same object
    for name, art in artifacts.items():
        fd = izmestiev_matrix_fd(art.poly, art.graph)
        diff = np.max(np.abs(fd.entries - art.matrix.entries))
        assert diff <= FD_TOL, f"{name}: fd drift {diff:.2e}"


def test_fd_recovers_edge_graph(artifacts):
    art = artifacts["cube"]
    fd = izmestiev_matrix_fd(art.poly, art.graph)
    thresh = 10.0 * DEFAULT_TOLERANCES.fd_check
    support = {(i, j) for i, j in combinations(range(art.poly.n), 2)
               if abs(fd.entries[i, j]) > thresh}
    assert support == art.graph.edge_set


def test_properties_pass_on_all_fixtures(polytopes, artifacts):
    for name, art in artifacts.items():
        report = verify_properties(art.matrix, art.poly)
        assert report.passed, f"{name}: {report}"
        assert report.kernel_dim == art.poly.dim


def test_spectra(artifacts):
    # Q3 adjacency spectrum {3,1,1,1,-1,-1,-1,-3} maps to {-1,0,0,0,1,1,1,2}
    spec = np.sort(np.linalg.eigvalsh(artifacts["cube"].matrix.entries))
    assert np.allclose(spec, [-1, 0, 0, 0, 1, 1, 1, 2], atol=1e-9)
    spec = np.sort(np.linalg.eigvalsh(artifacts["square"].matrix.entries))
    assert np.allclose(spec, [-1, 0, 0, 1], atol=1e-9)


def test_corrupted_matrix_fails_report(artifacts):
    art = artifacts["square"]
    bad = art.matrix.entries.copy()
    bad[0, 1] = bad[1, 0] = 0.0
    report = verify_properties(IzmestievMatrix(bad, art.graph), art.poly)
    assert not report.sign_ok
    assert not report.kernel_ok
    assert not report.passed


def test_kernel_columns(artifacts):
    for art in artifacts.values():
        phi_t = art.poly.phi.T
        for col in range(art.poly.dim):
            v = phi_t[:, col]
            assert np.linalg.norm(art.matrix.entries @ v) <= 1e-8 * max(1, np.linalg.norm(v))


def test_gl_covariance(artifacts):
    # vol((T P)°(c)) = vol(P°(c)) / |det T|, so the matrix scales by 1/|det T|
    rng = np.random.default_rng(3)
    for name in ("triangle", "rectangle", "cube", "octahedron"):
        art = artifacts[name]
        for _ in range(5):
            t = random_invertible(rng, art.poly.dim)
            moved = make_polytope(art.poly.dim, art.poly.vertices @ t.T)
            m2 = izmestiev_matrix(moved, edge_graph(moved))
            scale = 1.0 / abs(np.linalg.det(t))
            assert np.max(np.abs(m2.entries - scale * art.matrix.entries)) <= 1e-7 * max(
                1.0, scale)


@settings(max_examples=25, deadline=None)
@given(perm=st.permutations(list(range(4))))
def test_permutation_equivariance(perm):
    # relabeling vertices conjugates the matrix by the permutation matrix
    from polysym.autgroup import perm_matrix

    base = rectangle()
    m = izmestiev_matrix(base, edge_graph(base)).entries
    relabeled = make_polytope(2, base.vertices[list(perm)])
    m2 = izmestiev_matrix(relabeled, edge_graph(relabeled)).entries
    pi = perm_matrix(tuple(perm))
    assert np.max(np.abs(m2 - pi.T @ m @ pi)) <= 1e-10
