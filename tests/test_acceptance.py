"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Tolerances are pinned here, not configured elsewhere.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_invertible, random_orthogonal
from polysym import make_polytope
from polysym.autgroup import automorphisms, uncolored
from polysym.colorings import complete_metric, orbit_coloring
from polysym.errors import TheoremViolation
from polysym.fixtures import FIXTURES, k44_coordinates, k44_graph
from polysym.izmestiev import izmestiev_matrix_fd, verify_properties
from polysym.oracle import brute_force_group, compare_groups, embedding_group
from polysym.reconstruct import build_artifacts, linear_group, orthogonal_group

GEOMETRIC_TOL = 1e-8
FD_TOL = 1e-4
KERNEL_TOL = 1e-8
MATRIX_TOL = 1e-8
TRIALS = 20

FIXTURE_NAMES = list(FIXTURES)  # the thirteen acceptance polytopes


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"criterion {num} ({desc}): FAIL")
        raise
    print(f"criterion {num} ({desc}): PASS")


@pytest.fixture(scope="module")
def oracle_groups(artifacts):
    out = {}
    for name in FIXTURE_NAMES:
        phi = artifacts[name].poly.phi
        out[name] = {
            "linear": brute_force_group(phi, flavor="linear"),
            "orthogonal": brute_force_group(phi, flavor="orthogonal"),
        }
    return out


@pytest.fixture(scope="module")
def pipeline_groups(artifacts):
    out = {}
    for name in FIXTURE_NAMES:
        art = artifacts[name]
        out[name] = {
            "linear": linear_group(art.poly, artifacts=art),
            "orthogonal": orthogonal_group(art.poly, artifacts=art),
        }
    return out


def test_criterion_1_closed_forms(artifacts):
    with criterion(1, "matrix closed forms, geometric and finite-difference"):
        expected = {
            "triangle": -(2.0 / math.sqrt(3.0)) * np.ones((3, 3)),
            "square": -0.5 * artifacts["square"].graph.adjacency(),
            "cube": 0.5 * (np.eye(8) - artifacts["cube"].graph.adjacency()),
        }
        for name, closed in expected.items():
            art = artifacts[name]
            geo = np.max(np.abs(art.matrix.entries - closed))
            assert geo <= GEOMETRIC_TOL, f"{name}: geometric path off by {geo:.2e}"
            fd = izmestiev_matrix_fd(art.poly, art.graph)
            fd_err = np.max(np.abs(fd.entries - closed))
            assert fd_err <= FD_TOL, f"{name}: fd oracle off by {fd_err:.2e}"


def test_criterion_2_property_suite(artifacts):
    with criterion(2, "matrix property suite on all fixtures"):
        for name in FIXTURE_NAMES:
            art = artifacts[name]
            report = verify_properties(art.matrix, art.poly)
            assert report.sign_ok, name
            assert report.sparsity_ok, name
            assert report.negative_eigenvalues == 1, name
            assert report.negative_multiplicity == 1, name
            assert report.kernel_residual <= KERNEL_TOL, name
            assert report.kernel_dim == art.poly.dim, name


def test_criterion_3_group_orders_vs_oracle(pipeline_groups, oracle_groups):
    with criterion(3, "pipeline groups vs oracle with pinned orders"):
        expected = {
            "rectangle": (8, 4),
            "stretched_hexagon": (12, 4),
            "cube": (48, 48),
            "simplex2": (6, 6),
            "simplex3": (24, 24),
            "simplex4": (120, 120),
        }
        for name, (lin, orth) in expected.items():
            assert pipeline_groups[name]["linear"].order == lin, name
            assert pipeline_groups[name]["orthogonal"].order == orth, name
        for name in list(expected) + ["perturbed_hexagon"]:
            for flavor in ("linear", "orthogonal"):
                rep = compare_groups(pipeline_groups[name][flavor],
                                     oracle_groups[name][flavor])
                assert rep.equal, (name, flavor)
                assert rep.max_matrix_diff <= MATRIX_TOL, (name, flavor)
        assert pipeline_groups["perturbed_hexagon"]["linear"].order == 1


def test_criterion_4_cyclic_polytope(artifacts, pipeline_groups, oracle_groups):
    with criterion(4, "cyclic 4-polytope: complete edge-graph, group below Sym(6)"):
        art = artifacts["cyclic4_6"]
        assert len(art.graph.edges) == 15  # K6
        pipe = pipeline_groups["cyclic4_6"]["linear"]
        oracle = oracle_groups["cyclic4_6"]["linear"]  # filters all 720
        assert pipe.perm_set == oracle.perm_set
        assert pipe.order < math.factorial(6)


def test_criterion_5_k44_embedding():
    with criterion(5, "K_{4,4} embedding: graph group not realizable"):
        graph_auts = automorphisms(uncolored(k44_graph()))
        assert graph_auts.order == 1152
        realized = embedding_group(k44_coordinates(), candidates=graph_auts.perms,
                                   flavor="linear")
        assert realized.order < graph_auts.order
        assert (1, 0, 2, 3, 4, 5, 6, 7) not in realized.perm_set


def test_criterion_6_pipeline_oracle_consistency(artifacts, pipeline_groups, oracle_groups):
    with criterion(6, "colored-graph groups match oracle groups on all fixtures"):
        for name in FIXTURE_NAMES:
            art = artifacts[name]
            try:
                lin = pipeline_groups[name]["linear"]
                orth = pipeline_groups[name]["orthogonal"]
            except TheoremViolation as exc:  # pragma: no cover
                raise AssertionError(f"{name}: reconstruction violation {exc}")
            assert lin.perm_set == oracle_groups[name]["linear"].perm_set, name
            assert orth.perm_set == oracle_groups[name]["orthogonal"].perm_set, name
            # the graph automorphisms are exactly the realized permutations
            izm_auts = automorphisms(art.izm_coloring)
            prod_auts = automorphisms(art.prod_coloring)
            assert set(izm_auts.perms) == lin.perm_set, name
            assert set(prod_auts.perms) == orth.perm_set, name


def test_criterion_7_orbit_fixpoint(artifacts, pipeline_groups):
    with criterion(7, "orbit recoloring reproduces the group on all fixtures"):
        for name in FIXTURE_NAMES:
            art = artifacts[name]
            group = pipeline_groups[name]["linear"]
            recolored = orbit_coloring(art.graph, group.permutations())
            again = automorphisms(recolored)
            assert set(again.perms) == group.perm_set, name


def test_criterion_8_complete_metric(artifacts, pipeline_groups):
    with criterion(8, "complete-graph Gram colorings match both pipelines"):
        for name in FIXTURE_NAMES:
            art = artifacts[name]
            if art.poly.n > 10:  # pragma: no cover
                continue
            orth_auts = automorphisms(complete_metric(art.poly, "orthogonal"))
            lin_auts = automorphisms(complete_metric(art.poly, "linear"))
            assert set(orth_auts.perms) == pipeline_groups[name]["orthogonal"].perm_set, name
            assert set(lin_auts.perms) == pipeline_groups[name]["linear"].perm_set, name


def test_criterion_9_invariance_suite(artifacts, pipeline_groups):
    with criterion(9, "random linear/orthogonal invariance, 20 trials per fixture"):
        rng = np.random.default_rng(1234)
        for name in FIXTURE_NAMES:
            art = artifacts[name]
            d = art.poly.dim
            base_partition = (art.izm_coloring.vertex_classes(),
                              art.izm_coloring.edge_classes())
            base_lin = pipeline_groups[name]["linear"].perm_set
            base_orth = pipeline_groups[name]["orthogonal"].perm_set
            for _ in range(TRIALS):
                t = random_invertible(rng, d, max_cond=10.0)
                moved = make_polytope(d, art.poly.vertices @ t.T)
                moved_art = build_artifacts(moved)
                assert (moved_art.izm_coloring.vertex_classes(),
                        moved_art.izm_coloring.edge_classes()) == base_partition, name
                assert linear_group(moved, artifacts=moved_art).perm_set == base_lin, name
                q = random_orthogonal(rng, d)
                rotated = make_polytope(d, art.poly.vertices @ q.T)
                assert orthogonal_group(rotated).perm_set == base_orth, name
