"""The Izmestiev matrix: negated Hessian of the shifted-dual volume.

Two independent routes to the same matrix:

* ``izmestiev_matrix`` uses the closed geometric form, entry by entry:
  off-diagonal edge entries from dual-face volumes, the diagonal solved
  from the kernel condition M @ phi.T = 0.
* ``izmestiev_matrix_fd`` differentiates the dual volume's gradient, the
  shifted dual's facet volumes, as the oracle for the first route.  It
  reads the shifted duals of all 2n stencil rays off one walk over the
  vertex-edge graph of the dual at c = 1 (``geometry._vertices``, which
  also finds the facets), re-solves them at every step in one batched
  solve, sums all their face lattices level by level in one kernel call
  (``geometry._face_volumes``), and reads none of ``poly.normals``,
  ``poly.incidence`` and ``poly.edges``: its sparsity pattern is an
  outcome.

Both compute on ``poly.unit`` and return the matrix in input units.

The sign convention is fixed by the matrix's defining properties (negative
on edges, a single negative eigenvalue): it is minus the Hessian of
vol({x : <x, v_i> <= c_i}) at c = (1, ..., 1).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import DegenerateGeometry, NumericalInstability, SingularAngle
from .geometry import Polytope, dual_edge_volumes, dual_facet_volumes, unit_exponent


def izmestiev_matrix(poly: Polytope) -> np.ndarray:
    """Geometric-formula route.

    For an edge ij the entry is -vol(f_ij) / sqrt(|v_i|^2 |v_j|^2 - <v_i,v_j>^2)
    with f_ij the dual face of the edge; the Gram root is |v_i||v_j| sin of
    the angle at the origin.  All dual-face volumes come from one pass over
    the dual's face lattice.  Diagonal entries are solved row-wise from the
    kernel condition; ``reconstruct.build_artifacts`` checks its full
    residual, and ``verify_properties`` reports it.
    """
    n, tol, verts, scale = poly.n, poly.tol, poly.unit, poly.unit_scale
    entries = np.zeros((n, n))
    for (i, j), relvol in zip(poly.edges, dual_edge_volumes(poly)):
        c = float(verts[i] @ verts[j])
        gram = float(verts[i] @ verts[i]) * float(verts[j] @ verts[j]) - c * c
        if gram <= (tol.geom(scale) * scale) ** 2:
            raise SingularAngle(f"vertices {i} and {j} are collinear with the origin")
        entries[i, j] = entries[j, i] = -relvol / np.sqrt(gram)
    for i in range(n):  # row i holds only its edge entries so far: its neighbours, ascending
        entries[i, i] = -sum(entries[i, j] * float(verts[j] @ verts[i])
                             for j in np.flatnonzero(entries[i])) / float(verts[i] @ verts[i])
    return _input_units(entries, poly)


def _input_units(m: np.ndarray, poly: Polytope) -> np.ndarray:
    """M(P) = 2^(-kd) m from m = M(P / 2^k), k = poly.exponent; DegenerateGeometry if inexact."""
    e = -poly.exponent * poly.dim  # an overflow shows in m's exponent, as np.ldexp warns on one
    if unit_exponent(m) + e > 1023 or not np.array_equal(np.ldexp(out := np.ldexp(m, e), -e), m):
        raise DegenerateGeometry(f"Izmestiev matrix leaves float range at scale {poly.scale:.3e}")
    return out


def izmestiev_matrix_fd(poly: Polytope) -> np.ndarray:
    """Finite-difference route: central differences of the dual volume's gradient.

    The gradient of vol({x : <x, v_i> <= c_i}) is g_i = vol_{d-1}(F_i) / |v_i|,
    with F_i the facet on plane i, so column i of the Hessian is
    (g(c + h e_i) - g(c - h e_i)) / 2h around the all-ones offset vector.
    Raw Hessians are evaluated at steps h, h/2 and h/4 (h = ``tol.fd_step``),
    symmetrized as (H + H^T) / 2, and Richardson-combined pairwise, which
    cancels the step-linear error a merely C^2 volume produces at non-simple
    dual vertices.  The two combined estimates must agree, and each raw
    Hessian must be symmetric, within ``tol.fd_check`` once made
    dimensionless (times scale^d, as M(sP) = s^-d M(P)).  A change of the
    shifted dual's combinatorics on a ray raises its own error first.
    """
    raw = _raw_hessians(poly)
    asym = max(float(np.max(np.abs(m - m.T))) for m in raw)
    sym = [-(m + m.T) / 2.0 for m in raw]
    combined = [2.0 * sym[k + 1] - sym[k] for k in range(2)]
    drift = float(np.max(np.abs(combined[1] - combined[0])))
    limit = poly.tol.fd_check / poly.unit_scale ** poly.dim
    if max(drift, asym) > limit:
        raise NumericalInstability(
            f"step-halving drift {drift:.3e} / asymmetry {asym:.3e} exceeds {limit:.1e}")
    return _input_units(combined[1], poly)


def _raw_hessians(poly: Polytope) -> np.ndarray:
    """(3, n, n): raw Hessians at steps h, h/2 and h/4, all 2n stencil rays c = 1 +- t e_i at once.

    One ``dual_facet_volumes`` call reads every ray's shifted dual at h/4
    off one walk at c = 1, re-solves them at h/4, h/2 and h, and sums the
    facets of all rays, of whatever type, in one volume kernel call.
    """
    n, steps = poly.n, poly.tol.fd_step / np.array([4.0, 2.0, 1.0])
    rays = 1.0 + np.array([1.0, -1.0])[:, None, None] * steps[:, None] * np.eye(n)[:, None, None]
    grad = (dual_facet_volumes(poly, rays.reshape(2 * n, 3, n))
            / np.linalg.norm(poly.unit, axis=1)).reshape(n, 2, 3, n)
    return ((grad[:, 0] - grad[:, 1]) / (2.0 * steps[:, None])).transpose(1, 2, 0)[::-1]


def _kernel_residual(m: np.ndarray, poly: Polytope) -> tuple[float, float]:
    """max|M phi^T| and its bound ``tol.kernel`` max|M| scale.

    Both sides scale like s^(1-d) under P -> sP, as M(sP) = s^-d M(P), so
    the comparison is scale-free.
    """
    residual = float(np.max(np.abs(m @ poly.phi.T)))
    return residual, poly.tol.kernel * float(np.max(np.abs(m))) * poly.scale


def verify_properties(m: np.ndarray, poly: Polytope) -> dict:
    """Witnessed verdicts on the five defining properties of the (n, n) matrix ``m``.

    On ``poly.edges``: (1) strictly negative on edges (``sign_ok``), (2)
    zero on non-edges (``sparsity_ok``), (3) exactly one negative
    eigenvalue, of multiplicity one, (4) the kernel condition M phi^T = 0
    and (5) a kernel of dimension d; symmetry, sparsity and the kernel are
    checked relative to max|M|.  ``passed`` holds when all of them do.
    """
    tol, n, edges = poly.tol, poly.n, set(poly.edges)
    bound = tol.kernel * float(np.max(np.abs(m)))
    symmetric_ok = bool(np.max(np.abs(m - m.T)) <= bound)
    sign_ok = all(m[i, j] < 0.0 and m[j, i] < 0.0 for i, j in edges)
    sparsity_ok = all(abs(m[i, j]) <= bound and abs(m[j, i]) <= bound
                      for i, j in combinations(range(n), 2) if (i, j) not in edges)
    eigvals = np.linalg.eigvalsh(m)
    eps_eig = tol.eig_rel * float(np.max(np.abs(eigvals)))
    negative = eigvals[eigvals < -eps_eig]
    kernel_dim = int(np.sum(np.abs(eigvals) <= eps_eig))
    multiplicity = int(np.sum(np.abs(negative - negative.min()) <= eps_eig)) if len(negative) else 0
    residual, kernel_bound = _kernel_residual(m, poly)
    report = {
        "symmetric_ok": symmetric_ok,
        "sign_ok": sign_ok,
        "sparsity_ok": sparsity_ok,
        "negative_eigenvalues": int(len(negative)),
        "negative_multiplicity": multiplicity,
        "kernel_residual": residual,
        "kernel_ok": residual <= kernel_bound,
        "kernel_dim": kernel_dim,
        "dim": poly.dim,
        "eig_threshold": float(eps_eig),
        "spectrum": [float(v) for v in eigvals],
    }
    report["passed"] = (symmetric_ok and sign_ok and sparsity_ok and len(negative) == 1
                        and multiplicity == 1 and report["kernel_ok"] and kernel_dim == poly.dim)
    return report
