"""The Izmestiev matrix: negated Hessian of the shifted-dual volume.

Two independent routes to the same matrix:

* ``izmestiev_matrix`` uses the closed geometric form, entry by entry:
  off-diagonal edge entries from dual-face volumes, the diagonal solved
  from the kernel condition M @ phi.T = 0.
* ``izmestiev_matrix_fd`` numerically differentiates the dual volume and
  serves as the oracle for the first route.

The sign convention is fixed by the matrix's defining properties (negative
on edges, a single negative eigenvalue): it is minus the Hessian of
vol({x : <x, v_i> <= c_i}) at c = (1, ..., 1).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import KernelResidual, NumericalInstability, ParseError, SingularAngle
from .geometry import EdgeGraph, Polytope, dual_edge_face, volume_generalized_dual


@dataclass(frozen=True, eq=False)
class IzmestievMatrix:
    """Symmetric n x n matrix whose sparsity pattern is the edge-graph."""

    entries: np.ndarray
    graph: EdgeGraph

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "entries": self.entries.tolist()}


@dataclass(frozen=True)
class IzmestievPropertyReport:
    """Witnessed verdicts for the five defining matrix properties."""

    symmetric_ok: bool
    sign_ok: bool                 # (1) strictly negative on edges
    sparsity_ok: bool             # (2) zero on non-edges
    negative_eigenvalues: int     # (3) must be exactly one ...
    negative_multiplicity: int    # ... of multiplicity one
    kernel_residual: float        # (4) max |M @ phi.T|
    kernel_ok: bool
    kernel_dim: int               # (5) must equal d
    dim: int
    eig_threshold: float
    spectrum: tuple

    @property
    def spectral_ok(self) -> bool:
        return self.negative_eigenvalues == 1 and self.negative_multiplicity == 1

    @property
    def kernel_dim_ok(self) -> bool:
        return self.kernel_dim == self.dim

    @property
    def passed(self) -> bool:
        return (self.symmetric_ok and self.sign_ok and self.sparsity_ok
                and self.spectral_ok and self.kernel_ok and self.kernel_dim_ok)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "spectrum": list(self.spectrum), "passed": self.passed}


def izmestiev_matrix(poly: Polytope, graph: EdgeGraph,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> IzmestievMatrix:
    """Geometric-formula route.

    For an edge ij the entry is -vol(f_ij) / sqrt(|v_i|^2 |v_j|^2 - <v_i,v_j>^2)
    with f_ij the dual face of the edge; the Gram root is |v_i||v_j| sin of
    the angle at the origin.  Diagonal entries are solved row-wise from the
    kernel condition and the full residual is checked afterwards.
    """
    n = poly.n
    verts = poly.vertices
    entries = np.zeros((n, n))
    scale = poly.scale
    for i, j in graph.edges:
        gram = float(verts[i] @ verts[i]) * float(verts[j] @ verts[j]) \
            - float(verts[i] @ verts[j]) ** 2
        if gram <= (tol.geom(scale) * scale) ** 2:
            raise SingularAngle(f"vertices {i} and {j} are collinear with the origin")
        face = dual_edge_face(poly, (i, j), tol)
        entries[i, j] = entries[j, i] = -face.relvol / np.sqrt(gram)
    for i in range(n):
        nbr = graph.neighbors(i)
        entries[i, i] = -sum(entries[i, j] * float(verts[j] @ verts[i]) for j in nbr) \
            / float(verts[i] @ verts[i])
    residual = np.linalg.norm(entries @ poly.phi.T, axis=1)
    worst = float(residual.max())
    if worst > tol.kernel * max(1.0, scale):
        raise KernelResidual(
            f"kernel condition residual {worst:.3e} exceeds {tol.kernel:.1e}")
    return IzmestievMatrix(entries=entries, graph=graph)


def izmestiev_matrix_fd(poly: Polytope, graph: EdgeGraph,
                        tol: Tolerances = DEFAULT_TOLERANCES) -> IzmestievMatrix:
    """Finite-difference route: central second differences of the dual volume.

    Mixed entries use the 4-point stencil, diagonal ones the 3-point
    stencil, around the all-ones offset vector; each mixed stencil fills
    both (i, j) and (j, i), so the result is exactly symmetric.  ``graph``
    labels the returned matrix.  Raw stencils are evaluated at steps h,
    h/2 and h/4 (h = ``tol.fd_step``) and Richardson-combined pairwise,
    which cancels the step-linear error a merely C^2 volume produces at
    non-simple dual vertices; the two combined estimates must agree within
    the configured check tolerance, otherwise a combinatorial flip of the
    shifted dual is suspected.
    """
    n = poly.n
    vol = lambda c: volume_generalized_dual(poly, c, tol)
    base = np.ones(n)
    f0 = vol(base)

    def hessian(hh: float) -> np.ndarray:
        out = np.zeros((n, n))
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = hh
            out[i, i] = (vol(base + ei) - 2.0 * f0 + vol(base - ei)) / hh ** 2
        for i, j in combinations(range(n), 2):
            ei, ej = np.zeros(n), np.zeros(n)
            ei[i] = hh
            ej[j] = hh
            mixed = (vol(base + ei + ej) - vol(base + ei - ej)
                     - vol(base - ei + ej) + vol(base - ei - ej)) / (4.0 * hh ** 2)
            out[i, j] = out[j, i] = mixed
        return -out

    raw = [hessian(tol.fd_step / 2 ** k) for k in range(3)]
    combined = [2.0 * raw[k + 1] - raw[k] for k in range(2)]
    drift = float(np.max(np.abs(combined[1] - combined[0])))
    if drift > tol.fd_check:
        raise NumericalInstability(
            f"step-halving drift {drift:.3e} exceeds {tol.fd_check:.1e}; "
            "shifted dual changed combinatorics inside the stencil")
    return IzmestievMatrix(entries=combined[1], graph=graph)


def verify_properties(mat: IzmestievMatrix, poly: Polytope,
                      tol: Tolerances = DEFAULT_TOLERANCES) -> IzmestievPropertyReport:
    """Check the five defining properties and report witnesses."""
    m = mat.entries
    n = mat.n
    edges = mat.graph.edge_set
    symmetric_ok = bool(np.max(np.abs(m - m.T)) <= tol.kernel) if n else True
    sign_ok = all(m[i, j] < 0.0 and m[j, i] < 0.0 for i, j in edges)
    sparsity_tol = tol.kernel
    sparsity_ok = all(
        abs(m[i, j]) <= sparsity_tol and abs(m[j, i]) <= sparsity_tol
        for i, j in combinations(range(n), 2) if (i, j) not in edges)
    eigvals = np.linalg.eigvalsh(m)
    spectral_radius = float(np.max(np.abs(eigvals))) if n else 0.0
    eps_eig = tol.eig_rel * max(spectral_radius, 1e-300)
    negative = eigvals[eigvals < -eps_eig]
    kernel_dim = int(np.sum(np.abs(eigvals) <= eps_eig))
    if len(negative):
        multiplicity = int(np.sum(np.abs(negative - negative.min()) <= eps_eig))
    else:
        multiplicity = 0
    residual = float(np.max(np.abs(m @ poly.phi.T)))
    return IzmestievPropertyReport(
        symmetric_ok=symmetric_ok,
        sign_ok=bool(sign_ok),
        sparsity_ok=bool(sparsity_ok),
        negative_eigenvalues=int(len(negative)),
        negative_multiplicity=multiplicity,
        kernel_residual=residual,
        kernel_ok=bool(residual <= tol.kernel * max(1.0, poly.scale)),
        kernel_dim=kernel_dim,
        dim=poly.dim,
        eig_threshold=float(eps_eig),
        spectrum=tuple(float(v) for v in eigvals),
    )


def load_matrix_dump(doc: dict, graph: EdgeGraph) -> IzmestievMatrix:
    """Rehydrate a matrix dump {"n": int, "entries": [[...], ...]}."""
    if not isinstance(doc, dict):
        raise ParseError("matrix dump root must be a JSON object")
    entries = np.asarray(doc["entries"], dtype=float)
    if entries.shape != (doc["n"], doc["n"]) or entries.shape[0] != graph.n:
        raise ValueError("matrix dump shape inconsistent with edge-graph")
    return IzmestievMatrix(entries=entries, graph=graph)
