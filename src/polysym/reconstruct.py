"""Turn colored-graph automorphisms into explicit geometric symmetries.

Each graph automorphism sigma lifts to the linear map phi @ Pi_sigma @
pinv(phi); for the colorings built here that map provably permutes the
vertex set, so acceptance failures are errors (TheoremViolation), never
silent filtering.  Only a group's generators are lifted and checked: phi
has full row rank, so the lift is unique and multiplicative, and maps that
permute the vertices (or are orthogonal) are closed under products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autgroup import PermutationSet, automorphisms
from .colorings import Coloring, izmestiev_coloring, metric_coloring, product_coloring
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import KernelResidual, RankDeficient, TheoremViolation
from .geometry import Polytope
from .izmestiev import _kernel_residual, izmestiev_matrix


def pseudo_inverse(phi: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Right pseudo-inverse phi.T @ (phi @ phi.T)^-1 with phi @ pinv = I, else RankDeficient."""
    phi = np.asarray(phi, dtype=float)
    try:
        pinv = np.linalg.solve(phi @ phi.T, phi).T
    except np.linalg.LinAlgError as exc:  # exactly singular; the residual takes a near-singular one
        raise RankDeficient("vertex matrix does not have full row rank") from exc
    if not np.max(np.abs(phi @ pinv - np.eye(len(phi)))) <= tol.pinv:  # NaN fails too
        raise RankDeficient("pseudo-inverse residual exceeds tolerance")
    return pinv


@dataclass(frozen=True, eq=False)
class MatrixGroup:
    """A permutation group of phi's columns and its frame; only ``lift`` makes maps of perms."""

    perm_group: PermutationSet | None   # None on a bare frame
    phi: np.ndarray       # (d, n), full row rank: column j is point j
    pinv: np.ndarray      # pseudo_inverse(phi, tol)
    tol: Tolerances

    @property
    def order(self) -> int:
        return self.perm_group.order

    def lift(self, perms):
        """(maps, orth): perms' (k, d, d) maps phi[:, perm] @ pinv, and each max|T^T T - I|."""
        maps = self.phi.T[np.asarray(perms)].transpose(0, 2, 1) @ self.pinv
        return maps, np.abs(maps.transpose(0, 2, 1) @ maps - np.eye(len(self.phi))).max(axis=(1, 2))

    def check(self, perms, flavor: str):
        """(maps, ok, residuals) of perms lifted in one batch: generators, or oracle candidates.

        ok[i] says that map i sends every vertex j to vertex perm[j] within
        ``tol.match`` of that vertex's norm (and, for the orthogonal flavor,
        that its orth residual is at most ``tol.orth``); residuals["match"]
        (and ["orth"]) hold each map's worst residual, relative like its tolerance.
        """
        phi, tol = self.phi, self.tol
        perms = np.asarray(perms, dtype=np.int64).reshape(-1, phi.shape[1])
        maps, orth = self.lift(perms)
        err = np.linalg.norm(maps @ phi - phi.T[perms].transpose(0, 2, 1), axis=1)  # (k, n)
        norms = np.linalg.norm(phi, axis=0)[perms]
        ok = np.all(err <= tol.match * norms, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):   # an embedding may put a vertex at 0
            residuals = {"match": np.max(err / norms, axis=1)}
        if flavor == "orthogonal":
            residuals["orth"] = orth
            ok &= orth <= tol.orth
        return maps, ok, residuals


def eigenspace_criterion(a: np.ndarray, phi: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES):
    """Is the row space of phi an eigenspace of the symmetric matrix a?

    Fits a single scalar lambda to a @ phi.T = lambda * phi.T by least
    squares and reports (ok, lambda, residual); ok means the residual is
    at most ``tol.eig_rel`` times max|a| max|phi|, the scale of a @ phi.T.
    """
    a = np.asarray(a, dtype=float)
    b = a @ phi.T
    denom = float(np.sum(phi.T * phi.T))
    lam = float(np.sum(b * phi.T)) / denom
    residual = float(np.max(np.abs(b - lam * phi.T)))
    ref = float(np.max(np.abs(a))) * float(np.max(np.abs(phi)))
    return residual <= tol.eig_rel * ref, lam, residual


@dataclass(frozen=True, eq=False)
class PipelineArtifacts:
    """Everything the symmetry pipelines derive from one polytope."""

    poly: Polytope
    matrix: np.ndarray    # (n, n) Izmestiev matrix, kernel condition checked
    izm_coloring: Coloring
    met_coloring: Coloring
    prod_coloring: Coloring


def build_artifacts(poly: Polytope) -> PipelineArtifacts:
    """The Izmestiev matrix and the colorings; a matrix off its kernel condition raises."""
    matrix = izmestiev_matrix(poly)
    residual, bound = _kernel_residual(matrix, poly)
    if residual > bound:
        raise KernelResidual(f"kernel condition residual {residual:.3e} exceeds {bound:.1e}")
    izm = izmestiev_coloring(poly, matrix)
    met = metric_coloring(poly)
    return PipelineArtifacts(poly=poly, matrix=matrix, izm_coloring=izm, met_coloring=met,
                             prod_coloring=product_coloring(izm, met))


def _realize_group(art: PipelineArtifacts, coloring: Coloring, flavor: str) -> MatrixGroup:
    phi, tol = art.poly.phi, art.poly.tol
    group = MatrixGroup(automorphisms(coloring), phi, pseudo_inverse(phi, tol), tol)
    maps, ok, residuals = group.check(group.perm_group.generators, flavor)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        sigma = group.perm_group.generators[i]
        not_orthogonal = "orth" in residuals and residuals["match"][i] <= tol.match
        raise TheoremViolation(
            f"{flavor} reconstruction failed: " + (
                f"map for {sigma} is not orthogonal" if not_orthogonal else
                f"generator {sigma} is not realized by its reconstructed map"),
            diagnostic={"perm": sigma, "matrix": maps[i].tolist(), "polytope": art.poly.name,
                        "tolerance": tol.orth if not_orthogonal else tol.match,
                        "residuals": {k: float(v[i]) for k, v in residuals.items()}})
    return group


def linear_group(art: PipelineArtifacts) -> MatrixGroup:
    """All invertible linear maps fixing the polytope, via the spectral coloring."""
    return _realize_group(art, art.izm_coloring, "linear")


def orthogonal_group(art: PipelineArtifacts) -> MatrixGroup:
    """All orthogonal maps fixing the polytope, via the product coloring."""
    return _realize_group(art, art.prod_coloring, "orthogonal")

