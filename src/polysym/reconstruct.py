"""Turn colored-graph automorphisms into explicit geometric symmetries.

Each graph automorphism sigma lifts to the linear map phi @ Pi_sigma @
pinv(phi); for the colorings built here that map provably permutes the
vertex set, so acceptance failures are errors (TheoremViolation), never
silent filtering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .autgroup import PermutationSet, automorphisms, compose
from .colorings import (
    Coloring,
    izmestiev_coloring,
    metric_coloring,
    product_coloring,
)
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import RankDeficient, TheoremViolation
from .geometry import EdgeGraph, Polytope, edge_graph
from .izmestiev import IzmestievMatrix, izmestiev_matrix


@dataclass(frozen=True, eq=False)
class MatrixGroup:
    """Permutations of the vertex set paired with the linear maps realizing them."""

    pairs: tuple          # ((perm, d x d ndarray), ...) sorted by perm
    flavor: str           # "linear" | "orthogonal"
    perm_group: PermutationSet | None = None   # generators and chain, when the pipeline built it

    @property
    def order(self) -> int:
        return len(self.pairs)

    @property
    def perm_set(self) -> frozenset:
        return frozenset(p for p, _ in self.pairs)

    def permutations(self) -> tuple:
        return tuple(p for p, _ in self.pairs)

    @cached_property
    def _lookup(self) -> dict:
        return dict(self.pairs)

    def matrix_for(self, perm) -> np.ndarray:
        """The map realizing ``perm``; KeyError if perm is not a member."""
        return self._lookup[tuple(perm)]

    def to_json_dict(self, tol: Tolerances = DEFAULT_TOLERANCES) -> dict:
        return {
            "flavor": self.flavor,
            "order": self.order,
            "tolerances": {"match": tol.match, "orth": tol.orth},
            "members": [
                {
                    "perm": list(p),
                    "matrix": t.tolist(),
                    "orthogonal": bool(check_orthogonal(t, tol.orth)),
                }
                for p, t in self.pairs
            ],
        }


def pseudo_inverse(phi: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Right pseudo-inverse phi.T @ (phi @ phi.T)^-1 with phi @ pinv = I."""
    phi = np.asarray(phi, dtype=float)
    d = phi.shape[0]
    gram = phi @ phi.T
    if np.linalg.matrix_rank(gram, tol=1e-12 * max(1.0, float(np.abs(gram).max()))) < d:
        raise RankDeficient("vertex matrix does not have full row rank")
    pinv = np.linalg.solve(gram, phi).T
    if np.max(np.abs(phi @ pinv - np.eye(d))) > tol.pinv:
        raise RankDeficient("pseudo-inverse residual exceeds tolerance")
    return pinv


def linear_map_from_perm(phi: np.ndarray, perm) -> np.ndarray:
    """The candidate map sending vertex j to vertex perm[j] on the whole space."""
    return lift_and_check(phi, [perm], "linear")[0][0]


def check_realizes(t: np.ndarray, perm, phi: np.ndarray, eps: float) -> bool:
    """True iff t maps every vertex j onto vertex perm[j], relatively to its norm."""
    perm = [int(x) for x in perm]
    target = phi[:, perm]
    err = np.linalg.norm(t @ phi - target, axis=0)
    norms = np.linalg.norm(target, axis=0)
    return bool(np.all(err <= eps * norms))


def lift_and_check(phi: np.ndarray, perms, flavor: str,
                   tol: Tolerances = DEFAULT_TOLERANCES, pinv: np.ndarray | None = None):
    """Lift permutations to their maps phi[:, perm] @ pinv(phi) in one batch, and check them.

    Returns (maps, ok, residuals): maps is (k, d, d); ok[i] is check_realizes
    at ``tol.match`` (and, for the orthogonal flavor, check_orthogonal at
    ``tol.orth``) of map i; residuals["match"] (and ["orth"]) hold each
    map's worst residual, relative like its tolerance.
    """
    phi = np.asarray(phi, dtype=float)
    d, n = phi.shape
    if pinv is None:
        pinv = pseudo_inverse(phi, tol)
    perms = np.asarray(perms, dtype=np.int64).reshape(-1, n)
    targets = phi.T[perms].transpose(0, 2, 1)            # (k, d, n): column j is vertex perm[j]
    maps = targets @ pinv
    err = np.linalg.norm(maps @ phi - targets, axis=1)   # (k, n)
    norms = np.linalg.norm(phi, axis=0)[perms]
    ok = np.all(err <= tol.match * norms, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):   # an embedding may put a vertex at 0
        residuals = {"match": np.max(err / norms, axis=1)}
    if flavor == "orthogonal":
        residuals["orth"] = np.max(np.abs(maps.transpose(0, 2, 1) @ maps - np.eye(d)), axis=(1, 2))
        ok &= residuals["orth"] <= tol.orth
    return maps, ok, residuals


def check_orthogonal(t: np.ndarray, eps: float) -> bool:
    return bool(np.max(np.abs(t.T @ t - np.eye(t.shape[0]))) <= eps)


def eigenspace_criterion(a: np.ndarray, phi: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES):
    """Is the row space of phi an eigenspace of the symmetric matrix a?

    Fits a single scalar lambda to a @ phi.T = lambda * phi.T by least
    squares and reports (ok, lambda, residual); ok means the residual is
    below ``tol.eig_rel`` relative to the scale of a @ phi.T.
    """
    a = np.asarray(a, dtype=float)
    b = a @ phi.T
    denom = float(np.sum(phi.T * phi.T))
    lam = float(np.sum(b * phi.T)) / denom
    residual = float(np.max(np.abs(b - lam * phi.T)))
    ref = max(1.0, float(np.max(np.abs(a))) * float(np.max(np.abs(phi))))
    return residual <= tol.eig_rel * ref, lam, residual


@dataclass(frozen=True, eq=False)
class PipelineArtifacts:
    """Everything the symmetry pipelines derive from one polytope."""

    poly: Polytope
    graph: EdgeGraph
    matrix: IzmestievMatrix
    izm_coloring: Coloring
    met_coloring: Coloring
    prod_coloring: Coloring


def build_artifacts(poly: Polytope, tol: Tolerances = DEFAULT_TOLERANCES) -> PipelineArtifacts:
    graph = edge_graph(poly)
    matrix = izmestiev_matrix(poly, graph, tol)
    izm = izmestiev_coloring(matrix, tol)
    met = metric_coloring(poly, graph, tol)
    return PipelineArtifacts(
        poly=poly, graph=graph, matrix=matrix,
        izm_coloring=izm, met_coloring=met,
        prod_coloring=product_coloring(izm, met),
    )


def _realize_group(art: PipelineArtifacts, coloring: Coloring, flavor: str,
                   tol: Tolerances, limit: int) -> MatrixGroup:
    group = automorphisms(coloring, limit=limit)
    maps, ok, residuals = lift_and_check(art.poly.phi, group.perms, flavor, tol)
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        sigma = group.perms[i]
        not_orthogonal = "orth" in residuals and residuals["match"][i] <= tol.match
        raise TheoremViolation(
            f"{flavor} reconstruction failed: " + (
                f"map for {sigma} is not orthogonal" if not_orthogonal else
                f"automorphism {sigma} is not realized by its reconstructed map"),
            diagnostic={"perm": sigma, "matrix": maps[i].tolist(), "polytope": art.poly.name,
                        "tolerance": tol.orth if not_orthogonal else tol.match,
                        "residuals": {k: float(v[i]) for k, v in residuals.items()}})
    return MatrixGroup(pairs=tuple(zip(group.perms, maps)), flavor=flavor, perm_group=group)


def linear_group(poly: Polytope, tol: Tolerances = DEFAULT_TOLERANCES,
                 artifacts: PipelineArtifacts | None = None,
                 limit: int = 10 ** 6) -> MatrixGroup:
    """All invertible linear maps fixing the polytope, via the spectral coloring."""
    art = artifacts or build_artifacts(poly, tol)
    return _realize_group(art, art.izm_coloring, "linear", tol, limit)


def orthogonal_group(poly: Polytope, tol: Tolerances = DEFAULT_TOLERANCES,
                     artifacts: PipelineArtifacts | None = None,
                     limit: int = 10 ** 6) -> MatrixGroup:
    """All orthogonal maps fixing the polytope, via the product coloring."""
    art = artifacts or build_artifacts(poly, tol)
    return _realize_group(art, art.prod_coloring, "orthogonal", tol, limit)


def verify_homomorphism(group: MatrixGroup, eps: float) -> bool:
    """Check t(p) @ t(q) == t(p*q) for all pairs; the perm map is injective."""
    lookup = group._lookup
    return all((r := compose(p, q)) in lookup and np.max(np.abs(tp @ tq - lookup[r])) <= eps
               for p, tp in group.pairs for q, tq in group.pairs)
