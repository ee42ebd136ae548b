"""Definition-level brute-force ground truth for symmetry groups.

Independent of the coloring pipeline: candidates (all of Sym(V), or a
supplied set such as the uncolored graph automorphisms) are filtered by
directly testing whether the unique linear candidate map permutes the
point set.  Also evaluates arbitrary point sets, such as graph
embeddings, which need not be polytopes at all.
"""

from __future__ import annotations

from itertools import islice, permutations
from math import factorial

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import TooManyCandidates
from .reconstruct import MatrixGroup, lift_and_check, pseudo_inverse

SYM_LIMIT = 9  # full symmetric-group streams allowed up to 9! candidates


def _accepted_stream(phi, candidates, flavor, tol, chunk=4096):
    """Yield (perm, map) for candidates realized by their unique linear map."""
    pinv = pseudo_inverse(phi, tol)
    it = iter(candidates)
    while block := list(islice(it, chunk)):
        maps, ok, _ = lift_and_check(phi, block, flavor, tol, pinv)
        for idx in np.flatnonzero(ok):
            yield tuple(int(x) for x in block[idx]), maps[idx]


def brute_force_group(phi: np.ndarray, candidates=None, flavor: str = "linear",
                      tol: Tolerances = DEFAULT_TOLERANCES) -> MatrixGroup:
    """Filter candidate permutations down to realized geometric symmetries.

    With candidates=None the full symmetric group is streamed in
    lexicographic order (n <= 9 only).  phi must have full row rank, so
    for each sigma the candidate map is unique: sound and complete.
    """
    phi = np.asarray(phi, dtype=float)
    n = phi.shape[1]
    if candidates is None:
        if n > SYM_LIMIT:
            raise TooManyCandidates(
                f"Sym({n}) has {factorial(n)} elements; supply candidates explicitly")
        candidates = permutations(range(n))
    pairs = tuple(sorted(_accepted_stream(phi, candidates, flavor, tol),
                         key=lambda pt: pt[0]))
    return MatrixGroup(pairs=pairs, flavor=flavor)


def embedding_group(coordinates, candidates=None, flavor: str = "linear",
                    tol: Tolerances = DEFAULT_TOLERANCES) -> MatrixGroup:
    """Same filter for any point set, one point per row; restricts to its span first."""
    phi = np.asarray(coordinates, dtype=float).T
    d = phi.shape[0]
    u, s, _ = np.linalg.svd(phi, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * max(s[0], 1.0)))
    if rank < d:
        phi = u[:, :rank].T @ phi
    return brute_force_group(phi, candidates=candidates, flavor=flavor, tol=tol)

