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

from .autgroup import PermutationSet
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import RankDeficient, TooManyCandidates
from .reconstruct import MatrixGroup, lift_and_check, pseudo_inverse

SYM_LIMIT = 9  # full symmetric-group streams allowed up to 9! candidates


def brute_force_group(phi: np.ndarray, candidates=None, flavor: str = "linear",
                      tol: Tolerances = DEFAULT_TOLERANCES) -> MatrixGroup:
    """Filter candidate permutations down to realized geometric symmetries.

    With candidates=None the full symmetric group is streamed in
    lexicographic order (n <= 9 only).  phi must have full row rank, so
    for each sigma the candidate map is unique: sound and complete.
    NotAGroup if the realized permutations are not closed.
    """
    phi = np.asarray(phi, dtype=float)
    n = phi.shape[1]
    if candidates is None:
        if n > SYM_LIMIT:
            raise TooManyCandidates(
                f"Sym({n}) has {factorial(n)} elements; supply candidates explicitly")
        candidates = permutations(range(n))
    pinv, accepted, it = pseudo_inverse(phi, tol), {}, iter(candidates)
    while block := list(islice(it, 4096)):  # lift in batches, in bounded memory
        maps, ok, _ = lift_and_check(phi, block, flavor, tol, pinv)
        accepted.update((tuple(int(x) for x in block[i]), maps[i]) for i in np.flatnonzero(ok))
    group = PermutationSet(accepted)
    return MatrixGroup(group, np.array([accepted[p] for p in group.perms]), flavor, tol)


def embedding_group(coordinates, candidates=None, flavor: str = "linear",
                    tol: Tolerances = DEFAULT_TOLERANCES) -> MatrixGroup:
    """Same filter for any point set, one point per row; restricts to its span first."""
    phi = np.asarray(coordinates, dtype=float).T
    d = phi.shape[0]
    u, s, _ = np.linalg.svd(phi, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * max(s[0], 1.0)))
    if rank == 0:
        raise RankDeficient("the points span no direction")
    if rank < d:
        phi = u[:, :rank].T @ phi
    return brute_force_group(phi, candidates=candidates, flavor=flavor, tol=tol)

