"""Definition-level brute-force ground truth for symmetry groups.

Independent of the coloring pipeline: candidates (a supplied set, such as
the uncolored graph automorphisms, or Sym(V)) are filtered by directly
testing whether the unique linear candidate map permutes the point set,
which need not be a polytope (graph embeddings).  Sym(V) is streamed in
lexicographic order, less every prefix sigma(0..k-1), k > d, that fails

    |sum_j z_j phi_sigma(j)| <= 2 m sum_j |z_j| |phi_sigma(j)| + cond(phi) |phi[:, :k] z|

for a null direction z of phi[:, :k] (a right singular vector past the
d-th), m = ``tol.match``, 2-norms.  Sound: a sigma the lift accepts has
T = phi[:, sigma] pinv(phi), |T| <= |phi| |pinv(phi)| = cond(phi), and
T phi_j = phi_sigma(j) + r_j, |r_j| <= m |phi_sigma(j)|, so for every z
sum_j z_j phi_sigma(j) = T phi[:, :k] z - sum_j z_j r_j meets the bound
with m for 2m.  The cond term pays for z being only nearly null, the
second m for rounding in the lift and the sum (a few roundoffs times
cond(phi), far below m after ``pseudo_inverse``'s ``tol.pinv`` check).
"""

from __future__ import annotations

from itertools import chain, islice
from math import factorial

import numpy as np

from .autgroup import MAX_MEMBERS, PermutationSet
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import LimitExceeded, NotAGroup, RankDeficient
from .geometry import unit_exponent
from .reconstruct import MatrixGroup, pseudo_inverse


def brute_force_group(phi: np.ndarray, candidates=None, flavor: str = "linear",
                      tol: Tolerances = DEFAULT_TOLERANCES) -> MatrixGroup:
    """Filter candidate permutations down to realized geometric symmetries.

    phi is (d, n), column j the point j, for any point set (a polytope
    or a graph embedding).  It is first scaled, exactly, by the power of
    two that brings max|phi| into [1, 2) (``unit_exponent``), so no Gram
    matrix leaves float range, then restricted to its row space (a no-op on
    a polytope, whose phi has full row rank), so for each sigma the
    candidate map is unique: sound and complete.  With candidates=None,
    Sym(n) is streamed pruned, as the module docstring says, if n! is at
    most MAX_MEMBERS (n <= 9), else LimitExceeded.
    Every candidate is checked, and the realized ones are kept as a
    group that lifts its members through that phi.  They are a group
    iff the group they generate has as many members as they are
    distinct: NotAGroup if not, if none is realized
    or if one is no permutation of 0..n-1.
    """
    phi = np.ldexp(phi, -unit_exponent(phi))
    u, s, _ = np.linalg.svd(phi, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * s[0]))
    if rank == 0:
        raise RankDeficient("the points span no direction")
    if rank < len(phi):
        phi = u[:, :rank].T @ phi
    n = phi.shape[1]
    if candidates is None:
        if factorial(n) > MAX_MEMBERS:
            raise LimitExceeded(
                f"Sym({n}) has {factorial(n)} elements; supply candidates explicitly")
        candidates = _pruned_sym(phi, tol.match)
    frame = MatrixGroup(None, phi, pseudo_inverse(phi, tol), tol)
    accepted, it = [], iter(candidates)
    while block := list(islice(it, 4096)):  # lift in batches, in bounded memory
        ok = frame.check(block, flavor)[1]
        accepted += [tuple(block[i]) for i in np.flatnonzero(ok)]
    accepted = list(dict.fromkeys(accepted))  # distinct, in candidate order
    if not accepted:
        raise NotAGroup("no candidate is realized")
    if any(sorted(p) != list(range(n)) for p in accepted):
        raise NotAGroup("a realized candidate is not a permutation of 0..n-1")
    group = PermutationSet(n, accepted)
    if group.order != len(accepted):
        raise NotAGroup(f"{len(accepted)} realized permutations generate a group of order "
                        f"{group.order}: they are not a group")
    return MatrixGroup(group, phi, frame.pinv, tol)


def _pruned_sym(phi: np.ndarray, match: float):
    """Sym(n) in lexicographic order, less the prefixes the module docstring's test drops."""
    (d, n), norms, cond = phi.shape, np.linalg.norm(phi, axis=0), np.linalg.cond(phi)

    def grow(prefixes):  # (m, k) surviving prefixes, extended depth-first, <= 4096 kids a block
        k = prefixes.shape[1]
        z, step = np.linalg.svd(phi[:, :k + 1])[2][d:].T, max(1, 4096 // (n - k))
        slack = cond * np.linalg.norm(phi[:, :k + 1] @ z, axis=0)
        for block in (prefixes[i:i + step] for i in range(0, len(prefixes), step)):
            free = np.nonzero((block[:, :, None] != np.arange(n)).all(axis=1))[1]  # sorted per row
            kids = np.hstack([np.repeat(block, n - k, axis=0), free[:, None]])
            lhs = np.linalg.norm(phi[:, kids] @ z, axis=0)  # |sum_j z_j phi_sigma(j)| per kid, z
            kids = kids[np.all(lhs <= 2 * match * (norms[kids] @ np.abs(z)) + slack, axis=1)]
            yield from grow(kids) if k + 1 < n else [kids]

    yield from chain.from_iterable(zip(*b.T.tolist()) for b in grow(np.empty((1, 0), dtype=int)))
