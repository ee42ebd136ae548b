import numpy as np
import pytest

from helpers import FIXTURES
from polysym.reconstruct import build_artifacts


@pytest.fixture(scope="session")
def polytopes():
    return {name: factory() for name, factory in FIXTURES.items()}


@pytest.fixture(scope="session")
def artifacts(polytopes):
    return {name: build_artifacts(poly) for name, poly in polytopes.items()}


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def random_invertible(rng, d, max_cond=10.0):
    """Well-conditioned random matrix: singular values within a factor sqrt(cond)."""
    u = random_orthogonal(rng, d)
    v = random_orthogonal(rng, d)
    lo, hi = 1.0 / np.sqrt(max_cond), np.sqrt(max_cond)
    s = np.exp(rng.uniform(np.log(lo), np.log(hi), size=d))
    return u @ np.diag(s) @ v.T
