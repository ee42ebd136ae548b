"""Exception hierarchy shared across the package."""


class PolysymError(Exception):
    """Base class for all errors raised by polysym."""


class ParseError(PolysymError):
    """Input document is malformed or structurally inconsistent."""


class ValidationError(PolysymError):
    """Vertex data violates a polytope invariant (names the violated one)."""


class DegenerateGeometry(PolysymError):
    """Geometry is inconsistent with a valid full-dimensional polytope, or leaves float range."""


class Unbounded(PolysymError):
    """Shifted-facet dual region left the trust region (no bounded vertex set)."""


class SingularAngle(PolysymError):
    """Two adjacent vertices are collinear with the origin."""


class KernelResidual(PolysymError):
    """The vertex-matrix kernel condition failed beyond tolerance."""


class DomainMismatch(PolysymError):
    """Two colorings live on different graphs."""


class NotAGroup(PolysymError):
    """A permutation set is not a group, or does not act on the given graph."""


class LimitExceeded(PolysymError):
    """A member listing, or a Sym(n) candidate stream, would pass autgroup.MAX_MEMBERS."""


class RankDeficient(PolysymError):
    """Vertex matrix does not have full row rank."""


class TheoremViolation(PolysymError):
    """A colored-graph automorphism failed to produce a geometric symmetry.

    This never happens for correct input; it signals a quantization,
    tolerance, or geometry bug and carries a diagnostic payload.
    """

    def __init__(self, message, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}


class NumericalInstability(PolysymError):
    """An FD check failed: step-halving drift, symmetry or a re-solved dual vertex's tight set."""
