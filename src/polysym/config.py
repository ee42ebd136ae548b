"""Numerical tolerance ledger.

Every epsilon used anywhere in the package lives here, so that reports can
echo the exact thresholds a result was computed under.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


def positive_finite(value, name: str = "value") -> float:
    """The one rule for a tolerance, a field or a flag's text: a positive finite number."""
    if not 0 < (number := float(value)) < float("inf"):  # false for NaN too
        raise ValueError(f"{name} must be a positive finite number, not {value!r}")
    return number


@dataclass(frozen=True)
class Tolerances:
    # geometric incidence/coplanarity, relative to the largest vertex norm
    geom_rel: float = 1e-9
    # gap rule for quantizing real-valued colors into discrete classes
    color_rel: float = 1e-8
    # max-norm residual allowed for the kernel condition M @ phi.T == 0
    kernel: float = 1e-8
    # eigenvalue zero/sign threshold, relative to the spectral radius
    eig_rel: float = 1e-8
    # relative vertex-matching tolerance when accepting a linear map
    match: float = 1e-8
    # max-norm tolerance for T.T @ T == I
    orth: float = 1e-8
    # pseudo-inverse acceptance: max-norm of phi @ pinv - I
    pinv: float = 1e-10
    # finite-difference step for the volume Hessian
    fd_step: float = 1e-3
    # step-halving agreement and symmetry required of the finite-difference estimate
    fd_check: float = 1e-4
    # componentwise trust region [1-delta, 1+delta] for shifted facet offsets
    dual_trust: float = 0.05

    def __post_init__(self):
        for field in fields(self):
            positive_finite(getattr(self, field.name), field.name)

    def geom(self, scale: float) -> float:
        """Absolute geometric tolerance for a polytope of the given scale."""
        return self.geom_rel * scale


DEFAULT_TOLERANCES = Tolerances()
