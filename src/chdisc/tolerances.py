"""All numerical tolerances in one place.

Every threshold used by the library lives on :class:`Tolerances`.  Functions
take an optional ``tol`` argument defaulting to the module-level ``TOL``
instance, so a caller can tighten or relax the whole stack consistently.
"""

from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class Tolerances:
    #: |<x,x>| < null_band * ||x||^2 classifies a point as null.
    null_band: float = 1e-10
    #: max-norm bound on M*JM - J for a matrix to count as an isometry.
    isometry: float = 1e-10
    #: residual bound for orthogonality checks (frames, polars).
    orthogonality: float = 1e-9
    #: |tance - 1| below this classifies a pair of complex geodesics as asymptotic.
    asymptotic: float = 1e-9
    #: an inequality "passes" only if its slack exceeds this.
    strict_margin: float = 1e-9
    #: residual bound for a point to count as lying on a real spine.
    on_spine: float = 1e-9
    #: minimum angle between bisector tangent hyperplanes at a shared slice.
    angle_floor: float = 1e-6
    #: minimum sampled separation between non-adjacent bisector segments.
    sep_floor: float = 1e-8
    #: samples per slice / per segment in the K3 checks.
    k3_samples: int = 64
    #: g2-order residual ||g2^n2 - w I|| within which turnover_solve takes a
    #: start as converged.
    solver_residual: float = 1e-9
    #: residual bound for a fixed point passed to the Toledo integrator.
    fixed_point: float = 1e-8
    #: |value| within this of 1 (resp. 0) classifies a tangent plane as
    #: complex (resp. Lagrangian).
    kaehler: float = 1e-9
    #: maximum |raw - snapped| accepted when snapping invariants to rationals.
    snap: float = 1e-3
    #: pairing isometries must map edge runs onto each other within this.
    mesh: float = 1e-8

    def __post_init__(self):
        # K3 sizes its sample sets from k3_samples, and every certificate
        # records it: only a positive int has a meaning there
        k = self.k3_samples
        if not isinstance(k, int) or isinstance(k, bool) or k <= 0:
            raise ValueError(f"k3_samples must be a positive int, not {k!r}")

    def as_dict(self) -> dict:
        return asdict(self)


TOL = Tolerances()
