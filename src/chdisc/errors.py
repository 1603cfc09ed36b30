"""Exception hierarchy for geometric preconditions."""


class GeometryError(ValueError):
    """Base class for all geometric precondition failures."""


class ZeroVectorError(GeometryError):
    """A projective point was built from the zero vector."""


class NullPointError(GeometryError):
    """An operation requiring a non-null point received one inside the zero band."""


class ClassError(GeometryError):
    """A point has the wrong sign class for the requested operation."""


class DegenerateError(GeometryError):
    """Projectively dependent input where independence is required."""


class FrameError(GeometryError):
    """A frame failed its orthogonality requirement."""


class NotUltraparallelError(GeometryError):
    """Two complex geodesics are not ultraparallel."""


class HyperbolicityError(GeometryError):
    """A turnover signature fails the hyperbolicity inequality."""


class ConvergenceError(GeometryError):
    """An iterative solver failed to reach its residual target."""


class InvalidSolutionError(GeometryError):
    """A solver converged, but the resulting quadrangle failed certification."""


class MeshError(GeometryError):
    """A section mesh violated one of its consistency invariants."""
