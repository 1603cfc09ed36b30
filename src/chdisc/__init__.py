"""Complex hyperbolic disc-bundle toolkit.

Projective-model computations in the complex hyperbolic plane: quadrangles
of bisectors with numerical certificates, turnover group representations
(C-Fuchsian baselines and bent solutions), and disc-bundle invariants
(Toledo number, Euler degrees, and the 3 tau = 2 e + 2 chi identity).
"""

from .core import (
    FORM_MATRIX,
    Isometry,
    OrthogonalFrame,
    ProjectivePoint,
    classify,
    distance,
    elliptic_from_frame,
    herm_form,
    polar_span,
    reflection_about,
    tance,
)
from .errors import (
    ClassError,
    ConvergenceError,
    DegenerateError,
    FrameError,
    GeometryError,
    HyperbolicityError,
    InvalidSolutionError,
    MeshError,
    NotUltraparallelError,
    NullPointError,
    ZeroVectorError,
)
from .geometry import ComplexGeodesic, position
from .quadrangle import (
    Certificate,
    QuadrangleConfig,
    TriangleInvariant,
    epsilon,
    is_transversal,
    polars_digest,
    transversality_margins,
    triangle_over_complex_geodesic,
    validate_quadrangle,
)
from .representations import (
    QuadrangleFromRep,
    Representation,
    SolverSeed,
    TurnoverSignature,
    elliptic_fixed_point,
    fuchsian_turnover,
    h5_builder,
    orbifold_euler,
    relation_residual,
    turnover_solve,
)
from .invariants import (
    FrameField,
    InvariantReport,
    MeshDegrees,
    SectionMesh,
    SidePairing,
    build_frame_field,
    euler_via_mesh,
    gkl_euler,
    invariant_report,
    kaehler_angle,
    kalashnikov_residual,
    lagrangian_frame_check,
    snap_rational,
    toledo_via_coning,
    toledo_via_mesh,
)
from .meshes import (
    octagon_mesh,
    real_plane_point,
    turnover_section_mesh,
)
from .tolerances import TOL, Tolerances

__version__ = "1.0.0"
