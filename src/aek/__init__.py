"""Affine evolute kit.

Classical affine invariants of locally convex surface patches (Transon
planes, the cone of B.Su, Moutard quadrics) plus the mid-planes
evolute: the collapse limit of the envelope of mid-planes, its
direction sextic, and branch continuation over a patch.
"""

from .errors import (
    AekError,
    DegenerateConeError,
    DegeneratePairError,
    NonConvexPointError,
    NormalizationError,
    NoSolutionError,
    PatchBoundsError,
    RankDeficientError,
    SpecFormatError,
)
from .evolute import (
    DirectionSextic,
    EvoluteBranch,
    EvoluteSolution,
    direction_sextic,
    discriminant_D,
    evolute_directions,
    pick_derivative,
    pick_invariant,
    section_curvature_rate,
    solve_evolute_point,
    trace_evolute,
)
from .frames import (
    AffineMap3,
    BlaschkeFrame,
    SurfaceModel,
    frame_from_coefficients,
    normalize_at,
    pull_back,
    pull_back_direction,
    random_frame,
    rotate_frame,
    rotate_to,
    to_float_frame,
)
from .geometry import AtInfinity, Plane3, Quadric3, plane_distance
from .invariants import (
    SectionJet,
    affine_curvature,
    affine_curvature_derivative,
    center_of_affine_curvature,
    moutard_center,
    moutard_quadric,
    section_projection,
    su_cone_direction,
    transon_gradients,
    transon_plane,
)
from .jets import Jet2, Jet4, LinearFormJet, substitute
from .midplanes import (
    check_cubic_term,
    check_quartic_term,
    expand_mid_plane,
    mid_plane,
    midplane_limit_probe,
    pair_sum_forms,
)
from .scalars import FLOAT, RATIONAL, ModeMismatchError

__version__ = "0.1.0"
