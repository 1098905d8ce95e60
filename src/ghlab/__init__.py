"""Local Gromov-Hausdorff distances, Lipschitz extensions, Kantorovich
transport, metric gluings, and the tunnel framework for finite pointed
metric spaces, with a seeded theorem-verification harness."""

from .gluing import (
    Correspondence,
    EtaTooSmall,
    GluedSpace,
    NotDistancePreserving,
    correspondence,
    correspondence_distortion,
    glue_from_correspondence,
    glue_triple_w,
    glued_from_json,
    glued_to_json,
    validate_gluing,
)
from .kantorovich import (
    Measure,
    measure,
    w1,
    w1_dual_potential,
)
from .lipschitz import (
    RealFunction,
    band_lift,
    extend_compact_support,
    lip_constant,
    mcshane_extend,
    mcshane_extend_lower,
    real_function,
    sup_norm,
    truncate_clip,
)
from .local_gh import (
    Delta_r,
    EquivalenceReport,
    InframetricResult,
    delta_r,
    delta_r_alt_form,
    delta_r_def_form,
    delta_r_equivalents,
    gh_inframetric,
    refine_gluing_cross,
)
from .metric_core import (
    AxiomViolation,
    BudgetExceeded,
    EmptySet,
    FiniteMetricSpace,
    MetricError,
    PointedSpace,
    PreconditionFailed,
    closed_ball,
    diameter,
    eps_contained,
    hausdorff,
    line_space,
    min_plus_closure,
    pointed,
    pointed_from_json,
    space_from_csv,
    space_from_json,
    space_to_json,
    validate_metric,
)
from .numerics import FLOAT, INF, RATIONAL, Scalar, format_scalar, parse_scalar
from .simplex import solve_lp, transportation_simplex
from .tunnels import (
    FundamentalReport,
    Passage,
    TargetBounds,
    check_admissible,
    check_left_admissible,
    compose,
    existence_tunnel,
    extent,
    inverse,
    k_family,
    lift_target_bounds,
    local_propinquity,
    passage_from_gluing,
    passage_from_isometry,
    passage_from_json,
    propinquity_bracket,
    smallest_admissible,
    verify_fundamental,
)
from .verify import SUITES, TheoremResult, run_suite

__version__ = "0.1.0"
