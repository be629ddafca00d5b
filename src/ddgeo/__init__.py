"""Discrete bounded-curvature paths.

Polygonal paths that turn by at most ``theta`` per vertex, keep short edges
isolated, and bound the turn across short edges behave like bounded-curvature
curves.  This package validates such paths, decomposes them into discrete
circular arcs and straight bridges, shortens them with local moves, plans
shortest paths between oriented configurations, and connects the discrete
model to classical smooth Dubins curves via theta-discretization.
"""

from .geometry import DegenerateGeometryError, Point2, Vec2
from .model import (
    Configuration,
    DiscretePath,
    EdgeClass,
    Params,
    Violation,
    ViolationKind,
    augmented,
    classify_edge,
    is_inflection,
    path_length,
    reverse,
    transform,
    validate,
    vertex_turns,
)
from .structure import (
    Arc,
    Bridge,
    FORBIDDEN_FACTORS,
    InfeasiblePathError,
    InternalInconsistencyError,
    Orientation,
    PathStructure,
    TRUE_TYPES,
    canonicalize,
    extract_arcs,
    extract_bridges,
    find_forbidden_subtype,
    is_true_type,
    structure_of,
    type_or_none,
    type_string,
)
from .rewrite import (
    RewriteRule,
    RewriteTrace,
    RuleKind,
    RuleNotApplicableError,
    apply,
    find_applicable,
    shorten,
)
from .planner import (
    CandidateSpec,
    PlanResult,
    PlannerError,
    forward_construct,
    plan,
    solve_candidate,
)
from .smooth import (
    ArcSeg,
    ConvergenceRow,
    DiscretizationPlan,
    LineSeg,
    SmoothPath,
    angle_bound_check,
    chord_bound_check,
    convergence_experiment,
    discretize,
    dubins_solve,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
