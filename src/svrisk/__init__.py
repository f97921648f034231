"""Exact set-valued risk measures on finite scenario spaces.

Worst-case and value-at-risk measures evaluate to polyhedral upper sets in
the coordinates of the eligible subspace; axioms, correspondences, and the
representation-theorem decompositions are checked by exact rational set
comparison.
"""

from .cones import EligibleSubspace, bidask_cone, dual_cone, restrict_to_subspace
from .geometry import (
    Cone,
    Halfspace,
    Polyhedron,
    UpperSet,
    canonicalize,
    convert_rep,
    eliminate,
    hrep_from_vrep,
    hs,
    is_subset,
    minkowski_sum,
    scale_set,
    sets_equal,
    union_sets,
    upper_set,
)
from .laws import (
    ACCEPTANCE_LAWS,
    CORRESPONDENCE_DIRECTIONS,
    MEASURE_LAWS,
    LawReport,
    SampleBudget,
    check_acceptance_law,
    check_correspondence,
    check_measure_law,
    check_star_at,
    esssup_bridge,
    recheck_witness,
)
from .measures import (
    AccIntersection,
    AccUnion,
    ConvexCombo,
    DominanceAt,
    Hull,
    MeasureIntersection,
    MeasureUnion,
    OfAcceptance,
    OfMeasure,
    Ray,
    Segment,
    SegmentHull,
    Shift,
    Translate,
    VaR,
    VaRStrong,
    VaRWeak,
    WorstCase,
    accepts,
    acceptance_from_doc,
    acceptance_to_doc,
    eval_acceptance,
    eval_measure,
    measure_from_doc,
    measure_to_doc,
    value_at_risk,
    worst_case,
)
from .represent import (
    DecompositionFamily,
    DualCertificate,
    decompose,
    dual_certificate,
    family_union_value,
    reconstruct_check,
    star_link,
    validate_certificate,
)
from .scenario import (
    Market,
    PortfolioVector,
    RandomVector,
    ScenarioSpace,
    componentwise_sup,
    load_market,
    load_position,
)

__version__ = "0.1.0"
