"""The public names of the ``svrisk`` package, pinned.

An export added or removed changes ``EXPORTS``, so it shows in review.  Every
name the benchmark scripts read off the package must stay exported.
"""

import pkgutil
import types

import svrisk
from test_bench_names import referenced_names

EXPORTS = [
    "ACCEPTANCE_LAWS", "AccIntersection", "AccUnion", "CORRESPONDENCE_DIRECTIONS", "Cone",
    "ConvexCombo", "DecompositionFamily", "DominanceAt", "DualCertificate",
    "EligibleSubspace", "Halfspace", "Hull", "LawReport", "MEASURE_LAWS", "Market",
    "MeasureIntersection", "MeasureUnion", "OfAcceptance", "OfMeasure", "Polyhedron",
    "PortfolioVector", "RandomVector", "Ray", "SampleBudget", "ScenarioSpace", "Segment",
    "SegmentHull", "Shift", "Translate", "UpperSet", "VaR", "VaRStrong", "VaRWeak",
    "WorstCase", "acceptance_from_doc", "acceptance_to_doc", "accepts", "bidask_cone",
    "canonicalize", "check_acceptance_law", "check_correspondence", "check_measure_law",
    "check_star_at", "componentwise_sup", "convert_rep", "decompose", "dual_certificate",
    "dual_cone", "eliminate", "esssup_bridge", "eval_acceptance", "eval_measure",
    "family_union_value", "hrep_from_vrep", "hs", "is_subset", "load_market",
    "load_position", "measure_from_doc", "measure_to_doc", "minkowski_sum",
    "recheck_witness", "reconstruct_check", "restrict_to_subspace", "scale_set",
    "sets_equal", "star_link", "union_sets", "upper_set", "validate_certificate",
    "value_at_risk", "worst_case",
]

SUBMODULES = {info.name for info in pkgutil.iter_modules(svrisk.__path__)}


def test_exports_are_pinned():
    exported = sorted(name for name, value in vars(svrisk).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == EXPORTS


def test_the_benchmark_reads_only_exports():
    read = {dotted.split(".")[1] for dotted in referenced_names()} - SUBMODULES
    assert {"eval_measure", "WorstCase"} <= read
    assert read <= set(EXPORTS)
