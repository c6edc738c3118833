"""Invariant densities and metastable structure of piecewise expanding
interval maps, computed by Ulam discretization of the transfer operator."""

from .map_model import (
    Branch,
    HypothesisReport,
    Interval,
    PerturbationFamily,
    PiecewiseMap,
    branch_preimages,
    distortion,
    evaluate,
    infinitesimal_holes,
    min_expansion,
    postcritical_hierarchy,
    validate_hypotheses,
)
from .transfer_operator import (
    DensityGrid,
    LasotaYorkeConstants,
    UlamMatrix,
    build_ulam,
    lasota_yorke_constants,
)
from .spectral import (
    escape_rate,
    invariant_density,
    second_eigenpair,
)
from .bv_analysis import (
    SaltusDecomposition,
    jump_decay_profile,
    saltus_decompose,
)
from .metastability import (
    HoleReport,
    SweepRow,
    analytic_lhr,
    compute_holes,
    convergence_study,
    flux_balance,
    hole_measures,
    markov_stationary,
    predict_mixture,
)

__all__ = [
    "Branch", "HypothesisReport", "Interval", "PerturbationFamily", "PiecewiseMap",
    "branch_preimages", "distortion", "evaluate", "infinitesimal_holes",
    "min_expansion", "postcritical_hierarchy", "validate_hypotheses",
    "DensityGrid", "LasotaYorkeConstants", "UlamMatrix",
    "build_ulam", "lasota_yorke_constants",
    "escape_rate", "invariant_density", "second_eigenpair",
    "SaltusDecomposition", "jump_decay_profile", "saltus_decompose",
    "HoleReport", "SweepRow", "analytic_lhr", "compute_holes",
    "convergence_study", "flux_balance", "hole_measures", "markov_stationary",
    "predict_mixture",
]

__version__ = "0.1.0"
