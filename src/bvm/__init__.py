"""Probability-of-agreement model validation toolkit.

Quantifies how probable it is that a model and a data source agree,
where the meaning of "agree" is an explicit, user-chosen Boolean (or
soft) rule over a comparison value. The classical validation metrics
(reliability, frequentist, area, pdf-distance, hypothesis-test power,
Bayesian evidence) are configurations of the same estimator and live in
:mod:`bvm.metrics`.
"""

from .agreement import (
    AgreementRule,
    AlwaysFalse,
    AlwaysTrue,
    And,
    EpsilonBeta,
    GammaEpsilon,
    InRegion,
    Interval,
    Not,
    Or,
    SetMembership,
    SoftExponential,
    Threshold,
    compose,
)
from .comparison import (
    BinnedPdf,
    Ecdf,
    area_metric,
    binned_prob_diff,
    coverage_fraction,
    divergence,
    ecdf,
    fraction_within,
    get_comparison_fn,
    hellinger,
    js_divergence,
    kl_divergence,
    max_abs_error,
    mean_abs_error,
    symmetrized_kl,
)
from .distributions import (
    Categorical,
    ConfidenceRegion,
    DensityUnsupported,
    DiracDelta,
    Distribution,
    Empirical,
    IndependentProduct,
    Normal,
    PushForward,
    ShiftedExponential,
    StudentT,
    Uniform,
    confidence_interval,
    confidence_set,
    probability_in_region,
    push_forward,
)
from .engine import (
    BvmEstimate,
    EstimationError,
    RatioResult,
    Scenario,
    SweepGrid,
    SweepTemplate,
    averaged_boolean_ratio,
    bvm_factor,
    bvm_from_density,
    bvm_ratio,
    comparison_density,
    estimate_bvm_grid,
    estimate_bvm_mc,
    ratio_grid,
    sweep,
)
from .models import InputGrid, ModelFunction, basis_model, damped_oscillator_model, polynomial_model

__version__ = "0.1.0"
