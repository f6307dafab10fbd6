"""The classical validation metrics as configurations of one estimator.

Reliability, the frequentist metric, the ECDF area metric, binned-pdf
distances, hypothesis-test power, and Bayesian evidence all answer the
same question - "how probable is agreement?" - with different comparison
values, uncertainties, and rules. This script computes each one on small
fixtures and shows the relationships between them.

Run with: python demos/02_metric_catalog.py
"""

import math

import numpy as np

from bvm import (
    BinnedPdf,
    DiracDelta,
    IndependentProduct,
    InputGrid,
    Normal,
    StudentT,
    Threshold,
    polynomial_model,
    push_forward,
)
from bvm.metrics import (
    DataSummary,
    GaussianLikelihoodSpec,
    area_metric_validation,
    bayes_factor,
    bayesian_evidence,
    binned_pdf_metric,
    classical_hypothesis,
    divergence_validation,
    frequentist,
    improved_reliability,
    reliability,
    statistical_power_bvm,
)

# ---------------------------------------------------------------------------
# Reliability: P(|model mean - data mean| <= eps) under both uncertainties.

r = reliability(Normal(1.0, 0.4), Normal(1.3, 0.5), eps=0.8)
print(f"reliability, eps=0.8:                 {r.p_hat:.4f}  ({r.method})")

# The frequentist metric is the same thing with a certain model mean and a
# Student-t data mean; under a plain tolerance rule the two coincide.
data = DataSummary(sample_mean=1.3, sample_std=1.58, n=10)
fr = frequentist(1.0, data, Threshold("abs_value", 0.8))
rel = reliability(DiracDelta(1.0), StudentT(1.3, 9, 1.58 / math.sqrt(10)), eps=0.8)
print(f"frequentist vs reliability:           {fr.p_hat:.6f} vs {rel.p_hat:.6f}")

# Improved reliability: the tolerance must hold at every path point.
grid = InputGrid.linspace(0.0, 1.0, 8)
model_paths = push_forward(IndependentProduct([Normal(0.0, 0.2)]), polynomial_model([0]), grid)
ir = improved_reliability(model_paths, DiracDelta(np.zeros(8)), eps=0.5, k=20_000, seed=0)
print(f"improved reliability (8 points):      {ir.p_hat:.4f}")

# ---------------------------------------------------------------------------
# Area metric: distance between whole ECDFs, certain by convention, with an
# optional bootstrap that lets the data CDF be uncertain.

rng = np.random.default_rng(0)
sm = rng.normal(0.0, 1.0, 300)
sd = rng.normal(0.1, 1.1, 250)
area_pass = area_metric_validation(sm, sd, Threshold("identity", 0.25))
area_boot = area_metric_validation(sm, sd, Threshold("identity", 0.25), bootstrap=2000, seed=1)
print(f"area metric, hard cut at 0.25:        {area_pass.p_hat:.0f}")
print(f"area metric with bootstrap data:      {area_boot.p_hat:.4f} +/- {area_boot.std_error:.4f}")

# Binned-pdf distance with Dirichlet-uncertain data bins.
edges = np.linspace(-3, 3, 9)
model_pdf = BinnedPdf.from_samples(rng.normal(0.0, 1.0, 50_000), 8, edges[0], edges[-1])
counts, _ = np.histogram(rng.normal(0.0, 1.0, 400), bins=edges)
bp = binned_pdf_metric(model_pdf, counts, Threshold("identity", 0.3), r=5000, seed=2)
print(f"binned-pdf distance, Dirichlet data:  {bp.p_hat:.4f}")

# Divergence acceptance on the same binned pdfs.
data_pdf = BinnedPdf(edges, (counts + 1) / (counts + 1).sum())
dv = divergence_validation(model_pdf, data_pdf, "js", Threshold("identity", 0.05))
print(f"Jensen-Shannon acceptance at 0.05:    {dv.p_hat:.0f}")

# ---------------------------------------------------------------------------
# Hypothesis testing. The classical test answers 1 - alpha no matter the
# model; the power product actually uses the model's distribution.

print()
data_stat = StudentT(0.0, 10.0, 1.75)
print(f"classical test at alpha=0.05:         {classical_hypothesis(data_stat, 0.05).estimate.p_hat:.4f} (model-independent)")
for std in (0.5, 2.0, 8.0):
    res = statistical_power_bvm(Normal(0.0, std), data_stat, 0.05, 0.05)
    print(
        f"power product, model N(0, {std:>3}):      {res.estimate.p_hat:.4f} "
        f"(model in data region {res.power_model_in_data:.3f}, data in model region {res.power_data_in_model:.3f})"
    )

# ---------------------------------------------------------------------------
# Bayesian evidence: exact-match validation in the energy of a Gaussian
# likelihood; ratios of evidences rank models.

grid1 = InputGrid(np.array([0.0]))
const = polynomial_model([0])
lik = GaussianLikelihoodSpec(sigma=0.5, data_y=np.array([0.7]), grid=grid1)
ev_narrow = bayesian_evidence(const, Normal(0, 0.5), lik, k=100_000, seed=3)
ev_wide = bayesian_evidence(const, Normal(0, 3.0), lik, k=100_000, seed=4)
bf = bayes_factor(ev_narrow, ev_wide)
print()
print(f"log evidence, narrow prior:           {ev_narrow.log_evidence:.4f}")
print(f"log evidence, wide prior:             {ev_wide.log_evidence:.4f}")
print(f"evidence ratio (narrow/wide):         {bf.value:.3f}  (needless prior width is penalised)")
