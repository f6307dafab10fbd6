"""The classical validation metrics, each as a configuration of the
probability-of-agreement estimator plus a closed form where one exists.

Covered here: reliability and its per-point improvement, the frequentist
metric over a Student-t data mean, the ECDF area metric (optionally with
bootstrap data uncertainty), binned-pdf distance with Dirichlet-uncertain
data bins, pdf-divergence acceptance, the classical hypothesis test and
its two-sided power improvement, and Gaussian-likelihood model evidence
with the Bayes factor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .agreement import AgreementRule, GammaEpsilon, Threshold, _nonnegative_eps, _value_breakpoints
from .comparison import BinnedPdf, _paired_masses, area_metric, area_metric_many, divergence
from .distributions import (
    ConfidenceRegion,
    DiracDelta,
    Distribution,
    Normal,
    ShiftedExponential,
    StudentT,
    Uniform,
    confidence_interval,
    confidence_set,
    probability_in_region,
)
from .engine import BvmEstimate, EstimationError, RatioResult, Scenario, _mc_estimate, _merge_moments, estimate_bvm_mc
from .models import InputGrid, ModelFunction
from .rng import CHUNK_SIZE, MODEL_STREAM, RESAMPLE_STREAM, _draw_chunk, fold_chunks

__all__ = [
    "DataSummary",
    "GaussianLikelihoodSpec",
    "EvidenceResult",
    "PowerResult",
    "ClassicalTestResult",
    "reliability",
    "improved_reliability",
    "frequentist",
    "area_metric_validation",
    "binned_pdf_metric",
    "divergence_validation",
    "classical_hypothesis",
    "statistical_power_bvm",
    "bayesian_evidence",
    "bayes_factor",
]


@dataclass(frozen=True)
class DataSummary:
    """Sufficient statistics of a measured sample: mean, std, count."""

    sample_mean: float
    sample_std: float
    n: int

    def __post_init__(self):
        if not self.sample_std > 0:
            raise ValueError("sample_std must be positive")
        if self.n < 2:
            raise ValueError("need at least two observations")

    @property
    def dof(self) -> int:
        return self.n - 1


@dataclass(frozen=True)
class GaussianLikelihoodSpec:
    """Observation model: independent Gaussian noise of width sigma around
    the model path, evaluated against ``data_y`` on ``grid``."""

    sigma: float
    data_y: np.ndarray
    grid: InputGrid

    def __post_init__(self):
        # The evidence takes log(2 pi sigma^2), so the square must not
        # underflow to 0 or overflow to inf.
        sigma = float(self.sigma)
        if not (0.0 < sigma < math.inf and 0.0 < 2.0 * math.pi * (sigma * sigma) < math.inf):
            raise ValueError(f"sigma must be positive and finite, with a positive finite square; got {self.sigma!r}")
        y = np.asarray(self.data_y, dtype=float)
        if y.shape != (len(self.grid),):
            raise ValueError("data_y length must match the grid")
        if not np.all(np.isfinite(y)):
            raise ValueError("data_y must be finite")
        object.__setattr__(self, "data_y", y)


def _resampled_estimate(rule: AgreementRule, values_of_chunk, n: int, seed: int) -> BvmEstimate:
    """Mean kernel weight of n resampled comparison values.

    ``values_of_chunk(rng, m)`` returns the m comparison values of one
    chunk, drawn from that chunk's RESAMPLE_STREAM generator, which it
    must not keep (see :func:`bvm.rng._draw_chunk`). The rule reads each
    value on both sides, so its callers check every leaf's ``reads`` with
    :func:`bvm.agreement._value_breakpoints`. The chunks are reduced
    as :func:`estimate_bvm_mc` reduces its own: the standard error is
    binomial (with a Wilson interval) for a hard rule, and std(weights) /
    sqrt(n) for a soft one.
    """
    if n < 1:
        raise ValueError("sample count must be at least 1")

    def chunk_weights(c: int, m: int):
        v = _draw_chunk(seed, RESAMPLE_STREAM, c, values_of_chunk, m)
        return rule.kernel_many(v, v)

    return _mc_estimate(chunk_weights, n, seed, rule.is_soft)


# ---------------------------------------------------------------------------
# Reliability family


def _normal_like(dist: Distribution):
    if isinstance(dist, Normal):
        return dist.mean, dist.std
    if isinstance(dist, DiracDelta) and np.ndim(dist.value) == 0:
        return float(dist.value), 0.0
    return None


def reliability(
    model_dist: Distribution,
    data_dist: Distribution,
    eps: float,
    k: int = 100_000,
    seed: int = 0,
) -> BvmEstimate:
    """Probability that the model and data means differ by at most eps.

    Exact where a closed form exists: two normal (or certain) inputs are
    one normal difference, and a certain input against a continuous one
    is a point against a distribution; both are :func:`_value_mass` of an
    'abs_value' threshold. Two certain inputs give the indicator
    ``|difference| <= eps``. Anything else is Monte Carlo. A NaN or
    negative eps raises ValueError, as it does in
    :func:`improved_reliability`, and so do two infinite means of one sign,
    whose difference is undefined.
    """
    _nonnegative_eps(eps)
    if model_dist.kind != "scalar" or data_dist.kind != "scalar":
        raise ValueError("reliability compares scalar expectation values")
    within = Threshold("abs_value", eps)
    nm, nd = _normal_like(model_dist), _normal_like(data_dist)
    if nm is not None and nd is not None:
        mu = nm[0] - nd[0]
        if math.isnan(mu):
            raise ValueError(f"the model mean {nm[0]} and the data mean {nd[0]} have no defined difference")
        sd = math.hypot(nm[1], nd[1])
        if sd == 0.0:
            p = 1.0 if abs(mu) <= eps else 0.0
        else:
            p = _value_mass(0.0, Normal(mu, sd), within)
        return BvmEstimate(p_hat=p, std_error=0.0, n_samples=0, seed=seed, method="closedForm")
    continuous = (Normal, StudentT, Uniform, ShiftedExponential)
    for certain, other in ((model_dist, data_dist), (data_dist, model_dist)):
        if isinstance(certain, DiracDelta) and np.ndim(certain.value) == 0 and isinstance(other, continuous):
            p = _value_mass(float(certain.value), other, within)
            return BvmEstimate(p_hat=p, std_error=0.0, n_samples=0, seed=seed, method="closedForm")
    scenario = Scenario(model_dist, data_dist, Threshold("abs_diff", eps))
    return estimate_bvm_mc(scenario, k, seed)


def improved_reliability(
    model_path_dist: Distribution,
    data_path_dist: Distribution,
    eps,
    k: int = 10_000,
    seed: int = 0,
) -> BvmEstimate:
    """Conjunction of per-point tolerance checks over whole output paths.

    ``eps`` may be one tolerance or a per-point vector, over two paths of one length.
    """
    rule = GammaEpsilon(gamma=1.0, eps=eps, m=1.0)
    return estimate_bvm_mc(Scenario(model_path_dist, data_path_dist, rule), k, seed)


# ---------------------------------------------------------------------------
# The exact single-value integral, and the frequentist metric on it


def _sorted_unique(values) -> np.ndarray:
    """``np.unique`` of a 1-d float array, by the same sort and the same
    adjacent-duplicate mask, without the ``numpy.ma`` import that
    ``np.unique`` makes in numpy 2."""
    values = np.sort(np.asarray(values, dtype=float))
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


# Quantile-panel edges for the quadrature: graded in the tails, where a
# heavy-tailed density spreads each probability decade over a long stretch
# of the axis, and equal in probability in the body. Only 1e-13 of mass is
# cut off on each side.
_TAIL_Q = np.logspace(-13.0, -2.0, 23)
_PANEL_Q = _sorted_unique(np.concatenate([_TAIL_Q, np.linspace(0.01, 0.99, 99), 1.0 - _TAIL_Q]))
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _value_mass(value: float, dist: Distribution, rule: AgreementRule) -> float:
    """P(rule accepts value - X) for X ~ ``dist``, which has a cdf.

    The rule reads the value through a one-sided comparison (see
    :func:`bvm.agreement._value_breakpoints`). For a hard rule with known
    breakpoints the acceptance set is a union of the gaps between the
    breakpoints, mapped to the X axis: one batched kernel call at a probe
    inside each gap classifies them, and the mass is the sum of the
    accepted gaps' cdf differences, which is exact; the end gaps take the
    cdf's limits 0 and 1, which hold at an infinite location too. An
    unbounded end gap is probed max(1, |cut|) beyond its cut, which stays
    inside the gap at any magnitude. Any other rule is integrated by 20-node Gauss-Legendre
    on quantile panels graded in the tails, with panel edges pinned at the
    rule's breakpoints so no kink or acceptance window falls inside a
    panel; ``dist`` then needs a density and array quantiles, and 2e-13
    of tail mass is truncated. A hard rule whose breakpoints are unknown
    may jump inside a panel, which limits the accuracy there.
    """
    breaks = _value_breakpoints(rule)

    def weights(x):
        v = value - x
        return rule.kernel_many(v, v)

    # value - X is linear in X, so value-axis breakpoints map directly.
    cuts = _sorted_unique([value - b for b in breaks or () if math.isfinite(b)])
    if not rule.is_soft and breaks is not None:
        # One probe per gap; a rule without cuts is constant, probed at 0.
        reach = np.maximum(1.0, np.abs(cuts))
        probes = np.concatenate([cuts[:1] - reach[:1], 0.5 * (cuts[:-1] + cuts[1:]), cuts[-1:] + reach[-1:]])
        if cuts.size == 0:
            probes = np.zeros(1)
        mass = np.diff(np.concatenate([[0.0], dist.cdf(cuts), [1.0]]))
        p = float(weights(probes) @ mass)
    else:
        edges = dist.quantile(_PANEL_Q)
        edges = _sorted_unique(np.concatenate([edges, cuts[(cuts > edges[0]) & (cuts < edges[-1])]]))
        half = 0.5 * np.diff(edges)
        x = ((edges[:-1] + half)[:, None] + half[:, None] * _GL_NODES).ravel()
        p = float(np.sum(weights(x) * dist.density(x) * (half[:, None] * _GL_WEIGHTS).ravel()))
    # A NaN (an infinite location gives inf - inf) stays NaN, and
    # BvmEstimate refuses it.
    return float(np.clip(p, 0.0, 1.0))


def frequentist(model_mean: float, data: DataSummary, rule: AgreementRule) -> BvmEstimate:
    """Student-t mass of the data mean over the rule's acceptance region.

    The rule reads the signed error E = model_mean - mu_y through a value
    comparison, and the data mean mu_y is Student t with n - 1 degrees of
    freedom around the sample mean, scaled by s / sqrt(n). The mass is
    :func:`_value_mass`: exact cdf sums for a hard rule with known
    breakpoints, and quantile-panel quadrature otherwise.
    """
    t = StudentT(data.sample_mean, data.dof, data.sample_std / math.sqrt(data.n))
    p = _value_mass(model_mean, t, rule)
    return BvmEstimate(p_hat=p, std_error=0.0, n_samples=0, seed=0, method="closedForm")


# ---------------------------------------------------------------------------
# Area and binned-pdf metrics


def area_metric_validation(
    samples_m,
    samples_d,
    rule: AgreementRule,
    bootstrap: int = 0,
    seed: int = 0,
) -> BvmEstimate:
    """Accept/reject on the area between the two empirical CDFs.

    With ``bootstrap`` > 0 the data sample is treated as uncertain:
    the indicator is averaged over that many resamples of the data, and
    each chunk of resamples is scored by one :func:`area_metric_many` call.
    """
    _value_breakpoints(rule)
    xm = np.asarray(samples_m, dtype=float)
    xd = np.asarray(samples_d, dtype=float)
    if xm.size == 0 or xd.size == 0:
        raise ValueError("need at least one sample on each side")
    if bootstrap <= 0:
        v = area_metric(xm, xd)
        return BvmEstimate(p_hat=rule.kernel(v, v), std_error=0.0, n_samples=0, seed=seed, method="closedForm")

    def areas(rng, m):
        # The first m rows of an (m, n) index draw equal those of a full chunk's.
        return area_metric_many(xm, xd[rng.integers(0, xd.size, (m, xd.size))])

    return _resampled_estimate(rule, areas, bootstrap, seed)


def _dirichlet_alpha(model_pdf: BinnedPdf, data_counts) -> np.ndarray:
    """The Dirichlet parameters of the data's bin probabilities: a uniform
    prior plus the observed counts, one per model bin."""
    counts = np.asarray(data_counts, dtype=float)
    if counts.shape != model_pdf.masses.shape:
        raise ValueError("data counts must match the model's bins")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    return counts + 1.0


def binned_pdf_metric(
    model_pdf: BinnedPdf,
    data_counts,
    rule: AgreementRule,
    r: int = 10_000,
    seed: int = 0,
) -> BvmEstimate:
    """Binned probability-difference acceptance under Dirichlet-uncertain
    data bin probabilities (uniform prior plus observed counts)."""
    _value_breakpoints(rule)
    alpha = _dirichlet_alpha(model_pdf, data_counts)

    def distances(rng, m):
        draws = rng.dirichlet(alpha, CHUNK_SIZE)[:m]
        return np.sum(np.abs(model_pdf.masses - draws), axis=1)

    return _resampled_estimate(rule, distances, r, seed)


def divergence_validation(
    p_model: BinnedPdf,
    p_data: BinnedPdf,
    kind: str,
    rule: AgreementRule,
    sampler=None,
    r: int = 1000,
    seed: int = 0,
) -> BvmEstimate:
    """Accept/reject on a pdf divergence G(data || model).

    An infinite divergence simply fails any finite threshold. With
    ``sampler(rng) -> (model_pdf, data_pdf)`` the pdfs themselves are
    uncertain and the indicator is averaged over r draws. Chunks of draws
    may run on several threads (``BVM_THREADS``), so the sampler must be
    a pure function of the generator it is given, and must not keep that
    generator: it is re-keyed for the worker's next chunk.
    """
    _value_breakpoints(rule)
    if sampler is None:
        g = divergence(kind, p_data, p_model)
        return BvmEstimate(p_hat=rule.kernel(g, g), std_error=0.0, n_samples=0, seed=seed, method="closedForm")

    def divergences(rng, m):
        # One divergence call scores the chunk's m pdf pairs, drawn in order.
        pairs = [sampler(rng) for _ in range(m)]
        data, model = zip(*(_paired_masses(pd, pm) for pm, pd in pairs))
        return divergence(kind, np.stack(data), np.stack(model))

    return _resampled_estimate(rule, divergences, r, seed)


# ---------------------------------------------------------------------------
# Hypothesis testing


@dataclass(frozen=True)
class ClassicalTestResult:
    estimate: BvmEstimate
    interval: ConfidenceRegion


def classical_hypothesis(data_dist: Distribution, alpha: float) -> ClassicalTestResult:
    """The classical test under the null assumption that the model equals
    the data: the non-rejection probability is 1 - alpha by construction,
    for every candidate model. The data's critical interval is returned
    for reporting.
    """
    if data_dist.kind != "scalar":
        raise ValueError("classical test needs a scalar test-statistic distribution")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    interval = confidence_interval(data_dist, 1.0 - alpha)
    est = BvmEstimate(p_hat=1.0 - alpha, std_error=0.0, n_samples=0, seed=0, method="closedForm")
    return ClassicalTestResult(estimate=est, interval=interval)


@dataclass(frozen=True)
class PowerResult:
    """Two-sided power product with its factors and regions."""

    estimate: BvmEstimate
    power_model_in_data: float
    power_data_in_model: float
    systematic_error: float
    model_region: ConfidenceRegion
    data_region: ConfidenceRegion


def statistical_power_bvm(
    model_dist: Distribution,
    data_dist: Distribution,
    alpha: float,
    alpha_hat: float,
    region_kind: str = "interval",
) -> PowerResult:
    """Agreement as mutual containment: the model statistic must land in
    the data's 1-alpha region and the data statistic in the model's
    1-alpha_hat region. The probability factorises into the product of
    the two statistical powers. Regions are central intervals or
    highest-density sets over 512 bins, and each power is the exact mass
    of a closed region (:func:`probability_in_region`), so an atom on an
    edge lies inside. Nothing is sampled; the estimate carries seed 0.
    """
    if model_dist.kind != "scalar" or data_dist.kind != "scalar":
        raise ValueError("power metric needs scalar statistic distributions")
    if not (0.0 <= alpha < 1.0 and 0.0 <= alpha_hat < 1.0):
        raise ValueError("alpha and alpha_hat must lie in [0, 1)")

    def region(dist, level):
        if region_kind == "interval":
            return confidence_interval(dist, level)
        if region_kind == "set":
            return confidence_set(dist, level)
        raise ValueError("region_kind must be 'interval' or 'set'")

    data_region = region(data_dist, 1.0 - alpha)
    model_region = region(model_dist, 1.0 - alpha_hat)
    power_model = probability_in_region(model_dist, data_region)
    power_data = probability_in_region(data_dist, model_region)
    product = power_model * power_data
    est = BvmEstimate(p_hat=product, std_error=0.0, n_samples=0, seed=0, method="closedForm")
    return PowerResult(
        estimate=est,
        power_model_in_data=power_model,
        power_data_in_model=power_data,
        systematic_error=alpha + alpha_hat - alpha * alpha_hat,
        model_region=model_region,
        data_region=data_region,
    )


# ---------------------------------------------------------------------------
# Model evidence


@dataclass(frozen=True)
class EvidenceResult:
    """Marginal likelihood of the data under the parameter prior, kept in
    log space; the standard error of the log comes from the delta method.

    ``ess`` is Kish's effective sample size of the likelihood weights,
    (sum w)^2 / sum w^2, and ``max_weight_share`` the largest weight over
    their sum: an ess far below ``n_samples`` means a few prior draws carry
    the estimate and its standard error is not to be trusted.
    """

    log_evidence: float
    std_error_log: float
    n_samples: int
    seed: int
    ess: float
    max_weight_share: float


def bayesian_evidence(
    model: ModelFunction,
    prior: Distribution,
    lik: GaussianLikelihoodSpec,
    k: int = 100_000,
    seed: int = 0,
) -> EvidenceResult:
    """Monte Carlo marginalisation of the Gaussian likelihood over the prior.

    The likelihood of a parameter draw theta is
    ``(2 pi sigma^2)^(-N/2) exp(-sum_i (M(x_i; theta) - y_i)^2 / (2 sigma^2))``.
    Each chunk of draws is reduced to its peak log-likelihood and the
    ``(m, mean, M2)`` of its weights ``exp(log L - peak)``, and
    :func:`bvm.rng.fold_chunks` merges them rescaled to the higher peak, so
    the estimate holds no k values and has the same bits at any
    ``BVM_THREADS``; ``model`` must be a pure function of its arguments. A
    NaN log-likelihood raises :class:`EstimationError`. Warns
    (``RuntimeWarning``) when the effective sample size of the likelihood
    weights is below 1 % of k; when every likelihood underflows to zero,
    the evidence is zero and ess is 0.
    """
    if k < 1:
        raise EstimationError("sample count must be at least 1")
    const = -0.5 * len(lik.grid) * math.log(2.0 * math.pi * lik.sigma**2)

    def chunk_log_likelihoods(c, m):
        theta = prior.draw_chunk(seed, MODEL_STREAM, c, m)
        if np.ndim(theta) == 1:
            theta = np.asarray(theta, dtype=float)[:, None]
        sq = np.sum((model.evaluate(theta, lik.grid) - lik.data_y) ** 2, axis=1)
        log_l = const - sq / (2.0 * lik.sigma**2)
        if np.isnan(log_l).any():
            raise EstimationError(f"model '{model.name}' gives a NaN log-likelihood for a prior draw")
        peak = float(np.max(log_l))
        w = np.exp(log_l - peak) if peak > -math.inf else np.zeros(m)
        mean = float(np.sum(w)) / m
        return peak, (m, mean, float(np.sum(np.square(w - mean))))

    def merge(acc, chunk):  # each side's weights rescaled to the higher peak
        peak = max(acc[0], chunk[0])
        return peak, _merge_moments(*(
            (n, mean * math.exp(p - peak), m2 * math.exp(2 * (p - peak))) if p < peak else (n, mean, m2)
            for p, (n, mean, m2) in (acc, chunk)
        ))

    peak, (_, mean_w, m2) = fold_chunks(chunk_log_likelihoods, k, merge, (-math.inf, (0, 0.0, 0.0)))
    if peak == -math.inf:
        log_ev, se_log, ess, share = -math.inf, math.inf, 0.0, math.nan
    else:
        log_ev = peak + math.log(mean_w)
        se_log = math.sqrt(m2 / k) / (mean_w * math.sqrt(k))
        ess = (k * mean_w) ** 2 / (m2 + k * mean_w**2)
        share = 1.0 / (k * mean_w)  # the largest weight is e^0
    if ess < 0.01 * k:
        warnings.warn(
            f"evidence rests on few prior draws: effective sample size {ess:.1f} of k={k}, "
            f"largest weight share {share:.3f}",
            RuntimeWarning,
            stacklevel=2,
        )
    return EvidenceResult(
        log_evidence=log_ev, std_error_log=se_log, n_samples=k, seed=seed, ess=ess, max_weight_share=share
    )


def _log_evidence_of(ev) -> float:
    if isinstance(ev, EvidenceResult):
        return ev.log_evidence
    ev = float(ev)
    if not ev >= 0:
        raise ValueError(f"evidence must be a nonnegative number, got {ev!r}")
    return math.log(ev) if ev > 0 else -math.inf


def bayes_factor(ev1, ev2) -> RatioResult:
    """Evidence ratio ev1 / ev2 computed in log space (``log_value``); 0/0
    is flagged, not NaN, and a NaN or infinite evidence raises ValueError.
    Scaled by prior odds (:func:`bvm.engine.bvm_ratio`) it is the
    posterior odds."""
    return RatioResult.of_logs(_log_evidence_of(ev1), _log_evidence_of(ev2))
