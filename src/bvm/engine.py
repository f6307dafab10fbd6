"""Probability-of-agreement estimators.

The central quantity is P(A | M, D): the expectation of the agreement
kernel over the joint uncertainty of the model and data comparison
values. It is estimated here by plain Monte Carlo over chunked,
seed-deterministic streams, or computed exactly as a weighted double sum
over discretised value grids. The module also carries the comparison
value density, the agreement-ratio constructs used for model selection,
and the (gamma, eps) sweep machinery with the precomputation that keeps
large sweeps cheap.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .agreement import AgreementRule, _value_breakpoints
from .comparison import BinnedPdf, ComparisonFn, get_comparison_fn
from .distributions import DiracDelta, Distribution, IndependentProduct, Normal, PushForward
from .rng import DATA_STREAM, MODEL_STREAM, _chunks, fold_chunks, map_chunks

__all__ = [
    "DEFAULT_SAMPLES",
    "EstimationError",
    "Scenario",
    "BvmEstimate",
    "SweepGrid",
    "SweepTemplate",
    "RatioResult",
    "estimate_bvm_mc",
    "estimate_bvm_grid",
    "comparison_density",
    "bvm_from_density",
    "bvm_factor",
    "bvm_ratio",
    "sweep",
    "ratio_grid",
    "averaged_boolean_ratio",
    "discretize_distribution",
]


# Sample count of a Monte Carlo run that names none.
DEFAULT_SAMPLES = 10_000


class EstimationError(Exception):
    """An estimator could not run on its inputs."""


@dataclass(frozen=True)
class Scenario:
    """The four inputs bundled: model and data value distributions, the
    comparison embedded in the rule, and the agreement rule itself."""

    model_dist: Distribution
    data_dist: Distribution
    rule: AgreementRule

    def draw_pairs(self, seed: int, n: int):
        """All n (model, data) value pairs at once, from the streams the
        estimators use; the estimators themselves stream chunk by chunk."""
        zhat = self.model_dist.sample(seed, n, stream=MODEL_STREAM)
        z = self.data_dist.sample(seed, n, stream=DATA_STREAM)
        return zhat, z

    def draw_chunk(self, seed: int, c: int, m: int):
        """Pairs ``c * CHUNK_SIZE`` to ``c * CHUNK_SIZE + m - 1`` of ``draw_pairs``."""
        return (
            self.model_dist.draw_chunk(seed, MODEL_STREAM, c, m),
            self.data_dist.draw_chunk(seed, DATA_STREAM, c, m),
        )


# Two-sided 95 % normal quantile.
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class BvmEstimate:
    """Estimated P(A|M,D) with its uncertainty and provenance.

    ``[ci_lo, ci_hi]`` is a 95 % interval: the Wilson score interval for
    a hard-rule Monte Carlo estimate, which stays wide at p_hat = 0 or 1
    where the binomial standard error reads 0; otherwise, unless given,
    p_hat +/- 1.96 standard errors clipped to [0, 1] (a point for exact
    results).
    """

    p_hat: float
    std_error: float
    n_samples: int
    seed: int
    method: str
    ci_lo: float = math.nan
    ci_hi: float = math.nan

    def __post_init__(self):
        if not -1e-12 <= self.p_hat <= 1.0 + 1e-12:
            raise ValueError("estimate escaped [0, 1]")
        p = float(min(1.0, max(0.0, self.p_hat)))
        object.__setattr__(self, "p_hat", p)
        if math.isnan(self.ci_lo) or math.isnan(self.ci_hi):
            half = _Z95 * self.std_error
            object.__setattr__(self, "ci_lo", max(0.0, p - half))
            object.__setattr__(self, "ci_hi", min(1.0, p + half))

    @classmethod
    def binomial(cls, p_hat: float, n: int, seed: int) -> "BvmEstimate":
        """A mean of n hard 0/1 indicators: binomial standard error and the
        95 % Wilson score interval."""
        p = float(p_hat)
        z2n = _Z95 * _Z95 / n
        centre = (p + z2n / 2.0) / (1.0 + z2n)
        half = _Z95 / (1.0 + z2n) * math.sqrt(max(0.0, p * (1.0 - p)) / n + z2n / (4.0 * n))
        return cls(
            p_hat=p,
            std_error=math.sqrt(max(0.0, p * (1.0 - p)) / n),
            n_samples=n,
            seed=seed,
            method="mc",
            ci_lo=0.0 if p == 0.0 else max(0.0, centre - half),
            ci_hi=1.0 if p == 1.0 else min(1.0, centre + half),
        )


def _mc_estimate(weights_of_chunk, k: int, seed: int, soft: bool) -> BvmEstimate:
    """Mean of k kernel weights; ``weights_of_chunk(c, m)`` gives the m
    weights of chunk c, and the chunks run on :func:`fold_chunks`.

    Each chunk is scored and reduced by the worker that owns it, to its
    weight sum for a hard rule and to ``(m, sum w, M2)`` for a soft one,
    and folded in chunk order as soon as every earlier chunk is, so an
    estimate holds a chunk of weights per worker and a few chunk results,
    whatever k. The sum of weights runs in chunk order from the int 0, so
    the result is deterministic for fixed (seed, k) regardless of
    BVM_THREADS. A soft rule folds ``(sum w, n, mean, M2)``: its variance
    merges the chunks' sums of squared deviations from their means (Chan,
    Golub & LeVeque), which does not cancel the way ``E[w^2] - p^2`` does
    when the weights barely vary. A hard rule's chunk sums are exact
    integers, and its estimate is binomial.
    """

    def chunk_weights(c: int, m: int) -> np.ndarray:
        w = np.asarray(weights_of_chunk(c, m), dtype=float)
        if w.min() < -1e-12 or w.max() > 1.0 + 1e-12:
            raise EstimationError("kernel weight escaped [0, 1]")
        return w

    if not soft:
        total = fold_chunks(lambda c, m: float(np.sum(chunk_weights(c, m))), k, operator.add, 0)
        return BvmEstimate.binomial(total / k, k, seed)

    def chunk_stats(c: int, m: int):
        w = chunk_weights(c, m)
        total = float(np.sum(w))
        return m, total, float(np.sum(np.square(w - total / m)))

    def merge(acc, stats):
        p, n, mean, m2 = acc
        m_c, total, m2_c = stats
        delta = total / m_c - mean
        n += m_c
        return p + total, n, mean + delta * m_c / n, m2 + (m2_c + delta * delta * (n - m_c) * m_c / n)

    total, _, _, m2 = fold_chunks(chunk_stats, k, merge, (0, 0, 0.0, 0.0))
    p = total / k
    se = math.sqrt(m2 / k / k)
    return BvmEstimate(p_hat=p, std_error=se, n_samples=k, seed=seed, method="mc")


def estimate_bvm_mc(scenario: Scenario, k: int, seed: int) -> BvmEstimate:
    """Monte Carlo estimate over k independent (model, data) value pairs,
    drawn, scored and reduced chunk by chunk (see :func:`_mc_estimate`)."""
    if k < 1:
        raise EstimationError("sample count must be at least 1")
    rule = scenario.rule
    return _mc_estimate(lambda c, m: rule.kernel_many(*scenario.draw_chunk(seed, c, m)), k, seed, rule.is_soft)


def _check_weights(weights, label: str) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise EstimationError(f"{label} weights must be nonnegative and sum to 1 within 1e-9")
    return w


def estimate_bvm_grid(scenario: Scenario, model_grid, data_grid) -> BvmEstimate:
    """Exact double sum over weighted value lists.

    Each grid is ``(values, weights)``; a certain data path is the
    one-element grid with weight 1. The model values are one block of
    :func:`_grid_estimate`.
    """
    model_values, model_weights = model_grid
    model_values = list(model_values) if not isinstance(model_values, np.ndarray) else model_values
    return _grid_estimate(scenario.rule, (len(model_values), model_weights, [model_values]), data_grid)


def _grid_estimate(rule: AgreementRule, model_blocks, data_grid) -> BvmEstimate:
    """sum_j wd_j * dot(wm, K(model values, z_j)) over the z_j with nonzero
    weight, in data order. The n model values come as ``(n, weights,
    blocks)``, as from :func:`_path_blocks`; each block is scored into one
    length-n weight row per z_j and dropped, so no block split moves a bit."""
    n_values, model_weights, blocks = model_blocks
    data_values, data_weights = data_grid
    wm = _check_weights(model_weights, "model grid")
    wd = _check_weights(data_weights, "data grid")
    live = [(zv, wz) for zv, wz in zip(data_values, wd) if wz != 0.0]
    w = np.empty((len(live), n_values))
    start = 0
    for block in blocks:
        rows = len(block)
        for row, (zv, _) in zip(w, live):
            row[start : start + rows] = rule.kernel_many(block, _broadcast_value(zv, rows))
        start += rows
    total = 0.0
    for row, (_, wz) in zip(w, live):
        total += wz * float(np.dot(wm, row))
    p = min(1.0, max(0.0, total))
    return BvmEstimate(p_hat=p, std_error=0.0, n_samples=n_values * len(data_values), seed=0, method="grid")


def _broadcast_value(value, n: int):
    arr = np.asarray(value)
    if arr.ndim == 0 or arr.dtype == object:
        return np.full(n, value, dtype=float if arr.dtype.kind in "fiub" else object)
    return np.tile(arr, (n, 1))


def comparison_density(
    scenario: Scenario,
    fn: ComparisonFn | str,
    k: int,
    bins: int,
    seed: int,
) -> BinnedPdf:
    """Histogram of f(model value, data value) over k sampled pairs, on
    ``bins`` equal bins from the least value to the largest. A spread too
    narrow (or too wide) for that many distinct finite edges raises
    :class:`EstimationError`."""
    if k < bins:
        raise EstimationError("need at least as many samples as bins")
    fn = fn if isinstance(fn, ComparisonFn) else get_comparison_fn(fn)

    def chunk_values(c: int, m: int):
        return np.asarray(fn.on_batch(*scenario.draw_chunk(seed, c, m)), dtype=float).ravel()

    f = np.concatenate(map_chunks(chunk_values, k))
    lo, hi = float(f.min()), float(f.max())
    if not hi > lo:
        # Degenerate spread: a single bin pinned around the observed value.
        pad = max(1e-12, abs(lo) * 1e-12)
        edges = np.linspace(lo - pad, hi + pad, bins + 1)
    else:
        edges = np.linspace(lo, hi, bins + 1)
    if not np.all(np.diff(edges) > 0):
        raise EstimationError(f"comparison values span [{lo!r}, {hi!r}]: no {bins} distinct finite bins cover it")
    counts, edges = np.histogram(f, bins=edges)
    return BinnedPdf(edges, counts / k)


def bvm_from_density(density: BinnedPdf, rule: AgreementRule) -> float:
    """Accumulate bin mass through a rule read at the bin midpoints.

    The rule scores the comparison value itself, as a single-value metric
    does: a rule that compares two sides, or reads paths or labels,
    raises ValueError (see :func:`bvm.agreement._value_breakpoints`).
    """
    _value_breakpoints(rule)
    mids = density.midpoints()
    w = np.asarray(rule.kernel_many(mids, mids), dtype=float)
    return float(np.dot(density.masses, w))


# ---------------------------------------------------------------------------
# Ratios


@dataclass(frozen=True)
class RatioResult:
    """A ratio of two nonnegative quantities with explicit degenerate states.

    ``status`` is 'ok', 'indeterminate' (0/0) or 'infinite' (x/0, x > 0);
    ``value`` is None unless status is 'ok'. A ratio built in log space
    (:meth:`of_logs`, as the Bayes factor is) also carries ``log_value``,
    which stays exact where ``value`` overflows to inf or underflows to 0.
    NaN, infinite and negative terms raise ``ValueError``.
    """

    status: str
    value: float | None
    log_value: float | None = None

    @classmethod
    def of(cls, num: float, den: float) -> "RatioResult":
        if not all(math.isfinite(x) and x >= 0.0 for x in (num, den)):
            raise ValueError(f"ratio terms must be finite and nonnegative, got {num!r} / {den!r}")
        if den == 0.0 and num == 0.0:
            return cls("indeterminate", None)
        if den == 0.0:
            return cls("infinite", None)
        return cls("ok", num / den)

    @classmethod
    def of_logs(cls, log_num: float, log_den: float) -> "RatioResult":
        """The ratio exp(log_num) / exp(log_den); a log of -inf is a zero term."""
        if any(math.isnan(x) or x == math.inf for x in (log_num, log_den)):
            raise ValueError(f"log ratio terms must not be NaN or +inf, got {log_num!r} / {log_den!r}")
        if log_den == -math.inf:
            return cls("indeterminate" if log_num == -math.inf else "infinite", None)
        log_value = log_num - log_den
        try:
            value = math.exp(log_value)
        except OverflowError:
            value = math.inf
        return cls("ok", value, log_value)


def _p_of(est) -> float:
    return est.p_hat if isinstance(est, BvmEstimate) else float(est)


def bvm_factor(p_agree: BvmEstimate | float, p_agree_other: BvmEstimate | float) -> RatioResult:
    """Ratio of two agreement probabilities under the same rule."""
    return RatioResult.of(_p_of(p_agree), _p_of(p_agree_other))


def bvm_ratio(factor: RatioResult, prior_m: float, prior_m_other: float) -> RatioResult:
    """Factor times prior odds; equals the factor under equal priors.

    Given a Bayes factor (:func:`bvm.metrics.bayes_factor`) it is the
    posterior odds of the two models: Bayesian model testing as a special
    case of the BVM ratio.

    A factor with a ``log_value``, and a product that leaves the normal
    float range (it overflows to inf or loses bits below ~2.2e-308), are
    formed in log space as ``log K + log prior_m - log prior_m_other``
    (:meth:`RatioResult.of_logs`), so ``log_value`` stays exact. Any other
    product is ``K * (prior_m / prior_m_other)``, with no ``log_value``.
    """
    if not (0 < prior_m < math.inf and 0 < prior_m_other < math.inf):
        raise ValueError("model priors must be positive and finite")
    if factor.status != "ok" or (factor.log_value is None and factor.value in (0.0, math.inf)):
        return factor  # no prior odds move a 0 or an inf
    odds = prior_m / prior_m_other
    value = factor.value * odds
    if factor.log_value is None and sys.float_info.min <= min(odds, value) and value < math.inf:
        return RatioResult("ok", value)
    log_k = math.log(factor.value) if factor.log_value is None else factor.log_value
    return RatioResult.of_logs(log_k + math.log(prior_m), math.log(prior_m_other))


# ---------------------------------------------------------------------------
# (gamma, eps) sweeps

# Paths per block when sweep counts in-tolerance errors; small enough
# that a block's errors and column positions stay in cache.
SWEEP_BLOCK = 1024


@dataclass(frozen=True)
class SweepGrid:
    """P(agree) over the (gamma, eps) axis product; shape (len(gammas), len(epsilons)).

    ``n_paths`` is the number of weighted model paths behind the cells
    (0 when unknown).
    """

    gammas: np.ndarray
    epsilons: np.ndarray
    values: np.ndarray
    n_paths: int = 0

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=float)
        e = np.asarray(self.epsilons, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (g.size, e.size):
            raise ValueError("values must have shape (len(gammas), len(epsilons))")
        if v.size and (v.min() < -1e-12 or v.max() > 1 + 1e-12):
            raise ValueError("sweep entries must lie in [0, 1]")
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "epsilons", e)
        object.__setattr__(self, "values", np.clip(v, 0.0, 1.0))

    def total(self) -> float:
        return float(self.values.sum())


@dataclass(frozen=True)
class SweepTemplate:
    """What a sweep or a grid estimate reads: a model pushed forward from
    its parameter prior onto the comparison grid, a certain data path, and
    how finely the prior is discretised. ``config.sweep_template`` makes
    one from built sections."""

    model_dist: PushForward
    data_path: np.ndarray
    points_per_param: int = 20
    span_sigmas: float = 3.0

    def __post_init__(self):
        object.__setattr__(self, "data_path", np.asarray(self.data_path, dtype=float))
        if self.data_path.shape != (self.model_dist.path_length,):
            raise ValueError("data path length must match the grid")


def discretize_distribution(dist: Distribution, n: int, span_sigmas: float):
    """Weighted support points for a scalar prior component.

    Normals become n equally spaced points over mean +/- span_sigmas
    standard deviations with renormalised Gaussian weights; point masses
    stay a single certain value.
    """
    if isinstance(dist, DiracDelta):
        dist._require_scalar()
        return np.asarray([float(dist.value)]), np.asarray([1.0])
    if isinstance(dist, Normal):
        xs = np.linspace(dist.mean - span_sigmas * dist.std, dist.mean + span_sigmas * dist.std, n)
        w = np.exp(-0.5 * ((xs - dist.mean) / dist.std) ** 2)
        return xs, w / w.sum()
    raise EstimationError(f"no grid discretisation for {type(dist).__name__}")


def _path_blocks(template: SweepTemplate, estimator: str, k: int, seed: int):
    """``(n_paths, weights, blocks)`` of the model paths under an estimator.

    ``weights`` holds one normalised weight per grid path; "mc" paths all
    weigh 1/k, and their ``weights`` is None. ``blocks`` yields
    the paths in order, ``SWEEP_BLOCK`` rows at a time, so no more than one
    block of paths is held (plus, for "mc", the chunk it is sliced from).
    A grid block takes its rows of the parameter mesh by flat index and
    evaluates the model on them alone; an "mc" block is a slice of a
    ``PushForward.draw_chunk``. Both give the bits of one evaluation over
    every path. :func:`sweep` and grid ``bvm validate`` read no other paths.
    """
    pf = template.model_dist
    if estimator == "grid":
        if isinstance(pf.prior, IndependentProduct):
            comps = pf.prior.components
        elif isinstance(pf.prior, DiracDelta):  # a certain vector: one point mass per parameter
            comps = [DiracDelta(v) for v in np.atleast_1d(pf.prior.value)]
        else:
            comps = (pf.prior,)
        supports = [discretize_distribution(c, template.points_per_param, template.span_sigmas) for c in comps]
        values = [s[0] for s in supports]
        shape = tuple(v.size for v in values)
        weights = functools.reduce(np.multiply.outer, [s[1] for s in supports]).ravel()
        weights = weights / weights.sum()
        n_paths = weights.size

        def grid_blocks():
            for start in range(0, n_paths, SWEEP_BLOCK):
                rows = np.unravel_index(np.arange(start, min(start + SWEEP_BLOCK, n_paths)), shape)
                params = np.column_stack([v[i] for v, i in zip(values, rows)])
                yield pf.model.evaluate(params, pf.grid)

        return n_paths, weights, grid_blocks()
    if estimator == "mc":
        if k < 1:
            raise EstimationError("sample count must be at least 1")

        def mc_blocks():
            for c, m in _chunks(k):
                paths = pf.draw_chunk(seed, MODEL_STREAM, c, m)
                for start in range(0, m, SWEEP_BLOCK):
                    yield paths[start : start + SWEEP_BLOCK]

        return k, None, mc_blocks()
    raise EstimationError(f"unknown sweep estimator '{estimator}'")


def sweep(
    template: SweepTemplate,
    gammas,
    epsilons,
    m: float,
    estimator: str = "grid",
    k: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> SweepGrid:
    """P(agree) under the (gamma, eps) rule at every axis combination.

    A path passes (gamma, eps, m) exactly when its ``need``-th smallest
    absolute error is within eps and its largest is within ``m * eps``,
    where ``need`` is the fewest in-tolerance points that gamma asks for.
    So on the sorted eps axis each path has, for each distinct need, one
    first passing column, and a cell is the weight of the paths whose
    first column lies at or before it. The model is evaluated one block
    of ``SWEEP_BLOCK`` paths at a time; each block's errors are sorted
    along the path (NaN last, so a path with a NaN error never passes),
    its first columns found by ``searchsorted`` and added into a (need,
    eps) histogram by a weighted ``bincount``, and the block is dropped.
    One ``cumsum`` along eps then gives every cell. Besides a grid's path
    weights, a sweep holds one block and the histogram.

    A grid cell sums its paths' weights per block in path order, block
    after block, then along eps, so its bits depend on the constant
    ``SWEEP_BLOCK`` and on nothing else: not on ``BVM_THREADS`` nor the
    order of the eps axis. An "mc" sweep counts whole paths and divides
    each cell once by k, so a cell that every path passes reads 1.0. A
    gamma above 1 reads 0, and a NaN on either axis raises
    :class:`EstimationError`.
    """
    gammas = np.asarray(gammas, dtype=float)
    epsilons = np.asarray(epsilons, dtype=float)
    if gammas.size == 0 or epsilons.size == 0:
        raise EstimationError("sweep axes must be nonempty")
    for name, axis in (("gamma", gammas), ("eps", epsilons)):
        nan = np.flatnonzero(np.isnan(axis))
        if nan.size:
            raise EstimationError(f"sweep {name} axis holds NaN at position {int(nan[0])}")
    if not (math.isfinite(m) and m >= 1.0):
        raise EstimationError(f"worst-point multiplier m must be finite and at least 1, got {m!r}")
    n_paths, weights, blocks = _path_blocks(template, estimator, k, seed)
    n = template.model_dist.path_length
    n_eps = epsilons.size
    order = np.argsort(epsilons, kind="stable")
    eps_sorted = epsilons[order]
    m_eps = m * eps_sorted

    # Smallest in-tolerance count c with c/n >= gamma, matching the float
    # comparison used by GammaEpsilon exactly; n + 1 for a gamma above 1.
    fractions = np.arange(n + 1) / n
    needed = np.asarray([int(np.searchsorted(fractions >= g, True)) for g in gammas])
    needs, row_of = np.unique(needed, return_inverse=True)
    # hist[i, q]: the weight (or count) of the paths whose first passing
    # column for needs[i] is q; column n_eps takes the paths that never pass.
    hist = np.zeros((needs.size, n_eps + 1), dtype=np.int64 if weights is None else float)
    start = 0
    for block in blocks:
        err = np.sort(np.abs(block - template.data_path), axis=1)
        gate = np.searchsorted(m_eps, err[:, -1], side="left")  # NaN: n_eps
        w = None if weights is None else weights[start : start + len(err)]
        for i, need in enumerate(needs):
            if need > n:
                continue  # a gamma above 1: its cells read 0
            first = gate
            if need > 0:
                first = np.maximum(np.searchsorted(eps_sorted, err[:, need - 1], side="left"), gate)
            hist[i] += np.bincount(first, w, minlength=n_eps + 1)
        start += len(err)

    cells = np.cumsum(hist[:, :n_eps], axis=1)
    if weights is None:
        cells = cells / n_paths
    values = np.empty((gammas.size, n_eps))
    values[:, order] = cells[row_of]
    return SweepGrid(gammas=gammas, epsilons=epsilons, values=values, n_paths=n_paths)


def _check_axes(g1: SweepGrid, g2: SweepGrid):
    if not (np.array_equal(g1.gammas, g2.gammas) and np.array_equal(g1.epsilons, g2.epsilons)):
        raise EstimationError("sweep grids must share identical axes")


def ratio_grid(g1: SweepGrid, g2: SweepGrid) -> list[list[RatioResult]]:
    """Cellwise agreement ratio of two sweeps over identical axes."""
    _check_axes(g1, g2)
    return [
        [RatioResult.of(float(a), float(b)) for a, b in zip(row1, row2)]
        for row1, row2 in zip(g1.values, g2.values)
    ]


def averaged_boolean_ratio(g1: SweepGrid, g2: SweepGrid) -> RatioResult:
    """Ratio of summed agreement probabilities over the whole axis volume."""
    _check_axes(g1, g2)
    return RatioResult.of(g1.total(), g2.total())
