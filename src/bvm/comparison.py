"""Comparison value functions: path errors, ECDF area, binned-pdf distances.

Each registered function maps a (model value, data value) pair to the
quantitative measure an agreement rule thresholds. Each has one
implementation, its batch over pairs stacked along axis 0, and says once how
it reads the two sides (:attr:`ComparisonFn.reads`): value by value, two
paths point by point, the model side only, or as two samples of any sizes,
to which a scalar is a sample of one. Path errors and binned-pdf distances
reduce along the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .models import OSCILLATOR_TILE

__all__ = [
    "Ecdf",
    "BinnedPdf",
    "ComparisonFn",
    "get_comparison_fn",
    "abs_diff",
    "sq_diff",
    "mean_abs_error",
    "max_abs_error",
    "per_point_abs_error",
    "fraction_within",
    "coverage_fraction",
    "ecdf",
    "area_metric",
    "area_metric_many",
    "binned_prob_diff",
    "kl_divergence",
    "symmetrized_kl",
    "js_divergence",
    "hellinger",
    "divergence",
]


def abs_diff(zhat, z):
    return np.abs(np.asarray(zhat, dtype=float) - np.asarray(z, dtype=float))


def sq_diff(zhat, z):
    d = np.asarray(zhat, dtype=float) - np.asarray(z, dtype=float)
    return d * d


def _check_paths(yhat, y):
    yhat = np.asarray(yhat, dtype=float)
    y = np.asarray(y, dtype=float)
    if yhat.shape[-1] != y.shape[-1]:
        raise ValueError(f"path length mismatch: {yhat.shape[-1]} vs {y.shape[-1]}")
    return yhat, y


def _reduce_abs_error(reduce, yhat, y, *more):
    """``reduce(|yhat - y|, *more)`` of paths stacked along axis 0, one
    value per path: the reduction of the broadcast paths along the last
    axis, taken over row tiles of ``OSCILLATOR_TILE`` points with one
    reused tile buffer, so no chunk-sized error array is formed. *more*
    are further operands that broadcast like the paths: a tolerance, or
    the data paths again, so that each tile reads its own data rows.

    Each tile is C-contiguous and each row is reduced on its own, so a
    row's value depends neither on the tiling nor on the batch size nor
    on the operands' memory order: it is the one-pass
    ``reduce(np.abs(yhat - y), *more)`` of C-ordered paths, bit for bit.
    Operands that broadcast to anything but a 2-D batch (1-D pairs, which
    give numpy scalars, or 3-D stacks) take that one pass.
    """
    yhat, y = _check_paths(yhat, y)
    shape = np.broadcast_shapes(yhat.shape, y.shape, *(np.shape(a) for a in more))
    if len(shape) != 2:
        err = yhat - y
        return reduce(np.abs(err, out=err), *more)
    k, n = shape
    rows = max(1, OSCILLATOR_TILE // max(n, 1))
    out = np.empty(k)
    tile = np.empty((min(rows, k), n))
    for start in range(0, k, rows):
        stop = min(start + rows, k)
        # An operand of one row (or a 1-D one) serves every tile whole.
        yh, yv, *extra = (a[start:stop] if np.ndim(a) == 2 and len(a) > 1 else a for a in (yhat, y, *more))
        err = tile[: stop - start]
        np.subtract(yh, yv, out=err)
        out[start:stop] = reduce(np.abs(err, out=err), *extra)
    return out


def mean_abs_error(yhat, y):
    """(1/N) * sum_i |yhat_i - y_i| along the last axis, in row tiles
    (see :func:`_reduce_abs_error`)."""
    return _reduce_abs_error(lambda err: np.mean(err, axis=-1), yhat, y)


def max_abs_error(yhat, y):
    """max_i |yhat_i - y_i| along the last axis, in row tiles (see
    :func:`_reduce_abs_error`); NaN where a path holds a NaN."""
    return _reduce_abs_error(lambda err: np.max(err, axis=-1), yhat, y)


def per_point_abs_error(yhat, y):
    yhat, y = _check_paths(yhat, y)
    return np.abs(yhat - y)


def fraction_within(yhat, y, eps):
    """Fraction of points with |yhat_i - y_i| <= eps (scalar or per-point),
    in row tiles (see :func:`_reduce_abs_error`)."""
    return _reduce_abs_error(lambda err, eps: np.mean(err <= eps, axis=-1), yhat, y, eps)


def coverage_fraction(y, band) -> float:
    """Fraction of data points inside per-point confidence regions.

    ``band`` is a sequence of N interval regions, or an ``(lo, hi)`` pair
    of length-N arrays.
    """
    y = np.asarray(y, dtype=float)
    lo, hi = band_arrays(band, y.shape[-1])
    return float(np.mean((y >= lo) & (y <= hi), axis=-1))


def band_arrays(band, n: int):
    """Normalise a per-point band to (lo, hi) arrays of length n."""
    if isinstance(band, tuple) and len(band) == 2 and np.ndim(band[0]) == 1:
        lo, hi = (np.asarray(b, dtype=float) for b in band)
    else:
        lo = np.asarray([r.lo for r in band], dtype=float)
        hi = np.asarray([r.hi for r in band], dtype=float)
    if lo.shape != (n,) or hi.shape != (n,):
        raise ValueError(f"band length mismatch: expected {n} regions")
    return lo, hi


# ---------------------------------------------------------------------------
# Empirical CDFs and the area between them


@dataclass(frozen=True)
class Ecdf:
    """Right-continuous empirical step CDF over a sorted sample copy."""

    xs: np.ndarray

    def __post_init__(self):
        xs = np.sort(np.asarray(self.xs, dtype=float))
        if xs.size == 0:
            raise ValueError("ecdf needs at least one sample")
        object.__setattr__(self, "xs", xs)

    def __call__(self, x):
        return np.searchsorted(self.xs, np.asarray(x, dtype=float), side="right") / self.xs.size


def ecdf(samples) -> Ecdf:
    return Ecdf(np.asarray(samples, dtype=float))


def area_metric(f1, f2) -> float:
    """Exact integral of |F1 - F2| between two empirical CDFs (or samples):
    :func:`area_metric_many` on a batch of one."""
    xs1, xs2 = (f.xs if isinstance(f, Ecdf) else np.asarray(f, dtype=float) for f in (f1, f2))
    return float(area_metric_many(xs1, xs2[None, :])[0])


def area_metric_many(xm, rows) -> np.ndarray:
    """Area between the ECDF of a model sample and the ECDF of each row of
    the (m, b) array *rows*, in row order. *xm* is one sample of size a,
    shared by every row, or an (m, a) array holding one sample per row.

    The area equals the integral over u in (0, 1] of |Q_m(u) - Q_row(u)|
    for the two quantile (sorted-sample step) functions. Both steps sit on
    the fixed grid {i/a} united with {j/b}, which is built once in integer
    units of 1/(a b); each row then costs one sort, one gather and a sum
    weighted by the grid widths. No quadrature is involved. For a = b the
    area is the mean absolute difference of the sorted samples (the 1-d
    optimal-transport distance), and identical samples give exactly 0.
    """
    xs = np.sort(np.asarray(xm, dtype=float), axis=-1)
    rows = np.asarray(rows, dtype=float)
    if xs.ndim not in (1, 2) or rows.ndim != 2 or xs.size == 0 or rows.shape[1] == 0:
        raise ValueError("need a nonempty sample (one, or one per row) and a 2-d array of nonempty rows")
    a, b = xs.shape[-1], rows.shape[1]
    grid = np.union1d(np.arange(a + 1) * b, np.arange(b + 1) * a)
    right = grid[1:] - 1  # (grid[k], grid[k + 1]] holds no step of either side
    du = np.diff(grid) / (a * b)
    gap = np.sort(rows, axis=1)[:, right // a]
    gap -= xs[..., right // b]
    np.abs(gap, out=gap)
    gap *= du
    # A running sum adds each row's terms in grid order whatever the batch
    # size (a matrix product or a row-wise sum may not), so every row has
    # one area and a batch of one equals its row of a larger batch.
    return np.cumsum(gap, axis=1, out=gap)[:, -1].copy()


# ---------------------------------------------------------------------------
# Binned probability vectors and their distances


@dataclass(frozen=True)
class BinnedPdf:
    """Histogram probabilities: bin edges plus masses summing to one."""

    edges: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        if edges.ndim != 1 or masses.ndim != 1 or edges.size != masses.size + 1:
            raise ValueError("need len(edges) == len(masses) + 1")
        if masses.size < 1 or np.any(masses < 0):
            raise ValueError("masses must be nonnegative")
        if abs(masses.sum() - 1.0) > 1e-9:
            raise ValueError("masses must sum to 1 within 1e-9")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("edges must be strictly increasing")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "masses", masses)

    @classmethod
    def from_samples(cls, samples, bins: int, lo: float | None = None, hi: float | None = None) -> "BinnedPdf":
        """Equal-width histogram; default range is the sample range padded 1%."""
        x = np.asarray(samples, dtype=float)
        if lo is None or hi is None:
            span = x.max() - x.min()
            pad = 0.01 * span if span > 0 else max(1e-9, 0.01 * abs(x.max()) + 1e-9)
            lo = x.min() - pad if lo is None else lo
            hi = x.max() + pad if hi is None else hi
        counts, edges = np.histogram(x, bins=bins, range=(lo, hi))
        total = counts.sum()
        if total == 0:
            raise ValueError("no samples fall inside the histogram range")
        return cls(edges, counts / total)

    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def _paired_masses(p, q):
    if isinstance(p, BinnedPdf) and isinstance(q, BinnedPdf):
        if not np.array_equal(p.edges, q.edges):
            raise ValueError("binned pdfs must share identical bin edges")
        return p.masses, q.masses
    p = np.asarray(p.masses if isinstance(p, BinnedPdf) else p, dtype=float)
    q = np.asarray(q.masses if isinstance(q, BinnedPdf) else q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("mass vectors must have identical length")
    return p, q


def _per_row(x):
    """The distances below reduce along the last axis: one pair of mass
    vectors (or BinnedPdfs) gives a float, stacked (m, bins) rows m values."""
    return float(x) if np.ndim(x) == 0 else x


def binned_prob_diff(p, q):
    """Sum over bins of |p_i - q_i|; ranges over [0, 2]."""
    pm, qm = _paired_masses(p, q)
    return _per_row(np.sum(np.abs(pm - qm), axis=-1))


def kl_divergence(p, q):
    """KL(p || q) in nats with 0*ln(0) := 0; +inf when q misses p's support.

    Where ``p_i / q_i`` overflows (``q_i`` subnormal), its log is taken as
    ``ln p_i - ln q_i``; every finite ratio keeps ``ln(p_i / q_i)``.
    """
    pm, qm = _paired_masses(p, q)
    support = pm > 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = pm / qm
        log_ratio = np.where(np.isinf(ratio) & (qm > 0), np.log(pm) - np.log(qm), np.log(ratio))
        terms = np.where(support, pm * log_ratio, 0.0)
    missed = np.any(support & (qm == 0), axis=-1)
    return _per_row(np.where(missed, np.inf, np.sum(terms, axis=-1)))


def symmetrized_kl(p, q):
    return kl_divergence(p, q) + kl_divergence(q, p)


def js_divergence(p, q):
    """Jensen-Shannon divergence in nats; bounded by ln 2."""
    pm, qm = _paired_masses(p, q)
    m = 0.5 * (pm + qm)
    return 0.5 * kl_divergence(pm, m) + 0.5 * kl_divergence(qm, m)


def hellinger(p, q):
    """Hellinger distance with the convention H^2 = 1 - sum_i sqrt(p_i q_i)."""
    pm, qm = _paired_masses(p, q)
    h = np.sqrt(np.maximum(0.0, 1.0 - np.sum(np.sqrt(pm * qm), axis=-1)))
    return _per_row(np.where(np.all(pm == qm, axis=-1), 0.0, h))  # equal rows: exactly 0


_DIVERGENCES = {
    "kl": kl_divergence,
    "sym_kl": symmetrized_kl,
    "js": js_divergence,
    "hellinger": hellinger,
}


def divergence(kind: str, p, q):
    """The named divergence of one mass pair (a float) or of stacked rows."""
    try:
        fn = _DIVERGENCES[kind]
    except KeyError:
        raise ValueError(f"unknown divergence '{kind}'; choose from {sorted(_DIVERGENCES)}") from None
    return fn(p, q)


def identity_statistic(zhat, z=None):
    """Passes the model-side value through untouched."""
    return np.asarray(zhat, dtype=float)


# ---------------------------------------------------------------------------
# Registry used by agreement rules and scenario configs


@dataclass(frozen=True)
class ComparisonFn:
    """Named comparison function. ``batch``, its one implementation, maps
    (model, data) values stacked along axis 0 to one value per pair.
    ``reads`` says how it reads the two sides: ``"values"``, value by value
    (both sides of one kind, paths of one length); ``"paths"``, two paths
    (or mass vectors) of one length, reduced point by point to one value;
    ``"model"``, the model side only; or ``"samples"``, as two samples of
    any sizes, where :meth:`on_batch` reads a 1-D side as one sample of one
    value per row.
    ``pair(zhat, z)`` is the value of one pair, a batch of one."""

    name: str
    batch: Callable
    reads: str = "values"

    def __post_init__(self):
        if self.reads not in ("values", "paths", "model", "samples"):
            raise ValueError(f"comparison '{self.name}' reads 'values', 'paths', 'model' or 'samples', not {self.reads!r}")
        object.__setattr__(self, "pair", lambda zhat, z: self.on_batch([zhat], [z])[0])

    def on_batch(self, zhat_batch, z_batch) -> np.ndarray:
        if self.reads == "samples":
            zhat_batch, z_batch = (np.asarray(x, dtype=float).reshape(len(x), -1) for x in (zhat_batch, z_batch))
        return np.asarray(self.batch(zhat_batch, z_batch), dtype=float)


_REGISTRY: dict[str, ComparisonFn] = {}


def _register(fn: ComparisonFn, *aliases: str):
    _REGISTRY[fn.name] = fn
    for alias in aliases:
        _REGISTRY[alias] = fn


for _fn in (abs_diff, sq_diff, per_point_abs_error):
    _register(ComparisonFn(_fn.__name__, _fn))
for _fn in (mean_abs_error, max_abs_error):
    _register(ComparisonFn(_fn.__name__, _fn, "paths"))
_register(ComparisonFn("area_metric", area_metric_many, "samples"))
for _name, _fn in _DIVERGENCES.items():  # each also under its function's name
    _register(ComparisonFn(_name, _fn, "paths"), *{_fn.__name__} - {_name})
_register(ComparisonFn("identity", identity_statistic, "model"))
_register(ComparisonFn("abs_value", lambda zh, z=None: np.abs(identity_statistic(zh)), "model"))


def make_binned_prob_diff_fn(bins: int) -> ComparisonFn:
    """Comparison of two samples: bin both over their pooled range, then sum
    the absolute mass differences; a batch does this row pair by row pair."""
    if bins < 1:
        raise ValueError(f"binned_prob_diff needs at least one bin, not {bins}")

    def row(zh, zv):
        pooled = np.concatenate([zh, zv])
        span = pooled.max() - pooled.min()
        pad = 0.01 * span if span > 0 else 1e-9
        lo, hi = pooled.min() - pad, pooled.max() + pad
        return binned_prob_diff(BinnedPdf.from_samples(zh, bins, lo, hi), BinnedPdf.from_samples(zv, bins, lo, hi))

    def batch(zh, zv):
        if len(zh) != len(zv):
            raise ValueError(f"batch row counts differ: {len(zh)} vs {len(zv)}")
        return np.array([row(a, b) for a, b in zip(zh, zv)], dtype=float)

    return ComparisonFn(f"binned_prob_diff_{bins}", batch, "samples")


def get_comparison_fn(name: str, **params) -> ComparisonFn:
    """Look up a comparison function by its config name."""
    if name == "binned_prob_diff":
        return make_binned_prob_diff_fn(int(params.get("bins", 16)))
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown comparison function '{name}'") from None
