"""Agreement rules: Boolean predicates over comparison values, composable
with and/or/not, plus soft exponentially-decaying acceptance.

Every rule maps a (model value, data value) pair to a kernel weight in
[0, 1]. Hard rules return exactly 0 or 1; :class:`SoftExponential` returns
1 up to its tolerance and then decays continuously. Under composition,
soft weights combine as independent probabilities (product for ``and``,
complement-product for ``or``), which reduces to ordinary Boolean logic
on {0, 1} indicators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .comparison import ComparisonFn, _reduce_abs_error, band_arrays, get_comparison_fn
from .distributions import ConfidenceRegion

__all__ = [
    "AgreementRule",
    "AlwaysTrue",
    "AlwaysFalse",
    "Threshold",
    "Interval",
    "SetMembership",
    "InRegion",
    "SoftExponential",
    "GammaEpsilon",
    "EpsilonBeta",
    "And",
    "Or",
    "Not",
    "compose",
]


def _resolve_fn(fn) -> ComparisonFn:
    return fn if isinstance(fn, ComparisonFn) else get_comparison_fn(fn)


def _reject_nan(**tolerances):
    """A NaN tolerance compares false with every value, so a hard rule
    would silently reject every pair and the soft rule weigh it NaN; ±inf
    is a real bound."""
    for name, value in tolerances.items():
        if np.isnan(value).any():
            raise ValueError(f"{name} is NaN")


def _nonnegative_eps(eps) -> np.ndarray:
    """A tolerance ``eps`` (one value or per point) as a float array; a NaN
    or negative entry raises ValueError."""
    eps = np.asarray(eps, dtype=float)
    _reject_nan(eps=eps)
    if np.any(eps < 0):
        raise ValueError("eps must be nonnegative")
    return eps


class AgreementRule:
    """Base class. Subclasses implement ``kernel_many`` only: the weights
    of a batch of (model value, data value) pairs, one per pair.
    """

    is_soft = False

    def kernel(self, zhat, z) -> float:
        """Agreement-kernel weight in [0, 1] for one value pair: a batch of one."""
        w = float(self.kernel_many([zhat], [z])[0])
        if not 0.0 <= w <= 1.0:
            raise AssertionError(f"kernel weight {w} escaped [0, 1]")
        return w

    def kernel_many(self, zhat_batch, z_batch) -> np.ndarray:
        """The weights as a fresh float array the caller owns: ``And`` and
        ``Or`` combine their children's weights in place."""
        raise NotImplementedError


@dataclass(frozen=True)
class AlwaysTrue(AgreementRule):
    def kernel_many(self, zhat_batch, z_batch):
        return np.ones(len(zhat_batch))


@dataclass(frozen=True)
class AlwaysFalse(AgreementRule):
    def kernel_many(self, zhat_batch, z_batch):
        return np.zeros(len(zhat_batch))


def _indicator_from_values(vals, predicate) -> np.ndarray:
    vals = np.asarray(vals, dtype=float)
    ok = predicate(vals)
    if vals.ndim > 1:
        # Vector-valued comparison (e.g. per-point errors): require all
        # components to satisfy the predicate.
        ok = np.all(ok, axis=-1)
    return ok.astype(float)


@dataclass(frozen=True)
class Threshold(AgreementRule):
    """True iff f(zhat, z) <= eps. The boundary is closed."""

    fn: ComparisonFn | str
    eps: float

    def __post_init__(self):
        _reject_nan(eps=self.eps)
        object.__setattr__(self, "fn", _resolve_fn(self.fn))

    def kernel_many(self, zhat_batch, z_batch):
        return _indicator_from_values(self.fn.on_batch(zhat_batch, z_batch), lambda f: f <= self.eps)


@dataclass(frozen=True)
class Interval(AgreementRule):
    """True iff lo <= f(zhat, z) <= hi."""

    fn: ComparisonFn | str
    lo: float
    hi: float

    def __post_init__(self):
        _reject_nan(lo=self.lo, hi=self.hi)
        if self.lo > self.hi:
            raise ValueError("Interval requires lo <= hi")
        object.__setattr__(self, "fn", _resolve_fn(self.fn))

    def kernel_many(self, zhat_batch, z_batch):
        return _indicator_from_values(
            self.fn.on_batch(zhat_batch, z_batch), lambda f: (f >= self.lo) & (f <= self.hi)
        )


@dataclass(frozen=True)
class SetMembership(AgreementRule):
    """True iff the model label lies in the agreeing set of the data label.

    Labels absent from the synonym map agree only with themselves.
    """

    synonyms: Mapping

    def _agrees(self, zhat, z) -> bool:
        agreeing = self.synonyms.get(z, (z,))
        return zhat in agreeing or zhat == z

    def kernel_many(self, zhat_batch, z_batch):
        # Labels are arbitrary hashable objects, so this runs pair by pair.
        return np.fromiter(
            (self._agrees(zh, zv) for zh, zv in zip(zhat_batch, z_batch)), dtype=float, count=len(zhat_batch)
        )


@dataclass(frozen=True)
class InRegion(AgreementRule):
    """True iff the chosen side's value lies in a fixed confidence region."""

    region: ConfidenceRegion
    side: str = "model"

    def __post_init__(self):
        if self.side not in ("model", "data"):
            raise ValueError("side must be 'model' or 'data'")

    def kernel_many(self, zhat_batch, z_batch):
        v = zhat_batch if self.side == "model" else z_batch
        return np.asarray(self.region.contains(np.asarray(v)), dtype=float)


@dataclass(frozen=True)
class SoftExponential(AgreementRule):
    """Full acceptance up to eps_prime, then weight exp(-lam*(f - eps_prime)).

    Equivalent to a hard threshold whose tolerance is itself uncertain
    with a shifted-exponential distribution of rate lam above eps_prime,
    marginalised in closed form.
    """

    fn: ComparisonFn | str
    eps_prime: float
    lam: float

    is_soft = True

    def __post_init__(self):
        _reject_nan(eps_prime=self.eps_prime)
        if not self.lam > 0:
            raise ValueError("SoftExponential rate must be positive")
        object.__setattr__(self, "fn", _resolve_fn(self.fn))

    def _weights(self, f):
        f = np.asarray(f, dtype=float)
        w = np.where(f <= self.eps_prime, 1.0, np.exp(-self.lam * np.maximum(f - self.eps_prime, 0.0)))
        if f.ndim > 1:
            w = np.prod(w, axis=-1)
        return w

    def kernel_many(self, zhat_batch, z_batch):
        return self._weights(self.fn.on_batch(zhat_batch, z_batch))


@dataclass(frozen=True, eq=False)
class GammaEpsilon(AgreementRule):
    """Visual-inspection compound over paths: at least a fraction gamma of
    points within eps of the data, and no point farther than m*eps.

    ``eps`` may be a scalar or a per-point tolerance vector.
    """

    gamma: float
    eps: float | np.ndarray
    m: float = 5.0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not (np.isfinite(self.m) and self.m >= 1.0):
            raise ValueError(f"m must be finite and at least 1, got {self.m!r}")
        eps = _nonnegative_eps(self.eps)
        object.__setattr__(self, "eps", float(eps) if eps.ndim == 0 else eps)

    def kernel_many(self, yhat_batch, y_batch):
        """1.0 for each path that passes, else 0.0, in row tiles of
        |yhat - y| (see :func:`bvm.comparison._reduce_abs_error`)."""

        def passes(err, eps, worst):
            return (np.mean(err <= eps, axis=-1) >= self.gamma) & np.all(err <= worst, axis=-1)

        yhat, y = np.atleast_2d(yhat_batch, y_batch)
        return _reduce_abs_error(passes, yhat, y, self.eps, self.m * np.asarray(self.eps))


@dataclass(frozen=True, eq=False)
class EpsilonBeta(AgreementRule):
    """Mean-error bound plus a probabilistic-representation check: the mean
    absolute error must not exceed ``mean_tol`` and the fraction of data
    points inside the model's per-point band must land in
    [coverage_lo, coverage_hi]. Over-coverage is rejected on purpose, so a
    model cannot pass by being arbitrarily uncertain.
    """

    mean_tol: float
    band: tuple
    coverage_lo: float = 0.91
    coverage_hi: float = 0.99

    def __init__(self, mean_tol, band, coverage_lo=0.91, coverage_hi=0.99):
        if not 0.0 <= coverage_lo <= coverage_hi <= 1.0:
            raise ValueError("coverage bounds must satisfy 0 <= lo <= hi <= 1")
        _reject_nan(mean_tol=mean_tol)
        n = len(band[0]) if isinstance(band, tuple) and np.ndim(band[0]) == 1 else len(band)
        lo, hi = band_arrays(band, n)
        object.__setattr__(self, "mean_tol", float(mean_tol))
        object.__setattr__(self, "band", (lo, hi))
        object.__setattr__(self, "coverage_lo", float(coverage_lo))
        object.__setattr__(self, "coverage_hi", float(coverage_hi))

    def kernel_many(self, yhat_batch, y_batch):
        """1.0 for each path that passes, else 0.0. The mean error and the
        coverage are taken in one pass of row tiles, and the data rows
        reach each tile as a further operand (see
        :func:`bvm.comparison._reduce_abs_error`)."""
        yhat, y = np.atleast_2d(np.asarray(yhat_batch, dtype=float), np.asarray(y_batch, dtype=float))
        lo, hi = self.band
        if yhat.shape[-1] != y.shape[-1] or y.shape[-1] != lo.shape[0]:
            raise ValueError("band, model path and data path lengths must match")

        def passes(err, y):
            cov = np.mean((y >= lo) & (y <= hi), axis=-1)
            return (np.mean(err, axis=-1) <= self.mean_tol) & (cov >= self.coverage_lo) & (cov <= self.coverage_hi)

        return _reduce_abs_error(passes, yhat, y, y)


@dataclass(frozen=True)
class And(AgreementRule):
    children: tuple

    def __init__(self, children: Sequence[AgreementRule]):
        children = tuple(children)
        if not children:
            raise ValueError("And needs at least one child")
        object.__setattr__(self, "children", children)

    @property
    def is_soft(self):
        return any(c.is_soft for c in self.children)

    def kernel_many(self, zhat_batch, z_batch):
        out = np.ones(len(zhat_batch))
        for c in self.children:
            out *= c.kernel_many(zhat_batch, z_batch)
        return out


@dataclass(frozen=True)
class Or(AgreementRule):
    children: tuple

    def __init__(self, children: Sequence[AgreementRule]):
        children = tuple(children)
        if not children:
            raise ValueError("Or needs at least one child")
        object.__setattr__(self, "children", children)

    @property
    def is_soft(self):
        return any(c.is_soft for c in self.children)

    def kernel_many(self, zhat_batch, z_batch):
        miss = np.ones(len(zhat_batch))
        best = np.zeros(len(zhat_batch))
        for c in self.children:
            w = c.kernel_many(zhat_batch, z_batch)
            np.maximum(best, w, out=best)
            miss *= np.subtract(1.0, w, out=w)
        # 1 - (1 - w) can round below w; the union is never below a child.
        return np.maximum(np.subtract(1.0, miss, out=miss), best, out=miss)


@dataclass(frozen=True)
class Not(AgreementRule):
    child: AgreementRule

    def __post_init__(self):
        if self.child.is_soft:
            raise ValueError("negation of a soft rule is undefined; negate hard rules only")

    def kernel_many(self, zhat_batch, z_batch):
        return 1.0 - self.child.kernel_many(zhat_batch, z_batch)


def compose(op: str, children: Sequence[AgreementRule]) -> AgreementRule:
    """Build a compound rule: ``compose('and', [...])`` etc."""
    children = list(children)
    if op == "and":
        return And(children)
    if op == "or":
        return Or(children)
    if op == "not":
        if len(children) != 1:
            raise ValueError("not takes exactly one child")
        return Not(children[0])
    raise ValueError(f"unknown composition '{op}'")


def _value_breakpoints(rule: AgreementRule):
    """Where a single-value rule can change its weight, on the value axis.

    A single-value metric scores one value v as ``kernel(v, v)``, so every
    comparison in the tree must read one side only ('identity' or
    'abs_value'), and no part may be a path or label rule: ValueError
    otherwise. A comparison of the two sides, such as 'abs_diff', would
    compare v with itself and always accept. Every child of an And/Or is
    checked. Returns the set of breakpoints, or None when the tree holds a
    rule whose breakpoints are unknown; callers then integrate blind.
    """
    if isinstance(rule, (And, Or)):
        children = [_value_breakpoints(child) for child in rule.children]
        return None if None in children else set().union(*children)
    if isinstance(rule, Not):
        return _value_breakpoints(rule.child)
    if isinstance(rule, (GammaEpsilon, EpsilonBeta, SetMembership)):
        raise ValueError(f"{type(rule).__name__} does not score a single value; use a value rule")
    fn = getattr(rule, "fn", None)
    if isinstance(fn, ComparisonFn) and fn.name not in ("identity", "abs_value"):
        raise ValueError(
            f"{type(rule).__name__} compares through '{fn.name}', but a single-value metric reads its "
            "value on both sides; use 'identity' or 'abs_value'"
        )
    if isinstance(rule, (AlwaysTrue, AlwaysFalse)):
        return set()
    if isinstance(rule, InRegion) and not rule.region.labels:
        return {p for interval in rule.region.intervals for p in interval}
    if isinstance(rule, Threshold):
        points = [rule.eps]
    elif isinstance(rule, Interval):
        points = [rule.lo, rule.hi]
    elif isinstance(rule, SoftExponential):
        points = [rule.eps_prime]
    else:
        return None
    return set(points) if fn.name == "identity" else {p for v in points for p in (v, -v)}
