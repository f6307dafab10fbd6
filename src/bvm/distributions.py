"""Uncertain model outputs and data: sampling, densities, quantiles, regions.

A :class:`Distribution` describes one uncertain comparison value - a scalar,
a vector path over an input grid, or a categorical label. All variants can
draw reproducible samples through the chunked streams in :mod:`bvm.rng`.
Density evaluation is available for every variant except :class:`Empirical`
and :class:`PushForward`, which raise :class:`DensityUnsupported`; nothing
in the package asks them for one, and a caller that needs their density
has to estimate it from samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .models import InputGrid, ModelFunction
from .rng import CHUNK_SIZE, _chunks, _draw_chunk

__all__ = [
    "DensityUnsupported",
    "Distribution",
    "DiracDelta",
    "Normal",
    "StudentT",
    "Uniform",
    "ShiftedExponential",
    "Categorical",
    "Empirical",
    "IndependentProduct",
    "PushForward",
    "ConfidenceRegion",
    "push_forward",
    "confidence_interval",
    "confidence_set",
    "probability_in_region",
]


class DensityUnsupported(Exception):
    """Raised when a distribution has no evaluable density; sample instead."""


def _float_if_scalar(values):
    return float(values) if np.ndim(values) == 0 else values


# The normal and Student-t functions are the scipy.special ufuncs behind
# scipy.stats.norm and scipy.stats.t, composed in the same order, so each
# result has the same bits as the scipy.stats call.
_SQRT_2PI = np.sqrt(2 * np.pi)


def _special():
    """``scipy.special``, imported on first use: it is most of the package's
    import time, and sampling, sweeps and path rules never call it."""
    import scipy.special

    return scipy.special


def _standardise(x, loc, scale):
    return (np.asarray(x, dtype=float) - loc) / scale


def _std_normal_pdf(z):
    return np.exp(-z**2 / 2.0) / _SQRT_2PI


@dataclass(frozen=True)
class Distribution:
    """Base class. Concrete variants implement ``_draw`` (one full chunk)."""

    def sample(self, seed: int, n: int, stream: int = 0) -> np.ndarray:
        """Draw *n* values; deterministic in ``(seed, stream)`` with the
        prefix property: the first k of n draws equal ``sample(seed, k)``.

        Each chunk is copied into one output array as it is drawn and then
        dropped, so a call holds that array and one chunk's working set,
        never a list of chunks, nor one chunk while the next is drawn. The
        returned array is always a fresh one the caller owns."""
        if n < 1:
            raise ValueError("sample count must be at least 1")
        out = None
        for c, m in _chunks(n):
            chunk = self.draw_chunk(seed, stream, c, m)
            if out is None:  # the first chunk gives the trailing shape and dtype
                out = np.empty((n, *chunk.shape[1:]), dtype=chunk.dtype)
            out[c * CHUNK_SIZE : c * CHUNK_SIZE + m] = chunk
            del chunk
        return out

    def draw_chunk(self, seed: int, stream: int, c: int, m: int) -> np.ndarray:
        """The first *m* values of chunk *c* of a stream: values
        ``c * CHUNK_SIZE`` onwards of ``sample(seed, n, stream)``.

        The chunk is drawn in full and then sliced, which is what makes
        every prefix of a stream independent of the request size. The
        draw re-keys the calling thread's own generator (see
        :mod:`bvm.rng`), so ``_draw`` must not keep the generator.

        The returned array is fresh and belongs to the caller: it shares
        no memory with the distribution or with any other draw, and the
        caller may write to it (the model band partitions its chunks in
        place).
        """
        if not 1 <= m <= CHUNK_SIZE:
            raise ValueError(f"a chunk draws 1 to {CHUNK_SIZE} values, not {m}")
        return _draw_chunk(seed, stream, c, self._draw, CHUNK_SIZE)[:m]

    def _draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """*m* values drawn with *rng*, in a fresh writable array that
        shares no memory with the distribution: :meth:`draw_chunk` hands
        it to its caller to own."""
        raise NotImplementedError

    def density(self, x) -> float:
        """Probability density (mass for discrete variants) at *x*;
        :class:`Normal` and :class:`StudentT` also take an array."""
        raise DensityUnsupported(f"{type(self).__name__} has no evaluable density")

    def cdf(self, x):
        """P(X <= x): a float for scalar *x*; the continuous variants and
        :class:`Empirical` also take an array and return one of its shape."""
        raise ValueError(f"{type(self).__name__} has no closed-form cdf")

    def quantile(self, q: float) -> float:
        """Inverse cdf at *q*; :class:`Normal` and :class:`StudentT` also
        take an array and return one of its shape."""
        raise ValueError(f"{type(self).__name__} has no closed-form quantiles")

    @property
    def kind(self) -> str:
        """Value kind produced by sampling: 'scalar', 'path', or 'label'."""
        return "scalar"

    @property
    def path_length(self) -> int | None:
        return None


@dataclass(frozen=True)
class DiracDelta(Distribution):
    """Point mass: sampling always returns the stored value exactly."""

    value: float | np.ndarray

    def __post_init__(self):
        v = np.asarray(self.value, dtype=float)
        if v.ndim > 1:
            raise ValueError("DiracDelta value must be a scalar or 1-d vector")
        if np.isnan(v).any():
            raise ValueError("DiracDelta value must not be NaN")
        object.__setattr__(self, "value", float(v) if v.ndim == 0 else v)

    def _draw(self, rng, m):
        v = np.asarray(self.value, dtype=float)
        if v.ndim == 0:
            return np.full(m, float(v))
        return np.tile(v, (m, 1))

    def density(self, x) -> float:
        # Probability mass, not a density: 1 at the stored value, else 0.
        return 1.0 if np.array_equal(np.asarray(x, dtype=float), np.asarray(self.value, dtype=float)) else 0.0

    def cdf(self, x) -> float:
        self._require_scalar()
        return 1.0 if x >= self.value else 0.0

    def quantile(self, q: float) -> float:
        self._require_scalar()
        return float(self.value)

    def _require_scalar(self):
        if np.ndim(self.value) != 0:
            raise ValueError("operation requires a scalar distribution")

    @property
    def kind(self) -> str:
        return "scalar" if np.ndim(self.value) == 0 else "path"

    @property
    def path_length(self):
        return None if np.ndim(self.value) == 0 else len(self.value)


@dataclass(frozen=True)
class Normal(Distribution):
    mean: float
    std: float

    def __post_init__(self):
        if np.isnan(self.mean):
            raise ValueError("Normal mean must not be NaN")
        if not self.std > 0:
            raise ValueError("Normal std must be positive")

    def _draw(self, rng, m):
        return rng.normal(self.mean, self.std, m)

    def density(self, x):
        """Density at *x*: a float for scalar *x*, else an array of its shape."""
        return _float_if_scalar(_std_normal_pdf(_standardise(x, self.mean, self.std)) / self.std)

    def cdf(self, x):
        return _float_if_scalar(_special().ndtr(_standardise(x, self.mean, self.std)))

    def quantile(self, q):
        """Quantile at *q*: a float for scalar *q*, else an array of its
        shape; -inf at q = 0, +inf at q = 1 and NaN outside [0, 1]."""
        return _float_if_scalar(_special().ndtri(q) * self.std + self.mean)


@dataclass(frozen=True)
class StudentT(Distribution):
    """Location-scale Student t with ``dof`` degrees of freedom."""

    location: float
    dof: float
    scale: float

    def __post_init__(self):
        if np.isnan(self.location):
            raise ValueError("StudentT location must not be NaN")
        if not self.dof > 0:
            raise ValueError("StudentT dof must be positive")
        if not self.scale > 0:
            raise ValueError("StudentT scale must be positive")

    def _draw(self, rng, m):
        return self.location + self.scale * rng.standard_t(self.dof, m)

    def density(self, x):
        """Density at *x*: a float for scalar *x*, else an array of its shape."""
        z = _standardise(x, self.location, self.scale)
        df = float(self.dof)
        if df == np.inf:  # the poch form is NaN here; the limit is the normal
            pdf = _std_normal_pdf(z)
        else:
            log_norm = np.log(_special().poch(0.5 * df, 0.5)) - 0.5 * (np.log(df) + np.log(np.pi))
            pdf = np.exp(log_norm - (df + 1) / 2 * np.log1p(z * z / df))
        return _float_if_scalar(pdf / self.scale)

    def cdf(self, x):
        return _float_if_scalar(_special().stdtr(self.dof, _standardise(x, self.location, self.scale)))

    def quantile(self, q):
        """Quantile at *q*: a float for scalar *q*, else an array of its
        shape; -inf at q = 0, +inf at q = 1 and NaN outside [0, 1]."""
        q = np.asarray(q, dtype=float)
        # stdtrit(dof, 0) is +inf; the quantile there is the lower support end.
        z = np.where(q == 0.0, -np.inf, np.where(q == 1.0, np.inf, _special().stdtrit(self.dof, q)))
        return _float_if_scalar(z * self.scale + self.location)


@dataclass(frozen=True)
class Uniform(Distribution):
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("Uniform requires lo < hi")

    def _draw(self, rng, m):
        return rng.uniform(self.lo, self.hi, m)

    def density(self, x) -> float:
        return 1.0 / (self.hi - self.lo) if self.lo <= x <= self.hi else 0.0

    def cdf(self, x):
        return _float_if_scalar(np.clip((np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo), 0.0, 1.0))

    def quantile(self, q: float) -> float:
        return self.lo + q * (self.hi - self.lo)


@dataclass(frozen=True)
class ShiftedExponential(Distribution):
    """Density ``rate * exp(-rate * (x - shift))`` for x >= shift."""

    rate: float
    shift: float = 0.0

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("ShiftedExponential rate must be positive")
        if np.isnan(self.shift):
            raise ValueError("ShiftedExponential shift must not be NaN")

    def _draw(self, rng, m):
        return self.shift + rng.standard_exponential(m) / self.rate

    def density(self, x) -> float:
        if x < self.shift:
            return 0.0
        return float(self.rate * np.exp(-self.rate * (x - self.shift)))

    def cdf(self, x):
        # Below the shift the clamped exponent is 0, so the cdf is exactly 0.
        d = np.maximum(np.asarray(x, dtype=float) - self.shift, 0.0)
        return _float_if_scalar(1.0 - np.exp(-self.rate * d))

    def quantile(self, q: float) -> float:
        if q >= 1.0:
            return np.inf
        return self.shift - np.log1p(-q) / self.rate


@dataclass(frozen=True)
class Categorical(Distribution):
    """Finite support with explicit masses. Labels may be numbers or strings."""

    values: tuple
    probs: tuple

    def __init__(self, values: Sequence, probs: Sequence[float]):
        values = tuple(values)
        probs = tuple(float(p) for p in probs)
        if len(values) != len(probs):
            raise ValueError("values and probs must have equal length")
        if any(p < 0 for p in probs):
            raise ValueError("Categorical probs must be nonnegative")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("Categorical probs must sum to 1 within 1e-12")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    def _draw(self, rng, m):
        # One uniform per draw, inverted through the cumulative masses.
        cum = np.cumsum(self.probs)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, rng.random(m), side="right")
        return np.asarray(self.values, dtype=object if not self.is_numeric else float)[idx]

    def density(self, x) -> float:
        for v, p in zip(self.values, self.probs):
            if v == x:
                return p
        return 0.0

    @property
    def is_numeric(self) -> bool:
        return all(isinstance(v, (int, float, np.integer, np.floating)) for v in self.values)

    def cdf(self, x) -> float:
        if not self.is_numeric:
            raise ValueError("Categorical labels are unordered")
        return float(sum(p for v, p in zip(self.values, self.probs) if v <= x))

    def quantile(self, q: float) -> float:
        if not self.is_numeric:
            raise ValueError("Categorical labels are unordered")
        order = np.argsort(np.asarray(self.values, dtype=float), kind="stable")
        cum = 0.0
        for i in order:
            cum += self.probs[i]
            if cum >= q - 1e-15:
                return float(self.values[i])
        return float(self.values[order[-1]])

    @property
    def kind(self) -> str:
        return "scalar" if self.is_numeric else "label"


@dataclass(frozen=True)
class Empirical(Distribution):
    """Resampling distribution over recorded samples (scalars or paths)."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim not in (1, 2) or arr.shape[0] == 0:
            raise ValueError("Empirical needs a nonempty 1-d or 2-d sample array")
        object.__setattr__(self, "samples", arr)

    def _draw(self, rng, m):
        idx = rng.integers(0, self.samples.shape[0], m)
        return self.samples[idx]

    def quantile(self, q: float) -> float:
        if self.samples.ndim != 1:
            raise ValueError("operation requires a scalar distribution")
        if self.samples.shape[0] < 1000:
            raise ValueError("empirical quantiles need at least 1000 samples")
        return float(np.quantile(self.samples, q, method="linear"))

    def cdf(self, x):
        if self.samples.ndim != 1:
            raise ValueError("operation requires a scalar distribution")
        return _float_if_scalar(np.searchsorted(np.sort(self.samples), x, side="right") / self.samples.shape[0])

    @property
    def kind(self) -> str:
        return "scalar" if self.samples.ndim == 1 else "path"

    @property
    def path_length(self):
        return None if self.samples.ndim == 1 else self.samples.shape[1]


@dataclass(frozen=True)
class IndependentProduct(Distribution):
    """Vector of independent scalar components, sampled jointly per draw.

    A draw of m vectors calls each component's ``_draw`` once, in component
    order, and writes it into its column of one C-contiguous ``(m, d)``
    float64 array, so a draw holds that array and one component's values.
    """

    components: tuple

    def __init__(self, components: Sequence[Distribution]):
        components = tuple(components)
        if not components:
            raise ValueError("IndependentProduct needs at least one component")
        for c in components:
            if c.kind != "scalar":
                raise ValueError("IndependentProduct components must be scalar")
        object.__setattr__(self, "components", components)

    def _draw(self, rng, m):
        out = np.empty((m, len(self.components)))
        for j, c in enumerate(self.components):
            out[:, j] = c._draw(rng, m)
        return out

    def density(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (len(self.components),):
            raise ValueError("dimension mismatch")
        out = 1.0
        for c, xi in zip(self.components, x):
            out *= c.density(float(xi))
        return out

    @property
    def kind(self) -> str:
        return "path"

    @property
    def path_length(self):
        return len(self.components)


@dataclass(frozen=True)
class PushForward(Distribution):
    """Distribution over output paths induced by a parameter prior.

    Sampling draws a parameter vector from ``prior`` and evaluates ``model``
    on ``grid``. There is no evaluable density; use the sampling path.

    A certain model - a prior that is a :class:`DiracDelta`, or an
    :class:`IndependentProduct` of them - has one path, the model's value
    at its parameters. It is evaluated once, on its one parameter row, when
    the distribution is built, and kept read-only as ``certain_path``
    (None for any other prior). A draw tiles it, as a :class:`DiracDelta`
    path draws, so every row of every chunk has its bits, and no random
    number is drawn.
    """

    prior: Distribution
    model: ModelFunction
    grid: InputGrid
    certain_path: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        prior_dim = self.prior.path_length if self.prior.kind == "path" else 1
        if prior_dim != len(self.model.param_names):
            raise ValueError(
                f"prior dimension {prior_dim} does not match "
                f"{len(self.model.param_names)} model parameters"
            )
        parts = self.prior.components if isinstance(self.prior, IndependentProduct) else (self.prior,)
        path = None
        if all(isinstance(p, DiracDelta) for p in parts):
            path = self._evaluate(None, 1)[0]  # point masses ignore the generator
            path.flags.writeable = False
        object.__setattr__(self, "certain_path", path)

    def _draw(self, rng, m):
        if self.certain_path is not None:
            return np.tile(self.certain_path, (m, 1))
        return self._evaluate(rng, m)

    def _evaluate(self, rng, m):
        theta = self.prior._draw(rng, m)
        if theta.ndim == 1:
            theta = theta[:, None]
        return self.model.evaluate(theta, self.grid)

    @property
    def kind(self) -> str:
        return "path"

    @property
    def path_length(self):
        return len(self.grid)


def push_forward(prior: Distribution, model: ModelFunction, grid: InputGrid) -> PushForward:
    """Propagate a parameter prior through a model to a path distribution."""
    return PushForward(prior, model, grid)


# ---------------------------------------------------------------------------
# Confidence regions


@dataclass(frozen=True)
class ConfidenceRegion:
    """An interval or a union of disjoint intervals / label set, with level.

    ``kind`` is 'interval' (single closed interval) or 'set' (disjoint
    intervals, or categorical labels when ``labels`` is given).
    """

    kind: str
    level: float
    intervals: tuple = ()
    labels: tuple = ()

    def __post_init__(self):
        if self.kind not in ("interval", "set"):
            raise ValueError("kind must be 'interval' or 'set'")
        ivals = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        for lo, hi in ivals:
            if lo > hi:
                raise ValueError("interval lo must not exceed hi")
        for (a, b), (c, d) in zip(ivals, ivals[1:]):
            if b >= c:
                raise ValueError("set intervals must be disjoint and sorted")
        if self.kind == "interval" and len(ivals) != 1:
            raise ValueError("interval region holds exactly one interval")
        object.__setattr__(self, "intervals", ivals)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def lo(self) -> float:
        return self.intervals[0][0]

    @property
    def hi(self) -> float:
        return self.intervals[0][1]

    @property
    def width(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    def contains(self, x):
        """Membership indicator; vectorised over array input."""
        if self.labels:
            if np.ndim(x) == 0:
                return x in self.labels
            return np.asarray([v in self.labels for v in np.ravel(x)]).reshape(np.shape(x))
        x = np.asarray(x, dtype=float)
        inside = np.zeros(x.shape, dtype=bool)
        for lo, hi in self.intervals:
            inside |= (x >= lo) & (x <= hi)
        return bool(inside) if inside.ndim == 0 else inside


def confidence_interval(dist: Distribution, level: float) -> ConfidenceRegion:
    """Central interval ``[q(a/2), q(1-a/2)]`` with ``a = 1 - level``, from
    the variant's own quantiles."""
    if dist.kind != "scalar":
        raise ValueError("confidence_interval requires a scalar distribution")
    if not 0.0 < level <= 1.0:
        raise ValueError("level must lie in (0, 1]")
    a = 1.0 - level
    lo, hi = dist.quantile(a / 2.0), dist.quantile(1.0 - a / 2.0)
    return ConfidenceRegion(kind="interval", level=level, intervals=((lo, hi),))


def confidence_set(dist: Distribution, level: float, bins: int = 512) -> ConfidenceRegion:
    """Highest-density region: greedily add the most probable bins (or
    categorical labels) until their mass reaches *level*.

    For continuous variants the histogram covers the [0.001, 0.999]
    quantile window with equal-width bins; bin masses are the differences
    of one array call of the cdf at all bin edges.
    """
    if not 0.0 < level <= 1.0:
        raise ValueError("level must lie in (0, 1]")
    if isinstance(dist, Categorical):
        order = sorted(range(len(dist.values)), key=lambda i: (-dist.probs[i], i))
        picked, cum = [], 0.0
        for i in order:
            picked.append(dist.values[i])
            cum += dist.probs[i]
            if cum >= level - 1e-12:
                break
        return ConfidenceRegion(kind="set", level=level, labels=tuple(picked))
    if isinstance(dist, DiracDelta):
        dist._require_scalar()
        v = float(dist.value)
        return ConfidenceRegion(kind="set", level=level, intervals=((v, v),))
    if dist.kind != "scalar":
        raise ValueError("confidence_set requires a scalar distribution")

    lo = dist.quantile(0.001)
    hi = dist.quantile(0.999)
    if not hi > lo:
        return ConfidenceRegion(kind="set", level=level, intervals=((lo, hi),))
    edges = np.linspace(lo, hi, bins + 1)
    masses = np.diff(dist.cdf(edges))
    if masses.sum() <= 0:
        raise ValueError("no histogram mass inside the quantile window")
    # Masses are left unnormalised: the window itself misses ~0.2% of the
    # total, which is the documented tolerance on the contained level. Bins
    # are taken by falling mass until their running sum reaches the level.
    order = np.argsort(-masses, kind="stable")
    reached = np.flatnonzero(np.cumsum(masses[order]) >= level - 1e-12)
    picked = np.zeros(bins, dtype=np.int8)
    picked[order[: reached[0] + 1 if reached.size else bins]] = 1
    # A run of picked bins spans the edges where the padded mask rises and falls.
    step = np.diff(picked, prepend=0, append=0)
    intervals = tuple(zip(edges[step == 1], edges[step == -1]))
    return ConfidenceRegion(kind="set", level=level, intervals=intervals)


def probability_in_region(dist: Distribution, region: ConfidenceRegion) -> float:
    """Exact probability mass the distribution assigns to a closed region.

    An atom of a :class:`Categorical`, :class:`DiracDelta` or
    :class:`Empirical` counts when ``region.contains`` holds it (the test
    :class:`bvm.agreement.InRegion` applies to a draw), so an atom on an
    edge is inside. A continuous variant sums ``cdf(hi) - cdf(lo)`` over
    the intervals and gives a label set mass 0. A path-valued distribution
    raises ValueError.
    """
    if dist.kind == "path":
        raise ValueError(f"a region holds scalars or labels, not the paths of {type(dist).__name__}")
    if isinstance(dist, Categorical):
        return float(sum(p for v, p in zip(dist.values, dist.probs) if region.contains(v)))
    if isinstance(dist, DiracDelta):
        return 1.0 if region.contains(dist.value) else 0.0
    if isinstance(dist, Empirical):
        return np.count_nonzero(region.contains(dist.samples)) / dist.samples.shape[0]
    if region.labels:
        return 0.0
    return float(sum(dist.cdf(hi) - dist.cdf(lo) for lo, hi in region.intervals))
