"""Distribution sampling, densities, quantiles, and region construction."""

import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate, stats

from bvm import (
    Categorical,
    ConfidenceRegion,
    DensityUnsupported,
    DiracDelta,
    Distribution,
    Empirical,
    IndependentProduct,
    InputGrid,
    ModelFunction,
    Normal,
    PushForward,
    ShiftedExponential,
    StudentT,
    Uniform,
    basis_model,
    confidence_interval,
    confidence_set,
    damped_oscillator_model,
    polynomial_model,
    probability_in_region,
    push_forward,
)
from bvm.rng import CHUNK_SIZE, map_chunks
from bvm.studies import _OSC_PARAMS, _TAYLOR


def all_variants():
    grid = InputGrid.linspace(0.0, 1.0, 5)
    return [
        DiracDelta(2.0),
        DiracDelta([1.0, 2.0, 3.0]),
        Normal(0.0, 1.0),
        StudentT(0.0, 10.0, 1.75),
        Uniform(-1.0, 3.0),
        ShiftedExponential(2.0, 0.5),
        Categorical([0.0, 1.0, 2.0], [0.2, 0.3, 0.5]),
        Categorical(["cat", "dog"], [0.7, 0.3]),
        Empirical(np.arange(2000.0)),
        IndependentProduct([Normal(0, 1), Uniform(0, 1)]),
        PushForward(IndependentProduct([Normal(0, 0.1), Normal(1, 0.1)]), polynomial_model([0, 1]), grid),
    ]


def _own_arrays(obj) -> list:
    """Every array a distribution holds, through its components, prior and grid."""
    found = []
    for value in vars(obj).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                found.append(item)
            elif isinstance(item, (Distribution, InputGrid)):
                found += _own_arrays(item)
    return found


def ownership_variants():
    grid, line = InputGrid.linspace(0.0, 1.0, 5), polynomial_model([0, 1])
    return {
        "normal": Normal(0.3, 1.1),
        "student-t": StudentT(0.0, 4.0, 0.8),
        "uniform": Uniform(-1.0, 3.0),
        "shifted-exponential": ShiftedExponential(2.0, 0.5),
        "dirac-scalar": DiracDelta(2.0),
        "dirac-path": DiracDelta([1.0, -0.5, 3.0]),
        "categorical": Categorical([0.0, 1.0, 2.0], [0.2, 0.3, 0.5]),
        "categorical-labels": Categorical(["cat", "dog"], [0.7, 0.3]),
        "empirical-scalar": Empirical(np.arange(50.0)),
        "empirical-path": Empirical(np.arange(60.0).reshape(20, 3)),
        "product": IndependentProduct([Normal(0, 1), Uniform(0, 1), DiracDelta(0.5)]),
        "push-forward-certain": PushForward(IndependentProduct([DiracDelta(0.5), DiracDelta(2.0)]), line, grid),
        "push-forward-uncertain": PushForward(IndependentProduct([Normal(0, 0.1), Normal(1, 0.1)]), line, grid),
    }


class TestSampling:
    @pytest.mark.parametrize("name", sorted(ownership_variants()))
    def test_a_drawn_chunk_is_fresh_and_belongs_to_the_caller(self, name):
        # The model band partitions its drawn chunks in place, so a chunk may
        # share no memory with the distribution or with another draw, and
        # writing to it changes no later draw.
        dist = ownership_variants()[name]
        own = _own_arrays(dist)
        assert own or not name.endswith(("path", "certain")), "a path variant holds its path"
        chunk = dist.draw_chunk(3, 0, 1, CHUNK_SIZE)
        again = dist.draw_chunk(3, 0, 1, 100)
        expected = again.copy()
        assert chunk.flags.writeable
        assert not any(np.shares_memory(chunk, a) for a in [*own, again])
        chunk[...] = chunk[::-1]
        chunk[0] = 0.0
        assert np.array_equal(dist.draw_chunk(3, 0, 1, 100), expected)
        assert np.array_equal(again, expected)

    def test_dirac_exact_values(self):
        assert np.array_equal(DiracDelta(2.0).sample(0, 3), [2.0, 2.0, 2.0])
        paths = DiracDelta([1.0, -0.5]).sample(4, 2)
        assert np.array_equal(paths, [[1.0, -0.5], [1.0, -0.5]])

    def test_degenerate_categorical(self):
        assert np.array_equal(Categorical([0, 1], [1.0, 0.0]).sample(5, 5), np.zeros(5))

    def test_normal_sample_mean_clt_bound(self):
        # CLT oracle: |mean| < 3/sqrt(n) with margin; the stated bound is 0.02.
        x = Normal(0, 1).sample(7, 100_000)
        assert abs(x.mean()) < 0.02

    @pytest.mark.parametrize("dist", all_variants(), ids=lambda d: type(d).__name__)
    def test_prefix_property_and_determinism(self, dist):
        n, k = 9000, 1234
        a = dist.sample(42, n)
        b = dist.sample(42, k)
        c = dist.sample(42, n)
        assert np.array_equal(np.asarray(a[:k]), np.asarray(b))
        assert np.array_equal(np.asarray(a), np.asarray(c))

    def test_streams_differ(self):
        d = Normal(0, 1)
        assert not np.array_equal(d.sample(0, 100, stream=0), d.sample(0, 100, stream=1))

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            Normal(0, 1).sample(0, 0)


class TestDensity:
    def test_normal_at_mode(self):
        assert Normal(0, 1).density(0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-12)

    def test_uniform_outside_support(self):
        assert Uniform(0, 2).density(3.0) == 0.0

    def test_student_t_density_matches_quadrature_normalised_kernel(self):
        # Oracle: integrate the raw location-scale kernel numerically and
        # compare the implementation to kernel / Z at several points.
        loc, dof, scale = 0.0, 10.0, 1.75
        kernel = lambda x: (1.0 + ((x - loc) / scale) ** 2 / dof) ** (-(dof + 1) / 2)
        z, _ = integrate.quad(kernel, -np.inf, np.inf)
        d = StudentT(loc, dof, scale)
        for x in (-3.0, 0.0, 0.7, 5.0):
            assert d.density(x) == pytest.approx(kernel(x) / z, rel=1e-9)

    def test_independent_product_density_is_the_product_of_its_components(self):
        components = [Normal(0.5, 2.0), Uniform(-1.0, 3.0), StudentT(0.0, 4.0, 1.5)]
        x = np.array([0.1, 2.5, -0.8])
        expected = 1.0
        for c, xi in zip(components, x):
            expected *= c.density(float(xi))
        assert IndependentProduct(components).density(x) == expected
        assert IndependentProduct(components).density([0.1, 3.5, -0.8]) == 0.0  # outside the uniform
        with pytest.raises(ValueError, match="dimension mismatch"):
            IndependentProduct(components).density([0.1, 2.5])

    def test_unsupported_density_signals(self):
        with pytest.raises(DensityUnsupported):
            Empirical(np.arange(10.0)).density(1.0)
        pf = push_forward(DiracDelta([1.0]), polynomial_model([0]), InputGrid.linspace(0, 1, 3))
        with pytest.raises(DensityUnsupported):
            pf.density(np.zeros(3))

    def test_normalisation_over_support(self):
        # Continuous variants integrate to 1 within 1e-6 over their support.
        cases = [
            (Normal(0.3, 2.0), (-np.inf, np.inf)),
            (StudentT(0.0, 10.0, 1.75), (-np.inf, np.inf)),
            (Uniform(-1.0, 3.0), (-1.0, 3.0)),
            (ShiftedExponential(2.0, 0.5), (0.5, np.inf)),
        ]
        for dist, (lo, hi) in cases:
            total, _ = integrate.quad(dist.density, lo, hi)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_mass_functions_sum_to_one(self):
        c = Categorical([0, 1, 2], [0.2, 0.3, 0.5])
        assert sum(c.density(v) for v in (0, 1, 2)) == pytest.approx(1.0, abs=1e-12)
        assert DiracDelta(4.0).density(4.0) == 1.0
        assert DiracDelta(4.0).density(4.1) == 0.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda v: Normal(v, 1.0),
            lambda v: StudentT(v, 3.0, 1.0),
            lambda v: ShiftedExponential(1.0, v),
            lambda v: DiracDelta(v),
            lambda v: DiracDelta([0.0, v]),
        ],
        ids=["Normal", "StudentT", "ShiftedExponential", "DiracDelta", "DiracDelta-path"],
    )
    def test_location_may_be_infinite_but_not_nan(self, make):
        for v in (np.inf, -np.inf):
            make(v)
        with pytest.raises(ValueError, match="must not be NaN"):
            make(np.nan)

    def test_categorical_invariants(self):
        with pytest.raises(ValueError):
            Categorical([0, 1], [0.6, 0.5])
        with pytest.raises(ValueError):
            Categorical([0, 1], [1.2, -0.2])


class TestPushForward:
    def test_certain_parameters_give_one_path(self):
        grid = InputGrid.linspace(0, np.pi, 3)
        model = polynomial_model([0, 2, 4])
        params = np.array([1.0, -0.5, 1.0 / 24])
        pf = push_forward(DiracDelta(params), model, grid)
        paths = pf.sample(0, 4)
        # Bit-identical to the model's single deterministic path...
        assert np.array_equal(paths, np.tile(model.evaluate(params, grid), (4, 1)))
        # ...and numerically the Taylor polynomial.
        expected = 1.0 - 0.5 * grid.points**2 + grid.points**4 / 24
        assert np.allclose(paths, expected[None, :], atol=1e-12)

    def test_constant_model_marginal_is_the_prior(self):
        # A one-parameter constant model pushes N(0,1) straight through:
        # any path coordinate is standard normal (KS oracle at n = 1e4).
        grid = InputGrid.linspace(0, 1, 4)
        pf = push_forward(Normal(0, 1), polynomial_model([0]), grid)
        paths = pf.sample(3, 10_000)
        stat, _ = stats.kstest(paths[:, 2], "norm")
        assert stat < 0.02

    def test_taylor_prior_mean_at_origin(self):
        # Only the constant coefficient contributes at x = 0.
        grid = InputGrid.linspace(0, np.pi, 50)
        prior = IndependentProduct([Normal(1.0, 0.1), Normal(-0.5, 0.05), Normal(1 / 24, 0.005)])
        pf = push_forward(prior, polynomial_model([0, 2, 4]), grid)
        paths = pf.sample(11, 10_000)
        assert abs(paths[:, 0].mean() - 1.0) < 0.01

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            push_forward(DiracDelta([1.0, 2.0]), polynomial_model([0]), InputGrid.linspace(0, 1, 3))

    def test_certain_model_is_evaluated_once_from_two_workers(self, monkeypatch):
        # Once, on its one parameter row, when it is built; two map_chunks
        # workers then draw from that path and never call the slow model.
        calls = []

        def slow(theta, x):
            calls.append(theta.shape)
            time.sleep(0.05)
            return theta @ np.stack([x**0, x**2])

        pf = push_forward(
            IndependentProduct([DiracDelta(1.0), DiracDelta(-0.5)]),
            ModelFunction("slow", ("c0", "c2"), slow),
            InputGrid.linspace(0, 1, 5),
        )
        assert calls == [(1, 2)]
        monkeypatch.setenv("BVM_THREADS", "2")
        chunks = map_chunks(lambda c, m: pf.draw_chunk(3, 0, c, m), 4 * CHUNK_SIZE)
        assert calls == [(1, 2)]
        assert all(np.array_equal(c, chunks[0]) for c in chunks)
        assert np.allclose(chunks[0], 1.0 - 0.5 * pf.grid.points**2, rtol=0, atol=1e-15)

    def test_certain_draws_are_copies(self):
        pf = push_forward(DiracDelta([1.0, -0.5]), polynomial_model([0, 2]), InputGrid.linspace(0, 1, 3))
        first = pf.draw_chunk(0, 0, 0, 2)
        first[:] = np.nan
        assert np.isfinite(pf.draw_chunk(0, 0, 1, 2)).all()
        assert np.isfinite(pf.sample(0, 5)).all()

    @pytest.mark.parametrize(
        "model, params, grid",
        [
            (damped_oscillator_model(), _OSC_PARAMS, InputGrid.linspace(0.0, 1.0, 100)),
            # Matrix products: BLAS may round a row of a many-row product
            # apart from the same row evaluated alone.
            (polynomial_model([0, 2, 4]), _TAYLOR[:3], InputGrid.linspace(0.0, float(np.pi), 50)),
            (polynomial_model([0, 2, 4, 6]), _TAYLOR[:4], InputGrid.linspace(0.0, float(np.pi), 193)),
            (basis_model("trig", ("a", "b", "c"), [np.sin, np.cos, np.exp]), [0.7, -1.3, 0.01], InputGrid.linspace(0.0, 3.0, 97)),
        ],
        ids=["oscillator", "poly50", "poly193", "basis"],
    )
    def test_every_certain_draw_is_the_model_at_its_parameters(self, model, params, grid):
        pf = push_forward(IndependentProduct([DiracDelta(p) for p in params]), model, grid)
        path = model.evaluate(np.asarray(params), grid).view(np.uint64)  # tells -0.0 and NaN payloads apart
        for out in (pf.draw_chunk(0, 0, 1, CHUNK_SIZE), pf.sample(2, CHUNK_SIZE + 3, stream=5)):
            assert out.flags.writeable and out.flags.c_contiguous
            assert (out.view(np.uint64) == path).all()

    def test_a_failing_certain_model_raises_when_built(self):
        bad = ModelFunction("wrong-shape", ("c",), lambda theta, x: theta)
        with pytest.raises(ValueError, match="model output shape"):
            push_forward(DiracDelta(1.0), bad, InputGrid.linspace(0, 1, 3))

    def test_only_point_mass_priors_are_certain(self):
        grid = InputGrid.linspace(0, 1, 3)
        vector = push_forward(DiracDelta([1.0, 2.0]), polynomial_model([0, 1]), grid)
        assert not vector.certain_path.flags.writeable
        assert vector.certain_path.tobytes() == (1.0 + 2.0 * grid.points).tobytes()
        assert push_forward(DiracDelta(1.0), polynomial_model([0]), grid).certain_path is not None
        mixed = IndependentProduct([DiracDelta(1.0), Normal(0.0, 1.0)])
        assert push_forward(mixed, polynomial_model([0, 1]), grid).certain_path is None


@dataclass(frozen=True)
class _NoClosedForms(Distribution):
    """A scalar variant with neither a cdf nor quantiles."""

    def _draw(self, rng, m):
        return rng.random(m)


class TestNumericCategorical:
    DIST = Categorical([2.0, 0.0, 1.0], [0.5, 0.2, 0.3])

    def test_cdf_sums_the_masses_at_or_below(self):
        assert [self.DIST.cdf(x) for x in (-1.0, 0.0, 0.5, 1.0, 2.0)] == [0.0, 0.2, 0.2, 0.5, 1.0]

    def test_quantile_is_the_first_value_reaching_q(self):
        assert [self.DIST.quantile(q) for q in (0.0, 0.2, 0.21, 0.5, 0.51, 1.0)] == [0.0, 0.0, 1.0, 1.0, 2.0, 2.0]

    def test_labels_have_neither(self):
        labels = Categorical(["a", "b"], [0.5, 0.5])
        with pytest.raises(ValueError, match="Categorical labels are unordered"):
            labels.cdf("a")
        with pytest.raises(ValueError, match="Categorical labels are unordered"):
            labels.quantile(0.5)


class TestConfidenceInterval:
    def test_standard_normal(self):
        region = confidence_interval(Normal(0, 1), 0.95)
        assert region.lo == pytest.approx(-1.95996, abs=1e-4)
        assert region.hi == pytest.approx(1.95996, abs=1e-4)

    def test_dirac_zero_width(self):
        region = confidence_interval(DiracDelta(5.0), 0.95)
        assert (region.lo, region.hi) == (5.0, 5.0)
        assert region.width == 0.0

    def test_uniform_linear_quantiles(self):
        region = confidence_interval(Uniform(0, 1), 0.9)
        assert region.lo == pytest.approx(0.05)
        assert region.hi == pytest.approx(0.95)

    def test_empirical_quantiles_need_samples(self):
        with pytest.raises(ValueError):
            confidence_interval(Empirical(np.arange(10.0)), 0.9)

    def test_non_scalar_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval(DiracDelta([1.0, 2.0]), 0.9)

    def test_a_variant_without_quantiles_is_named(self):
        with pytest.raises(ValueError, match="_NoClosedForms has no closed-form quantiles"):
            confidence_interval(_NoClosedForms(), 0.9)
        with pytest.raises(ValueError, match="_NoClosedForms has no closed-form quantiles"):
            confidence_set(_NoClosedForms(), 0.9)

    @pytest.mark.parametrize("dist", [Normal(0.3, 1.7), StudentT(0, 10, 1.75)], ids=("normal", "student_t"))
    def test_containment_fraction(self, dist):
        region = confidence_interval(dist, 0.95)
        x = dist.sample(5, 100_000)
        frac = np.mean((x >= region.lo) & (x <= region.hi))
        assert abs(frac - 0.95) < 0.01


class TestArrayCdf:
    @pytest.mark.parametrize(
        "dist",
        [
            Normal(0.3, 1.2),
            StudentT(0.1, 3.0, 0.7),
            Uniform(-1.0, 3.0),
            ShiftedExponential(2.0, 0.5),
            Empirical(np.random.default_rng(8).normal(size=1500)),
        ],
        ids=type,
    )
    def test_array_cdf_equals_scalar_calls(self, dist):
        x = np.concatenate([[-np.inf, -7.0, 0.5, 3.0, np.inf], np.linspace(-4.0, 6.0, 257)])
        scalar = [dist.cdf(v) for v in x]
        assert all(type(c) is float for c in scalar)
        got = dist.cdf(x)
        assert got.shape == x.shape
        assert np.array_equal(got, np.asarray(scalar))
        assert np.array_equal(dist.cdf(x.reshape(2, -1)), got.reshape(2, -1))


# The package computes these with scipy.special ufuncs; scipy.stats is the
# independent reference they must match bit for bit. q = 0 (where stdtrit
# alone gives +inf) and dof = inf (where the poch form of the t pdf is NaN)
# are the two cases scipy.stats handles outside the ufuncs.
PARITY_DOFS = [1, 2, 2.5, 3, 7, 18, 120, 1e6, np.inf]
PARITY_X = np.concatenate(
    [[-np.inf, 0.0, np.inf, np.nan, -0.0], np.linspace(-60.0, 60.0, 241), np.random.default_rng(5).standard_cauchy(200)]
)
PARITY_Q = np.concatenate(
    [[0.0, 1e-300, 0.3, 1.0, 1.2, np.nan, -0.0, -0.1, 1.0 - 2**-53], np.linspace(0.0, 1.0, 201), np.logspace(-300, -1, 60)]
)
PARITY_CASES = [(Normal(0.4, 1.7), stats.norm(0.4, 1.7))] + [
    (StudentT(0.4, dof, 1.7), stats.t(dof, 0.4, 1.7)) for dof in PARITY_DOFS
]


class TestScipyStatsParity:
    @pytest.mark.parametrize("dist, ref", PARITY_CASES, ids=[repr(d) for d, _ in PARITY_CASES])
    def test_bit_equal_to_scipy_stats(self, dist, ref):
        for ours, theirs, points in (
            (dist.cdf, ref.cdf, PARITY_X),
            (dist.density, ref.pdf, PARITY_X),
            (dist.quantile, ref.ppf, PARITY_Q),
        ):
            got = ours(points)
            assert got.shape == points.shape
            assert np.array_equal(got, theirs(points), equal_nan=True), ours.__name__
            assert np.array_equal(ours(points.reshape(2, -1)), got.reshape(2, -1), equal_nan=True)
            for v in points[:: max(1, points.size // 40)].tolist() + points[:9].tolist():
                one = ours(v)
                assert type(one) is float
                assert np.array_equal(one, theirs(v), equal_nan=True), (ours.__name__, v)


class TestConfidenceSet:
    def test_categorical_greedy_mass_ordering(self):
        # Hand oracle: 0.5 + 0.45 >= 0.95 already, so {0, 10} suffices.
        region = confidence_set(Categorical([0, 10, 5], [0.5, 0.45, 0.05]), 0.95)
        assert set(region.labels) == {0, 10}

    def test_certain_categorical(self):
        region = confidence_set(Categorical([0], [1.0]), 0.5)
        assert region.labels == (0,)

    def test_point_mass_is_its_own_set(self):
        region = confidence_set(DiracDelta(2.5), 0.9)
        assert (region.kind, region.intervals, region.labels) == ("set", ((2.5, 2.5),), ())
        with pytest.raises(ValueError):
            confidence_set(DiracDelta([1.0, 2.0]), 0.9)

    def test_unimodal_matches_central_interval(self):
        level, bins = 0.95, 512
        hdr = confidence_set(Normal(0, 1), level, bins)
        assert len(hdr.intervals) == 1
        central = confidence_interval(Normal(0, 1), level)
        binwidth = (Normal(0, 1).quantile(0.999) - Normal(0, 1).quantile(0.001)) / bins
        assert abs(hdr.intervals[0][0] - central.lo) <= binwidth
        assert abs(hdr.intervals[0][1] - central.hi) <= binwidth

    def test_hdr_no_larger_than_central_cover(self):
        # For a skewed density the highest-density region needs no more
        # bins than any central interval covering the same level.
        dist = ShiftedExponential(1.0, 0.0)
        level, bins = 0.9, 256
        hdr = confidence_set(dist, level, bins)
        lo = dist.quantile(0.001)
        hi = dist.quantile(0.999)
        edges = np.linspace(lo, hi, bins + 1)
        hdr_bins = sum(
            int(round((b - a) / (edges[1] - edges[0]))) for a, b in hdr.intervals
        )
        central = confidence_interval(dist, level)
        central_bins = np.sum((edges[1:] > central.lo) & (edges[:-1] < central.hi))
        assert hdr_bins <= central_bins

    def test_multimodal_set_splits(self):
        mixture = Empirical(
            np.concatenate([
                Normal(-4, 0.3).sample(0, 20_000),
                Normal(4, 0.3).sample(1, 20_000),
            ])
        )
        region = confidence_set(mixture, 0.9, 128)
        assert region.kind == "set"
        assert len(region.intervals) >= 2

    def test_small_empirical_rejected(self):
        with pytest.raises(ValueError):
            confidence_set(Empirical(np.arange(100.0)), 0.9)

    @staticmethod
    def _greedy_loop(dist, level, bins):
        """The set built bin by bin: add the most probable bins one at a
        time until the running mass reaches the level, then merge runs."""
        lo, hi = dist.quantile(0.001), dist.quantile(0.999)
        edges = np.linspace(lo, hi, bins + 1)
        masses = np.diff(dist.cdf(edges))
        picked = np.zeros(bins, dtype=bool)
        cum = 0.0
        for i in np.argsort(-masses, kind="stable"):
            picked[i] = True
            cum += masses[i]
            if cum >= level - 1e-12:
                break
        intervals, i = [], 0
        while i < bins:
            if picked[i]:
                j = i
                while j + 1 < bins and picked[j + 1]:
                    j += 1
                intervals.append((float(edges[i]), float(edges[j + 1])))
                i = j
            i += 1
        return tuple(intervals)

    @pytest.mark.parametrize("bins", [7, 64, 512])
    def test_same_bits_as_the_greedy_loop(self, bins):
        bimodal = Empirical(np.concatenate([Normal(-3, 0.5).sample(2, 3000), Normal(2, 1.0).sample(3, 2000)]))
        dists = [Normal(0.4, 1.3), StudentT(-1.0, 2.5, 0.7), Uniform(-1.0, 3.0), ShiftedExponential(2.0, 0.5), bimodal]
        for dist in dists:
            for level in (0.3, 0.5, 0.9, 0.95, 0.999, 1.0):  # 0.999 and 1.0 exceed the window's mass
                got = confidence_set(dist, level, bins).intervals
                want = self._greedy_loop(dist, level, bins)
                assert [tuple(map(float.hex, iv)) for iv in got] == [tuple(map(float.hex, iv)) for iv in want], (
                    dist, level)


class TestProbabilityInRegion:
    def test_interval_mass(self):
        region = confidence_interval(Normal(0, 1), 0.95)
        assert probability_in_region(Normal(0, 1), region) == pytest.approx(0.95, abs=1e-9)

    def test_label_mass(self):
        region = confidence_set(Categorical([0, 10, 5], [0.5, 0.45, 0.05]), 0.95)
        assert probability_in_region(Categorical([0, 10, 5], [0.5, 0.45, 0.05]), region) == pytest.approx(0.95)

    def test_empirical_uses_its_cdf(self):
        region = confidence_interval(Normal(0, 1), 0.5)
        emp = Empirical(Normal(0, 1).sample(9, 50_000))
        assert probability_in_region(emp, region) == pytest.approx(0.5, abs=0.02)

    def test_contains_with_labels(self):
        region = ConfidenceRegion(kind="set", level=0.7, labels=(2.0, "b"))
        assert region.contains(2.0) and region.contains("b") and not region.contains(1.0)
        got = region.contains(np.array([[2.0, 1.0], [0.0, 2.0]]))
        assert got.tolist() == [[True, False], [False, True]]

    def test_label_region_on_a_point_mass(self):
        region = ConfidenceRegion(kind="set", level=0.7, labels=(2.0, 1.0))
        assert probability_in_region(DiracDelta(1.0), region) == 1.0
        assert probability_in_region(DiracDelta(0.0), region) == 0.0

    def test_label_region_on_an_empirical_is_a_reproducible_fraction(self):
        region = ConfidenceRegion(kind="set", level=0.5, labels=(1.0,))
        emp = Empirical(np.array([0.0, 1.0, 1.0, 2.0]))
        assert probability_in_region(emp, region) == 0.5

    def test_empirical_atoms_on_closed_edges(self):
        # Atoms 0, 1 and 2 with weights 0.4, 0.3 and 0.3: both edges of
        # [0, 1] hold an atom, and both count.
        emp = Empirical(np.array([0.0] * 4 + [1.0] * 3 + [2.0] * 3))
        assert probability_in_region(emp, ConfidenceRegion(kind="interval", level=0.7, intervals=((0.0, 1.0),))) == 0.7

    def test_label_region_on_a_continuous_variant_has_no_mass(self):
        region = ConfidenceRegion(kind="set", level=0.5, labels=(0.0, "a"))
        assert probability_in_region(Normal(0, 1), region) == 0.0

    def test_path_distribution_rejected(self):
        region = ConfidenceRegion(kind="interval", level=0.5, intervals=((0.0, 1.0),))
        for dist in (DiracDelta([0.5, 0.5]), Empirical(np.zeros((3, 2)))):
            with pytest.raises(ValueError):
                probability_in_region(dist, region)

    def test_interval_region_on_a_categorical_sums_the_masses_inside(self):
        dist = Categorical([2.0, 0.0, 1.0], [0.5, 0.2, 0.3])
        region = ConfidenceRegion(kind="set", level=0.8, intervals=((-1.0, 0.0), (1.5, 2.0)))
        assert probability_in_region(dist, region) == 0.7
        assert probability_in_region(dist, ConfidenceRegion(kind="interval", level=0.3, intervals=((1.0, 1.0),))) == 0.3
