"""Estimator correctness: MC vs enumeration, grids, densities, sweeps, ratios."""

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from bvm import (
    AlwaysFalse,
    AlwaysTrue,
    And,
    Categorical,
    DiracDelta,
    GammaEpsilon,
    IndependentProduct,
    InputGrid,
    Interval,
    Normal,
    Or,
    Scenario,
    ShiftedExponential,
    SoftExponential,
    SweepGrid,
    SweepTemplate,
    Threshold,
    Uniform,
    averaged_boolean_ratio,
    bvm_factor,
    bvm_from_density,
    bvm_ratio,
    comparison_density,
    estimate_bvm_grid,
    estimate_bvm_mc,
    polynomial_model,
    ratio_grid,
    sweep,
)
from bvm.agreement import AgreementRule
from bvm.config import build_sweep_template
from bvm.distributions import PushForward
from bvm.engine import (
    SWEEP_BLOCK,
    EstimationError,
    RatioResult,
    _grid_estimate,
    _path_blocks,
    discretize_distribution,
)
from bvm.models import ModelFunction
from bvm.rng import CHUNK_SIZE, DATA_STREAM, MODEL_STREAM
from bvm.studies import _poly_config, sweep_axes


def enumeration_oracle(model: Categorical, data: Categorical, rule) -> float:
    """Exact double sum over the two finite supports."""
    total = 0.0
    for mv, mp in zip(model.values, model.probs):
        for dv, dp in zip(data.values, data.probs):
            total += mp * dp * rule.kernel(mv, dv)
    return total


@dataclass(frozen=True)
class OneWeight(AgreementRule):
    """Weight 0.5 for every pair but the first of a chunk, which gets *weight*."""

    weight: float

    def kernel_many(self, zhat_batch, z_batch):
        w = np.full(len(zhat_batch), 0.5)
        w[0] = self.weight
        return w


class TestMonteCarlo:
    def test_always_true_is_exactly_one(self):
        sc = Scenario(Normal(0, 1), Normal(0, 1), AlwaysTrue())
        est = estimate_bvm_mc(sc, 500, 0)
        assert est.p_hat == 1.0
        assert est.std_error == 0.0

    def test_certain_exact_agreement(self):
        rule = Threshold("abs_diff", 0.0)
        agree = estimate_bvm_mc(Scenario(DiracDelta(2.0), DiracDelta(2.0), rule), 100, 0)
        disagree = estimate_bvm_mc(Scenario(DiracDelta(2.0), DiracDelta(3.0), rule), 100, 0)
        assert agree.p_hat == 1.0
        assert disagree.p_hat == 0.0
        # The binomial standard error reads 0 here; the Wilson interval does not.
        assert 0.9 < agree.ci_lo < 1.0 == agree.ci_hi
        assert 0.0 == disagree.ci_lo < disagree.ci_hi < 0.1

    def test_categorical_matches_enumeration(self):
        model = Categorical([0.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3])
        data = Categorical([1.0], [1.0])
        rule = Threshold("abs_diff", 0.0)
        exact = enumeration_oracle(model, data, rule)
        assert exact == pytest.approx(1 / 3)
        est = estimate_bvm_mc(Scenario(model, data, rule), 30_000, 5)
        assert abs(est.p_hat - exact) <= 3 * est.std_error

    def test_determinism_and_thread_invariance(self, monkeypatch):
        sc = Scenario(Normal(0, 1), Normal(0.5, 2.0), Threshold("abs_diff", 0.8))
        monkeypatch.setenv("BVM_THREADS", "1")
        serial = estimate_bvm_mc(sc, 50_000, 9)
        monkeypatch.setenv("BVM_THREADS", "8")
        threaded = estimate_bvm_mc(sc, 50_000, 9)
        assert serial.p_hat == threaded.p_hat
        assert serial.std_error == threaded.std_error

    def test_and_or_inequalities_on_shared_samples(self):
        a = Threshold("abs_diff", 0.4)
        b = Interval("identity", -0.3, 1.2)
        model, data = Normal(0, 1), Normal(0.2, 0.8)
        seed, k = 17, 40_000
        p_a = estimate_bvm_mc(Scenario(model, data, a), k, seed).p_hat
        p_b = estimate_bvm_mc(Scenario(model, data, b), k, seed).p_hat
        p_and = estimate_bvm_mc(Scenario(model, data, And([a, b])), k, seed).p_hat
        p_or = estimate_bvm_mc(Scenario(model, data, Or([a, b])), k, seed).p_hat
        assert p_and <= min(p_a, p_b)
        assert p_or >= max(p_a, p_b)
        assert p_and + p_or == pytest.approx(p_a + p_b, abs=1e-12)

    def test_eps_monotone_at_fixed_seed(self):
        model, data = Normal(0, 1), Normal(0.3, 1.5)
        prev = 0.0
        for eps in np.linspace(0, 2.5, 21):
            p = estimate_bvm_mc(Scenario(model, data, Threshold("abs_diff", eps)), 20_000, 3).p_hat
            assert p >= prev
            prev = p

    def test_soft_rule_uses_sample_variance(self):
        rule = SoftExponential("abs_diff", 0.2, 1.0)
        est = estimate_bvm_mc(Scenario(Normal(0, 1), DiracDelta(0.0), rule), 10_000, 0)
        assert 0.0 < est.p_hat < 1.0
        assert est.std_error > 0.0

    def test_soft_closed_form_matches_nested_two_level_mc(self):
        # The soft kernel is the closed-form marginalisation of a hard
        # threshold whose tolerance is shifted-exponential. Re-inflate the
        # marginal by drawing tolerances explicitly and compare.
        eps_prime, lam = 0.3, 2.5
        model, data = Normal(0, 1), DiracDelta(0.0)
        k, seed = 120_000, 21
        soft = estimate_bvm_mc(Scenario(model, data, SoftExponential("abs_diff", eps_prime, lam)), k, seed)
        f = np.abs(model.sample(seed, k, stream=0) - data.sample(seed, k, stream=DATA_STREAM))
        eps_draws = ShiftedExponential(lam, eps_prime).sample(seed, k, stream=2)
        nested = (f <= eps_draws).astype(float)
        p_nested = nested.mean()
        se_nested = math.sqrt(p_nested * (1 - p_nested) / k)
        combined = math.hypot(soft.std_error, se_nested)
        assert abs(soft.p_hat - p_nested) <= 3 * combined

    def test_streamed_estimate_holds_no_k_pairs(self):
        # k = 10^6 pairs of float64 values alone would take 16 MB.
        sc = Scenario(Normal(0, 1), Normal(0.5, 2.0), Threshold("abs_diff", 0.8))
        estimate_bvm_mc(sc, 10_000, 0)  # warm imports and caches outside the trace
        tracemalloc.start()
        try:
            estimate_bvm_mc(sc, 1_000_000, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_soft_variance_survives_weights_near_one(self):
        # Every weight lies within 1e-9 of 1, where E[w^2] - p^2 cancels.
        rule = SoftExponential("abs_diff", 0.0, 1e-11)
        model, data = Normal(0, 1), Normal(0.5, 2.0)
        k, seed = 100_000, 8
        w = rule.kernel_many(model.sample(seed, k, stream=0), data.sample(seed, k, stream=DATA_STREAM))
        assert np.all(np.abs(w - 1.0) < 1e-9)
        reference = math.sqrt(np.var(w) / k)
        est = estimate_bvm_mc(Scenario(model, data, rule), k, seed)
        assert est.std_error == pytest.approx(reference, rel=1e-6, abs=0.0)

    def test_wilson_interval_brackets_estimate(self):
        est = estimate_bvm_mc(Scenario(Normal(0, 1), Normal(0, 1), Threshold("abs_diff", 1.0)), 5000, 2)
        half = 1.96 * est.std_error
        assert est.ci_lo < est.p_hat < est.ci_hi
        assert est.ci_hi - est.ci_lo == pytest.approx(2 * half, rel=0.01)

    def test_chunk_error_propagates_from_threads(self, monkeypatch):
        class Escapes(Threshold):
            def kernel_many(self, zhat_batch, z_batch):
                return np.full(len(zhat_batch), 2.0)

        monkeypatch.setenv("BVM_THREADS", "2")
        with pytest.raises(EstimationError):
            estimate_bvm_mc(Scenario(Normal(0, 1), Normal(0, 1), Escapes("abs_diff", 1.0)), 20_000, 0)

    def test_sample_count_validation(self):
        with pytest.raises(EstimationError):
            estimate_bvm_mc(Scenario(Normal(0, 1), Normal(0, 1), AlwaysTrue()), 0, 0)

    @pytest.mark.parametrize("edge, outward", [(-1e-12, -np.inf), (1.0 + 1e-12, np.inf)], ids=["low", "high"])
    def test_a_weight_on_the_escape_guard_passes_and_one_step_past_it_raises(self, edge, outward):
        # The guard forgives rounding of up to 1e-12 outside [0, 1], edge included.
        sc = Scenario(Normal(0, 1), Normal(0, 1), OneWeight(edge))
        assert estimate_bvm_mc(sc, 100, 0).p_hat == (99 * 0.5 + edge) / 100
        with pytest.raises(EstimationError, match="escaped"):
            estimate_bvm_mc(Scenario(Normal(0, 1), Normal(0, 1), OneWeight(np.nextafter(edge, outward))), 100, 0)


class TestGridEstimator:
    def test_single_certain_pair(self):
        path = np.array([1.0, 2.0, 3.0])
        sc = Scenario(DiracDelta(path), DiracDelta(path), Threshold("max_abs_error", 0.0))
        est = estimate_bvm_grid(sc, ([path], [1.0]), ([path], [1.0]))
        assert est.p_hat == 1.0
        assert est.method == "grid"
        assert est.std_error == 0.0

    def test_two_equiprobable_paths(self):
        path = np.array([0.0, 0.0])
        other = np.array([9.0, 9.0])
        sc = Scenario(DiracDelta(path), DiracDelta(path), Threshold("max_abs_error", 0.1))
        est = estimate_bvm_grid(sc, ([path, other], [0.5, 0.5]), ([path], [1.0]))
        assert est.p_hat == 0.5

    def test_weight_normalisation_enforced(self):
        path = np.zeros(2)
        sc = Scenario(DiracDelta(path), DiracDelta(path), AlwaysTrue())
        with pytest.raises(EstimationError):
            estimate_bvm_grid(sc, ([path], [0.7]), ([path], [1.0]))

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["above", "below"])
    def test_weights_summing_just_inside_the_tolerance_pass_and_just_outside_raise(self, side):
        # No float sum lies exactly 1e-9 from 1 (the floats there are whole
        # multiples of 2**-52 or 2**-53), so these are the nearest sums on
        # either side of the edge. The zero weight is allowed.
        ulp = 2.0**-52 if side > 0 else 2.0**-53
        inside = 1.0 + side * math.floor(1e-9 / ulp) * ulp
        outside = np.nextafter(inside, side * np.inf)
        assert abs(inside - 1.0) <= 1e-9 < abs(outside - 1.0)
        path = np.zeros(2)
        sc = Scenario(DiracDelta(path), DiracDelta(path), AlwaysFalse())
        assert estimate_bvm_grid(sc, ([path, path], [inside, 0.0]), ([path], [1.0])).p_hat == 0.0
        with pytest.raises(EstimationError, match="sum to 1 within 1e-9"):
            estimate_bvm_grid(sc, ([path, path], [outside, 0.0]), ([path], [1.0]))

    def test_matches_enumeration_for_categoricals(self):
        model = Categorical([0.0, 1.0, 2.0], [0.5, 0.25, 0.25])
        data = Categorical([0.0, 2.0], [0.4, 0.6])
        rule = Threshold("abs_diff", 1.0)
        exact = enumeration_oracle(model, data, rule)
        est = estimate_bvm_grid(
            Scenario(model, data, rule),
            (list(model.values), list(model.probs)),
            (list(data.values), list(data.probs)),
        )
        assert est.p_hat == pytest.approx(exact, abs=1e-15)

    def test_label_grids_with_synonym_rule(self):
        from bvm import SetMembership

        model = Categorical(["feline", "dog"], [0.6, 0.4])
        data = Categorical(["cat"], [1.0])
        rule = SetMembership({"cat": ("cat", "feline")})
        est = estimate_bvm_grid(
            Scenario(model, data, rule),
            (list(model.values), list(model.probs)),
            (list(data.values), list(data.probs)),
        )
        assert est.p_hat == pytest.approx(0.6)
        mc = estimate_bvm_mc(Scenario(model, data, rule), 20_000, 0)
        assert abs(mc.p_hat - 0.6) <= 3 * mc.std_error


    @pytest.mark.parametrize(
        "rule",
        [
            GammaEpsilon(0.6, 0.2, 5.0),
            Threshold("mean_abs_error", 0.15),
            And([Threshold("max_abs_error", 0.6), SoftExponential("mean_abs_error", 0.1, 10.0)]),
        ],
    )
    def test_path_blocks_give_the_bits_of_one_block(self, rule):
        # A 33 x 33 mesh is one full block plus 65 rows; the second data
        # value has weight 0 and is skipped.
        template = small_template(points_per_param=33)
        paths, weights = all_paths(template, "grid")
        data = ([template.data_path, template.data_path + 0.03, template.data_path], [0.25, 0.0, 0.75])
        one_block = estimate_bvm_grid(Scenario(DiracDelta(paths[0]), DiracDelta(template.data_path), rule), (paths, weights), data)
        streamed = _grid_estimate(rule, _path_blocks(template, "grid", 0, 0), data)
        assert streamed == one_block
        assert 0.0 < streamed.p_hat < 1.0 and streamed.n_samples == 33 * 33 * 3


class TestComparisonDensity:
    def test_dirac_pair_single_bin(self):
        sc = Scenario(DiracDelta(2.0), DiracDelta(3.5), AlwaysTrue())
        dens = comparison_density(sc, "abs_diff", 1000, 16, 0)
        assert dens.masses.sum() == pytest.approx(1.0)
        hot = np.flatnonzero(dens.masses)
        assert hot.size == 1
        lo, hi = dens.edges[hot[0]], dens.edges[hot[0] + 1]
        assert lo <= 1.5 <= hi

    def test_identity_statistic_recovers_model_density(self):
        sc = Scenario(Normal(0, 1), DiracDelta(0.0), AlwaysTrue())
        dens = comparison_density(sc, "identity", 100_000, 64, 2)
        from scipy.stats import norm

        cdf_emp = np.cumsum(dens.masses)
        cdf_true = norm.cdf(dens.edges[1:])
        assert np.max(np.abs(cdf_emp - cdf_true)) < 0.02

    def test_masses_always_sum_to_one(self):
        sc = Scenario(Normal(0, 1), Normal(1, 2), AlwaysTrue())
        for bins in (8, 64):
            dens = comparison_density(sc, "abs_diff", 5000, bins, 1)
            assert dens.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_needs_enough_samples(self):
        sc = Scenario(Normal(0, 1), Normal(0, 1), AlwaysTrue())
        with pytest.raises(EstimationError):
            comparison_density(sc, "abs_diff", 10, 16, 0)

    def test_as_many_samples_as_bins_is_enough(self):
        sc = Scenario(Normal(0, 1), Normal(0, 1), AlwaysTrue())
        dens = comparison_density(sc, "abs_diff", 16, 16, 0)
        assert dens.masses.size == 16 and dens.masses.sum() == pytest.approx(1.0)

    def test_spread_of_fewer_ulps_than_bins_is_refused(self):
        # Values 1 to 1 + 4 ulps cannot hold 16 bins of distinct edges.
        sc = Scenario(Uniform(1.0, 1.0 + 4 * np.spacing(1.0)), DiracDelta(0.0), AlwaysTrue())
        with pytest.raises(EstimationError, match=r"span \[1\.0, 1\.00000000000000.*no 16 distinct"):
            comparison_density(sc, "identity", 1000, 16, 0)


class TestBvmFromDensity:
    def test_trivial_rules(self):
        sc = Scenario(Normal(0, 1), Normal(0.5, 0.5), AlwaysTrue())
        dens = comparison_density(sc, "abs_diff", 20_000, 64, 4)
        assert bvm_from_density(dens, AlwaysTrue()) == pytest.approx(1.0)
        assert bvm_from_density(dens, AlwaysFalse()) == 0.0

    def test_consistent_with_direct_mc(self):
        # Same seed, same samples: the two routes may only disagree by the
        # mass of the bin containing the threshold.
        eps = 0.8
        model, data = Normal(0, 1), Normal(0.3, 0.7)
        seed, k, bins = 6, 100_000, 64
        direct = estimate_bvm_mc(Scenario(model, data, Threshold("abs_diff", eps)), k, seed)
        dens = comparison_density(Scenario(model, data, AlwaysTrue()), "abs_diff", k, bins, seed)
        via_density = bvm_from_density(dens, Threshold("identity", eps))
        idx = np.searchsorted(dens.edges, eps) - 1
        boundary_mass = dens.masses[max(idx, 0)]
        assert abs(via_density - direct.p_hat) <= boundary_mass + 1e-12


class TestRatios:
    def test_factor_statuses(self):
        assert bvm_factor(0.5, 0.25) == RatioResult("ok", 2.0)
        assert bvm_factor(0.0, 0.0).status == "indeterminate"
        assert bvm_factor(1.0, 0.0).status == "infinite"
        assert bvm_factor(0.0, 0.4) == RatioResult("ok", 0.0)

    def test_ratio_prior_scaling(self):
        k = bvm_factor(0.5, 0.25)
        assert bvm_ratio(k, 1.0, 1.0).value == pytest.approx(2.0)
        assert bvm_ratio(k, 1.0, 2.0).value == pytest.approx(1.0)
        assert bvm_ratio(k, 1.0, 2.0).log_value is None
        assert bvm_ratio(bvm_factor(0.0, 0.0), 1.0, 2.0).status == "indeterminate"
        with pytest.raises(ValueError):
            bvm_ratio(k, 0.0, 1.0)

    @pytest.mark.parametrize("prior, prior_other", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_ratio_refuses_a_prior_of_zero_by_name(self, prior, prior_other):
        with pytest.raises(ValueError, match="positive and finite"):
            bvm_ratio(bvm_factor(0.5, 0.25), prior, prior_other)

    @pytest.mark.parametrize("prior, prior_other", [(1e308, 1e-308), (1e-320, 1e300)])
    def test_ratio_beyond_the_float_range_keeps_an_exact_log(self, prior, prior_other):
        # The prior odds overflow (or underflow), so the posterior odds are
        # formed in log space; the value is what a float can hold of them.
        r = bvm_ratio(bvm_factor(0.5, 0.25), prior, prior_other)
        assert r.status == "ok"
        assert r.log_value == pytest.approx(math.log(2.0) + math.log(prior) - math.log(prior_other), rel=1e-15)
        assert r.value == (math.inf if r.log_value > 0 else 0.0)

    def test_ratio_of_a_log_space_factor_stays_in_log_space(self):
        k = RatioResult.of_logs(-800.0, 0.0)  # value underflows to 0.0
        r = bvm_ratio(k, 1e300, 1.0)
        assert r.log_value == -800.0 + math.log(1e300)
        assert r.value == pytest.approx(math.exp(-800.0 + math.log(1e300)), rel=1e-12)
        assert bvm_ratio(bvm_factor(0.0, 0.4), 1e308, 1e-308) == RatioResult("ok", 0.0)

    @pytest.mark.parametrize("prior, prior_other", [(math.nan, 1.0), (1.0, math.nan), (math.inf, math.inf), (1.0, math.inf)])
    def test_ratio_needs_finite_priors(self, prior, prior_other):
        with pytest.raises(ValueError, match="positive and finite"):
            bvm_ratio(bvm_factor(0.5, 0.25), prior, prior_other)

    @pytest.mark.parametrize("num, den", [(math.nan, 0.5), (0.5, math.nan), (-0.1, 0.5), (0.5, -0.1), (math.inf, 0.5)])
    def test_non_finite_or_negative_terms_raise(self, num, den):
        with pytest.raises(ValueError):
            bvm_factor(num, den)

    @pytest.mark.parametrize("log_num, log_den", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, math.inf)])
    def test_nan_or_infinite_logs_raise(self, log_num, log_den):
        with pytest.raises(ValueError):
            RatioResult.of_logs(log_num, log_den)

    def test_log_space_states(self):
        assert RatioResult.of_logs(-math.inf, -math.inf).status == "indeterminate"
        assert RatioResult.of_logs(-3.0, -math.inf).status == "infinite"
        assert RatioResult.of_logs(-math.inf, -3.0) == RatioResult("ok", 0.0, -math.inf)


def small_template(seed=0, uncertain=True, n_points=12, points_per_param=7):
    grid = InputGrid.linspace(0.0, 2.0, n_points)
    data = np.cos(grid.points)
    model = polynomial_model([0, 2])
    if uncertain:
        prior = IndependentProduct([Normal(1.0, 0.2), Normal(-0.5, 0.1)])
    else:
        prior = IndependentProduct([DiracDelta(1.0), DiracDelta(-0.5)])
    return SweepTemplate(PushForward(prior, model, grid), data, points_per_param=points_per_param)


def assert_matches_cellwise_grid(template, gammas, epsilons, m):
    # Dual route: the optimised sweep must equal running the plain grid
    # estimator with the (gamma, eps) rule at every cell.
    grid = sweep(template, gammas, epsilons, m=m)
    paths, weights = all_paths(template, "grid")
    data_grid = ([template.data_path], [1.0])
    for i, g in enumerate(gammas):
        for j, e in enumerate(epsilons):
            rule = GammaEpsilon(g, e, m)
            sc = Scenario(DiracDelta(template.data_path), DiracDelta(template.data_path), rule)
            direct = estimate_bvm_grid(sc, (paths, weights), data_grid)
            assert grid.values[i, j] == pytest.approx(direct.p_hat, abs=1e-12)
    return grid


def direct_count_sweep(paths, weights, data_path, gammas, epsilons, m):
    # Reference: count each path's in-tolerance errors at every eps by a
    # full pass over the error matrix; a cell is the math.fsum of the
    # weights of the paths that pass, or for "mc" paths (weights None)
    # their number over k.
    err = np.abs(paths - data_path)
    n = err.shape[1]
    needed = [int(np.searchsorted(np.arange(n + 1) / n >= g, True)) for g in gammas]
    values = np.zeros((len(gammas), len(epsilons)))
    for j, eps in enumerate(epsilons):
        counts = np.where(err.max(axis=1) <= m * eps, np.sum(err <= eps, axis=1), -1)
        for i, need in enumerate(needed):
            passing = counts >= need
            values[i, j] = np.count_nonzero(passing) / len(paths) if weights is None else math.fsum(weights[passing])
    # SweepGrid clips its cells to [0, 1]; a sum of grid weights can round
    # to just above 1.
    return np.clip(values, 0.0, 1.0)


def assert_equals_direct_count(grid, paths, weights, data_path, gammas, epsilons, m):
    # The bound, stated before any run: an "mc" cell is a whole count over
    # k, as the reference's is, so the two agree bit for bit. A grid cell
    # adds at most N nonnegative weights that sum to about 1, in some order
    # of float additions, so it lies within (N - 1) u of their exact sum
    # (u = 2**-53), and so within N * eps = 2 N u of the fsum reference.
    expected = direct_count_sweep(paths, weights, data_path, gammas, epsilons, m)
    bound = 0.0 if weights is None else len(paths) * np.finfo(float).eps
    assert np.max(np.abs(grid.values - expected)) <= bound


def all_paths(template, estimator, k=0, seed=0):
    # Every path of _path_blocks at once, checking the block sizes.
    n_paths, weights, blocks = _path_blocks(template, estimator, k, seed)
    blocks = list(blocks)
    assert all(b.shape[0] == SWEEP_BLOCK for b in blocks[:-1]) and 0 < blocks[-1].shape[0] <= SWEEP_BLOCK
    paths = np.concatenate(blocks)
    assert paths.shape[0] == n_paths and (weights is None or weights.size == n_paths)
    return paths, weights


class TestSweep:
    def test_matches_cellwise_grid_estimates(self):
        grid = assert_matches_cellwise_grid(small_template(), np.array([0.5, 0.8, 1.0]), np.array([0.0, 0.2, 0.5, 1.1]), 3.0)
        assert grid.n_paths == 7 * 7

    def test_shuffled_axis_with_repeat_and_negative_eps(self):
        template = small_template()
        gammas = np.array([0.5, 0.8, 1.0])
        epsilons = np.array([-0.1, 0.0, 0.1, 0.2, 0.2, 0.35, 0.5, 1.1])
        perm = np.random.default_rng(5).permutation(epsilons.size)
        ordered = sweep(template, gammas, epsilons, m=3.0)
        shuffled = sweep(template, gammas, epsilons[perm], m=3.0)
        assert np.array_equal(shuffled.epsilons, epsilons[perm])
        assert np.array_equal(shuffled.values, ordered.values[:, perm])
        assert np.array_equal(ordered.values[:, 3], ordered.values[:, 4])
        assert not ordered.values[:, 0].any()
        assert ordered.values[:, 2:].any()

    def test_grid_longer_than_255_points_widens_counts(self):
        # n = 300: the cells read count bins above 255 (gamma 0.9 needs
        # 270), which a one-byte count would wrap.
        template = small_template(n_points=300, points_per_param=5)
        grid = assert_matches_cellwise_grid(template, np.array([0.5, 0.9, 1.0]), np.array([0.0, 0.1, 0.2, 0.4, 1.1]), 3.0)
        assert 0.0 < grid.values[1, 2] < 1.0

    def test_paths_span_blocks_with_ragged_tail(self):
        # The second k crosses a chunk boundary and ends on a partial block.
        template = small_template()
        for k in (2 * SWEEP_BLOCK + 37, CHUNK_SIZE + SWEEP_BLOCK + 37):
            paths, weights = all_paths(template, "mc", k, 9)
            reference = template.model_dist.sample(9, k, stream=MODEL_STREAM)
            assert np.array_equal(paths, reference)
            assert weights is None  # each path weighs 1/k
            # Every error of the last path is also an eps: an error equal to
            # eps is in tolerance.
            gammas = np.linspace(0.05, 1.0, 20)
            epsilons = np.concatenate([np.linspace(0.0, 0.6, 13), np.abs(paths[-1] - template.data_path)])
            grid = sweep(template, gammas, epsilons, m=3.0, estimator="mc", k=k, seed=9)
            assert grid.n_paths == k
            assert_equals_direct_count(grid, paths, weights, template.data_path, gammas, epsilons, 3.0)

    def test_long_eps_axis(self):
        # 300 shuffled eps over a 1089-path mesh, which ends on a partial
        # block.
        template = small_template(points_per_param=33)
        gammas = np.linspace(0.5, 1.0, 11)
        epsilons = np.random.default_rng(3).permutation(np.linspace(-0.05, 1.0, 300))
        grid = sweep(template, gammas, epsilons, m=2.0)
        paths, weights = all_paths(template, "grid")
        assert_equals_direct_count(grid, paths, weights, template.data_path, gammas, epsilons, 2.0)

    def test_grid_mesh_with_ragged_tail(self):
        # A 33 x 33 mesh is one full block plus 65 rows.
        template = small_template(points_per_param=33)
        n_paths = 33 * 33
        assert n_paths % SWEEP_BLOCK
        paths, weights = all_paths(template, "grid")
        # Reference: one evaluation over the full meshgrid of supports.
        pf = template.model_dist
        (x0, w0), (x1, w1) = (discretize_distribution(c, 33, 3.0) for c in pf.prior.components)
        mesh = np.meshgrid(x0, x1, indexing="ij")
        reference = pf.model.evaluate(np.column_stack([a.ravel() for a in mesh]), pf.grid)
        assert np.array_equal(paths, reference)
        w_mesh = np.meshgrid(w0, w1, indexing="ij")
        w_ref = w_mesh[0].ravel() * w_mesh[1].ravel()
        assert np.array_equal(weights, w_ref / w_ref.sum())
        gammas = np.linspace(0.05, 1.0, 20)
        epsilons = np.concatenate([np.linspace(0.0, 0.6, 13), np.abs(paths[-1] - template.data_path)])
        grid = sweep(template, gammas, epsilons, m=3.0)
        assert grid.n_paths == n_paths
        assert_equals_direct_count(grid, paths, weights, template.data_path, gammas, epsilons, 3.0)

    def test_mc_cell_that_every_path_passes_reads_one(self):
        # An "mc" cell is a whole count over k: k passing paths read 1.0, not
        # k additions of 1/k (0.9999999999999225 here).
        template = small_template(uncertain=False)
        grid = sweep(template, [0.5], [5.0], m=3.0, estimator="mc", k=5_000, seed=0)
        assert grid.values[0, 0] == 1.0

    def test_ex53_cells_lie_within_2e_15_of_fsum(self):
        # All 26 x 101 cells of the uncertain ex-5.3 model-1 sweep, against
        # the fsum of their passing weights. The bound, 2e-15, is stated
        # before the run; the general bound of assert_equals_direct_count
        # would allow 8 000 paths about 1.8e-12.
        template, _ = build_sweep_template(_poly_config(1, "uncertain", 0))
        gammas, epsilons = sweep_axes()
        grid = sweep(template, gammas, epsilons, m=5.0)
        assert grid.values.shape == (26, 101)
        paths, weights = all_paths(template, "grid")
        expected = direct_count_sweep(paths, weights, template.data_path, gammas, epsilons, 5.0)
        assert np.max(np.abs(grid.values - expected)) <= 2e-15

    def test_mc_sweep_of_a_certain_model_evaluates_it_no_more(self, monkeypatch):
        # The template's push-forward evaluated the certain model once, when
        # it was built; an "mc" sweep draws that path and calls it no more.
        template = small_template(uncertain=False)
        calls = []
        evaluate = ModelFunction.evaluate
        monkeypatch.setattr(ModelFunction, "evaluate", lambda self, *args: calls.append(1) or evaluate(self, *args))
        grid = sweep(template, [0.8, 1.0], [0.1, 0.5], m=3.0, estimator="mc", k=2 * SWEEP_BLOCK + 37, seed=2)
        assert grid.n_paths == 2 * SWEEP_BLOCK + 37
        assert calls == []

    def test_data_path_must_match_the_push_forward(self):
        pf = small_template().model_dist
        SweepTemplate(pf, np.zeros(pf.path_length))
        for n in (pf.path_length - 1, pf.path_length + 1):
            with pytest.raises(ValueError, match="data path length must match the grid"):
                SweepTemplate(pf, np.zeros(n))

    def test_mc_sample_count_must_be_positive(self):
        with pytest.raises(EstimationError, match="at least 1"):
            sweep(small_template(), [0.8], [0.1], m=5.0, estimator="mc", k=0)

    def test_monotone_axes(self):
        grid = sweep(small_template(), np.linspace(0.5, 1.0, 6), np.linspace(0, 1.5, 16), m=5.0)
        assert np.all(np.diff(grid.values, axis=0) <= 1e-12)  # stricter gamma never helps
        assert np.all(np.diff(grid.values, axis=1) >= -1e-12)  # looser eps never hurts

    def test_deterministic_cells_are_binary(self):
        grid = sweep(small_template(uncertain=False), np.linspace(0.75, 1.0, 6), np.linspace(0, 1, 21), m=5.0)
        assert np.isin(grid.values, (0.0, 1.0)).all()

    def test_mc_estimator_close_to_grid(self):
        template = small_template(points_per_param=20)
        gammas = np.array([0.8])
        epsilons = np.array([0.3])
        g_grid = sweep(template, gammas, epsilons, m=5.0, estimator="grid")
        g_mc = sweep(template, gammas, epsilons, m=5.0, estimator="mc", k=40_000, seed=1)
        se = math.sqrt(max(g_mc.values[0, 0] * (1 - g_mc.values[0, 0]), 1e-9) / 40_000)
        # The 20-point lattice truncates the prior at +/-3 sigma, so a
        # small systematic gap rides on top of the MC error.
        assert abs(g_grid.values[0, 0] - g_mc.values[0, 0]) <= 4 * se + 0.02

    def test_empty_axes_rejected(self):
        with pytest.raises(EstimationError):
            sweep(small_template(), [], [0.1], m=5.0)

    @pytest.mark.parametrize(
        "gammas, epsilons, where",
        [
            ([0.8, math.nan], [0.1, 0.5], "gamma axis holds NaN at position 1"),
            ([0.8], [0.1, math.nan, 0.5], "eps axis holds NaN at position 1"),
        ],
    )
    def test_nan_axis_rejected(self, gammas, epsilons, where):
        with pytest.raises(EstimationError, match=where):
            sweep(small_template(), gammas, epsilons, m=5.0)


class TestGridRatios:
    def test_identical_grids(self):
        grid = sweep(small_template(), np.linspace(0.75, 1.0, 4), np.linspace(0, 1, 6), m=5.0)
        assert averaged_boolean_ratio(grid, grid).value == pytest.approx(1.0)
        cells = ratio_grid(grid, grid)
        for row in cells:
            for cell in row:
                assert cell.status in ("ok", "indeterminate")
                if cell.status == "ok":
                    assert cell.value == pytest.approx(1.0)

    def test_axis_mismatch_rejected(self):
        g1 = sweep(small_template(), [0.8], [0.1, 0.2], m=5.0)
        g2 = sweep(small_template(), [0.9], [0.1, 0.2], m=5.0)
        with pytest.raises(EstimationError):
            averaged_boolean_ratio(g1, g2)

    def test_indeterminate_total(self):
        g = SweepGrid(np.array([1.0]), np.array([0.0]), np.array([[0.0]]))
        assert averaged_boolean_ratio(g, g).status == "indeterminate"
