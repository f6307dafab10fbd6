"""Agreement-rule kernels: indicator semantics, composition, soft decay."""

import math

import numpy as np
import pytest

from bvm import (
    AgreementRule,
    AlwaysFalse,
    AlwaysTrue,
    And,
    ConfidenceRegion,
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
from bvm.agreement import _value_breakpoints


class TestBasicKernels:
    def test_threshold(self):
        rule = Threshold("abs_diff", 1.0)
        assert rule.kernel(0.5, 0.0) == 1.0
        assert rule.kernel(1.0, 0.0) == 1.0  # closed boundary
        assert rule.kernel(1.5, 0.0) == 0.0

    def test_interval(self):
        rule = Interval("identity", -1.0, 2.0)
        assert rule.kernel(0.0, 0.0) == 1.0
        assert rule.kernel(2.0, 0.0) == 1.0
        assert rule.kernel(-1.5, 0.0) == 0.0

    def test_soft_exponential_half_weight(self):
        # At f = eps' + ln2 / lam the surviving weight is exactly 1/2.
        lam, eps_prime = 3.0, 0.5
        rule = SoftExponential("abs_diff", eps_prime, lam)
        f = eps_prime + math.log(2.0) / lam
        assert rule.kernel(f, 0.0) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_soft_exponential_needs_a_positive_rate(self, rate):
        with pytest.raises(ValueError, match="rate must be positive"):
            SoftExponential("abs_diff", 0.1, rate)

    def test_soft_continuity_at_tolerance(self):
        rule = SoftExponential("abs_diff", 0.5, 4.0)
        assert rule.kernel(0.5, 0.0) == 1.0
        assert rule.kernel(0.5 + 1e-12, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_set_membership(self):
        rule = SetMembership({"cat": ("cat", "feline")})
        assert rule.kernel("feline", "cat") == 1.0
        assert rule.kernel("dog", "cat") == 0.0
        # labels outside the map agree only with themselves
        assert rule.kernel("dog", "dog") == 1.0

    def test_set_membership_batch_over_object_labels(self):
        rule = SetMembership({"cat": ("cat", "feline"), "dog": ("dog", "wolf")})
        zh = np.array(["feline", "wolf", "cat", "dog", "bird", "bird", 3], dtype=object)
        z = np.array(["cat", "cat", "cat", "dog", "dog", "bird", 3], dtype=object)
        w = rule.kernel_many(zh, z)
        assert w.dtype == float
        assert w.tolist() == [1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]
        assert w.tolist() == [rule.kernel(a, b) for a, b in zip(zh, z)]

    @pytest.mark.parametrize("bad", [1.5, -0.1, math.nan])
    def test_kernel_rejects_weight_outside_unit_interval(self, bad):
        class Broken(AgreementRule):
            def kernel_many(self, zhat_batch, z_batch):
                return np.full(len(zhat_batch), bad)

        with pytest.raises(AssertionError, match="escaped"):
            Broken().kernel(0.0, 0.0)

    def test_in_region(self):
        region = ConfidenceRegion("interval", 0.9, intervals=((-1.0, 1.0),))
        assert InRegion(region, "model").kernel(0.5, 99.0) == 1.0
        assert InRegion(region, "data").kernel(99.0, 0.5) == 1.0
        assert InRegion(region, "model").kernel(2.0, 0.0) == 0.0

    def test_threshold_monotone_in_eps(self):
        rng = np.random.default_rng(0)
        pairs = rng.normal(size=(200, 2))
        eps_grid = np.linspace(0, 3, 20)
        prev = np.zeros(len(pairs))
        for eps in eps_grid:
            rule = Threshold("abs_diff", eps)
            w = np.array([rule.kernel(a, b) for a, b in pairs])
            assert np.all(w >= prev)
            prev = w


class TestGammaEpsilon:
    def test_identical_paths(self):
        y = np.linspace(0, 1, 50)
        for gamma, eps in ((0.75, 0.0), (1.0, 0.0), (0.9, 0.3)):
            assert GammaEpsilon(gamma, eps, 5.0).kernel(y, y) == 1.0

    def test_one_outlier_within_multiple(self):
        # 49/50 within eps and the worst point at 2 eps: passes for
        # gamma = 0.90 with m = 5 since 0.98 >= 0.90 and 2 eps <= 5 eps.
        y = np.zeros(50)
        yhat = np.zeros(50)
        yhat[13] = 0.2
        assert GammaEpsilon(0.90, 0.1, 5.0).kernel(yhat, y) == 1.0

    def test_far_point_fails_any_gamma(self):
        y = np.zeros(50)
        yhat = np.zeros(50)
        yhat[0] = 0.51  # beyond 5 eps
        for gamma in (0.0, 0.5, 0.75, 1.0):
            assert GammaEpsilon(gamma, 0.1, 5.0).kernel(yhat, y) == 0.0

    def test_monotone_in_eps_and_gamma(self):
        rng = np.random.default_rng(1)
        yhat = rng.normal(size=50)
        y = rng.normal(size=50)
        eps_grid = np.linspace(0, 2, 25)
        vals = [GammaEpsilon(0.9, e, 5.0).kernel(yhat, y) for e in eps_grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        gamma_grid = np.linspace(0, 1, 25)
        vals = [GammaEpsilon(g, 0.8, 5.0).kernel(yhat, y) for g in gamma_grid]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_per_point_tolerances(self):
        y = np.zeros(4)
        yhat = np.array([0.05, 0.4, 0.0, 0.0])
        eps = np.array([0.1, 0.5, 0.1, 0.1])
        assert GammaEpsilon(1.0, eps, 1.0).kernel(yhat, y) == 1.0
        assert GammaEpsilon(1.0, eps / 10, 1.0).kernel(yhat, y) == 0.0


class TestEpsilonBeta:
    def test_zero_width_band_rejects_noisy_data(self):
        y_model = np.zeros(50)
        band = (y_model, y_model)
        rule = EpsilonBeta(10.0, band)
        noisy = np.random.default_rng(2).normal(0, 0.3, 50)
        assert rule.kernel(y_model, noisy) == 0.0

    def test_over_coverage_rejected(self):
        y = np.zeros(50)
        everywhere = (np.full(50, -99.0), np.full(50, 99.0))
        rule = EpsilonBeta(10.0, everywhere, coverage_lo=0.91, coverage_hi=0.99)
        assert rule.kernel(y, y) == 0.0  # coverage 1.0 > 0.99

    def test_target_coverage_accepts(self):
        y = np.zeros(100)
        lo = np.full(100, -1.0)
        hi = np.full(100, 1.0)
        data = np.zeros(100)
        data[:5] = 2.0  # 95% inside the band
        rule = EpsilonBeta(1.0, (lo, hi))
        assert rule.kernel(y, data) == 1.0

    def test_mean_error_branch(self):
        y = np.zeros(100)
        lo, hi = np.full(100, -1.0), np.full(100, 1.0)
        data = np.zeros(100)
        data[:5] = 2.0
        tight = EpsilonBeta(0.05, (lo, hi))
        assert tight.kernel(y, data) == 0.0  # mean error 0.1 > 0.05

    def test_band_of_regions_equals_band_of_arrays(self):
        lo, hi = np.linspace(-1.0, 0.0, 6), np.linspace(0.5, 2.0, 6)
        regions = [ConfidenceRegion("interval", 0.95, ((a, b),)) for a, b in zip(lo, hi)]
        of_regions, of_arrays = EpsilonBeta(0.4, regions), EpsilonBeta(0.4, (lo, hi))
        assert [e.tobytes() for e in of_regions.band] == [e.tobytes() for e in of_arrays.band]
        yhat = np.random.default_rng(5).normal(0.3, 0.5, (40, 6))
        y = np.full((1, 6), 0.25)
        assert of_regions.kernel_many(yhat, y).tobytes() == of_arrays.kernel_many(yhat, y).tobytes()
        with pytest.raises(ValueError, match="lengths must match"):
            EpsilonBeta(0.4, regions[:5]).kernel_many(yhat, y)

    def test_kernel_leaves_its_inputs_unchanged(self):
        yhat, y = np.linspace(-2.0, 2.0, 12).reshape(3, 4), np.full(4, 0.5)
        before = yhat.copy(), y.copy()
        EpsilonBeta(1.0, (np.full(4, -1.0), np.full(4, 1.0))).kernel_many(yhat, y)
        assert yhat.tobytes() == before[0].tobytes() and y.tobytes() == before[1].tobytes()

    # Each edge of the compound rule is closed: a path exactly on it passes.
    def test_mean_error_equal_to_its_tolerance_passes(self):
        rule = EpsilonBeta(0.5, (np.full(4, -1.0), np.full(4, 1.0)), coverage_lo=0.5, coverage_hi=1.0)
        assert rule.kernel(np.zeros(4), np.full(4, 0.5)) == 1.0

    @pytest.mark.parametrize("edge", [0, 1])
    def test_data_on_a_band_edge_is_covered(self, edge):
        band = (np.full(4, -1.0), np.full(4, 1.0))
        rule = EpsilonBeta(2.0, band, coverage_lo=1.0, coverage_hi=1.0)
        assert rule.kernel(np.zeros(4), band[edge]) == 1.0

    def test_coverage_equal_to_its_lower_bound_passes(self):
        rule = EpsilonBeta(2.0, (np.full(4, -1.0), np.full(4, 1.0)), coverage_lo=0.5, coverage_hi=0.9)
        assert rule.kernel(np.zeros(4), np.array([0.0, 0.0, 1.5, 1.5])) == 1.0


class TestComposition:
    def test_and_or_basics(self):
        t, f = AlwaysTrue(), AlwaysFalse()
        assert And([t, t]).kernel(0, 0) == 1.0
        assert And([t, f]).kernel(0, 0) == 0.0
        assert Or([f, t]).kernel(0, 0) == 1.0
        assert Or([f, f]).kernel(0, 0) == 0.0

    def test_contradiction_is_zero_everywhere(self):
        b = Threshold("abs_diff", 0.7)
        rule = And([b, Not(b)])
        rng = np.random.default_rng(3)
        for a, c in rng.normal(size=(100, 2)):
            assert rule.kernel(a, c) == 0.0

    def test_de_morgan_pointwise(self):
        a = Threshold("abs_diff", 0.5)
        b = Interval("identity", -0.2, 1.0)
        lhs = Not(And([a, b]))
        rhs = Or([Not(a), Not(b)])
        rng = np.random.default_rng(4)
        for zh, z in rng.normal(size=(1000, 2)):
            assert lhs.kernel(zh, z) == rhs.kernel(zh, z)

    def test_compose_factory(self):
        t = AlwaysTrue()
        assert isinstance(compose("and", [t]), And)
        assert isinstance(compose("or", [t]), Or)
        assert isinstance(compose("not", [t]), Not)
        with pytest.raises(ValueError):
            compose("and", [])
        with pytest.raises(ValueError):
            compose("not", [t, t])
        with pytest.raises(ValueError):
            compose("xor", [t])

    def test_soft_or_is_the_complement_of_the_product_of_misses(self):
        class Half(AgreementRule):
            is_soft = True

            def kernel_many(self, zhat_batch, z_batch):
                return np.full(len(zhat_batch), 0.5)

        assert Or([Half(), Half()]).kernel(0.0, 0.0) == 0.75

    def test_soft_forbidden_under_not(self):
        soft = SoftExponential("abs_diff", 0.1, 1.0)
        with pytest.raises(ValueError):
            Not(soft)
        with pytest.raises(ValueError):
            Not(And([AlwaysTrue(), soft]))

    def test_kernel_bounded_on_random_rules(self):
        rng = np.random.default_rng(5)
        rules = [
            Threshold("abs_diff", 0.5),
            SoftExponential("sq_diff", 0.2, 2.0),
            Or([Threshold("abs_diff", 0.1), SoftExponential("abs_diff", 0.3, 1.0)]),
            And([AlwaysTrue(), Interval("identity", -1, 1)]),
        ]
        for rule in rules:
            for zh, z in rng.normal(size=(200, 2)):
                w = rule.kernel(zh, z)
                assert 0.0 <= w <= 1.0

    def test_batch_matches_scalar_evaluation(self):
        rng = np.random.default_rng(6)
        zh = rng.normal(size=300)
        z = rng.normal(size=300)
        rules = [
            Threshold("abs_diff", 0.5),
            SoftExponential("abs_diff", 0.2, 2.0),
            And([Threshold("abs_diff", 1.0), Interval("identity", -0.5, 0.5)]),
            Not(Threshold("abs_diff", 0.4)),
        ]
        for rule in rules:
            batch = rule.kernel_many(zh, z)
            single = [rule.kernel(a, b) for a, b in zip(zh, z)]
            assert np.allclose(batch, single, atol=0)


NAN, INF = float("nan"), float("inf")
BAND = (np.zeros(3), np.ones(3))
# Each tolerance a rule takes, as (name, build); a NaN there compares false
# with every comparison value.
TOLERANCES = [
    ("eps", lambda x: Threshold("abs_diff", x)),
    ("lo", lambda x: Interval("identity", x, INF)),
    ("hi", lambda x: Interval("identity", -INF, x)),
    ("eps_prime", lambda x: SoftExponential("abs_diff", x, 2.0)),
    ("eps", lambda x: GammaEpsilon(0.9, x)),
    ("eps", lambda x: GammaEpsilon(0.9, np.array([0.1, x, 0.2]))),
    ("mean_tol", lambda x: EpsilonBeta(x, BAND)),
]
TOLERANCE_IDS = ["threshold", "interval-lo", "interval-hi", "soft", "gamma-eps", "gamma-eps-vector", "epsilon-beta"]


@pytest.mark.parametrize("name, build", TOLERANCES, ids=TOLERANCE_IDS)
def test_nan_tolerance_is_rejected(name, build):
    with pytest.raises(ValueError, match=f"{name} is NaN"):
        build(NAN)


@pytest.mark.parametrize("name, build", TOLERANCES, ids=TOLERANCE_IDS)
def test_infinite_tolerance_is_a_real_bound(name, build):
    # +inf accepts every finite comparison value, so each rule still builds.
    rule = build(INF)
    assert isinstance(rule, AgreementRule)


class TestValueBreakpoints:
    def test_breakpoints_of_a_value_rule_tree(self):
        rule = And([Threshold("abs_value", 0.5), Not(Interval("identity", 0.0, 2.0)), AlwaysTrue()])
        assert _value_breakpoints(rule) == {-0.5, 0.5, 0.0, 2.0}

    def test_unknown_rule_gives_none_and_later_children_are_still_checked(self):
        class Unknown(AgreementRule):
            def kernel_many(self, zhat_batch, z_batch):
                return np.ones(len(zhat_batch))

        assert _value_breakpoints(Or([Unknown(), Threshold("identity", 1.0)])) is None
        with pytest.raises(ValueError, match="compares through 'abs_diff'"):
            _value_breakpoints(Or([Unknown(), Threshold("abs_diff", 1.0)]))
