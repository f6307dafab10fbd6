"""Special-case metrics against closed forms and independent oracles."""

import math
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate, special, stats

from bvm import (
    AgreementRule,
    AlwaysFalse,
    AlwaysTrue,
    And,
    BinnedPdf,
    Categorical,
    ConfidenceRegion,
    DiracDelta,
    Empirical,
    EpsilonBeta,
    GammaEpsilon,
    IndependentProduct,
    InputGrid,
    InRegion,
    Interval,
    ModelFunction,
    Normal,
    Not,
    Or,
    Scenario,
    SetMembership,
    ShiftedExponential,
    SoftExponential,
    StudentT,
    Threshold,
    Uniform,
    bvm_from_density,
    bvm_ratio,
    estimate_bvm_mc,
    polynomial_model,
    push_forward,
)
from bvm import metrics
from bvm.comparison import area_metric, divergence
from bvm.engine import EstimationError
from bvm.metrics import (
    ClassicalTestResult,
    DataSummary,
    EvidenceResult,
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
from bvm.distributions import Distribution
from bvm.rng import CHUNK_SIZE, MODEL_STREAM


class TestReliability:
    def test_huge_tolerance(self):
        assert reliability(Normal(0, 1), Normal(5, 2), eps=1e9).p_hat == pytest.approx(1.0)

    def test_standard_normal_central_mass(self):
        est = reliability(Normal(0, 1), DiracDelta(0.0), eps=1.959963984540054)
        assert est.method == "closedForm"
        assert est.p_hat == pytest.approx(0.95, abs=1e-9)

    def test_closed_form_matches_mc(self):
        rng = np.random.default_rng(0)
        for i in range(10):
            m = Normal(rng.normal(), abs(rng.normal()) + 0.2)
            d = Normal(rng.normal(), abs(rng.normal()) + 0.2)
            eps = abs(rng.normal()) + 0.1
            closed = reliability(m, d, eps)
            sc = Scenario(m, d, Threshold("abs_diff", eps))
            mc = estimate_bvm_mc(sc, 50_000, i)
            assert abs(closed.p_hat - mc.p_hat) <= 3 * max(mc.std_error, 1e-4)

    def test_student_data_closed_form(self):
        est = reliability(DiracDelta(0.3), StudentT(0.0, 10.0, 0.5), eps=0.4)
        oracle = stats.t.cdf(0.7 / 0.5, 10) - stats.t.cdf(-0.1 / 0.5, 10)
        assert est.p_hat == pytest.approx(oracle, rel=1e-12)


    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_certain_inputs_agree_up_to_a_closed_tolerance(self, step):
        # Zero spread on both sides: the estimate is the indicator
        # |mu| <= eps, exactly as a Monte Carlo run of the same rule reads it.
        model, data = DiracDelta(0.3), DiracDelta(0.1)
        eps = abs(0.3 - 0.1)
        eps = {-1: np.nextafter(eps, 0.0), 0: eps, 1: np.nextafter(eps, 1.0)}[step]
        est = reliability(model, data, eps)
        assert est.method == "closedForm"
        assert est.p_hat == (0.0 if step < 0 else 1.0)
        assert est.p_hat == estimate_bvm_mc(Scenario(model, data, Threshold("abs_diff", eps)), 1000, 0).p_hat


    @pytest.mark.parametrize(
        "model, data",
        [
            (Normal(0.0, 1.0), Normal(0.5, 2.0)),  # normal difference
            (DiracDelta(0.3), DiracDelta(0.1)),  # normal difference, no spread
            (DiracDelta(0.3), StudentT(0.0, 10.0, 0.5)),  # certain vs continuous
            (Uniform(0.0, 1.0), DiracDelta(0.2)),  # continuous vs certain
            (Uniform(0.0, 1.0), Uniform(0.5, 2.0)),  # Monte Carlo
        ],
    )
    @pytest.mark.parametrize("eps, message", [(-0.1, "eps must be nonnegative"), (math.nan, "eps is NaN")])
    def test_refuses_a_nan_or_negative_tolerance(self, model, data, eps, message):
        with pytest.raises(ValueError, match=message):
            reliability(model, data, eps, k=100)


class TestImprovedReliability:
    def test_identical_certain_paths(self):
        path = np.array([1.0, 2.0, 3.0])
        m = DiracDelta(path)
        assert improved_reliability(m, m, eps=0.0, k=100, seed=0).p_hat == 1.0

    def test_single_violated_point(self):
        path = np.zeros(4)
        bad = np.array([0.0, 0.0, 9.9, 0.0])
        est = improved_reliability(DiracDelta(bad), DiracDelta(path), eps=1.0, k=100, seed=0)
        assert est.p_hat == 0.0

    def test_conjunction_never_exceeds_single_point(self):
        grid = InputGrid.linspace(0, 1, 4)
        model = push_forward(IndependentProduct([Normal(0, 1)]), polynomial_model([0]), grid)
        data = DiracDelta(np.zeros(4))
        eps, k, seed = 0.8, 20_000, 3
        joint = improved_reliability(model, data, eps=eps, k=k, seed=seed).p_hat
        # Same seed, same model stream: per-point acceptance uses the
        # identical path samples, so the conjunction cannot exceed it.
        paths = model.sample(seed, k, stream=0)
        singles = [(np.abs(paths[:, i]) <= eps).mean() for i in range(4)]
        assert joint <= min(singles) + 1e-12

    def test_per_point_tolerances(self):
        path = np.zeros(3)
        model = DiracDelta(np.array([0.2, 0.0, 0.0]))
        eps = np.array([0.1, 0.1, 0.1])
        assert improved_reliability(model, DiracDelta(path), eps=eps, k=50, seed=0).p_hat == 0.0
        eps2 = np.array([0.3, 0.1, 0.1])
        assert improved_reliability(model, DiracDelta(path), eps=eps2, k=50, seed=0).p_hat == 1.0


class TestFrequentist:
    def test_panel_quantiles_equal_np_unique(self):
        # The panel is built without np.unique (which imports numpy.ma) but
        # must hold the same values: sorted, each once.
        want = np.unique(np.concatenate([metrics._TAIL_Q, np.linspace(0.01, 0.99, 99), 1.0 - metrics._TAIL_Q]))
        assert metrics._PANEL_Q.size == 143
        assert metrics._PANEL_Q.tobytes() == want.tobytes()

    def test_always_true(self):
        est = frequentist(0.0, DataSummary(0.0, 1.0, 10), AlwaysTrue())
        assert est.p_hat == pytest.approx(1.0, abs=1e-8)

    def test_symmetric_threshold_closed_form(self):
        # Oracle: centred symmetric tolerance reduces to 2 F_t(eps sqrt(n)/s) - 1.
        data = DataSummary(sample_mean=0.4, sample_std=1.7, n=12)
        eps = 0.6
        est = frequentist(0.4, data, Threshold("abs_value", eps))
        oracle = 2 * stats.t.cdf(eps * math.sqrt(12) / 1.7, 11) - 1
        assert est.p_hat == pytest.approx(oracle, abs=1e-8)

    def test_equals_reliability_under_threshold(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            model_mean = rng.normal()
            ybar = rng.normal()
            s = abs(rng.normal()) + 0.3
            n = int(rng.integers(3, 30))
            eps = abs(rng.normal()) + 0.05
            fr = frequentist(model_mean, DataSummary(ybar, s, n), Threshold("abs_value", eps))
            rel = reliability(DiracDelta(model_mean), StudentT(ybar, n - 1, s / math.sqrt(n)), eps)
            assert fr.p_hat == pytest.approx(rel.p_hat, abs=1e-6)

    def test_signed_interval_rule(self):
        # One-sided acceptance: E in [0, inf) takes exactly the mass below
        # the model mean.
        data = DataSummary(0.0, 1.0, 5)
        est = frequentist(0.0, data, Interval("identity", 0.0, 1e9))
        assert est.p_hat == pytest.approx(0.5, abs=1e-7)

    # Model mean and data from a fixture whose acceptance window lies in
    # the outer quantile panel; both rules have two breakpoints, and every
    # one of them must be pinned or the window falls between probe points.
    @pytest.mark.parametrize(
        "rule, e_lo, e_hi",
        [
            (Threshold("abs_value", 0.08), -0.08, 0.08),
            (And([Threshold("abs_value", 0.1), Interval("identity", 0.0, 0.05)]), 0.0, 0.05),
        ],
    )
    def test_every_breakpoint_pinned(self, rule, e_lo, e_hi):
        model_mean, data = 0.3947, DataSummary(-0.0932, 0.652, 19)
        t = stats.t(data.dof, loc=data.sample_mean, scale=data.sample_std / math.sqrt(data.n))
        # E = model_mean - mu lies in [e_lo, e_hi] iff mu lies in [model_mean - e_hi, model_mean - e_lo].
        mass = t.cdf(model_mean - e_lo) - t.cdf(model_mean - e_hi)
        assert mass > 1e-3
        assert frequentist(model_mean, data, rule).p_hat == pytest.approx(mass, abs=1e-6)

    # Hard rules are summed exactly over the gaps between their breakpoints.
    # Each case lists its acceptance set as closed windows on the E axis.
    @pytest.mark.parametrize(
        "rule, windows",
        [
            (Threshold("abs_value", 0.08), [(-0.08, 0.08)]),
            (And([Threshold("abs_value", 0.1), Interval("identity", 0.0, 0.05)]), [(0.0, 0.05)]),
            (Or([Interval("identity", -0.6, -0.4), Interval("identity", 0.3, 0.45)]), [(-0.6, -0.4), (0.3, 0.45)]),
            (Not(Threshold("abs_value", 0.5)), [(-math.inf, -0.5), (0.5, math.inf)]),
            (InRegion(ConfidenceRegion("set", 0.9, intervals=((-0.2, 0.1), (0.4, 0.7)))), [(-0.2, 0.1), (0.4, 0.7)]),
            (Threshold("identity", 0.3), [(-math.inf, 0.3)]),
            (AlwaysTrue(), [(-math.inf, math.inf)]),
        ],
    )
    def test_hard_rule_is_student_t_cdf_sum(self, rule, windows):
        model_mean, data = 0.3947, DataSummary(-0.0932, 0.652, 19)
        t = stats.t(data.dof, loc=data.sample_mean, scale=data.sample_std / math.sqrt(data.n))
        mass = sum(t.cdf(model_mean - lo) - t.cdf(model_mean - hi) for lo, hi in windows)
        assert frequentist(model_mean, data, rule).p_hat == pytest.approx(mass, abs=1e-12)

    def test_always_false_is_exactly_zero(self):
        assert frequentist(0.2, DataSummary(0.0, 1.0, 10), AlwaysFalse()).p_hat == 0.0

    @staticmethod
    def _soft_mass_by_quad(model_mean, t, weight_of_error, kinks):
        # Integrate w(model_mean - mu) t.pdf(mu) piecewise between the kinks.
        cuts = sorted(model_mean - k for k in kinks)
        edges = [-math.inf, *cuts, math.inf]
        def f(mu):
            return weight_of_error(model_mean - mu) * t.pdf(mu)

        return sum(
            integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )

    def test_heavy_tailed_soft_rule_matches_quad(self):
        # dof = 3 and a data mean three scales from the model mean: much of
        # the mass sits where the density decays like |mu|^-4, and 129
        # equal-probability panels were 3e-3 off here.
        model_mean, data = 0.0, DataSummary(1.5, 1.0, 4)
        eps, lam = 0.4, 0.7
        t = stats.t(data.dof, loc=data.sample_mean, scale=data.sample_std / math.sqrt(data.n))
        oracle = self._soft_mass_by_quad(
            model_mean, t, lambda e: math.exp(-lam * max(abs(e) - eps, 0.0)), [-eps, eps]
        )
        est = frequentist(model_mean, data, SoftExponential("abs_value", eps, lam))
        assert est.p_hat == pytest.approx(oracle, abs=1e-9)

    def test_rule_without_breakpoints_still_integrates(self):
        class Logistic(AgreementRule):
            # A smooth soft rule whose breakpoints frequentist cannot know.
            is_soft = True

            def kernel_many(self, zhat_batch, z_batch):
                return special.expit((0.3 - np.abs(np.asarray(zhat_batch, dtype=float))) / 0.05)

        model_mean, data = 0.1, DataSummary(-0.2, 0.9, 8)
        t = stats.t(data.dof, loc=data.sample_mean, scale=data.sample_std / math.sqrt(data.n))
        oracle = self._soft_mass_by_quad(model_mean, t, lambda e: special.expit((0.3 - abs(e)) / 0.05), [0.0])
        assert frequentist(model_mean, data, Logistic()).p_hat == pytest.approx(oracle, abs=1e-9)


class TestExactBits:
    """The exact routes of reliability and frequentist, pinned to the last
    ulp: every pair of seven scalar inputs at six tolerances (the pairs
    without a closed form run Monte Carlo at k = 4000), and seven rules at
    four model means. Each value is the ``p_hat.hex()`` of one call."""

    DISTS = {
        "normal": Normal(0.3, 1.2),
        "normal2": Normal(-2.0, 0.5),
        "point": DiracDelta(0.1),
        "point2": DiracDelta(-0.7),
        "t": StudentT(-0.2, 4.0, 0.7),
        "uniform": Uniform(-1.0, 2.0),
        "shifted_exp": ShiftedExponential(1.5, -0.3),
    }
    EPS = (0.0, 0.05, 0.4, 1.0, 3.0, math.inf)
    # "model/data": the hex at each EPS.
    RELIABILITY = {
        "normal/normal": "0x0.0p+0 0x1.81190356b8b40p-6 0x1.7d9de0b6b7e38p-3 0x1.c6f941700ea44p-2 0x1.d8865d98abe02p-1 0x1.0000000000000p+0",
        "normal/normal2": "0x0.0p+0 0x1.a4b163e030070p-8 0x1.b26afe8d8f2dep-5 0x1.39864ea4ce897p-3 0x1.68e1d4d4159cap-1 0x1.0000000000000p+0",
        "normal/point": "0x0.0p+0 0x1.0c833c6fdf3c8p-5 0x1.07d46e18af6f2p-2 0x1.2d7e09638e32bp-1 0x1.f9036dfa8afabp-1 0x1.0000000000000p+0",
        "normal/point2": "0x0.0p+0 0x1.80dea0f3b6ca0p-6 0x1.7eb3185393992p-3 0x1.cf100bbfb21dcp-2 0x1.e74fc8ffa652dp-1 0x1.0000000000000p+0",
        "normal/t": "0x0.0p+0 0x1.d2f1a9fbe76c9p-6 0x1.a0c49ba5e353fp-3 0x1.f6c8b43958106p-2 0x1.e24dd2f1a9fbep-1 0x1.0000000000000p+0",
        "normal/uniform": "0x0.0p+0 0x1.ae147ae147ae1p-6 0x1.a2d0e56041893p-3 0x1.f47ae147ae148p-2 0x1.e978d4fdf3b64p-1 0x1.0000000000000p+0",
        "normal/shifted_exp": "0x0.0p+0 0x1.f3b645a1cac08p-6 0x1.fd70a3d70a3d7p-3 0x1.1b4395810624ep-1 0x1.f020c49ba5e35p-1 0x1.0000000000000p+0",
        "normal2/normal": "0x0.0p+0 0x1.a4b163e030000p-8 0x1.b26afe8d8f2e0p-5 0x1.39864ea4ce898p-3 0x1.68e1d4d4159cap-1 0x1.0000000000000p+0",
        "normal2/normal2": "0x0.0p+0 0x1.cdcc9b21919c0p-5 0x1.b6ac7c4b20a04p-2 0x1.af767a741088ap-1 0x1.fffd1ac4135fap-1 0x1.0000000000000p+0",
        "normal2/point": "0x0.0p+0 0x1.9699675f10000p-17 0x1.60fed049d0000p-12 0x1.c79691946d800p-7 0x1.ed9a8a8cf3459p-1 0x1.0000000000000p+0",
        "normal2/point2": "0x0.0p+0 0x1.677d74c94d000p-9 0x1.2394bfab20760p-5 0x1.18d5416a8e124p-2 0x1.ffd3d687a54cfp-1 0x1.0000000000000p+0",
        "normal2/t": "0x0.0p+0 0x1.cac083126e979p-8 0x1.c083126e978d5p-5 0x1.8395810624dd3p-3 0x1.c53f7ced91687p-1 0x1.0000000000000p+0",
        "normal2/uniform": "0x0.0p+0 0x1.0624dd2f1a9fcp-11 0x1.26e978d4fdf3bp-7 0x1.0d4fdf3b645a2p-4 0x1.4d0e560418937p-1 0x1.0000000000000p+0",
        "normal2/shifted_exp": "0x0.0p+0 0x0.0p+0 0x1.0624dd2f1a9fcp-11 0x1.3333333333333p-6 0x1.9b851eb851eb8p-1 0x1.0000000000000p+0",
        "point/normal": "0x0.0p+0 0x1.0c833c6fdf3c0p-5 0x1.07d46e18af6f2p-2 0x1.2d7e09638e32cp-1 0x1.f9036dfa8afabp-1 0x1.0000000000000p+0",
        "point/normal2": "0x0.0p+0 0x1.9699675f19f1fp-17 0x1.60fed049d04f9p-12 0x1.c79691946d816p-7 0x1.ed9a8a8cf3459p-1 0x1.0000000000000p+0",
        "point/point": "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "point/point2": "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "point/t": "0x0.0p+0 0x1.87fcfc7c68b70p-5 0x1.7730173df9779p-2 0x1.7d3f43c2ff2d6p-1 0x1.f8fc306967504p-1 0x1.0000000000000p+0",
        "point/uniform": "0x0.0p+0 0x1.1111111111108p-5 0x1.1111111111112p-2 0x1.5555555555556p-1 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "point/shifted_exp": "0x0.0p+0 0x1.51818e0abc608p-4 0x1.65c9df4c2f692p-1 0x1.c14d641aefdbap-1 0x1.fce0e321c7397p-1 0x1.0000000000000p+0",
        "point2/normal": "0x0.0p+0 0x1.80dea0f3b6ca0p-6 0x1.7eb3185393994p-3 0x1.cf100bbfb21dcp-2 0x1.e74fc8ffa652dp-1 0x1.0000000000000p+0",
        "point2/normal2": "0x0.0p+0 0x1.677d74c94cf57p-9 0x1.2394bfab2075fp-5 0x1.18d5416a8e124p-2 0x1.ffd3d687a54cfp-1 0x1.0000000000000p+0",
        "point2/point": "0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "point2/point2": "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "point2/t": "0x0.0p+0 0x1.4502a3fb83178p-5 0x1.40322cdae507dp-2 0x1.62ff78e627a23p-1 0x1.f81b1c6c2562fp-1 0x1.0000000000000p+0",
        "point2/uniform": "0x0.0p+0 0x1.1111111111116p-5 0x1.ddddddddddddfp-3 0x1.bbbbbbbbbbbbcp-2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "point2/shifted_exp": "0x0.0p+0 0x0.0p+0 0x1.0000000000000p-53 0x1.2fd619ffbc8f2p-1 0x1.f5a2da28a9da1p-1 0x1.0000000000000p+0",
        "t/normal": "0x0.0p+0 0x1.645a1cac08312p-6 0x1.947ae147ae148p-3 0x1.de76c8b439581p-2 0x1.ddf3b645a1cacp-1 0x1.0000000000000p+0",
        "t/normal2": "0x0.0p+0 0x1.0e5604189374cp-7 0x1.072b020c49ba6p-4 0x1.94fdf3b645a1dp-3 0x1.cae147ae147aep-1 0x1.0000000000000p+0",
        "t/point": "0x0.0p+0 0x1.87fcfc7c68b70p-5 0x1.7730173df9779p-2 0x1.7d3f43c2ff2d6p-1 0x1.f8fc306967504p-1 0x1.0000000000000p+0",
        "t/point2": "0x0.0p+0 0x1.4502a3fb83178p-5 0x1.40322cdae507dp-2 0x1.62ff78e627a23p-1 0x1.f81b1c6c2562fp-1 0x1.0000000000000p+0",
        "t/t": "0x0.0p+0 0x1.126e978d4fdf4p-5 0x1.0f1a9fbe76c8bp-2 0x1.2b22d0e560419p-1 0x1.ec6a7ef9db22dp-1 0x1.0000000000000p+0",
        "t/uniform": "0x0.0p+0 0x1.a9fbe76c8b439p-6 0x1.b0a3d70a3d70ap-3 0x1.fe76c8b439581p-2 0x1.eba5e353f7ceep-1 0x1.0000000000000p+0",
        "t/shifted_exp": "0x0.0p+0 0x1.70a3d70a3d70ap-5 0x1.26e978d4fdf3bp-2 0x1.370a3d70a3d71p-1 0x1.eb020c49ba5e3p-1 0x1.0000000000000p+0",
        "uniform/normal": "0x0.0p+0 0x1.ae147ae147ae1p-6 0x1.8ac083126e979p-3 0x1.e10624dd2f1aap-2 0x1.e916872b020c5p-1 0x1.0000000000000p+0",
        "uniform/normal2": "0x0.0p+0 0x1.89374bc6a7efap-11 0x1.4fdf3b645a1cbp-7 0x1.26e978d4fdf3bp-4 0x1.4c28f5c28f5c3p-1 0x1.0000000000000p+0",
        "uniform/point": "0x0.0p+0 0x1.1111111111108p-5 0x1.1111111111112p-2 0x1.5555555555556p-1 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "uniform/point2": "0x0.0p+0 0x1.1111111111116p-5 0x1.ddddddddddddfp-3 0x1.bbbbbbbbbbbbcp-2 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "uniform/t": "0x0.0p+0 0x1.e353f7ced9168p-6 0x1.bb645a1cac083p-3 0x1.004189374bc6ap-1 0x1.ea3d70a3d70a4p-1 0x1.0000000000000p+0",
        "uniform/uniform": "0x0.0p+0 0x1.126e978d4fdf4p-5 0x1.e6e978d4fdf3bp-3 0x1.1b851eb851eb8p-1 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "uniform/shifted_exp": "0x0.0p+0 0x1.e76c8b4395810p-6 0x1.f7ced916872b0p-3 0x1.3c8b439581062p-1 0x1.fbc6a7ef9db23p-1 0x1.0000000000000p+0",
        "shifted_exp/normal": "0x0.0p+0 0x1.126e978d4fdf4p-5 0x1.d47ae147ae148p-3 0x1.0ced916872b02p-1 0x1.edd2f1a9fbe77p-1 0x1.0000000000000p+0",
        "shifted_exp/normal2": "0x0.0p+0 0x1.0624dd2f1a9fcp-12 0x1.0624dd2f1a9fcp-11 0x1.6c8b439581062p-6 0x1.999999999999ap-1 0x1.0000000000000p+0",
        "shifted_exp/point": "0x0.0p+0 0x1.51818e0abc608p-4 0x1.65c9df4c2f692p-1 0x1.c14d641aefdbap-1 0x1.fce0e321c7397p-1 0x1.0000000000000p+0",
        "shifted_exp/point2": "0x0.0p+0 0x0.0p+0 0x1.0000000000000p-53 0x1.2fd619ffbc8f2p-1 0x1.f5a2da28a9da1p-1 0x1.0000000000000p+0",
        "shifted_exp/t": "0x0.0p+0 0x1.374bc6a7ef9dbp-5 0x1.2ac083126e979p-2 0x1.3b4395810624ep-1 0x1.ec083126e978dp-1 0x1.0000000000000p+0",
        "shifted_exp/uniform": "0x0.0p+0 0x1.df3b645a1cac1p-6 0x1.0b020c49ba5e3p-2 0x1.3d916872b020cp-1 0x1.fdd2f1a9fbe77p-1 0x1.0000000000000p+0",
        "shifted_exp/shifted_exp": "0x0.0p+0 0x1.fbe76c8b43958p-5 0x1.bae147ae147aep-2 0x1.84fdf3b645a1dp-1 0x1.f978d4fdf3b64p-1 0x1.0000000000000p+0",
    }
    RULES = {
        "abs_value": Threshold("abs_value", 0.3),
        "identity": Threshold("identity", 0.2),
        "interval": Interval("identity", -0.4, 0.1),
        "not": Not(Threshold("abs_value", 0.5)),
        "or": Or([Interval("identity", -0.6, -0.4), Interval("identity", 0.3, 0.45)]),
        "and-region": And(
            [InRegion(ConfidenceRegion("set", 0.9, intervals=((-0.2, 0.1), (0.4, 0.7)))), Threshold("abs_value", 0.6)]
        ),
        "soft": SoftExponential("abs_value", 0.2, 3.0),
    }
    MEANS = (-1.0, 0.0, 0.35, 2.5)
    # rule: the hex at each model mean, against DataSummary(0.2, 0.9, 12).
    FREQUENTIST = {
        "abs_value": "0x1.52de430f25f08p-9 0x1.36398a50e8ce7p-1 0x1.5041649f6ab16p-1 0x1.22c95e1800000p-18",
        "identity": "0x1.fff18d7cf1bfdp-1 0x1.d91c21ed39b36p-1 0x1.262ba40fa2418p-1 0x1.8d6214cc40000p-19",
        "interval": "0x1.4a7ff6c7078cfp-8 0x1.450a34ebaedd0p-1 0x1.9606e4aea03f4p-2 0x1.b93ba2d080000p-20",
        "not": "0x1.faab1e99253b3p-1 0x1.2c985481a5225p-3 0x1.e02071fde7e76p-4 0x1.fffe6388b78d9p-1",
        "or": "0x1.faaf980dbbcf0p-7 0x1.6d682272cc1dep-3 0x1.62075ea02022ap-3 0x1.5877e5a920000p-18",
        "and-region": "0x1.340d94b033e32p-10 0x1.842f6d4f93f4bp-2 0x1.c857f4da959b2p-2 0x1.eafc97bbc0000p-17",
        "soft": "0x1.294e699a79454p-4 0x1.875103525cae0p-1 0x1.978e662abb0f7p-1 0x1.6518491f1835bp-9",
    }

    @pytest.mark.parametrize("pair", RELIABILITY)
    def test_reliability(self, pair):
        model, data = (self.DISTS[name] for name in pair.split("/"))
        bits = [reliability(model, data, eps, k=4_000, seed=9).p_hat.hex() for eps in self.EPS]
        assert " ".join(bits) == self.RELIABILITY[pair]

    @pytest.mark.parametrize("rule", FREQUENTIST)
    def test_frequentist(self, rule):
        bits = [frequentist(m, DataSummary(0.2, 0.9, 12), self.RULES[rule]).p_hat.hex() for m in self.MEANS]
        assert " ".join(bits) == self.FREQUENTIST[rule]

    def test_end_gaps_are_probed_inside_at_any_magnitude(self):
        # At 1e16 a step of 1.0 rounds back onto the cut, so a probe there
        # reads the rule at the cut itself; the true masses are 1/2 and 0.
        assert frequentist(1e16, DataSummary(1e16, 1e3, 10), Threshold("identity", 0.0)).p_hat == 0.5
        assert reliability(DiracDelta(1e16), StudentT(1e16, 9, 1e3), 0.5).p_hat == 0.0

    def test_an_infinite_location_keeps_the_cdf_limits(self):
        # The means differ by more than the float range: X ~ N(inf, sqrt 2).
        far = Normal(1e308, 1.0), Normal(-1e308, 1.0)
        assert reliability(*far, 0.5).p_hat == 0.0
        assert reliability(*far, math.inf).p_hat == 1.0
        assert frequentist(0.0, DataSummary(math.inf, 1.0, 10), AlwaysTrue()).p_hat == 1.0

    @pytest.mark.parametrize(
        "model, data",
        [
            (Normal(math.inf, 1.0), Normal(math.inf, 1.0)),
            (DiracDelta(-math.inf), Normal(-math.inf, 2.0)),
            (DiracDelta(math.inf), DiracDelta(math.inf)),
        ],
    )
    def test_an_undefined_mean_difference_names_both_means(self, model, data):
        with pytest.raises(ValueError, match=r"the model mean -?inf and the data mean -?inf have no defined difference"):
            reliability(model, data, 0.5)


class Smooth(AgreementRule):
    """A soft value rule whose breakpoints the metrics cannot know."""

    is_soft = True

    def kernel_many(self, zhat_batch, z_batch):
        return special.expit((0.3 - np.abs(np.asarray(zhat_batch, dtype=float))) / 0.05)


class TestSingleValueRules:
    """The metrics that score one value v as ``kernel(v, v)``, and
    :func:`bvm_from_density`, refuse a rule that compares the two sides or
    reads paths or labels: it would compare v with itself."""

    PDF = BinnedPdf([0.0, 0.5, 1.0], [1.0, 0.0])
    METRICS = {
        "frequentist": lambda rule: frequentist(0.0, DataSummary(0.0, 1.0, 10), rule),
        "area": lambda rule: area_metric_validation([0.0, 1.0, 2.0], [10.0, 11.0], rule),
        "area-bootstrap": lambda rule: area_metric_validation([0.0, 1.0], [10.0, 11.0], rule, bootstrap=10),
        "binned_pdf": lambda rule: binned_pdf_metric(TestSingleValueRules.PDF, [0, 5], rule, r=10),
        "divergence": lambda rule: divergence_validation(TestSingleValueRules.PDF, TestSingleValueRules.PDF, "js", rule),
        "density": lambda rule: bvm_from_density(TestSingleValueRules.PDF, rule),
    }

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize(
        "rule, named",
        [
            (Threshold("abs_diff", 0.5), "Threshold compares through 'abs_diff'"),
            (Interval("sq_diff", 0.0, 1.0), "Interval compares through 'sq_diff'"),
            (SoftExponential("abs_diff", 0.1, 2.0), "SoftExponential compares through 'abs_diff'"),
            (And([Threshold("identity", 1.0), Not(Threshold("abs_diff", 0.5))]), "Threshold compares"),
            (Or([Smooth(), Threshold("abs_diff", 0.5)]), "Threshold compares"),
            (Or([AlwaysFalse(), GammaEpsilon(0.9, 0.1)]), "GammaEpsilon"),
            (EpsilonBeta(0.5, ([0.0], [1.0])), "EpsilonBeta"),
            (SetMembership({"a": ("b",)}), "SetMembership"),
        ],
    )
    def test_two_sided_path_and_label_rules_raise(self, metric, rule, named):
        with pytest.raises(ValueError, match=named):
            self.METRICS[metric](rule)

    @pytest.mark.parametrize("metric", METRICS)
    def test_value_rules_pass(self, metric):
        rule = And([Threshold("abs_value", 1e9), Not(Interval("identity", 1e9, 2e9)), AlwaysTrue()])
        result = self.METRICS[metric](rule)
        assert getattr(result, "p_hat", result) == pytest.approx(1.0, abs=1e-9)


class TestAreaValidation:
    def test_identical_samples_zero_threshold(self):
        x = np.random.default_rng(2).normal(size=40)
        est = area_metric_validation(x, x, Threshold("identity", 0.0))
        assert est.p_hat == 1.0

    def test_point_masses_apart(self):
        est = area_metric_validation([0.0], [1.0], Threshold("identity", 0.5))
        assert est.p_hat == 0.0

    def test_bootstrap_mode_on_identical_samples(self):
        x = np.random.default_rng(3).normal(size=400)
        est = area_metric_validation(x, x, Threshold("identity", 0.25), bootstrap=400, seed=0)
        assert est.method == "mc"
        assert est.p_hat > 0.95

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            area_metric_validation([], [1.0], AlwaysTrue())


class TestBinnedPdfMetric:
    def test_concentrated_counts_match_model(self):
        edges = np.linspace(0, 1, 5)
        model = BinnedPdf(edges, [0.25, 0.25, 0.25, 0.25])
        counts = np.array([2500, 2500, 2500, 2500]) * 100
        est = binned_pdf_metric(model, counts, Threshold("identity", 0.05), r=2000, seed=0)
        assert est.p_hat > 0.99

    def test_always_false(self):
        edges = np.linspace(0, 1, 3)
        model = BinnedPdf(edges, [0.5, 0.5])
        est = binned_pdf_metric(model, [10, 10], AlwaysFalse(), r=500, seed=0)
        assert est.p_hat == 0.0

    def test_binary_bins_supported(self):
        edges = np.array([0.0, 0.5, 1.0])
        model = BinnedPdf(edges, [0.7, 0.3])
        est = binned_pdf_metric(model, [70, 30], Threshold("identity", 0.25), r=2000, seed=1)
        assert 0.5 < est.p_hat <= 1.0

    def test_bin_mismatch(self):
        model = BinnedPdf([0, 1, 2], [0.5, 0.5])
        with pytest.raises(ValueError):
            binned_pdf_metric(model, [1, 2, 3], AlwaysTrue(), r=10, seed=0)


class TestDivergenceValidation:
    def test_equal_pdfs_zero_threshold(self):
        p = BinnedPdf([0, 1, 2], [0.5, 0.5])
        for kind in ("kl", "sym_kl", "js", "hellinger"):
            assert divergence_validation(p, p, kind, Threshold("identity", 0.0)).p_hat == 1.0

    def test_disjoint_support_fails_any_finite_threshold(self):
        p = BinnedPdf([0, 1, 2], [1.0, 0.0])
        q = BinnedPdf([0, 1, 2], [0.0, 1.0])
        assert divergence_validation(p, q, "kl", Threshold("identity", 1e12)).p_hat == 0.0

    def test_threshold_monotone(self):
        p = BinnedPdf([0, 1, 2], [0.6, 0.4])
        q = BinnedPdf([0, 1, 2], [0.4, 0.6])
        vals = [
            divergence_validation(p, q, "js", Threshold("identity", eps)).p_hat
            for eps in (0.0, 0.01, 0.05, 1.0)
        ]
        assert vals == sorted(vals)

    def test_uncertain_mode(self):
        edges = np.array([0.0, 0.5, 1.0])
        p = BinnedPdf(edges, [0.5, 0.5])

        def sampler(rng):
            w = rng.beta(50, 50)
            return p, BinnedPdf(edges, [w, 1 - w])

        est = divergence_validation(p, p, "js", Threshold("identity", 0.01), sampler=sampler, r=500, seed=0)
        assert 0.0 < est.p_hat <= 1.0
        assert est.n_samples == 500

    @pytest.mark.parametrize("r", [1000, 4096 + 17])
    def test_sampler_called_once_per_draw(self, r):
        edges = np.array([0.0, 0.5, 1.0])
        p = BinnedPdf(edges, [0.5, 0.5])
        calls = []

        def sampler(rng):
            calls.append(1)
            w = rng.beta(50, 50)
            return p, BinnedPdf(edges, [w, 1 - w])

        divergence_validation(p, p, "js", Threshold("identity", 0.01), sampler=sampler, r=r, seed=0)
        assert len(calls) == r


    def test_one_divergence_call_per_chunk(self, monkeypatch):
        import bvm.metrics

        edges = np.array([0.0, 0.5, 1.0])
        p = BinnedPdf(edges, [0.5, 0.5])
        shapes = []

        def counted(kind, a, b):
            shapes.append(np.shape(a))
            return divergence(kind, a, b)

        def sampler(rng):
            w = rng.beta(50, 50)
            return p, BinnedPdf(edges, [w, 1 - w])

        monkeypatch.setattr(bvm.metrics, "divergence", counted)
        divergence_validation(p, p, "js", Threshold("identity", 0.01), sampler=sampler, r=4096 + 17, seed=0)
        assert shapes == [(4096, 2), (17, 2)]

    def test_sampled_pdfs_must_share_edges(self):
        p = BinnedPdf([0.0, 0.5, 1.0], [0.5, 0.5])
        q = BinnedPdf([0.0, 0.4, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            divergence_validation(p, p, "js", AlwaysTrue(), sampler=lambda rng: (p, q), r=10, seed=0)


class TestSoftResampledEstimates:
    """A soft rule's standard error is the std of its weights over sqrt(n),
    never the binomial one of a 0/1 indicator."""

    RULE = SoftExponential("identity", 0.1, 20.0)

    def test_area_with_constant_resamples_has_zero_std_error(self):
        # Every bootstrap resample of a constant data sample is the same,
        # so every resample has the same area and the same weight in (0, 1).
        xm, xd = [0.0, 0.2], [0.3] * 7
        est = area_metric_validation(xm, xd, self.RULE, bootstrap=5000, seed=3)
        w = self.RULE.kernel(area_metric(xm, xd), area_metric(xm, xd))
        assert 0.0 < w < 1.0
        assert est.p_hat == pytest.approx(w, rel=1e-12)
        assert est.std_error < 1e-12
        assert est.method == "mc" and est.n_samples == 5000

    def test_area_std_error_below_binomial(self):
        rng = np.random.default_rng(4)
        xm, xd = rng.normal(size=30), rng.normal(0.2, 1.1, 30)
        est = area_metric_validation(xm, xd, self.RULE, bootstrap=5000, seed=3)
        assert 0.0 < est.std_error < 0.5 * math.sqrt(est.p_hat * (1 - est.p_hat) / 5000)
        assert est.ci_lo == pytest.approx(est.p_hat - 1.959963984540054 * est.std_error, rel=1e-9)

    def test_divergence_matches_the_weights_of_the_drawn_pdfs(self):
        edges = np.linspace(0.0, 1.0, 5)
        p = BinnedPdf(edges, [0.1, 0.4, 0.3, 0.2])
        drawn = []

        def sampler(rng):
            q = BinnedPdf(edges, rng.dirichlet([4.0, 11.0, 13.0, 7.0]))
            drawn.append(q)
            return p, q

        est = divergence_validation(p, p, "hellinger", self.RULE, sampler=sampler, r=3000, seed=5)
        w = np.array([self.RULE.kernel(g, g) for g in (divergence("hellinger", q, p) for q in drawn)])
        assert est.p_hat == pytest.approx(np.mean(w), rel=1e-12)
        assert est.std_error == pytest.approx(np.std(w) / math.sqrt(3000), rel=1e-9)


class TestClassicalHypothesis:
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.5])
    def test_returns_complement_of_alpha(self, alpha):
        res = classical_hypothesis(StudentT(0, 10, 1.75), alpha)
        assert res.estimate.p_hat == pytest.approx(1 - alpha, abs=1e-9)

    def test_independent_of_candidate_model(self):
        # The null assumption erases the model: only the data distribution
        # and alpha enter, so any two "models" score identically.
        res = classical_hypothesis(Normal(0, 2), 0.1)
        assert isinstance(res, ClassicalTestResult)
        again = classical_hypothesis(Normal(0, 2), 0.1)
        assert res.estimate.p_hat == again.estimate.p_hat
        assert res.interval.intervals == again.interval.intervals

    def test_reports_critical_interval(self):
        res = classical_hypothesis(Normal(0, 1), 0.05)
        assert res.interval.lo == pytest.approx(-1.95996, abs=1e-4)


class TestStatisticalPower:
    def test_identical_normal_inputs(self):
        res = statistical_power_bvm(Normal(0, 1), Normal(0, 1), 0.05, 0.05)
        assert res.estimate.p_hat == pytest.approx(0.9025, abs=1e-9)
        assert res.systematic_error == pytest.approx(0.05 + 0.05 - 0.0025)

    @pytest.mark.parametrize("dist", [Normal(1.3, 0.7), StudentT(-0.4, 7, 1.2)])
    def test_identical_inputs_power_is_level_squared(self, dist):
        for alpha in (0.02, 0.1):
            res = statistical_power_bvm(dist, dist, alpha, alpha)
            assert res.estimate.p_hat == pytest.approx((1 - alpha) ** 2, abs=1e-9)

    def test_far_point_model_scores_zero(self):
        res = statistical_power_bvm(DiracDelta(50.0), Normal(0, 1), 0.05, 0.05)
        assert res.estimate.p_hat == 0.0

    def test_zero_alpha_allowed(self):
        res = statistical_power_bvm(Normal(0, 1), Normal(0, 1), 0.0, 0.0)
        assert res.estimate.p_hat == pytest.approx(1.0, abs=1e-9)
        assert res.systematic_error == 0.0

    def test_hdr_set_mode_on_multimodal_data(self):
        bimodal = Empirical(
            np.concatenate([Normal(-5, 0.2).sample(0, 30_000), Normal(5, 0.2).sample(1, 30_000)])
        )
        unimodal_model = Normal(5, 0.2)
        interval_res = statistical_power_bvm(unimodal_model, bimodal, 0.05, 0.05, region_kind="interval")
        set_res = statistical_power_bvm(unimodal_model, bimodal, 0.05, 0.05, region_kind="set")
        # The HDR set hugs the two modes; the central interval wastes mass
        # on the empty middle, so the set mode resolves the model better.
        assert set_res.power_model_in_data >= interval_res.power_model_in_data - 1e-9

    def test_categorical_hdr_power(self):
        data = Categorical([0.0, 10.0, 5.0], [0.5, 0.45, 0.05])
        model = Categorical([0.0, 10.0], [0.5, 0.5])
        res = statistical_power_bvm(model, data, 0.05, 0.05, region_kind="set")
        assert res.power_model_in_data == pytest.approx(1.0)

    def test_point_value_on_the_lower_edge_of_the_model_interval(self):
        # The model's 0.7 interval is the closed [0, 2], so the data's atom
        # at 0 lies inside it; the data's region [0, 0] holds the model's
        # atom at 0, of mass 0.2.
        model = Categorical([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        res = statistical_power_bvm(model, DiracDelta(0.0), 0.05, 0.3)
        assert res.power_data_in_model == 1.0
        assert res.power_model_in_data == 0.2
        assert res.estimate.seed == 0

    @pytest.mark.parametrize(
        "region_kind, value, power_model, power_data",
        [("interval", 1.0, 0.3, 1.0), ("interval", 2.0, 0.5, 1.0),
         ("set", 0.0, 0.2, 0.0), ("set", 1.0, 0.3, 1.0), ("set", 2.0, 0.5, 1.0)],
    )
    def test_numeric_categorical_model_against_a_point_value(self, region_kind, value, power_model, power_data):
        # The model's 0.7 region is [0, 2] as an interval, and the labels
        # {2, 1} as a set. The data's region is the value itself.
        model = Categorical([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
        res = statistical_power_bvm(model, DiracDelta(value), 0.05, 0.3, region_kind=region_kind)
        if region_kind == "interval":
            assert res.model_region.intervals == ((0.0, 2.0),)
        else:
            assert res.model_region.labels == (2.0, 1.0)
        assert res.data_region.intervals == ((value, value),)
        assert (res.power_model_in_data, res.power_data_in_model) == (power_model, power_data)
        assert res.estimate.p_hat == power_model * power_data


def conjugate_closed_form(y, sigma, tau):
    return stats.norm.pdf(y, 0.0, math.hypot(sigma, tau))


def _evidence(log_evidence):
    return EvidenceResult(log_evidence, 0.01, 1000, 0, ess=1000.0, max_weight_share=0.001)


@dataclass(frozen=True)
class _ChunkShifted(Distribution):
    """N(0, 1) draws shifted by a constant per chunk: chunk c's draws plus
    ``shifts[c]``."""

    shifts: tuple

    def _draw(self, rng, m):
        return rng.normal(size=m)

    def draw_chunk(self, seed, stream, c, m):
        return super().draw_chunk(seed, stream, c, m) + self.shifts[c]


class TestEvidence:
    def test_certain_prior_is_exact_likelihood(self):
        grid = InputGrid(np.array([0.0, 1.0]))
        model = polynomial_model([0, 1])
        theta0 = np.array([0.3, -0.2])
        y = np.array([0.5, 0.0])
        sigma = 0.4
        lik = GaussianLikelihoodSpec(sigma, y, grid)
        res = bayesian_evidence(model, DiracDelta(theta0), lik, k=10, seed=0)
        resid = model.evaluate(theta0, grid) - y
        log_l = -math.log(2 * math.pi * sigma**2) - float(np.sum(resid**2)) / (2 * sigma**2)
        assert res.log_evidence == pytest.approx(log_l, abs=1e-12)
        assert res.std_error_log == pytest.approx(0.0, abs=1e-12)
        assert res.ess == 10.0
        assert res.max_weight_share == pytest.approx(0.1, rel=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_data_is_rejected(self, bad):
        # NaN data would be blamed on the model; infinite data would read
        # as zero evidence.
        with pytest.raises(ValueError, match="data_y must be finite"):
            GaussianLikelihoodSpec(0.5, np.array([bad, 1.0]), InputGrid(np.array([0.0, 1.0])))

    @pytest.mark.parametrize("sigma", [1e-200, 1e200, math.inf, math.nan, 0.0, -1.0])
    def test_sigma_without_a_positive_finite_square_is_rejected(self, sigma):
        # 1e-200 squares to 0 and 1e200 to inf, so log(2 pi sigma^2) fails.
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            GaussianLikelihoodSpec(sigma, np.array([0.7]), InputGrid(np.array([0.0])))

    def test_collapse_onto_few_draws_warns(self):
        # A wide prior and a sharp likelihood: only the few draws within a
        # few hundredths of the datum carry weight.
        grid = InputGrid(np.array([0.0]))
        lik = GaussianLikelihoodSpec(0.01, np.array([0.7]), grid)
        with pytest.warns(RuntimeWarning, match="effective sample size"):
            res = bayesian_evidence(polynomial_model([0]), Normal(0, 5.0), lik, k=2000, seed=1)
        assert res.ess < 20
        assert res.max_weight_share > 0.1

    def test_well_spread_weights_do_not_warn(self):
        grid = InputGrid(np.array([0.0]))
        lik = GaussianLikelihoodSpec(0.5, np.array([0.7]), grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = bayesian_evidence(polynomial_model([0]), Normal(0, 1.1), lik, k=20_000, seed=4)
        assert 0.3 * 20_000 < res.ess <= 20_000
        assert res.max_weight_share < 1e-3

    def test_conjugate_oracle(self):
        grid = InputGrid(np.array([0.0]))
        model = polynomial_model([0])
        y, sigma, tau = 0.7, 0.5, 1.1
        lik = GaussianLikelihoodSpec(sigma, np.array([y]), grid)
        res = bayesian_evidence(model, Normal(0, tau), lik, k=100_000, seed=4)
        target = math.log(conjugate_closed_form(y, sigma, tau))
        assert abs(res.log_evidence - target) <= 3 * res.std_error_log

    def test_occam_direction(self):
        # Fixed likelihood, widening prior: evidence at the data point
        # falls (closed form is monotone in tau for y = 0).
        grid = InputGrid(np.array([0.0]))
        model = polynomial_model([0])
        lik = GaussianLikelihoodSpec(0.3, np.array([0.0]), grid)
        narrow = bayesian_evidence(model, Normal(0, 0.5), lik, k=50_000, seed=5)
        wide = bayesian_evidence(model, Normal(0, 2.5), lik, k=50_000, seed=5)
        assert narrow.log_evidence > wide.log_evidence

    def test_bayes_factor_log_space(self):
        grid = InputGrid(np.array([0.0]))
        model = polynomial_model([0])
        lik = GaussianLikelihoodSpec(0.5, np.array([0.7]), grid)
        ev1 = bayesian_evidence(model, Normal(0, 1.1), lik, k=50_000, seed=6)
        ev2 = bayesian_evidence(model, Normal(0, 0.4), lik, k=50_000, seed=7)
        bf = bayes_factor(ev1, ev2)
        assert bf.status == "ok"
        assert bf.log_value == ev1.log_evidence - ev2.log_evidence
        closed = math.log(conjugate_closed_form(0.7, 0.5, 1.1) / conjugate_closed_form(0.7, 0.5, 0.4))
        spread = 3 * math.hypot(ev1.std_error_log, ev2.std_error_log)
        assert abs(bf.log_value - closed) <= spread

    def test_nan_likelihood_raises_naming_the_model(self):
        # sqrt of a negative prior draw is NaN; the evidence must not
        # quietly drop to zero.
        model = ModelFunction("sqrt_model", ("t",), lambda th, x: np.sqrt(th) * np.ones_like(x))
        lik = GaussianLikelihoodSpec(0.5, np.array([1.0]), InputGrid(np.array([0.0])))
        with np.errstate(invalid="ignore"), pytest.raises(EstimationError, match="sqrt_model"):
            bayesian_evidence(model, Normal(1.0, 0.5), lik, k=10_000, seed=0)

    def test_every_likelihood_underflowing_is_zero_evidence_without_numpy_warning(self):
        model = ModelFunction("far", ("t",), lambda th, x: np.full((len(th), x.size), np.inf))
        lik = GaussianLikelihoodSpec(0.5, np.array([0.0, 1.0]), InputGrid(np.array([0.0, 1.0])))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = bayesian_evidence(model, Normal(0, 1), lik, k=5_000, seed=2)
        assert [str(w.message).split(":")[0] for w in caught] == ["evidence rests on few prior draws"]
        assert res.log_evidence == -math.inf
        assert res.std_error_log == math.inf
        assert res.ess == 0.0
        assert math.isnan(res.max_weight_share)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_the_fold_matches_an_fsum_over_every_weight(self, threads, monkeypatch):
        # Chunk peaks start at -inf, then rise, fall and rise again, so the
        # fold rescales the running side and the chunk side both. Each weight
        # takes at most a few roundings more than exp(log L - peak) does, and
        # each sum a pairwise sum per chunk plus one merge per chunk, so the
        # bound is a relative 1e-13, about 450 ulps.
        prior = _ChunkShifted((math.inf, 3.0, 0.0, 2.0, 0.5))
        k, y, sigma = 4 * CHUNK_SIZE + 77, 0.2, 0.5
        lik = GaussianLikelihoodSpec(sigma, np.array([y]), InputGrid(np.array([0.0])))
        monkeypatch.setenv("BVM_THREADS", threads)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = bayesian_evidence(polynomial_model([0]), prior, lik, k=k, seed=3)
        theta = np.concatenate([prior.draw_chunk(3, MODEL_STREAM, c, min(CHUNK_SIZE, k - c * CHUNK_SIZE)) for c in range(5)])
        log_l = -0.5 * math.log(2 * math.pi * sigma**2) - (theta - y) ** 2 / (2 * sigma**2)
        peak = float(log_l.max())
        w = np.exp(log_l - peak)
        total, mean = math.fsum(w), math.fsum(w) / k
        m2 = math.fsum((w - mean) ** 2)
        want = (peak + math.log(mean), math.sqrt(m2 / k) / (mean * math.sqrt(k)), total**2 / math.fsum(w * w), 1 / total)
        got = (res.log_evidence, res.std_error_log, res.ess, res.max_weight_share)
        assert got == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_paths_are_evaluated_one_chunk_at_a_time(self, threads, monkeypatch):
        monkeypatch.setenv("BVM_THREADS", threads)
        inner = polynomial_model([0, 1, 2])
        rows = []

        def recording(theta, x):
            rows.append(len(theta))
            return inner._fn(theta, x)

        model = ModelFunction(inner.name, inner.param_names, recording)
        grid = InputGrid(np.linspace(0.0, 1.0, 10))
        lik = GaussianLikelihoodSpec(0.6, np.zeros(10), grid)
        prior = IndependentProduct([Normal(0, 0.3)] * 3)
        bayesian_evidence(model, prior, lik, k=10_000, seed=3)
        assert sum(rows) == 10_000
        assert max(rows) <= CHUNK_SIZE

    def test_evidence_holds_no_k_paths(self, monkeypatch):
        # k = 10^5 paths of 10 points take 8 MB, and the squared
        # residuals as much again.
        monkeypatch.setenv("BVM_THREADS", "1")
        grid = InputGrid(np.linspace(0.0, 1.0, 10))
        lik = GaussianLikelihoodSpec(0.6, np.linspace(-0.5, 0.5, 10), grid)
        prior = IndependentProduct([Normal(0, 0.3)] * 3)
        model = polynomial_model([0, 1, 2])
        bayesian_evidence(model, prior, lik, k=1_000, seed=4)  # warm imports and caches outside the trace
        tracemalloc.start()
        try:
            bayesian_evidence(model, prior, lik, k=100_000, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_bayes_factor_degenerate_states(self):
        assert bayes_factor(1.0, 1.0).value == pytest.approx(1.0)
        assert bayes_factor(0.0, 0.0).status == "indeterminate"
        assert bayes_factor(1.0, 0.0).status == "infinite"
        with pytest.raises(ValueError):
            bayes_factor(-1.0, 1.0)

    @pytest.mark.parametrize("ev1, ev2", [(math.nan, 1.0), (1.0, math.nan), (math.inf, math.inf), (math.inf, 1.0)])
    def test_bayes_factor_rejects_nan_and_infinite_evidence(self, ev1, ev2):
        with pytest.raises(ValueError):
            bayes_factor(ev1, ev2)

    def test_bayes_factor_rejects_nan_log_evidence(self):
        with pytest.raises(ValueError):
            bayes_factor(_evidence(math.nan), _evidence(0.0))

    def test_bayes_factor_overflow_keeps_exact_log(self):
        bf = bayes_factor(_evidence(0.0), _evidence(-1000.0))
        assert bf.status == "ok"
        assert bf.value == math.inf
        assert bf.log_value == 1000.0
        assert bayes_factor(_evidence(-1000.0), _evidence(0.0)).value == 0.0

    def test_posterior_odds_are_the_scaled_bayes_factor(self):
        bf = bayes_factor(_evidence(-2.5), _evidence(-4.0))
        odds = bvm_ratio(bf, 2, 1)
        assert odds.log_value == bf.log_value + math.log(2)
        assert odds.value == pytest.approx(2.0 * math.exp(1.5))


class TestCrossMetricConsistency:
    def test_power_product_matches_joint_mc(self):
        from bvm import And, InRegion

        model, data = Normal(0.2, 1.4), StudentT(0, 10, 1.75)
        res = statistical_power_bvm(model, data, 0.05, 0.05)
        rule = And([InRegion(res.data_region, "model"), InRegion(res.model_region, "data")])
        mc = estimate_bvm_mc(Scenario(model, data, rule), 100_000, 8)
        assert abs(mc.p_hat - res.estimate.p_hat) <= 3 * mc.std_error

    def test_evidence_is_small_tolerance_reliability_limit(self):
        # Exact-match validation densifies: P(|zhat - z| <= eps) / (2 eps)
        # converges to the evidence density as eps -> 0. Richardson in
        # eps^2 over eps = 0.1 and 0.01 nails the closed-form value.
        y, sigma, tau = 0.4, 0.6, 0.9
        model = Normal(0.0, tau)          # pushed-forward constant model
        data = Normal(y, sigma)           # data value with its noise
        vals = {}
        for eps in (0.1, 0.01):
            r = reliability(model, data, eps)
            vals[eps] = r.p_hat / (2 * eps)
        extrapolated = (100 * vals[0.01] - vals[0.1]) / 99.0
        target = conjugate_closed_form(y, sigma, tau)
        assert extrapolated == pytest.approx(target, rel=1e-4)
