"""Golden bits: estimator outputs pinned to the last ulp.

Each case's fingerprint (``p_hat.hex()``, or a sha256 of a density's
masses) was recorded once and must not move under any refactor of the
sampling, kernel or reduction code, at any ``BVM_THREADS``. A change
that alters one of these on purpose changes the package's reproducible
outputs and has to say so.
"""

import hashlib

import pytest

from bvm import (
    AlwaysTrue,
    And,
    Categorical,
    Interval,
    Normal,
    Or,
    Scenario,
    SetMembership,
    SoftExponential,
    Threshold,
    comparison_density,
    estimate_bvm_mc,
)
from bvm.config import build_scenario
from bvm.studies import builtin_configs

MODEL, DATA = Normal(0.3, 1.1), Normal(-0.2, 0.7)
HARD = Threshold("abs_diff", 0.9)
WINDOW = Interval("identity", -0.5, 1.0)
LABELS_M = Categorical(["cat", "feline", "dog", "wolf"], [0.4, 0.2, 0.3, 0.1])
LABELS_D = Categorical(["cat", "dog"], [0.6, 0.4])
SYNONYMS = SetMembership({"cat": ("cat", "feline"), "dog": ("dog", "wolf")})


def _mc(model, data, rule, k, seed):
    return estimate_bvm_mc(Scenario(model, data, rule), k, seed).p_hat.hex()


def _oscillator(rule):
    built = build_scenario(builtin_configs(0)[f"oscillator-uncertain-{rule}"])
    return estimate_bvm_mc(built.scenario, 100_000, 3).p_hat.hex()


def _density():
    dens = comparison_density(Scenario(MODEL, DATA, AlwaysTrue()), "abs_diff", 200_003, 64, 5)
    return hashlib.sha256(dens.masses.tobytes()).hexdigest()


# k = 10^6 is 244 full chunks plus a 576-draw tail.
CASES = {
    "hard-threshold-1e6": lambda: _mc(MODEL, DATA, HARD, 1_000_000, 11),
    "soft-exponential": lambda: _mc(MODEL, DATA, SoftExponential("abs_diff", 0.4, 2.0), 250_000, 12),
    "and-threshold-interval": lambda: _mc(MODEL, DATA, And([HARD, WINDOW]), 250_000, 13),
    "or-threshold-interval": lambda: _mc(MODEL, DATA, Or([HARD, WINDOW]), 250_000, 13),
    "categorical-set-membership": lambda: _mc(LABELS_M, LABELS_D, SYNONYMS, 50_000, 14),
    "oscillator-mean-error-1e5": lambda: _oscillator("mean_error"),
    "oscillator-compound-1e5": lambda: _oscillator("compound"),
    "comparison-density-sha256": _density,
}

GOLDEN = {
    "hard-threshold-1e6": "0x1.eae3e6c4c5975p-2",
    "soft-exponential": "0x1.cf62ab2e7cfd2p-2",
    "and-threshold-interval": "0x1.52599ed7c6fbdp-2",
    "or-threshold-interval": "0x1.4daec4a4095f2p-1",
    "categorical-set-membership": "0x1.0b313be22e5dep-1",
    "oscillator-mean-error-1e5": "0x1.e13d31b9b66f9p-1",
    "oscillator-compound-1e5": "0x1.c07dd44135547p-1",
    "comparison-density-sha256": "e9790c3dcfc28fb545a7fc06073a39bdd0bb09f8183aac00b2166dadca330530",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_bits(case, threads, monkeypatch):
    monkeypatch.setenv("BVM_THREADS", threads)
    assert CASES[case]() == GOLDEN[case]
