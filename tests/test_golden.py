"""Golden bits: estimator outputs pinned to the last ulp.

Each case's fingerprint (``p_hat.hex()``, the four floats of a model
evidence, or a sha256 of a density's masses or of a sweep grid's cells)
was recorded once and must not move under any refactor of the sampling,
kernel, counting or reduction code, at any ``BVM_THREADS``. A change
that alters one of these on purpose changes the package's reproducible
outputs and has to say so.
"""

import hashlib

import numpy as np
import pytest

from bvm import (
    AlwaysTrue,
    And,
    BinnedPdf,
    Categorical,
    IndependentProduct,
    InputGrid,
    Interval,
    Normal,
    Or,
    Scenario,
    SetMembership,
    SoftExponential,
    Threshold,
    comparison_density,
    damped_oscillator_model,
    estimate_bvm_mc,
    polynomial_model,
    sweep,
)
from bvm.config import build_scenario, build_sweep_template, distribution_from_config, rule_from_config
from bvm.metrics import (
    GaussianLikelihoodSpec,
    area_metric_validation,
    bayesian_evidence,
    binned_pdf_metric,
    divergence_validation,
)
from bvm.studies import _OSC_PARAMS, _OSC_SIGMAS, _poly_config, builtin_configs, sweep_axes

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


EDGES = np.linspace(0.0, 1.0, 6)
PDF = BinnedPdf(EDGES, [0.1, 0.25, 0.3, 0.2, 0.15])
COUNTS = [3, 9, 14, 6, 8]
XM = np.random.default_rng(21).normal(0.0, 1.0, 30)
XD = np.random.default_rng(22).normal(0.2, 1.1, 30)
ALPHA = np.array([4.0, 11.0, 13.0, 7.0, 5.0])


def _binned_soft():
    return binned_pdf_metric(PDF, COUNTS, SoftExponential("identity", 0.25, 6.0), r=9_001, seed=32)


def _divergence():
    def sampler(g):
        return PDF, BinnedPdf(EDGES, g.dirichlet(ALPHA))

    rule = Threshold("identity", 0.12)
    return divergence_validation(PDF, PDF, "hellinger", rule, sampler=sampler, r=4_500, seed=34).p_hat.hex()


def _evidence(model, prior, sigma, x, y, k, seed):
    res = bayesian_evidence(model, prior, GaussianLikelihoodSpec(sigma, y, InputGrid(x)), k=k, seed=seed)
    return " ".join(v.hex() for v in (res.log_evidence, res.std_error_log, res.ess, res.max_weight_share))


POLY_X = np.linspace(0.0, 1.0, 10)
POLY_MEAN = np.array([0.4, -0.3, 0.8])
POLY_Y = np.stack([POLY_X**p for p in range(3)], axis=1) @ [0.5, -0.1, 0.6] + np.random.default_rng(24).normal(0, 0.6, 10)
OSC_X = np.linspace(0.0, 1.0, 100)
OSC_Y = damped_oscillator_model().evaluate(_OSC_PARAMS, InputGrid(OSC_X)) + np.random.default_rng(25).normal(0, 0.4, 100)


def _evidence_poly():
    prior = IndependentProduct([Normal(float(mu), 0.3) for mu in POLY_MEAN])
    return _evidence(polynomial_model([0, 1, 2]), prior, 0.6, POLY_X, POLY_Y, 100_000, 35)


def _evidence_scalar():
    return _evidence(polynomial_model([1]), Normal(0.2, 0.8), 0.5, POLY_X, POLY_Y, 30_000, 36)


def _evidence_oscillator():
    prior = IndependentProduct([Normal(p, s) for p, s in zip(_OSC_PARAMS, _OSC_SIGMAS)])
    return _evidence(damped_oscillator_model(), prior, 1.0, OSC_X, OSC_Y, 4_097, 37)


def _sweep(order, variant, estimator="grid", k=10_000, seed=0):
    template, _ = build_sweep_template(_poly_config(order, variant, 0))
    grid = sweep(template, *sweep_axes(), m=5.0, estimator=estimator, k=k, seed=seed)
    return hashlib.sha256(grid.values.tobytes()).hexdigest()


# k = 10^6 is 244 full chunks plus a 576-draw tail. Every metric case
# resamples more than one 4096-draw chunk. The evidence cases pin
# log_evidence, std_error_log, ess and max_weight_share; the oscillator
# one is a full chunk plus a one-draw tail.
CASES = {
    "hard-threshold-1e6": lambda: _mc(MODEL, DATA, HARD, 1_000_000, 11),
    "soft-exponential": lambda: _mc(MODEL, DATA, SoftExponential("abs_diff", 0.4, 2.0), 250_000, 12),
    "and-threshold-interval": lambda: _mc(MODEL, DATA, And([HARD, WINDOW]), 250_000, 13),
    "or-threshold-interval": lambda: _mc(MODEL, DATA, Or([HARD, WINDOW]), 250_000, 13),
    "categorical-set-membership": lambda: _mc(LABELS_M, LABELS_D, SYNONYMS, 50_000, 14),
    "oscillator-mean-error-1e5": lambda: _oscillator("mean_error"),
    "oscillator-compound-1e5": lambda: _oscillator("compound"),
    "comparison-density-sha256": _density,
    "binned-pdf-hard": lambda: binned_pdf_metric(PDF, COUNTS, Threshold("identity", 0.3), r=10_000, seed=31).p_hat.hex(),
    "binned-pdf-soft": lambda: _binned_soft().p_hat.hex(),
    "binned-pdf-soft-std-error": lambda: _binned_soft().std_error.hex(),
    "area-bootstrap": lambda: area_metric_validation(XM, XD, Threshold("identity", 0.3), bootstrap=5_000, seed=33).p_hat.hex(),
    "divergence-sampler": _divergence,
    "evidence-poly3-1e5": _evidence_poly,
    "evidence-scalar-prior": _evidence_scalar,
    "evidence-oscillator-4097": _evidence_oscillator,
    "sweep-ex53-deterministic-model1": lambda: _sweep(1, "deterministic"),
    "sweep-ex53-deterministic-model2": lambda: _sweep(2, "deterministic"),
    "sweep-ex53-uncertain-model1": lambda: _sweep(1, "uncertain"),
    "sweep-ex53-uncertain-model2": lambda: _sweep(2, "uncertain"),
    "sweep-mc-uncertain-model2": lambda: _sweep(2, "uncertain", "mc", k=20_000, seed=11),
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
    "binned-pdf-hard": "0x1.47e28240b7803p-1",
    "binned-pdf-soft": "0x1.94c594010b248p-1",
    "binned-pdf-soft-std-error": "0x1.54344851b756cp-9",
    "area-bootstrap": "0x1.b15b573eab368p-3",
    "divergence-sampler": "0x1.309546c510281p-1",
    "evidence-poly3-1e5": "-0x1.1622b330b5b3dp+3 0x1.8442f3d45cadap-9 0x1.a01eb9c8a5737p+15 0x1.44328d15ac0a0p-15",
    "evidence-scalar-prior": "-0x1.62846bf7ade17p+3 0x1.0e64eb4257725p-7 0x1.341be66fc69b5p+13 0x1.29982057574b6p-13",
    "evidence-oscillator-4097": "-0x1.9cf3765efd1d1p+6 0x1.df7b2cd2ff9b4p-5 0x1.107cd9eede893p+8 0x1.a2858a54b4631p-7",
    "sweep-ex53-deterministic-model1": "e80cfb8c5e3e780738c67b35eeebc89c5a29e4c5b166ac71318b859318a498fb",
    "sweep-ex53-deterministic-model2": "0b8c6f6faa8a7c677aaaf3407305eab37db9fbebe024f4b9c369e30a3ec35481",
    "sweep-ex53-uncertain-model1": "36f20bb20164e8f323e7a4ff830bd8c3bed91c037dbf13befed8ac53b1dd27e6",
    "sweep-ex53-uncertain-model2": "45274784e52264cbe1ccee84a245bdaac047fdd0cab050ecd432a2f1c40dfe86",
    "sweep-mc-uncertain-model2": "ab2e9f995171ed2e16babaa3707c84337619585a9d8f39b9ad0fc1c839f55a25",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_bits(case, threads, monkeypatch):
    monkeypatch.setenv("BVM_THREADS", threads)
    assert CASES[case]() == GOLDEN[case]


# Output bytes of the band, sampling and oscillator code. ``sample`` and
# the band's quantiles write into arrays they own, and the oscillator
# evaluates into reused buffers. These sha256s were recorded from the
# plain concatenate / two-quantile / expression forms, so they pin that
# each still produces those bits. String labels are hashed by value (an object array's bytes are
# pointers).
OSC_MODEL = distribution_from_config({"type": "push_forward", **builtin_configs(0)["oscillator-uncertain-compound"]["model"]})
OSC_PRIOR = IndependentProduct([Normal(p, s) for p, s in zip(_OSC_PARAMS, _OSC_SIGMAS)])


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes() if a.dtype != object else "\n".join(a).encode())
    return h.hexdigest()


def _band(n, level):
    doc = {"type": "epsilon_beta", "mean_tol": 1.0, "band": {"source": "model", "level": level, "samples": n, "seed": 4}}
    return _sha(*rule_from_config(doc, OSC_MODEL).band)


BYTES_CASES = {
    **{f"band-{n}-{level}": (lambda n=n, level=level: _band(n, level)) for n in (100, 4_097, 20_000) for level in (0.95, 0.5)},
    "sample-normal-4097": lambda: _sha(MODEL.sample(41, 4_097)),
    "sample-product-100": lambda: _sha(IndependentProduct([Normal(0.01 * i, 1.0 + 0.01 * i) for i in range(100)]).sample(42, 4_097)),
    "sample-oscillator-push-forward": lambda: _sha(OSC_MODEL.sample(43, 4_097, stream=5)),
    "sample-categorical-labels": lambda: _sha(LABELS_M.sample(44, 4_097)),
    "oscillator-evaluate-chunk": lambda: _sha(damped_oscillator_model().evaluate(OSC_PRIOR.sample(45, 4_096), InputGrid(OSC_X))),
    "oscillator-evaluate-single": lambda: _sha(damped_oscillator_model().evaluate(np.asarray(_OSC_PARAMS), InputGrid(OSC_X))),
}

BYTES_GOLDEN = {
    "band-100-0.5": "873d7e0352a4023bd963ef3228f9703ec967e4e0a329a72e660a91800e5acbe0",
    "band-100-0.95": "ccbf15d4bf299d21dfb9dc070531a382c7d0e915e90b46d4154c26bb63ce693b",
    "band-20000-0.5": "bbc58d078c9af9cea4b7c358a40fdc346431e666d5aadb09b8f2fd5cf457f879",
    "band-20000-0.95": "94f24aef461ba7ee88739ed35eb98644b892e93191a60f83dd17bbee5b134a13",
    "band-4097-0.5": "44201b43618c1590844ce9baa37a9e1076a5a456b03639ffde078709200d09c2",
    "band-4097-0.95": "b8b1d9801fc5be4e51f61d8cbcba0935b0b5611619a91818b9111eae19b6416a",
    "oscillator-evaluate-chunk": "ef882770a8eaeba7eb9d4e50c2374b6d998a5db1f8715be24d61f24a99543595",
    "oscillator-evaluate-single": "512d849f5af77cb3fd1997da8158d1909f5ebeb6bf973aec4ad316237bbce90b",
    "sample-categorical-labels": "663079a113db157fca0afce4ded8d7b025d2a947e9d513137356289779cd1a6f",
    "sample-normal-4097": "f6f003437846f2560b658501c0d829559294199bcc26bdc500c7a333eb06beaf",
    "sample-oscillator-push-forward": "74cc7bac5c39300aad540b7b96a5ec6f86621c56242ed839e8faa05834978545",
    "sample-product-100": "786db2d7734785bd903fa0b023baa56e44ac2100b3dfdffaa9860838b44fb0f2",
}


@pytest.mark.parametrize("case", sorted(BYTES_CASES))
def test_golden_bytes(case):
    assert BYTES_CASES[case]() == BYTES_GOLDEN[case]
