"""Golden bits: estimator outputs pinned to the last ulp.

Each case's fingerprint (``p_hat.hex()``, the four floats of a model
evidence, or a sha256 of a density's masses or of a sweep grid's cells)
was recorded once and must not move under any refactor of the sampling,
kernel, counting or reduction code, at any ``BVM_THREADS``. A change
that alters one of these on purpose changes the package's reproducible
outputs and has to say so.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from bvm import (
    AlwaysTrue,
    And,
    BinnedPdf,
    Categorical,
    DiracDelta,
    Empirical,
    EpsilonBeta,
    IndependentProduct,
    InputGrid,
    Interval,
    ModelFunction,
    Normal,
    Or,
    PushForward,
    Scenario,
    SetMembership,
    ShiftedExponential,
    SoftExponential,
    StudentT,
    Threshold,
    Uniform,
    comparison_density,
    damped_oscillator_model,
    estimate_bvm_mc,
    fraction_within,
    max_abs_error,
    mean_abs_error,
    polynomial_model,
    sweep,
)
from bvm.cli import EXIT_OK, main
from bvm.config import build_scenario, build_sweep_template, distribution_from_config, rule_from_config
from bvm.metrics import (
    GaussianLikelihoodSpec,
    area_metric_validation,
    bayesian_evidence,
    binned_pdf_metric,
    divergence_validation,
)
from bvm.rng import BAND_STREAM
from bvm.studies import _OSC_PARAMS, _OSC_SIGMAS, _TAYLOR, _poly_config, builtin_configs, sweep_axes

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


def _certain(name):
    """A fresh push-forward whose prior is all point masses, so each case
    reaches the model's first evaluation itself."""
    if name == "oscillator":
        model, params, grid = damped_oscillator_model(), _OSC_PARAMS, InputGrid.linspace(0.0, 1.0, 100)
    else:
        powers, n = {"poly50": ([0, 2, 4], 50), "poly193": ([0, 2, 4, 6], 193)}[name]
        model, params, grid = polynomial_model(powers), _TAYLOR[: len(powers)], InputGrid.linspace(0.0, float(np.pi), n)
    return PushForward(IndependentProduct([DiracDelta(p) for p in params]), model, grid)


def _certain_oscillator(agreement):
    doc = {**builtin_configs(0)["oscillator-deterministic-mean_error"], "agreement": agreement}
    return estimate_bvm_mc(build_scenario(doc).scenario, 10_000, 9).p_hat.hex()


def _certain_bytes(name, what):
    model = _certain(name)
    if what == "band":
        doc = {"type": "epsilon_beta", "mean_tol": 1.0, "band": {"source": "model", "level": 0.95, "samples": 20_000, "seed": 4}}
        out = np.concatenate(rule_from_config(doc, model).band)
    elif what == "draw-chunk":
        out = model.draw_chunk(6, 0, 2, 4_096)
    elif what == "draw-chunk-prefix":
        out = model.draw_chunk(6, 3, 0, 1_000)
    else:
        out = model.sample(8, 4_097, stream=5)
    return hashlib.sha256(out.tobytes()).hexdigest()


# Certain models: one full chunk, a prefix of another stream's first
# chunk, a sample across a chunk boundary, and the model band. The
# oscillator's were recorded when every chunk evaluated its rows; the
# polynomials' are the model's one path at its parameters, repeated (a
# BLAS product of a full chunk rounds their rows apart from it).
CERTAIN_CASES = {
    **{
        f"certain-{name}-{what}": (lambda name=name, what=what: _certain_bytes(name, what))
        for name in ("oscillator", "poly50", "poly193")
        for what in ("draw-chunk", "draw-chunk-prefix", "sample-4097", "band")
    },
    "certain-oscillator-mean-error-1e4": lambda: _certain_oscillator({"type": "threshold", "fn": "mean_abs_error", "eps": 0.36}),
    "certain-oscillator-soft-1e4": lambda: _certain_oscillator(
        {"type": "soft_exponential", "fn": "mean_abs_error", "eps_prime": 0.3, "rate": 20}
    ),
}


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
    **CERTAIN_CASES,
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
    "sweep-ex53-uncertain-model1": "fad24edb26952795522f098abfbd59e5645ff4ffbcb9d9cbc3aea6e4566b74c4",
    "sweep-ex53-uncertain-model2": "566fe498398531fc6d5f13d217e90df63145d10b5b6f0544504a2f85c7d97d7b",
    "sweep-mc-uncertain-model2": "a7703c63df2796f2a4428278dcc92031d530b563cf97a15f44669ca8f61294f7",
    "certain-oscillator-draw-chunk": "624e2fc418675fd8913bdd68dc2116723804e6418571f21e6e778e2d5f689268",
    "certain-oscillator-draw-chunk-prefix": "79e662608fb27554fd05cd2d61909bc4159a4829d16528df24223a675ecfcc02",
    "certain-oscillator-sample-4097": "21a0b41abcc70f37f755446eb99ccfc5c73c49250abc115edabb9fca5dda1470",
    "certain-oscillator-band": "bdf948def8b0fc92d16f8723995d6630d227b61512968e28d058299d55f2d7dc",
    "certain-poly50-draw-chunk": "470f9180f87598c2a58c5e2ac654628a4e2878e600957a1c364cfb32cf87fc0e",
    "certain-poly50-draw-chunk-prefix": "dce3d1abf48033970f225a081683bedeaa8e53df1f211eff258a095239c00122",
    "certain-poly50-sample-4097": "754c50a067145e34b06c087d706a97db190960e2e825bf52780046f348f4787b",
    "certain-poly50-band": "fdce5b3b4b504685d59411246b8ec84b93bf7f5a8a664c597f55a5d81e6df6a0",
    "certain-poly193-draw-chunk": "d769ea15eb84dbfb8d1479b5e2b819b5e61b5d0b1c35caf1d67dc0677bbf55e4",
    "certain-poly193-draw-chunk-prefix": "e0cc55184a77110e4b5e51bbe30313a04f291836b4199240afa6ea2b7abe50a1",
    "certain-poly193-sample-4097": "33493a14826881a79521672e21388b534768dfa347366da3952fe916c091ab67",
    "certain-poly193-band": "a42a7863c6eedfea182be05762a330a4ba3f6527c03a23a38d62e6805b517c4d",
    "certain-oscillator-mean-error-1e4": "0x1.a0ded288ce704p-1",
    "certain-oscillator-soft-1e4": "0x1.ba93842a1e527p-2",
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
# each still produces those bits. The bands at 4 095 and 12 289 samples
# and of the planted model, and the compound-rule edges, were recorded
# when the band concatenated its kept rows with each whole chunk and the
# compound rule took the coverage of a whole chunk at once. String labels
# are hashed by value (an object array's bytes are pointers).
OSC_MODEL = distribution_from_config({"type": "push_forward", **builtin_configs(0)["oscillator-uncertain-compound"]["model"]})
OSC_PRIOR = IndependentProduct([Normal(p, s) for p, s in zip(_OSC_PARAMS, _OSC_SIGMAS)])
MIXED_PRODUCT = IndependentProduct(
    [
        Normal(0.3, 1.1),
        StudentT(-0.5, 4.0, 0.8),
        Uniform(-1.0, 2.0),
        ShiftedExponential(1.5, 0.2),
        DiracDelta(0.7),
        Categorical([1.0, 2.5, -3.0], [0.2, 0.5, 0.3]),
        Empirical(XM),
    ]
)


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes() if a.dtype != object else "\n".join(a).encode())
    return h.hexdigest()


def _band(n, level, model=OSC_MODEL):
    doc = {"type": "epsilon_beta", "mean_tol": 1.0, "band": {"source": "model", "level": level, "samples": n, "seed": 4}}
    return _sha(*rule_from_config(doc, model).band)


SIGNED_ZEROS = 9


def _planted(theta, x):
    """Oscillator paths with non-finite points planted by the draw of the
    first parameter (z, a standard normal): NaN in a few rows of one
    column, +-inf around the 2.5 % ranks of others and in half the rows
    of one, a column of +inf and one of -inf, and a column of -0.0 and
    +0.0 (below and above z = 0) whose read ranks hold both."""
    out = damped_oscillator_model().evaluate(theta, InputGrid(x))
    z = (theta[:, 0] - _OSC_PARAMS[0]) / _OSC_SIGMAS[0]
    out[z > 2.5, 1] = np.nan
    out[z > 1.96, 2] = np.inf
    out[z < -1.96, 3] = -np.inf
    out[z > 0.0, 4] = np.inf
    out[:, 5] = np.inf
    out[:, 6] = -np.inf
    out[z > 2.2, 7] = np.inf
    out[z < -2.2, 7] = -np.inf
    out[z > 3.5, 8] = np.inf
    out[:, SIGNED_ZEROS] = np.where(z < 0.0, -0.0, 0.0)
    return out


PLANTED_MODEL = PushForward(OSC_PRIOR, ModelFunction("planted", tuple("abcdfg"), _planted), InputGrid(OSC_X[:20]))


def _planted_band(n, level):
    """The planted model's band bytes, but for its signed-zero column,
    which :func:`test_planted_band_equals_the_quantiles_by_value` checks."""
    doc = {"type": "epsilon_beta", "mean_tol": 1.0, "band": {"source": "model", "level": level, "samples": n, "seed": 4}}
    with np.errstate(invalid="ignore"):  # inf - inf
        lo, hi = rule_from_config(doc, PLANTED_MODEL).band
    return _sha(*(np.delete(edge, SIGNED_ZEROS) for edge in (lo, hi)))


# Compound-rule edges: 4-point paths whose data points sit on the band's
# edges, one step outside or inside them, or between, so that a row's
# coverage lands on coverage_lo (0.5), on coverage_hi (0.75) or off them;
# each data row meets three model rows at mean error exactly mean_tol
# (0.25), just above it and half of it.
EB_BAND = (np.array([-1.0, -0.5, 0.0, 0.25]), np.array([1.0, 0.5, 0.75, 1.25]))
EB_RULE = EpsilonBeta(0.25, EB_BAND, coverage_lo=0.5, coverage_hi=0.75)


def _epsilon_beta_edges(data):
    lo, hi = EB_BAND
    picks = np.stack([lo, hi, lo - 0.25, hi + 0.25, (lo + hi) / 2, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)])
    y = picks[np.array(list(itertools.product(range(len(picks)), repeat=4))), np.arange(4)]
    if data == "path":  # on lo, on hi, outside, on hi: coverage 0.75
        y = np.array([lo[0], hi[1], lo[2] - 0.25, hi[3]])
    steps = np.array([0.25, 0.25 + 2.0**-48, 0.125])[:, None] * [1.0, -1.0, 1.0, -1.0]
    yhat = (np.atleast_2d(y)[:, None, :] + steps).reshape(-1, 4)
    if data == "batch":
        y = np.repeat(y, len(steps), axis=0)
    return _sha(EB_RULE.kernel_many(yhat, y))


def _path_error(fn, data):
    """A path error of one uncertain oscillator chunk against the 1-D
    data path or against another chunk."""
    yhat = OSC_MODEL.draw_chunk(48, 0, 0, 4_096)
    y = OSC_Y if data == "path" else OSC_MODEL.draw_chunk(49, 1, 0, 4_096)
    return fn(yhat, y, 0.5) if fn is fraction_within else fn(yhat, y)


BYTES_CASES = {
    **{
        f"band-{n}-{level}": (lambda n=n, level=level: _band(n, level))
        for n in (100, 4_095, 4_097, 12_289, 20_000)
        for level in (0.95, 0.5)
    },
    **{
        f"band-planted-{n}-{level}": (lambda n=n, level=level: _planted_band(n, level))
        for n in (4_097, 20_000)
        for level in (0.95, 0.5)
    },
    **{f"epsilon-beta-edges-{data}": (lambda data=data: _epsilon_beta_edges(data)) for data in ("batch", "path")},
    # A certain path given as a ``dirac`` model, recorded when its band was
    # the quantile pass over 20 000 tiled rows.
    **{f"band-dirac-path-{level}": (lambda level=level: _band(20_000, level, DiracDelta(OSC_Y))) for level in (0.95, 0.5)},
    "sample-normal-4097": lambda: _sha(MODEL.sample(41, 4_097)),
    "sample-product-100": lambda: _sha(IndependentProduct([Normal(0.01 * i, 1.0 + 0.01 * i) for i in range(100)]).sample(42, 4_097)),
    "sample-oscillator-push-forward": lambda: _sha(OSC_MODEL.sample(43, 4_097, stream=5)),
    "sample-categorical-labels": lambda: _sha(LABELS_M.sample(44, 4_097)),
    "oscillator-evaluate-chunk": lambda: _sha(damped_oscillator_model().evaluate(OSC_PRIOR.sample(45, 4_096), InputGrid(OSC_X))),
    "oscillator-evaluate-single": lambda: _sha(damped_oscillator_model().evaluate(np.asarray(_OSC_PARAMS), InputGrid(OSC_X))),
    # Recorded when a product stacked its component draws with
    # ``np.column_stack``, a certain model handed out copies of its whole
    # kept chunk, and the path errors took |yhat - y| of a whole chunk.
    **{f"draw-chunk-mixed-product-{c}": (lambda c=c: _sha(MIXED_PRODUCT.draw_chunk(46, 2, c, 4_096))) for c in (0, 1)},
    "draw-chunk-certain-oscillator-257": lambda: _sha(
        PushForward(IndependentProduct([DiracDelta(p) for p in _OSC_PARAMS]), damped_oscillator_model(), InputGrid.linspace(0.0, 1.0, 257))
        .draw_chunk(47, 0, 1, 4_096)
    ),
    **{
        f"{fn.__name__}-chunk-{data}": (lambda fn=fn, data=data: _sha(_path_error(fn, data)))
        for fn in (mean_abs_error, max_abs_error, fraction_within)
        for data in ("path", "chunk")
    },
}

BYTES_GOLDEN = {
    "band-100-0.5": "873d7e0352a4023bd963ef3228f9703ec967e4e0a329a72e660a91800e5acbe0",
    "band-100-0.95": "ccbf15d4bf299d21dfb9dc070531a382c7d0e915e90b46d4154c26bb63ce693b",
    "band-12289-0.5": "4e48d850a580297cdd0b3405b26c33222d6dacf57931e6fbfa6a7dd45bd90481",
    "band-12289-0.95": "5742a9702a394a94a8ed907254116bc3fd2b7582dd95a1fb3ad4124b83430186",
    "band-20000-0.5": "bbc58d078c9af9cea4b7c358a40fdc346431e666d5aadb09b8f2fd5cf457f879",
    "band-20000-0.95": "94f24aef461ba7ee88739ed35eb98644b892e93191a60f83dd17bbee5b134a13",
    "band-4095-0.5": "1fd0a441e76563aec6d40d05ab26a6c59d4d6d7fd5f7376cbe89a44173fcec57",
    "band-4095-0.95": "e2edd8f8ee1a0c642b2b19409332b68f61c3412aee1cc837eced3459542efba9",
    "band-4097-0.5": "44201b43618c1590844ce9baa37a9e1076a5a456b03639ffde078709200d09c2",
    "band-4097-0.95": "b8b1d9801fc5be4e51f61d8cbcba0935b0b5611619a91818b9111eae19b6416a",
    "band-dirac-path-0.5": "21c4a541af30c94c22c43a18fd9defc9862b96094ad6b567fc38e3ae417dec7c",
    "band-dirac-path-0.95": "21c4a541af30c94c22c43a18fd9defc9862b96094ad6b567fc38e3ae417dec7c",
    "band-planted-20000-0.5": "356b499ecacf39646fc827b9ccf42ba617239947d48fc0e931464b3d188f5c6c",
    "band-planted-20000-0.95": "92b7087fdc09c76e6218e1371304317670347d9de1ff12beabb21f4ab4a6f47c",
    "band-planted-4097-0.5": "397b512dac1db43831abaf1158aa6df2373c7dfe41d8869894ac4e2c1db96d69",
    "band-planted-4097-0.95": "3487a936fa02d4cc43f5dac37c9fef30664cbe065230ddaceac3da8a4fa37852",
    "draw-chunk-certain-oscillator-257": "4482daa4961ecf943f4349a907aa687193a42ff08dbc2f1c517b629fae5babc7",
    "draw-chunk-mixed-product-0": "fa706d593dd45745449bb97fee7a7aa595c5e83ceb9a5411cb9ca581471ed91f",
    "draw-chunk-mixed-product-1": "c74d19df2487b4b6dac32d6dcb79d6f6773ce522a89e50c21508a7d8f54fa352",
    "epsilon-beta-edges-batch": "7cfb70170ccd86b03a5bf811e4a1281cfc39a4d855a4b9a9e6faeeef23996362",
    "epsilon-beta-edges-path": "68f962b48b11fe16e782b2e07047abb2dfbfdc78a67e39410e00508331a5d1e7",
    "fraction_within-chunk-chunk": "7d662b28bcc8b49e36a034fe1a019aa98207208803f8e963df7a7d5a84ef0a65",
    "fraction_within-chunk-path": "81f0068dbb02f629e05d94e9722508bc7f465b522d28a3c7ce88aeb9ee105cc5",
    "max_abs_error-chunk-chunk": "77391bd6eb873adb34bbe7502c022599892e8918cde09888c211347e0837255f",
    "max_abs_error-chunk-path": "ec787865e1f340d149d996c19dd5e9504a80ffc5aacefddae7485d0f3d7ef37b",
    "mean_abs_error-chunk-chunk": "daa7f94ed5aab1d94ca0d2ad1643b6c7a729bd77a355aac828aff0dabf4709a0",
    "mean_abs_error-chunk-path": "ce622522f00c65e98827e10618a70540949146a51d057bb240999019a5ed0c0d",
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


@pytest.mark.parametrize("level", [0.95, 0.5])
def test_planted_band_equals_the_quantiles_by_value(level):
    # numpy's quantiles of the same paths, by value: the signed-zero
    # column's ranks may come back as either zero, and it is 0.0 either way.
    doc = {"type": "epsilon_beta", "mean_tol": 1.0, "band": {"source": "model", "level": level, "samples": 12_289, "seed": 4}}
    a = (1.0 - level) / 2.0
    with np.errstate(invalid="ignore"):  # inf - inf
        band = np.stack(rule_from_config(doc, PLANTED_MODEL).band)
        expected = np.quantile(PLANTED_MODEL.sample(4, 12_289, BAND_STREAM), [a, 1.0 - a], axis=0)
    zeros = PLANTED_MODEL.sample(4, 12_289, BAND_STREAM)[:, SIGNED_ZEROS]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    assert (band[:, SIGNED_ZEROS] == 0.0).all()
    np.testing.assert_array_equal(band, expected)


# Grid ``bvm validate`` end to end: the ``p_hat`` its record holds for
# three bundled polynomial configs, each under its own gamma_epsilon rule,
# a hard mean-error threshold and a hard/soft compound. Recorded from the
# route that held every model path at once.
GRID_RULES = {
    "own": None,
    "mean-threshold": {"type": "threshold", "fn": "mean_abs_error", "eps": 0.05},
    "and-soft": {
        "type": "and",
        "children": [
            {"type": "threshold", "fn": "max_abs_error", "eps": 0.3},
            {"type": "soft_exponential", "fn": "mean_abs_error", "eps_prime": 0.02, "rate": 30},
        ],
    },
}

GRID_GOLDEN = {
    "poly-deterministic-model2/and-soft": "0x1.b060e64d5ae71p-1",
    "poly-deterministic-model2/mean-threshold": "0x1.0000000000000p+0",
    "poly-deterministic-model2/own": "0x1.0000000000000p+0",
    "poly-uncertain-model1/and-soft": "0x1.b19e9dd8582cep-8",
    "poly-uncertain-model1/mean-threshold": "0x1.231fb1e424406p-8",
    "poly-uncertain-model1/own": "0x1.1a7b4c47fba7ep-7",
    "poly-uncertain-model2/and-soft": "0x1.af2ab4f27a686p-5",
    "poly-uncertain-model2/mean-threshold": "0x1.6e218475c924ep-5",
    "poly-uncertain-model2/own": "0x1.ea10c34c57902p-5",
}


@pytest.mark.parametrize("rule", sorted(GRID_RULES))
@pytest.mark.parametrize("config", ["poly-uncertain-model2", "poly-uncertain-model1", "poly-deterministic-model2"])
def test_grid_validate_bits(config, rule, tmp_path):
    doc = builtin_configs(0)[config]
    if GRID_RULES[rule] is not None:
        doc = {**doc, "agreement": GRID_RULES[rule]}
    cfg, out = tmp_path / "cfg.json", tmp_path / "record.json"
    cfg.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["estimates"][0]["p_hat"].hex() == GRID_GOLDEN[f"{config}/{rule}"]


@pytest.mark.parametrize("order", [1, 2])
def test_grid_and_mc_validate_of_a_certain_polynomial_agree(order, tmp_path):
    # The hard rule's per-point tolerance is the model path's own error, so
    # a path rounded apart from the model's value can fail it.
    doc = builtin_configs(0)[f"poly-deterministic-model{order}"]
    powers = doc["model"]["model_function"]["powers"]
    path = polynomial_model(powers).evaluate(np.asarray(_TAYLOR[: len(powers)]), InputGrid.linspace(0.0, float(np.pi), 50))
    err = np.abs(path - build_scenario(doc).scenario.data_dist.value)
    rule = {"type": "gamma_epsilon", "gamma": 1.0, "eps": err.tolist(), "m": 1.0}
    p_hat = []
    for estimator in ({"method": "grid", "seed": 0}, {"method": "mc", "samples": 5_000, "seed": 2}):
        cfg, out = tmp_path / "cfg.json", tmp_path / "record.json"
        cfg.write_text(json.dumps({**doc, "agreement": rule, "estimator": estimator}))
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        p_hat.append(json.loads(out.read_text())["estimates"][0]["p_hat"])
    assert p_hat == [1.0, 1.0]


def test_certain_compound_validate_evaluates_the_model_twice(tmp_path, monkeypatch):
    # Once on the model's one parameter row, when the model section is
    # built, for the path that both the band and the Monte Carlo chunk
    # read; then once for the data instance (7 when the band drew 20 000
    # paths in 5 chunks and the estimate drew its own).
    calls = []
    real = ModelFunction.evaluate

    def counting(self, params, grid):
        calls.append(np.shape(params))
        return real(self, params, grid)

    monkeypatch.setattr(ModelFunction, "evaluate", counting)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(builtin_configs(0)["oscillator-deterministic-compound"]))
    assert main(["validate", "--config", str(cfg)]) == EXIT_OK
    assert calls == [(1, 6), (6,)]
