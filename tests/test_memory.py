"""Peak traced memory of sampling, of path errors, of the model band, of
Monte Carlo estimates on oscillator paths, of grid ``validate`` and of
sweeps.

``Distribution.sample`` copies each chunk into one output array as it is
drawn and drops it before drawing the next, so a call holds the output
array and one chunk's working set. The oscillator's 20 000 paths peak
at 19.9 MB; the 21 MB bound was set before the drop, when the previous
chunk stayed bound while the next was evaluated: 26.2 MB. The normal
draws' bound was set before chunks were copied out as drawn (16.1 MB
then, 8.1 MB now).

The model band draws its paths one chunk at a time and keeps, per point,
only the order statistics its two quantiles read. It partitions each
chunk in place and merges only that chunk's kept rows with its own, in
one buffer of twice the kept rows. Its 5.5 MB bound was set before that
change, when it concatenated its kept rows with each whole chunk: 8.2 MB
(now 5.47 MB: a chunk and its evaluation's working set, 3.87 MB, and
the 1.6 MB buffer). A 10 MB bound before it was set when the band drew all
20 000 paths into one array: 26.2 MB.

The oscillator evaluates in row tiles into its output, and the path
errors and both compound rules take |yhat - y| over row tiles, so one
chunk of the uncertain compound rule holds the model and data chunks and
one tile of errors. Its 7.1 MB bound at k = 1e5 was set before
``EpsilonBeta`` took its coverage in those tiles: 7.45 MB (now 7.0 MB).
An 11 MB bound before it was set at 13.1 MB, before the tiles (9.9 MB
with |yhat - y| of a whole chunk in place). ``EpsilonBeta.kernel_many``
on a 4096 x 100 pair has a 0.5 MB bound, set at 0.89 MB, when it formed
chunk-sized bool arrays for its coverage (now 0.43 MB).

Grid ``bvm validate`` scores its model paths one block at a time, as a
sweep reads them. Its bound was set before that change, when the call
held all 160 000 paths of the uncertain ex-5.3 model 2 (50 points each)
and the data path tiled to as many rows: 257.3 MB.

A certain oscillator (every prior component a point mass) evaluates its
one path, on its one parameter row, when it is built, and its band is
that path. Its bound of 10 MB was set before its band was one path, when
the band drew and partitioned 20 000 copies of the path: 26.2 MB (3.9 MB
when it kept one row of an evaluated chunk, now 0.01 MB). The model is
built, and so evaluated, inside the trace.

Three bounds were set before a product wrote its component draws into
one array, a certain model kept one row instead of its whole chunk, and
the path errors ran over row tiles: a chunk of a 100-normal product
(6.6 MB then, 3.3 MB now), ``mean_abs_error`` of a 4096 x 100 pair
(3.3 MB then, 0.3 MB now), and an estimate on one chunk of the certain
oscillator against 100-normal product data (13.1 MB then, with its first
chunk evaluated inside the trace; 6.9 MB now, its one path evaluated
when the scenario is built). ``GammaEpsilon.kernel_many`` on a
4096 x 100 pair takes its errors in the same row tiles; its 1.0 MB bound
was set before, when it formed the whole |yhat - y| (6.6 MB then, 0.4 MB
now).

A scalar Monte Carlo estimate folds each chunk's result in chunk order as
soon as every earlier chunk is folded, so it holds a chunk per worker and
a few chunk results whatever k: its peak at about 4e6 pairs stays within
5 % of its peak at about 1e5, at one and two threads. The bound was set
before the first run. While every chunk's result was kept until the
estimate returned, the two read 0.139 and 0.274 MB at one thread, and
0.287 and 0.358 MB at two.

The model evidence and the comparison density run on the same fold: the
evidence folds each chunk's peak log-likelihood and weight moments, and
the density folds the least and largest value, then the bin counts. Each
peak at k = 1e6 stays within 1.5 times its peak at k = 1e5. The bounds
were set before the change, when both held all k values: the evidence
(a cubic on 50 points) read 4.2 and 24 MB, the density (64 bins) 1.6 and
16 MB (now 3.5 and 0.14 MB at either k).

A sweep adds each block's first passing columns into a (need, eps)
histogram, so it holds that histogram, the path weights and one block of
paths, with no eps-by-path count matrix. Both bounds were set before an
earlier change: the uncertain ex-5.3 model-2 sweep (160 000 paths by 101
eps) peaked at 21.75 MB, and a 10 001-eps sweep over the 8 000 model-1
paths at 245 MB (now 3.0 and 7.2 MB). The first replaces a 32 MB bound
on the same sweep.
"""

import json
import threading
import tracemalloc

import numpy as np
import pytest

from bvm import (
    AgreementRule,
    AlwaysTrue,
    EpsilonBeta,
    GammaEpsilon,
    IndependentProduct,
    InputGrid,
    Normal,
    mean_abs_error,
    polynomial_model,
)
from bvm.cli import EXIT_OK, main
from bvm.config import build_scenario, build_sweep_template, distribution_from_config, rule_from_config
from bvm.engine import Scenario, comparison_density, estimate_bvm_mc, sweep
from bvm.metrics import GaussianLikelihoodSpec, bayesian_evidence
from bvm.rng import CHUNK_SIZE
from bvm.studies import _poly_config, builtin_configs, sweep_axes


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _uncertain_oscillator():
    return distribution_from_config({"type": "push_forward", **builtin_configs(0)["oscillator-uncertain-compound"]["model"]})


def test_oscillator_band_peak():
    model = _uncertain_oscillator()

    def band(n):
        doc = {"type": "epsilon_beta", "mean_tol": 1.0, "band": {"source": "model", "level": 0.95, "samples": n, "seed": 0}}
        return rule_from_config(doc, model)

    band(100)  # warm-up: lazy imports and caches stay out of the measurement
    assert _peak_mb(lambda: band(20_000)) <= 5.5


def test_oscillator_sample_peak():
    model = _uncertain_oscillator()
    model.sample(0, 10)
    assert _peak_mb(lambda: model.sample(0, 20_000)) <= 21.0


def test_uncertain_compound_mc_peak(monkeypatch):
    monkeypatch.delenv("BVM_THREADS", raising=False)  # one chunk in flight
    scenario = build_scenario(builtin_configs(0)["oscillator-uncertain-compound"]).scenario
    estimate_bvm_mc(scenario, 100, 0)
    assert _peak_mb(lambda: estimate_bvm_mc(scenario, 100_000, 0)) <= 7.1


class _InStep(AgreementRule):
    """An ``abs_diff`` threshold whose workers meet at a barrier holding
    their whole chunk working set, so that every pair of chunks peaks
    together. Left to the scheduler, two workers' peaks coincide in some
    short runs and not in others, and the peak of a 1e5-pair run reads
    0.219 or 0.288 MB."""

    def __init__(self, eps, workers):
        self.eps, self.barrier = eps, threading.Barrier(workers, timeout=60)

    def kernel_many(self, zhat_batch, z_batch):
        f = np.abs(np.subtract(zhat_batch, z_batch))
        inside = f <= self.eps
        w = inside.astype(float)
        self.barrier.wait()
        return w


@pytest.mark.parametrize("threads", ["1", "2"])
def test_scalar_mc_peak_does_not_grow_with_k(threads, monkeypatch):
    monkeypatch.setenv("BVM_THREADS", threads)
    scenario = Scenario(Normal(0.1, 1.0), Normal(-0.2, 0.8), _InStep(0.9, int(threads)))
    estimate_bvm_mc(scenario, 2 * CHUNK_SIZE, 0)
    # Whole pairs of chunks, so that no worker waits alone at the barrier.
    small = _peak_mb(lambda: estimate_bvm_mc(scenario, 24 * CHUNK_SIZE, 0))  # about 1e5
    large = _peak_mb(lambda: estimate_bvm_mc(scenario, 976 * CHUNK_SIZE, 0))  # about 4e6
    assert large <= 1.05 * small, (small, large)


def test_evidence_peak_does_not_grow_with_k(monkeypatch):
    monkeypatch.delenv("BVM_THREADS", raising=False)  # one chunk in flight
    x = np.linspace(0.0, 1.0, 50)
    lik = GaussianLikelihoodSpec(0.3, 0.3 + 0.5 * x - 0.2 * x**3, InputGrid(x))
    model, prior = polynomial_model([0, 1, 2, 3]), IndependentProduct([Normal(m, 0.2) for m in (0.3, 0.5, 0.0, -0.2)])
    bayesian_evidence(model, prior, lik, k=2 * CHUNK_SIZE, seed=1)
    small = _peak_mb(lambda: bayesian_evidence(model, prior, lik, k=100_000, seed=1))
    large = _peak_mb(lambda: bayesian_evidence(model, prior, lik, k=1_000_000, seed=1))
    assert large <= 1.5 * small, (small, large)


def test_comparison_density_peak_does_not_grow_with_k(monkeypatch):
    monkeypatch.delenv("BVM_THREADS", raising=False)  # one chunk in flight
    scenario = Scenario(Normal(0.1, 1.0), Normal(-0.2, 0.8), AlwaysTrue())
    comparison_density(scenario, "abs_diff", 2 * CHUNK_SIZE, 64, 2)
    small = _peak_mb(lambda: comparison_density(scenario, "abs_diff", 100_000, 64, 2))
    large = _peak_mb(lambda: comparison_density(scenario, "abs_diff", 1_000_000, 64, 2))
    assert large <= 1.5 * small, (small, large)


def test_certain_oscillator_band_peak():
    doc = builtin_configs(0)["oscillator-deterministic-compound"]

    def band():
        model = distribution_from_config({"type": "push_forward", **doc["model"]})
        return rule_from_config(doc["agreement"], model)

    band()  # warm-up on another model object: lazy imports stay out of the measurement
    assert _peak_mb(band) <= 10.0


def test_product_draw_chunk_peak():
    product = IndependentProduct([Normal(0.01 * i, 1.0 + 0.01 * i) for i in range(100)])
    product.draw_chunk(0, 0, 0, 10)
    assert _peak_mb(lambda: product.draw_chunk(1, 0, 0, CHUNK_SIZE)) <= 4.5


def test_mean_abs_error_peak():
    yhat, y = np.random.default_rng(0).normal(size=(2, CHUNK_SIZE, 100))
    mean_abs_error(yhat[:5], y[:5])
    assert _peak_mb(lambda: mean_abs_error(yhat, y)) <= 1.0


def test_gamma_epsilon_kernel_many_peak():
    yhat, y = np.random.default_rng(0).normal(size=(2, CHUNK_SIZE, 100))
    rule = GammaEpsilon(gamma=0.9, eps=np.full(100, 0.5), m=5.0)
    rule.kernel_many(yhat[:5], y[:5])
    assert _peak_mb(lambda: rule.kernel_many(yhat, y)) <= 1.0


def test_epsilon_beta_kernel_many_peak():
    yhat, y = np.random.default_rng(0).normal(size=(2, CHUNK_SIZE, 100))
    rule = EpsilonBeta(0.9, (np.full(100, -1.5), np.full(100, 1.5)))
    rule.kernel_many(yhat[:5], y[:5])
    assert _peak_mb(lambda: rule.kernel_many(yhat, y)) <= 0.5


def test_certain_oscillator_estimate_peak(monkeypatch):
    monkeypatch.delenv("BVM_THREADS", raising=False)  # one chunk in flight
    doc = builtin_configs(0)["oscillator-deterministic-mean_error"]
    estimate_bvm_mc(build_scenario(doc).scenario, 100, 0)  # warm-up on another model object
    scenario = build_scenario(doc).scenario
    assert _peak_mb(lambda: estimate_bvm_mc(scenario, CHUNK_SIZE, 0)) <= 8.5


def test_normal_sample_peak():
    Normal(0.0, 1.0).sample(3, 10)
    assert _peak_mb(lambda: Normal(0.0, 1.0).sample(3, 1_000_000)) <= 10.0


def test_grid_validate_peak(tmp_path):
    def validate(name):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(builtin_configs(0)[name]))
        assert main(["validate", "--config", str(cfg)]) == EXIT_OK

    validate("poly-deterministic-model2")  # warm-up
    assert _peak_mb(lambda: validate("poly-uncertain-model2")) <= 16.0


def _sweep_peak_mb(order, epsilons):
    template, _ = build_sweep_template(_poly_config(order, "uncertain", 0))
    gammas, _ = sweep_axes()
    sweep(template, gammas, epsilons[:3], m=5.0)  # warm-up: lazy imports and caches stay out of the measurement
    return _peak_mb(lambda: sweep(template, gammas, epsilons, m=5.0))


def test_uncertain_ex53_sweep_peak():
    assert _sweep_peak_mb(2, sweep_axes()[1]) <= 8.0


def test_long_eps_axis_sweep_peak():
    assert _sweep_peak_mb(1, np.linspace(0.0, 1.0, 10_001)) <= 24.0
