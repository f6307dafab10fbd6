"""Peak traced memory of sampling and of the model band.

``Distribution.sample`` copies each chunk into one output array as it is
drawn, and the band takes both quantiles in one pass that partitions that
array in place. A call therefore holds the output array and one chunk's
working set. The bounds were set before that change, between the old
peaks (a list of chunks plus their concatenation, then a copy per
quantile call: 32.4 MB for the band, 16.1 MB for the normal draws) and
the new ones (26.2 MB and 8.1 MB).
"""

import tracemalloc

from bvm import Normal
from bvm.config import distribution_from_config, rule_from_config
from bvm.studies import builtin_configs


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_oscillator_band_peak():
    model = distribution_from_config({"type": "push_forward", **builtin_configs(0)["oscillator-uncertain-compound"]["model"]})

    def band(n):
        doc = {"type": "epsilon_beta", "mean_tol": 1.0, "band": {"source": "model", "level": 0.95, "samples": n, "seed": 0}}
        return rule_from_config(doc, model)

    band(100)  # warm-up: lazy imports and caches stay out of the measurement
    assert _peak_mb(lambda: band(20_000)) <= 28.0


def test_normal_sample_peak():
    Normal(0.0, 1.0).sample(3, 10)
    assert _peak_mb(lambda: Normal(0.0, 1.0).sample(3, 1_000_000)) <= 10.0
