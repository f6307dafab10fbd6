"""Peak traced memory of sampling, of the model band and of grid ``validate``.

``Distribution.sample`` copies each chunk into one output array as it is
drawn, and the band takes both quantiles in one pass that partitions that
array in place. A call therefore holds the output array and one chunk's
working set. The bounds were set before that change, between the old
peaks (a list of chunks plus their concatenation, then a copy per
quantile call: 32.4 MB for the band, 16.1 MB for the normal draws) and
the new ones (26.2 MB and 8.1 MB).

Grid ``bvm validate`` scores its model paths one block at a time, as a
sweep reads them. Its bound was set before that change, when the call
held all 160 000 paths of the uncertain ex-5.3 model 2 (50 points each)
and the data path tiled to as many rows: 257.3 MB.

A certain oscillator (every prior component a point mass) evaluates one
chunk of paths and keeps it, and its band is that chunk's one row. Its
bound of 10 MB was set before that change, when the band drew and
partitioned 20 000 copies of the path: 26.2 MB. The first evaluation
runs inside the trace.
"""

import json
import tracemalloc

from bvm import Normal
from bvm.cli import EXIT_OK, main
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


def test_certain_oscillator_band_peak():
    doc = builtin_configs(0)["oscillator-deterministic-compound"]

    def band():
        model = distribution_from_config({"type": "push_forward", **doc["model"]})
        return rule_from_config(doc["agreement"], model)

    band()  # warm-up on another model object: lazy imports stay out of the measurement
    assert _peak_mb(band) <= 10.0


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
