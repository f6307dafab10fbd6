"""Command-line inputs that the library would turn into a meaningless
result are config errors (exit 2): a two-sided rule given to a metric
that scores a single value, and a model prior that is not finite."""

import json

import pytest

from bvm.cli import EXIT_CONFIG, main

ABS_DIFF = {"type": "threshold", "fn": "abs_diff", "eps": 0.5}
METRIC_SECTIONS = {
    "area": {"name": "area", "samples_m": [0.0, 1.0, 2.0], "samples_d": [10.0, 11.0]},
    "binned_pdf": {"name": "binned_pdf", "edges": [0.0, 0.5, 1.0], "model_masses": [1.0, 0.0],
                   "data_counts": [0, 5], "draws": 10},
    "frequentist": {"name": "frequentist", "model_mean": 0.0, "data_summary": {"mean": 5.0, "std": 1.0, "n": 10}},
    "divergence": {"name": "divergence", "kind": "js", "edges": [0.0, 0.5, 1.0], "model_masses": [1.0, 0.0],
                   "data_masses": [0.0, 1.0]},
}


def write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name", METRIC_SECTIONS)
def test_single_value_metric_refuses_a_two_sided_rule(tmp_path, capsys, name):
    cfg = write(tmp_path, {"metric": METRIC_SECTIONS[name], "agreement": ABS_DIFF})
    assert main([name, "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: config field $.agreement: Threshold compares through 'abs_diff'")


@pytest.mark.parametrize("priors", [["--prior-m", "nan"], ["--prior-m", "inf", "--prior-m2", "inf"],
                                    ["--prior-m2=-inf"], ["--prior-m", "0"]])
def test_ratio_refuses_a_prior_that_is_not_finite_and_positive(tmp_path, capsys, priors):
    cfg = write(tmp_path, {
        "model": {"distribution": {"type": "normal", "mean": 0.0, "std": 1.0}},
        "data": {"distribution": {"type": "dirac", "value": 0.0}},
        "agreement": ABS_DIFF,
        "estimator": {"method": "mc", "samples": 100, "seed": 3},
    })
    assert main(["ratio", cfg, cfg, *priors]) == EXIT_CONFIG
    assert "model priors must be positive and finite" in capsys.readouterr().err
