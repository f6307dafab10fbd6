"""Golden CLI runs: one per metric, pinned to exact stdout and record.

Each case runs ``bvm validate --config cfg.json --out record.json`` on a
config whose ``metric`` section names the metric, and checks the exit
code, every byte printed to stdout, and the JSON run record with its
``wall_time_s`` and ``environment`` dropped; the environment (library
versions and run settings) is checked on its own.
The inputs reach every branch of the metric front end: Monte Carlo
reliability (Student-t data), a vector tolerance, a soft frequentist
rule, highest-density-set power with alpha != alpha_hat, a two-point
evidence run whose config carries no agreement section, the area-metric
bootstrap, Dirichlet draws for the binned pdf, and a Hellinger
divergence.
"""

import json
import platform

import numpy as np
import pytest
import scipy

from bvm import __version__
from bvm.cli import EXIT_OK, main
from bvm.rng import CHUNK_SIZE

CASES = {
    "reliability": (
        {
            "metric": {"name": "reliability", "eps": 0.5},
            "model": {"distribution": {"type": "normal", "mean": 0.1, "std": 0.8}},
            "data": {"distribution": {"type": "student_t", "location": 0.0, "dof": 5.0, "scale": 1.2}},
            "estimator": {"method": "mc", "samples": 20000, "seed": 3},
        },
        (
            "P(agree) = 0.2534 +/- 0.0030756173364058148 [mc, n=20000, seed=3]\n"
        ),
        {
            "ci_hi": 0.25947506249417124,
            "ci_lo": 0.2474196496886996,
            "method": "mc",
            "n_samples": 20000,
            "p_hat": 0.2534,
            "seed": 3,
            "std_error": 0.0030756173364058148,
        },
    ),
    "improved_reliability": (
        {
            "metric": {"name": "improved_reliability", "eps": [0.3, 0.4, 0.5, 0.6]},
            "model": {
                "model_function": {"family": "polynomial", "powers": [0, 1]},
                "prior": {
                    "type": "product",
                    "components": [
                        {"type": "normal", "mean": 0.0, "std": 0.2},
                        {"type": "normal", "mean": 1.0, "std": 0.1},
                    ],
                },
                "grid": {"start": 0.0, "stop": 1.0, "num": 4},
            },
            "data": {"distribution": {"type": "dirac", "value": [0.0, 0.3, 0.7, 1.0]}},
            "estimator": {"method": "mc", "samples": 5000, "seed": 1},
        },
        (
            "P(agree) = 0.8778 +/- 0.004631784969102084 [mc, n=5000, seed=1]\n"
        ),
        {
            "ci_hi": 0.8865892424241612,
            "ci_lo": 0.8684306819861539,
            "method": "mc",
            "n_samples": 5000,
            "p_hat": 0.8778,
            "seed": 1,
            "std_error": 0.004631784969102084,
        },
    ),
    "frequentist": (
        {
            "metric": {
                "name": "frequentist",
                "model_mean": 0.1,
                "data_summary": {"mean": 0.0, "std": 1.0, "n": 12},
            },
            "agreement": {"type": "soft_exponential", "fn": "abs_value", "eps_prime": 0.3, "rate": 2.0},
        },
        (
            "P(agree) = 0.9020288265849559 +/- 0.0 [closedForm, n=0, seed=0]\n"
        ),
        {
            "ci_hi": 0.9020288265849559,
            "ci_lo": 0.9020288265849559,
            "method": "closedForm",
            "n_samples": 0,
            "p_hat": 0.9020288265849559,
            "seed": 0,
            "std_error": 0.0,
        },
    ),
    "power": (
        {
            "metric": {"name": "power", "alpha": 0.05, "alpha_hat": 0.1, "region": "set"},
            "model": {"distribution": {"type": "normal", "mean": 0.3, "std": 1.5}},
            "data": {"distribution": {"type": "student_t", "location": 0.0, "dof": 10.0, "scale": 1.75}},
            "estimator": {"method": "mc", "seed": 2},
        },
        (
            "P(agree) = 0.7981477049398097 +/- 0.0 [closedForm, n=0, seed=0]\n"
            "power_model_in_data = 0.9894278073143998\n"
            "power_data_in_model = 0.8066760394638787\n"
            "systematic_error = 0.14500000000000002\n"
        ),
        {
            "ci_hi": 0.7981477049398097,
            "ci_lo": 0.7981477049398097,
            "method": "closedForm",
            "n_samples": 0,
            "p_hat": 0.7981477049398097,
            "power_data_in_model": 0.8066760394638787,
            "power_model_in_data": 0.9894278073143998,
            "seed": 0,
            "std_error": 0.0,
            "systematic_error": 0.14500000000000002,
        },
    ),
    "classical": (
        {
            "metric": {"name": "classical", "alpha": 0.1},
            "data": {"distribution": {"type": "student_t", "location": 0.5, "dof": 8.0, "scale": 1.3}},
        },
        (
            "P(agree) = 0.9 +/- 0.0 [closedForm, n=0, seed=0]\n"
            "critical_interval = [-1.9174124487901678, 2.9174124487901665]\n"
        ),
        {
            "ci_hi": 0.9,
            "ci_lo": 0.9,
            "critical_interval": [-1.9174124487901678, 2.9174124487901665],
            "method": "closedForm",
            "n_samples": 0,
            "p_hat": 0.9,
            "seed": 0,
            "std_error": 0.0,
        },
    ),
    "evidence": (
        {
            "metric": {"name": "evidence", "sigma": 0.5, "data_y": [0.7, 0.9]},
            "model": {
                "model_function": {"family": "polynomial", "powers": [0, 1]},
                "prior": {
                    "type": "product",
                    "components": [
                        {"type": "normal", "mean": 0.0, "std": 1.0},
                        {"type": "normal", "mean": 0.0, "std": 0.5},
                    ],
                },
                "grid": {"points": [0.0, 1.0]},
            },
            "estimator": {"method": "mc", "samples": 20000, "seed": 5},
        },
        (
            "log evidence = -2.0634254372656127 +/- 0.010293307640180804 [n=20000, seed=5, ess=6412.221913479013, max weight share=0.00025057533251168583]\n"
        ),
        {
            "ess": 6412.221913479013,
            "log_evidence": -2.0634254372656127,
            "max_weight_share": 0.00025057533251168583,
            "n_samples": 20000,
            "seed": 5,
            "std_error_log": 0.010293307640180804,
        },
    ),
    "area": (
        {
            "metric": {
                "name": "area",
                "samples_m": [0.1, 0.4, 0.5, 0.9, 1.3, 1.6],
                "samples_d": [0.0, 0.35, 0.6, 0.8, 1.1, 1.2, 1.9],
                "bootstrap": 5000,
            },
            "agreement": {"type": "threshold", "fn": "identity", "eps": 0.25},
            "estimator": {"method": "mc", "seed": 4},
        },
        (
            "P(agree) = 0.4366 +/- 0.007013992301107837 [mc, n=5000, seed=4]\n"
        ),
        {
            "ci_hi": 0.4503906529184652,
            "ci_lo": 0.42290669168816813,
            "method": "mc",
            "n_samples": 5000,
            "p_hat": 0.4366,
            "seed": 4,
            "std_error": 0.007013992301107837,
        },
    ),
    "binned_pdf": (
        {
            "metric": {
                "name": "binned_pdf",
                "edges": [0.0, 0.25, 0.5, 0.75, 1.0],
                "model_masses": [0.2, 0.3, 0.3, 0.2],
                "data_counts": [18, 35, 27, 20],
            },
            "agreement": {"type": "threshold", "fn": "identity", "eps": 0.15},
            "estimator": {"method": "mc", "samples": 3000, "seed": 6},
        },
        (
            "P(agree) = 0.4693333333333333 +/- 0.009111523025918984 [mc, n=3000, seed=6]\n"
        ),
        {
            "ci_hi": 0.4872194287686292,
            "ci_lo": 0.45152567395319076,
            "method": "mc",
            "n_samples": 3000,
            "p_hat": 0.4693333333333333,
            "seed": 6,
            "std_error": 0.009111523025918984,
        },
    ),
    "divergence": (
        {
            "metric": {
                "name": "divergence",
                "kind": "hellinger",
                "edges": [0.0, 0.5, 1.0, 1.5],
                "model_masses": [0.3, 0.45, 0.25],
                "data_masses": [0.25, 0.5, 0.25],
            },
            "agreement": {"type": "threshold", "fn": "identity", "eps": 0.05},
        },
        (
            "P(agree) = 1.0 +/- 0.0 [closedForm, n=0, seed=0]\n"
        ),
        {
            "ci_hi": 1.0,
            "ci_lo": 1.0,
            "method": "closedForm",
            "n_samples": 0,
            "p_hat": 1.0,
            "seed": 0,
            "std_error": 0.0,
        },
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_metric_subcommand_output_and_record(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BVM_THREADS", raising=False)
    doc, stdout, estimate = CASES[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "record.json"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == stdout
    record = json.loads(out.read_text())
    assert record.pop("wall_time_s") >= 0.0
    assert record.pop("environment") == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bvm_threads": 1,
        "chunk_size": CHUNK_SIZE,
    }
    assert record == {
        "command": name,
        "config": doc,
        "agreement": doc.get("agreement"),
        "estimates": [estimate],
        "ratios": [],
        "version": __version__,
    }
