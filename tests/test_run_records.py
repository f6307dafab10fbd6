"""Golden CLI runs of ``validate`` and ``ratio``, pinned to exact stdout and record.

Each case writes its config (two for ``ratio``) and runs the subcommand
with ``--out record.json``. It checks the exit code, every byte printed
to stdout, and the JSON run record with ``wall_time_s`` and
``environment`` dropped; the environment is checked on its own. The
three ``validate`` runs are a scalar soft-rule Monte Carlo run whose
estimator section gives no sample count, the oscillator compound rule
with a band drawn from the model (``source: model``) at a small sample
count, and the grid method on a polynomial sweep config. The ``ratio``
run weighs two scalar models with unequal priors.
"""

import json
import platform

import numpy as np
import pytest
import scipy

from bvm import __version__
from bvm.cli import EXIT_OK, main
from bvm.rng import CHUNK_SIZE

_OSC_GRID = {"start": 0.0, "stop": 1.0, "num": 6}
_OSC_PARAMS = [1.0, 1.0, 1.0, 10.0, 1.0, 10.0]
_OSC_SIGMAS = [0.35, 0.3, 0.3, 0.3, 0.3, 0.3]
_POLY_GRID = {"start": 0.0, "stop": 2.0, "num": 10}

# name -> (config, stdout, resolved estimator section, agreement, estimate)
VALIDATE_CASES = {
    "mc-scalar": (
        {
            "model": {"distribution": {"type": "normal", "mean": 0.2, "std": 1.1}},
            "data": {"distribution": {"type": "student_t", "location": 0.0, "dof": 6.0, "scale": 0.9}},
            "agreement": {"type": "soft_exponential", "fn": "abs_diff", "eps_prime": 0.5, "rate": 2.0},
            "estimator": {"method": "mc", "seed": 5},
        },
        (
            "P(agree) = 0.4657103650715066 +/- 0.003969659062885525 [mc, n=10000, seed=5]\n"
            'agreement: {"eps_prime": 0.5, "fn": "abs_diff", "rate": 2.0, "type": "soft_exponential"}\n'
        ),
        {"method": "mc", "samples": 10000, "seed": 5},
        {"eps_prime": 0.5, "fn": "abs_diff", "rate": 2.0, "type": "soft_exponential"},
        {
            "ci_hi": 0.47349075386566525,
            "ci_lo": 0.45792997627734794,
            "method": "mc",
            "n_samples": 10000,
            "p_hat": 0.4657103650715066,
            "seed": 5,
            "std_error": 0.003969659062885525,
        },
    ),
    "oscillator-compound": (
        {
            "model": {
                "model_function": {"family": "damped_oscillator"},
                "prior": {
                    "type": "product",
                    "components": [
                        {"type": "normal", "mean": p, "std": s} for p, s in zip(_OSC_PARAMS, _OSC_SIGMAS)
                    ],
                },
                "grid": _OSC_GRID,
            },
            "data": {
                "generator": {
                    "type": "function_instance",
                    "function": {"family": "damped_oscillator"},
                    "params": _OSC_PARAMS,
                    "grid": _OSC_GRID,
                    "aleatoric_std": 0.4,
                    "epistemic_std": 0.2,
                    "instance_seed": 1,
                }
            },
            "agreement": {
                "type": "epsilon_beta",
                "mean_tol": 0.9,
                "coverage_lo": 0.5,
                "coverage_hi": 1.0,
                "band": {"source": "model", "level": 0.95, "samples": 500, "seed": 1},
            },
            "estimator": {"method": "mc", "samples": 3000, "seed": 1},
        },
        (
            "P(agree) = 0.937 +/- 0.004435876463563879 [mc, n=3000, seed=1]\n"
            'agreement: {"band": {"hi": [1.682304068278825, 3.092048579486246, 2.16234245200015, '
            "1.755925515573667, 4.240868193304919, 5.214731964949503], "
            '"lo": [0.3414747172144914, 1.3708721204574474, 0.12361983107303019, '
            "0.21464886204330336, 1.7837601657185407, 1.0604729098978432]}, "
            '"coverage_hi": 1.0, "coverage_lo": 0.5, "mean_tol": 0.9, "type": "epsilon_beta"}\n'
        ),
        {"method": "mc", "samples": 3000, "seed": 1},
        {
            "band": {
                "hi": [
                    1.682304068278825,
                    3.092048579486246,
                    2.16234245200015,
                    1.755925515573667,
                    4.240868193304919,
                    5.214731964949503,
                ],
                "lo": [
                    0.3414747172144914,
                    1.3708721204574474,
                    0.12361983107303019,
                    0.21464886204330336,
                    1.7837601657185407,
                    1.0604729098978432,
                ],
            },
            "coverage_hi": 1.0,
            "coverage_lo": 0.5,
            "mean_tol": 0.9,
            "type": "epsilon_beta",
        },
        {
            "ci_hi": 0.9451476946707422,
            "ci_lo": 0.927734591543323,
            "method": "mc",
            "n_samples": 3000,
            "p_hat": 0.937,
            "seed": 1,
            "std_error": 0.004435876463563879,
        },
    ),
    "grid": (
        {
            "model": {
                "model_function": {"family": "polynomial", "powers": [0, 2, 4]},
                "prior": {
                    "type": "product",
                    "components": [
                        {"type": "normal", "mean": 1.0, "std": 0.1},
                        {"type": "normal", "mean": -0.5, "std": 0.05},
                        {"type": "dirac", "value": 1.0 / 24.0},
                    ],
                },
                "grid": _POLY_GRID,
            },
            "data": {"generator": {"type": "grid_function", "name": "cos", "grid": _POLY_GRID}},
            "agreement": {"type": "gamma_epsilon", "gamma": 0.9, "eps": 0.1, "m": 5.0},
            "estimator": {"method": "grid", "seed": 0, "points_per_param": 7, "span_sigmas": 2.5},
        },
        (
            "P(agree) = 0.37914276076073744 +/- 0.0 [grid, n=49, seed=0]\n"
            'agreement: {"eps": 0.1, "gamma": 0.9, "m": 5.0, "type": "gamma_epsilon"}\n'
        ),
        {"method": "grid", "points_per_param": 7, "seed": 0, "span_sigmas": 2.5},
        {"eps": 0.1, "gamma": 0.9, "m": 5.0, "type": "gamma_epsilon"},
        {
            "ci_hi": 0.37914276076073744,
            "ci_lo": 0.37914276076073744,
            "method": "grid",
            "n_samples": 49,
            "p_hat": 0.37914276076073744,
            "seed": 0,
            "std_error": 0.0,
        },
    ),
}

_RATIO_M = {
    "model": {"distribution": {"type": "normal", "mean": 0.0, "std": 0.5}},
    "data": {"distribution": {"type": "uniform", "lo": -1.0, "hi": 1.0}},
    "agreement": {"type": "threshold", "fn": "abs_diff", "eps": 0.4},
    "estimator": {"method": "mc", "samples": 8000, "seed": 2},
}
_RATIO_M2 = {**_RATIO_M, "model": {"distribution": {"type": "normal", "mean": 0.3, "std": 1.5}}}


def _read_record(path) -> dict:
    record = json.loads(path.read_text())
    assert record.pop("wall_time_s") >= 0.0
    assert record.pop("environment") == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bvm_threads": 1,
        "chunk_size": CHUNK_SIZE,
    }
    return record


@pytest.mark.parametrize("name", list(VALIDATE_CASES))
def test_validate_output_and_record(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BVM_THREADS", raising=False)
    doc, stdout, estimator, agreement, estimate = VALIDATE_CASES[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "record.json"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == stdout
    assert _read_record(out) == {
        "command": "validate",
        "config": {**doc, "estimator": estimator},
        "agreement": agreement,
        "estimates": [estimate],
        "ratios": [],
        "version": __version__,
    }


def test_ratio_output_and_record(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BVM_THREADS", raising=False)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_RATIO_M))
    b.write_text(json.dumps(_RATIO_M2))
    out = tmp_path / "record.json"
    assert main(["ratio", str(a), str(b), "--prior-m", "2", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "K = 1.8611793611793612 [status=ok]\n"
        "R = 3.7223587223587224 [status=ok]\n"
    )
    assert _read_record(out) == {
        "command": "ratio",
        "config": {"model": _RATIO_M, "model_other": _RATIO_M2, "prior_m": 2.0, "prior_m_other": 1.0},
        "agreement": _RATIO_M["agreement"],
        "estimates": [
            {
                "ci_hi": 0.3894352970604658,
                "ci_lo": 0.3681810912724129,
                "method": "mc",
                "n_samples": 8000,
                "p_hat": 0.37875,
                "seed": 2,
                "std_error": 0.0054233112290832065,
            },
            {
                "ci_hi": 0.2124635625943958,
                "ci_lo": 0.194821048875283,
                "method": "mc",
                "n_samples": 8000,
                "p_hat": 0.2035,
                "seed": 2,
                "std_error": 0.00450121858500562,
            },
        ],
        "ratios": [
            {"label": "factor", "status": "ok", "value": 1.8611793611793612},
            {"label": "ratio", "status": "ok", "value": 3.7223587223587224},
        ],
        "version": __version__,
    }
