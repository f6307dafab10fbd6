"""Bundled case studies with recorded targets.

Three self-contained validation problems exercise the whole stack and
check their outputs against recorded target bands, so a single command
can confirm the installation reproduces the expected numbers:

- ``ex-5.1`` (alias ``power``): rank three normal models of increasing
  spread against a Student-t data mean by the two-sided power product.
- ``ex-5.2`` (alias ``oscillator``): a noisy damped-oscillator path
  validated under a mean-error threshold and under the compound
  mean-error + coverage rule, with a deterministic and an uncertain
  parameter set.
- ``ex-5.3`` (alias ``poly-sweep``): two polynomial approximants of a
  cosine path swept over the (gamma, eps) rule family, with cellwise and
  averaged agreement ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .agreement import And, InRegion
from .config import build_scenario, build_sweep_template, distribution_from_config
from .engine import (
    Scenario,
    averaged_boolean_ratio,
    estimate_bvm_mc,
    ratio_grid,
    sweep,
)
from .metrics import statistical_power_bvm

__all__ = ["StudyReport", "run_study", "study_ids", "STUDY_ALIASES", "builtin_configs"]

# Oscillator study constants. Truth parameters and noise widths are part
# of the recorded study; the comparison grid is this package's convention.
_OSC_GRID = {"start": 0.0, "stop": 1.0, "num": 100}
_OSC_PARAMS = [1.0, 1.0, 1.0, 10.0, 1.0, 10.0]
_OSC_SIGMAS = [0.35, 0.3, 0.3, 0.3, 0.3, 0.3]
_ALEATORIC_STD = 0.4
_EPISTEMIC_STD = 0.2
_DET_MEAN_TOL = 0.46
_UNC_MEAN_TOL = 0.9

# Polynomial sweep constants.
_POLY_GRID = {"start": 0.0, "stop": float(np.pi), "num": 50}
_TAYLOR = [1.0, -1.0 / 2.0, 1.0 / 24.0, -1.0 / 720.0]
_POLY_SIGMAS = [0.1, 0.05, 0.005, 0.0005]
_SWEEP_M = 5.0

# Power study constants: data mean is t-distributed with the recorded
# location/dof/scale; the three candidate models widen around it.
_POWER_DATA = {"type": "student_t", "location": 0.0, "dof": 10.0, "scale": 1.75}
_POWER_MODEL_STDS = [0.5, 2.0, 8.0]


@dataclass
class StudyReport:
    """Computed values, target checks, and CSV-able artifacts of one study."""

    study: str
    seed: int
    values: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    grids: dict = field(default_factory=dict)

    def check(self, label: str, ok: bool, detail: str):
        self.checks.append((label, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def study_ids() -> list[str]:
    return ["ex-5.1", "ex-5.2", "ex-5.3"]


STUDY_ALIASES = {
    "power": "ex-5.1",
    "oscillator": "ex-5.2",
    "poly-sweep": "ex-5.3",
}


def _power_configs(seed: int) -> dict:
    return {
        f"power-model-{i}": {
            "metric": {"name": "power", "alpha": 0.05, "alpha_hat": 0.05, "region": "interval"},
            "model": {"distribution": {"type": "normal", "mean": 0.0, "std": std}},
            "data": {"distribution": dict(_POWER_DATA)},
            "estimator": {"method": "mc", "samples": 100_000, "seed": seed},
        }
        for i, std in enumerate(_POWER_MODEL_STDS)
    }


def _oscillator_config(variant: str, rule: str, seed: int) -> dict:
    if variant == "deterministic":
        prior = {"type": "product", "components": [{"type": "dirac", "value": p} for p in _OSC_PARAMS]}
        tol = _DET_MEAN_TOL
    else:
        prior = {
            "type": "product",
            "components": [
                {"type": "normal", "mean": p, "std": s} for p, s in zip(_OSC_PARAMS, _OSC_SIGMAS)
            ],
        }
        tol = _UNC_MEAN_TOL
    if rule == "mean_error":
        agreement = {"type": "threshold", "fn": "mean_abs_error", "eps": tol}
    else:
        agreement = {
            "type": "epsilon_beta",
            "mean_tol": tol,
            "coverage_lo": 0.91,
            "coverage_hi": 0.99,
            "band": {"source": "model", "level": 0.95, "samples": 20_000, "seed": seed},
        }
    return {
        "model": {
            "model_function": {"family": "damped_oscillator"},
            "prior": prior,
            "grid": dict(_OSC_GRID),
        },
        "data": {
            "generator": {
                "type": "function_instance",
                "function": {"family": "damped_oscillator"},
                "params": list(_OSC_PARAMS),
                "grid": dict(_OSC_GRID),
                "aleatoric_std": _ALEATORIC_STD,
                "epistemic_std": _EPISTEMIC_STD,
                "instance_seed": seed,
            }
        },
        "agreement": agreement,
        "estimator": {"method": "mc", "samples": 3000, "seed": seed},
    }


def _poly_config(order: int, variant: str, seed: int) -> dict:
    k = 3 if order == 1 else 4
    if variant == "deterministic":
        prior = {"type": "product", "components": [{"type": "dirac", "value": c} for c in _TAYLOR[:k]]}
    else:
        prior = {
            "type": "product",
            "components": [
                {"type": "normal", "mean": c, "std": s}
                for c, s in zip(_TAYLOR[:k], _POLY_SIGMAS[:k])
            ],
        }
    return {
        "model": {
            "model_function": {"family": "polynomial", "powers": [0, 2, 4, 6][:k]},
            "prior": prior,
            "grid": dict(_POLY_GRID),
        },
        "data": {"generator": {"type": "grid_function", "name": "cos", "grid": dict(_POLY_GRID)}},
        "agreement": {"type": "gamma_epsilon", "gamma": 0.9, "eps": 0.1, "m": _SWEEP_M},
        "estimator": {"method": "grid", "seed": seed, "points_per_param": 20, "span_sigmas": 3.0},
    }


def builtin_configs(seed: int = 0) -> dict:
    """Named config documents for every bundled study run."""
    out = dict(_power_configs(seed))
    for variant in ("deterministic", "uncertain"):
        for rule in ("mean_error", "compound"):
            out[f"oscillator-{variant}-{rule}"] = _oscillator_config(variant, rule, seed)
        for order in (1, 2):
            out[f"poly-{variant}-model{order}"] = _poly_config(order, variant, seed)
    return out


def sweep_axes():
    """The recorded (gamma, eps) axes: 26 gammas by 101 epsilons."""
    return np.linspace(0.75, 1.0, 26), np.linspace(0.0, 1.0, 101)


# ---------------------------------------------------------------------------
# ex-5.1


def _run_power(seed: int) -> StudyReport:
    report = StudyReport(study="ex-5.1", seed=seed)
    products = []
    for doc in _power_configs(seed).values():
        model = distribution_from_config(doc["model"]["distribution"])
        data = distribution_from_config(doc["data"]["distribution"])
        metric, std = doc["metric"], model.std
        res = statistical_power_bvm(model, data, metric["alpha"], metric["alpha_hat"], metric["region"])
        products.append(res.estimate.p_hat)
        report.values[f"power_product_std_{std}"] = res.estimate.p_hat
        report.values[f"power_model_in_data_std_{std}"] = res.power_model_in_data
        report.values[f"power_data_in_model_std_{std}"] = res.power_data_in_model
        # Brute force the same Boolean as a joint two-stream MC indicator.
        rule = And(
            [
                InRegion(res.data_region, side="model"),
                InRegion(res.model_region, side="data"),
            ]
        )
        est = doc["estimator"]
        mc = estimate_bvm_mc(Scenario(model, data, rule), est["samples"], est["seed"])
        z = abs(mc.p_hat - res.estimate.p_hat) / max(mc.std_error, 1e-12)
        report.check(
            f"model std={std}: product matches joint MC within 3 standard errors",
            z <= 3.0,
            f"closed {res.estimate.p_hat:.4f} vs MC {mc.p_hat:.4f} (z={z:.2f})",
        )
    mid_highest = products[1] > products[0] and products[1] > products[2]
    report.check(
        "middle-spread model ranks strictly highest",
        mid_highest,
        "products = " + ", ".join(f"{p:.4f}" for p in products),
    )
    return report


# ---------------------------------------------------------------------------
# ex-5.2


def _run_oscillator(seed: int) -> StudyReport:
    report = StudyReport(study="ex-5.2", seed=seed)
    results = {}
    for variant in ("deterministic", "uncertain"):
        for rule in ("mean_error", "compound"):
            built = build_scenario(_oscillator_config(variant, rule, seed))
            est = estimate_bvm_mc(built.scenario, built.estimator["samples"], built.estimator["seed"])
            results[(variant, rule)] = est
            report.values[f"{variant}_{rule}_p"] = est.p_hat
            report.values[f"{variant}_{rule}_std_error"] = est.std_error

    p = results[("deterministic", "mean_error")].p_hat
    report.check(
        f"deterministic mean-error acceptance at tol {_DET_MEAN_TOL} is at least 0.95 (target 0.99)",
        p >= 0.95,
        f"P = {p:.4f}",
    )
    p = results[("deterministic", "compound")].p_hat
    report.check(
        "deterministic compound rule rejects exactly (zero-width band)",
        p == 0.0,
        f"P = {p:.4f}",
    )
    p = results[("uncertain", "mean_error")].p_hat
    report.check(
        f"uncertain mean-error acceptance at tol {_UNC_MEAN_TOL} is at least 0.90 (target 0.96)",
        p >= 0.90,
        f"P = {p:.4f}",
    )
    p = results[("uncertain", "compound")].p_hat
    report.check(
        "uncertain compound acceptance lies in [0.85, 0.98] (target 0.93)",
        0.85 <= p <= 0.98,
        f"P = {p:.4f}",
    )
    return report


# ---------------------------------------------------------------------------
# ex-5.3


def _run_poly_sweep(seed: int) -> StudyReport:
    report = StudyReport(study="ex-5.3", seed=seed)
    gammas, epsilons = sweep_axes()
    grids = {}
    for variant in ("deterministic", "uncertain"):
        for order in (1, 2):
            template, estimator = build_sweep_template(_poly_config(order, variant, seed))
            grids[(variant, order)] = sweep(
                template, gammas, epsilons, m=_SWEEP_M, estimator=estimator["method"], seed=seed
            )
            report.grids[f"{variant}-model{order}"] = grids[(variant, order)]

    det1, det2 = grids[("deterministic", 1)], grids[("deterministic", 2)]
    binary = bool(
        np.isin(det1.values, (0.0, 1.0)).all() and np.isin(det2.values, (0.0, 1.0)).all()
    )
    report.check("deterministic sweep cells are exactly 0 or 1", binary, "")
    n1, n2 = det1.total(), det2.total()
    report.values["deterministic_agreements_model1"] = n1
    report.values["deterministic_agreements_model2"] = n2
    report.check(
        "higher-order model agrees strictly more often (deterministic)",
        n2 > n1,
        f"{n1:.0f} vs {n2:.0f}",
    )
    det_ratio = averaged_boolean_ratio(det1, det2)
    report.values["deterministic_averaged_ratio"] = det_ratio.value
    report.check(
        "deterministic averaged ratio lies in [0.35, 0.60] (target 0.4687)",
        det_ratio.status == "ok" and 0.35 <= det_ratio.value <= 0.60,
        f"ratio = {det_ratio.value:.4f}",
    )

    unc1, unc2 = grids[("uncertain", 1)], grids[("uncertain", 2)]
    unc_ratio = averaged_boolean_ratio(unc1, unc2)
    report.values["uncertain_averaged_ratio"] = unc_ratio.value
    report.check(
        "uncertain averaged ratio lies in [0.63, 0.87] (target 0.7471)",
        unc_ratio.status == "ok" and 0.63 <= unc_ratio.value <= 0.87,
        f"ratio = {unc_ratio.value:.4f}",
    )
    cells = ratio_grid(unc1, unc2)
    worst = 0.0
    violations = 0
    for row in cells:
        for j, cell in enumerate(row):
            if j == 0:
                continue  # the eps = 0 column is excluded: nothing agrees exactly
            if cell.status == "infinite":
                violations += 1
            elif cell.status == "ok":
                worst = max(worst, cell.value)
                if cell.value > 1.0 + 1e-12:
                    violations += 1
    report.values["uncertain_max_cell_ratio"] = worst
    report.check(
        "no cellwise ratio exceeds 1 outside the eps = 0 column",
        violations == 0,
        f"max cell ratio = {worst:.4f}",
    )
    return report


def run_study(study: str, seed: int = 0) -> StudyReport:
    """Run a bundled study by id ('ex-5.1'..'ex-5.3' or alias)."""
    study = STUDY_ALIASES.get(study, study)
    if study == "ex-5.1":
        return _run_power(seed)
    if study == "ex-5.2":
        return _run_oscillator(seed)
    if study == "ex-5.3":
        return _run_poly_sweep(seed)
    raise ValueError(f"unknown study '{study}'; choose from {study_ids()} or {sorted(STUDY_ALIASES)}")
