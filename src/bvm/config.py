"""Scenario configuration: JSON schema, parsing, and serialisation.

A scenario document bundles the four estimator inputs (model, data,
comparison, agreement) plus estimator and output settings as tagged
records. Documents are schema-validated before anything runs; unknown
keys are rejected so that typos fail loudly rather than silently using
defaults.

The metric table ``METRICS`` lists each metric subcommand once: the
fields of its ``metric`` section, from which the schema is built, and the
runner that builds its inputs from the document and calls the metric.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from jsonschema import Draft202012Validator

from . import agreement as ag
from . import distributions as dist
from .comparison import BinnedPdf, get_comparison_fn
from .engine import Scenario, SweepTemplate
from .metrics import (
    DataSummary,
    GaussianLikelihoodSpec,
    area_metric_validation,
    bayesian_evidence,
    binned_pdf_metric,
    classical_hypothesis,
    divergence_validation,
    frequentist,
    improved_reliability,
    reliability,
    statistical_power_bvm,
)
from .models import InputGrid, ModelFunction, damped_oscillator_model, polynomial_model
from .rng import BAND_STREAM, INSTANCE_STREAM, chunk_rng

__all__ = [
    "ConfigError",
    "validate_config",
    "load_config",
    "build_scenario",
    "build_sweep_template",
    "distribution_from_config",
    "distribution_to_config",
    "rule_from_config",
    "rule_to_config",
    "model_function_from_config",
    "model_function_to_config",
    "grid_from_config",
    "grid_to_config",
    "SCENARIO_SCHEMA",
    "DEFAULT_SAMPLES",
    "METRICS",
    "Metric",
]


class ConfigError(Exception):
    """A configuration document is malformed; the message names the field."""


# ---------------------------------------------------------------------------
# Schema

_NUM = {"type": "number"}
_NUM_ARRAY = {"type": "array", "items": _NUM, "minItems": 1}

_GRID = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"start": _NUM, "stop": _NUM, "num": {"type": "integer", "minimum": 1}},
            "required": ["start", "stop", "num"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"points": _NUM_ARRAY},
            "required": ["points"],
            "additionalProperties": False,
        },
    ]
}

_MODEL_FUNCTION = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "family": {"const": "polynomial"},
                "powers": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1},
            },
            "required": ["family", "powers"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"family": {"const": "damped_oscillator"}},
            "required": ["family"],
            "additionalProperties": False,
        },
    ]
}

_DISTRIBUTION: dict = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"type": {"const": "dirac"}, "value": {"oneOf": [_NUM, _NUM_ARRAY]}},
            "required": ["type", "value"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"type": {"const": "normal"}, "mean": _NUM, "std": _NUM},
            "required": ["type", "mean", "std"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"type": {"const": "student_t"}, "location": _NUM, "dof": _NUM, "scale": _NUM},
            "required": ["type", "location", "dof", "scale"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"type": {"const": "uniform"}, "lo": _NUM, "hi": _NUM},
            "required": ["type", "lo", "hi"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"type": {"const": "shifted_exponential"}, "rate": _NUM, "shift": _NUM},
            "required": ["type", "rate"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "categorical"},
                "values": {"type": "array", "items": {"type": ["number", "string"]}, "minItems": 1},
                "probs": _NUM_ARRAY,
            },
            "required": ["type", "values", "probs"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "empirical"},
                "samples": {"type": "array", "items": {"oneOf": [_NUM, _NUM_ARRAY]}, "minItems": 1},
            },
            "required": ["type", "samples"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"type": {"const": "product"}, "components": {"type": "array", "items": {"$ref": "#/$defs/distribution"}, "minItems": 1}},
            "required": ["type", "components"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "push_forward"},
                "prior": {"$ref": "#/$defs/distribution"},
                "model_function": _MODEL_FUNCTION,
                "grid": _GRID,
            },
            "required": ["type", "prior", "model_function", "grid"],
            "additionalProperties": False,
        },
    ]
}

_FN_NAME = {"type": "string"}

_BAND = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"lo": _NUM_ARRAY, "hi": _NUM_ARRAY},
            "required": ["lo", "hi"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "source": {"const": "model"},
                "level": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "samples": {"type": "integer", "minimum": 100},
                "seed": {"type": "integer", "minimum": 0},
            },
            "required": ["source", "level"],
            "additionalProperties": False,
        },
    ]
}

_REGION = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["interval", "set"]},
        "level": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "intervals": {"type": "array", "items": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}},
        "labels": {"type": "array", "items": {"type": ["number", "string"]}},
    },
    "required": ["kind", "level"],
    "additionalProperties": False,
}

_RULE: dict = {
    "oneOf": [
        {"type": "object", "properties": {"type": {"const": "always_true"}}, "required": ["type"], "additionalProperties": False},
        {"type": "object", "properties": {"type": {"const": "always_false"}}, "required": ["type"], "additionalProperties": False},
        {
            "type": "object",
            "properties": {"type": {"const": "threshold"}, "fn": _FN_NAME, "eps": _NUM, "bins": {"type": "integer", "minimum": 1}},
            "required": ["type", "fn", "eps"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"type": {"const": "interval"}, "fn": _FN_NAME, "lo": _NUM, "hi": _NUM},
            "required": ["type", "fn", "lo", "hi"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "set_membership"},
                "synonyms": {"type": "object", "additionalProperties": {"type": "array", "items": {"type": ["number", "string"]}}},
            },
            "required": ["type", "synonyms"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"type": {"const": "in_region"}, "side": {"enum": ["model", "data"]}, "region": _REGION},
            "required": ["type", "side", "region"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"type": {"const": "soft_exponential"}, "fn": _FN_NAME, "eps_prime": _NUM, "rate": {"type": "number", "exclusiveMinimum": 0}},
            "required": ["type", "fn", "eps_prime", "rate"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "gamma_epsilon"},
                "gamma": {"type": "number", "minimum": 0, "maximum": 1},
                "eps": {"oneOf": [_NUM, _NUM_ARRAY]},
                "m": {"type": "number", "minimum": 1},
            },
            "required": ["type", "gamma", "eps", "m"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "epsilon_beta"},
                "mean_tol": _NUM,
                "coverage_lo": {"type": "number", "minimum": 0, "maximum": 1},
                "coverage_hi": {"type": "number", "minimum": 0, "maximum": 1},
                "band": _BAND,
            },
            "required": ["type", "mean_tol", "band"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"type": {"const": "and"}, "children": {"type": "array", "items": {"$ref": "#/$defs/rule"}, "minItems": 1}},
            "required": ["type", "children"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"type": {"const": "or"}, "children": {"type": "array", "items": {"$ref": "#/$defs/rule"}, "minItems": 1}},
            "required": ["type", "children"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"type": {"const": "not"}, "child": {"$ref": "#/$defs/rule"}},
            "required": ["type", "child"],
            "additionalProperties": False,
        },
    ]
}

_GENERATOR = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "type": {"const": "function_instance"},
                "function": _MODEL_FUNCTION,
                "params": _NUM_ARRAY,
                "grid": _GRID,
                "aleatoric_std": {"type": "number", "minimum": 0},
                "epistemic_std": {"type": "number", "minimum": 0},
                "instance_seed": {"type": "integer", "minimum": 0},
            },
            "required": ["type", "function", "params", "grid", "aleatoric_std", "epistemic_std", "instance_seed"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"type": {"const": "grid_function"}, "name": {"enum": ["cos", "sin"]}, "grid": _GRID},
            "required": ["type", "name", "grid"],
            "additionalProperties": False,
        },
    ]
}

_MODEL_SECTION = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"distribution": {"$ref": "#/$defs/distribution"}},
            "required": ["distribution"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"model_function": _MODEL_FUNCTION, "prior": {"$ref": "#/$defs/distribution"}, "grid": _GRID},
            "required": ["model_function", "prior", "grid"],
            "additionalProperties": False,
        },
    ]
}

_DATA_SECTION = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"distribution": {"$ref": "#/$defs/distribution"}},
            "required": ["distribution"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"generator": _GENERATOR},
            "required": ["generator"],
            "additionalProperties": False,
        },
    ]
}

_ESTIMATOR = {
    "type": "object",
    "properties": {
        "method": {"enum": ["mc", "grid"]},
        "samples": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "bins": {"type": "integer", "minimum": 1},
        "points_per_param": {"type": "integer", "minimum": 1},
        "span_sigmas": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["method", "seed"],
    "additionalProperties": False,
}

_OUTPUT = {
    "type": "object",
    "properties": {"path": {"type": "string"}, "format": {"enum": ["csv", "json"]}},
    "additionalProperties": False,
}

# ---------------------------------------------------------------------------
# Metric table: each metric subcommand is one entry


# Sample count of an estimator section that gives none.
DEFAULT_SAMPLES = 10_000


class Metric(NamedTuple):
    """One metric subcommand: the fields of its ``metric`` config section
    besides ``name``, and how it runs.

    ``run(doc, section, samples, seed)`` returns ``(result, extras)``: the
    result dataclass (a ``BvmEstimate``, or an ``EvidenceResult``) and a
    dict of further named numbers, both written to the run record.
    """

    properties: dict
    required: tuple
    run: Callable[[dict, dict, int, int], tuple]


def _section(doc: dict, name: str) -> dict:
    if not doc.get(name):
        raise ConfigError(f"config field $.{name}: section is required for this command")
    return doc[name]


def _model_dist(doc: dict) -> dist.Distribution:
    return _model_dist_from_section(_section(doc, "model"))


def _data_dist(doc: dict) -> dist.Distribution:
    return _data_dist_from_section(_section(doc, "data"))


def _rule(doc: dict) -> ag.AgreementRule:
    return rule_from_config(_section(doc, "agreement"))


def _run_reliability(doc, metric, samples, seed):
    return reliability(_model_dist(doc), _data_dist(doc), eps=metric["eps"], k=samples, seed=seed), {}


def _run_improved_reliability(doc, metric, samples, seed):
    return improved_reliability(_model_dist(doc), _data_dist(doc), eps=metric["eps"], k=samples, seed=seed), {}


def _run_frequentist(doc, metric, samples, seed):
    ds = metric["data_summary"]
    return frequentist(metric["model_mean"], DataSummary(ds["mean"], ds["std"], ds["n"]), _rule(doc)), {}


def _run_power(doc, metric, samples, seed):
    res = statistical_power_bvm(
        _model_dist(doc),
        _data_dist(doc),
        alpha=metric["alpha"],
        alpha_hat=metric["alpha_hat"],
        region_kind=metric.get("region", "interval"),
        seed=seed,
    )
    extras = {
        "power_model_in_data": res.power_model_in_data,
        "power_data_in_model": res.power_data_in_model,
        "systematic_error": res.systematic_error,
    }
    return res.estimate, extras


def _run_classical(doc, metric, samples, seed):
    res = classical_hypothesis(_data_dist(doc), metric["alpha"])
    return res.estimate, {"critical_interval": [res.interval.lo, res.interval.hi]}


def _run_evidence(doc, metric, samples, seed):
    model_sec = doc.get("model", {})
    if "model_function" not in model_sec:
        raise ConfigError("config field $.model: evidence needs model_function + prior + grid")
    grid = grid_from_config(model_sec["grid"])
    res = bayesian_evidence(
        model_function_from_config(model_sec["model_function"]),
        distribution_from_config(model_sec["prior"]),
        GaussianLikelihoodSpec(metric["sigma"], metric["data_y"], grid),
        k=samples,
        seed=seed,
    )
    return res, {}


def _run_area(doc, metric, samples, seed):
    est = area_metric_validation(
        metric["samples_m"], metric["samples_d"], _rule(doc), bootstrap=metric.get("bootstrap", 0), seed=seed
    )
    return est, {}


def _run_binned_pdf(doc, metric, samples, seed):
    pdf = BinnedPdf(metric["edges"], metric["model_masses"])
    return binned_pdf_metric(pdf, metric["data_counts"], _rule(doc), r=metric.get("draws", samples), seed=seed), {}


def _run_divergence(doc, metric, samples, seed):
    model_pdf = BinnedPdf(metric["edges"], metric["model_masses"])
    data_pdf = BinnedPdf(metric["edges"], metric["data_masses"])
    return divergence_validation(model_pdf, data_pdf, metric["kind"], _rule(doc), seed=seed), {}


METRICS: dict[str, Metric] = {
    "reliability": Metric({"eps": _NUM}, ("eps",), _run_reliability),
    "improved_reliability": Metric({"eps": {"oneOf": [_NUM, _NUM_ARRAY]}}, ("eps",), _run_improved_reliability),
    "frequentist": Metric(
        {
            "model_mean": _NUM,
            "data_summary": {
                "type": "object",
                "properties": {"mean": _NUM, "std": {"type": "number", "exclusiveMinimum": 0}, "n": {"type": "integer", "minimum": 2}},
                "required": ["mean", "std", "n"],
                "additionalProperties": False,
            },
        },
        ("model_mean", "data_summary"),
        _run_frequentist,
    ),
    "power": Metric(
        {
            "alpha": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
            "alpha_hat": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
            "region": {"enum": ["interval", "set"]},
        },
        ("alpha", "alpha_hat"),
        _run_power,
    ),
    "classical": Metric(
        {"alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}}, ("alpha",), _run_classical
    ),
    "evidence": Metric(
        {"sigma": {"type": "number", "exclusiveMinimum": 0}, "data_y": _NUM_ARRAY}, ("sigma", "data_y"), _run_evidence
    ),
    "area": Metric(
        {"samples_m": _NUM_ARRAY, "samples_d": _NUM_ARRAY, "bootstrap": {"type": "integer", "minimum": 0}},
        ("samples_m", "samples_d"),
        _run_area,
    ),
    "binned_pdf": Metric(
        {"edges": _NUM_ARRAY, "model_masses": _NUM_ARRAY, "data_counts": _NUM_ARRAY, "draws": {"type": "integer", "minimum": 1}},
        ("edges", "model_masses", "data_counts"),
        _run_binned_pdf,
    ),
    "divergence": Metric(
        {
            "kind": {"enum": ["kl", "sym_kl", "js", "hellinger"]},
            "edges": _NUM_ARRAY,
            "model_masses": _NUM_ARRAY,
            "data_masses": _NUM_ARRAY,
        },
        ("kind", "edges", "model_masses", "data_masses"),
        _run_divergence,
    ),
}


def _metric_schema(name: str, metric: Metric) -> dict:
    return {
        "type": "object",
        "properties": {"name": {"const": name}, **metric.properties},
        "required": ["name", *metric.required],
        "additionalProperties": False,
    }


SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "model": _MODEL_SECTION,
        "data": _DATA_SECTION,
        "comparison": {
            "type": "object",
            "properties": {"fn": _FN_NAME, "bins": {"type": "integer", "minimum": 1}},
            "required": ["fn"],
            "additionalProperties": False,
        },
        "agreement": {"$ref": "#/$defs/rule"},
        "estimator": _ESTIMATOR,
        "output": _OUTPUT,
        "metric": {"oneOf": [_metric_schema(name, m) for name, m in METRICS.items()]},
    },
    "required": [],
    "additionalProperties": False,
    "$defs": {"distribution": _DISTRIBUTION, "rule": _RULE},
}

_VALIDATOR = Draft202012Validator(SCENARIO_SCHEMA)


def validate_config(doc: dict) -> dict:
    """Schema-check a config document; raises ConfigError naming the field."""
    errors = sorted(_VALIDATOR.iter_errors(doc), key=lambda e: len(e.absolute_path), reverse=True)
    if errors:
        err = errors[0]
        path = "$" + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in err.absolute_path
        )
        raise ConfigError(f"config field {path}: {err.message}")
    return doc


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return validate_config(doc)


# ---------------------------------------------------------------------------
# Builders (config dict -> objects)


def grid_from_config(doc: dict) -> InputGrid:
    if "points" in doc:
        return InputGrid(np.asarray(doc["points"], dtype=float))
    return InputGrid.linspace(doc["start"], doc["stop"], doc["num"])


def grid_to_config(grid: InputGrid) -> dict:
    return {"points": [float(x) for x in grid.points]}


def model_function_from_config(doc: dict) -> ModelFunction:
    if doc["family"] == "polynomial":
        return polynomial_model(doc["powers"])
    if doc["family"] == "damped_oscillator":
        return damped_oscillator_model()
    raise ConfigError(f"unknown model function family '{doc['family']}'")


def model_function_to_config(mf: ModelFunction) -> dict:
    if mf.name.startswith("poly_"):
        return {"family": "polynomial", "powers": [int(p) for p in mf.name.split("_")[1:]]}
    if mf.name == "damped_oscillator":
        return {"family": "damped_oscillator"}
    raise ConfigError(f"model function '{mf.name}' has no config form")


def distribution_from_config(doc: dict) -> dist.Distribution:
    t = doc["type"]
    try:
        if t == "dirac":
            return dist.DiracDelta(doc["value"])
        if t == "normal":
            return dist.Normal(doc["mean"], doc["std"])
        if t == "student_t":
            return dist.StudentT(doc["location"], doc["dof"], doc["scale"])
        if t == "uniform":
            return dist.Uniform(doc["lo"], doc["hi"])
        if t == "shifted_exponential":
            return dist.ShiftedExponential(doc["rate"], doc.get("shift", 0.0))
        if t == "categorical":
            return dist.Categorical(doc["values"], doc["probs"])
        if t == "empirical":
            return dist.Empirical(np.asarray(doc["samples"], dtype=float))
        if t == "product":
            return dist.IndependentProduct([distribution_from_config(c) for c in doc["components"]])
        if t == "push_forward":
            return dist.PushForward(
                distribution_from_config(doc["prior"]),
                model_function_from_config(doc["model_function"]),
                grid_from_config(doc["grid"]),
            )
    except ValueError as exc:
        raise ConfigError(f"bad distribution parameters for type '{t}': {exc}") from None
    raise ConfigError(f"unknown distribution type '{t}'")


def distribution_to_config(d: dist.Distribution) -> dict:
    if isinstance(d, dist.DiracDelta):
        v = d.value
        return {"type": "dirac", "value": float(v) if np.ndim(v) == 0 else [float(x) for x in v]}
    if isinstance(d, dist.Normal):
        return {"type": "normal", "mean": d.mean, "std": d.std}
    if isinstance(d, dist.StudentT):
        return {"type": "student_t", "location": d.location, "dof": d.dof, "scale": d.scale}
    if isinstance(d, dist.Uniform):
        return {"type": "uniform", "lo": d.lo, "hi": d.hi}
    if isinstance(d, dist.ShiftedExponential):
        return {"type": "shifted_exponential", "rate": d.rate, "shift": d.shift}
    if isinstance(d, dist.Categorical):
        return {"type": "categorical", "values": list(d.values), "probs": list(d.probs)}
    if isinstance(d, dist.Empirical):
        return {"type": "empirical", "samples": d.samples.tolist()}
    if isinstance(d, dist.IndependentProduct):
        return {"type": "product", "components": [distribution_to_config(c) for c in d.components]}
    if isinstance(d, dist.PushForward):
        return {
            "type": "push_forward",
            "prior": distribution_to_config(d.prior),
            "model_function": model_function_to_config(d.model),
            "grid": grid_to_config(d.grid),
        }
    raise ConfigError(f"distribution {type(d).__name__} has no config form")


def _region_from_config(doc: dict) -> dist.ConfidenceRegion:
    return dist.ConfidenceRegion(
        kind=doc["kind"],
        level=doc["level"],
        intervals=tuple((float(a), float(b)) for a, b in doc.get("intervals", [])),
        labels=tuple(doc.get("labels", [])),
    )


def _region_to_config(r: dist.ConfidenceRegion) -> dict:
    out: dict = {"kind": r.kind, "level": r.level}
    if r.intervals:
        out["intervals"] = [[lo, hi] for lo, hi in r.intervals]
    if r.labels:
        out["labels"] = list(r.labels)
    return out


def rule_from_config(doc: dict, model_dist: dist.Distribution | None = None) -> ag.AgreementRule:
    """Build a rule tree; a band with ``source: model`` is resolved against
    the scenario's model path distribution."""
    t = doc["type"]
    try:
        if t == "always_true":
            return ag.AlwaysTrue()
        if t == "always_false":
            return ag.AlwaysFalse()
        if t == "threshold":
            fn = get_comparison_fn(doc["fn"], bins=doc["bins"]) if "bins" in doc else get_comparison_fn(doc["fn"])
            return ag.Threshold(fn, doc["eps"])
        if t == "interval":
            return ag.Interval(get_comparison_fn(doc["fn"]), doc["lo"], doc["hi"])
        if t == "set_membership":
            return ag.SetMembership({k: tuple(v) for k, v in doc["synonyms"].items()})
        if t == "in_region":
            return ag.InRegion(_region_from_config(doc["region"]), doc["side"])
        if t == "soft_exponential":
            return ag.SoftExponential(get_comparison_fn(doc["fn"]), doc["eps_prime"], doc["rate"])
        if t == "gamma_epsilon":
            return ag.GammaEpsilon(gamma=doc["gamma"], eps=doc["eps"], m=doc["m"])
        if t == "epsilon_beta":
            band = _band_from_config(doc["band"], model_dist)
            return ag.EpsilonBeta(
                doc["mean_tol"],
                band,
                coverage_lo=doc.get("coverage_lo", 0.91),
                coverage_hi=doc.get("coverage_hi", 0.99),
            )
        if t == "and":
            return ag.And([rule_from_config(c, model_dist) for c in doc["children"]])
        if t == "or":
            return ag.Or([rule_from_config(c, model_dist) for c in doc["children"]])
        if t == "not":
            return ag.Not(rule_from_config(doc["child"], model_dist))
    except ValueError as exc:
        raise ConfigError(f"bad agreement rule '{t}': {exc}") from None
    raise ConfigError(f"unknown agreement rule type '{t}'")


def _band_from_config(doc: dict, model_dist: dist.Distribution | None):
    if "lo" in doc:
        return np.asarray(doc["lo"], dtype=float), np.asarray(doc["hi"], dtype=float)
    if model_dist is None or model_dist.kind != "path":
        raise ConfigError("band with source 'model' needs a path-valued model distribution")
    level = doc["level"]
    n_draws = doc.get("samples", 20_000)
    seed = doc.get("seed", 0)
    paths = model_dist.sample(seed, n_draws, stream=BAND_STREAM)
    a = (1.0 - level) / 2.0
    return np.quantile(paths, a, axis=0), np.quantile(paths, 1.0 - a, axis=0)


def rule_to_config(rule: ag.AgreementRule) -> dict:
    if isinstance(rule, ag.AlwaysTrue):
        return {"type": "always_true"}
    if isinstance(rule, ag.AlwaysFalse):
        return {"type": "always_false"}
    if isinstance(rule, ag.Threshold):
        return {"type": "threshold", "fn": rule.fn.name, "eps": rule.eps}
    if isinstance(rule, ag.Interval):
        return {"type": "interval", "fn": rule.fn.name, "lo": rule.lo, "hi": rule.hi}
    if isinstance(rule, ag.SetMembership):
        return {"type": "set_membership", "synonyms": {k: list(v) for k, v in rule.synonyms.items()}}
    if isinstance(rule, ag.InRegion):
        return {"type": "in_region", "side": rule.side, "region": _region_to_config(rule.region)}
    if isinstance(rule, ag.SoftExponential):
        return {"type": "soft_exponential", "fn": rule.fn.name, "eps_prime": rule.eps_prime, "rate": rule.lam}
    if isinstance(rule, ag.GammaEpsilon):
        eps = rule.eps if np.ndim(rule.eps) == 0 else [float(e) for e in rule.eps]
        return {"type": "gamma_epsilon", "gamma": rule.gamma, "eps": eps, "m": rule.m}
    if isinstance(rule, ag.EpsilonBeta):
        lo, hi = rule.band
        return {
            "type": "epsilon_beta",
            "mean_tol": rule.mean_tol,
            "coverage_lo": rule.coverage_lo,
            "coverage_hi": rule.coverage_hi,
            "band": {"lo": [float(x) for x in lo], "hi": [float(x) for x in hi]},
        }
    if isinstance(rule, ag.And):
        return {"type": "and", "children": [rule_to_config(c) for c in rule.children]}
    if isinstance(rule, ag.Or):
        return {"type": "or", "children": [rule_to_config(c) for c in rule.children]}
    if isinstance(rule, ag.Not):
        return {"type": "not", "child": rule_to_config(rule.child)}
    raise ConfigError(f"rule {type(rule).__name__} has no config form")


# ---------------------------------------------------------------------------
# Sections


def _model_dist_from_section(doc: dict) -> dist.Distribution:
    if "distribution" in doc:
        return distribution_from_config(doc["distribution"])
    return dist.PushForward(
        distribution_from_config(doc["prior"]),
        model_function_from_config(doc["model_function"]),
        grid_from_config(doc["grid"]),
    )


def _data_dist_from_section(doc: dict) -> dist.Distribution:
    if "distribution" in doc:
        return distribution_from_config(doc["distribution"])
    gen = doc["generator"]
    if gen["type"] == "grid_function":
        grid = grid_from_config(gen["grid"])
        fn = {"cos": np.cos, "sin": np.sin}[gen["name"]]
        return dist.DiracDelta(fn(grid.points))
    if gen["type"] == "function_instance":
        grid = grid_from_config(gen["grid"])
        mf = model_function_from_config(gen["function"])
        truth = mf.evaluate(np.asarray(gen["params"], dtype=float), grid)
        inst = truth
        if gen["aleatoric_std"] > 0:
            rng = chunk_rng(gen["instance_seed"], INSTANCE_STREAM, 0)
            inst = truth + rng.normal(0.0, gen["aleatoric_std"], len(grid))
        eps_e = gen["epistemic_std"]
        if eps_e > 0:
            return dist.IndependentProduct([dist.Normal(float(y), eps_e) for y in inst])
        return dist.DiracDelta(inst)
    raise ConfigError(f"unknown data generator '{gen['type']}'")


@dataclass(frozen=True)
class BuiltScenario:
    scenario: Scenario
    estimator: dict
    output: dict
    resolved: dict


def build_scenario(doc: dict) -> BuiltScenario:
    """Validate and build a runnable scenario from a config document."""
    validate_config(doc)
    for section in ("model", "data", "agreement", "estimator"):
        if section not in doc:
            raise ConfigError(f"config field $.{section}: section is required for a scenario run")
    model_dist = _model_dist_from_section(doc["model"])
    data_dist = _data_dist_from_section(doc["data"])
    rule = rule_from_config(doc["agreement"], model_dist)
    scenario = Scenario(model_dist=model_dist, data_dist=data_dist, rule=rule)
    estimator = dict(doc["estimator"])
    estimator.setdefault("samples", DEFAULT_SAMPLES)
    estimator.setdefault("bins", 64)
    return BuiltScenario(
        scenario=scenario,
        estimator=estimator,
        output=dict(doc.get("output", {})),
        resolved={**doc, "estimator": estimator},
    )


def build_sweep_template(doc: dict) -> tuple[SweepTemplate, dict]:
    """Build a sweep template: the model section must use a model function
    with a prior, and the data section must resolve to a certain path."""
    validate_config(doc)
    for section in ("model", "data"):
        if section not in doc:
            raise ConfigError(f"config field $.{section}: section is required for a sweep")
    mdoc = doc["model"]
    if "model_function" not in mdoc:
        raise ConfigError("config field $.model: a sweep needs model_function + prior + grid")
    grid = grid_from_config(mdoc["grid"])
    data_dist = _data_dist_from_section(doc["data"])
    if not isinstance(data_dist, dist.DiracDelta) or np.ndim(data_dist.value) != 1:
        raise ConfigError("config field $.data: a sweep needs a certain data path")
    estimator = dict(doc.get("estimator", {"method": "grid", "seed": 0}))
    template = SweepTemplate(
        model=model_function_from_config(mdoc["model_function"]),
        prior=distribution_from_config(mdoc["prior"]),
        grid=grid,
        data_path=np.asarray(data_dist.value, dtype=float),
        grid_points_per_param=estimator.get("points_per_param", 20),
        span_sigmas=estimator.get("span_sigmas", 3.0),
    )
    return template, estimator
