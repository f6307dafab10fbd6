"""Scenario configuration: JSON schema, parsing, and building.

A scenario document bundles the four estimator inputs (model, data,
comparison, agreement) plus estimator and output settings as tagged
records. Documents are schema-validated before anything runs; unknown
keys are rejected so that typos fail loudly rather than silently using
defaults.

Each tagged record kind has one table, keyed by its tag, and a tag is
defined nowhere else: ``DISTRIBUTIONS`` and ``RULES`` by ``type``,
``MODEL_FUNCTIONS`` by ``family``, ``GENERATORS`` (data generators) by
``type``, and ``METRICS`` by ``name``. An entry holds the fields of its
schema entry and what builds it (a rule entry also serialises it); the
schema's ``oneOf`` lists are built from the tables, in table order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from jsonschema import Draft202012Validator

from . import agreement as ag
from . import distributions as dist
from .comparison import BinnedPdf, ComparisonFn, get_comparison_fn
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
    "rule_from_config",
    "rule_to_config",
    "model_function_from_config",
    "grid_from_config",
    "SCENARIO_SCHEMA",
    "DEFAULT_SAMPLES",
    "Form",
    "MODEL_FUNCTIONS",
    "DISTRIBUTIONS",
    "RULES",
    "GENERATORS",
    "METRICS",
    "Metric",
]


class ConfigError(Exception):
    """A configuration document is malformed; the message names the field."""


# ---------------------------------------------------------------------------
# Tables of tagged records


class Form(NamedTuple):
    """One tagged record form: the fields of its schema entry besides the
    tag, the required ones among them, and ``build``, which makes the
    object from a document of this form. A rule form also names the rule
    class it builds and ``to_config(rule)``, the fields that serialise one
    besides the tag."""

    properties: dict
    required: tuple
    build: Callable
    cls: type | None = None
    to_config: Callable | None = None


def _one_of(tag: str, table: dict) -> dict:
    """Schema of a tagged record: one closed object per table entry."""
    return {
        "oneOf": [
            {
                "type": "object",
                "properties": {tag: {"const": name}, **form.properties},
                "required": [tag, *form.required],
                "additionalProperties": False,
            }
            for name, form in table.items()
        ]
    }


def _build(table: dict, kind: str, tag: str, *args):
    """Build through the entry of ``tag``; a ValueError from the builder
    becomes a ConfigError naming the tag."""
    form = table.get(tag)
    if form is None:
        raise ConfigError(f"unknown {kind} '{tag}'")
    try:
        return form.build(*args)
    except ValueError as exc:
        raise ConfigError(f"bad {kind} '{tag}': {exc}") from None


_NUM = {"type": "number"}
_NUM_ARRAY = {"type": "array", "items": _NUM, "minItems": 1}
_UNIT = {"type": "number", "minimum": 0, "maximum": 1}
_FN_NAME = {"type": "string"}
_DISTRIBUTION = {"$ref": "#/$defs/distribution"}
_RULE = {"$ref": "#/$defs/rule"}

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

MODEL_FUNCTIONS: dict[str, Form] = {
    "polynomial": Form(
        {"powers": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1}},
        ("powers",),
        lambda doc: polynomial_model(doc["powers"]),
    ),
    "damped_oscillator": Form({}, (), lambda doc: damped_oscillator_model()),
}

_MODEL_FUNCTION = _one_of("family", MODEL_FUNCTIONS)

DISTRIBUTIONS: dict[str, Form] = {
    "dirac": Form({"value": {"oneOf": [_NUM, _NUM_ARRAY]}}, ("value",), lambda doc: dist.DiracDelta(doc["value"])),
    "normal": Form({"mean": _NUM, "std": _NUM}, ("mean", "std"), lambda doc: dist.Normal(doc["mean"], doc["std"])),
    "student_t": Form(
        {"location": _NUM, "dof": _NUM, "scale": _NUM},
        ("location", "dof", "scale"),
        lambda doc: dist.StudentT(doc["location"], doc["dof"], doc["scale"]),
    ),
    "uniform": Form({"lo": _NUM, "hi": _NUM}, ("lo", "hi"), lambda doc: dist.Uniform(doc["lo"], doc["hi"])),
    "shifted_exponential": Form(
        {"rate": _NUM, "shift": _NUM},
        ("rate",),
        lambda doc: dist.ShiftedExponential(doc["rate"], doc.get("shift", 0.0)),
    ),
    "categorical": Form(
        {"values": {"type": "array", "items": {"type": ["number", "string"]}, "minItems": 1}, "probs": _NUM_ARRAY},
        ("values", "probs"),
        lambda doc: dist.Categorical(doc["values"], doc["probs"]),
    ),
    "empirical": Form(
        {"samples": {"type": "array", "items": {"oneOf": [_NUM, _NUM_ARRAY]}, "minItems": 1}},
        ("samples",),
        lambda doc: dist.Empirical(np.asarray(doc["samples"], dtype=float)),
    ),
    "product": Form(
        {"components": {"type": "array", "items": _DISTRIBUTION, "minItems": 1}},
        ("components",),
        lambda doc: dist.IndependentProduct([distribution_from_config(c) for c in doc["components"]]),
    ),
    "push_forward": Form(
        {"prior": _DISTRIBUTION, "model_function": _MODEL_FUNCTION, "grid": _GRID},
        ("prior", "model_function", "grid"),
        lambda doc: dist.PushForward(
            distribution_from_config(doc["prior"]),
            model_function_from_config(doc["model_function"]),
            grid_from_config(doc["grid"]),
        ),
    ),
}


def _fn_from_config(doc: dict) -> ComparisonFn:
    if "bins" in doc:
        return get_comparison_fn(doc["fn"], bins=doc["bins"])
    return get_comparison_fn(doc["fn"])


def _fn_to_config(fn: ComparisonFn) -> dict:
    """The fields naming a rule's comparison, as a config gives them: a
    binned difference is ``binned_prob_diff``, with its bin count unless
    that is the default (the only count a rule without ``bins`` can hold)."""
    base, _, bins = fn.name.rpartition("_")
    if base != "binned_prob_diff":
        return {"fn": fn.name}
    if fn.name == get_comparison_fn(base).name:
        return {"fn": base}
    return {"fn": base, "bins": int(bins)}


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


def _band_from_config(doc: dict, model_dist: dist.Distribution | None):
    """A band's (lo, hi) arrays: given in the document, or the model's
    per-point quantiles over ``samples`` draws of its paths, both edges
    taken in one quantile pass."""
    if "lo" in doc:
        return np.asarray(doc["lo"], dtype=float), np.asarray(doc["hi"], dtype=float)
    if model_dist is None or model_dist.kind != "path":
        raise ConfigError("band with source 'model' needs a path-valued model distribution")
    level = doc["level"]
    n_draws = doc.get("samples", 20_000)
    seed = doc.get("seed", 0)
    paths = model_dist.sample(seed, n_draws, stream=BAND_STREAM)
    a = (1.0 - level) / 2.0
    # ``sample`` returns a fresh array that nothing else holds, so the
    # pass may partition it in place.
    lo, hi = np.quantile(paths, [a, 1.0 - a], axis=0, overwrite_input=True)
    return lo, hi


def _epsilon_beta_from_config(doc: dict, model_dist: dist.Distribution | None) -> ag.EpsilonBeta:
    return ag.EpsilonBeta(
        doc["mean_tol"],
        _band_from_config(doc["band"], model_dist),
        coverage_lo=doc.get("coverage_lo", 0.91),
        coverage_hi=doc.get("coverage_hi", 0.99),
    )


def _epsilon_beta_to_config(rule: ag.EpsilonBeta) -> dict:
    lo, hi = rule.band
    return {
        "mean_tol": rule.mean_tol,
        "coverage_lo": rule.coverage_lo,
        "coverage_hi": rule.coverage_hi,
        "band": {"lo": [float(x) for x in lo], "hi": [float(x) for x in hi]},
    }


def _children_form(cls: type) -> Form:
    """The form of ``And`` or ``Or`` over a list of child rules."""
    return Form(
        {"children": {"type": "array", "items": _RULE, "minItems": 1}},
        ("children",),
        lambda doc, model_dist: cls([rule_from_config(c, model_dist) for c in doc["children"]]),
        cls,
        lambda rule: {"children": [rule_to_config(c) for c in rule.children]},
    )


# A rule builder also takes the scenario's model distribution, from which
# a band with ``source: model`` is drawn.
RULES: dict[str, Form] = {
    "always_true": Form({}, (), lambda doc, model_dist: ag.AlwaysTrue(), ag.AlwaysTrue, lambda rule: {}),
    "always_false": Form({}, (), lambda doc, model_dist: ag.AlwaysFalse(), ag.AlwaysFalse, lambda rule: {}),
    "threshold": Form(
        {"fn": _FN_NAME, "eps": _NUM, "bins": {"type": "integer", "minimum": 1}},
        ("fn", "eps"),
        lambda doc, model_dist: ag.Threshold(_fn_from_config(doc), doc["eps"]),
        ag.Threshold,
        lambda rule: {**_fn_to_config(rule.fn), "eps": rule.eps},
    ),
    "interval": Form(
        {"fn": _FN_NAME, "lo": _NUM, "hi": _NUM},
        ("fn", "lo", "hi"),
        lambda doc, model_dist: ag.Interval(_fn_from_config(doc), doc["lo"], doc["hi"]),
        ag.Interval,
        lambda rule: {**_fn_to_config(rule.fn), "lo": rule.lo, "hi": rule.hi},
    ),
    "set_membership": Form(
        {"synonyms": {"type": "object", "additionalProperties": {"type": "array", "items": {"type": ["number", "string"]}}}},
        ("synonyms",),
        lambda doc, model_dist: ag.SetMembership({k: tuple(v) for k, v in doc["synonyms"].items()}),
        ag.SetMembership,
        lambda rule: {"synonyms": {k: list(v) for k, v in rule.synonyms.items()}},
    ),
    "in_region": Form(
        {"side": {"enum": ["model", "data"]}, "region": _REGION},
        ("side", "region"),
        lambda doc, model_dist: ag.InRegion(_region_from_config(doc["region"]), doc["side"]),
        ag.InRegion,
        lambda rule: {"side": rule.side, "region": _region_to_config(rule.region)},
    ),
    "soft_exponential": Form(
        {"fn": _FN_NAME, "eps_prime": _NUM, "rate": {"type": "number", "exclusiveMinimum": 0}},
        ("fn", "eps_prime", "rate"),
        lambda doc, model_dist: ag.SoftExponential(_fn_from_config(doc), doc["eps_prime"], doc["rate"]),
        ag.SoftExponential,
        lambda rule: {**_fn_to_config(rule.fn), "eps_prime": rule.eps_prime, "rate": rule.lam},
    ),
    "gamma_epsilon": Form(
        {"gamma": _UNIT, "eps": {"oneOf": [_NUM, _NUM_ARRAY]}, "m": {"type": "number", "minimum": 1}},
        ("gamma", "eps", "m"),
        lambda doc, model_dist: ag.GammaEpsilon(gamma=doc["gamma"], eps=doc["eps"], m=doc["m"]),
        ag.GammaEpsilon,
        lambda rule: {
            "gamma": rule.gamma,
            "eps": rule.eps if np.ndim(rule.eps) == 0 else [float(e) for e in rule.eps],
            "m": rule.m,
        },
    ),
    "epsilon_beta": Form(
        {"mean_tol": _NUM, "coverage_lo": _UNIT, "coverage_hi": _UNIT, "band": _BAND},
        ("mean_tol", "band"),
        _epsilon_beta_from_config,
        ag.EpsilonBeta,
        _epsilon_beta_to_config,
    ),
    "and": _children_form(ag.And),
    "or": _children_form(ag.Or),
    "not": Form(
        {"child": _RULE},
        ("child",),
        lambda doc, model_dist: ag.Not(rule_from_config(doc["child"], model_dist)),
        ag.Not,
        lambda rule: {"child": rule_to_config(rule.child)},
    ),
}

_RULE_TYPES = {form.cls: tag for tag, form in RULES.items()}

_GRID_FUNCTIONS = {"cos": np.cos, "sin": np.sin}


def _function_instance(gen: dict) -> dist.Distribution:
    """One noisy instance of a model function's path: aleatoric noise drawn
    once from the instance seed, then epistemic normal uncertainty per point."""
    grid = grid_from_config(gen["grid"])
    truth = model_function_from_config(gen["function"]).evaluate(np.asarray(gen["params"], dtype=float), grid)
    inst = truth
    if gen["aleatoric_std"] > 0:
        rng = chunk_rng(gen["instance_seed"], INSTANCE_STREAM, 0)
        inst = truth + rng.normal(0.0, gen["aleatoric_std"], len(grid))
    eps_e = gen["epistemic_std"]
    if eps_e > 0:
        return dist.IndependentProduct([dist.Normal(float(y), eps_e) for y in inst])
    return dist.DiracDelta(inst)


GENERATORS: dict[str, Form] = {
    "function_instance": Form(
        {
            "function": _MODEL_FUNCTION,
            "params": _NUM_ARRAY,
            "grid": _GRID,
            "aleatoric_std": {"type": "number", "minimum": 0},
            "epistemic_std": {"type": "number", "minimum": 0},
            "instance_seed": {"type": "integer", "minimum": 0},
        },
        ("function", "params", "grid", "aleatoric_std", "epistemic_std", "instance_seed"),
        _function_instance,
    ),
    "grid_function": Form(
        {"name": {"enum": list(_GRID_FUNCTIONS)}, "grid": _GRID},
        ("name", "grid"),
        lambda gen: dist.DiracDelta(_GRID_FUNCTIONS[gen["name"]](grid_from_config(gen["grid"]).points)),
    ),
}

_MODEL_SECTION = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"distribution": _DISTRIBUTION},
            "required": ["distribution"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"model_function": _MODEL_FUNCTION, "prior": _DISTRIBUTION, "grid": _GRID},
            "required": ["model_function", "prior", "grid"],
            "additionalProperties": False,
        },
    ]
}

_DATA_SECTION = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"distribution": _DISTRIBUTION},
            "required": ["distribution"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"generator": _one_of("type", GENERATORS)},
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


SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "model": _MODEL_SECTION,
        "data": _DATA_SECTION,
        "agreement": _RULE,
        "estimator": _ESTIMATOR,
        "output": _OUTPUT,
        "metric": _one_of("name", METRICS),
    },
    "required": [],
    "additionalProperties": False,
    "$defs": {"distribution": _one_of("type", DISTRIBUTIONS), "rule": _one_of("type", RULES)},
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


def model_function_from_config(doc: dict) -> ModelFunction:
    return _build(MODEL_FUNCTIONS, "model function family", doc["family"], doc)


def distribution_from_config(doc: dict) -> dist.Distribution:
    return _build(DISTRIBUTIONS, "distribution type", doc["type"], doc)


def rule_from_config(doc: dict, model_dist: dist.Distribution | None = None) -> ag.AgreementRule:
    """Build a rule tree; a band with ``source: model`` is resolved against
    the scenario's model path distribution."""
    return _build(RULES, "agreement rule type", doc["type"], doc, model_dist)


def rule_to_config(rule: ag.AgreementRule) -> dict:
    tag = _RULE_TYPES.get(type(rule))
    if tag is None:
        raise ConfigError(f"rule {type(rule).__name__} has no config form")
    return {"type": tag, **RULES[tag].to_config(rule)}


# ---------------------------------------------------------------------------
# Sections


def _model_dist_from_section(doc: dict) -> dist.Distribution:
    if "distribution" in doc:
        return distribution_from_config(doc["distribution"])
    return distribution_from_config({"type": "push_forward", **doc})


def _data_dist_from_section(doc: dict) -> dist.Distribution:
    if "distribution" in doc:
        return distribution_from_config(doc["distribution"])
    gen = doc["generator"]
    return _build(GENERATORS, "data generator", gen["type"], gen)

@dataclass(frozen=True)
class BuiltScenario:
    scenario: Scenario
    estimator: dict
    output: dict
    resolved: dict


def build_scenario(doc: dict, *, checked: bool = False) -> BuiltScenario:
    """Validate and build a runnable scenario from a config document.

    ``checked=True`` skips the schema check, for a document that
    :func:`load_config` or :func:`validate_config` has already checked."""
    if not checked:
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
    return BuiltScenario(
        scenario=scenario,
        estimator=estimator,
        output=dict(doc.get("output", {})),
        resolved={**doc, "estimator": estimator},
    )


def build_sweep_template(doc: dict, *, checked: bool = False) -> tuple[SweepTemplate, dict]:
    """Build a sweep template: the model section must use a model function
    with a prior, and the data section must resolve to a certain path.

    ``checked`` is as for :func:`build_scenario`."""
    if not checked:
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
