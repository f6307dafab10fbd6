"""Scenario configuration: JSON schema, parsing, and building.

A scenario document bundles the four estimator inputs (model, data,
comparison, agreement) plus estimator and output settings as tagged
records. Documents are schema-validated before anything runs; unknown
keys are rejected so that typos fail loudly rather than silently using
defaults. The check is the module's own: it reads ``SCENARIO_SCHEMA`` and
knows exactly the JSON Schema 2020-12 keywords that schema uses. One walk
over the document gives the verdict and, for a rejected document, names
its deepest failing field.

Each tagged record kind has one table, keyed by its tag, and a tag is
defined nowhere else: ``DISTRIBUTIONS`` and ``RULES`` by ``type``,
``MODEL_FUNCTIONS`` by ``family``, ``GENERATORS`` (data generators) by
``type``, ``METRICS`` by ``name``, and ``ESTIMATORS`` by ``method``. An
entry holds the fields of its schema entry and what builds it (a rule
entry also serialises it); the schema's ``oneOf`` lists are built from
the tables, in table order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Number
from typing import Callable, NamedTuple

import numpy as np

from . import agreement as ag
from . import distributions as dist
from .comparison import _DIVERGENCES, BinnedPdf, ComparisonFn, get_comparison_fn
from .engine import (DEFAULT_SAMPLES, Scenario, SweepTemplate, ValueKindError, _grid_estimate,
                     _LENGTH_FAULT, _path_blocks, estimate_bvm_mc)
from .metrics import (
    DataSummary,
    GaussianLikelihoodSpec,
    _dirichlet_alpha,
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
from .rng import BAND_STREAM, INSTANCE_STREAM, _chunks, _draw_chunk

__all__ = [
    "ConfigError",
    "validate_config",
    "load_config",
    "build_scenario",
    "build_sweep_template",
    "sweep_template",
    "distribution_from_config",
    "rule_from_config",
    "rule_to_config",
    "with_flags",
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
    "ESTIMATORS",
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
    besides the tag. A metric form's ``build(doc, section, samples, seed)``
    runs the metric and returns ``(result, extras)``: the result dataclass
    (a ``BvmEstimate``, or an ``EvidenceResult``) and a dict of further
    named numbers, both written to the run record. An estimator form's
    ``build(built, samples, seed)`` returns the ``BvmEstimate`` of a
    :class:`BuiltScenario`; only a form with a ``samples`` field reads
    ``samples``."""

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
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_SEED = {"type": "integer", "minimum": 0}
# The comparison a threshold, interval or soft-exponential rule scores
# through; only ``binned_prob_diff`` takes ``bins``.
_FN = {"fn": {"type": "string"}, "bins": {"type": "integer", "minimum": 1}}
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
    if "bins" not in doc:
        return get_comparison_fn(doc["fn"])
    if doc["fn"] != "binned_prob_diff":
        raise ValueError(f"comparison '{doc['fn']}' takes no bins")
    if (int(doc["bins"]) + 1) * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"config field $.agreement.bins: {_short(doc['bins'])} bins make too many bin edges to index")
    return get_comparison_fn(doc["fn"], bins=doc["bins"])


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
                "seed": _SEED,
            },
            "required": ["source", "level"],
            "additionalProperties": False,
        },
    ]
}


def _band_from_config(doc: dict, model_dist: dist.Distribution | None):
    """A band's (lo, hi) arrays: given in the document, or the model's
    per-point quantiles over ``samples`` draws of its paths.

    A given band is checked here: no NaN edge, lo <= hi at every point,
    and, when the model's path length is known, one point per path point.
    Infinite edges are allowed.

    A certain model (a ``dirac`` path, or a :class:`PushForward` with a
    ``certain_path``) has one path. When it is finite the band is that
    path at both edges, which is what the quantiles of a constant finite
    column are (a ``-0.0`` may come back as ``+0.0``, which compares
    equal), and no path is drawn. Otherwise the edges are
    :func:`_streamed_quantiles` of the drawn paths (a constant column of
    ±inf gives NaN there).
    """
    if "lo" in doc:
        lo, hi = np.asarray(doc["lo"], dtype=float), np.asarray(doc["hi"], dtype=float)
        _check_band(lo, hi, model_dist)
        return lo, hi
    if model_dist is None or model_dist.kind != "path":
        raise ConfigError("band with source 'model' needs a path-valued model distribution")
    path = None
    if isinstance(model_dist, dist.DiracDelta):
        path = model_dist.value
    elif isinstance(model_dist, dist.PushForward):
        path = model_dist.certain_path
    if path is not None and np.isfinite(path).all():
        return path.copy(), path.copy()
    a = (1.0 - doc["level"]) / 2.0
    return _streamed_quantiles(model_dist, doc.get("seed", 0), int(doc.get("samples", 20_000)), a)


def _streamed_quantiles(model_dist: dist.Distribution, seed: int, n: int, a: float):
    """``np.quantile(model_dist.sample(seed, n, BAND_STREAM), [a, 1 - a],
    axis=0)``, bit for bit, holding one chunk of paths at a time.

    numpy's ``linear`` rule reads two order statistics per quantile and
    point: ranks ``floor(v)`` and ``floor(v) + 1`` at ``v = (n - 1) q``,
    both clipped to the top rank when ``v >= n - 1``. So each point keeps
    only its ``n_lo = floor((n - 1) a) + 2`` smallest and ``n_hi = n -
    floor((n - 1)(1 - a))`` largest values seen so far. Each drawn chunk
    is partitioned in place down to its own n_lo smallest and n_hi largest
    (a draw is a fresh array the caller owns), and only those rows are
    copied next to the kept ones, in one buffer of at most ``2 (n_lo +
    n_hi)`` rows that is partitioned back down in place. The n_lo smallest
    values of two sets are among the n_lo smallest of each, so the kept
    values are the same as if every path were held. The ranks are then
    interpolated with numpy's arithmetic, and a point whose column held a
    NaN is NaN, as numpy makes it. A rank held by both ``-0.0`` and
    ``+0.0`` may come back with either sign.
    """
    v = (n - 1) * np.array([a, 1.0 - a])
    prev = np.floor(v)
    n_lo, n_hi = int(prev[0]) + 2, n - int(prev[1])
    nxt = prev + 1
    prev[v >= n - 1] = nxt[v >= n - 1] = -1
    gamma = (v - prev)[:, np.newaxis]
    buf, held = None, 0
    for c, m in _chunks(n):
        chunk = model_dist.draw_chunk(seed, BAND_STREAM, c, m)
        kept = _keep_extremes(chunk, n_lo, n_hi)
        if buf is None:  # the first chunk is the longest
            buf = np.empty((min(n, n_lo + n_hi + kept), *chunk.shape[1:]), dtype=chunk.dtype)
        buf[held : held + kept] = chunk[:kept]
        del chunk  # no name holds a chunk while the next is drawn
        held = _keep_extremes(buf[: held + kept], n_lo, n_hi)
    rows = buf[:held]
    # A rank below n_lo is kept at its own row; one above it, at its offset
    # from the end (as is -1, the clipped top rank).
    prev, nxt = (np.where(r < n_lo, r, r - n).astype(np.intp) % len(rows) for r in (prev, nxt))
    rows.partition(np.unique(np.concatenate((prev, nxt, [len(rows) - 1]))), axis=0)
    left, right = rows[prev], rows[nxt]
    diff = right - left
    band = left + diff * gamma
    np.subtract(right, diff * (1 - gamma), out=band, where=gamma >= 0.5)
    np.copyto(band, rows[-1], where=np.isnan(rows[-1]))
    return band[0], band[1]


def _keep_extremes(rows: np.ndarray, n_lo: int, n_hi: int) -> int:
    """Partition *rows* in place along axis 0 so that its first rows hold,
    per column, its n_lo smallest and then its n_hi largest values, and
    return how many rows that is: ``n_lo + n_hi``, or all of them when
    there are no more."""
    m = len(rows)
    if m <= n_lo + n_hi:
        return m
    rows.partition([n_lo - 1, m - n_hi], axis=0)
    # Move the n_hi largest down behind the n_lo smallest. Those already
    # in place stay, so the rows that move and the rows they overwrite
    # do not overlap.
    start = max(m - n_hi, n_lo + n_hi)
    rows[n_lo : n_lo + m - start] = rows[start:]
    return n_lo + n_hi


def _per_point(field: str, values, model_dist: dist.Distribution | None):
    """*values*; a vector of other than one value per point of the model's paths is a config error."""
    n = model_dist.path_length if model_dist is not None else None
    if np.ndim(values) == 1 and n is not None and len(values) != n:
        raise ConfigError(f"config field $.{field}: {len(values)} points, but the model's paths have {n}")
    return values


def _check_band(lo: np.ndarray, hi: np.ndarray, model_dist: dist.Distribution | None):
    if lo.shape != hi.shape:
        raise ConfigError(f"band: lo has {lo.size} points and hi {hi.size}")
    _per_point("agreement.band", lo, model_dist)
    for name, edge in (("lo", lo), ("hi", hi)):
        if np.isnan(edge).any():
            raise ConfigError(f"band: {name} is NaN at point {int(np.argmax(np.isnan(edge)))}")
    above = lo > hi
    if above.any():
        raise ConfigError(
            f"band: lo exceeds hi at {int(above.sum())} of {lo.size} points, first at point {int(np.argmax(above))}"
        )


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
        {**_FN, "eps": _NUM},
        ("fn", "eps"),
        lambda doc, model_dist: ag.Threshold(_fn_from_config(doc), doc["eps"]),
        ag.Threshold,
        lambda rule: {**_fn_to_config(rule.fn), "eps": rule.eps},
    ),
    "interval": Form(
        {**_FN, "lo": _NUM, "hi": _NUM},
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
        {**_FN, "eps_prime": _NUM, "rate": _POSITIVE},
        ("fn", "eps_prime", "rate"),
        lambda doc, model_dist: ag.SoftExponential(_fn_from_config(doc), doc["eps_prime"], doc["rate"]),
        ag.SoftExponential,
        lambda rule: {**_fn_to_config(rule.fn), "eps_prime": rule.eps_prime, "rate": rule.lam},
    ),
    "gamma_epsilon": Form(
        {"gamma": _UNIT, "eps": {"oneOf": [_NUM, _NUM_ARRAY]}, "m": {"type": "number", "minimum": 1}},
        ("gamma", "eps", "m"),
        lambda doc, model_dist: ag.GammaEpsilon(doc["gamma"], _per_point("agreement.eps", doc["eps"], model_dist), doc["m"]),
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

_QUIET = np.errstate(invalid="ignore")  # a grid point at +-inf gives NaN, which DiracDelta names
_GRID_FUNCTIONS = {"cos": _QUIET(np.cos), "sin": _QUIET(np.sin)}


def _function_instance(gen: dict) -> dist.Distribution:
    """One noisy instance of a model function's path: aleatoric noise drawn
    once from the instance seed, then epistemic normal uncertainty per point."""
    grid = grid_from_config(gen["grid"])
    truth = model_function_from_config(gen["function"]).evaluate(np.asarray(gen["params"], dtype=float), grid)
    inst = truth
    if gen["aleatoric_std"] > 0:
        inst = truth + _draw_chunk(gen["instance_seed"], INSTANCE_STREAM, 0, np.random.Generator.normal,
                                   0.0, gen["aleatoric_std"], len(grid))
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
            "instance_seed": _SEED,
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


def _grid_estimate_of(built, samples, seed):
    template = sweep_template(built.scenario.model_dist, built.scenario.data_dist, built.estimator)
    return _grid_estimate(built.scenario.rule, _path_blocks(template, "grid", 0, 0), ([template.data_path], [1.0]))


ESTIMATORS: dict[str, Form] = {
    "mc": Form(
        {"samples": {"type": "integer", "minimum": 1}, "seed": _SEED},
        ("seed",),
        lambda built, samples, seed: estimate_bvm_mc(built.scenario, samples, seed),
    ),
    "grid": Form(
        {"seed": _SEED, "points_per_param": {"type": "integer", "minimum": 1}, "span_sigmas": _POSITIVE},
        ("seed",),
        _grid_estimate_of,
    ),
}

_OUTPUT = {
    "type": "object",
    "properties": {"path": {"type": "string"}, "format": {"enum": ["csv", "json"]}},
    "additionalProperties": False,
}

# ---------------------------------------------------------------------------
# Metric table: the metric a document's ``$.metric.name`` runs is one entry


def _section(doc: dict, name: str) -> dict:
    if not doc.get(name):
        raise ConfigError(f"config field $.{name}: section is required for this metric")
    return doc[name]


def _model_dist(doc: dict, kind: str) -> dist.Distribution:
    return _of_kind(_model_dist_from_section(_section(doc, "model")), "model", kind)


def _data_dist(doc: dict, kind: str) -> dist.Distribution:
    return _of_kind(_data_dist_from_section(_section(doc, "data")), "data", kind)


def _of_kind(d: dist.Distribution, name: str, kind: str) -> dist.Distribution:
    """A metric's input must draw the values it compares: 'scalar' or 'path'."""
    if d.kind != kind:
        raise ConfigError(f"config field $.{name}: this metric needs {kind} values, not {d.kind} values")
    return d


def _rule(doc: dict) -> ag.AgreementRule:
    """The agreement rule of a metric that scores a single value."""
    rule = rule_from_config(_section(doc, "agreement"))
    try:
        ag._value_breakpoints(rule)
    except ValueError as exc:
        raise ConfigError(f"config field $.agreement: {exc}") from None
    return rule


def _metric_field(name: str, build: Callable, *args, **kwargs):
    """``build(*args, **kwargs)``, run before the metric; a ValueError it
    raises is a config error naming ``$.metric.<name>``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"config field $.metric.{name}: {exc}") from None


def _metric_eps(metric: dict):
    """``$.metric.eps``; a NaN or negative tolerance is a config error."""
    _metric_field("eps", ag._nonnegative_eps, metric["eps"])
    return metric["eps"]


def _binned_pdf(metric: dict, masses: str) -> BinnedPdf:
    """The histogram of ``$.metric.edges`` and ``$.metric.<masses>``. Edges
    that do not increase are a config error on the edges; any other fault
    BinnedPdf finds is one on the masses."""
    if not np.all(np.diff(metric["edges"]) > 0):
        raise ConfigError("config field $.metric.edges: edges must be strictly increasing")
    return _metric_field(masses, BinnedPdf, metric["edges"], metric[masses])


def _run_reliability(doc, metric, samples, seed):
    model, data = _model_dist(doc, "scalar"), _data_dist(doc, "scalar")
    return reliability(model, data, eps=_metric_eps(metric), k=samples, seed=seed), {}


def _run_improved_reliability(doc, metric, samples, seed):
    model, data = _model_dist(doc, "path"), _data_dist(doc, "path")
    if data.path_length != model.path_length:
        raise ConfigError("config field $.data: " + _LENGTH_FAULT.format(data.path_length, model.path_length))
    eps = _per_point("metric.eps", _metric_eps(metric), model)
    return improved_reliability(model, data, eps=eps, k=samples, seed=seed), {}


def _run_frequentist(doc, metric, samples, seed):
    ds = metric["data_summary"]
    summary = _metric_field("data_summary", DataSummary, ds["mean"], ds["std"], ds["n"])
    return frequentist(metric["model_mean"], summary, _rule(doc)), {}


def _run_power(doc, metric, samples, seed):
    model, data = _model_dist(doc, "scalar"), _data_dist(doc, "scalar")
    for name in ("alpha", "alpha_hat"):  # NaN passes every schema bound
        _metric_field(name, ag._reject_nan, **{name: metric[name]})
    res = statistical_power_bvm(
        model, data, alpha=metric["alpha"], alpha_hat=metric["alpha_hat"], region_kind=metric.get("region", "interval")
    )
    extras = {
        "power_model_in_data": res.power_model_in_data,
        "power_data_in_model": res.power_data_in_model,
        "systematic_error": res.systematic_error,
    }
    return res.estimate, extras


def _run_classical(doc, metric, samples, seed):
    res = classical_hypothesis(_data_dist(doc, "scalar"), metric["alpha"])
    return res.estimate, {"critical_interval": [res.interval.lo, res.interval.hi]}


def _run_evidence(doc, metric, samples, seed):
    pf = _model_dist_from_section(_section(doc, "model"))
    if not isinstance(pf, dist.PushForward):
        raise ConfigError("config field $.model: evidence needs model_function + prior + grid")
    # data_y is checked first under a unit sigma, so a fault left is sigma's.
    _metric_field("data_y", GaussianLikelihoodSpec, 1.0, metric["data_y"], pf.grid)
    spec = _metric_field("sigma", GaussianLikelihoodSpec, metric["sigma"], metric["data_y"], pf.grid)
    return bayesian_evidence(pf.model, pf.prior, spec, k=samples, seed=seed), {}


def _run_area(doc, metric, samples, seed):
    est = area_metric_validation(
        metric["samples_m"], metric["samples_d"], _rule(doc), bootstrap=int(metric.get("bootstrap", 0)), seed=seed
    )
    return est, {}


def _run_binned_pdf(doc, metric, samples, seed):
    pdf = _binned_pdf(metric, "model_masses")
    _metric_field("data_counts", _dirichlet_alpha, pdf, metric["data_counts"])
    return binned_pdf_metric(pdf, metric["data_counts"], _rule(doc), r=samples, seed=seed), {}


def _run_divergence(doc, metric, samples, seed):
    model_pdf, data_pdf = _binned_pdf(metric, "model_masses"), _binned_pdf(metric, "data_masses")
    return divergence_validation(model_pdf, data_pdf, metric["kind"], _rule(doc), seed=seed), {}


METRICS: dict[str, Form] = {
    "reliability": Form({"eps": _NUM}, ("eps",), _run_reliability),
    "improved_reliability": Form({"eps": {"oneOf": [_NUM, _NUM_ARRAY]}}, ("eps",), _run_improved_reliability),
    "frequentist": Form(
        {
            "model_mean": _NUM,
            "data_summary": {
                "type": "object",
                "properties": {"mean": _NUM, "std": _POSITIVE, "n": {"type": "integer", "minimum": 2}},
                "required": ["mean", "std", "n"],
                "additionalProperties": False,
            },
        },
        ("model_mean", "data_summary"),
        _run_frequentist,
    ),
    "power": Form(
        {
            "alpha": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
            "alpha_hat": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
            "region": {"enum": ["interval", "set"]},
        },
        ("alpha", "alpha_hat"),
        _run_power,
    ),
    "classical": Form(
        {"alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}}, ("alpha",), _run_classical
    ),
    "evidence": Form({"sigma": _POSITIVE, "data_y": _NUM_ARRAY}, ("sigma", "data_y"), _run_evidence),
    "area": Form(
        {"samples_m": _NUM_ARRAY, "samples_d": _NUM_ARRAY, "bootstrap": {"type": "integer", "minimum": 0}},
        ("samples_m", "samples_d"),
        _run_area,
    ),
    "binned_pdf": Form(
        {"edges": _NUM_ARRAY, "model_masses": _NUM_ARRAY, "data_counts": _NUM_ARRAY},
        ("edges", "model_masses", "data_counts"),
        _run_binned_pdf,
    ),
    "divergence": Form(
        {
            "kind": {"enum": list(_DIVERGENCES)},
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
        "estimator": _one_of("method", ESTIMATORS),
        "output": _OUTPUT,
        "metric": _one_of("name", METRICS),
    },
    "required": [],
    "additionalProperties": False,
    "$defs": {"distribution": _one_of("type", DISTRIBUTIONS), "rule": _one_of("type", RULES)},
}

# ---------------------------------------------------------------------------
# Schema checking
#
# One walk, ``_error``, checks a document against SCENARIO_SCHEMA and names
# its deepest failing field. It knows exactly the keywords the schema uses,
# with JSON Schema 2020-12 semantics: ``integer`` accepts 1.0, booleans are
# neither numbers nor integers, and NaN and ±inf are numbers (a band or
# tolerance check reports them with its own message). Every ``const`` and
# ``enum`` value in the schema is a string, so equality is Python's ``==``
# and True never equals 1; tests/test_schema_check.py holds the schema to
# that. A keyword that ``_error`` neither walks nor finds in ``_CHECKS``
# raises KeyError rather than being ignored.


def _is_number(v) -> bool:
    return type(v) in (float, int) or (isinstance(v, Number) and not isinstance(v, bool))


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or (isinstance(v, float) and v.is_integer())),
}


def _names(t) -> list:
    """A ``type`` keyword's type names."""
    return [t] if isinstance(t, str) else list(t)


def _short(v) -> str:
    text = repr(v)
    return text if len(text) <= 60 else text[:57] + "..."


def _type(t, v) -> bool:
    return _TYPES[t](v) if isinstance(t, str) else any(_TYPES[x](v) for x in t)


def _bound(fails, text: str) -> tuple:
    """A bound's (check, message). NaN fails no comparison, so it passes every bound."""
    return lambda limit, v: not (_is_number(v) and fails(v, limit)), lambda limit, v: f"{v!r} {text} {limit!r}"


# Each value keyword's (check, message) for one value: the check is true
# when ``v`` passes the keyword's argument, and the message says why it
# does not. A keyword applies only to values of its own type.
_CHECKS: dict[str, tuple] = {
    "type": (_type, lambda t, v: f"{_short(v)} is not of type {' or '.join(map(repr, _names(t)))}"),
    "required": (
        lambda keys, v: not isinstance(v, dict) or all(k in v for k in keys),
        lambda keys, v: f"{', '.join(repr(k) for k in keys if k not in v)} is required",
    ),
    "const": (lambda c, v: v == c, lambda c, v: f"{_short(v)} is not {c!r}"),
    "enum": (lambda values, v: v in values, lambda values, v: f"{_short(v)} is not one of {values}"),
    "minItems": (
        lambda n, v: not isinstance(v, list) or len(v) >= n,
        lambda n, v: f"has {len(v)} items, fewer than {n}",
    ),
    "maxItems": (
        lambda n, v: not isinstance(v, list) or len(v) <= n,
        lambda n, v: f"has {len(v)} items, more than {n}",
    ),
    "minimum": _bound(lambda v, limit: v < limit, "is less than the minimum of"),
    "maximum": _bound(lambda v, limit: v > limit, "is greater than the maximum of"),
    "exclusiveMinimum": _bound(lambda v, limit: v <= limit, "is not greater than"),
    "exclusiveMaximum": _bound(lambda v, limit: v >= limit, "is not less than"),
}


def _nodes(s: dict):
    """Schema node ``s`` and every node under it, by keyword
    (``additionalProperties: false`` is a flag, not a node)."""
    yield s
    for key, arg in s.items():
        if key in ("properties", "$defs"):
            for sub in arg.values():
                yield from _nodes(sub)
        elif key == "oneOf":
            for sub in arg:
                yield from _nodes(sub)
        elif key in ("items", "additionalProperties") and arg is not False:
            yield from _nodes(arg)


_REFS = {f"#/$defs/{name}": node for name, node in SCENARIO_SCHEMA["$defs"].items()}


def _tag(branches: list):
    """The tag of a tagged ``oneOf`` (``type``, ``name`` or ``family``):
    its branches' first property, when every branch fixes it with a
    ``const``. None for any other ``oneOf``."""
    props = [b.get("properties", {}) for b in branches]
    tag = next(iter(props[0]), None)
    return tag if tag is not None and all("const" in p.get(tag, {}) for p in props) else None


def _one_of_error(branches: list, v, path: list):
    tag = _tag(branches)
    if tag is not None and isinstance(v, dict):
        # The tags are distinct string constants, so every branch but the
        # one the tag names fails on its tag: v passes the oneOf exactly
        # when it passes that branch.
        tags = [b["properties"][tag]["const"] for b in branches]
        if tag not in v:
            return path + [tag], f"is missing; one of {tags}"
        for b, name in zip(branches, tags):
            if v[tag] == name:
                return _error(b, v, path)
        return path + [tag], f"{_short(v[tag])} is not one of {tags}"
    errors = [_error(b, v, path) for b in branches]
    passing = errors.count(None)
    if passing == 1:
        return None
    if passing > 1:
        return path, f"{_short(v)} is valid under {passing} of the given forms"
    # The form whose type takes v and that names the most of its keys.
    fits = [i for i, b in enumerate(branches) if _type(b.get("type", list(_TYPES)), v)]
    if not fits:
        types = [t for b in branches for t in _names(b.get("type", []))]
        return path, _CHECKS["type"][1](list(dict.fromkeys(types)), v)
    keys = v if isinstance(v, dict) else ()
    return errors[max(fits, key=lambda i: sum(k in branches[i].get("properties", {}) for k in keys))]


def _error(s: dict, v, path: list):
    """The deepest ``(path, message)`` where ``v`` fails schema node ``s``,
    or None when ``v`` passes it. Among errors equally deep, the first in
    schema order; a tagged record's errors are those of the branch its tag
    names."""
    found = []
    for key, arg in s.items():
        if key == "properties":
            if isinstance(v, dict):
                found += [_error(sub, v[k], path + [k]) for k, sub in arg.items() if k in v]
        elif key == "additionalProperties":
            if isinstance(v, dict):
                extra = [k for k in v if k not in s.get("properties", {})]
                if arg is not False:
                    found += [_error(arg, v[k], path + [k]) for k in extra]
                elif extra:
                    keys = "key" if len(extra) == 1 else "keys"
                    found.append((path, f"unknown {keys} {', '.join(map(_short, extra))}"))
        elif key == "items":
            if isinstance(v, list):
                found += [_error(arg, x, path + [i]) for i, x in enumerate(v)]
        elif key == "$ref":
            found.append(_error(_REFS[arg], v, path))
        elif key == "oneOf":
            found.append(_one_of_error(arg, v, path))
        elif key not in ("$schema", "$defs"):
            check, message = _CHECKS[key]
            if not check(arg, v):
                found.append((path, message(arg, v)))
    found = [e for e in found if e is not None]
    return max(found, key=lambda e: len(e[0])) if found else None


def validate_config(doc: dict) -> dict:
    """Schema-check a config document; raises ConfigError naming the field."""
    error = _error(SCENARIO_SCHEMA, doc, [])
    if error is not None:
        path, message = error
        where = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
        raise ConfigError(f"config field {where}: {message}")
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
    return InputGrid.linspace(doc["start"], doc["stop"], int(doc["num"]))


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


def with_flags(doc: dict, flags: dict) -> dict:
    """``doc`` with ``flags`` (a run's given ``seed`` and ``samples``)
    written into its estimator section, so that a record of the run re-runs
    as it ran; ``samples`` only where the method has a ``samples`` field. A
    metric document with no estimator section gets one (``mc`` and seed 0,
    as a metric reads an absent section) only when a flag is given; a
    scenario or sweep document without one is left as it is, for its
    builder to name or default. A metric draws ``samples`` whatever the
    method, so a metric document whose method has no such field refuses it."""
    if not flags or ("estimator" not in doc and "metric" not in doc):
        return doc
    estimator = doc.get("estimator", {"method": "mc", "seed": 0})
    if "samples" not in ESTIMATORS[estimator["method"]].properties:
        if "samples" in flags and "metric" in doc:
            raise ConfigError(f"--samples {flags['samples']}: a '{estimator['method']}' estimator section has no samples field")
        flags = {name: v for name, v in flags.items() if name != "samples"}
    return {**doc, "estimator": {**estimator, **flags}}


@dataclass(frozen=True)
class BuiltScenario:
    scenario: Scenario
    estimator: dict
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
    try:
        scenario = Scenario(model_dist=model_dist, data_dist=data_dist, rule=rule)
    except ValueKindError as exc:
        raise ConfigError(f"config field $.{exc.section}: {exc.says(_RULE_TYPES[type(exc.leaf)])}") from None
    estimator = dict(doc["estimator"])
    if "samples" in ESTIMATORS[estimator["method"]].properties:
        estimator.setdefault("samples", DEFAULT_SAMPLES)
    return BuiltScenario(scenario=scenario, estimator=estimator, resolved={**doc, "estimator": estimator})


def build_sweep_template(doc: dict, *, checked: bool = False) -> tuple[SweepTemplate, dict]:
    """Build the model and data sections of a sweep config and make them a
    :func:`sweep_template`; returns it with the estimator section.

    ``checked`` is as for :func:`build_scenario`."""
    if not checked:
        validate_config(doc)
    for section in ("model", "data"):
        if section not in doc:
            raise ConfigError(f"config field $.{section}: section is required for a sweep")
    estimator = dict(doc.get("estimator", {"method": "grid", "seed": 0}))
    template = sweep_template(_model_dist_from_section(doc["model"]), _data_dist_from_section(doc["data"]), estimator)
    return template, estimator


def sweep_template(model_dist: dist.Distribution, data_dist: dist.Distribution, estimator: dict) -> SweepTemplate:
    """The template a sweep or a grid estimate runs on: a push-forward
    model, a certain data path, and the grid settings the estimator
    section gives (``SweepTemplate``'s defaults stand for the others).

    A grid has ``points_per_param`` points on each normal prior component
    and one path per point of their mesh. That count is taken in Python
    ints before any point is made, and a grid of more paths than numpy
    can index is a config error naming ``points_per_param``."""
    if not isinstance(model_dist, dist.PushForward):
        raise ConfigError("config field $.model: a sweep or a grid estimate needs model_function + prior + grid")
    if not isinstance(data_dist, dist.DiracDelta) or np.ndim(data_dist.value) != 1:
        raise ConfigError("config field $.data: a sweep or a grid estimate needs a certain data path")
    if np.size(data_dist.value) != model_dist.path_length:
        raise ConfigError("config field $.data: " + _LENGTH_FAULT.format(np.size(data_dist.value), model_dist.path_length))
    points = int(estimator.get("points_per_param", SweepTemplate.points_per_param))  # a schema integer may be 3.0
    if "points_per_param" in ESTIMATORS[estimator["method"]].properties:
        prior = model_dist.prior
        comps = prior.components if isinstance(prior, dist.IndependentProduct) else (prior,)
        other = next((c for c in comps if not isinstance(c, (dist.Normal, dist.DiracDelta))), None)
        if other is not None:
            raise ConfigError(f"config field $.model.prior: no grid discretisation for {type(other).__name__}")
        n = sum(isinstance(c, dist.Normal) for c in comps)
        if points**n > np.iinfo(np.intp).max:
            raise ConfigError(
                f"config field $.estimator.points_per_param: {n} normal prior components make too many grid paths to index"
            )
    return SweepTemplate(model_dist, data_dist.value, points, estimator.get("span_sigmas", SweepTemplate.span_sigmas))
