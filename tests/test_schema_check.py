"""The package's schema checker against jsonschema, the reference.

``validate_config`` checks documents with ``bvm.config``'s own checker,
which knows exactly the keywords ``SCENARIO_SCHEMA`` uses. Here it must
accept exactly the documents ``Draft202012Validator(SCENARIO_SCHEMA)``
accepts: every builtin config, and every mutation of a set of small
documents that between them hold every tagged form, with each key
deleted, each value replaced by one of ``LEAVES``, an unknown key added
to each object, and each estimator section moved to every other method,
fields and all. jsonschema is only a test dependency (the ``test`` extra).
"""

import pytest

from bvm.config import _CHECKS, _TYPES, ESTIMATORS, SCENARIO_SCHEMA, ConfigError, _error, _nodes, validate_config
from bvm.studies import builtin_configs

NAN, INF = float("nan"), float("inf")
# Values that sit on each type and bound the schema tests: booleans next to
# 0 and 1, 1.0 (an integer), NaN and ±inf (numbers), strings that are tags,
# and empty containers.
LEAVES = [None, True, False, 0, 1, -1, 1.0, 0.5, -0.5, 2.5, 100, 1e300, NAN, INF, -INF, "", "normal", [], {}]

_SHORT_PRODUCT = {"type": "product", "components": [{"type": "normal", "mean": 0.0, "std": 1.0}, {"type": "dirac", "value": 0.5}]}

# Between them, every distribution, rule, generator, model function, metric,
# grid, band and section form.
BASES = [
    {
        "model": {"distribution": {"type": "student_t", "location": 0.0, "dof": 3.0, "scale": 1.0}},
        "data": {"distribution": _SHORT_PRODUCT},
        "agreement": {"type": "threshold", "fn": "binned_prob_diff", "eps": 0.2, "bins": 4},
        "estimator": {"method": "mc", "samples": 10, "seed": 0},
        "output": {"path": "r.json", "format": "json"},
    },
    {
        "model": {"distribution": {"type": "uniform", "lo": -1.0, "hi": 1.0}},
        "data": {"distribution": {"type": "shifted_exponential", "rate": 2.0, "shift": 0.1}},
        "agreement": {"type": "soft_exponential", "fn": "abs_diff", "eps_prime": 0.2, "rate": 3.0},
    },
    {
        "model": {"distribution": {"type": "categorical", "values": [1.0, "a"], "probs": [0.5, 0.5]}},
        "data": {"distribution": {"type": "empirical", "samples": [1.0, [2.0, 3.0]]}},
        "agreement": {"type": "set_membership", "synonyms": {"a": ["a", 1.0]}},
    },
    {
        "agreement": {
            "type": "or",
            "children": [
                {"type": "interval", "fn": "identity", "lo": 0.0, "hi": 1.0},
                {"type": "not", "child": {"type": "always_true"}},
            ],
        },
    },
    {
        "agreement": {
            "type": "and",
            "children": [
                {"type": "in_region", "side": "data", "region": {"kind": "interval", "level": 0.9, "intervals": [[-1.0, 1.0]]}},
                {"type": "always_false"},
            ],
        },
    },
    {"agreement": {"type": "in_region", "side": "model", "region": {"kind": "set", "level": 1.0, "labels": ["a", 2.0]}}},
    {
        "model": {
            "model_function": {"family": "polynomial", "powers": [0, 2]},
            "prior": _SHORT_PRODUCT,
            "grid": {"start": 0.0, "stop": 1.0, "num": 3},
        },
        "data": {"generator": {"type": "grid_function", "name": "cos", "grid": {"points": [0.0, 0.5, 1.0]}}},
        "agreement": {"type": "gamma_epsilon", "gamma": 0.9, "eps": [0.1, 0.2, 0.3], "m": 5.0},
        "estimator": {"method": "grid", "seed": 0, "points_per_param": 3, "span_sigmas": 2.0},
    },
    {
        "model": {
            "distribution": {
                "type": "push_forward",
                "prior": {"type": "dirac", "value": [1.0, 2.0]},
                "model_function": {"family": "damped_oscillator"},
                "grid": {"points": [0.0, 1.0]},
            }
        },
        "data": {
            "generator": {
                "type": "function_instance",
                "function": {"family": "damped_oscillator"},
                "params": [1.0, 2.0],
                "grid": {"start": 0.0, "stop": 1.0, "num": 2},
                "aleatoric_std": 0.1,
                "epistemic_std": 0.0,
                "instance_seed": 3,
            }
        },
        "agreement": {
            "type": "epsilon_beta",
            "mean_tol": 0.5,
            "coverage_lo": 0.9,
            "coverage_hi": 1.0,
            "band": {"source": "model", "level": 0.9, "samples": 100, "seed": 1},
        },
    },
    {"agreement": {"type": "epsilon_beta", "mean_tol": 0.5, "band": {"lo": [0.0, 1.0], "hi": [1.0, 2.0]}}},
    {"metric": {"name": "reliability", "eps": 0.5}},
    {"metric": {"name": "improved_reliability", "eps": [0.5, 1.0]}},
    {"metric": {"name": "frequentist", "model_mean": 0.0, "data_summary": {"mean": 0.1, "std": 1.0, "n": 5}}},
    {"metric": {"name": "power", "alpha": 0.05, "alpha_hat": 0.05, "region": "set"}},
    {"metric": {"name": "classical", "alpha": 0.05}},
    {"metric": {"name": "evidence", "sigma": 0.5, "data_y": [1.0, 2.0]}},
    {"metric": {"name": "area", "samples_m": [0.0, 1.0], "samples_d": [0.5], "bootstrap": 10}},
    {"metric": {"name": "binned_pdf", "edges": [0.0, 1.0], "model_masses": [1.0], "data_counts": [3.0]},
     "estimator": {"method": "mc", "samples": 10, "seed": 0}},
    {"metric": {"name": "divergence", "kind": "js", "edges": [0.0, 1.0], "model_masses": [1.0], "data_masses": [1.0]}},
]

DELETE = object()


def _replaced(node, path, new):
    """``node`` with the value at ``path`` replaced by ``new`` (``DELETE``
    removes it). Only the containers on the path are copied."""
    if not path:
        return new
    out = list(node) if isinstance(node, list) else dict(node)
    sub = _replaced(node[path[0]], path[1:], new)
    if sub is DELETE:
        del out[path[0]]
    else:
        out[path[0]] = sub
    return out


def _paths(node, path=()):
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def mutations(doc):
    for path, node in _paths(doc):
        if path:
            yield _replaced(doc, path, DELETE)
            for leaf in LEAVES:
                yield _replaced(doc, path, leaf)
        if isinstance(node, dict):
            yield _replaced(doc, path, {**node, "mystery": 1})
    # The estimator section under every other method, with its fields.
    for method in ESTIMATORS:
        if "estimator" in doc and method != doc["estimator"]["method"]:
            yield _replaced(doc, ("estimator", "method"), method)


def fast_reference():
    """``Draft202012Validator(SCENARIO_SCHEMA)`` with two keywords evaluated
    lazily. ``oneOf`` counts the branches jsonschema finds valid (the
    keyword's definition) instead of listing every error of each failing
    branch, and ``$ref`` stops at the first error. Both verdicts are
    memoised by the schema node and the instance's repr, which tells 1,
    1.0 and True apart. A keyword's verdict depends on nothing else, so no
    verdict changes; mutations share most of their records, so this saves
    most of jsonschema's time."""
    from jsonschema import Draft202012Validator, ValidationError, validators

    memo = {}
    plain_ref = Draft202012Validator.VALIDATORS["$ref"]

    def ref(validator, target, instance, schema):
        key = (target, repr(instance))
        if key not in memo:
            memo[key] = next(plain_ref(validator, target, instance, schema), None) is None
        if not memo[key]:
            yield ValidationError(f"not valid under {target}")

    def one_of(validator, branches, instance, schema):
        key = (id(branches), repr(instance))
        if key not in memo:
            memo[key] = sum(validator.evolve(schema=b).is_valid(instance) for b in branches) == 1
        if not memo[key]:
            yield ValidationError("not valid under exactly one branch")

    return validators.extend(Draft202012Validator, {"$ref": ref, "oneOf": one_of})(SCENARIO_SCHEMA)


# Mutated besides BASES: one builtin config of each kind and variant.
MUTATED_BUILTINS = (
    "power-model-0",
    "oscillator-deterministic-compound",
    "oscillator-uncertain-compound",
    "oscillator-uncertain-mean_error",
    "poly-deterministic-model1",
    "poly-uncertain-model2",
)


@pytest.fixture(scope="module")
def corpus():
    """The unmutated documents (all valid) and their mutations."""
    builtins = builtin_configs(0)
    unmutated = list(builtins.values()) + BASES
    mutated = [m for doc in BASES + [builtins[name] for name in MUTATED_BUILTINS] for m in mutations(doc)]
    assert len(mutated) >= 10_000
    return unmutated, mutated


def test_checker_accepts_exactly_what_jsonschema_accepts(corpus):
    jsonschema = pytest.importorskip("jsonschema")
    reference = fast_reference()
    unmutated, mutated = corpus
    docs = unmutated + mutated
    want = [reference.is_valid(doc) for doc in docs]
    got = [_error(SCENARIO_SCHEMA, doc, []) is None for doc in docs]
    assert all(want[: len(unmutated)])
    wrong = [doc for doc, w, g in zip(docs, want, got) if w != g]
    assert not wrong, wrong[:3]
    # Both verdicts occur often, so the corpus tests each side.
    assert 0.1 < sum(want) / len(want) < 0.9
    # The lazy reference against the plain validator, on a sample.
    plain = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)
    assert all(plain.is_valid(doc) == w for doc, w in zip(docs[::97], want[::97]))


def test_every_rejected_mutation_gets_a_short_message(corpus):
    # On every 10th rejected mutation.
    _, mutated = corpus
    for doc in [doc for doc in mutated if _error(SCENARIO_SCHEMA, doc, []) is not None][::10]:
        with pytest.raises(ConfigError, match=r"^config field \$") as err:
            validate_config(doc)
        assert len(str(err.value)) < 300


# The keywords ``_error`` walks itself; every other one is a value check.
WALKED = {"$schema", "$defs", "$ref", "properties", "additionalProperties", "items", "oneOf"}


def test_schema_uses_only_keywords_the_checker_supports():
    for node in _nodes(SCENARIO_SCHEMA):
        # A boolean schema is supported only as ``additionalProperties: false``.
        assert isinstance(node, dict), node
        assert set(node) <= set(_CHECKS) | WALKED, sorted(set(node) - set(_CHECKS) - WALKED)
        types = node.get("type", [])
        assert set([types] if isinstance(types, str) else types) <= set(_TYPES)
        # Equality is Python's ``==`` only for string constants.
        constants = ([node["const"]] if "const" in node else []) + node.get("enum", [])
        assert all(isinstance(c, str) for c in constants), constants
    assert len(_CHECKS) == 10 and len(set(_CHECKS) | WALKED) == 17
    with pytest.raises(KeyError):
        _error({"mystery": 1}, 0, [])
