"""Command-line inputs that the library would turn into a meaningless
result are config errors (exit 2): a two-sided rule given to a metric
that scores a single value, a model prior that is not finite, and a
histogram of ``binned_pdf`` or ``divergence`` that ``BinnedPdf`` or the
data counts refuse (exit 3 before its pdfs were built ahead of the
metric), and a ``--seed`` below 0 or a ``--samples`` below 1, bounded as
the schema bounds ``estimator.seed`` and ``estimator.samples``. An
integer field written as an integral float (``40.0``) runs as its
integer does. An estimator section takes only its own method's fields,
and a grid with more paths than numpy can index is refused before any
point of it is made. A data path of another length than the model's
paths (unless the rule compares them as samples), a grid prior component
the grid cannot discretise, ``bins`` on a comparison that takes none, a
NaN ``data_summary.std`` and an evidence ``data_y`` of another length
than the grid are config errors naming their field, and so are a
``set_membership`` rule on path values (``$.agreement``) and a rule that
compares a scalar side with a path side value by value (``$.data``),
decided from the two sides' value kinds, and an ``in_region`` rule on the
side it reads when that side holds paths (``$.agreement``). A comparison
of two samples takes a scalar as a sample of one. A rule that reads paths
point by point refuses two scalars, and a rule that reads numbers refuses
a side of labels (``$.agreement``); a ``gamma_epsilon`` tolerance vector
of another length than the model's paths names ``$.agreement.eps``, a
``bins`` whose edges numpy cannot index names ``$.agreement.bins``, and a
NaN ``power`` level names its field. A grid too large to
hold is an estimation error (exit 3), not a traceback, and so are NaN
kernel weights, named as weights that escaped [0, 1]. A generated data
path that is NaN at an infinite grid point writes only its config error
to stderr. A flagged run's record holds its ``--seed`` and
``--samples``, so it re-runs as it ran."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bvm.cli import EXIT_CONFIG, EXIT_ESTIMATION, EXIT_OK, main
from bvm.config import ESTIMATORS

ABS_DIFF = {"type": "threshold", "fn": "abs_diff", "eps": 0.5}
METRIC_SECTIONS = {
    "area": {"name": "area", "samples_m": [0.0, 1.0, 2.0], "samples_d": [10.0, 11.0]},
    "binned_pdf": {"name": "binned_pdf", "edges": [0.0, 0.5, 1.0], "model_masses": [1.0, 0.0],
                   "data_counts": [0, 5]},
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
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
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


POLY = {
    "model": {
        "model_function": {"family": "polynomial", "powers": [0, 2]},
        "prior": {"type": "product", "components": [{"type": "normal", "mean": 1.0, "std": 0.2},
                                                    {"type": "normal", "mean": -0.5, "std": 0.1}]},
        "grid": {"start": 0.0, "stop": 2.0, "num": 10},
    },
    "data": {"generator": {"type": "grid_function", "name": "cos", "grid": {"start": 0.0, "stop": 2.0, "num": 10}}},
    "agreement": {"type": "gamma_epsilon", "gamma": 0.8, "eps": 0.3, "m": 5.0},
    "estimator": {"method": "mc", "samples": 300, "seed": 1},
}
BAND = {"type": "epsilon_beta", "mean_tol": 0.4, "band": {"source": "model", "level": 0.9, "samples": 200}}
SOFT = {"type": "soft_exponential", "fn": "identity", "eps_prime": 0.2, "rate": 3.0}
INTEGRAL_FIELDS = {
    "grid-num": ("validate", POLY, ("model", "grid", "num")),
    "points-per-param": ("validate", {**POLY, "estimator": {"method": "grid", "seed": 0, "points_per_param": 5}},
                         ("estimator", "points_per_param")),
    "samples": ("validate", POLY, ("estimator", "samples")),
    "seed": ("validate", POLY, ("estimator", "seed")),
    "band-samples": ("validate", {**POLY, "agreement": BAND}, ("agreement", "band", "samples")),
    "binned-pdf-samples": ("validate", {"metric": METRIC_SECTIONS["binned_pdf"], "agreement": SOFT,
                                        "estimator": {"method": "mc", "samples": 40, "seed": 0}},
                           ("estimator", "samples")),
    "area-bootstrap": ("validate", {"metric": {**METRIC_SECTIONS["area"], "bootstrap": 30}, "agreement": SOFT},
                       ("metric", "bootstrap")),
}


@pytest.mark.parametrize("field", INTEGRAL_FIELDS)
def test_an_integer_field_may_be_written_as_an_integral_float(tmp_path, capsys, field):
    # JSON Schema counts 40.0 as an integer; it runs as 40 does.
    command, doc, path = INTEGRAL_FIELDS[field]
    printed = []
    for name, cast in (("int", int), ("float", float)):
        doc = json.loads(json.dumps(doc))
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = cast(section[path[-1]])
        assert main([command, "--config", write(tmp_path, doc, f"{name}.json")]) == EXIT_OK
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


BAD_BINS = {
    "edges-not-increasing": ("binned_pdf", {"edges": [0.0, 2.0, 1.0]}, "$.metric.edges", "edges must be strictly increasing"),
    "negative-masses": ("binned_pdf", {"model_masses": [1.5, -0.5]}, "$.metric.model_masses", "masses must be nonnegative"),
    "masses-off-one": ("binned_pdf", {"model_masses": [0.5, 0.4]}, "$.metric.model_masses", "masses must sum to 1"),
    "masses-length": ("binned_pdf", {"model_masses": [0.2, 0.3, 0.5]}, "$.metric.model_masses", "need len(edges)"),
    "counts-length": ("binned_pdf", {"data_counts": [1, 2, 3]}, "$.metric.data_counts", "data counts must match"),
    "negative-counts": ("binned_pdf", {"data_counts": [1, -2]}, "$.metric.data_counts", "counts must be nonnegative"),
    "divergence-edges": ("divergence", {"edges": [0.0, 0.5, 0.5]}, "$.metric.edges", "edges must be strictly increasing"),
    "divergence-model-masses": ("divergence", {"model_masses": [-0.5, 1.5]}, "$.metric.model_masses", "masses must be nonnegative"),
    "divergence-data-masses": ("divergence", {"data_masses": [0.7, 0.7]}, "$.metric.data_masses", "masses must sum to 1"),
    "divergence-data-length": ("divergence", {"data_masses": [1.0]}, "$.metric.data_masses", "need len(edges)"),
}


@pytest.mark.parametrize("case", BAD_BINS)
def test_a_bad_histogram_is_a_config_error_naming_its_field(tmp_path, capsys, case):
    name, change, field, message = BAD_BINS[case]
    cfg = write(tmp_path, {"metric": {**METRIC_SECTIONS[name], **change}, "agreement": SOFT})
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: config field {field}: {message}")


BAD_FLAGS = {
    "validate-seed": ("validate", POLY, ["--seed", "-1"]),
    "validate-samples": ("validate", POLY, ["--samples", "0"]),
    "grid-validate-samples": ("validate", {**POLY, "estimator": {"method": "grid", "seed": 0}}, ["--samples", "0"]),
    "ratio-seed": ("ratio", POLY, ["--seed", "-1"]),
    "ratio-samples": ("ratio", POLY, ["--samples", "-5"]),
    "mc-sweep-seed": ("sweep", POLY, ["--seed", "-1"]),
    "mc-sweep-samples": ("sweep", POLY, ["--samples", "0"]),
    "binned-pdf-samples": ("binned_pdf", {"metric": METRIC_SECTIONS["binned_pdf"], "agreement": SOFT}, ["--samples", "0"]),
    "binned-pdf-seed": ("binned_pdf", {"metric": METRIC_SECTIONS["binned_pdf"], "agreement": SOFT}, ["--seed", "-2"]),
    "reproduce-seed": ("reproduce", None, ["--seed", "-1"]),
}


@pytest.mark.parametrize("case", BAD_FLAGS)
def test_a_bad_seed_or_samples_flag_is_a_config_error_naming_the_flag(tmp_path, capsys, case):
    command, doc, flags = BAD_FLAGS[case]
    if command == "reproduce":
        args = ["reproduce", "ex-5.1"]
    elif command == "ratio":
        args = ["ratio", write(tmp_path, doc), write(tmp_path, doc, "other.json")]
    elif command == "sweep":
        args = ["sweep", write(tmp_path, doc), "--out-prefix", str(tmp_path / "sweep")]
    else:
        args = ["validate", "--config", write(tmp_path, doc)]
    assert main([*args, *flags]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {flags[0]} {flags[1]}: must be at least ")


def _argv(tmp_path, command, doc):
    cfg = write(tmp_path, doc)
    return ["validate", "--config", cfg] if command == "validate" else ["sweep", cfg, "--out-prefix", str(tmp_path / "sweep")]


CROSS_METHOD = {
    "points-per-param-on-mc": ({"method": "mc", "seed": 0, "points_per_param": 5}, "points_per_param"),
    "span-sigmas-on-mc": ({"method": "mc", "seed": 0, "span_sigmas": 2.0}, "span_sigmas"),
    "samples-on-grid": ({"method": "grid", "seed": 0, "samples": 300}, "samples"),
}


@pytest.mark.parametrize("command", ["validate", "sweep"])
@pytest.mark.parametrize("case", CROSS_METHOD)
def test_a_field_of_the_other_estimator_method_is_a_config_error(tmp_path, capsys, case, command):
    estimator, key = CROSS_METHOD[case]
    assert main(_argv(tmp_path, command, {**POLY, "estimator": estimator})) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: config field $.estimator: unknown key '{key}'\n"


@pytest.mark.parametrize("command", ["validate", "sweep"])
def test_a_grid_too_large_to_index_is_refused_before_it_is_made(tmp_path, capsys, command):
    # 1e300 is a schema integer, and more points than numpy's linspace can make.
    doc = {**POLY, "estimator": {"method": "grid", "seed": 0, "points_per_param": 1e300}}
    assert main(_argv(tmp_path, command, doc)) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: config field $.estimator.points_per_param: 2 normal prior components make too many grid paths to index\n"
    )


def test_the_grid_bound_leaves_an_mc_sweep_alone(tmp_path):
    # An MC sweep reads no points_per_param: 20 points (the default) on each
    # of these 16 normal components would make 20**16 > 2**63 grid paths.
    doc = json.loads(json.dumps(POLY))
    doc["model"]["model_function"]["powers"] = list(range(16))
    doc["model"]["prior"]["components"] = [{"type": "normal", "mean": 0.0, "std": 0.01}] * 16
    doc["estimator"] = {"method": "mc", "samples": 50, "seed": 0}
    assert main(_argv(tmp_path, "sweep", doc)) == EXIT_OK


def _short_data(estimator):
    doc = json.loads(json.dumps({**POLY, "estimator": estimator}))
    doc["data"]["generator"]["grid"]["num"] = 9
    return doc


def _t_prior(estimator):
    doc = json.loads(json.dumps({**POLY, "estimator": estimator}))
    doc["model"]["prior"]["components"][1] = {"type": "student_t", "location": -0.5, "dof": 4.0, "scale": 0.1}
    return doc


SHORT_PATH = "the data path has 9 points, but the model grid has 10"
NO_GRID = "no grid discretisation for StudentT"
FIELD_FAULTS = {
    "mc-validate-data-length": ("validate", _short_data({"method": "mc", "samples": 50, "seed": 0}), "$.data", SHORT_PATH),
    "grid-validate-student-t-prior": ("validate", _t_prior({"method": "grid", "seed": 0}), "$.model.prior", NO_GRID),
    "grid-sweep-student-t-prior": ("sweep", _t_prior({"method": "grid", "seed": 0}), "$.model.prior", NO_GRID),
    "grid-validate-data-length": ("validate", _short_data({"method": "grid", "seed": 0}), "$.data", SHORT_PATH),
    "grid-sweep-data-length": ("sweep", _short_data({"method": "grid", "seed": 0}), "$.data", SHORT_PATH),
    "mc-sweep-data-length": ("sweep", _short_data({"method": "mc", "samples": 50, "seed": 0}), "$.data", SHORT_PATH),
    "frequentist-nan-std": (
        "frequentist",
        {"metric": {**METRIC_SECTIONS["frequentist"], "data_summary": {"mean": 5.0, "std": float("nan"), "n": 10}},
         "agreement": SOFT},
        "$.metric.data_summary",
        "sample_std must be positive",
    ),
    "evidence-data-y-length": (
        "evidence",
        {"model": POLY["model"], "metric": {"name": "evidence", "sigma": 0.1, "data_y": [0.0] * 9}},
        "$.metric.data_y",
        "data_y length must match the grid",
    ),
    "evidence-sigma-overflow": (
        "evidence",
        {"model": POLY["model"], "metric": {"name": "evidence", "sigma": 1e200, "data_y": [0.0] * 10}},
        "$.metric.sigma",
        "sigma must be positive and finite",
    ),
}


@pytest.mark.parametrize("case", FIELD_FAULTS)
def test_an_input_fault_the_library_finds_is_a_config_error_naming_its_field(tmp_path, capsys, case):
    command, doc, field, message = FIELD_FAULTS[case]
    argv = _argv(tmp_path, command if command == "sweep" else "validate", doc)
    assert main([*argv, "--samples", "64"] if command == "evidence" else argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: config field {field}: {message}")


@pytest.mark.parametrize("command", ["validate", "sweep"])
def test_an_mc_run_takes_a_student_t_prior_component(tmp_path, command):
    assert main(_argv(tmp_path, command, _t_prior({"method": "mc", "samples": 50, "seed": 0}))) == EXIT_OK


def test_a_binned_comparison_scores_paths_of_two_lengths(tmp_path, capsys):
    doc = {**_short_data({"method": "mc", "samples": 50, "seed": 0}),
           "agreement": {"type": "threshold", "fn": "binned_prob_diff", "bins": 4, "eps": 1.0}}
    assert main(_argv(tmp_path, "validate", doc)) == EXIT_OK
    assert capsys.readouterr().out.startswith("P(agree) = ")


@pytest.mark.parametrize("rule", ["threshold", "interval", "soft_exponential"])
def test_bins_on_a_comparison_that_takes_none_is_a_config_error(tmp_path, capsys, rule):
    fields = {"threshold": {"eps": 0.5}, "interval": {"lo": 0.0, "hi": 0.5}, "soft_exponential": {"eps_prime": 0.5, "rate": 2.0}}
    doc = {**POLY, "agreement": {"type": rule, "fn": "mean_abs_error", "bins": 8, **fields[rule]}}
    assert main(_argv(tmp_path, "validate", doc)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: bad agreement rule type '{rule}': comparison 'mean_abs_error' takes no bins\n"


# A flagged run's record holds its flags in its estimator section, so its
# config re-runs, with no flag, to the same estimate.
RERUNS = {
    "mc-validate": POLY,
    "grid-validate": {**POLY, "estimator": {"method": "grid", "seed": 0, "points_per_param": 3}},
    "metric-without-estimator": {"metric": {**METRIC_SECTIONS["area"], "bootstrap": 30}, "agreement": SOFT},
    "binned-pdf": {"metric": METRIC_SECTIONS["binned_pdf"], "agreement": SOFT,
                   "estimator": {"method": "mc", "samples": 40, "seed": 0}},
}


@pytest.mark.parametrize("case", RERUNS)
def test_a_record_of_a_flagged_run_reruns_without_flags(tmp_path, case):
    flagged, rerun = tmp_path / "flagged.json", tmp_path / "rerun.json"
    argv = ["validate", "--config", write(tmp_path, RERUNS[case]), "--seed", "7", "--samples", "50", "--out", str(flagged)]
    assert main(argv) == EXIT_OK
    record = json.loads(flagged.read_text())
    estimator = record["config"]["estimator"]
    assert estimator["seed"] == 7
    assert estimator.get("samples") == (None if case == "grid-validate" else 50)
    assert main(["validate", "--config", write(tmp_path, record["config"], "rerun-cfg.json"), "--out", str(rerun)]) == EXIT_OK
    assert json.loads(rerun.read_text())["estimates"] == record["estimates"]


def test_a_samples_flag_a_metric_record_cannot_hold_is_a_config_error(tmp_path, capsys):
    # A metric draws its sample count, and a grid section has no samples field.
    doc = {"metric": METRIC_SECTIONS["area"], "agreement": SOFT, "estimator": {"method": "grid", "seed": 0}}
    assert main(["validate", "--config", write(tmp_path, doc), "--samples", "50"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: --samples 50: a 'grid' estimator section has no samples field\n"


def test_a_ratio_record_holds_its_flags_in_both_configs(tmp_path):
    out, rerun = tmp_path / "ratio.json", tmp_path / "rerun.json"
    cfg = write(tmp_path, POLY)
    assert main(["ratio", cfg, cfg, "--seed", "7", "--samples", "50", "--out", str(out)]) == EXIT_OK
    record = json.loads(out.read_text())
    for key in ("model", "model_other"):
        assert record["config"][key]["estimator"] == {"method": "mc", "samples": 50, "seed": 7}
    assert main(["validate", "--config", write(tmp_path, record["config"]["model"], "m.json"), "--out", str(rerun)]) == EXIT_OK
    assert json.loads(rerun.read_text())["estimates"] == record["estimates"][:1]


def test_a_grid_too_large_to_hold_is_an_estimation_error(tmp_path, capsys, monkeypatch):
    # numpy raises a MemoryError subclass when it cannot allocate an array.
    def build(built, samples, seed):
        raise MemoryError("Unable to allocate 64.0 TiB for an array with shape (8000000000000,) and data type float64")

    monkeypatch.setitem(ESTIMATORS, "grid", ESTIMATORS["grid"]._replace(build=build))
    doc = {**POLY, "estimator": {"method": "grid", "seed": 0}}
    assert main(["validate", "--config", write(tmp_path, doc)]) == EXIT_ESTIMATION
    assert capsys.readouterr().err == (
        "estimation error: Unable to allocate 64.0 TiB for an array with shape (8000000000000,) and data type float64\n"
    )


SCALAR = {"type": "normal", "mean": 0.0, "std": 1.0}
PATH = {"type": "dirac", "value": [1.0, 2.0, 3.0]}


def kinds_doc(model, data, agreement):
    return {"model": {"distribution": model}, "data": {"distribution": data}, "agreement": agreement,
            "estimator": {"method": "mc", "samples": 50, "seed": 0}}


@pytest.mark.parametrize("model, data, side", [(PATH, {"type": "dirac", "value": [1.0, 2.0, 5.0]}, "model"),
                                               (SCALAR, PATH, "data")])
def test_set_membership_on_path_values_is_a_config_error(tmp_path, capsys, model, data, side):
    doc = kinds_doc(model, data, {"type": "set_membership", "synonyms": {"a": ["b"]}})
    assert main(["validate", "--config", write(tmp_path, doc)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: config field $.agreement: set_membership compares labels, but the {side} values are paths\n"
    )


@pytest.mark.parametrize("agreement", [ABS_DIFF, {"type": "gamma_epsilon", "gamma": 0.5, "eps": 1.0, "m": 5},
                                       {"type": "or", "children": [{"type": "threshold", "fn": "identity", "eps": 1.0},
                                                                   {"type": "threshold", "fn": "kl", "eps": 1.0}]}])
@pytest.mark.parametrize("model, data", [(SCALAR, PATH), (PATH, SCALAR)])
def test_a_scalar_compared_with_a_path_is_a_config_error(tmp_path, capsys, agreement, model, data):
    # A one-row probe would broadcast (1,) against (1, 3) and pass: the kinds decide.
    assert main(["validate", "--config", write(tmp_path, kinds_doc(model, data, agreement))]) == EXIT_CONFIG
    kinds = ("paths", "scalars") if data is PATH else ("scalars", "paths")
    assert capsys.readouterr().err.startswith(
        "config error: config field $.data: the data values are %s but the model values are %s, and " % kinds
    )


@pytest.mark.parametrize("agreement", [{"type": "threshold", "fn": "identity", "eps": 1.0},
                                       {"type": "threshold", "fn": "area_metric", "eps": 1.0},
                                       {"type": "threshold", "fn": "binned_prob_diff", "bins": 4, "eps": 1.0}])
@pytest.mark.parametrize("model, data", [(SCALAR, PATH), (PATH, SCALAR), (SCALAR, SCALAR)])
def test_a_scalar_may_meet_a_path_in_a_one_sided_or_sample_comparison(tmp_path, agreement, model, data):
    assert main(["validate", "--config", write(tmp_path, kinds_doc(model, data, agreement))]) == EXIT_OK


def _five_points(estimator, agreement):
    doc = json.loads(json.dumps({**POLY, "estimator": estimator, "agreement": agreement}))
    doc["model"]["grid"]["num"] = doc["data"]["generator"]["grid"]["num"] = 5
    return doc


IN_REGION = {"type": "in_region", "side": "model", "region": {"kind": "interval", "level": 0.9, "intervals": [[-1.0, 1.0]]}}
ON_A_PATH_SIDE = {
    "in-region-model": (IN_REGION, "in_region reads the model values, but they are paths"),
    "in-region-data": ({**IN_REGION, "side": "data"}, "in_region reads the data values, but they are paths"),
    "set-membership": ({"type": "set_membership", "synonyms": {"a": ["b"]}},
                       "set_membership compares labels, but the model values are paths"),
}


@pytest.mark.parametrize("estimator", [{"method": "mc", "samples": 50, "seed": 0},
                                       {"method": "grid", "seed": 0, "points_per_param": 3}], ids=["mc", "grid"])
@pytest.mark.parametrize("case", ON_A_PATH_SIDE)
def test_a_label_or_region_rule_on_a_path_side_is_a_config_error(tmp_path, capsys, case, estimator):
    agreement, message = ON_A_PATH_SIDE[case]
    assert main(_argv(tmp_path, "validate", _five_points(estimator, agreement))) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: config field $.agreement: {message}\n"


def test_a_region_rule_may_read_the_scalar_side_of_a_path_scenario(tmp_path):
    doc = kinds_doc(SCALAR, PATH, {**IN_REGION, "side": "model"})
    assert main(["validate", "--config", write(tmp_path, doc)]) == EXIT_OK


LABELS = {"type": "categorical", "values": ["a", "b"], "probs": [0.5, 0.5]}
READ_FAULTS = {
    # Each read a chunk of scalars as one path and printed 0.0 at exit 0.
    "gamma-epsilon-on-two-scalars": (
        SCALAR, SCALAR, {"type": "gamma_epsilon", "gamma": 0.5, "eps": 0.5, "m": 5},
        "$.agreement: gamma_epsilon compares paths point by point, but the model and data values are scalars",
    ),
    "mean-abs-error-on-two-scalars": (
        SCALAR, SCALAR, {"type": "threshold", "fn": "mean_abs_error", "eps": 0.5},
        "$.agreement: threshold compares through 'mean_abs_error' point by point, but the model and data values are scalars",
    ),
    # An exit 3: "could not convert string to float: 'b'".
    "abs-diff-on-labels": (
        LABELS, {"type": "categorical", "values": ["a"], "probs": [1.0]}, ABS_DIFF,
        "$.agreement: threshold compares through 'abs_diff' value by value, but the model values are labels",
    ),
    "area-on-a-label-data-side": (
        SCALAR, LABELS, {"type": "threshold", "fn": "area_metric", "eps": 0.5},
        "$.agreement: threshold compares through 'area_metric', but the data values are labels",
    ),
    "interval-region-on-labels": (
        SCALAR, LABELS, {**IN_REGION, "side": "data"},
        "$.agreement: in_region reads the data values, but they are labels",
    ),
    # An exit 3: numpy's "shape mismatch".
    "eps-of-another-length": (
        PATH, PATH, {"type": "gamma_epsilon", "gamma": 0.5, "eps": [0.5, 0.5], "m": 5},
        "$.agreement.eps: 2 points, but the model's paths have 3",
    ),
}


@pytest.mark.parametrize("estimator", [{"method": "mc", "samples": 50, "seed": 0}, {"method": "grid", "seed": 0}],
                         ids=["mc", "grid"])
@pytest.mark.parametrize("case", READ_FAULTS)
def test_a_rule_that_cannot_read_the_values_is_a_config_error(tmp_path, capsys, case, estimator):
    # Refused where the scenario is built, before either estimator runs.
    model, data, agreement, message = READ_FAULTS[case]
    doc = {**kinds_doc(model, data, agreement), "estimator": estimator}
    assert main(["validate", "--config", write(tmp_path, doc)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: config field {message}\n"


@pytest.mark.parametrize("model, data, agreement", [
    (SCALAR, LABELS, {"type": "threshold", "fn": "identity", "eps": 1.0}),
    (LABELS, LABELS, {"type": "set_membership", "synonyms": {"a": ["b"]}}),
    (SCALAR, LABELS, {"type": "in_region", "side": "data", "region": {"kind": "set", "level": 0.9, "labels": ["a"]}}),
], ids=["model-comparison", "set-membership", "label-region"])
def test_a_label_side_is_read_only_by_what_reads_labels_or_reads_the_other_side(tmp_path, model, data, agreement):
    assert main(["validate", "--config", write(tmp_path, kinds_doc(model, data, agreement))]) == EXIT_OK


@pytest.mark.parametrize("bins", [1e300, 2**62], ids=["1e300", "2**62"])
def test_bins_whose_edges_numpy_cannot_index_are_a_config_error(tmp_path, capsys, bins):
    # 1e300 exited 3 with "Maximum allowed size exceeded", 2**62 with "array is too big".
    doc = kinds_doc(SCALAR, SCALAR, {"type": "threshold", "fn": "binned_prob_diff", "bins": bins, "eps": 0.5})
    assert main(["validate", "--config", write(tmp_path, doc)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: config field $.agreement.bins: {bins!r} bins make too many bin edges to index\n"
    )


@pytest.mark.parametrize("field", ["alpha", "alpha_hat"])
def test_a_nan_power_level_is_a_config_error_naming_it(tmp_path, capsys, field):
    # NaN fails no schema bound; it exited 3 with "alpha and alpha_hat must lie in [0, 1)".
    metric = {"name": "power", "alpha": 0.05, "alpha_hat": 0.05, field: float("nan")}
    doc = {"model": {"distribution": SCALAR}, "data": {"distribution": SCALAR}, "metric": metric}
    assert main(["validate", "--config", write(tmp_path, doc)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: config field $.metric.{field}: {field} is NaN\n"


@pytest.mark.parametrize("data, eps, message", [
    ([1.0, 2.0], 0.5, "$.data: the data path has 2 points, but the model grid has 3"),
    ([1.0, 2.0, 3.0], [0.5, 0.5], "$.metric.eps: 2 points, but the model's paths have 3"),
], ids=["data-length", "eps-length"])
def test_improved_reliability_names_a_length_fault(tmp_path, capsys, data, eps, message):
    # Both exited 3: "path length mismatch: 3 vs 2" and numpy's "shape mismatch".
    doc = {"model": {"distribution": PATH}, "data": {"distribution": {"type": "dirac", "value": data}},
           "metric": {"name": "improved_reliability", "eps": eps}}
    assert main(["validate", "--config", write(tmp_path, doc), "--samples", "64"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: config field {message}\n"


def test_nan_kernel_weights_are_named_as_escaped_weights(tmp_path, capsys):
    # kl of two paths of normal draws (no mass vectors) is NaN, and so are the
    # soft kernel's weights; a NaN passed the weight guard, and the run exited 3
    # with the estimate's "estimate escaped [0, 1]".
    product = {"type": "product", "components": [SCALAR] * 3}
    doc = kinds_doc(product, product, {"type": "soft_exponential", "fn": "kl", "eps_prime": 0.5, "rate": 2.0})
    assert main(["validate", "--config", write(tmp_path, doc)]) == EXIT_ESTIMATION
    assert capsys.readouterr().err == "estimation error: kernel weight escaped [0, 1]\n"


def test_a_grid_function_on_an_infinite_point_writes_only_the_config_error(tmp_path):
    # A new interpreter, as pytest would catch the warning: cos(-inf) wrote
    # numpy's "RuntimeWarning: invalid value encountered in cos" to stderr first.
    doc = {"model": {"distribution": PATH}, "agreement": {"type": "threshold", "fn": "mean_abs_error", "eps": 0.5},
           "data": {"generator": {"type": "grid_function", "name": "cos", "grid": {"points": [-math.inf, 0.5, 1.0]}}},
           "estimator": {"method": "mc", "samples": 50, "seed": 0}}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "bvm.cli", "validate", "--config", write(tmp_path, doc)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr == "config error: bad data generator 'grid_function': DiracDelta value must not be NaN\n"
