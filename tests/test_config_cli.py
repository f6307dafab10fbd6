"""Config schema, serialisation round trips, CLI behaviour, exit codes."""

import argparse
import csv
import hashlib
import json
import math

import numpy as np
import pytest

import bvm
from bvm.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RULE_MISMATCH,
    _parse_axis,
    _write_ratio_csv,
    _write_sweep_csv,
    main,
)
from bvm.config import (
    DISTRIBUTIONS,
    RULES,
    ConfigError,
    build_scenario,
    build_sweep_template,
    distribution_from_config,
    rule_from_config,
    rule_to_config,
    validate_config,
)
from bvm.agreement import Interval, SoftExponential, Threshold
from bvm.comparison import get_comparison_fn
from bvm.engine import EstimationError, SweepGrid, ratio_grid
from bvm.studies import builtin_configs, run_study


def scenario_doc(**overrides):
    doc = {
        "model": {"distribution": {"type": "normal", "mean": 0.0, "std": 1.0}},
        "data": {"distribution": {"type": "dirac", "value": 0.0}},
        "agreement": {"type": "threshold", "fn": "abs_diff", "eps": 1.0},
        "estimator": {"method": "mc", "samples": 5000, "seed": 3},
    }
    doc.update(overrides)
    return doc


def hundred_components(bad):
    """A data section: a product of 100 normals, the 58th with ``std`` = bad."""
    comps = [{"type": "normal", "mean": 0.01 * i, "std": 0.2} for i in range(100)]
    comps[57] = {**comps[57], "std": bad}
    return {"data": {"distribution": {"type": "product", "components": comps}}}


class TestSchema:
    def test_valid_doc_passes(self):
        validate_config(scenario_doc())

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="extra"):
            validate_config(scenario_doc(extra=1))

    def test_unknown_nested_key_rejected(self):
        doc = scenario_doc()
        doc["model"]["distribution"]["mystery"] = True
        with pytest.raises(ConfigError):
            validate_config(doc)

    def test_error_names_offending_field(self):
        doc = scenario_doc()
        doc["agreement"] = {"type": "threshold", "fn": "abs_diff"}  # eps missing
        with pytest.raises(ConfigError, match=r"\$\.agreement"):
            validate_config(doc)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                hundred_components("wide"),
                r"config field \$\.data\.distribution\.components\[57\]\.std: 'wide' is not of type 'number'$",
            ),
            ({"agreement": {"type": "threshold", "fn": "abs_diff"}}, r"config field \$\.agreement: 'eps' is required$"),
            (
                {"agreement": {"type": "thresh", "fn": "abs_diff", "eps": 1.0}},
                r"config field \$\.agreement\.type: 'thresh' is not one of \['always_true', .*'threshold', .*'not'\]$",
            ),
            (
                {"data": {"distribution": {"mean": 0.0, "std": 1.0}}},
                r"config field \$\.data\.distribution\.type: is missing; one of \['dirac', 'normal', .*\]$",
            ),
            (
                {"agreement": {"type": "threshold", "fn": "abs_diff", "eps": True}},
                r"config field \$\.agreement\.eps: True is not of type 'number'$",
            ),
            ({"extra": 1}, r"config field \$: unknown key 'extra'$"),
            (
                {"model": {"distribution": {"type": "normal", "mean": 0.0, "std": 1.0, "mystery": 1}}},
                r"config field \$\.model\.distribution: unknown key 'mystery'$",
            ),
        ],
        ids=["hundred-components", "missing-eps", "unknown-rule", "missing-tag", "boolean-number", "unknown-key", "nested-key"],
    )
    def test_error_names_the_deepest_field(self, overrides, message):
        # A tagged record's errors are those of the branch its tag names;
        # a oneOf of untagged forms descends into the form the value fits.
        with pytest.raises(ConfigError, match=message) as err:
            validate_config(scenario_doc(**overrides))
        assert len(str(err.value)) < 300

    def test_every_builtin_config_validates(self):
        for name, doc in builtin_configs(seed=1).items():
            validate_config(doc)

    def test_schema_digest_is_pinned(self):
        # Any change to the documents the schema accepts, or to the order of
        # a oneOf list (which decides the error validate_config reports),
        # changes this digest.
        from bvm.config import SCENARIO_SCHEMA

        digest = hashlib.sha256(json.dumps(SCENARIO_SCHEMA, sort_keys=True).encode()).hexdigest()
        assert digest == "2a6cfde994e3c0f18716c3ed55af4e55e371faefff406463199454948d9671cf"

    @pytest.mark.parametrize(
        "extra",
        [{"comparison": {"fn": "abs_diff"}}, {"estimator": {"method": "mc", "seed": 0, "bins": 64}}],
        ids=["comparison", "estimator.bins"],
    )
    def test_unread_fields_are_rejected(self, extra):
        with pytest.raises(ConfigError):
            validate_config(scenario_doc(**extra))


class TestTables:
    # One document per distribution tag, in table order.
    DISTRIBUTION_DOCS = [
        {"type": "dirac", "value": [1.0, 2.0]},
        {"type": "normal", "mean": 0.5, "std": 2.0},
        {"type": "student_t", "location": 0.0, "dof": 10.0, "scale": 1.75},
        {"type": "uniform", "lo": -1.0, "hi": 1.0},
        {"type": "shifted_exponential", "rate": 2.0, "shift": 0.1},
        {"type": "categorical", "values": [0.0, 1.0], "probs": [0.4, 0.6]},
        {"type": "empirical", "samples": [0.0, 1.0, 2.0]},
        {"type": "product", "components": [{"type": "normal", "mean": 0.0, "std": 1.0}]},
        {
            "type": "push_forward",
            "prior": {"type": "dirac", "value": [1.0]},
            "model_function": {"family": "polynomial", "powers": [0]},
            "grid": {"points": [0.0, 1.0]},
        },
    ]
    # Concrete classes exported by bvm that have no config form.
    NO_CONFIG_FORM = frozenset()

    @staticmethod
    def _exported(base):
        return {c for c in vars(bvm).values() if isinstance(c, type) and issubclass(c, base) and c is not base}

    def test_every_distribution_class_has_a_table_entry(self):
        assert [doc["type"] for doc in self.DISTRIBUTION_DOCS] == list(DISTRIBUTIONS)
        built = {type(distribution_from_config(doc)) for doc in self.DISTRIBUTION_DOCS}
        assert built == self._exported(bvm.Distribution) - self.NO_CONFIG_FORM

    def test_every_rule_class_has_a_table_entry(self):
        classes = [form.cls for form in RULES.values()]
        assert len(set(classes)) == len(classes)
        assert set(classes) == self._exported(bvm.AgreementRule) - self.NO_CONFIG_FORM


class TestRoundTrip:
    @pytest.mark.parametrize(
        "doc",
        [
            {"type": "always_true"},
            {"type": "threshold", "fn": "mean_abs_error", "eps": 0.46},
            pytest.param({"type": "threshold", "fn": "binned_prob_diff", "bins": 8, "eps": 0.2}, id="threshold-binned"),
            {"type": "interval", "fn": "identity", "lo": -1.0, "hi": 1.0},
            pytest.param({"type": "interval", "fn": "binned_prob_diff", "lo": 0.0, "hi": 0.5}, id="interval-binned"),
            pytest.param({"type": "interval", "fn": "binned_prob_diff", "bins": 8, "lo": 0.0, "hi": 0.5}, id="interval-binned-8"),
            {"type": "soft_exponential", "fn": "abs_diff", "eps_prime": 0.2, "rate": 3.0},
            pytest.param(
                {"type": "soft_exponential", "fn": "binned_prob_diff", "bins": 8, "eps_prime": 0.2, "rate": 3.0},
                id="soft-exponential-binned-8",
            ),
            {"type": "gamma_epsilon", "gamma": 0.9, "eps": 0.1, "m": 5.0},
            {"type": "set_membership", "synonyms": {"cat": ["cat", "feline"]}},
            {
                "type": "and",
                "children": [
                    {"type": "threshold", "fn": "abs_diff", "eps": 1.0},
                    {"type": "not", "child": {"type": "always_false"}},
                ],
            },
            {
                "type": "in_region",
                "side": "model",
                "region": {"kind": "interval", "level": 0.9, "intervals": [[-1.0, 1.0]]},
            },
            {
                "type": "epsilon_beta",
                "mean_tol": 0.9,
                "coverage_lo": 0.91,
                "coverage_hi": 0.99,
                "band": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
            },
        ],
        ids=lambda d: d["type"],
    )
    def test_rule_fixed_point(self, doc):
        built = rule_from_config(doc)
        once = rule_to_config(built)
        validate_config({"agreement": once})
        twice = rule_to_config(rule_from_config(once))
        assert once == twice

    @pytest.mark.parametrize(
        "rule",
        [
            Threshold(get_comparison_fn("binned_prob_diff", bins=8), 0.2),
            Interval(get_comparison_fn("binned_prob_diff", bins=8), 0.0, 0.5),
            SoftExponential(get_comparison_fn("binned_prob_diff", bins=8), 0.2, 3.0),
        ],
        ids=lambda r: type(r).__name__,
    )
    def test_a_rule_on_eight_bins_writes_a_config_the_schema_takes(self, rule):
        doc = rule_to_config(rule)
        validate_config({"agreement": doc})
        assert doc["bins"] == 8
        assert rule_from_config(doc).fn.name == "binned_prob_diff_8"

    def test_builtin_configs_reach_fixed_point(self):
        # Bands resolved from the model collapse to literal lo/hi arrays on
        # first serialisation; after that the form must be stable.
        for name, doc in builtin_configs(seed=0).items():
            if "agreement" not in doc:
                continue
            if "model_function" in doc["model"]:
                from bvm.config import _model_dist_from_section

                model_dist = _model_dist_from_section(doc["model"])
            else:
                model_dist = distribution_from_config(doc["model"]["distribution"])
            rule = rule_from_config(doc["agreement"], model_dist)
            once = rule_to_config(rule)
            twice = rule_to_config(rule_from_config(once))
            assert once == twice, name

    def test_plain_rule_round_trips_exactly(self):
        doc = scenario_doc()
        built = build_scenario(doc)
        assert rule_to_config(built.scenario.rule) == doc["agreement"]

    def test_resolved_config_is_itself_a_fixed_point(self):
        for name, doc in builtin_configs(seed=2).items():
            if "agreement" not in doc:
                continue  # metric configs build no scenario
            built = build_scenario(doc)
            validate_config(built.resolved)
            rebuilt = build_scenario(built.resolved)
            assert rebuilt.resolved == built.resolved, name


class TestBuilders:
    def test_missing_section(self):
        doc = scenario_doc()
        del doc["agreement"]
        with pytest.raises(ConfigError, match="agreement"):
            build_scenario(doc)

    def test_generator_data_path(self):
        doc = {
            "model": {"distribution": {"type": "dirac", "value": [1.0, 1.0, 1.0]}},
            "data": {
                "generator": {
                    "type": "grid_function",
                    "name": "cos",
                    "grid": {"start": 0.0, "stop": 1.0, "num": 3},
                }
            },
            "agreement": {"type": "gamma_epsilon", "gamma": 1.0, "eps": 1.0, "m": 5.0},
            "estimator": {"method": "mc", "samples": 10, "seed": 0},
        }
        built = build_scenario(doc)
        est_path = built.scenario.data_dist.value
        assert np.allclose(est_path, np.cos(np.linspace(0, 1, 3)))

    def test_sweep_needs_certain_data(self):
        doc = scenario_doc()
        doc["model"] = {
            "model_function": {"family": "polynomial", "powers": [0]},
            "prior": {"type": "dirac", "value": [1.0]},
            "grid": {"start": 0.0, "stop": 1.0, "num": 4},
        }
        with pytest.raises(ConfigError, match="certain data path"):
            build_sweep_template(doc)

    def test_model_band_leaves_the_model_samples_untouched(self):
        # The band partitions its path draws in place; an Empirical model's
        # draws are copies, so the recorded samples must keep their bytes.
        paths = np.random.default_rng(5).normal(size=(300, 8))
        doc = scenario_doc(
            model={"distribution": {"type": "empirical", "samples": paths.tolist()}},
            data={"distribution": {"type": "dirac", "value": [0.0] * 8}},
            agreement={
                "type": "epsilon_beta",
                "mean_tol": 1.0,
                "band": {"source": "model", "level": 0.9, "samples": 5000, "seed": 2},
            },
        )
        built = build_scenario(doc)
        model = built.scenario.model_dist
        again = rule_from_config(doc["agreement"], model)
        assert model.samples.tobytes() == paths.tobytes()
        assert [a.tobytes() for a in again.band] == [a.tobytes() for a in built.scenario.rule.band]

    @pytest.mark.parametrize("path", [[0.5, -1.0, 2.0], [0.5, np.inf, 2.0]], ids=["finite", "infinite"])
    def test_band_of_a_dirac_path(self, path, monkeypatch):
        # A finite path is its own band and draws nothing; an infinite one
        # takes the quantile pass, whose constant ±inf column gives NaN.
        model, drawn, draw_chunk = bvm.DiracDelta(path), [], bvm.DiracDelta.draw_chunk

        def counting(self, *args, **kwargs):
            drawn.append(args)
            return draw_chunk(self, *args, **kwargs)

        monkeypatch.setattr(bvm.DiracDelta, "draw_chunk", counting)
        doc = {"type": "epsilon_beta", "mean_tol": 1.0, "band": {"source": "model", "level": 0.9, "samples": 100}}
        with np.errstate(invalid="ignore"):
            lo, hi = rule_from_config(doc, model).band
        if np.isfinite(path).all():
            assert lo.tobytes() == hi.tobytes() == model.value.tobytes() and not drawn
        else:
            assert np.isnan(lo[1]) and np.isnan(hi[1]) and len(drawn) == 1

    def test_certain_band_of_an_infinite_path_takes_the_quantile_pass(self):
        # The quantiles of a constant +inf column are NaN (inf - inf), not
        # inf, so a certain model's band is its one path only when finite.
        model = bvm.PushForward(
            bvm.IndependentProduct([bvm.DiracDelta(np.inf), bvm.DiracDelta(1.0)]),
            bvm.polynomial_model([0, 1]),
            bvm.InputGrid.linspace(0.0, 1.0, 3),
        )
        doc = {"type": "epsilon_beta", "mean_tol": 1.0, "band": {"source": "model", "level": 0.9, "samples": 100}}
        with np.errstate(invalid="ignore"):
            assert np.isinf(model.certain_path).all()
            lo, hi = rule_from_config(doc, model).band
        assert np.isnan(lo).all() and np.isnan(hi).all()


@pytest.fixture()
def tmp_config(tmp_path):
    def write(doc, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


class TestCli:
    def test_validate_success_and_record(self, tmp_config, tmp_path, capsys):
        out = str(tmp_path / "record.json")
        code = main(["validate", "--config", tmp_config(scenario_doc()), "--out", out])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "P(agree)" in printed and "agreement:" in printed
        record = json.loads(open(out).read())
        est = record["estimates"][0]
        assert est["n_samples"] == 5000
        assert 0.0 <= est["ci_lo"] < est["p_hat"] < est["ci_hi"] <= 1.0
        assert record["version"]

    def test_validate_is_reproducible(self, tmp_config, tmp_path):
        cfg = tmp_config(scenario_doc())
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["validate", "--config", cfg, "--out", out1]) == EXIT_OK
        assert main(["validate", "--config", cfg, "--out", out2]) == EXIT_OK
        r1 = json.loads(open(out1).read())
        r2 = json.loads(open(out2).read())
        r1.pop("wall_time_s"), r2.pop("wall_time_s")
        assert r1 == r2

    def test_schema_error_exit_code(self, tmp_config, capsys):
        code = main(["validate", "--config", tmp_config(scenario_doc(extra=1))])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_nan_tolerance_exit_code(self, tmp_config, capsys):
        # JSON's NaN is a number to the schema; the rule rejects it.
        doc = scenario_doc(agreement={"type": "threshold", "fn": "abs_diff", "eps": float("nan")})
        assert main(["validate", "--config", tmp_config(doc)]) == EXIT_CONFIG
        assert "bad agreement rule type 'threshold': eps is NaN" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, distribution, message",
        [
            ("model", {"type": "normal", "mean": float("nan"), "std": 1.0}, "'normal': Normal mean must not be NaN"),
            ("data", {"type": "dirac", "value": float("nan")}, "'dirac': DiracDelta value must not be NaN"),
        ],
        ids=["normal-mean", "dirac-value"],
    )
    def test_nan_location_exit_code(self, section, distribution, message, tmp_config, capsys):
        doc = scenario_doc(**{section: {"distribution": distribution}})
        assert main(["validate", "--config", tmp_config(doc)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_missing_file_exit_code(self):
        assert main(["validate", "--config", "/nonexistent/cfg.json"]) == EXIT_CONFIG

    def test_path_comparison_on_scalar_data_exit_code(self, tmp_config, capsys):
        # Path comparison against scalar values cannot be evaluated: an input fault.
        doc = scenario_doc(agreement={"type": "threshold", "fn": "mean_abs_error", "eps": 1.0})
        doc["model"] = {"distribution": {"type": "dirac", "value": [1.0, 2.0]}}
        code = main(["validate", "--config", tmp_config(doc)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: config field $.data: the data values are scalars")

    def test_ratio_identical_configs(self, tmp_config, capsys):
        cfg = tmp_config(scenario_doc())
        assert main(["ratio", cfg, cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "K = 1.0" in out and "R = 1.0" in out

    def test_ratio_prior_scaling(self, tmp_config, capsys):
        cfg = tmp_config(scenario_doc())
        assert main(["ratio", cfg, cfg, "--prior-m", "1", "--prior-m2", "2"]) == EXIT_OK
        assert "R = 0.5" in capsys.readouterr().out

    def test_ratio_beyond_the_float_range_prints_its_log(self, tmp_config, tmp_path, capsys):
        cfg, record = tmp_config(scenario_doc()), tmp_path / "r.json"
        assert main(["ratio", cfg, cfg, "--prior-m", "1e308", "--prior-m2", "1e-308", "--out", str(record)]) == EXIT_OK
        out = capsys.readouterr().out
        log_r = math.log(1e308) - math.log(1e-308)
        assert f"R = inf [status=ok, log={log_r!r}]" in out and "K = 1.0 [status=ok]" in out
        ratio = json.loads(record.read_text())["ratios"][1]
        assert ratio == {"label": "ratio", "status": "ok", "value": math.inf, "log_value": log_r}

    def test_ratio_rule_mismatch_exit_code(self, tmp_config):
        a = tmp_config(scenario_doc(), "a.json")
        other = scenario_doc(agreement={"type": "threshold", "fn": "abs_diff", "eps": 2.0})
        b = tmp_config(other, "b.json")
        assert main(["ratio", a, b]) == EXIT_RULE_MISMATCH

    def test_ratio_indeterminate_status(self, tmp_config, capsys):
        doc = scenario_doc(agreement={"type": "always_false"})
        cfg = tmp_config(doc)
        assert main(["ratio", cfg, cfg]) == EXIT_OK
        assert "indeterminate" in capsys.readouterr().out


def sweep_doc(powers, prior_components):
    return {
        "model": {
            "model_function": {"family": "polynomial", "powers": powers},
            "prior": {"type": "product", "components": prior_components},
            "grid": {"start": 0.0, "stop": 2.0, "num": 10},
        },
        "data": {
            "generator": {"type": "grid_function", "name": "cos", "grid": {"start": 0.0, "stop": 2.0, "num": 10}}
        },
        "agreement": {"type": "gamma_epsilon", "gamma": 0.9, "eps": 0.1, "m": 5.0},
        "estimator": {"method": "grid", "seed": 0, "points_per_param": 9},
    }


class TestOneSchemaCheckPerDocument:
    """``load_config`` schema-checks each document a command reads, and the
    builders it feeds do not check it again."""

    @pytest.fixture()
    def checks(self, monkeypatch):
        calls = []
        real = bvm.config.validate_config

        def counting(doc):
            calls.append(doc)
            return real(doc)

        monkeypatch.setattr(bvm.config, "validate_config", counting)
        return calls

    def test_validate_mc(self, tmp_config, checks):
        assert main(["validate", "--config", tmp_config(scenario_doc())]) == EXIT_OK
        assert len(checks) == 1

    def test_validate_grid(self, tmp_config, checks):
        doc = sweep_doc([0, 2], [{"type": "normal", "mean": 1.0, "std": 0.2}, {"type": "normal", "mean": -0.5, "std": 0.1}])
        assert main(["validate", "--config", tmp_config(doc)]) == EXIT_OK
        assert len(checks) == 1

    def test_sweep(self, tmp_config, tmp_path, checks):
        a = tmp_config(sweep_doc([0, 2], [{"type": "dirac", "value": 1.0}, {"type": "dirac", "value": -0.5}]), "a.json")
        b = tmp_config(sweep_doc([0], [{"type": "dirac", "value": 1.0}]), "b.json")
        argv = ["sweep", a, b, "--gamma", "0.9:1.0:0.1", "--eps", "0:0.5:0.25", "--out-prefix", str(tmp_path / "s")]
        assert main(argv) == EXIT_OK
        assert len(checks) == 2

    def test_ratio(self, tmp_config, checks):
        cfg = tmp_config(scenario_doc())
        assert main(["ratio", cfg, cfg]) == EXIT_OK
        assert len(checks) == 2

    def test_validate_metric(self, tmp_config, checks):
        doc = {
            "metric": {"name": "area", "samples_m": [0.0, 1.0, 2.0], "samples_d": [0.5, 1.5]},
            "agreement": {"type": "threshold", "fn": "identity", "eps": 0.5},
        }
        assert main(["validate", "--config", tmp_config(doc)]) == EXIT_OK
        assert len(checks) == 1


def test_grid_validate_builds_the_model_once(tmp_config, monkeypatch):
    calls = []
    real = bvm.config.model_function_from_config

    def counting(doc):
        calls.append(doc)
        return real(doc)

    monkeypatch.setattr(bvm.config, "model_function_from_config", counting)
    doc = sweep_doc([0, 2], [{"type": "normal", "mean": 1.0, "std": 0.2}, {"type": "normal", "mean": -0.5, "std": 0.1}])
    assert main(["validate", "--config", tmp_config(doc)]) == EXIT_OK
    assert len(calls) == 1


class TestExplicitBand:
    """A band given in the document is checked when the rule is built: a
    config error naming the band, before anything is drawn."""

    @staticmethod
    def doc_with_band(lo, hi):
        doc = builtin_configs(0)["oscillator-deterministic-compound"]
        doc["agreement"]["band"] = {"lo": lo, "hi": hi}
        return doc

    @pytest.mark.parametrize(
        "lo, hi, message",
        [
            ([1.0] * 100, [0.0] * 100, "band: lo exceeds hi at 100 of 100 points, first at point 0"),
            ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], "band: 3 points, but the model's paths have 100"),
            ([float("nan")] * 100, [1.0] * 100, "band: lo is NaN at point 0"),
            ([0.0] * 100, [1.0] * 99 + [float("nan")], "band: hi is NaN at point 99"),
        ],
        ids=["lo-above-hi", "short", "nan-lo", "nan-hi"],
    )
    def test_bad_band_is_a_config_error(self, lo, hi, message, tmp_config, capsys):
        assert main(["validate", "--config", tmp_config(self.doc_with_band(lo, hi))]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_infinite_edges_are_allowed(self, tmp_config, tmp_path):
        out = tmp_path / "record.json"
        doc = self.doc_with_band([float("-inf")] * 100, [float("inf")] * 100)
        doc["agreement"]["coverage_hi"] = 1.0  # full coverage is over-coverage below 1
        assert main(["validate", "--config", tmp_config(doc), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["estimates"][0]["p_hat"] > 0.0


class TestGridValidateNeeds:
    """Grid ``validate`` runs on a sweep template; its errors name both uses."""

    def test_a_push_forward_model(self, tmp_config, capsys):
        doc = scenario_doc(estimator={"method": "grid", "seed": 0})
        assert main(["validate", "--config", tmp_config(doc)]) == EXIT_CONFIG
        assert "a sweep or a grid estimate needs model_function + prior + grid" in capsys.readouterr().err

    def test_a_certain_data_path(self, tmp_config, capsys):
        doc = sweep_doc([0], [{"type": "normal", "mean": 1.0, "std": 0.2}])
        doc["data"] = {"distribution": {"type": "normal", "mean": 0.0, "std": 1.0}}
        assert main(["validate", "--config", tmp_config(doc)]) == EXIT_CONFIG
        assert "a sweep or a grid estimate needs a certain data path" in capsys.readouterr().err


def test_a_certain_vector_prior_estimates_as_its_product_of_diracs(tmp_config, tmp_path):
    vector = sweep_doc([0, 2], [])
    vector["model"]["prior"] = {"type": "dirac", "value": [1.0, -0.5]}
    product = sweep_doc([0, 2], [{"type": "dirac", "value": 1.0}, {"type": "dirac", "value": -0.5}])
    p_hat, cells = [], []
    for method in ("grid", "mc"):
        for name, doc in (("vector", vector), ("product", product)):
            doc["agreement"]["eps"] = 0.6  # 1 - x^2 / 2 is within 0.59 of cos x on [0, 2]
            doc["estimator"] = {"method": method, "seed": 3, **({"samples": 500} if method == "mc" else {})}
            cfg = tmp_config(doc, f"{method}-{name}.json")
            out, prefix = tmp_path / f"{method}-{name}.record.json", str(tmp_path / f"{method}-{name}")
            assert main(["validate", "--config", cfg, "--out", str(out)]) == EXIT_OK
            p_hat.append(json.loads(out.read_text())["estimates"][0]["p_hat"])
            assert main(["sweep", cfg, "--gamma", "0.5:1.0:0.25", "--eps", "0:0.5:0.05", "--out-prefix", prefix]) == EXIT_OK
            with open(prefix + "_model1.csv") as fh:
                cells.append(list(csv.reader(fh)))
    assert p_hat == [1.0] * 4
    assert all(c == cells[0] for c in cells)
    assert {row[2] for row in cells[0][1:]} == {"0.0", "1.0"}


class TestSweepCli:
    def test_two_model_sweep_outputs(self, tmp_config, tmp_path, capsys):
        a = tmp_config(
            sweep_doc([0, 2], [{"type": "normal", "mean": 1.0, "std": 0.2}, {"type": "normal", "mean": -0.5, "std": 0.1}]),
            "m1.json",
        )
        b = tmp_config(
            sweep_doc(
                [0, 2, 4],
                [
                    {"type": "normal", "mean": 1.0, "std": 0.2},
                    {"type": "normal", "mean": -0.5, "std": 0.1},
                    {"type": "normal", "mean": 1 / 24, "std": 0.02},
                ],
            ),
            "m2.json",
        )
        prefix = str(tmp_path / "out")
        code = main(
            ["sweep", a, b, "--gamma", "0.75:1.0:0.05", "--eps", "0:0.5:0.05", "--m", "5", "--out-prefix", prefix]
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "averaged agreement ratio" in printed

        with open(prefix + "_model1.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["gamma", "epsilon", "p_agree"]
        assert len(rows) - 1 == 6 * 11

        with open(prefix + "_ratio.csv") as fh:
            ratio_rows = list(csv.reader(fh))
        assert ratio_rows[0] == ["gamma", "epsilon", "ratio", "status"]
        statuses = {row[3] for row in ratio_rows[1:]}
        assert statuses <= {"ok", "indeterminate", "infinite"}

    def test_csv_floats_round_trip(self, tmp_config, tmp_path):
        a = tmp_config(
            sweep_doc([0, 2], [{"type": "normal", "mean": 1.0, "std": 0.2}, {"type": "normal", "mean": -0.5, "std": 0.1}]),
            "m1.json",
        )
        prefix = str(tmp_path / "rt")
        assert main(["sweep", a, "--gamma", "0.75:1.0:0.01", "--eps", "0:1:0.01", "--out-prefix", prefix]) == EXIT_OK
        from bvm.config import load_config, build_sweep_template
        from bvm.engine import sweep as run_sweep
        from bvm.studies import sweep_axes

        template, estimator = build_sweep_template(load_config(a))
        gammas, epsilons = sweep_axes()
        grid = run_sweep(template, gammas, epsilons, m=5.0, estimator="grid", seed=0)
        with open(prefix + "_model1.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 26 * 101
        for (g, e, p), (i, j) in zip(
            ((float(r[0]), float(r[1]), float(r[2])) for r in rows),
            ((i, j) for i in range(26) for j in range(101)),
        ):
            assert g == grid.gammas[i]
            assert e == grid.epsilons[j]
            assert p == grid.values[i, j]

    def test_mc_sweep_uses_config_samples(self, tmp_config, tmp_path):
        doc = sweep_doc([0, 2], [{"type": "normal", "mean": 1.0, "std": 0.2}, {"type": "normal", "mean": -0.5, "std": 0.1}])
        doc["estimator"] = {"method": "mc", "samples": 3000, "seed": 4}
        a = tmp_config(doc)
        prefix = str(tmp_path / "mc")
        assert main(["sweep", a, "--gamma", "0.75:1.0:0.05", "--eps", "0:0.5:0.05", "--out-prefix", prefix]) == EXIT_OK
        from bvm.engine import sweep as run_sweep

        template, _ = build_sweep_template(doc)
        gammas, epsilons = np.linspace(0.75, 1.0, 6), np.linspace(0.0, 0.5, 11)
        grid = run_sweep(template, gammas, epsilons, m=5.0, estimator="mc", k=3000, seed=4)
        with open(prefix + "_model1.csv") as fh:
            written = [float(r[2]) for r in list(csv.reader(fh))[1:]]
        assert written == grid.values.ravel().tolist()

    def test_bad_axis_spec(self, tmp_config):
        a = tmp_config(
            sweep_doc([0, 2], [{"type": "normal", "mean": 1.0, "std": 0.2}, {"type": "normal", "mean": -0.5, "std": 0.1}])
        )
        assert main(["sweep", a, "--gamma", "nope"]) == EXIT_CONFIG

    @pytest.mark.parametrize("m", ["0.5", "-1", "nan", "inf"])
    def test_worst_point_multiplier_must_be_finite_and_at_least_one(self, m, tmp_config, tmp_path, capsys):
        a = tmp_config(sweep_doc([0], [{"type": "dirac", "value": 1.0}]))
        prefix = str(tmp_path / "bad")
        assert main(["sweep", a, f"--m={m}", "--out-prefix", prefix]) == EXIT_CONFIG
        assert "--m" in capsys.readouterr().err
        assert not (tmp_path / "bad_model1.csv").exists()
        template, _ = build_sweep_template(json.load(open(a)))
        with pytest.raises(EstimationError, match="at least 1"):
            bvm.sweep(template, [0.9], [0.1], m=float(m))
        with pytest.raises(ValueError, match="at least 1"):
            bvm.GammaEpsilon(0.9, 0.1, m=float(m))

    def test_step_that_does_not_divide_the_range_is_rejected(self, tmp_config, tmp_path, capsys):
        a = tmp_config(
            sweep_doc([0, 2], [{"type": "normal", "mean": 1.0, "std": 0.2}, {"type": "normal", "mean": -0.5, "std": 0.1}])
        )
        prefix = str(tmp_path / "bad")
        assert main(["sweep", a, "--gamma", "0.75:1.0:0.05", "--eps", "0:1:0.3", "--out-prefix", prefix]) == EXIT_CONFIG
        assert "0:1:0.3" in capsys.readouterr().err
        assert not (tmp_path / "bad_model1.csv").exists()
        for spec in ("0:1:0.3", "0:inf:0.1"):
            with pytest.raises(ConfigError):
                _parse_axis(spec)
        assert len(_parse_axis("0.75:1.0:0.01")) == 26
        assert len(_parse_axis("0:1:0.01")) == 101

    def test_wrote_line_reports_paths_and_zero_mass_columns(self, tmp_config, tmp_path, capsys):
        a = tmp_config(
            sweep_doc([0, 2], [{"type": "normal", "mean": 1.0, "std": 0.2}, {"type": "normal", "mean": -0.5, "std": 0.1}])
        )
        doc = sweep_doc([0, 2], [{"type": "dirac", "value": 1.0}, {"type": "dirac", "value": -0.5}])
        b = tmp_config(doc, "det.json")
        prefix = str(tmp_path / "diag")
        assert main(["sweep", a, b, "--gamma", "0.75:1.0:0.05", "--eps", "0.05:0.5:0.05", "--out-prefix", prefix]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        # The 9 x 9 grid paths have no mass at eps = 0.05 only; the one
        # exact path first agrees at eps = 0.25.
        assert f"wrote {prefix}_model1.csv (6x10 cells, 81 paths, 1 eps column with zero mass)" in lines
        assert f"wrote {prefix}_model2.csv (6x10 cells, 1 paths, 4 eps columns with zero mass)" in lines
        with open(prefix + "_model2.csv") as fh:
            cells = np.array([float(r[2]) for r in list(csv.reader(fh))[1:]]).reshape(6, 10)
        assert np.count_nonzero(~cells.any(axis=0)) == 4


DIRAC_PATH = {"distribution": {"type": "dirac", "value": [0.0, 1.0]}}
NORMAL = {"distribution": {"type": "normal", "mean": 0.0, "std": 1.0}}


class TestMetricCli:
    def test_the_parser_offers_exactly_four_commands(self):
        # A metric runs through validate: its config's $.metric.name picks it.
        from bvm.cli import build_parser

        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == ["validate", "ratio", "sweep", "reproduce"]

    def test_reliability_subcommand(self, tmp_config, capsys):
        doc = {
            "metric": {"name": "reliability", "eps": 1.959963984540054},
            "model": {"distribution": {"type": "normal", "mean": 0.0, "std": 1.0}},
            "data": {"distribution": {"type": "dirac", "value": 0.0}},
        }
        assert main(["validate", "--config", tmp_config(doc)]) == EXIT_OK
        assert "P(agree) = 0.95" in capsys.readouterr().out

    def test_classical_subcommand(self, tmp_config, capsys):
        doc = {
            "metric": {"name": "classical", "alpha": 0.05},
            "data": {"distribution": {"type": "student_t", "location": 0.0, "dof": 10.0, "scale": 1.75}},
        }
        assert main(["validate", "--config", tmp_config(doc)]) == EXIT_OK
        assert "0.95" in capsys.readouterr().out

    def test_power_subcommand(self, tmp_config, capsys):
        doc = {
            "metric": {"name": "power", "alpha": 0.05, "alpha_hat": 0.05, "region": "interval"},
            "model": {"distribution": {"type": "normal", "mean": 0.0, "std": 2.0}},
            "data": {"distribution": dict({"type": "student_t", "location": 0.0, "dof": 10.0, "scale": 1.75})},
        }
        assert main(["validate", "--config", tmp_config(doc)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "power_model_in_data" in out

    @pytest.mark.parametrize("region", ["interval", "set"])
    def test_power_of_a_point_mass_against_itself(self, tmp_config, capsys, region):
        # Each region is the closed [1, 1], which holds the other side's atom.
        doc = {
            "metric": {"name": "power", "alpha": 0.05, "alpha_hat": 0.05, "region": region},
            "model": {"distribution": {"type": "dirac", "value": 1.0}},
            "data": {"distribution": {"type": "dirac", "value": 1.0}},
        }
        assert main(["validate", "--config", tmp_config(doc)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("P(agree) = 1.0 +/- 0.0 [closedForm, n=0, seed=0]\n")

    def test_evidence_subcommand(self, tmp_config, capsys):
        doc = {
            "metric": {"name": "evidence", "sigma": 0.5, "data_y": [0.7]},
            "model": {
                "model_function": {"family": "polynomial", "powers": [0]},
                "prior": {"type": "normal", "mean": 0.0, "std": 1.0},
                "grid": {"points": [0.0]},
            },
            "estimator": {"method": "mc", "samples": 20000, "seed": 0},
        }
        assert main(["validate", "--config", tmp_config(doc)]) == EXIT_OK
        assert "log evidence" in capsys.readouterr().out

    def test_evidence_reads_a_push_forward_model_section(self, tmp_config, tmp_path, capsys):
        # Evidence builds its model section as every other run does: the
        # push_forward distribution form prints and records the bits of the
        # model_function + prior + grid form.
        fields = {
            "model_function": {"family": "polynomial", "powers": [0, 1]},
            "prior": {"type": "product", "components": [{"type": "normal", "mean": 0.0, "std": 1.0},
                                                        {"type": "normal", "mean": 0.5, "std": 0.3}]},
            "grid": {"start": 0.0, "stop": 1.0, "num": 3},
        }
        runs = []
        for name, model in (("fields", fields), ("push_forward", {"distribution": {"type": "push_forward", **fields}})):
            doc = {
                "metric": {"name": "evidence", "sigma": 0.5, "data_y": [0.1, 0.4, 0.9]},
                "model": model,
                "estimator": {"method": "mc", "samples": 5000, "seed": 4},
            }
            out = tmp_path / f"{name}-record.json"
            assert main(["validate", "--config", tmp_config(doc, f"{name}.json"), "--out", str(out)]) == EXIT_OK
            record = json.loads(out.read_text())
            runs.append((capsys.readouterr().out, record["estimates"], record["agreement"]))
        assert runs[0][0].startswith("log evidence = ")
        assert runs[0] == runs[1]

    def test_a_document_with_a_scenario_and_a_metric_runs_its_metric(self, tmp_config, tmp_path, capsys):
        doc = {
            **scenario_doc(),
            "metric": {"name": "area", "samples_m": [0.0, 1.0, 2.0], "samples_d": [0.0, 1.0, 2.0]},
            "agreement": {"type": "threshold", "fn": "identity", "eps": 0.0},
        }
        out = tmp_path / "rec.json"
        assert main(["validate", "--config", tmp_config(doc), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == "P(agree) = 1.0 +/- 0.0 [closedForm, n=0, seed=3]\n"
        assert json.loads(out.read_text())["command"] == "area"

    @pytest.mark.parametrize("eps", [-0.1, math.nan])
    @pytest.mark.parametrize(
        "name, model, data",
        [
            ("reliability", {"distribution": {"type": "normal", "mean": 0.0, "std": 1.0}}, {"distribution": {"type": "normal", "mean": 0.0, "std": 1.0}}),
            ("reliability", {"distribution": {"type": "dirac", "value": 0.0}}, {"distribution": {"type": "dirac", "value": 0.0}}),
            (
                "improved_reliability",
                {"distribution": {"type": "dirac", "value": [0.0, 0.0]}},
                {"distribution": {"type": "dirac", "value": [0.0, 0.0]}},
            ),
        ],
    )
    def test_nan_or_negative_tolerance_is_a_config_error(self, tmp_config, capsys, name, model, data, eps):
        doc = {"metric": {"name": name, "eps": eps}, "model": model, "data": data}
        assert main(["validate", "--config", tmp_config(doc)]) == EXIT_CONFIG
        assert "$.metric.eps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, metric, model, data, field",
        [
            ("reliability", {"eps": 0.5}, DIRAC_PATH, DIRAC_PATH, "$.model"),
            ("reliability", {"eps": 0.5}, NORMAL, DIRAC_PATH, "$.data"),
            ("improved_reliability", {"eps": 0.5}, NORMAL, NORMAL, "$.model"),
            ("power", {"alpha": 0.05, "alpha_hat": 0.05}, DIRAC_PATH, DIRAC_PATH, "$.model"),
            ("classical", {"alpha": 0.05}, None, DIRAC_PATH, "$.data"),
        ],
    )
    def test_values_of_the_wrong_kind_are_a_config_error(self, tmp_config, capsys, name, metric, model, data, field):
        doc = {"metric": {"name": name, **metric}, "data": data}
        if model is not None:
            doc["model"] = model
        assert main(["validate", "--config", tmp_config(doc)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config field {field}: this metric needs" in err

    def test_frequentist_subcommand(self, tmp_config, capsys):
        doc = {
            "metric": {
                "name": "frequentist",
                "model_mean": 0.0,
                "data_summary": {"mean": 0.0, "std": 1.0, "n": 10},
            },
            "agreement": {"type": "threshold", "fn": "abs_value", "eps": 0.5},
        }
        assert main(["validate", "--config", tmp_config(doc)]) == EXIT_OK
        assert "P(agree)" in capsys.readouterr().out

    def test_improved_reliability_subcommand(self, tmp_config, capsys):
        doc = {
            "metric": {"name": "improved_reliability", "eps": 0.5},
            "model": {
                "model_function": {"family": "polynomial", "powers": [0]},
                "prior": {"type": "product", "components": [{"type": "normal", "mean": 0.0, "std": 0.1}]},
                "grid": {"start": 0.0, "stop": 1.0, "num": 5},
            },
            "data": {"distribution": {"type": "dirac", "value": [0.0, 0.0, 0.0, 0.0, 0.0]}},
            "estimator": {"method": "mc", "samples": 5000, "seed": 1},
        }
        assert main(["validate", "--config", tmp_config(doc)]) == EXIT_OK
        assert "P(agree)" in capsys.readouterr().out

    def test_area_subcommand(self, tmp_config, capsys):
        doc = {
            "metric": {"name": "area", "samples_m": [0.0, 1.0, 2.0], "samples_d": [0.0, 1.0, 2.0]},
            "agreement": {"type": "threshold", "fn": "identity", "eps": 0.0},
        }
        assert main(["validate", "--config", tmp_config(doc)]) == EXIT_OK
        assert "P(agree) = 1.0" in capsys.readouterr().out

    def test_binned_pdf_subcommand(self, tmp_config, capsys):
        doc = {
            "metric": {
                "name": "binned_pdf",
                "edges": [0.0, 0.5, 1.0],
                "model_masses": [0.5, 0.5],
                "data_counts": [5000, 5000],
            },
            "agreement": {"type": "threshold", "fn": "identity", "eps": 0.1},
            "estimator": {"method": "mc", "samples": 2000, "seed": 0},
        }
        assert main(["validate", "--config", tmp_config(doc)]) == EXIT_OK
        assert "P(agree)" in capsys.readouterr().out

    def test_divergence_subcommand(self, tmp_config, capsys):
        doc = {
            "metric": {
                "name": "divergence",
                "kind": "js",
                "edges": [0.0, 0.5, 1.0],
                "model_masses": [0.5, 0.5],
                "data_masses": [0.5, 0.5],
            },
            "agreement": {"type": "threshold", "fn": "identity", "eps": 0.0},
        }
        assert main(["validate", "--config", tmp_config(doc)]) == EXIT_OK
        assert "P(agree) = 1.0" in capsys.readouterr().out


class TestReproduceCli:
    def test_power_study_passes(self, capsys):
        assert main(["reproduce", "ex-5.1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_alias(self, capsys):
        assert main(["reproduce", "power"]) == EXIT_OK

    def test_oscillator_study_gives_the_bits_of_validate_on_its_configs(self, tmp_config, tmp_path):
        report = run_study("ex-5.2")
        assert report.passed, report.checks
        configs = builtin_configs()
        for variant in ("deterministic", "uncertain"):
            for rule in ("mean_error", "compound"):
                out = str(tmp_path / f"{variant}-{rule}.json")
                cfg = tmp_config(configs[f"oscillator-{variant}-{rule}"])
                assert main(["validate", "--config", cfg, "--out", out]) == EXIT_OK
                p_hat = json.loads(open(out).read())["estimates"][0]["p_hat"]
                assert p_hat == report.values[f"{variant}_{rule}_p"], (variant, rule)

    def test_out_prefix_writes_the_sweeps_and_a_passing_record(self, tmp_path, capsys):
        prefix = str(tmp_path / "ex53")
        assert main(["reproduce", "ex-5.3", "--out-prefix", prefix]) == EXIT_OK
        assert f"wrote 4 sweep CSVs with prefix {prefix}_" in capsys.readouterr().out
        for name in ("deterministic-model1", "deterministic-model2", "uncertain-model1", "uncertain-model2"):
            with open(f"{prefix}_{name}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["gamma", "epsilon", "p_agree"]
            assert len(rows) == 1 + 26 * 101, name
        record = json.loads(open(f"{prefix}_record.json").read())
        assert record["command"] == "reproduce"
        assert (record["config"]["example"], record["config"]["seed"]) == ("ex-5.3", 0)
        checks = record["config"]["checks"]
        assert len(checks) == 5 and all(check["passed"] for check in checks), checks

    def test_target_failure_exit_code(self, monkeypatch, capsys):
        from bvm.studies import StudyReport

        def failing_study(study, seed=0):
            rep = StudyReport(study=study, seed=seed)
            rep.check("synthetic target", False, "forced miss")
            return rep

        monkeypatch.setattr("bvm.cli.run_study", failing_study)
        assert main(["reproduce", "ex-5.1"]) == 5
        assert "[FAIL]" in capsys.readouterr().out


def _reference_sweep_csv(path, grid):
    # The per-cell writer the sweep CSVs were first written with.
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "epsilon", "p_agree"])
        for i, g in enumerate(grid.gammas):
            for j, e in enumerate(grid.epsilons):
                writer.writerow([repr(float(g)), repr(float(e)), repr(float(grid.values[i, j]))])


def _reference_ratio_csv(path, grid1, cells):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "epsilon", "ratio", "status"])
        for i, g in enumerate(grid1.gammas):
            for j, e in enumerate(grid1.epsilons):
                cell = cells[i][j]
                value = repr(float(cell.value)) if cell.status == "ok" else ""
                writer.writerow([repr(float(g)), repr(float(e)), value, cell.status])


class TestOutputFormats:
    def test_sweep_and_ratio_csvs_keep_their_bytes(self, tmp_path):
        below_one = np.nextafter(1.0, 0.0)
        tiny = 5e-324
        gammas = np.array([0.75, 0.1 + 0.2, 1.0, below_one])
        epsilons = np.array([0.0, tiny, 1e-310, 0.01, 1 / 3])
        values = np.array(
            [
                [0.0, 1.0, tiny, 2.2e-308, below_one],
                [1.0, 0.0, 0.1 + 0.2, below_one, 1e-310],
                [0.0, 0.0, 0.0, 0.0, 0.0],
                [1.0, below_one, 0.5, 1e-17, 2 / 3],
            ]
        )
        g1 = SweepGrid(gammas, epsilons, values)
        g2 = SweepGrid(gammas, epsilons, values[::-1])
        cells = ratio_grid(g1, g2)
        assert {c.status for row in cells for c in row} == {"ok", "indeterminate", "infinite"}
        for name, write, reference, args in [
            ("sweep", _write_sweep_csv, _reference_sweep_csv, (g1,)),
            ("ratio", _write_ratio_csv, _reference_ratio_csv, (g1, cells)),
        ]:
            new, old = tmp_path / f"{name}_new.csv", tmp_path / f"{name}_old.csv"
            write(str(new), *args)
            reference(str(old), *args)
            assert new.read_bytes() == old.read_bytes(), name
    def test_validate_csv_format(self, tmp_config, tmp_path):
        out = str(tmp_path / "est.csv")
        code = main(["validate", "--config", tmp_config(scenario_doc()), "--out", out, "--format", "csv"])
        assert code == EXIT_OK
        rows = list(csv.reader(open(out)))
        header, values = rows[0], rows[1]
        assert "p_hat" in header and "seed" in header
        p = float(values[header.index("p_hat")])
        assert 0.0 <= p <= 1.0
        assert float(values[header.index("ci_lo")]) <= p <= float(values[header.index("ci_hi")])

    def test_ratio_csv_format(self, tmp_config, tmp_path):
        cfg = tmp_config(scenario_doc())
        out = str(tmp_path / "ratio.csv")
        assert main(["ratio", cfg, cfg, "--out", out, "--format", "csv"]) == EXIT_OK
        content = open(out).read()
        assert "label,ratio,status" in content
        assert "factor,1.0,ok" in content

    def test_ratio_honours_first_config_output_section(self, tmp_config, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        a = tmp_config(scenario_doc(output={"path": "rec.csv", "format": "csv"}), "a.json")
        b = tmp_config(scenario_doc(output={"path": "other.json", "format": "json"}), "b.json")
        assert main(["ratio", a, b]) == EXIT_OK
        content = (tmp_path / "rec.csv").read_text()
        assert "label,ratio,status" in content and "factor,1.0,ok" in content
        assert not (tmp_path / "other.json").exists()

    def test_ratio_flags_override_output_section(self, tmp_config, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        a = tmp_config(scenario_doc(output={"path": "rec.csv", "format": "csv"}), "a.json")
        assert main(["ratio", a, a, "--out", "flagged.json", "--format", "json"]) == EXIT_OK
        assert json.loads((tmp_path / "flagged.json").read_text())["command"] == "ratio"
        assert not (tmp_path / "rec.csv").exists()

    def test_output_section_defaults(self, tmp_config, tmp_path):
        doc = scenario_doc(output={"path": str(tmp_path / "rec.json"), "format": "json"})
        assert main(["validate", "--config", tmp_config(doc)]) == EXIT_OK
        record = json.loads(open(tmp_path / "rec.json").read())
        assert record["command"] == "validate"

    @staticmethod
    def _classical_doc(**output):
        return {
            "metric": {"name": "classical", "alpha": 0.05},
            "data": {"distribution": {"type": "student_t", "location": 0.0, "dof": 10.0, "scale": 1.75}},
            "output": output,
        }

    def test_metric_honours_output_section_csv(self, tmp_config, tmp_path):
        out = tmp_path / "rec.csv"
        assert main(["validate", "--config", tmp_config(self._classical_doc(path=str(out), format="csv"))]) == EXIT_OK
        header, values = list(csv.reader(open(out)))
        assert header == sorted(header) and "critical_interval" in header
        assert float(values[header.index("p_hat")]) == pytest.approx(0.95)

    def test_metric_honours_output_section_json(self, tmp_config, tmp_path):
        out = tmp_path / "rec.json"
        assert main(["validate", "--config", tmp_config(self._classical_doc(path=str(out), format="json"))]) == EXIT_OK
        record = json.loads(out.read_text())
        assert record["command"] == "classical"
        assert record["estimates"][0]["p_hat"] == pytest.approx(0.95)

    def test_metric_honours_the_format_flag(self, tmp_config, tmp_path):
        out = tmp_path / "rec.json"
        cfg = tmp_config(self._classical_doc(path=str(out), format="json"))
        assert main(["validate", "--config", cfg, "--format", "csv"]) == EXIT_OK
        header, values = list(csv.reader(open(out)))
        assert float(values[header.index("p_hat")]) == pytest.approx(0.95)

    def test_metric_output_format_defaults_to_json(self, tmp_config, tmp_path):
        out = tmp_path / "rec.out"
        assert main(["validate", "--config", tmp_config(self._classical_doc(path=str(out)))]) == EXIT_OK
        assert json.loads(out.read_text())["command"] == "classical"

    def test_metric_out_flag_overrides_output_path(self, tmp_config, tmp_path):
        configured, flagged = tmp_path / "configured.json", tmp_path / "flagged.json"
        cfg = tmp_config(self._classical_doc(path=str(configured), format="json"))
        assert main(["validate", "--config", cfg, "--out", str(flagged)]) == EXIT_OK
        assert json.loads(flagged.read_text())["command"] == "classical"
        assert not configured.exists()
