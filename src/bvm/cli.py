"""Command-line front end.

Commands: ``validate`` (run one configured scenario), ``ratio`` (compare
two models under the same agreement rule), ``sweep`` (grids over the
(gamma, eps) rule family plus ratio summaries), ``reproduce`` (run a
bundled study against its recorded targets), and one subcommand per
entry of the metric table ``config.METRICS``, all run by
:func:`cmd_metric`. Every run emits a JSON run record embedding the
resolved config and seed, so results can be reproduced bit for bit; a
record's estimates hold the fields of the result dataclass
(``BvmEstimate``, or ``EvidenceResult`` for ``evidence``) plus any
metric-specific extras.

Exit codes: 0 success, 2 config/schema error, 3 estimation error,
4 the two ratio configs disagree on data/agreement sections,
5 reproduction target failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import platform
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy

from . import __version__
from .config import (
    DEFAULT_SAMPLES,
    METRICS,
    ConfigError,
    build_scenario,
    build_sweep_template,
    load_config,
    rule_to_config,
)
from .engine import (
    EstimationError,
    RatioResult,
    averaged_boolean_ratio,
    bvm_factor,
    bvm_ratio,
    estimate_bvm_grid,
    estimate_bvm_mc,
    ratio_grid,
    sweep,
    weighted_paths,
)
from .metrics import EvidenceResult
from .rng import CHUNK_SIZE, _max_workers
from .studies import STUDY_ALIASES, run_study, study_ids

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ESTIMATION = 3
EXIT_RULE_MISMATCH = 4
EXIT_TARGET_FAILURE = 5


class RuleMismatch(Exception):
    """Ratio configs must share data and agreement sections."""


def _fmt(x: float) -> str:
    """Shortest decimal form that parses back to the same float."""
    return repr(float(x))


def _environment() -> dict:
    """Library versions and run settings behind a record. Results are
    bit-identical for a seed only within one numpy version (its generator
    streams carry no cross-version guarantee); threads change only speed."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bvm_threads": _max_workers(),
        "chunk_size": CHUNK_SIZE,
    }


@dataclass
class RunRecord:
    """Everything needed to audit and re-run one invocation."""

    command: str
    config: dict
    agreement: dict | None = None
    estimates: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    wall_time_s: float = 0.0
    version: str = __version__
    environment: dict = field(default_factory=_environment)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _result_line(result) -> str:
    """One-line summary of an agreement estimate or a model evidence."""
    if isinstance(result, EvidenceResult):
        return (
            f"log evidence = {_fmt(result.log_evidence)} +/- {_fmt(result.std_error_log)} "
            f"[n={result.n_samples}, seed={result.seed}, ess={_fmt(result.ess)}, "
            f"max weight share={_fmt(result.max_weight_share)}]"
        )
    return (
        f"P(agree) = {_fmt(result.p_hat)} +/- {_fmt(result.std_error)} "
        f"[{result.method}, n={result.n_samples}, seed={result.seed}]"
    )


def _ratio_dict(label: str, r: RatioResult) -> dict:
    return {"label": label, "status": r.status, "value": r.value}


def _write_record(record: RunRecord, out: str | None, fmt: str = "json"):
    """Persist a run record: full JSON, or a flat CSV of its numbers."""
    if not out:
        return
    if fmt == "csv":
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            if record.estimates:
                cols = sorted(record.estimates[0])
                writer.writerow(cols)
                for est in record.estimates:
                    writer.writerow([_fmt(est[c]) if isinstance(est[c], float) else est[c] for c in cols])
            if record.ratios:
                writer.writerow(["label", "ratio", "status"])
                for r in record.ratios:
                    value = _fmt(r["value"]) if r["value"] is not None else ""
                    writer.writerow([r["label"], value, r["status"]])
        return
    with open(out, "w") as fh:
        fh.write(record.to_json() + "\n")


def _run_configured_scenario(doc: dict, seed_override=None, samples_override=None):
    """Build and estimate the scenario of a document ``load_config`` has
    already schema-checked."""
    built = build_scenario(doc, checked=True)
    est_cfg = built.estimator
    seed = seed_override if seed_override is not None else est_cfg["seed"]
    samples = samples_override if samples_override is not None else est_cfg["samples"]
    if est_cfg["method"] == "mc":
        est = estimate_bvm_mc(built.scenario, samples, seed)
    else:
        template, _ = build_sweep_template(doc, checked=True)
        paths, weights = weighted_paths(
            template,
            "grid",
            k=samples,
            seed=seed,
        )
        est = estimate_bvm_grid(
            built.scenario, (paths, weights), ([template.data_path], [1.0])
        )
    return built, est


def cmd_validate(args) -> int:
    t0 = time.perf_counter()
    doc = load_config(args.config)
    built, est = _run_configured_scenario(doc, args.seed, args.samples)
    rule_doc = rule_to_config(built.scenario.rule)
    record = RunRecord(
        command="validate",
        config=built.resolved,
        agreement=rule_doc,
        estimates=[asdict(est)],
        wall_time_s=time.perf_counter() - t0,
    )
    fmt = args.format or built.output.get("format", "json")
    _write_record(record, args.out or built.output.get("path"), fmt)
    print(_result_line(est))
    print(f"agreement: {json.dumps(rule_doc, sort_keys=True)}")
    return EXIT_OK


def _shared_sections_match(doc_a: dict, doc_b: dict) -> bool:
    return all(
        json.dumps(doc_a.get(k), sort_keys=True) == json.dumps(doc_b.get(k), sort_keys=True)
        for k in ("data", "agreement")
    )


def cmd_ratio(args) -> int:
    t0 = time.perf_counter()
    doc_m = load_config(args.config_m)
    doc_m2 = load_config(args.config_m2)
    if not _shared_sections_match(doc_m, doc_m2):
        raise RuleMismatch(
            "the two configs must share identical data and agreement sections"
        )
    if args.prior_m <= 0 or args.prior_m2 <= 0:
        raise ConfigError("model priors must be positive")
    built_m, est_m = _run_configured_scenario(doc_m, args.seed, args.samples)
    _, est_m2 = _run_configured_scenario(doc_m2, args.seed, args.samples)
    factor = bvm_factor(est_m, est_m2)
    ratio = bvm_ratio(factor, args.prior_m, args.prior_m2)
    record = RunRecord(
        command="ratio",
        config={"model": doc_m, "model_other": doc_m2, "prior_m": args.prior_m, "prior_m_other": args.prior_m2},
        agreement=doc_m.get("agreement"),
        estimates=[asdict(est_m), asdict(est_m2)],
        ratios=[_ratio_dict("factor", factor), _ratio_dict("ratio", ratio)],
        wall_time_s=time.perf_counter() - t0,
    )
    # The first config's output section decides; --out and --format win over it.
    fmt = args.format or built_m.output.get("format", "json")
    _write_record(record, args.out or built_m.output.get("path"), fmt)
    for label, r in (("K", factor), ("R", ratio)):
        shown = _fmt(r.value) if r.status == "ok" else r.status
        print(f"{label} = {shown} [status={r.status}]")
    return EXIT_OK


def _parse_axis(spec: str) -> np.ndarray:
    try:
        lo, hi, step = (float(tok) for tok in spec.split(":"))
    except ValueError:
        raise ConfigError(f"axis spec '{spec}' must be min:max:step") from None
    if not (hi > lo and step > 0 and all(map(math.isfinite, (lo, hi, step)))):
        raise ConfigError(f"axis spec '{spec}' needs finite max > min and step > 0")
    steps = (hi - lo) / step
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ConfigError(f"axis spec '{spec}': step {step:g} does not divide max - min into whole steps")
    return np.linspace(lo, hi, int(round(steps)) + 1)


def _write_sweep_csv(path: str, grid):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "epsilon", "p_agree"])
        for i, g in enumerate(grid.gammas):
            for j, e in enumerate(grid.epsilons):
                writer.writerow([_fmt(g), _fmt(e), _fmt(grid.values[i, j])])


def _write_ratio_csv(path: str, grid1, cells):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gamma", "epsilon", "ratio", "status"])
        for i, g in enumerate(grid1.gammas):
            for j, e in enumerate(grid1.epsilons):
                cell = cells[i][j]
                value = _fmt(cell.value) if cell.status == "ok" else ""
                writer.writerow([_fmt(g), _fmt(e), value, cell.status])


def cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    gammas = _parse_axis(args.gamma)
    epsilons = _parse_axis(args.eps)
    grids = []
    for path in args.configs:
        doc = load_config(path)
        template, estimator = build_sweep_template(doc, checked=True)
        seed = args.seed if args.seed is not None else estimator.get("seed", 0)
        grid = sweep(
            template,
            gammas,
            epsilons,
            m=args.m,
            estimator=estimator.get("method", "grid"),
            k=args.samples if args.samples is not None else estimator.get("samples", DEFAULT_SAMPLES),
            seed=seed,
        )
        grids.append(grid)
        out_csv = f"{args.out_prefix}_model{len(grids)}.csv"
        _write_sweep_csv(out_csv, grid)
        zero = int(np.count_nonzero(~grid.values.any(axis=0)))
        print(
            f"wrote {out_csv} ({grid.values.shape[0]}x{grid.values.shape[1]} cells, {grid.n_paths} paths, "
            f"{zero} eps column{'' if zero == 1 else 's'} with zero mass)"
        )
    if len(grids) == 2:
        cells = ratio_grid(grids[0], grids[1])
        ratio_csv = f"{args.out_prefix}_ratio.csv"
        _write_ratio_csv(ratio_csv, grids[0], cells)
        avg = averaged_boolean_ratio(grids[0], grids[1])
        shown = f"{avg.value:.4f}" if avg.status == "ok" else avg.status
        print(f"wrote {ratio_csv}")
        print(f"averaged agreement ratio = {shown}")
    print(f"done in {time.perf_counter() - t0:.2f}s")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    t0 = time.perf_counter()
    report = run_study(args.example, seed=args.seed)
    for key in sorted(report.values):
        print(f"{key} = {report.values[key]}")
    for label, ok, detail in report.checks:
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"[{status}] {label}{suffix}")
    if args.out_prefix:
        for name, grid in report.grids.items():
            _write_sweep_csv(f"{args.out_prefix}_{name}.csv", grid)
        if report.grids:
            print(f"wrote {len(report.grids)} sweep CSVs with prefix {args.out_prefix}_")
        record = RunRecord(
            command="reproduce",
            config={"example": report.study, "seed": report.seed},
            estimates=[],
            ratios=[],
            wall_time_s=time.perf_counter() - t0,
        )
        record.config["values"] = report.values
        record.config["checks"] = [
            {"label": label, "passed": ok, "detail": detail} for label, ok, detail in report.checks
        ]
        _write_record(record, f"{args.out_prefix}_record.json")
    print(f"done in {time.perf_counter() - t0:.2f}s")
    return EXIT_OK if report.passed else EXIT_TARGET_FAILURE


# ---------------------------------------------------------------------------
# Metric subcommands


def cmd_metric(args) -> int:
    t0 = time.perf_counter()
    doc = load_config(args.config)
    name = args.metric_name
    section = doc.get("metric")
    if not section:
        raise ConfigError("config field $.metric: section is required for this command")
    if section["name"] != name:
        raise ConfigError(f"config field $.metric.name: expected '{name}', got '{section['name']}'")
    estimator = doc.get("estimator", {})
    samples = args.samples if args.samples is not None else estimator.get("samples", DEFAULT_SAMPLES)
    seed = args.seed if args.seed is not None else estimator.get("seed", 0)
    result, extras = METRICS[name].run(doc, section, samples, seed)
    record = RunRecord(
        command=name,
        config=doc,
        agreement=doc.get("agreement"),
        estimates=[{**asdict(result), **extras}],
        wall_time_s=time.perf_counter() - t0,
    )
    output = doc.get("output", {})
    _write_record(record, args.out or output.get("path"), output.get("format", "json"))
    print(_result_line(result))
    for key, value in extras.items():
        print(f"{key} = {value}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvm",
        description="Probability-of-agreement model validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run one configured scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--out", default=None, help="run-record path")
    p.add_argument("--format", choices=["csv", "json"], default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "ratio",
        help="agreement ratio of two models under one rule",
        description="Agreement ratio of two models under one rule. The run record goes to --out, "
        "else to the first config's output.path in its output.format; the second config's "
        "output section is ignored.",
    )
    p.add_argument("config_m")
    p.add_argument("config_m2")
    p.add_argument("--prior-m", type=float, default=1.0)
    p.add_argument("--prior-m2", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default=None)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("sweep", help="(gamma, eps) rule-family sweep")
    p.add_argument("configs", nargs="+", help="one or two sweepable configs")
    p.add_argument("--gamma", default="0.75:1.0:0.01", help="min:max:step")
    p.add_argument("--eps", default="0:1:0.01", help="min:max:step")
    p.add_argument("--m", type=float, default=5.0, help="worst-point multiplier")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--out-prefix", default="sweep")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", help="run a bundled study against recorded targets")
    p.add_argument("example", choices=study_ids() + list(STUDY_ALIASES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=cmd_reproduce)

    for name in METRICS:  # one subcommand per metric table entry, in table order
        p = sub.add_parser(name, help=f"run the {name.replace('_', ' ')} metric from a config")
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(func=cmd_metric, metric_name=name)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuleMismatch as exc:
        print(f"rule mismatch: {exc}", file=sys.stderr)
        return EXIT_RULE_MISMATCH
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except (ValueError, OSError) as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
