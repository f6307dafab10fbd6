"""The benchmark's four workloads: inputs made from a seed, the operations
each round runs, their output fingerprints, and the correctness checks.

Every operation calls bvm through module attributes (``engine.sweep``,
``cli.main``, ...), so the tracer in ``tracer.py`` sees each call when it
patches those names. The checks compare against ``oracles.py``, which does
not import bvm, or against properties the method must have.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import bvm.cli as cli
from bvm import agreement, comparison, config, distributions, engine, metrics, models

import oracles

Z = 4.0  # standard errors allowed between an estimate and its reference

# Fault named in the roadmap: ``bvm sweep`` passes ``k=args.samples or
# 10_000`` and ignores ``estimator.samples`` from the config.
SWEEP_SAMPLES_FAULT = "bvm sweep ignores estimator.samples"


@dataclass
class Op:
    """One operation of a round. ``run`` does the timed work; ``digest``
    turns its raw result into (fingerprint, value handed to the checks)."""

    name: str
    run: Callable[[], object]
    digest: Callable[[object], tuple]
    threads: int = 1


@dataclass
class Check:
    op: str
    ok: bool
    detail: str
    fault: str | None = None  # set when a failure is the named, counted fault


@dataclass
class Workload:
    name: str
    ops: list
    check: Callable[[dict], list]
    info: Callable[[dict], dict]  # per-round op times -> {name: (value, unit)}


# ---------------------------------------------------------------------------
# Digest helpers


def call(module, name, *args, **kwargs):
    """Look the callable up when the operation runs, so that a traced run
    reaches the wrapper the tracer put in its place."""
    return getattr(module, name)(*args, **kwargs)


def run_cli(argv) -> tuple:
    """Call ``bvm`` in process; returns (exit code, captured output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue()


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:24]


def digest_estimate(est):
    return est.p_hat.hex(), est


def digest_record(path: Path, result):
    rc, _ = result
    if rc != 0:
        return f"exit {rc}", {"rc": rc}
    est = json.loads(path.read_text())["estimates"][0]
    return est["p_hat"].hex(), {"rc": rc, **est}


def digest_study(result):
    """Fingerprint of a study's printed values and check lines, without the timing line."""
    rc, text = result
    lines = [ln for ln in text.splitlines() if not ln.startswith("done in")]
    return f"exit {rc} " + _sha("\n".join(lines).encode()), {"rc": rc, "lines": lines}


def read_sweep_csv(path: Path):
    """(gammas, epsilons, values) from a ``gamma,epsilon,p_agree`` CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    data = np.asarray(rows, dtype=float)
    gammas = np.unique(data[:, 0])
    epsilons = data[: len(data) // gammas.size, 1]
    return gammas, epsilons, data[:, 2].reshape(gammas.size, epsilons.size)


def digest_grids(paths: dict, result):
    rc = result[0] if isinstance(result, tuple) else result
    if rc != 0:
        return f"exit {rc}", {"rc": rc}
    grids = {name: read_sweep_csv(p) for name, p in sorted(paths.items())}
    fp = _sha(*(g[2].tobytes() for g in grids.values()))
    return f"exit {rc} {fp}", {"rc": rc, "grids": grids}


def _est_check(op, value, ref, se, what):
    z = abs(value - ref) / se if se > 0 else (0.0 if value == ref else math.inf)
    return Check(op, z <= Z, f"{what}: program {value:.6f} vs reference {ref:.6f}, {z:.2f} SE")


def _seeds(rng, n):
    return [int(s) for s in rng.integers(0, 2**31 - 1, n)]


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# mc-scalar: estimate_bvm_mc on Normal-vs-Normal scalars at 1 and 2 threads

K_HARD = 10_000_000
K_RULE = 2_500_000
K_VALIDATE = 1_000_000


def build_mc_scalar(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    mu_m, mu_d = (float(v) for v in rng.uniform(-0.5, 0.5, 2))
    sd_m, sd_d = (float(v) for v in rng.uniform(0.5, 1.5, 2))
    eps = float(rng.uniform(0.5, 1.5))
    eps_prime, lam = float(rng.uniform(0.2, 0.8)), float(rng.uniform(1.0, 4.0))
    lo = mu_m - float(rng.uniform(0.2, 1.0)) * sd_m
    hi = mu_m + float(rng.uniform(0.2, 1.0)) * sd_m
    est_seed, validate_seed = _seeds(rng, 2)

    model, data = distributions.Normal(mu_m, sd_m), distributions.Normal(mu_d, sd_d)
    hard = agreement.Threshold("abs_diff", eps)
    inside = agreement.Interval("identity", lo, hi)
    rules = {
        "hard": (hard, K_HARD),
        "soft": (agreement.SoftExponential("abs_diff", eps_prime, lam), K_RULE),
        "and": (agreement.And([hard, inside]), K_RULE),
        "or": (agreement.Or([hard, inside]), K_RULE),
    }
    cfg = _write_json(workdir / "scalar.json", {
        "model": {"distribution": {"type": "normal", "mean": mu_m, "std": sd_m}},
        "data": {"distribution": {"type": "normal", "mean": mu_d, "std": sd_d}},
        "agreement": {"type": "threshold", "fn": "abs_diff", "eps": eps},
        "estimator": {"method": "mc", "samples": K_VALIDATE, "seed": validate_seed},
    })
    record = workdir / "scalar_record.json"

    def estimate(rule, k):
        return engine.estimate_bvm_mc(engine.Scenario(model, data, rule), k, est_seed)

    ops = [
        Op(f"{name}@{t}t", partial(estimate, rule, k), digest_estimate, threads=t)
        for name, (rule, k) in rules.items()
        for t in (1, 2)
    ]
    ops.append(Op("validate@1t", partial(run_cli, ["validate", "--config", cfg, "--out", record]),
                  partial(digest_record, record)))

    def check(v):
        exact = oracles.normal_diff_mass(mu_m, sd_m, mu_d, sd_d, eps)
        out = [_est_check("hard@1t", v["hard@1t"].p_hat, exact, oracles.binomial_se(exact, K_HARD),
                          "closed-form normal-difference mass")]
        soft = v["soft@1t"]
        ref = oracles.soft_exponential_mean(mu_m - mu_d, math.hypot(sd_m, sd_d), eps_prime, lam)
        out.append(_est_check("soft@1t", soft.p_hat, ref, soft.std_error, "quad of the exponential kernel"))
        # On shared draws, 1[a] + 1[b] == 1[a and b] + 1[a or b] pair by pair.
        p_a = estimate(hard, K_RULE).p_hat
        p_b = estimate(inside, K_RULE).p_hat
        counts = [round(p * K_RULE) for p in (p_a, p_b, v["and@1t"].p_hat, v["or@1t"].p_hat)]
        for op in ("and@1t", "or@1t"):
            out.append(Check(op, counts[0] + counts[1] == counts[2] + counts[3],
                             f"hits a + b = {counts[0] + counts[1]}, and + or = {counts[2] + counts[3]}"))
        rec = v["validate@1t"]
        if rec["rc"] != 0:
            out.append(Check("validate@1t", False, f"exit code {rec['rc']}"))
        else:
            out.append(_est_check("validate@1t", rec["p_hat"], exact, oracles.binomial_se(exact, K_VALIDATE),
                                  "closed-form normal-difference mass"))
        return out

    def info(t):
        def pairs_per_s(threads):
            total = sum(t[f"{n}@{threads}t"] for n in rules)
            return sum(k for _, k in rules.values()) / total
        return {
            "mc_pairs_per_s": (pairs_per_s(1), "pairs/s"),
            "mc_pairs_per_s_2t": (pairs_per_s(2), "pairs/s"),
            "validate_s": (t["validate@1t"], "s"),
        }

    return Workload("mc-scalar", ops, check, info)


# ---------------------------------------------------------------------------
# paths: `bvm validate` on the four ex-5.2 oscillator configs, plus ex-5.2

OSC_PARAMS = [1.0, 1.0, 1.0, 10.0, 1.0, 10.0]
OSC_SIGMAS = [0.35, 0.3, 0.3, 0.3, 0.3, 0.3]
OSC_GRID = {"start": 0.0, "stop": 1.0, "num": 100}
ALEATORIC_STD, EPISTEMIC_STD = 0.4, 0.2
TOLERANCE = {"deterministic": 0.46, "uncertain": 0.9}
K_PATHS = {"deterministic-mean_error": 3000, "deterministic-compound": 3000,
           "uncertain-mean_error": 3000, "uncertain-compound": 100_000}
ORACLE_PATHS = 40_000


def build_paths(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    x = np.linspace(OSC_GRID["start"], OSC_GRID["stop"], OSC_GRID["num"])
    instance = oracles.oscillator(OSC_PARAMS, x)[0] + rng.normal(0.0, ALEATORIC_STD, x.size)
    data = {"distribution": {"type": "product", "components": [
        {"type": "normal", "mean": float(y), "std": EPISTEMIC_STD} for y in instance]}}
    est_seeds = dict(zip(K_PATHS, _seeds(rng, len(K_PATHS))))
    band_seed, oracle_seed = _seeds(rng, 2)

    ops, records = [], {}
    for name, k in K_PATHS.items():
        variant, rule = name.split("-")
        if variant == "deterministic":
            prior = {"type": "product", "components": [{"type": "dirac", "value": p} for p in OSC_PARAMS]}
        else:
            prior = {"type": "product", "components": [
                {"type": "normal", "mean": p, "std": s} for p, s in zip(OSC_PARAMS, OSC_SIGMAS)]}
        tol = TOLERANCE[variant]
        if rule == "mean_error":
            rule_doc = {"type": "threshold", "fn": "mean_abs_error", "eps": tol}
        else:
            rule_doc = {"type": "epsilon_beta", "mean_tol": tol, "coverage_lo": 0.91, "coverage_hi": 0.99,
                        "band": {"source": "model", "level": 0.95, "samples": 20_000, "seed": band_seed}}
        cfg = _write_json(workdir / f"{name}.json", {
            "model": {"model_function": {"family": "damped_oscillator"}, "prior": prior, "grid": OSC_GRID},
            "data": data,
            "agreement": rule_doc,
            "estimator": {"method": "mc", "samples": k, "seed": est_seeds[name]},
        })
        records[name] = workdir / f"{name}_record.json"
        ops.append(Op(name, partial(run_cli, ["validate", "--config", cfg, "--out", records[name]]),
                      partial(digest_record, records[name])))
    ops.append(Op("ex-5.2", partial(run_cli, ["reproduce", "ex-5.2"]), digest_study))

    def check(v):
        out = []
        failed_exit = [n for n in K_PATHS if v[n]["rc"] != 0]
        out += [Check(n, False, f"exit code {v[n]['rc']}") for n in failed_exit]
        refs = {}
        for variant in ("deterministic", "uncertain"):
            sigmas = OSC_SIGMAS if variant == "uncertain" else None
            refs[variant] = oracles.oscillator_mean_error_mc(
                OSC_PARAMS, sigmas, instance, EPISTEMIC_STD, TOLERANCE[variant], x, ORACLE_PATHS, oracle_seed)
        for variant, p_ref in refs.items():
            name = f"{variant}-mean_error"
            if name in failed_exit:
                continue
            se = math.hypot(oracles.binomial_se(p_ref, K_PATHS[name]), oracles.binomial_se(p_ref, ORACLE_PATHS))
            out.append(_est_check(name, v[name]["p_hat"], p_ref, se, "own oscillator Monte Carlo"))
        if "deterministic-compound" not in failed_exit:
            p = v["deterministic-compound"]["p_hat"]
            out.append(Check("deterministic-compound", p == 0.0, f"zero-width band must reject exactly: P = {p!r}"))
        if "uncertain-compound" not in failed_exit:
            p, p_ref = v["uncertain-compound"]["p_hat"], refs["uncertain"]
            se = math.hypot(oracles.binomial_se(p_ref, K_PATHS["uncertain-compound"]),
                            oracles.binomial_se(p_ref, ORACLE_PATHS))
            out.append(Check("uncertain-compound", p <= p_ref + Z * se,
                             f"compound acceptance {p:.6f} within mean-error acceptance {p_ref:.6f} + {Z} SE"))
        rc = v["ex-5.2"]["rc"]
        out.append(Check("ex-5.2", rc == 0, f"exit code {rc}"))
        return out

    def info(t):
        validate_s = sum(t[n] for n in K_PATHS)
        return {
            "paths_per_s": (sum(K_PATHS.values()) / validate_s, "paths/s"),
            "validate_s": (validate_s, "s"),
            "reproduce_s": (t["ex-5.2"], "s"),
        }

    return Workload("paths", ops, check, info)


# ---------------------------------------------------------------------------
# sweep: `bvm reproduce ex-5.3` and one MC `bvm sweep`

POLY_X = np.linspace(0.0, np.pi, 50)
TAYLOR = [1.0, -1.0 / 2.0, 1.0 / 24.0, -1.0 / 720.0]
POLY_SIGMAS = [0.1, 0.05, 0.005, 0.0005]
POLY_POWERS = {1: [0, 2, 4], 2: [0, 2, 4, 6]}
SWEEP_M = 5.0
EX53_PATHS = 1 + 1 + 20**3 + 20**4  # grid paths over the four ex-5.3 sweeps, each over 101 eps columns
MC_SWEEP = {"samples": 20_000, "seed": 11}  # fixed: the counted failure must not depend on --seed
CELLS_CHECKED = 24


def _poly_doc(order: int, uncertain: bool, estimator: dict) -> dict:
    n = len(POLY_POWERS[order])
    comps = ([{"type": "normal", "mean": c, "std": s} for c, s in zip(TAYLOR[:n], POLY_SIGMAS[:n])]
             if uncertain else [{"type": "dirac", "value": c} for c in TAYLOR[:n]])
    grid = {"start": 0.0, "stop": float(np.pi), "num": POLY_X.size}
    return {
        "model": {"model_function": {"family": "polynomial", "powers": POLY_POWERS[order]},
                  "prior": {"type": "product", "components": comps}, "grid": grid},
        "data": {"generator": {"type": "grid_function", "name": "cos", "grid": grid}},
        "estimator": estimator,
    }


def build_sweep(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    cells = {name: (rng.integers(0, 26, CELLS_CHECKED), rng.integers(0, 101, CELLS_CHECKED))
             for name in ("deterministic-model1", "deterministic-model2", "uncertain-model1", "uncertain-model2")}
    mc_doc = _poly_doc(2, True, {"method": "mc", **MC_SWEEP})
    mc_cfg = _write_json(workdir / "poly_mc.json", mc_doc)
    ex53 = workdir / "ex53"
    ex53_csvs = {name: Path(f"{ex53}_{name}.csv") for name in cells}
    mc_prefix = workdir / "mc_sweep"
    ops = [
        Op("ex-5.3", partial(run_cli, ["reproduce", "ex-5.3", "--out-prefix", ex53]),
           partial(digest_grids, ex53_csvs)),
        Op("mc-sweep", partial(run_cli, ["sweep", mc_cfg, "--out-prefix", mc_prefix]),
           partial(digest_grids, {"model1": Path(f"{mc_prefix}_model1.csv")})),
    ]

    def grid_properties(op, name, vals):
        out = [Check(op, bool(np.all(np.diff(vals, axis=1) >= -1e-12)), f"{name}: nondecreasing in eps"),
               Check(op, bool(np.all(np.diff(vals, axis=0) <= 1e-12)), f"{name}: nonincreasing in gamma")]
        if name.startswith("deterministic"):
            out.append(Check(op, bool(np.isin(vals, (0.0, 1.0)).all()), f"{name}: cells are exactly 0 or 1"))
        return out

    def check(v):
        out = []
        rc = v["ex-5.3"]["rc"]
        out.append(Check("ex-5.3", rc == 0, f"exit code {rc}"))
        if rc == 0:
            for name, (g, e, vals) in v["ex-5.3"]["grids"].items():
                out += grid_properties("ex-5.3", name, vals)
                variant, model = name.split("-")
                order = int(model[-1])
                n = len(POLY_POWERS[order])
                theta, w = oracles.grid_prior(TAYLOR[:n], POLY_SIGMAS[:n] if variant == "uncertain" else None)
                err = np.abs(oracles.polynomial_paths(theta, POLY_POWERS[order], POLY_X) - np.cos(POLY_X))
                max_err = err.max(axis=1)
                rows, cols = cells[name]
                worst = max(abs(vals[i, j] - oracles.gamma_eps_cell(err, max_err, w, g[i], e[j], SWEEP_M))
                            for i, j in zip(rows, cols))
                out.append(Check("ex-5.3", worst <= 1e-12,
                                 f"{name}: {CELLS_CHECKED} cells vs direct weighted indicator, max gap {worst:.2e}"))
        mc = v["mc-sweep"]
        if mc["rc"] != 0:
            return out + [Check("mc-sweep", False, f"exit code {mc['rc']}")]
        g, e, vals = mc["grids"]["model1"]
        out += grid_properties("mc-sweep", "mc", vals)
        template, est = config.build_sweep_template(mc_doc)
        expected = engine.sweep(template, g, e, m=SWEEP_M, estimator="mc", k=est["samples"], seed=est["seed"])
        same = np.array_equal(vals, expected.values)
        detail = f"CSV grid equals engine.sweep(k=estimator.samples={est['samples']})"
        if not same:
            k10 = engine.sweep(template, g, e, m=SWEEP_M, estimator="mc", k=10_000, seed=est["seed"])
            detail += f": no (it equals the k=10000 grid: {np.array_equal(vals, k10.values)})"
        out.append(Check("mc-sweep", same, detail, fault=SWEEP_SAMPLES_FAULT))
        return out

    def info(t):
        return {
            "sweep_path_eps_per_s": (EX53_PATHS * 101 / t["ex-5.3"], "paths*eps/s"),
            "reproduce_s": (t["ex-5.3"], "s"),
        }

    return Workload("sweep", ops, check, info)


# ---------------------------------------------------------------------------
# metrics: the classical-metric catalogue and `bvm reproduce ex-5.1`

BINNED_DRAWS = 100_000
AREA_BOOTSTRAP, AREA_N = 10_000, 50
DIVERGENCE_DRAWS = 1000
EVIDENCE_DRAWS = 100_000
EVIDENCE_POWERS, EVIDENCE_PRIOR_STD, EVIDENCE_SIGMA = [0, 1, 2], 0.3, 0.6


def build_metrics(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 4])
    s_binned, s_area, s_div, s_ev, s_o1, s_o2 = _seeds(rng, 6)

    # Frequentist fixtures: the rule reads E = model_mean - mu, so each
    # acceptance set maps to a mu interval for the Student-t oracle. The
    # hard rule is one-sided (E <= eps): `frequentist` pins only some of a
    # rule's breakpoints when it has two or more (it extends its edge list
    # while filtering against that list's last entry), so on some seeds a
    # bounded window (|E| <= eps, or an And) slips between probe points and
    # p_hat reads 0.
    fixtures = {}
    for kind in ("hard", "soft"):
        m = float(rng.uniform(-1.0, 1.0))
        summary = metrics.DataSummary(m + float(rng.normal(0.0, 0.5)), float(rng.uniform(0.5, 2.0)),
                                      int(rng.integers(5, 40)))
        eps = float(rng.uniform(0.2, 1.0))
        if kind == "hard":
            rule, ref = agreement.Threshold("identity", eps), ("interval", m - eps, math.inf)
        else:
            lam = float(rng.uniform(1.0, 5.0))
            rule, ref = agreement.SoftExponential("abs_value", eps, lam), ("soft", eps, lam)
        fixtures[f"frequentist-{kind}"] = (m, summary, rule, ref)

    bins = 8
    edges = np.linspace(0.0, 1.0, bins + 1)
    model_masses = rng.dirichlet(np.full(bins, 5.0))
    counts = rng.multinomial(60, rng.dirichlet(20.0 * model_masses))
    probe = np.sum(np.abs(model_masses - rng.dirichlet(counts + 1.0, 2000)), axis=1)
    binned_eps = float(np.median(probe))

    xm = rng.normal(0.0, 1.0, AREA_N)
    xd = rng.normal(float(rng.uniform(-0.3, 0.3)), float(rng.uniform(0.8, 1.2)), AREA_N)
    probe = np.mean(np.abs(np.sort(xd[rng.integers(0, AREA_N, (500, AREA_N))], axis=1) - np.sort(xm)), axis=1)
    area_eps = float(np.median(probe))

    div_model = comparison.BinnedPdf(edges, model_masses)
    div_alpha = rng.multinomial(40, model_masses) + 1.0
    probe = [oracles.hellinger(q, model_masses) for q in rng.dirichlet(div_alpha, 500)]
    div_eps = float(np.median(probe))
    drawn = []

    def sampler(g):
        q = g.dirichlet(div_alpha)
        drawn.append(q)
        return div_model, comparison.BinnedPdf(edges, q)

    def divergence():
        drawn.clear()
        rule = agreement.Threshold("identity", div_eps)
        return metrics.divergence_validation(div_model, div_model, "hellinger", rule,
                                             sampler=sampler, r=DIVERGENCE_DRAWS, seed=s_div)

    alpha, alpha_hat = float(rng.uniform(0.02, 0.2)), float(rng.uniform(0.02, 0.2))
    power_model = (0.0, float(rng.uniform(0.5, 4.0)))
    power_data = (float(rng.uniform(-0.5, 0.5)), float(rng.integers(4, 30)), float(rng.uniform(0.8, 2.5)))
    model_dist = distributions.Normal(*power_model)
    data_dist = distributions.StudentT(location=power_data[0], dof=power_data[1], scale=power_data[2])

    ev_x = np.linspace(0.0, 1.0, 10)
    ev_mean = rng.uniform(-1.0, 1.0, len(EVIDENCE_POWERS))
    ev_theta = ev_mean + EVIDENCE_PRIOR_STD * rng.standard_normal(len(EVIDENCE_POWERS))
    ev_design = np.stack([ev_x**p for p in EVIDENCE_POWERS], axis=1)
    ev_y = ev_design @ ev_theta + rng.normal(0.0, EVIDENCE_SIGMA, ev_x.size)
    ev_prior = distributions.IndependentProduct([distributions.Normal(float(mu), EVIDENCE_PRIOR_STD) for mu in ev_mean])
    ev_model = models.polynomial_model(EVIDENCE_POWERS)
    ev_lik = metrics.GaussianLikelihoodSpec(EVIDENCE_SIGMA, ev_y, models.InputGrid(ev_x))

    ops = [Op(name, partial(call, metrics, "frequentist", m, summary, rule), digest_estimate)
           for name, (m, summary, rule, _) in fixtures.items()]
    ops += [
        Op("binned_pdf", partial(call, metrics, "binned_pdf_metric", comparison.BinnedPdf(edges, model_masses),
                                 counts, agreement.Threshold("identity", binned_eps), r=BINNED_DRAWS, seed=s_binned),
           digest_estimate),
        Op("area", partial(call, metrics, "area_metric_validation", xm, xd, agreement.Threshold("identity", area_eps),
                           bootstrap=AREA_BOOTSTRAP, seed=s_area), digest_estimate),
        Op("divergence", divergence, lambda est: (est.p_hat.hex(), (est, list(drawn[:DIVERGENCE_DRAWS])))),
        *(Op(f"power-{kind}", partial(call, metrics, "statistical_power_bvm", model_dist, data_dist,
                                      alpha, alpha_hat, kind), lambda res: (res.estimate.p_hat.hex(), res))
          for kind in ("interval", "set")),
        Op("evidence", partial(call, metrics, "bayesian_evidence", ev_model, ev_prior, ev_lik,
                               k=EVIDENCE_DRAWS, seed=s_ev), lambda res: (res.log_evidence.hex(), res)),
        Op("ex-5.1", partial(run_cli, ["reproduce", "ex-5.1"]), digest_study),
    ]

    def check(v):
        from scipy import stats

        out = []
        for name, (m, s, _, ref) in fixtures.items():
            loc, dof, scale = s.sample_mean, s.dof, s.sample_std / math.sqrt(s.n)
            if ref[0] == "interval":
                exact = oracles.student_t_mass(loc, dof, scale, ref[1], ref[2])
            else:
                exact = oracles.student_t_soft_mass(m, loc, dof, scale, ref[1], ref[2])
            p = v[name].p_hat
            out.append(Check(name, abs(p - exact) <= 1e-6, f"Student-t reference {exact:.9f} vs {p:.9f}"))

        est = v["binned_pdf"]
        ref = oracles.dirichlet_distance_mc(model_masses, counts, binned_eps, BINNED_DRAWS, s_o1)
        se = math.hypot(oracles.binomial_se(ref, BINNED_DRAWS), oracles.binomial_se(ref, BINNED_DRAWS))
        out.append(_est_check("binned_pdf", est.p_hat, ref, se, "own Dirichlet Monte Carlo"))

        est = v["area"]
        ref = oracles.area_bootstrap_mc(xm, xd, area_eps, AREA_BOOTSTRAP, s_o2)
        se = math.hypot(oracles.binomial_se(ref, AREA_BOOTSTRAP), oracles.binomial_se(ref, AREA_BOOTSTRAP))
        out.append(_est_check("area", est.p_hat, ref, se, "own bootstrap via sorted-sample transport"))

        est, draws = v["divergence"]
        mean = float(np.mean([float(oracles.hellinger(q, model_masses) <= div_eps) for q in draws]))
        out.append(Check("divergence", len(draws) == DIVERGENCE_DRAWS and mean == est.p_hat,
                         f"mean over the sampler's own {len(draws)} draws {mean!r} vs {est.p_hat!r}"))

        res = v["power-interval"]
        exact = oracles.power_product_interval(*power_model, *power_data, alpha, alpha_hat)
        out.append(Check("power-interval", abs(res.estimate.p_hat - exact) <= 1e-12,
                         f"scipy ppf/cdf product {exact!r} vs {res.estimate.p_hat!r}"))

        res = v["power-set"]
        m_cdf = partial(stats.norm.cdf, loc=power_model[0], scale=power_model[1])
        d_cdf = partial(stats.t.cdf, df=power_data[1], loc=power_data[0], scale=power_data[2])
        product = (oracles.intervals_mass(m_cdf, res.data_region.intervals)
                   * oracles.intervals_mass(d_cdf, res.model_region.intervals))
        own_mass = min(oracles.intervals_mass(d_cdf, res.data_region.intervals) - (1.0 - alpha),
                       oracles.intervals_mass(m_cdf, res.model_region.intervals) - (1.0 - alpha_hat))
        out.append(Check("power-set", abs(res.estimate.p_hat - product) <= 1e-12 and own_mass >= -1e-9,
                         f"product over the returned sets {product!r} vs {res.estimate.p_hat!r}; "
                         f"own-mass margin {own_mass:.2e}"))

        res = v["evidence"]
        prior_std = np.full(len(EVIDENCE_POWERS), EVIDENCE_PRIOR_STD)
        exact = oracles.linear_gaussian_log_evidence(ev_design, ev_mean, prior_std, EVIDENCE_SIGMA, ev_y)
        out.append(_est_check("evidence", res.log_evidence, exact, res.std_error_log, "linear-Gaussian log evidence"))

        rc = v["ex-5.1"]["rc"]
        out.append(Check("ex-5.1", rc == 0, f"exit code {rc}"))
        return out

    def info(t):
        return {"reproduce_s": (t["ex-5.1"], "s")}

    return Workload("metrics", ops, check, info)


BUILDERS = {
    "mc-scalar": build_mc_scalar,
    "paths": build_paths,
    "sweep": build_sweep,
    "metrics": build_metrics,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return BUILDERS[name](seed, workdir)
