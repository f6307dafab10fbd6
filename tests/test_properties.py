"""Properties over generated inputs (hypothesis, derandomized).

Each property runs a fixed number of examples from a fixed derivation, so
the suite is as repeatable as the rest of tier-1; together they take a few
seconds. The bounds were written down before the first run:

- Region mass: over ``N_DRAWS`` = 4000 draws, the fraction that
  ``region.contains`` holds lies within ``5 sqrt(p (1 - p) / N_DRAWS) +
  1 / N_DRAWS`` of ``probability_in_region``'s p. That is five binomial
  standard errors plus one draw's weight; a mass that differs by one atom
  of weight 1/30 or more (the largest Empirical here has 30 samples) is
  outside it.
- Comparisons: a batch equals the concatenation of its one-row batches bit
  for bit (NaN and inf included).
- Rule kernels: every weight lies in [0, 1], and a hard rule's in {0, 1};
  ``And`` is at most, and ``Or`` at least, each child's weight, exactly;
  a hard rule's weight does not fall as its tolerance widens.
- Config forms: ``rule_to_config(rule_from_config(doc))`` is a fixed point
  of one more round trip, and survives ``json``.
- Reliability: each closed form of ``reliability`` (normal difference,
  and a certain value against a continuous distribution, either way
  round) lies within ``5 sqrt(p (1 - p) / N_DRAWS) + 1 / N_DRAWS`` of a
  Monte Carlo estimate of the same abs-difference threshold over
  ``N_DRAWS`` pairs, the region-mass bound above.
- Sweeps: ``sweep`` equals ``direct_count_sweep``, which counts every
  error of every path, bit for bit: over gamma axes that need anything
  from 0 to more than n points, unsorted eps axes with repeats, negative
  values and values equal to path errors, and paths with NaN and +-inf
  points, under both estimators. It does so again with blocks of 3 paths
  counted 8 (path, eps) cells at a time, so that each cell's sum carries
  over from block to block.
- Model bands: the band a rule draws from the model, one chunk at a time,
  equals ``np.quantile`` over all its paths, byte for byte, for 100 to
  3 CHUNK_SIZE + 1 paths and levels in (0, 1], on oscillator paths and on
  Empirical paths with NaN, +-inf and +-0.0 columns. A point whose rank
  both -0.0 and +0.0 hold may come back with either sign, so such a
  column is compared with ``==``.
- Oscillator tiles: the tiled oscillator equals the one-pass expression
  byte for byte, at row counts around the tile size.
- What a rule reads: every rule type, over every comparison, gives k
  weights (shape ``(k,)``) for a chunk of k pairs on every pair of sides
  (scalar, a path of 1 to 4 points, or labels) that ``check_reads`` takes.
- Path-error tiles: ``mean_abs_error``, ``max_abs_error`` and
  ``fraction_within`` equal their one-pass expressions byte for byte, at
  the same row counts, on paths with NaN and +-inf points, for a batch
  against a batch, a batch against one path, one path (1-D or one row)
  against a batch and one pair of paths. So do the two compound rules,
  ``GammaEpsilon`` and ``EpsilonBeta``, against a batch or one data path.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bvm import (
    AlwaysFalse,
    IndependentProduct,
    AlwaysTrue,
    And,
    Categorical,
    ConfidenceRegion,
    DiracDelta,
    Empirical,
    EpsilonBeta,
    GammaEpsilon,
    InputGrid,
    InRegion,
    Interval,
    ModelFunction,
    Normal,
    Not,
    Or,
    PushForward,
    Scenario,
    SetMembership,
    ShiftedExponential,
    SoftExponential,
    StudentT,
    SweepTemplate,
    Threshold,
    Uniform,
    estimate_bvm_mc,
    fraction_within,
    max_abs_error,
    mean_abs_error,
    probability_in_region,
    sweep,
)
from bvm import engine
from bvm.comparison import _REGISTRY, get_comparison_fn
from bvm.config import rule_from_config, rule_to_config
from bvm.engine import _path_blocks
from bvm.metrics import reliability
from bvm.models import OSCILLATOR_TILE, damped_oscillator_model
from bvm.rng import BAND_STREAM, CHUNK_SIZE
from test_engine import assert_equals_direct_count


def _settings(n):
    return settings(max_examples=n, derandomize=True, database=None, deadline=None)


N_DRAWS = 4000
ATOM = st.integers(-4, 4).map(float)  # a coarse grid, so atoms repeat and edges meet them
REAL = st.floats(-6.0, 6.0, allow_nan=False)
UNIT = st.floats(0.0, 1.0)


# ---------------------------------------------------------------------------
# Region masses


@st.composite
def scalar_dists(draw):
    """A distribution and the points its regions may put edges on: its
    atoms, or the mean of a Normal and the ends of a Uniform."""
    kind = draw(st.sampled_from(["normal", "uniform", "dirac", "categorical", "empirical"]))
    if kind == "normal":
        mean = draw(REAL)
        return Normal(mean, draw(st.floats(0.05, 3.0))), (mean,)
    if kind == "uniform":
        lo = draw(REAL)
        hi = lo + draw(st.floats(0.01, 5.0))
        return Uniform(lo, hi), (lo, hi)
    if kind == "dirac":
        v = draw(ATOM)
        return DiracDelta(v), (v,)
    if kind == "categorical":
        values = draw(st.lists(ATOM, min_size=1, max_size=5, unique=True))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(values), max_size=len(values)))
        return Categorical(values, [w / sum(weights) for w in weights]), tuple(values)
    samples = draw(st.lists(ATOM, min_size=1, max_size=30))
    return Empirical(np.array(samples)), tuple(samples)


@st.composite
def regions(draw, anchors):
    """Half the regions take every edge (or label) from *anchors*; a
    quarter are label sets, the rest one to three closed intervals."""
    point = st.sampled_from(anchors) if draw(st.booleans()) else REAL
    if draw(st.integers(0, 3)) == 0:
        labels = draw(st.lists(point, min_size=1, max_size=3, unique=True))
        return ConfidenceRegion(kind="set", level=0.5, labels=tuple(labels))
    pairs = sorted(tuple(sorted(draw(st.tuples(point, point)))) for _ in range(draw(st.integers(1, 3))))
    merged = [list(pairs[0])]
    for lo, hi in pairs[1:]:  # overlapping or touching intervals merge
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    kind = "interval" if len(merged) == 1 else "set"
    return ConfidenceRegion(kind=kind, level=0.5, intervals=tuple(map(tuple, merged)))


@_settings(200)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_region_mass_is_the_fraction_of_draws_inside(data, seed):
    dist, anchors = data.draw(scalar_dists())
    region = data.draw(regions(anchors))
    p = probability_in_region(dist, region)
    inside = np.count_nonzero(region.contains(dist.sample(seed, N_DRAWS))) / N_DRAWS
    bound = 5.0 * math.sqrt(max(p * (1.0 - p), 0.0) / N_DRAWS) + 1.0 / N_DRAWS
    assert abs(inside - p) <= bound, (dist, region, p, inside)


# ---------------------------------------------------------------------------
# Comparison functions: a batch is its rows


SCALAR_FNS = ("abs_diff", "sq_diff", "identity", "abs_value")
PATH_FNS = ("mean_abs_error", "max_abs_error", "per_point_abs_error")
MASS_FNS = ("kl", "kl_divergence", "sym_kl", "symmetrized_kl", "js", "js_divergence", "hellinger")
SAMPLE_FNS = ("area_metric",)
FINITE = st.floats(-100.0, 100.0, allow_nan=False)


def test_every_registered_comparison_is_generated():
    assert set(_REGISTRY) == {*SCALAR_FNS, *PATH_FNS, *MASS_FNS, *SAMPLE_FNS}


def _masses(draw, m, n):
    w = draw(hnp.arrays(float, (m, n), elements=st.floats(0.0, 1.0)))
    w[:, 0] += w.sum(axis=1) == 0  # every row has some mass
    return w / w.sum(axis=1, keepdims=True)


@_settings(150)
@given(data=st.data())
def test_batch_equals_its_one_row_batches(data):
    name = data.draw(st.sampled_from([*SCALAR_FNS, *PATH_FNS, *MASS_FNS, *SAMPLE_FNS, "binned_prob_diff"]))
    m, n, b = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    if name == "binned_prob_diff":
        fn = get_comparison_fn(name, bins=data.draw(st.integers(1, 20)))
    else:
        fn = _REGISTRY[name]
    if name in SCALAR_FNS:
        zh, z = (data.draw(hnp.arrays(float, (m,), elements=FINITE)) for _ in range(2))
    elif name in MASS_FNS:
        zh, z = _masses(data.draw, m, n), _masses(data.draw, m, n)
    elif name in PATH_FNS:
        zh, z = (data.draw(hnp.arrays(float, (m, n), elements=FINITE)) for _ in range(2))
    else:  # two samples of sizes n and b; a 1-D side is a sample of one per row
        shapes = data.draw(st.sampled_from([((m, n), (m, b)), ((m,), (m, b)), ((m, n), (m,)), ((m,), (m,))]))
        zh, z = (data.draw(hnp.arrays(float, shape, elements=FINITE)) for shape in shapes)
    rows = np.concatenate([fn.on_batch(zh[i : i + 1], z[i : i + 1]) for i in range(m)])
    np.testing.assert_array_equal(fn.on_batch(zh, z), rows)


# ---------------------------------------------------------------------------
# Rule kernels


VALUE_FNS = st.sampled_from(["identity", "abs_value", "abs_diff"])
TOL = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def rules(draw, depth=0, hard=False):
    kinds = ["threshold", "interval", "in_region", "always_true", "always_false"]
    kinds += [] if hard else ["soft"]
    kinds += ["and", "or", "not"] if depth < 2 else []
    kind = draw(st.sampled_from(kinds))
    if kind == "threshold":
        return Threshold(draw(VALUE_FNS), draw(TOL))
    if kind == "interval":
        lo, hi = sorted((draw(TOL), draw(TOL)))
        return Interval(draw(VALUE_FNS), lo, hi)
    if kind == "soft":
        return SoftExponential(draw(VALUE_FNS), draw(TOL), draw(st.floats(0.01, 50.0)))
    if kind == "in_region":
        lo, hi = sorted((draw(TOL), draw(TOL)))
        region = ConfidenceRegion(kind="interval", level=0.5, intervals=((lo, hi),))
        return InRegion(region, draw(st.sampled_from(["model", "data"])))
    if kind == "always_true":
        return AlwaysTrue()
    if kind == "always_false":
        return AlwaysFalse()
    if kind == "not":
        return Not(draw(rules(depth + 1, hard=True)))
    children = draw(st.lists(rules(depth + 1, hard), min_size=1, max_size=3))
    return And(children) if kind == "and" else Or(children)


VALUES = hnp.arrays(float, st.integers(1, 12), elements=st.floats(-5.0, 5.0, allow_nan=False))


@_settings(150)
@given(rule=rules(), zh=VALUES, data=st.data())
def test_kernel_weights_lie_in_the_unit_interval(rule, zh, data):
    z = data.draw(hnp.arrays(float, zh.shape, elements=st.floats(-5.0, 5.0, allow_nan=False)))
    w = rule.kernel_many(zh, z)
    assert np.all((w >= 0.0) & (w <= 1.0)), (rule, w)
    if not rule.is_soft:
        assert set(np.unique(w)) <= {0.0, 1.0}, (rule, w)


@_settings(150)
@given(children=st.lists(rules(depth=1), min_size=1, max_size=3), zh=VALUES, data=st.data())
def test_and_is_at_most_and_or_at_least_every_child(children, zh, data):
    z = data.draw(hnp.arrays(float, zh.shape, elements=st.floats(-5.0, 5.0, allow_nan=False)))
    each = np.array([c.kernel_many(zh, z) for c in children])
    assert np.all(And(children).kernel_many(zh, z) <= each.min(axis=0))
    assert np.all(Or(children).kernel_many(zh, z) >= each.max(axis=0))


@_settings(100)
@given(fn=VALUE_FNS, a=TOL, b=TOL, widen=st.floats(0.0, 2.0), zh=VALUES, data=st.data())
def test_hard_rules_are_monotone_in_their_tolerance(fn, a, b, widen, zh, data):
    z = data.draw(hnp.arrays(float, zh.shape, elements=st.floats(-5.0, 5.0, allow_nan=False)))
    lo, hi = sorted((a, b))
    pairs = [
        (Threshold(fn, lo), Threshold(fn, hi)),
        (Interval(fn, lo, hi), Interval(fn, lo - widen, hi + widen)),
    ]
    paths = np.stack([zh, zh[::-1]])
    data_paths = np.stack([z, z[::-1]])
    gamma, m = data.draw(UNIT), data.draw(st.floats(1.0, 4.0))
    tight, loose = (GammaEpsilon(gamma, e, m) for e in (abs(lo), abs(lo) + widen))
    for narrow, wide in pairs:
        assert np.all(narrow.kernel_many(zh, z) <= wide.kernel_many(zh, z)), (narrow, wide)
    assert np.all(tight.kernel_many(paths, data_paths) <= loose.kernel_many(paths, data_paths)), (tight, loose)


# ---------------------------------------------------------------------------
# What a rule reads: one weight per pair on every pair of sides it takes


def _side(draw, kind, n):
    """A distribution of value kind *kind*, its paths of n points."""
    if kind == "label":
        return Categorical(["a", "b", "c"], [0.5, 0.25, 0.25])
    if kind == "scalar":
        return draw(st.sampled_from([Normal(0.0, 1.0), DiracDelta(0.5), Categorical([0.0, 1.0], [0.5, 0.5])]))
    return draw(st.sampled_from([
        DiracDelta(np.linspace(0.0, 1.0, n)),
        IndependentProduct([Normal(0.0, 1.0)] * n),
        Empirical(np.arange(3.0 * n).reshape(3, n) / n),
    ]))


RULE_TYPES = ["always_true", "always_false", "threshold", "interval", "soft", "set_membership", "in_region",
              "gamma_epsilon", "epsilon_beta", "and", "or", "not"]


@st.composite
def read_rules(draw, n, kind=None, depth=0):
    """A rule of type *kind* (drawn when None) over any comparison; a
    per-point tolerance or band has n points."""
    kind = kind or draw(st.sampled_from(RULE_TYPES[: -3 if depth else None]))
    name = draw(st.sampled_from([*sorted(_REGISTRY), "binned_prob_diff"]))
    fn = get_comparison_fn(name, bins=draw(st.integers(1, 8))) if name == "binned_prob_diff" else name
    if kind in ("and", "or"):
        children = draw(st.lists(read_rules(n, depth=depth + 1), min_size=1, max_size=3))
        return And(children) if kind == "and" else Or(children)
    if kind == "not":
        return Not(draw(read_rules(n, depth=depth + 1).filter(lambda r: not r.is_soft)))
    if kind in ("always_true", "always_false"):
        return AlwaysTrue() if kind == "always_true" else AlwaysFalse()
    if kind == "threshold":
        return Threshold(fn, 0.5)
    if kind == "interval":
        return Interval(fn, 0.1, 0.9)
    if kind == "soft":
        return SoftExponential(fn, 0.5, 2.0)
    if kind == "set_membership":
        return SetMembership({"a": ("b",), 0.0: (1.0,)})
    if kind == "in_region":
        region = draw(st.sampled_from([ConfidenceRegion("interval", 0.9, intervals=((0.0, 1.0),)),
                                       ConfidenceRegion("set", 0.9, labels=("a", 1.0))]))
        return InRegion(region, draw(st.sampled_from(["model", "data"])))
    if kind == "gamma_epsilon":
        return GammaEpsilon(0.5, draw(st.sampled_from([0.5, np.full(n, 0.5)])), 2.0)
    return EpsilonBeta(1.0, (np.full(n, -1.0), np.full(n, 2.0)), 0.0, 1.0)


@pytest.mark.parametrize("rule_type", RULE_TYPES)
@_settings(60)
@given(data=st.data(), k=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_a_rule_gives_one_weight_per_pair_wherever_check_reads_takes_the_sides(rule_type, data, k, seed):
    # Half the examples give both sides one kind and paths one length, which
    # point-by-point rules need.
    kinds = st.sampled_from(["scalar", "path", "label"])
    n_model = data.draw(st.integers(1, 4))
    kind = data.draw(kinds)
    if data.draw(st.booleans()):
        n_data, data_kind = n_model, kind
    else:
        n_data, data_kind = data.draw(st.integers(1, 4)), data.draw(kinds)
    model, dist = _side(data.draw, kind, n_model), _side(data.draw, data_kind, n_data)
    rule = data.draw(read_rules(n_model, rule_type))
    try:
        scenario = Scenario(model, dist, rule)
    except engine.ValueKindError:
        return  # refused: no estimate reads these sides
    with np.errstate(all="ignore"):  # a divergence of path values that are not masses is NaN
        w = rule.kernel_many(*scenario.draw_chunk(seed, 0, k))
    assert np.shape(w) == (k,), (rule, model, dist)


# ---------------------------------------------------------------------------
# Rule config forms


NUM = st.floats(-1e6, 1e6, allow_nan=False)
LABEL = st.one_of(st.integers(-5, 5), st.text("abc", min_size=1, max_size=3))
FN_NAMES = st.sampled_from(sorted(_REGISTRY))


@st.composite
def rule_docs(draw, depth=0, hard=False):
    kinds = ["always_true", "always_false", "threshold", "binned", "interval", "set_membership", "in_region",
             "gamma_epsilon", "epsilon_beta"]
    kinds += [] if hard else ["soft_exponential"]
    kinds += ["and", "or", "not"] if depth < 2 else []
    kind = draw(st.sampled_from(kinds))
    if kind in ("always_true", "always_false"):
        return {"type": kind}
    if kind == "threshold":
        return {"type": "threshold", "fn": draw(FN_NAMES), "eps": draw(NUM)}
    if kind == "binned":
        doc = {"type": "threshold", "fn": "binned_prob_diff", "eps": draw(NUM)}
        return {**doc, "bins": draw(st.integers(1, 40))} if draw(st.booleans()) else doc
    if kind == "interval":
        lo, hi = sorted((draw(NUM), draw(NUM)))
        return {"type": "interval", "fn": draw(FN_NAMES), "lo": lo, "hi": hi}
    if kind == "soft_exponential":
        return {"type": kind, "fn": draw(FN_NAMES), "eps_prime": draw(NUM), "rate": draw(st.floats(1e-3, 1e3))}
    if kind == "set_membership":
        keys = st.text("xyz", min_size=1, max_size=2)
        return {"type": kind, "synonyms": draw(st.dictionaries(keys, st.lists(LABEL, max_size=3), max_size=3))}
    if kind == "in_region":
        region = {"kind": "set", "level": draw(st.floats(0.01, 1.0))}
        if draw(st.booleans()):
            region["labels"] = draw(st.lists(LABEL, min_size=1, max_size=3))
        else:
            edges = sorted(draw(st.lists(NUM, min_size=2, max_size=6, unique=True)))
            region["intervals"] = [edges[i : i + 2] for i in range(0, len(edges) - 1, 2)]
            if len(region["intervals"]) == 1:
                region["kind"] = "interval"
        return {"type": kind, "side": draw(st.sampled_from(["model", "data"])), "region": region}
    if kind == "gamma_epsilon":
        eps = draw(st.one_of(st.floats(0.0, 10.0), st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4)))
        return {"type": kind, "gamma": draw(UNIT), "eps": eps, "m": draw(st.floats(1.0, 10.0))}
    if kind == "epsilon_beta":
        n = draw(st.integers(1, 4))
        lo = [draw(NUM) for _ in range(n)]
        hi = [x + draw(st.floats(0.0, 5.0)) for x in lo]
        c_lo, c_hi = sorted((draw(UNIT), draw(UNIT)))
        return {"type": kind, "mean_tol": draw(NUM), "coverage_lo": c_lo, "coverage_hi": c_hi,
                "band": {"lo": lo, "hi": hi}}
    if kind == "not":
        return {"type": "not", "child": draw(rule_docs(depth + 1, hard=True))}
    return {"type": kind, "children": draw(st.lists(rule_docs(depth + 1, hard), min_size=1, max_size=3))}


@_settings(150)
@given(doc=rule_docs())
def test_rule_config_round_trip_is_a_fixed_point(doc):
    once = rule_to_config(rule_from_config(doc))
    assert rule_to_config(rule_from_config(once)) == once
    assert json.loads(json.dumps(once)) == once


# ---------------------------------------------------------------------------
# Reliability: the closed forms against Monte Carlo

TOLERANCE = st.one_of(st.just(0.0), st.floats(0.0, 6.0))


def _assert_near_monte_carlo(model, data, eps, seed):
    p = reliability(model, data, eps)
    assert p.method == "closedForm"
    mc = estimate_bvm_mc(Scenario(model, data, Threshold("abs_diff", eps)), N_DRAWS, seed).p_hat
    bound = 5.0 * math.sqrt(p.p_hat * (1.0 - p.p_hat) / N_DRAWS) + 1.0 / N_DRAWS
    assert abs(mc - p.p_hat) <= bound, (model, data, eps, p.p_hat, mc)


NORMAL_LIKE = st.one_of(
    st.builds(Normal, REAL, st.floats(0.05, 3.0)),
    st.builds(DiracDelta, st.one_of(ATOM, REAL)),
)


@_settings(200)
@given(model=NORMAL_LIKE, data=NORMAL_LIKE, eps=TOLERANCE, seed=st.integers(0, 2**32 - 1))
def test_normal_difference_reliability_matches_monte_carlo(model, data, eps, seed):
    _assert_near_monte_carlo(model, data, eps, seed)


CONTINUOUS = st.one_of(
    st.builds(StudentT, REAL, st.floats(1.0, 30.0), st.floats(0.1, 3.0)),
    st.builds(lambda lo, width: Uniform(lo, lo + width), REAL, st.floats(0.01, 5.0)),
    st.builds(ShiftedExponential, st.floats(0.2, 5.0), REAL),
)


@_settings(200)
@given(
    value=st.one_of(ATOM, REAL),
    other=CONTINUOUS,
    certain_model=st.booleans(),
    eps=TOLERANCE,
    seed=st.integers(0, 2**32 - 1),
)
def test_certain_vs_continuous_reliability_matches_monte_carlo(value, other, certain_model, eps, seed):
    pair = (DiracDelta(value), other) if certain_model else (other, DiracDelta(value))
    _assert_near_monte_carlo(*pair, eps, seed)


# ---------------------------------------------------------------------------
# Sweeps: counting only the errors a gamma can read changes no bit


def _table_template(table, data):
    """A sweep template whose paths are the rows of ``table``: its one
    parameter is a row index, which the grid estimator spreads over
    0..rows-1 and an "mc" draw rounds to the nearest row."""
    rows = table.shape[0]

    def fn(theta, x):
        return table[np.clip(np.rint(theta[:, 0]).astype(int), 0, rows - 1)]

    prior = DiracDelta(0.0) if rows == 1 else Normal((rows - 1) / 2, (rows - 1) / 6)
    grid = InputGrid.linspace(0.0, 1.0, table.shape[1])
    return SweepTemplate(PushForward(prior, ModelFunction("table", ("row",), fn), grid), data, points_per_param=rows)


def _assert_sweep_equals_a_count_of_every_error(data, seed):
    n = data.draw(st.sampled_from([50, 7, 300, 2, 1]))
    rows = data.draw(st.integers(1, 12))
    rng = np.random.default_rng(seed)
    # Quarter steps off a quarter-step data path make many errors equal.
    data_path = rng.integers(-4, 5, n) * 0.25
    table = data_path + np.where(
        rng.random((rows, n)) < data.draw(UNIT),
        rng.integers(-4, 5, (rows, n)) * 0.25,
        rng.normal(0.0, 0.5, (rows, n)),
    )
    special = rng.random((rows, n)) < data.draw(st.sampled_from([0.0, 0.02, 0.3, 0.9]))
    table[special] = rng.choice([np.nan, np.inf, -np.inf], special.sum())
    errors = np.abs(table - data_path)

    gammas = data.draw(
        st.lists(
            st.one_of(
                st.sampled_from([-0.5, 0.0, 1.0]),
                st.floats(0.0, 1.0),
                st.floats(1.0, 2.0, exclude_min=True),
                st.integers(0, n).map(lambda c: c / n),
            ),
            min_size=1,
            max_size=5,
        )
    )
    if data.draw(st.booleans()):
        # Every gamma at or above a floor past one half, so that every need
        # reads an error from the upper half of a sorted path.
        floor = data.draw(st.integers(n // 2 + 1, n + 1)) / n
        gammas = [g for g in gammas if g >= floor] + [floor]
    eps_values = st.one_of(st.floats(-0.5, 2.0), st.just(np.inf))
    finite = errors[np.isfinite(errors)].tolist()
    if finite:
        eps_values = st.one_of(eps_values, st.sampled_from(finite))
    epsilons = data.draw(st.lists(eps_values, min_size=1, max_size=8))
    epsilons += epsilons[: data.draw(st.integers(0, len(epsilons)))]
    m = data.draw(st.floats(1.0, 6.0))
    estimator = data.draw(st.sampled_from(["grid", "mc"]))
    k = data.draw(st.integers(1, 300))

    template = _table_template(table, data_path)
    grid = sweep(template, gammas, epsilons, m=m, estimator=estimator, k=k, seed=seed)
    _, weights, blocks = _path_blocks(template, estimator, k, seed)
    paths = np.concatenate(list(blocks))
    assert_equals_direct_count(grid, paths, weights, data_path, gammas, epsilons, m)


@_settings(150)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_sweep_equals_a_count_of_every_error(data, seed):
    _assert_sweep_equals_a_count_of_every_error(data, seed)


@_settings(100)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_sweep_sums_carry_over_from_block_to_block(data, seed):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "SWEEP_BLOCK", 3)
        _assert_sweep_equals_a_count_of_every_error(data, seed)


# ---------------------------------------------------------------------------
# Model bands and oscillator tiles


def _band_model(data, rng):
    """A path distribution and, per point, whether its values hold both
    -0.0 and +0.0."""
    n_points = data.draw(st.integers(1, 9))
    if data.draw(st.booleans()):
        prior = IndependentProduct([Normal(m, 0.3) for m in (1.0, 1.0, 1.0, 10.0, 1.0, 10.0)])
        grid = InputGrid.linspace(0.0, 1.0, n_points)
        return PushForward(prior, damped_oscillator_model(), grid), np.zeros(n_points, dtype=bool)
    rows = data.draw(st.integers(1, 30))
    samples = rng.normal(0.0, 1.0, (rows, n_points))
    if data.draw(st.booleans()):
        samples = np.round(samples)  # ties between draws
    for j in range(n_points):
        plant = data.draw(st.sampled_from(["none", "nan", "inf", "-inf", "zeros", "one"]))
        if plant == "zeros":
            samples[:, j] = rng.choice([-0.0, 0.0], rows)
        elif plant == "one":
            samples[rng.integers(rows), j] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        elif plant != "none":
            samples[:, j] = float(plant)
    zeros = samples == 0.0
    mixed = (zeros & np.signbit(samples)).any(axis=0) & (zeros & ~np.signbit(samples)).any(axis=0)
    return Empirical(samples), mixed


@_settings(60)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_streamed_band_equals_the_quantiles_of_all_paths(data, seed):
    rng = np.random.default_rng(seed)
    model, mixed = _band_model(data, rng)
    n = data.draw(
        st.one_of(
            st.sampled_from([3 * CHUNK_SIZE + 1, 100, CHUNK_SIZE, CHUNK_SIZE + 1, 2 * CHUNK_SIZE + 3]),
            st.integers(100, 3 * CHUNK_SIZE + 1),
        )
    )
    level = data.draw(st.one_of(st.sampled_from([0.95, 1.0, 0.5, 0.99, 1e-9]), st.floats(0.0, 1.0, exclude_min=True)))
    band_seed = data.draw(st.integers(0, 50))
    doc = {"type": "epsilon_beta", "mean_tol": 1.0, "band": {"source": "model", "level": level, "samples": n, "seed": band_seed}}
    a = (1.0 - level) / 2.0
    with np.errstate(invalid="ignore"):
        got = rule_from_config(doc, model).band
        expected = np.quantile(model.sample(band_seed, n, BAND_STREAM), [a, 1.0 - a], axis=0)
    for g, e in zip(got, expected):
        assert g[~mixed].tobytes() == e[~mixed].tobytes()
        assert np.array_equal(g[mixed], e[mixed], equal_nan=True)


@_settings(40)
@given(
    points=st.sampled_from([1, 7, 100, 193, 1000]),
    rows=st.sampled_from(["one", "tile-1", "tile", "tile+1", "chunk"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_tiled_oscillator_equals_the_one_pass_expression(points, rows, seed):
    tile = max(1, OSCILLATOR_TILE // points)
    k = {"one": 1, "tile-1": max(1, tile - 1), "tile": tile, "tile+1": tile + 1, "chunk": CHUNK_SIZE}[rows]
    rng = np.random.default_rng(seed)
    theta = rng.normal([1.0, 1.0, 1.0, 10.0, 1.0, 10.0], 0.5, (k, 6))
    x = np.linspace(0.0, 1.0, points)
    a, b, c, d, f, g = (theta[:, i : i + 1] for i in range(6))
    expected = a + b * x * np.exp(-c * np.cos(d * x)) + f * np.sin(g * x)
    got = damped_oscillator_model().evaluate(theta, InputGrid(x))
    assert got.tobytes() == expected.tobytes()


TILED_ERRORS = {
    "mean": (lambda yhat, y, eps: mean_abs_error(yhat, y), lambda err, eps: np.mean(err, axis=-1)),
    "max": (lambda yhat, y, eps: max_abs_error(yhat, y), lambda err, eps: np.max(err, axis=-1)),
    "within": (fraction_within, lambda err, eps: np.mean(err <= eps, axis=-1)),
}


@_settings(60)
@given(
    points=st.sampled_from([1, 7, 100, 193, 1000]),
    rows=st.sampled_from(["one", "tile-1", "tile", "tile+1", "chunk"]),
    shapes=st.sampled_from(["batch-batch", "batch-path", "path-batch", "path-path", "row-batch"]),
    fn=st.sampled_from(sorted(TILED_ERRORS)),
    per_point_eps=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_tiled_path_errors_equal_the_one_pass_expression(points, rows, shapes, fn, per_point_eps, seed):
    tile = max(1, OSCILLATOR_TILE // points)
    k = {"one": 1, "tile-1": max(1, tile - 1), "tile": tile, "tile+1": tile + 1, "chunk": CHUNK_SIZE}[rows]
    rng = np.random.default_rng(seed)

    def paths(kind):
        out = rng.normal(0.0, 1.0, {"batch": (k, points), "row": (1, points), "path": points}[kind])
        flat = out.reshape(-1)
        flat[rng.integers(0, flat.size, 3)] = [np.nan, np.inf, -np.inf]
        return out

    yhat, y = (paths(kind) for kind in shapes.split("-"))
    eps = rng.uniform(0.0, 2.0, points) if per_point_eps else 0.7
    tiled, one_pass = TILED_ERRORS[fn]
    with np.errstate(invalid="ignore"):  # inf - inf
        expected = one_pass(np.abs(yhat - y), eps)
        got = tiled(yhat, y, eps)
    assert got.tobytes() == np.asarray(expected).tobytes()


@_settings(20)
@given(
    points=st.sampled_from([9, 100, 193, 1000]),
    rows=st.sampled_from([1, 2, 5, 40]),
    fn=st.sampled_from(sorted(TILED_ERRORS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_tiled_path_errors_of_a_row_do_not_depend_on_its_batch(points, rows, fn, seed):
    # Fortran-ordered paths, as a model may return them: a row's error in a
    # few-row slice equals its error in the whole chunk and the one-pass
    # expression on C-ordered paths, byte for byte.
    rng = np.random.default_rng(seed)
    yhat, y = (np.asfortranarray(rng.normal(0.0, 1.0, (CHUNK_SIZE, points))) for _ in range(2))
    yhat[rng.integers(0, CHUNK_SIZE, 3), rng.integers(0, points, 3)] = [np.nan, np.inf, -np.inf]
    start = int(rng.integers(0, CHUNK_SIZE - rows + 1))
    tiled, one_pass = TILED_ERRORS[fn]
    with np.errstate(invalid="ignore"):  # inf - inf
        whole = tiled(yhat, y, 0.7)
        part = tiled(yhat[start : start + rows], y[start : start + rows], 0.7)
        expected = one_pass(np.abs(np.ascontiguousarray(yhat) - np.ascontiguousarray(y)), 0.7)
    assert whole.tobytes() == expected.tobytes()
    assert part.tobytes() == whole[start : start + rows].tobytes()


@pytest.mark.parametrize("per_point_eps", [False, True], ids=["scalar-eps", "per-point-eps"])
@pytest.mark.parametrize("data", ["batch", "path"])
@pytest.mark.parametrize("rows", ["one", "tile-1", "tile", "tile+1", "chunk"])
@pytest.mark.parametrize("points", [7, 100, 193])
def test_tiled_gamma_epsilon_equals_the_one_pass_expression(points, rows, data, per_point_eps):
    tile = max(1, OSCILLATOR_TILE // points)
    k = {"one": 1, "tile-1": max(1, tile - 1), "tile": tile, "tile+1": tile + 1, "chunk": CHUNK_SIZE}[rows]
    rng = np.random.default_rng([points, k])
    y = rng.normal(0.0, 1.0, (k, points) if data == "batch" else points)
    yhat = y + rng.normal(0.0, 0.3, (k, points))
    yhat.reshape(-1)[rng.integers(0, yhat.size, 3)] = [np.nan, np.inf, -np.inf]
    eps = rng.uniform(0.4, 1.0, points) if per_point_eps else 0.7
    rule = GammaEpsilon(gamma=0.95, eps=eps, m=2.0)
    with np.errstate(invalid="ignore"):  # inf - inf
        err = np.abs(yhat - y)
        expected = ((np.mean(err <= eps, axis=-1) >= 0.95) & np.all(err <= 2.0 * np.asarray(eps), axis=-1)).astype(float)
        got = rule.kernel_many(yhat, y)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("data", ["batch", "path"])
@pytest.mark.parametrize("rows", ["one", "tile-1", "tile", "tile+1", "chunk"])
@pytest.mark.parametrize("points", [7, 100, 193])
def test_tiled_epsilon_beta_equals_the_one_pass_expression(points, rows, data):
    tile = max(1, OSCILLATOR_TILE // points)
    k = {"one": 1, "tile-1": max(1, tile - 1), "tile": tile, "tile+1": tile + 1, "chunk": CHUNK_SIZE}[rows]
    rng = np.random.default_rng([points, k, 1])
    y = rng.normal(0.0, 1.0, (k, points) if data == "batch" else points)
    yhat = y + rng.normal(0.0, 0.3, (k, points))
    for paths in (yhat, y):
        paths.reshape(-1)[rng.integers(0, paths.size, 3)] = [np.nan, np.inf, -np.inf]
    lo, hi = -rng.uniform(1.0, 2.0, points), rng.uniform(1.0, 2.0, points)
    rule = EpsilonBeta(0.25, (lo, hi), coverage_lo=0.8, coverage_hi=0.95)
    with np.errstate(invalid="ignore"):  # inf - inf
        mean_ok = np.mean(np.abs(yhat - y), axis=-1) <= 0.25
        cov = np.mean((y >= lo) & (y <= hi), axis=-1)
        expected = (mean_ok & (cov >= 0.8) & (cov <= 0.95)).astype(float)
        got = rule.kernel_many(yhat, y)
    assert got.tobytes() == expected.tobytes()
