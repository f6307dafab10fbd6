"""Comparison value functions against hand values and brute-force oracles."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from bvm.comparison import (
    _REGISTRY,
    BinnedPdf,
    ComparisonFn,
    abs_diff,
    area_metric,
    area_metric_many,
    binned_prob_diff,
    coverage_fraction,
    divergence,
    ecdf,
    fraction_within,
    get_comparison_fn,
    hellinger,
    js_divergence,
    kl_divergence,
    max_abs_error,
    mean_abs_error,
    symmetrized_kl,
)


class TestPathErrors:
    def test_mean_abs_error_hand_values(self):
        assert mean_abs_error([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mean_abs_error([0.0, 0.0], [1.0, 3.0]) == 2.0

    def test_mean_abs_error_leaves_its_inputs_unchanged(self):
        yhat, y = np.linspace(-2.0, 2.0, 12).reshape(3, 4), np.full(4, 0.5)
        assert mean_abs_error(yhat, y).tobytes() == np.mean(np.abs(yhat - y), axis=-1).tobytes()
        assert yhat.tobytes() == np.linspace(-2.0, 2.0, 12).reshape(3, 4).tobytes()
        assert y.tobytes() == np.full(4, 0.5).tobytes()

    def test_translation(self):
        y = np.linspace(-2, 5, 17)
        assert mean_abs_error(y + 0.7, y) == pytest.approx(0.7)
        assert max_abs_error(y - 1.3, y) == pytest.approx(1.3)

    def test_max_abs_error_hand_values(self):
        assert max_abs_error([3.0], [3.0]) == 0.0
        assert max_abs_error([0.0, 7.0], [0.0, 0.0]) == 7.0
        assert max_abs_error([1.0, -1.0], [0.0, 0.0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mean_abs_error([1.0], [1.0, 2.0])

    def test_mean_never_exceeds_max(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.normal(size=(2, 13))
            assert mean_abs_error(a, b) <= max_abs_error(a, b) + 1e-15

    def test_fraction_within_hand_values(self):
        y = np.zeros(50)
        yhat = np.zeros(50)
        assert fraction_within(yhat, y, 0.0) == 1.0
        yhat2 = yhat.copy()
        yhat2[7] = 0.2  # one point at 2 eps
        assert fraction_within(yhat2, y, 0.1) == pytest.approx(0.98)
        assert fraction_within(np.full(5, 0.2), np.zeros(5), 0.1) == 0.0

    def test_fraction_within_monotone_in_eps(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2, 40))
        fracs = [fraction_within(a, b, e) for e in np.linspace(0, 3, 31)]
        assert all(f2 >= f1 for f1, f2 in zip(fracs, fracs[1:]))

    def test_coverage_fraction(self):
        y = np.array([0.0, 1.0, 2.0, 3.0])
        wide = (y - 1.0, y + 1.0)
        assert coverage_fraction(y, wide) == 1.0
        half = (np.array([-0.5, 0.5, 2.5, 3.5]), np.array([0.5, 1.5, 2.2, 4.0]))
        assert coverage_fraction(y, half) == 0.5
        zero_width = (y + 0.01, y + 0.01)
        assert coverage_fraction(y, zero_width) == 0.0


class TestEcdf:
    def test_single_sample_step(self):
        f = ecdf([3.0])
        assert f(2.999) == 0.0
        assert f(3.0) == 1.0

    def test_order_statistics(self):
        f = ecdf([1, 2, 2, 4])
        assert f(2.0) == 0.75
        assert f(0.0) == 0.0
        assert f(100.0) == 1.0

    def test_limits(self):
        f = ecdf(np.random.default_rng(2).normal(size=50))
        assert f(-np.inf) == 0.0
        assert f(np.inf) == 1.0


class TestAreaMetric:
    def test_identical_is_zero(self):
        x = np.random.default_rng(3).normal(size=30)
        assert area_metric(ecdf(x), ecdf(x)) == 0.0

    def test_unit_translation_of_point_mass(self):
        assert area_metric(ecdf([0.0]), ecdf([1.0])) == 1.0

    def test_sorted_difference_identity_equal_sizes(self):
        # 1-d transport oracle: for equal sample counts the area equals
        # the mean absolute difference of the sorted samples.
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = rng.normal(size=10)
            b = rng.normal(1.0, 2.0, size=10)
            oracle = np.mean(np.abs(np.sort(a) - np.sort(b)))
            assert area_metric(ecdf(a), ecdf(b)) == pytest.approx(oracle, rel=1e-12)

    def test_matches_scipy_transport_distance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.normal(size=rng.integers(2, 20))
            b = rng.normal(size=rng.integers(2, 20))
            assert area_metric(ecdf(a), ecdf(b)) == pytest.approx(
                stats.wasserstein_distance(a, b), rel=1e-10
            )

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=(2, 9))
        assert area_metric(ecdf(a), ecdf(b)) == area_metric(ecdf(b), ecdf(a))


def _area_by_x_breakpoints(a, b):
    # Reference: sum |F1 - F2| over the gaps of the merged sample values.
    f1, f2 = ecdf(a), ecdf(b)
    breaks = np.union1d(f1.xs, f2.xs)
    left = breaks[:-1]
    return float(np.sum(np.abs(f1(left) - f2(left)) * np.diff(breaks)))


class TestAreaMetricMany:
    @pytest.mark.parametrize("a, b", [(50, 50), (13, 29), (29, 13), (37, 37), (1, 1), (1, 7)])
    def test_matches_per_row_reference(self, a, b):
        rng = np.random.default_rng(a * 100 + b)
        xm = rng.normal(size=a)
        pool = rng.normal(0.3, 1.4, size=b)
        # Bootstrap rows: resampling with replacement makes ties.
        rows = pool[rng.integers(0, b, (40, b))]
        got = area_metric_many(xm, rows)
        assert got.shape == (40,)
        for row, area in zip(rows, got):
            ref = _area_by_x_breakpoints(xm, row)
            assert area == pytest.approx(ref, rel=1e-12, abs=1e-300)
            assert area_metric(xm, row) == area

    def test_rows_equal_to_the_sample_give_exact_zero(self):
        x = np.random.default_rng(7).normal(size=23)
        rows = np.stack([x, x[::-1], np.roll(x, 5)])
        assert np.array_equal(area_metric_many(x, rows), np.zeros(3))
        assert area_metric(x, x) == 0.0

    def test_empty_or_flat_input_rejected(self):
        with pytest.raises(ValueError):
            area_metric_many([], np.zeros((2, 3)))
        with pytest.raises(ValueError):
            area_metric_many([1.0], np.zeros(3))


class TestBinnedPdf:
    def test_mass_validation(self):
        with pytest.raises(ValueError):
            BinnedPdf([0, 1, 2], [0.6, 0.5])
        with pytest.raises(ValueError):
            BinnedPdf([0, 1], [1.0, 0.0])

    def test_from_samples(self):
        pdf = BinnedPdf.from_samples(np.random.default_rng(7).normal(size=5000), 32)
        assert pdf.masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert pdf.masses.size == 32

    def test_midpoints_are_the_centres_of_the_bins(self):
        # comparison_density reads a rule at these points.
        pdf = BinnedPdf([-1.0, 0.0, 0.5, 2.0], [0.25, 0.25, 0.5])
        assert pdf.midpoints().tolist() == [-0.5, 0.25, 1.25]

    def test_binned_prob_diff_hand_values(self):
        p = BinnedPdf([0, 1, 2], [0.5, 0.5])
        q = BinnedPdf([0, 1, 2], [0.25, 0.75])
        assert binned_prob_diff(p, p) == 0.0
        assert binned_prob_diff(p, q) == pytest.approx(0.5)

    def test_disjoint_supports_double(self):
        p = BinnedPdf([0, 1, 2], [1.0, 0.0])
        q = BinnedPdf([0, 1, 2], [0.0, 1.0])
        assert binned_prob_diff(p, q) == 2.0

    def test_edge_mismatch(self):
        with pytest.raises(ValueError):
            binned_prob_diff(BinnedPdf([0, 1, 2], [0.5, 0.5]), BinnedPdf([0, 1, 3], [0.5, 0.5]))


class TestDivergences:
    def test_zero_on_equal(self):
        p = np.array([0.2, 0.3, 0.5])
        for kind in ("kl", "sym_kl", "js", "hellinger"):
            assert divergence(kind, p, p) == 0.0

    def test_kl_hand_value(self):
        # 0.5 ln 2 + 0.5 ln(2/3), evaluated by hand.
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.14384, abs=1e-5)

    def test_kl_zero_times_log_zero(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0))

    def test_kl_infinite_on_missing_support(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_kl_with_a_subnormal_mass_does_not_overflow(self):
        # 0.5 / 1e-310 overflows; the divergence is 356.2..., not inf.
        p, q = [0.5, 0.5], [1 - 1e-310, 1e-310]
        forward = sum(a * (math.log(a) - math.log(b)) for a, b in zip(p, q))
        backward = sum(b * (math.log(b) - math.log(a)) for a, b in zip(p, q))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kl_divergence(p, q) == pytest.approx(356.2075422335172, rel=1e-12)
            assert kl_divergence(p, q) == pytest.approx(forward, rel=1e-12)
            assert symmetrized_kl(p, q) == pytest.approx(forward + backward, rel=1e-12)

    def test_js_bounded_by_ln2(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            assert 0.0 <= js_divergence(p, q) <= math.log(2.0) + 1e-12
        assert js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.log(2.0))

    def test_hellinger_convention(self):
        # H^2 = 1 - sum sqrt(p q); check against direct evaluation.
        p = np.array([0.1, 0.9])
        q = np.array([0.6, 0.4])
        expected = math.sqrt(1.0 - (math.sqrt(0.06) + math.sqrt(0.36)))
        assert hellinger(p, q) == pytest.approx(expected, rel=1e-12)
        assert hellinger([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_nonnegative_and_symmetric_fns(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            for kind in ("sym_kl", "js", "hellinger"):
                a, b = divergence(kind, p, q), divergence(kind, q, p)
                assert a >= 0.0
                assert a == pytest.approx(b, rel=1e-10)


def _mass_rows(rng, m, bins):
    """Stacked mass pairs with zero-mass bins, rows where q misses p's
    support (KL = inf), and equal rows (which have zero-mass bins too)."""
    p = rng.dirichlet(np.ones(bins), m)
    q = rng.dirichlet(np.ones(bins), m)
    p[::3, : bins // 2] = 0.0
    q[1::3, -1] = 0.0
    p /= p.sum(axis=1, keepdims=True)
    q /= q.sum(axis=1, keepdims=True)
    q[::6] = p[::6]
    return p, q


def _registry_inputs(rng, name):
    """Stacked (model values, data values) batches a comparison reads."""
    m = 30
    if name in ("abs_diff", "sq_diff", "identity", "abs_value"):
        return [(rng.normal(size=m), rng.normal(size=m))]
    if name in ("mean_abs_error", "max_abs_error", "per_point_abs_error"):
        return [(rng.normal(size=(m, 7)), rng.normal(size=(m, 7)))]
    if name == "area_metric":
        samples = [(rng.normal(size=(m, a)), rng.normal(0.3, 1.2, size=(m, b))) for a, b in ((9, 9), (5, 13))]
        return samples + _scalar_sides(rng, m)
    if name.startswith("binned_prob_diff_"):
        zh, z = rng.normal(size=(m, 40)), rng.normal(0.4, 1.3, size=(m, 25))
        zh[0] = 2.5  # a constant row: all its mass in one bin
        zh[1], z[1] = -0.75, -0.75  # one value on both sides: a range of zero span, padded 1e-9
        # Values on the bin edges of the pooled range [0, 1], padded 1% to [-0.01, 1.01].
        edges = np.linspace(-0.01, 1.01, int(name.rpartition("_")[2]) + 1)
        on_edges = np.concatenate([[0.0, 1.0], edges[(edges >= 0.0) & (edges <= 1.0)]])
        zh[2], z[2] = np.resize(on_edges, 40), np.resize(on_edges[::-1], 25)
        one_value = rng.normal(size=m)
        return [(zh, z), (one_value, one_value.copy())] + _scalar_sides(rng, m)
    # Divergences: fewer than 8 bins, and enough for a pairwise sum.
    return [_mass_rows(rng, m, bins) for bins in (3, 8, 12)]


def _scalar_sides(rng, m):
    """Batches of a sample comparison with a 1-D side: one value per row,
    a sample of one."""
    return [(rng.normal(size=m), rng.normal(size=(m, 6))), (rng.normal(size=(m, 6)), rng.normal(size=m)),
            (rng.normal(size=m), rng.normal(size=m))]


def _binned_reference(a, b, bins):
    # Per-row np.histogram over the pooled range padded 1%; a scalar is a
    # sample of one.
    a, b = np.atleast_1d(a, b)
    pooled = np.concatenate([a, b])
    span = pooled.max() - pooled.min()
    pad = 0.01 * span if span > 0 else 1e-9
    rng_ = (pooled.min() - pad, pooled.max() + pad)
    pa = np.histogram(a, bins, rng_)[0] / a.size
    pb = np.histogram(b, bins, rng_)[0] / b.size
    return float(np.sum(np.abs(pa - pb)))


class TestRegistry:
    def test_batch_matches_pairwise(self):
        # Every registry entry, plus binned_prob_diff at 1, 8, 16 and 33 bins:
        # each batch row is bit-equal to the pair computation on that row,
        # and a binned row to a per-row np.histogram, on constant rows,
        # values on bin edges and 1-D sides (a scalar is a sample of one).
        fns = {name: (get_comparison_fn(name), None) for name in _REGISTRY}
        for bins in (1, 8, 16, 33):
            fns[f"binned_prob_diff_{bins}"] = (get_comparison_fn("binned_prob_diff", bins=bins), bins)
        rng = np.random.default_rng(10)
        for name, (fn, bins) in fns.items():
            for zh, z in _registry_inputs(rng, name):
                batch = fn.on_batch(zh, z)
                assert batch.shape[0] == len(zh)
                for i, (a, b) in enumerate(zip(zh, z)):
                    assert np.array_equal(np.asarray(fn.pair(a, b)), batch[i]), (name, i)
                if bins is not None:
                    ref = [_binned_reference(a, b, bins) for a, b in zip(zh, z)]
                    assert np.array_equal(batch, ref), name

    def test_divergence_batches_keep_the_conventions(self):
        p, q = _mass_rows(np.random.default_rng(13), 30, 12)
        assert np.all(np.isinf(kl_divergence(p, q)[1::3]))
        for kind in ("kl", "sym_kl", "js", "hellinger"):
            values = divergence(kind, p, q)
            assert values.shape == (30,)
            assert np.all(values[::6] == 0.0)
            assert np.all(values >= 0.0)

    def test_area_batch_needs_one_model_sample_per_row(self):
        with pytest.raises(ValueError):
            area_metric_many(np.zeros((3, 4)), np.zeros((2, 4)))

    def test_symmetric_flags_hold(self):
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=(2, 6))
        for name in ("abs_diff", "sq_diff", "mean_abs_error", "max_abs_error", "area_metric"):
            fn = get_comparison_fn(name)
            assert np.allclose(np.asarray(fn.pair(a, b)), np.asarray(fn.pair(b, a)))

    def test_every_entry_says_how_it_reads_the_two_sides(self):
        reads = {name: fn.reads for name, fn in _REGISTRY.items()}
        assert set(reads.values()) == {"values", "paths", "model", "samples"}
        assert {name for name, r in reads.items() if r not in ("values", "paths")} == {"identity", "abs_value", "area_metric"}
        # The path errors and the divergences reduce two paths (or mass vectors) to one value.
        assert {name for name, r in reads.items() if r == "paths"} == {
            "mean_abs_error", "max_abs_error", "kl", "kl_divergence", "sym_kl", "symmetrized_kl", "js", "js_divergence",
            "hellinger",
        }
        assert get_comparison_fn("binned_prob_diff", bins=4).reads == "samples"

    def test_the_old_positional_form_raises(self):
        # ComparisonFn(name, pair, batch) would take the batch for `reads`.
        with pytest.raises(ValueError, match="reads 'values', 'paths', 'model' or 'samples'"):
            ComparisonFn("abs_diff", abs_diff, abs_diff)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_comparison_fn("nope")

    def test_binned_prob_diff_fn_on_paths(self):
        fn = get_comparison_fn("binned_prob_diff", bins=8)
        rng = np.random.default_rng(12)
        a = rng.normal(size=200)
        assert fn.pair(a, a) == 0.0
        b = rng.normal(3.0, 1.0, size=200)
        assert 0.0 < fn.pair(a, b) <= 2.0

    def test_binned_prob_diff_fn_checks_its_inputs(self):
        with pytest.raises(ValueError, match="at least one bin"):
            get_comparison_fn("binned_prob_diff", bins=0)
        fn = get_comparison_fn("binned_prob_diff", bins=8)
        with pytest.raises(ValueError, match="row counts differ: 3 vs 2"):
            fn.batch(np.zeros((3, 5)), np.zeros((2, 5)))
