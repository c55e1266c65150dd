import math

import numpy as np
import pytest

from pianist_id import densities
from pianist_id.densities import (
    DEFAULT_BANDWIDTHS,
    GMM,
    KDE,
    Histogram,
    fit_gmm,
    fit_gmm_trace,
    fit_histogram,
    fit_kde,
    gmm_pdf,
    histogram_pdf,
    kde_pdf,
    kernel_sum,
)


def integrate_pdf(pdf, mean, stddev, n=4096):
    xs = np.linspace(mean - 10 * stddev, mean + 10 * stddev, n)
    return float(np.trapezoid(pdf(xs), xs))


class TestHistogram:
    def test_symmetric_two_bin_split(self):
        h = fit_histogram(np.asarray([0.0, 0.0, 1.0, 1.0]), n_bins=2)
        assert h.masses == pytest.approx([0.5, 0.5], abs=1e-8)
        assert h.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_series_is_a_single_spike(self):
        h = fit_histogram(np.full(10, 3.25), n_bins=5)
        assert h.masses.max() == pytest.approx(1.0, abs=1e-6)
        assert np.all(h.masses > 0)

    def test_uniform_law_of_large_numbers(self):
        rng = np.random.default_rng(123)
        h = fit_histogram(rng.uniform(0.0, 1.0, size=100_000), n_bins=10)
        assert np.all(np.abs(h.masses - 0.1) < 0.02)

    def test_all_values_positive_after_smoothing(self):
        h = fit_histogram(np.asarray([0.0, 10.0]), n_bins=50)
        assert np.all(h.masses > 0)

    def test_pdf_integrates_to_one(self):
        rng = np.random.default_rng(7)
        values = rng.normal(2.0, 0.7, size=500)
        h = fit_histogram(values, n_bins=30)
        widths = np.diff(h.edges)
        assert float((h.masses / widths * widths).sum()) == pytest.approx(1.0, abs=1e-12)
        assert histogram_pdf(h, float(values[0])) >= 0.0
        assert histogram_pdf(h, 1e9) == 0.0

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            fit_histogram(np.asarray([]))


class TestKde:
    def test_single_sample_standard_normal_peak(self):
        k = fit_kde(np.asarray([0.0]), bandwidth=1.0)
        assert kde_pdf(k, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)
        assert kde_pdf(k, 0.0) == pytest.approx(0.39894, abs=5e-6)

    def test_symmetric_about_sample_mean(self):
        k = fit_kde(np.asarray([-1.0, 1.0]), bandwidth=0.5)
        xs = np.asarray([0.25, 0.5, 1.75])
        assert kde_pdf(k, xs) == pytest.approx(kde_pdf(k, -xs))

    def test_default_bandwidths_pinned_per_kind(self):
        assert DEFAULT_BANDWIDTHS == {
            "OT": 1.2,
            "IOI": 0.01,
            "OTD": 0.02,
            "DL": 1.5,
            "ND": 0.01,
        }

    def test_non_positive_bandwidth_rejected(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                fit_kde(np.asarray([1.0]), bandwidth=bad)
            with pytest.raises(ValueError, match="positive and finite"):
                KDE(sample_points=np.asarray([1.0]), bandwidth=bad)

    def test_pdf_integrates_to_one(self):
        rng = np.random.default_rng(11)
        values = rng.normal(0.0, 1.0, size=400)
        k = fit_kde(values, bandwidth=0.2)
        total = integrate_pdf(
            lambda xs: np.asarray(kde_pdf(k, xs)), values.mean(), values.std() + k.bandwidth
        )
        assert total == pytest.approx(1.0, abs=1e-3)


    def test_kernel_sum_chunks_change_no_bit(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(size=3000)
        xs = np.linspace(-4.0, 4.0, 700)  # 2.1M grid x sample elements: several chunks
        z = (xs[:, None] - samples[None, :]) / 0.3
        assert np.array_equal(kernel_sum(samples, 0.3, xs), np.exp(-0.5 * z * z).sum(axis=1))

    @pytest.mark.parametrize("bounds", [None, (400, 100)])
    def test_each_stacked_row_equals_its_lone_kernel_sum_bit_for_bit(self, monkeypatch, bounds):
        if bounds:  # 50-point rows: a 3-sample row batches, a 20-sample row's grid is chunked
            monkeypatch.setattr(densities, "KERNEL_BATCH", bounds[0])
            monkeypatch.setattr(densities, "KERNEL_CHUNK", bounds[1])
        rng = np.random.default_rng(3)
        xs = np.linspace(-3.0, 3.0, 50)
        for n in (0, 1, 3, 8, 20, 200):  # 200 samples exceed the default batch bound
            stack = rng.normal(size=(7, n))
            sums = kernel_sum(stack, 0.4, xs)
            assert sums.shape == (7, 50)
            for row, lone in zip(stack, sums):
                z = (xs[:, None] - row[None, :]) / 0.4
                assert lone.tobytes() == kernel_sum(row, 0.4, xs).tobytes()
                assert lone.tobytes() == np.exp(-0.5 * z * z).sum(axis=1).tobytes()
        assert not kernel_sum(np.empty((2, 0)), 0.4, xs).any()


class TestGmm:
    def test_k1_closed_form(self):
        rng = np.random.default_rng(3)
        values = rng.normal(1.5, 0.4, size=200)
        g = fit_gmm(values, k=1, seed=0)
        assert g.weights == pytest.approx([1.0])
        assert g.means[0] == pytest.approx(values.mean(), abs=1e-9)
        assert g.variances[0] == pytest.approx(values.var(), abs=1e-9)

    def test_recovers_two_well_separated_clusters(self):
        rng = np.random.default_rng(9)
        values = np.concatenate(
            [rng.normal(0.0, 0.1, size=1000), rng.normal(10.0, 0.1, size=1000)]
        )
        g = fit_gmm(values, k=2, seed=4)
        means = np.sort(g.means)
        assert means == pytest.approx([0.0, 10.0], abs=0.05)
        assert np.sort(g.weights) == pytest.approx([0.5, 0.5], abs=0.05)

    def test_log_likelihood_never_decreases(self):
        rng = np.random.default_rng(21)
        values = np.concatenate([rng.normal(0, 1, 300), rng.normal(3, 0.5, 200)])
        _, trace = fit_gmm_trace(values, k=3, seed=2)
        assert np.all(np.diff(trace) >= -1e-10)

    @pytest.mark.parametrize(
        "values, k",
        [
            (np.full(20, 0.7), 2),
            (np.full(20, 0.7), 3),
            (np.asarray([1.0, 1.0, 1.0, 5.0]), 3),
            (np.repeat([0.0, 1.0], [50, 2]), 3),
        ],
    )
    def test_degenerate_series_fit_deterministically(self, values, k):
        # kmeans++ runs out of distinct values to pick, so some centers repeat
        # and leave their components empty when the samples are assigned
        (a, trace), (b, again) = (fit_gmm_trace(values, k=k, seed=5) for _ in range(2))
        for field in ("weights", "means", "variances"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert np.array_equal(trace, again)
        assert np.all(a.weights > 0)
        assert np.all(np.diff(trace) >= -1e-10)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(33)
        values = rng.normal(0, 1, 500)
        a = fit_gmm(values, k=3, seed=17)
        b = fit_gmm(values, k=3, seed=17)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.variances, b.variances)

    def test_k_exceeding_cap_rejected(self):
        values = np.arange(20.0)
        with pytest.raises(ValueError):
            fit_gmm(values, k=5)

    def test_series_shorter_than_k_rejected(self):
        with pytest.raises(ValueError):
            fit_gmm(np.asarray([1.0, 2.0]), k=3)

    def test_pdf_integrates_to_one(self):
        g = GMM(
            weights=np.asarray([0.3, 0.7]),
            means=np.asarray([-1.0, 2.0]),
            variances=np.asarray([0.5, 1.5]),
        )
        mean = float(g.weights @ g.means)
        var = float(g.weights @ (g.variances + g.means**2) - mean**2)
        assert integrate_pdf(lambda xs: np.asarray(gmm_pdf(g, xs)), mean, math.sqrt(var)) == pytest.approx(
            1.0, abs=1e-3
        )

    def test_variance_floor_on_degenerate_series(self):
        g = fit_gmm(np.full(10, 2.0), k=1, seed=0)
        assert g.variances[0] == pytest.approx(1e-12)


def two_bins(edges=(0.0, 0.5, 1.0), masses=(0.5, 0.5), smoothing_eps=0.0):
    return Histogram(np.asarray(edges), np.asarray(masses), smoothing_eps)


def two_components(weights=(0.5, 0.5), means=(0.0, 1.0), variances=(1.0, 2.0)):
    return GMM(np.asarray(weights), np.asarray(means), np.asarray(variances))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: two_bins(edges=(0.0, math.nan, 1.0)), "edges must be strictly increasing"),
        (lambda: two_bins(edges=(math.nan, 0.5, 1.0)), "edges must be strictly increasing"),
        (lambda: two_bins(edges=(0.0, 0.5, math.inf)), "edges must be finite"),
        (lambda: two_bins(edges=(-math.inf, 0.5, 1.0)), "edges must be finite"),
        (lambda: two_bins(masses=(math.nan, 0.5)), "masses must be non-negative"),
        (lambda: two_bins(masses=(math.nan, math.nan)), "masses must be non-negative"),
        (lambda: two_bins(smoothing_eps=math.nan), "smoothing_eps must be finite and non-negative, got nan"),
        (lambda: two_bins(smoothing_eps=math.inf), "smoothing_eps must be finite and non-negative, got inf"),
        (lambda: two_components(means=(math.nan, 1.0)), "means must be finite"),
        (lambda: two_components(means=(0.0, math.inf)), "means must be finite"),
        (lambda: two_components(weights=(math.nan, 0.5)), "weights must form a probability vector"),
        (lambda: two_components(variances=(math.nan, 1.0)), "variances must be positive and finite"),
        (lambda: two_components(variances=(1.0, math.inf)), "variances must be positive and finite"),
        (lambda: KDE(np.asarray([0.0, math.nan]), 0.5), "sample_points must be finite"),
    ],
)
def test_a_model_with_a_nan_or_inf_field_is_refused_by_name(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()
