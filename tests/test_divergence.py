import math

import numpy as np
import pytest

from pianist_id.densities import GMM, Histogram, fit_gmm, fit_histogram, fit_kde, kde_pdf
from pianist_id.divergence import (
    Q_FLOOR,
    KlResult,
    _clamped,
    gaussian_kl,
    kl,
    kl_gmm,
    kl_histogram,
    kl_kde,
    kl_on_grid,
    kl_rows,
)


def two_bin_histogram(masses, eps=0.0):
    return Histogram(
        edges=np.asarray([0.0, 0.5, 1.0]),
        masses=np.asarray(masses, dtype=np.float64),
        smoothing_eps=eps,
    )


def single_gaussian(mean, variance):
    return GMM(
        weights=np.asarray([1.0]),
        means=np.asarray([float(mean)]),
        variances=np.asarray([float(variance)]),
    )


class TestKlHistogram:
    def test_self_divergence_is_zero(self):
        rng = np.random.default_rng(2)
        h = fit_histogram(rng.normal(0, 1, 500), n_bins=20)
        assert kl_histogram(h, h).value == 0.0

    def test_hand_computed_example(self):
        p = two_bin_histogram([0.5, 0.5])
        q = two_bin_histogram([0.9, 0.1])
        expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
        assert kl_histogram(p, q).value == pytest.approx(expected, abs=1e-12)
        assert kl_histogram(p, q).value == pytest.approx(0.51083, abs=5e-6)

    def test_asymmetry_of_the_same_pair(self):
        p = two_bin_histogram([0.5, 0.5])
        q = two_bin_histogram([0.9, 0.1])
        reverse = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
        assert kl_histogram(q, p).value == pytest.approx(reverse, abs=1e-12)
        assert kl_histogram(q, p).value != pytest.approx(kl_histogram(p, q).value)
        # recomputed by hand: 0.368064; differs in the 4th decimal from a
        # previously circulated rounding of the same expression
        assert kl_histogram(q, p).value == pytest.approx(0.36806, abs=5e-6)

    def test_matches_brute_force_on_random_probability_vectors(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n_bins = int(rng.integers(2, 60))
            p_masses = rng.dirichlet(np.full(n_bins, 0.7))
            q_masses = rng.dirichlet(np.full(n_bins, 0.7))
            edges = np.linspace(-1.0, 1.0, n_bins + 1)
            eps = 1e-9
            p = Histogram(edges=edges, masses=p_masses, smoothing_eps=eps)
            q = Histogram(edges=edges, masses=q_masses, smoothing_eps=eps)
            # independent brute force: plain python loop over smoothed masses
            ps = [(m + eps) / (1 + n_bins * eps) for m in p_masses.tolist()]
            qs = [(m + eps) / (1 + n_bins * eps) for m in q_masses.tolist()]
            expected = math.fsum(a * math.log(a / b) for a, b in zip(ps, qs))
            assert kl_histogram(p, q).value == pytest.approx(expected, abs=1e-12)

    def test_disjoint_supports_stay_finite_via_rebinning(self):
        p = fit_histogram(np.asarray([0.0, 0.1, 0.2]), n_bins=4)
        q = fit_histogram(np.asarray([5.0, 5.1, 5.2]), n_bins=4)
        result = kl_histogram(p, q)
        assert math.isfinite(result.value) and result.value > 0

    def test_rebinning_preserves_self_divergence_zero(self):
        p = fit_histogram(np.asarray([0.0, 0.3, 0.5, 0.9]), n_bins=3)
        q = fit_histogram(np.asarray([0.0, 0.3, 0.5, 0.9]), n_bins=5)
        assert kl_histogram(p, p).value == 0.0
        assert kl_histogram(p, q).value >= 0.0


class TestKlKde:
    def test_identical_models_give_zero(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(0, 1, 200)
        p = fit_kde(samples, bandwidth=0.3)
        q = fit_kde(samples.copy(), bandwidth=0.3)
        assert kl_kde(p, q).value == pytest.approx(0.0, abs=1e-6)

    def test_converges_to_gaussian_closed_form(self):
        rng = np.random.default_rng(31)
        p = fit_kde(rng.normal(0.0, 1.0, 10_000), bandwidth=0.15)
        q = fit_kde(rng.normal(1.0, 1.0, 10_000), bandwidth=0.15)
        assert kl_kde(p, q).value == pytest.approx(0.5, abs=0.05)

    def test_grid_refinement_self_consistency(self):
        rng = np.random.default_rng(31)
        p = fit_kde(rng.normal(0.0, 1.0, 10_000), bandwidth=0.15)
        q = fit_kde(rng.normal(1.0, 1.0, 10_000), bandwidth=0.15)
        result = kl_kde(p, q)
        lo, hi, _ = result.grid_spec
        # the same span at half kl_kde's largest step
        fine = np.linspace(lo, hi, math.ceil((hi - lo) / (0.15 / 8)) + 1)
        reference = kl_on_grid(kde_pdf(p, fine), kde_pdf(q, fine), fine).value
        assert abs(result.value - reference) < 1e-4

    def test_grid_spec_recorded(self):
        p = fit_kde(np.asarray([0.0, 1.0]), bandwidth=0.5)
        result = kl_kde(p, p)
        assert result.method == "grid"
        lo, hi, n = result.grid_spec
        # the fewest points that keep the step at or below 0.5 / 4
        assert lo == pytest.approx(-2.5) and hi == pytest.approx(3.5) and n == 49

    def test_step_never_exceeds_a_quarter_bandwidth(self):
        # one far outlier: the span is 20000 bandwidths wide
        p = fit_kde(np.asarray([0.0, 0.01, 0.03, 200.0]), bandwidth=0.01)
        q = fit_kde(np.asarray([0.02, 0.04]), bandwidth=0.01)
        lo, hi, n = kl_kde(p, q).grid_spec
        assert n > 4096
        assert (hi - lo) / (n - 1) <= 0.01 / 4
        # with unequal bandwidths the narrower one sets the step
        wide = fit_kde(np.asarray([0.0, 50.0]), bandwidth=2.0)
        lo, hi, n = kl_kde(wide, fit_kde(np.asarray([1.0]), bandwidth=0.02)).grid_spec
        assert (lo, hi) == (-10.0, 60.0) and (hi - lo) / (n - 1) <= 0.02 / 4


class TestKlRows:
    """``kl_rows`` scores one density, or a stack of them, against a stack of rows on one grid."""

    @staticmethod
    def one_pair(px, qx, grid):
        # the per-pair integrand, written out as a reference
        qx = np.maximum(qx, Q_FLOOR)
        integrand = np.where(px > 0, px * np.log(np.maximum(px, Q_FLOOR) / qx), 0.0)
        return max(float(np.trapezoid(integrand, grid)), 0.0)

    def test_rows_equal_one_pair_at_a_time_bit_for_bit(self):
        rng = np.random.default_rng(17)
        grid = np.linspace(-3.0, 4.0, 157)
        px = rng.gamma(2.0, 1.0, len(grid))
        px[::7] = 0.0  # p = 0 entries contribute nothing
        qx = rng.gamma(2.0, 1.0, (6, len(grid)))
        qx[1, ::5] = 0.0  # below the floor ...
        qx[2, 3:40] = 1e-310  # ... also as subnormals
        qx[3] = px  # a row equal to p
        qx[4, 10:20] = 1e-200
        rows = kl_rows(px, qx, grid)
        assert rows == [kl_on_grid(px, q, grid).value for q in qx]
        assert rows == [self.one_pair(px, q, grid) for q in qx]
        assert all(type(v) is float for v in rows)

        # a stack of tests, shaped (t, 1, grid): one list per test, each row
        # with the bits of its own one-test call
        tests = np.vstack([px, qx[1], qx[2], qx[4], rng.gamma(2.0, 1.0, len(grid))])
        stacked = kl_rows(tests[:, None], qx, grid)
        alone = [kl_rows(p, qx, grid) for p in tests]
        assert np.asarray(stacked).tobytes() == np.asarray(alone).tobytes()
        assert stacked[0] == rows
        assert all(type(v) is float for row in stacked for v in row)

    def test_a_non_finite_row_raises_the_kl_result_error(self):
        grid = np.linspace(0.0, 1.0, 11)
        px = np.full(len(grid), 1e300)
        qx = np.vstack([np.ones(len(grid)), np.zeros(len(grid))])  # p/q overflows in row 1
        with pytest.raises(ValueError) as expected:
            KlResult(math.inf, "grid")
        with pytest.raises(ValueError) as raised, np.errstate(over="ignore"):
            kl_rows(px, qx, grid)
        assert str(raised.value) == str(expected.value)
        # the same from the middle of a stack of tests that are finite elsewhere
        tests = np.stack([px / 1e300, px, 2.0 * px / 1e300])[:, None]
        with pytest.raises(ValueError) as raised, np.errstate(over="ignore"):
            kl_rows(tests, qx, grid)
        assert str(raised.value) == str(expected.value)
        qx[1] = math.nan
        with pytest.raises(ValueError, match="must be finite and non-negative, got nan"):
            kl_rows(px / 1e300, qx, grid)
        with pytest.raises(ValueError, match="must be finite and non-negative, got nan"):
            kl_rows(tests / 1e300, qx, grid)

    def test_clamp_keeps_the_bits_of_max_with_zero(self):
        values = [-0.0, 0.0, -1e-300, -2.5, 5e-324, 1.5, -math.inf]
        clamped = _clamped(np.asarray([values, values[::-1]]))
        expected = [[max(v, 0.0) for v in values], [max(v, 0.0) for v in values[::-1]]]
        assert np.asarray(clamped).tobytes() == np.asarray(expected).tobytes()
        assert math.copysign(1.0, clamped[0][0]) == -1.0  # max(-0.0, 0.0) keeps -0.0


class TestKlGmm:
    def test_self_divergence_exactly_zero(self):
        g = fit_gmm(np.random.default_rng(1).normal(0, 1, 100), k=3, seed=3)
        assert kl_gmm(g, g).value == 0.0

    def test_single_component_reduces_to_gaussian_closed_form(self):
        p = single_gaussian(0.0, 1.0)
        q = single_gaussian(1.0, 1.0)
        assert kl_gmm(p, q).value == pytest.approx(0.5, abs=1e-9)

    def test_variance_ratio_case(self):
        p = single_gaussian(0.0, 1.0)
        q = single_gaussian(0.0, 4.0)
        expected = 0.5 * (math.log(4.0) + 0.25 - 1.0)
        assert kl_gmm(p, q).value == pytest.approx(expected, abs=1e-12)
        assert kl_gmm(p, q).value == pytest.approx(0.31815, abs=1e-4)

    def test_gaussian_kl_helper_matches(self):
        assert gaussian_kl(0.0, 1.0, 1.0, 1.0) == pytest.approx(0.5)
        assert gaussian_kl(0.0, 1.0, 0.0, 4.0) == pytest.approx(0.3181471805599453)

    @pytest.mark.parametrize("name", ["var_p", "var_q"])
    @pytest.mark.parametrize(
        "bad",
        [0.0, -1.0, math.nan, np.array([1.0, 0.0]), np.array([[2.0], [-0.5]]), np.array([np.nan, 1.0])],
        ids=["zero", "negative", "nan", "zero in an array", "negative in an array", "nan in an array"],
    )
    def test_gaussian_kl_refuses_a_variance_that_is_not_positive(self, name, bad):
        args = {"mean_p": 0.0, "var_p": 1.0, "mean_q": 0.5, "var_q": 2.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            gaussian_kl(**args)

    def test_clamped_non_negative_on_random_mixtures(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            p = fit_gmm(rng.normal(0, 1, 150), k=2, seed=int(rng.integers(100)))
            q = fit_gmm(rng.normal(0.5, 1.2, 150), k=3, seed=int(rng.integers(100)))
            assert kl_gmm(p, q).value >= 0.0


class TestDispatchAndFusion:
    def test_cross_family_rejected(self):
        h = fit_histogram(np.asarray([0.0, 1.0]), n_bins=2)
        k = fit_kde(np.asarray([0.0, 1.0]), bandwidth=0.1)
        with pytest.raises(TypeError):
            kl(h, k)

    def test_dispatch_by_type(self):
        h = fit_histogram(np.asarray([0.0, 1.0]), n_bins=2)
        assert kl(h, h).method == "discrete"

    def test_kl_result_rejects_negative_or_non_finite(self):
        with pytest.raises(ValueError):
            KlResult(-0.5, "discrete")
        with pytest.raises(ValueError):
            KlResult(float("inf"), "grid")
