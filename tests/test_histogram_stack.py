"""The stacked histogram path against the one-model reference, bit for bit."""

import numpy as np
import pytest
from histogram_reference import (
    reference_classify,
    reference_fit_histogram,
    reference_kl_histogram,
    reference_kl_table,
)

from pianist_id.densities import Histogram, fit_histogram
from pianist_id.divergence import kl_histogram, kl_histogram_rows
from pianist_id.evaluation import ExperimentConfig, _histogram_kls, classify, fit_model


def outcome(fn):
    """The result's bytes, or the message of the ValueError it raised."""
    try:
        result = fn()
    except ValueError as exc:
        return f"ValueError: {exc}"
    if isinstance(result, Histogram):
        return result.edges.tobytes() + result.masses.tobytes()
    return np.asarray(result, dtype=np.float64).tobytes()


def random_chunks(rng, mode, n_groups, n_performers):
    """``chunks[pid][g]`` for one kind; every training pool has values."""
    if mode == "on_edges":
        # every model spans [0, 10], so all share these edges, and values sit on them
        n_bins = int(rng.integers(2, 12))
        edges = reference_fit_histogram([0.0, 10.0], n_bins).edges
    chunks = {}
    for i in range(n_performers):
        groups = []
        for _ in range(n_groups):
            size = int(rng.integers(0, 25))
            if mode == "continuous":
                values = rng.normal(rng.normal(0, 3), rng.uniform(0.01, 4), size)
            elif mode == "integer":
                values = np.round(rng.normal(0, 3, size))
            elif mode == "constant":
                values = np.full(size, float(rng.integers(-2, 3)))
            elif mode == "on_edges":
                values = np.concatenate(([0.0, 10.0], rng.choice(edges[1:-1], size)))
            else:  # small values near a large offset
                values = 1e6 + rng.integers(-400, 400, size) * np.spacing(1e6)
            groups.append(values)
        if sum(len(c) > 0 for c in groups) < 2:
            groups[0] = np.append(groups[0], groups[0][:1] if len(groups[0]) else 1.0)
            groups[-1] = np.append(groups[-1], 2.0)
        chunks[f"p{i}"] = groups
    return chunks


class TestFitHistogram:
    def test_equals_np_histogram_on_random_series(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n_bins = int(rng.integers(1, 60))
            values = np.round(rng.normal(0, 3, rng.integers(1, 200)), int(rng.integers(0, 4)))
            if rng.random() < 0.3:  # add every interior edge: values exactly on bin edges
                values = np.concatenate((values, reference_fit_histogram(values, n_bins).edges[1:-1]))
            assert outcome(lambda: fit_histogram(values, n_bins)) == outcome(
                lambda: reference_fit_histogram(values, n_bins)
            )

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [3.25],
            [3.25] * 7,
            [1e20] * 3,
            [1e6 - 1e-9, 1e6 + 1e-9],
            [1.0, np.nan],
            [1.0, np.inf],
            [-np.inf, np.nan],
            [np.inf, np.inf],
        ],
    )
    @pytest.mark.parametrize("n_bins", [0, 1, 50])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_edge_cases_and_errors_match(self, values, n_bins):
        values = np.asarray(values, dtype=np.float64)
        assert outcome(lambda: fit_histogram(values, n_bins)) == outcome(
            lambda: reference_fit_histogram(values, n_bins)
        )

    def test_tiny_span_raises_numpys_too_many_bins(self):
        with pytest.raises(ValueError, match="Too many bins for data range. Cannot create 50"):
            fit_histogram(np.asarray([1e6 - 1e-9, 1e6 + 1e-9]))


class TestKlHistogram:
    def random_pair(self, rng):
        n_bins = int(rng.integers(1, 40))
        n_bins_q = n_bins if rng.random() < 0.7 else int(rng.integers(1, 40))
        integer = rng.random() < 0.5

        def series():
            values = rng.normal(rng.normal(0, 1), rng.uniform(0.2, 3), rng.integers(1, 80))
            return np.round(values) if integer else values

        return fit_histogram(series(), n_bins), fit_histogram(series(), n_bins_q)

    def test_pairs_equal_the_union1d_interp_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(400):
            p, q = self.random_pair(rng)
            assert outcome(lambda: kl_histogram(p, q).value) == outcome(
                lambda: reference_kl_histogram(p, q)
            )

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_unsmoothed_zero_mass_bins_keep_the_masked_sum_bits(self):
        rng = np.random.default_rng(13)

        def unsmoothed(h):
            masses = np.where(rng.random(len(h.masses)) < 0.4, 0.0, h.masses)
            masses = masses if masses.sum() > 0 else h.masses
            return Histogram(edges=h.edges, masses=masses / masses.sum(), smoothing_eps=0.0)

        checked = 0
        for _ in range(300):
            p, q = self.random_pair(rng)
            p = unsmoothed(p)
            if rng.random() < 0.5:
                q = unsmoothed(q)
            expected = outcome(lambda: reference_kl_histogram(p, q))
            assert outcome(lambda: kl_histogram(p, q).value) == expected
            checked += isinstance(expected, bytes)
        assert checked > 100

    def test_rows_equal_pairs(self):
        rng = np.random.default_rng(14)
        pairs = [self.random_pair(rng) for _ in range(60)]
        pairs = [(p, q) for p, q in pairs if len(p.edges) == len(pairs[0][0].edges)]
        pairs = [(p, q) for p, q in pairs if len(q.edges) == len(pairs[0][1].edges)]
        pairs.append(pairs[0][:1] * 2)  # equal edges take the copy branch

        def stack(hs):
            return Histogram(
                edges=np.stack([h.edges for h in hs]),
                masses=np.stack([h.masses for h in hs]),
                smoothing_eps=hs[0].smoothing_eps,
            )

        rows = kl_histogram_rows(stack([p for p, _ in pairs]), stack([q for _, q in pairs]))
        assert rows == [reference_kl_histogram(p, q) for p, q in pairs]
        assert rows[-1] == 0.0


class TestStackedTable:
    MODES = ["continuous", "integer", "constant", "on_edges", "mixed"]

    @pytest.mark.parametrize("mode", MODES)
    def test_tables_equal_one_by_one_fits_and_kls(self, mode):
        """80 random tables per mode, 400 in all."""
        rng = np.random.default_rng(self.MODES.index(mode))
        computed = 0
        for _ in range(80):
            n_groups, n_performers = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            n_bins = int(rng.integers(1, 30))
            if mode == "mixed":
                chunks = {}
                for i in range(n_performers):
                    kind = ["continuous", "integer", "constant"][int(rng.integers(0, 3))]
                    chunks[f"p{i}"] = random_chunks(rng, kind, n_groups, 1)["p0"]
            else:
                chunks = random_chunks(rng, mode, n_groups, n_performers)
            expected = outcome(lambda: reference_kl_table(chunks, n_bins))
            assert outcome(lambda: _histogram_kls(chunks, n_bins)) == expected
            computed += isinstance(expected, bytes)
        assert computed == 80

    def test_empty_pool_raises_the_one_model_error(self):
        chunks = {
            "a": [np.asarray([0.1, 0.2]), np.asarray([0.3]), np.asarray([0.5])],
            "b": [np.asarray([0.4, 0.6]), np.asarray([]), np.asarray([])],
        }
        with pytest.raises(ValueError, match="cannot fit a histogram to an empty series"):
            _histogram_kls(chunks, 8)
        assert outcome(lambda: _histogram_kls(chunks, 8)) == outcome(
            lambda: reference_kl_table(chunks, 8)
        )

    def test_a_groups_pools_fail_before_its_tests(self):
        # b's group-0 test has too small a span for 50 bins, and b's group-0 pool is empty
        chunks = {
            "a": [np.asarray([0.1, 0.2]), np.asarray([0.3])],
            "b": [np.asarray([1e6 - 1e-9, 1e6 + 1e-9]), np.asarray([])],
        }
        with pytest.raises(ValueError, match="cannot fit a histogram to an empty series"):
            reference_kl_table(chunks, 50)
        with pytest.raises(ValueError, match="cannot fit a histogram to an empty series"):
            _histogram_kls(chunks, 50)

    def test_tiny_spans_raise_numpys_error_in_one_by_one_order(self):
        rng = np.random.default_rng(21)
        raised = set()
        for _ in range(60):
            chunks = random_chunks(rng, "tiny", int(rng.integers(2, 5)), int(rng.integers(2, 4)))
            n_bins = int(rng.integers(20, 200))
            expected = outcome(lambda: reference_kl_table(chunks, n_bins))
            assert outcome(lambda: _histogram_kls(chunks, n_bins)) == expected
            raised.add(isinstance(expected, str) and expected.startswith("ValueError: Too many bins"))
        assert raised == {True, False}


def test_classify_matches_the_reference():
    rng = np.random.default_rng(31)
    for _ in range(40):
        kinds = ("OT", "DL")
        weights = tuple(float(w) for w in rng.uniform(0, 2, 2))
        config = ExperimentConfig(feature_set=kinds, weights=weights, n_bins=int(rng.integers(2, 20)))
        train_values = {
            pid: {kind: np.round(rng.normal(rng.normal(), 1, 40), 1) for kind in kinds}
            for pid in ("a", "b", "c")
        }
        train_values["d"] = train_values["a"]  # exact ties go to the smallest id
        train = {
            pid: {kind: fit_model(v, kind, config) for kind, v in by_kind.items()}
            for pid, by_kind in train_values.items()
        }
        test = {kind: np.round(rng.normal(0, 1, 15), 1) for kind in kinds}
        expected = reference_classify(test, train, kinds, weights, config.n_bins)
        assert classify(test, train, config) == expected
