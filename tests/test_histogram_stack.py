"""The stacked histogram path against the one-model reference, bit for bit."""

import numpy as np
import pytest
from histogram_reference import (
    reference_classify,
    reference_fit_histogram,
    reference_kl_histogram,
    reference_kl_table,
)

from pianist_id import divergence
from pianist_id.densities import HISTOGRAM_SMOOTHING_EPS, Histogram, fit_histogram
from pianist_id.divergence import kl_histogram, kl_histogram_rows
from pianist_id.evaluation import ExperimentConfig, _histogram_kls, classify


def outcome(fn):
    """The result's bytes, or the message of the ValueError it raised."""
    try:
        result = fn()
    except ValueError as exc:
        return f"ValueError: {exc}"
    if isinstance(result, Histogram):
        return result.edges.tobytes() + result.masses.tobytes()
    return np.asarray(result, dtype=np.float64).tobytes()


def stack(hs):
    """One histogram stack of the models ``hs``, which share a bin count."""
    return Histogram(
        edges=np.stack([h.edges for h in hs]),
        masses=np.stack([h.masses for h in hs]),
        smoothing_eps=hs[0].smoothing_eps,
    )


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

    def test_a_span_too_small_for_the_bins_is_widened_by_half(self):
        # 0.1% padding gives no 50 distinct edges here, so each side widens by 0.5
        for values in ([1e6 - 1e-9, 1e6 + 1e-9], [10.333333333333329, 10.333333333333336]):
            values = np.asarray(values)
            fitted = fit_histogram(values)
            assert outcome(lambda: fitted) == outcome(lambda: reference_fit_histogram(values, 50))
            assert (fitted.edges[0], fitted.edges[-1]) == (values[0] - 0.5, values[1] + 0.5)
        # a span that 0.5 per side still cannot split keeps numpy's error
        with pytest.raises(ValueError, match="Too many bins for data range. Cannot create 50"):
            fit_histogram(np.asarray([1e20] * 3))


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

    def stack_pairs(self, rng):
        """Random pairs of one p and one q bin count, the last of equal edges."""
        pairs = [self.random_pair(rng) for _ in range(60)]
        pairs = [(p, q) for p, q in pairs if len(p.edges) == len(pairs[0][0].edges)]
        pairs = [(p, q) for p, q in pairs if len(q.edges) == len(pairs[0][1].edges)]
        return pairs + [pairs[0][:1] * 2]  # equal edges take the copy branch

    def test_rows_equal_pairs(self):
        pairs = self.stack_pairs(np.random.default_rng(14))
        rows = kl_histogram_rows(stack([p for p, _ in pairs]), stack([q for _, q in pairs]))
        assert rows == [reference_kl_histogram(p, q) for p, q in pairs]
        assert rows[-1] == 0.0


class TestTiedEdges:
    """Pairs whose edge sets partly coincide: a merged edge set then holds
    runs of equal edges, of which only one point may count."""

    GRID = np.linspace(-3.1, 7.3, 41)  # slices of one array coincide exactly

    @staticmethod
    def model(rng, edges):
        # masses of many magnitudes: interpolating up to an equal edge then
        # misses that edge's cumulative mass often enough to show
        masses = np.exp(rng.normal(0.0, 3.0, len(edges) - 1))
        return Histogram(edges=edges, masses=masses / masses.sum(), smoothing_eps=HISTOGRAM_SMOOTHING_EPS)

    def edge_pairs(self):
        """(p edges, q edges, whether any edge is shared)."""
        grid = self.GRID
        p = grid[:11]
        ten_bins = [(p, np.linspace(grid[0] + 0.005, grid[10] + 0.3, 11), False)]
        ten_bins += [(p, grid[k : k + 11], True) for k in range(1, 10)]  # shifted by whole bins
        ten_bins += [
            (p, np.linspace(grid[0], grid[10] + 0.37, 11), True),  # only the first edge shared
            (p, np.linspace(grid[0] - 0.41, grid[10], 11), True),  # only the last edge shared
            (p, grid[10:21], True),  # p's last edge is q's first
        ]
        other_counts = [
            (grid[:21], grid[4:9], True),  # q inside p, on p's edges
            (grid[:21], np.linspace(grid[4] + 0.013, grid[9] - 0.029, 7), False),  # inside, apart
            (grid[:21], grid[:21:4], True),  # every fourth edge shared, 5 bins against 20
            (grid[:21], grid[2:40:4], True),  # overlapping, 9 bins against 20
            (grid[:21], np.linspace(grid[0], grid[20], 8), True),  # only both ends shared
        ]
        return ten_bins, other_counts

    def test_pairs_equal_the_reference(self):
        rng = np.random.default_rng(41)
        ten_bins, other_counts = self.edge_pairs()
        for pe, qe, shared in ten_bins + other_counts:
            assert shared == bool(np.intersect1d(pe, qe).size)
            for _ in range(10):
                p, q = self.model(rng, pe), self.model(rng, qe)
                for a, b in [(p, q), (q, p)]:
                    assert outcome(lambda: kl_histogram(a, b).value) == outcome(
                        lambda: reference_kl_histogram(a, b)
                    )

    def stacks_pairs(self, rng):
        """Two stacks' pairs: tied, tie-free and equal edges of ten bins, then
        twenty bins against five."""
        grid = self.GRID
        ten_bins, _ = self.edge_pairs()
        equal = [(pe, pe, True) for pe, _, _ in ten_bins[:3]]
        p20 = grid[:21]
        twenty_against_five = [
            (p20, np.linspace(grid[1] + 0.013, grid[30] - 0.029, 6)),
            (p20, grid[:21:4]),
            (p20, grid[4:10]),
            (p20, grid[12:33:4]),
        ]
        return [
            [(self.model(rng, e[0]), self.model(rng, e[1])) for e in edges * 40]
            for edges in (ten_bins + equal, twenty_against_five)
        ]

    def test_stacks_mixing_tied_tie_free_and_equal_edges_equal_the_reference(self):
        for pairs in self.stacks_pairs(np.random.default_rng(42)):
            rows = kl_histogram_rows(stack([p for p, _ in pairs]), stack([q for _, q in pairs]))
            assert outcome(lambda: rows) == outcome(
                lambda: [reference_kl_histogram(p, q) for p, q in pairs]
            )


def test_passes_of_one_pair_equal_one_pass(monkeypatch):
    """The stacks above, and rows picked from them, scored in one pass, one
    pair per pass and three pairs per pass."""
    stacks = [TestKlHistogram().stack_pairs(np.random.default_rng(14))]
    stacks += TestTiedEdges().stacks_pairs(np.random.default_rng(42))
    rng = np.random.default_rng(16)
    for pairs in stacks:
        p, q = stack([p for p, _ in pairs]), stack([q for _, q in pairs])
        p_rows, q_rows = rng.integers(0, len(pairs), (2, 3 * len(pairs)))
        results = []
        for bound in (10**9, 1, 6 * (p.edges.shape[1] + q.edges.shape[1])):
            monkeypatch.setattr(divergence, "HISTOGRAM_BATCH", bound)
            results.append(outcome(lambda: kl_histogram_rows(p, q) + kl_histogram_rows(p, q, p_rows, q_rows)))
        assert results[1:] == results[:1] * 2


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
            assert outcome(lambda: _histogram_kls(chunks, n_bins, range(n_groups))) == expected
            computed += isinstance(expected, bytes)
        assert computed == 80

    def test_empty_pool_raises_the_one_model_error(self):
        chunks = {
            "a": [np.asarray([0.1, 0.2]), np.asarray([0.3]), np.asarray([0.5])],
            "b": [np.asarray([0.4, 0.6]), np.asarray([]), np.asarray([])],
        }
        with pytest.raises(ValueError, match="cannot fit a histogram to an empty series"):
            _histogram_kls(chunks, 8, range(3))
        assert outcome(lambda: _histogram_kls(chunks, 8, range(3))) == outcome(
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
            _histogram_kls(chunks, 50, range(2))

    def test_tiny_spans_match_the_reference_in_one_by_one_order(self):
        # tiny spans are widened and fit; a test chunk at 1e20 cannot be split even so
        rng = np.random.default_rng(21)
        raised = set()
        for _ in range(60):
            n_groups = int(rng.integers(2, 5))
            chunks = random_chunks(rng, "tiny", n_groups, int(rng.integers(2, 4)))
            if rng.random() < 0.3:
                pid = f"p{rng.integers(len(chunks))}"
                chunks[pid][int(rng.integers(n_groups))] = np.full(int(rng.integers(1, 4)), 1e20)
            n_bins = int(rng.integers(20, 2000))  # most spans need widening for this many bins
            expected = outcome(lambda: reference_kl_table(chunks, n_bins))
            assert outcome(lambda: _histogram_kls(chunks, n_bins, range(n_groups))) == expected
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
        test = {kind: np.round(rng.normal(0, 1, 15), 1) for kind in kinds}
        expected = reference_classify(test, train_values, kinds, weights, config.n_bins)
        assert classify(test, train_values, config) == expected
