import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from pianist_id.densities import DEFAULT_BANDWIDTHS, GMM_MAX_ITER, GMM_TOL, fit_kde, kde_pdf
from pianist_id.divergence import kl, kl_kde, kl_on_grid
from pianist_id.evaluation import (
    DeviationDataset,
    EmptyTestSeriesError,
    ExperimentConfig,
    FoldSpec,
    _value_groups,
    classify,
    f_score,
    feature_subsets,
    fit_model,
    logo_split,
    metrics,
    run_cv,
    sweep,
)
from pianist_id.features import DeviationSeries


def point_series(performer_id, values, kind="OT", positions=None):
    values = np.asarray(values, dtype=np.float64)
    if positions is None:
        positions = np.arange(len(values), dtype=np.int64)
    else:
        positions = np.asarray(positions, dtype=np.int64)
    return DeviationSeries(
        kind=kind,
        performer_id=performer_id,
        values=values,
        positions=positions,
        end_positions=positions.copy(),
    )


def make_dataset(values_by_performer, kind="OT"):
    n = max(len(v) for v in values_by_performer.values())
    return DeviationDataset(
        n_positions=n,
        by_performer={
            pid: {kind: point_series(pid, values, kind)}
            for pid, values in values_by_performer.items()
        },
    )


class TestLogoSplit:
    def test_eight_fold_sizes_at_16980_positions(self):
        fold = logo_split(16980, 8)
        sizes = [end - start for start, end in fold.groups]
        assert sizes == [2122] * 7 + [2126]

    def test_one_position_per_group(self):
        fold = logo_split(8, 8)
        assert [end - start for start, end in fold.groups] == [1] * 8

    def test_remainder_goes_to_last_group(self):
        fold = logo_split(10, 3)
        assert [end - start for start, end in fold.groups] == [3, 3, 4]

    def test_too_few_positions_rejected(self):
        with pytest.raises(ValueError):
            logo_split(7, 8)

    def test_group_of_maps_positions(self):
        fold = logo_split(10, 3)
        assert list(fold.group_of(np.asarray([0, 2, 3, 6, 9]))) == [0, 0, 1, 2, 2]

    def test_foldspec_validates_contiguity(self):
        with pytest.raises(ValueError):
            FoldSpec(n_positions=4, groups=((0, 2), (3, 4)))


class TestMetrics:
    def test_identity_confusion_is_perfect(self):
        m = metrics(np.eye(4, dtype=np.int64) * 8)
        assert m.macro_precision == m.macro_recall == m.macro_f == 1.0

    def test_f_score_from_published_style_macro_values(self):
        assert f_score(0.903, 0.875) == pytest.approx(0.889, abs=5e-4)

    def test_two_by_two_hand_case(self):
        m = metrics(np.asarray([[3, 1], [2, 2]]))
        assert m.per_class_precision[0] == pytest.approx(0.6)
        assert m.per_class_recall[0] == pytest.approx(0.75)
        assert m.per_class_precision[1] == pytest.approx(2 / 3)
        assert m.per_class_recall[1] == pytest.approx(0.5)

    def test_zero_denominators_give_zero(self):
        m = metrics(np.asarray([[0, 2], [0, 2]]))
        assert m.per_class_precision[0] == 0.0
        assert m.per_class_recall[0] == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            metrics(np.zeros((2, 3), dtype=np.int64))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            metrics(np.asarray([[1, -1], [0, 1]]))


class TestConfig:
    def test_rejects_unknown_family_and_kind(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model_family="tree")
        with pytest.raises(ValueError):
            ExperimentConfig(feature_set=("OT", "XX"))

    def test_rejects_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            ExperimentConfig(feature_set=("OT", "DL"), weights=(1.0,))

    def test_rejects_non_finite_or_negative_weights(self):
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="finite and non-negative"):
                ExperimentConfig(feature_set=("OT", "DL"), weights=(bad, 1.0))

    def test_default_weights_are_all_one(self):
        config = ExperimentConfig(feature_set=("OT", "DL"))
        assert config.effective_weights == (1.0, 1.0)

    def test_partial_bandwidths_are_merged_over_the_defaults(self):
        config = ExperimentConfig(
            model_family="kde", feature_set=("IOI", "DL"), bandwidths=(("IOI", 0.02),)
        )
        assert config.bandwidths == tuple(sorted({**DEFAULT_BANDWIDTHS, "IOI": 0.02}.items()))
        assert config.bandwidth_for("IOI") == 0.02
        assert config.bandwidth_for("DL") == DEFAULT_BANDWIDTHS["DL"]
        assert ExperimentConfig().bandwidths == tuple(sorted(DEFAULT_BANDWIDTHS.items()))
        assert replace(config, seed=1).bandwidths == config.bandwidths

    def test_rejects_bandwidth_for_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown feature kind in bandwidths: 'XX'"):
            ExperimentConfig(model_family="kde", bandwidths=(("XX", 0.1),))

    def test_rejects_bad_groups_bins_and_gmm_k_at_construction(self):
        cases = [
            ({"n_groups": 1}, "need at least 2 groups, got 1"),
            ({"n_bins": 0}, "n_bins must be >= 1, got 0"),
            ({"gmm_k": 0}, "gmm_k must be >= 1, got 0"),
            ({"gmm_k": 4}, "gmm_k=4 exceeds the component cap 3"),
        ]
        for kwargs, message in cases:
            with pytest.raises(ValueError, match=message):
                ExperimentConfig(**kwargs)
        config = ExperimentConfig(n_groups=2, n_bins=1, gmm_k=3)
        assert (config.n_groups, config.n_bins, config.gmm_k) == (2, 1, 3)

    def test_json_keeps_the_gmm_fit_settings(self):
        d = ExperimentConfig(model_family="gmm").to_json_dict()
        assert (d["gmm_tol"], d["gmm_max_iter"]) == (GMM_TOL, GMM_MAX_ITER)


class TestClassify:
    def test_training_data_predicts_its_own_performer(self):
        rng = np.random.default_rng(1)
        config = ExperimentConfig(model_family="histogram", feature_set=("OT",), n_bins=10)
        data = {
            "a": rng.normal(0.0, 0.5, 300),
            "b": rng.normal(2.0, 0.5, 300),
            "c": rng.normal(-2.0, 0.5, 300),
        }
        train = {
            pid: {"OT": fit_model(values, "OT", config)} for pid, values in data.items()
        }
        for pid, values in data.items():
            assert classify({"OT": values}, train, config) == pid

    def test_hand_histogram_case_prefers_smaller_kl(self):
        config = ExperimentConfig(model_family="histogram", feature_set=("OT",), n_bins=2)
        test_values = np.asarray([0.25] * 88 + [0.75] * 12)
        train = {
            "a": {"OT": fit_model(np.asarray([0.25] * 90 + [0.75] * 10), "OT", config)},
            "b": {"OT": fit_model(np.asarray([0.25] * 50 + [0.75] * 50), "OT", config)},
        }
        assert classify({"OT": test_values}, train, config) == "a"

    def test_exact_tie_breaks_lexicographically(self):
        config = ExperimentConfig(model_family="histogram", feature_set=("OT",), n_bins=4)
        values = np.asarray([0.0, 0.5, 1.0, 1.5])
        model = fit_model(values, "OT", config)
        train = {"zeta": {"OT": model}, "alpha": {"OT": model}}
        assert classify({"OT": values}, train, config) == "alpha"

    def test_empty_test_series_raises(self):
        config = ExperimentConfig(model_family="histogram", feature_set=("OT",))
        train = {"a": {"OT": fit_model(np.asarray([0.0, 1.0]), "OT", config)}}
        with pytest.raises(EmptyTestSeriesError):
            classify({"OT": np.asarray([])}, train, config)


class TestRunCv:
    def disjoint_dataset(self, n=64):
        rng = np.random.default_rng(5)
        return make_dataset(
            {
                "a": rng.uniform(0.0, 1.0, n),
                "b": rng.uniform(10.0, 11.0, n),
            }
        )

    def test_disjoint_supports_give_perfect_diagonal(self):
        config = ExperimentConfig(model_family="histogram", feature_set=("OT",), n_groups=4, n_bins=8)
        report = run_cv(self.disjoint_dataset(), config)
        assert np.array_equal(report.confusion, np.eye(2, dtype=np.int64) * 4)
        assert report.scores.macro_precision == 1.0

    def test_trial_count_and_row_sums(self):
        config = ExperimentConfig(model_family="histogram", feature_set=("OT",), n_groups=4, n_bins=8)
        report = run_cv(self.disjoint_dataset(), config)
        assert len(report.trials) == 2 * 4
        assert list(report.confusion.sum(axis=1)) == [4, 4]

    def test_reports_are_byte_identical_across_runs_and_jobs(self):
        dataset = self.disjoint_dataset()
        for family in ("histogram", "gmm"):
            config = ExperimentConfig(
                model_family=family, feature_set=("OT",), n_groups=4, n_bins=8, gmm_k=1
            )
            first = run_cv(dataset, config, jobs=1).to_json()
            second = run_cv(dataset, config, jobs=1).to_json()
            threaded = run_cv(dataset, config, jobs=3).to_json()
            assert first == second == threaded

    def test_weight_scaling_leaves_confusion_unchanged(self):
        rng = np.random.default_rng(12)
        n = 48
        dataset = DeviationDataset(
            n_positions=n,
            by_performer={
                pid: {
                    "OT": point_series(pid, rng.normal(mu, 1.0, n), "OT"),
                    "DL": point_series(pid, rng.normal(-mu, 2.0, n), "DL"),
                }
                for pid, mu in (("a", 0.0), ("b", 0.6), ("c", 1.2))
            },
        )
        base = ExperimentConfig(
            model_family="histogram", feature_set=("OT", "DL"), weights=(1.0, 0.5), n_groups=4, n_bins=8
        )
        scaled = ExperimentConfig(
            model_family="histogram", feature_set=("OT", "DL"), weights=(3.7, 1.85), n_groups=4, n_bins=8
        )
        assert np.array_equal(
            run_cv(dataset, base).confusion, run_cv(dataset, scaled).confusion
        )

    def test_pair_values_spanning_groups_belong_to_neither_side(self):
        # groups of 4 over 8 positions; the (3, 4) pair crosses the boundary
        positions = np.asarray([0, 1, 2, 3, 4, 5, 6], dtype=np.int64)
        series = DeviationSeries(
            kind="IOI",
            performer_id="a",
            values=np.zeros(7),
            positions=positions,
            end_positions=positions + 1,
        )
        groups = _value_groups(series, logo_split(8, 2))
        assert list(groups) == [0, 0, 0, -1, 1, 1, 1]

    def test_kde_and_gmm_families_run(self):
        rng = np.random.default_rng(3)
        dataset = make_dataset(
            {"a": rng.normal(0, 0.2, 40), "b": rng.normal(3, 0.2, 40)}
        )
        for family in ("kde", "gmm"):
            config = ExperimentConfig(
                model_family=family, feature_set=("OT",), n_groups=4, gmm_k=1
            )
            report = run_cv(dataset, config)
            assert report.scores.macro_precision == 1.0

    @pytest.mark.parametrize("family", ["histogram", "gmm"])
    def test_values_equal_independent_fits_and_kls(self, family):
        rng = np.random.default_rng(17)
        n = 40
        positions = np.arange(n)
        by_performer = {}
        for pid, mu in (("a", 0.0), ("b", 0.5), ("c", 1.0)):
            # c has no DL values in group 3 (positions 30-39): that trial's DL kind is left out
            dl_positions = positions[:30] if pid == "c" else positions
            by_performer[pid] = {
                "OT": point_series(pid, rng.normal(mu, 1.0, n), "OT"),
                "DL": point_series(pid, rng.normal(-mu, 2.0, len(dl_positions)), "DL", dl_positions),
            }
        dataset = DeviationDataset(n_positions=n, by_performer=by_performer)
        config = ExperimentConfig(
            model_family=family, feature_set=("OT", "DL"), n_groups=4, n_bins=8, gmm_k=2, seed=3
        )
        report = run_cv(dataset, config)
        chunks = {}
        for pid in dataset.performer_ids:
            for kind in config.feature_set:
                series = dataset.by_performer[pid][kind]
                for g in range(4):
                    chunks[(pid, g, kind)] = series.values[series.positions // 10 == g]
        assert list(report.skipped) == [{"performer": "c", "group": 3, "reason": "empty DL test series"}]
        assert len(report.trials) == 3 * 4 - 1
        for trial in report.trials:
            pid, g = trial["performer"], trial["group"]
            assert sorted(trial["feature_kl"]) == list(dataset.performer_ids)
            for candidate, row in trial["feature_kl"].items():
                assert sorted(row) == sorted(config.feature_set)
                for kind, value in row.items():
                    test = fit_model(chunks[(pid, g, kind)], kind, config)
                    pool = fit_model(
                        np.concatenate([chunks[(candidate, k, kind)] for k in range(4) if k != g]),
                        kind,
                        config,
                    )
                    assert value == kl(test, pool).value

    def test_needs_two_performers(self):
        dataset = make_dataset({"a": np.arange(16.0)})
        with pytest.raises(ValueError):
            run_cv(dataset, ExperimentConfig(feature_set=("OT",), n_groups=4))


class TestKdeTable:
    """The KDE KL table: exact kernel sums on one shared grid per kind."""

    def dataset(self):
        rng = np.random.default_rng(21)
        n = 40
        positions = np.arange(n)
        by_performer = {}
        for pid, mu in (("a", 0.0), ("b", 0.7), ("c", 1.4)):
            ioi = rng.normal(0.5 + 0.02 * mu, 0.02, n)
            if pid == "c":
                ioi[25] = 60.0  # one far outlier: the IOI grid needs > 4096 points
            by_performer[pid] = {
                "OT": point_series(pid, rng.normal(mu, 1.0, n), "OT"),
                # successor pairs: the ones that straddle a group bound are in no group
                "IOI": DeviationSeries(
                    kind="IOI", performer_id=pid, values=ioi,
                    positions=positions, end_positions=positions + 1,
                ),
            }
        return DeviationDataset(n_positions=n + 1, by_performer=by_performer)

    def test_values_equal_the_exact_kernel_reference_on_the_shared_grid(self, caplog):
        dataset = self.dataset()
        config = ExperimentConfig(model_family="kde", feature_set=("OT", "IOI"), n_groups=4)
        with caplog.at_level(logging.DEBUG, logger="pianist_id.evaluation"):
            report = run_cv(dataset, config)
        fold = logo_split(dataset.n_positions, config.n_groups)
        chunks, grids = {}, {}
        for kind in config.feature_set:
            h = config.bandwidth_for(kind)
            for pid in dataset.performer_ids:
                series = dataset.by_performer[pid][kind]
                start, end = fold.group_of(series.positions), fold.group_of(series.end_positions)
                for g in range(fold.n_groups):
                    chunks[(pid, g, kind)] = series.values[(start == g) & (end == g)]
            grouped = np.concatenate([v for (_, _, k), v in chunks.items() if k == kind])
            lo, hi = grouped.min() - 5 * h, grouped.max() + 5 * h
            # the step rule alone sets the size: no floor on the point count
            n_points = math.ceil((hi - lo) / (h / 4)) + 1
            grids[kind] = np.linspace(lo, hi, n_points)
            assert grids[kind][1] - grids[kind][0] <= h / 4
            [line] = [r.getMessage() for r in caplog.records if f"KDE grid {kind}:" in r.getMessage()]
            assert int(re.search(r", (\d+) points,", line).group(1)) == n_points
        assert len(grids["OT"]) < 4096 < len(grids["IOI"])

        assert len(report.trials) == 3 * 4
        for trial in report.trials:
            pid, g = trial["performer"], trial["group"]
            for candidate, row in trial["feature_kl"].items():
                for kind, value in row.items():
                    h = config.bandwidth_for(kind)
                    grid = grids[kind]
                    test = fit_kde(chunks[(pid, g, kind)], h)
                    pool = fit_kde(
                        np.concatenate(
                            [chunks[(candidate, k, kind)] for k in range(fold.n_groups) if k != g]
                        ),
                        h,
                    )
                    reference = kl_on_grid(kde_pdf(test, grid), kde_pdf(pool, grid), grid).value
                    assert value == pytest.approx(reference, rel=1e-12, abs=0.0)
                    assert abs(value - kl_kde(test, pool).value) <= 1e-4

    def test_report_bytes_do_not_depend_on_jobs(self):
        dataset = self.dataset()
        config = ExperimentConfig(
            model_family="kde", feature_set=("IOI", "OT"), weights=(0.5, 2.0), n_groups=4
        )
        assert run_cv(dataset, config, jobs=1).to_json() == run_cv(dataset, config, jobs=3).to_json()

    def test_empty_training_pool_raises(self):
        # b's OT values all sit in group 0, so b's training pool for group 0 is empty
        dataset = DeviationDataset(
            n_positions=16,
            by_performer={
                "a": {"OT": point_series("a", np.linspace(0.0, 1.0, 16), "OT")},
                "b": {"OT": point_series("b", [0.2, 0.4, 0.6], "OT", positions=[0, 1, 2])},
            },
        )
        config = ExperimentConfig(model_family="kde", feature_set=("OT",), n_groups=4)
        with pytest.raises(ValueError, match="cannot fit a KDE to an empty series"):
            run_cv(dataset, config)

    def test_non_finite_bandwidth_is_rejected_by_kind(self):
        for bad in (math.inf, math.nan, 0.0):
            with pytest.raises(ValueError, match="bandwidth for IOI must be positive and finite"):
                ExperimentConfig(
                    model_family="kde",
                    feature_set=("OT", "IOI"),
                    n_groups=4,
                    bandwidths=(("IOI", bad), ("OT", 1.2)),
                )

    def test_partial_bandwidths_run_with_defaults_for_the_rest(self):
        dataset = self.dataset()
        partial = ExperimentConfig(
            model_family="kde", feature_set=("OT", "IOI"), n_groups=4, bandwidths=(("IOI", 0.01),)
        )
        full = ExperimentConfig(model_family="kde", feature_set=("OT", "IOI"), n_groups=4)
        assert run_cv(dataset, partial).to_json() == run_cv(dataset, full).to_json()


class TestSweep:
    def test_subset_count_without_singletons(self):
        assert len(feature_subsets()) == 2**5 - 5 - 1 == 26

    def test_singleton_grid_shape(self):
        singles = [s for s in feature_subsets(include_singletons=True) if len(s) == 1]
        assert len(singles) == 5

    def test_sweep_ranks_by_precision_and_keeps_best_confusion(self):
        rng = np.random.default_rng(9)
        n = 48
        dataset = DeviationDataset(
            n_positions=n,
            by_performer={
                pid: {
                    "OT": point_series(pid, rng.normal(mu, 0.3, n), "OT"),
                    "DL": point_series(pid, rng.normal(2 * mu, 0.3, n), "DL"),
                }
                for pid, mu in (("a", 0.0), ("b", 1.5))
            },
        )
        config = ExperimentConfig(
            feature_set=("DL", "OT"), weights=(2.0, 0.5), n_groups=4, n_bins=8
        )
        result = sweep(
            dataset,
            config,
            model_families=("histogram",),
            subsets=[("OT",), ("DL",), ("OT", "DL")],
        )
        assert len(result.rows) == 3
        precisions = [row.precision for row in result.rows]
        assert precisions == sorted(precisions, reverse=True)
        assert result.best_report.confusion.shape == (2, 2)
        assert result.best.feature_label in ("OT", "DL", "OT+DL")
        assert result.base_report.to_json() == run_cv(dataset, config).to_json()
        # no base report when the subsets leave out one of its kinds
        assert sweep(dataset, config, ("histogram",), subsets=[("OT",)]).base_report is None

    SUBSETS = [
        ("OT",), ("DL",), ("ND",), ("OT", "DL"), ("OT", "ND"), ("DL", "ND"), ("OT", "DL", "ND")
    ]

    def empty_dl_dataset(self):
        """b has no DL values in group 0 (positions 0-9), so that trial has no DL
        test set; d's series are a's, so a and d tie exactly as candidates."""
        rng = np.random.default_rng(4)
        n = 40
        positions = np.arange(n)
        by_performer = {}
        for pid, mu in (("a", 0.0), ("b", 0.8), ("c", 1.6)):
            dl_positions = positions[10:] if pid == "b" else positions
            by_performer[pid] = {
                "OT": point_series(pid, rng.normal(mu, 1.0, n), "OT"),
                "DL": point_series(pid, rng.normal(-mu, 1.5, len(dl_positions)), "DL", dl_positions),
                "ND": point_series(pid, rng.normal(0.5 * mu, 1.0, n), "ND"),
            }
        by_performer["d"] = {
            kind: replace(series, performer_id="d") for kind, series in by_performer["a"].items()
        }
        return DeviationDataset(n_positions=n, by_performer=by_performer)

    def test_rows_equal_run_cv_per_subset_with_an_empty_test_group(self):
        dataset = self.empty_dl_dataset()
        config = ExperimentConfig(feature_set=("OT", "DL"), weights=(0.7, 2.5), n_groups=4, n_bins=8)
        families = ("histogram", "kde", "gmm")
        # a one-shot iterable must serve every model family
        result = sweep(dataset, config, model_families=families, subsets=iter(self.SUBSETS), jobs=2)
        assert result.base_report.to_json() == run_cv(dataset, config).to_json()
        assert len(result.rows) == len(families) * len(self.SUBSETS)
        for row in result.rows:
            row_config = replace(
                config, model_family=row.model_family, feature_set=row.feature_set, weights=None
            )
            report = run_cv(dataset, row_config)
            scores = report.scores
            assert (row.precision, row.recall, row.f) == (
                scores.macro_precision,
                scores.macro_recall,
                scores.macro_f,
            )
            expected_skips = [{"performer": "b", "group": 0, "reason": "empty DL test series"}]
            assert list(report.skipped) == (expected_skips if "DL" in row.feature_set else [])
            assert len(report.trials) + len(report.skipped) == 4 * 4
            for trial in report.trials:
                fused = trial["fused_kl"]
                assert fused["a"] == fused["d"]
                assert trial["predicted"] == min(fused, key=lambda c: (fused[c], c))
            assert report.confusion[:, 3].sum() == 0  # d always ties with a, which wins
            if row == result.best:
                assert result.best_report.to_json() == report.to_json()

    def test_a_skipped_trial_is_logged_once_per_report_built(self, caplog):
        dataset = self.empty_dl_dataset()
        config = ExperimentConfig(feature_set=("OT", "DL"), n_groups=4, n_bins=8)

        def skip_warnings():
            return [r for r in caplog.records if r.getMessage().startswith("skipping trial (b, group 0)")]

        with caplog.at_level(logging.WARNING, logger="pianist_id.evaluation"):
            run_cv(dataset, config)
            assert len(skip_warnings()) == 1
            caplog.clear()
            result = sweep(dataset, config, ("histogram",), subsets=self.SUBSETS)
        # the 4 DL subsets are decided without reports; only the base and best reports log
        built = (result.base_report, result.best_report)
        assert len(skip_warnings()) == sum(len(r.skipped) for r in built) >= 1
