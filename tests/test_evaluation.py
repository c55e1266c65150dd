import json
import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from pianist_id import densities
from pianist_id.densities import (
    DEFAULT_BANDWIDTHS,
    GMM_MAX_ITER,
    GMM_TOL,
    fit_kde,
    kde_pdf,
    kernel_density,
    kernel_sum,
)
from pianist_id.divergence import kde_grid, kl, kl_kde, kl_on_grid
from pianist_id.evaluation import (
    MODEL_FAMILIES,
    DeviationDataset,
    EmptyTestSeriesError,
    ExperimentConfig,
    FoldSpec,
    _decide,
    _group_chunks,
    _kde_kls,
    _kind_kls,
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

    def test_a_stack_gives_each_matrix_its_scores_as_python_floats(self):
        rng = np.random.default_rng(2)
        stack = rng.integers(0, 4, size=(6, 9, 9))
        stack[0] = 0
        stack[1, :, 2] = 0  # a class never predicted
        scores = metrics(stack)
        assert scores == [metrics(m) for m in stack]
        for m, cm in zip(scores, stack):
            # the one-matrix rule in scalars: column and row sums, class means, harmonic means
            tp, col, row = np.diag(cm), cm.sum(axis=0), cm.sum(axis=1)
            precision = [float(t / c) if c else 0.0 for t, c in zip(tp, col)]
            recall = [float(t / r) if r else 0.0 for t, r in zip(tp, row)]
            macro_p, macro_r = float(np.mean(precision)), float(np.mean(recall))

            def f(p, r):
                return 2.0 * p * r / (p + r) if p + r else 0.0

            assert m.per_class_precision == tuple(precision)
            assert m.per_class_recall == tuple(recall)
            assert m.per_class_f == tuple(map(f, precision, recall))
            assert (m.macro_precision, m.macro_recall) == (macro_p, macro_r)
            assert m.macro_f == f(macro_p, macro_r)
            fields = m.per_class_precision + m.per_class_recall + m.per_class_f
            fields += (m.macro_precision, m.macro_recall, m.macro_f)
            assert {type(x) for x in fields} == {float}
        assert all(f == 0.0 for f in scores[0].per_class_f)


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

    def test_rejects_weights_that_are_all_zero(self):
        with pytest.raises(ValueError, match="fusion weights must not all be 0"):
            ExperimentConfig(weights=(0.0,) * 5)

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

    def test_rejects_a_repeated_bandwidth_kind(self):
        with pytest.raises(ValueError, match="bandwidths must not repeat kinds"):
            ExperimentConfig(model_family="kde", bandwidths=(("IOI", 0.01), ("IOI", 0.5)))

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


class TestDecide:
    def test_fused_values_are_weighted_terms_added_in_subset_order(self):
        # KLs over 1e-3..1e3; in trial 0 all are 0 (every candidate ties), and
        # each kind has one trial with no test values
        rng = np.random.default_rng(11)
        kls = {kind: 10.0 ** rng.uniform(-3, 3, (40, 4)) for kind in ("OT", "DL", "ND")}
        for i, kls_of_kind in enumerate(kls.values()):
            kls_of_kind[0] = 0.0
            kls_of_kind[1 + i] = np.nan
        # two non-zero terms add the same both ways round: only the last
        # subset tells the order of its terms apart
        subsets = [("ND", "OT"), ("OT", "DL", "ND"), ("DL",), ("ND", "DL", "OT")]
        weights = [(0.5, 2.0), (1.0, 0.0, 3.0), (1.0,), (1.0, 2.0, 0.5)]
        fused, predicted = _decide(kls, subsets, weights)
        expected = np.empty(fused.shape)
        for s, t, c in np.ndindex(expected.shape):
            total = 0.0
            for kind, w in zip(subsets[s], weights[s]):
                if w:  # a kind of weight 0 takes no part
                    total = total + w * float(kls[kind][t, c])
            expected[s, t, c] = total
        np.testing.assert_array_equal(fused, expected)  # ==, NaN where a weighted kind has no test values
        winners = np.argmin(expected, axis=2)  # ties to the first candidate
        winners[np.isnan(expected[:, :, 0])] = -1
        np.testing.assert_array_equal(predicted, winners)
        # a weighted kind of the subset without test values skips the trial;
        # DL at weight 0 in subset 1 does not
        assert (predicted[:2, 2] >= 0).all() and (predicted[2:, 2] == -1).all()
        # weights of 2, or twice the subset's, double every fused value and keep every winner
        doubled = [tuple(2 * w for w in ws) for ws in weights]
        twos = [(2.0,) * len(subset) for subset in subsets]
        for base, twice in ((weights, doubled), (None, twos)):
            fused, predicted = _decide(kls, subsets, base)
            fused2, predicted2 = _decide(kls, subsets, twice)
            np.testing.assert_array_equal(fused2, 2 * fused)
            np.testing.assert_array_equal(predicted2, predicted)


class TestClassify:
    def test_training_data_predicts_its_own_performer(self):
        rng = np.random.default_rng(1)
        config = ExperimentConfig(model_family="histogram", feature_set=("OT",), n_bins=10)
        data = {
            "a": rng.normal(0.0, 0.5, 300),
            "b": rng.normal(2.0, 0.5, 300),
            "c": rng.normal(-2.0, 0.5, 300),
        }
        train = {pid: {"OT": values} for pid, values in data.items()}
        for pid, values in data.items():
            assert classify({"OT": values}, train, config) == pid

    def test_hand_histogram_case_prefers_smaller_kl(self):
        config = ExperimentConfig(model_family="histogram", feature_set=("OT",), n_bins=2)
        test_values = np.asarray([0.25] * 88 + [0.75] * 12)
        train = {
            "a": {"OT": np.asarray([0.25] * 90 + [0.75] * 10)},
            "b": {"OT": np.asarray([0.25] * 50 + [0.75] * 50)},
        }
        assert classify({"OT": test_values}, train, config) == "a"

    def test_exact_tie_breaks_lexicographically(self):
        config = ExperimentConfig(model_family="histogram", feature_set=("OT",), n_bins=4)
        values = np.asarray([0.0, 0.5, 1.0, 1.5])
        train = {"zeta": {"OT": values}, "alpha": {"OT": values}}
        assert classify({"OT": values}, train, config) == "alpha"

    def test_weights_that_overflow_the_fused_kl_raise(self):
        rng = np.random.default_rng(2)
        config = ExperimentConfig(feature_set=("OT", "DL"), weights=(1e308, 1e308), n_bins=10)
        train = {
            pid: {kind: rng.normal(centre, 0.5, 200) for kind in ("OT", "DL")}
            for pid, centre in (("a", 0.0), ("b", 3.0))
        }
        test = {kind: rng.normal(0.0, 0.5, 200) for kind in ("OT", "DL")}
        with pytest.raises(ValueError, match="overflow the fused KL to inf"):
            classify(test, train, config)
        assert classify(test, train, replace(config, weights=(1.0, 1.0))) == "a"

    def test_empty_test_series_raises(self):
        config = ExperimentConfig(model_family="histogram", feature_set=("OT",))
        train = {"a": {"OT": np.asarray([0.0, 1.0])}}
        with pytest.raises(EmptyTestSeriesError):
            classify({"OT": np.asarray([])}, train, config)

    def test_a_kind_of_weight_0_without_test_values_is_left_out(self):
        # the README's example, with a DL series for each candidate and none in the query
        rng = np.random.default_rng(0)
        train = {"a": {"OT": rng.normal(0.0, 0.5, 300)}, "b": {"OT": rng.normal(2.0, 0.5, 300)}}
        query = {"OT": rng.normal(2.0, 0.5, 60), "DL": np.array([])}
        for pid in train:
            train[pid]["DL"] = rng.normal(0.0, 0.5, 300)
        config = ExperimentConfig(model_family="kde", feature_set=("OT", "DL"), weights=(1.0, 0.0))
        assert classify(query, train, config) == "b"
        with pytest.raises(EmptyTestSeriesError, match="^empty DL test series$"):
            classify(query, train, replace(config, weights=(1.0, 1.0)))
        # only a weighted kind is named
        with pytest.raises(EmptyTestSeriesError, match="^empty DL test series$"):
            classify({**query, "OT": np.array([])}, train, replace(config, weights=(0.0, 1.0)))

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_a_kind_of_weight_0_needs_no_training_series(self, family):
        rng = np.random.default_rng(3)
        train = {pid: {"OT": rng.normal(centre, 0.5, 300), "DL": np.array([])}
                 for pid, centre in (("a", 0.0), ("b", 2.0), ("c", 1.0))}
        query = {"OT": rng.normal(1.9, 0.5, 60), "DL": rng.normal(0.0, 0.5, 60)}
        config = ExperimentConfig(model_family=family, feature_set=("OT", "DL"), weights=(1.0, 0.0), gmm_k=2)
        expected = classify(query, train, replace(config, feature_set=("OT",), weights=None))
        assert classify(query, train, config) == expected == "b"
        with pytest.raises(ValueError, match="^empty DL training series for candidate 'a'$"):
            classify(query, train, replace(config, weights=(1.0, 1.0)))

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_no_candidates_raises(self, family):
        config = ExperimentConfig(model_family=family, feature_set=("OT",), gmm_k=1)
        with pytest.raises(ValueError, match=r"^classification needs at least 1 candidate$"):
            classify({"OT": np.linspace(0.0, 1.0, 12)}, {}, config)

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_empty_training_series_names_kind_and_candidate(self, family, monkeypatch):
        config = ExperimentConfig(model_family=family, feature_set=("OT", "DL"), gmm_k=1)
        values = np.linspace(0.0, 1.0, 12)
        train = {
            "a": {"OT": values, "DL": values},
            "b": {"OT": point_series("b", values), "DL": point_series("b", [])},
        }
        fits = []
        monkeypatch.setattr(densities, "kernel_sum", lambda *a: fits.append(a))
        monkeypatch.setattr(densities, "fit_histograms", lambda *a: fits.append(a))
        monkeypatch.setattr(densities, "fit_gmm", lambda *a, **k: fits.append(a))
        with pytest.raises(ValueError, match=r"^empty DL training series for candidate 'b'$"):
            classify({"OT": values, "DL": values}, train, config)
        assert fits == []  # raised before any fit

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_a_missing_kind_names_itself_and_its_owner(self, family):
        config = ExperimentConfig(model_family=family, feature_set=("OT", "DL"), gmm_k=1)
        values = np.linspace(0.0, 1.0, 12)
        both = {"OT": values, "DL": values}
        with pytest.raises(ValueError, match=r"^no DL training series for candidate 'b'$"):
            classify(both, {"a": both, "b": {"OT": values}}, config)
        with pytest.raises(ValueError, match=r"^no DL test series for the query$"):
            classify({"OT": values}, {"a": both, "b": both}, config)

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_agrees_with_run_cv_on_every_trial(self, family):
        rng = np.random.default_rng(23)
        n = 48
        dataset = DeviationDataset(
            n_positions=n,
            by_performer={
                pid: {
                    "OT": point_series(pid, rng.normal(mu, 1.0, n), "OT"),
                    "DL": point_series(pid, rng.normal(-mu, 2.0, n), "DL"),
                }
                for pid, mu in (("a", 0.0), ("b", 0.4), ("c", 0.8))
            },
        )
        config = ExperimentConfig(
            model_family=family, feature_set=("OT", "DL"), n_groups=4, gmm_k=2, seed=5
        )
        report = run_cv(dataset, config)
        assert len(report.trials) == 3 * 4
        assert len({trial["predicted"] for trial in report.trials}) > 1
        fold = logo_split(n, config.n_groups)
        for trial in report.trials:
            pid, g = trial["performer"], trial["group"]
            # every series holds one value per position, in position order
            in_test = fold.group_of(np.arange(n)) == g
            test = {kind: dataset.by_performer[pid][kind].values[in_test] for kind in config.feature_set}
            train = {
                candidate: {
                    kind: series.values[~in_test]
                    for kind, series in dataset.by_performer[candidate].items()
                }
                for candidate in dataset.performer_ids
            }
            assert classify(test, train, config) == trial["predicted"]
            if family == "gmm":
                # an independent pairwise reference: fit each model on its own, score each pair
                tests = {kind: fit_model(values, kind, config) for kind, values in test.items()}
                fused = {
                    candidate: sum(
                        kl(tests[kind], fit_model(values[kind], kind, config)).value
                        for kind in config.feature_set
                    )
                    for candidate, values in train.items()
                }
                assert fused == trial["fused_kl"]


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

    def test_reports_are_byte_identical_across_runs(self):
        dataset = self.disjoint_dataset()
        for family in ("histogram", "gmm"):
            config = ExperimentConfig(
                model_family=family, feature_set=("OT",), n_groups=4, n_bins=8, gmm_k=1
            )
            assert run_cv(dataset, config).to_json() == run_cv(dataset, config).to_json()

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
            values=np.arange(7.0),
            positions=positions,
            end_positions=positions + 1,
        )
        chunks = _group_chunks(series, logo_split(8, 2))
        assert [c.tolist() for c in chunks] == [[0.0, 1.0, 2.0], [4.0, 5.0, 6.0]]

    def test_a_group_only_pairs_straddle_is_empty(self):
        # groups [0, 4), [4, 8), [8, 12): the (3, 7) and (7, 9) pairs straddle
        # bounds, so the middle group holds no value
        series = DeviationSeries(
            kind="OTD",
            performer_id="a",
            values=np.asarray([10.0, 11.0, 12.0, 13.0, 14.0]),
            positions=np.asarray([0, 1, 3, 7, 9]),
            end_positions=np.asarray([1, 3, 7, 9, 10]),
        )
        chunks = _group_chunks(series, logo_split(12, 3))
        assert [c.tolist() for c in chunks] == [[10.0, 11.0], [], [14.0]]
        empty = point_series("a", [])
        assert [len(c) for c in _group_chunks(empty, logo_split(12, 3))] == [0, 0, 0]

    def test_chunks_equal_the_group_of_masks(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            n = int(rng.integers(4, 40))
            fold = logo_split(n, int(rng.integers(2, min(n, 8) + 1)))
            positions = np.flatnonzero(rng.random(n) < rng.random())
            pair = rng.random() < 0.5
            starts, ends = (positions[:-1], positions[1:]) if pair else (positions, positions)
            series = DeviationSeries("IOI" if pair else "OT", "a", rng.normal(size=len(starts)), starts, ends)
            start, end = fold.group_of(series.positions), fold.group_of(series.end_positions)
            chunks = _group_chunks(series, fold)
            assert len(chunks) == fold.n_groups
            for g, chunk in enumerate(chunks):
                assert chunk.tobytes() == series.values[(start == g) & (end == g)].tobytes()

    @pytest.mark.parametrize("positions", [np.arange(40), np.arange(-1, 19)])
    def test_a_dataset_refuses_positions_outside_its_index(self, positions):
        # unchecked, positions 0..39 would put 25 of 40 values in the last of 4
        # groups, and a negative position would fall out of every group
        series = {
            "a": {"OT": point_series("a", np.zeros(20))},
            "b": {"OT": point_series("b", np.zeros(len(positions)), positions=positions)},
        }
        with pytest.raises(ValueError, match=r"the OT series of performer 'b' has positions outside \[0, 20\)"):
            DeviationDataset(n_positions=20, by_performer=series)

    def test_a_pair_series_may_end_on_the_last_position_only(self):
        positions = np.arange(19)
        ioi = DeviationSeries("IOI", "a", np.zeros(19), positions, positions + 1)
        DeviationDataset(n_positions=20, by_performer={"a": {"IOI": ioi}, "b": {"IOI": ioi}})
        with pytest.raises(ValueError, match="the IOI series of performer 'a'"):
            DeviationDataset(n_positions=19, by_performer={"a": {"IOI": ioi}, "b": {"IOI": ioi}})

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

    def test_a_gmm_fit_that_fails_names_its_kind_performer_and_group(self):
        rng = np.random.default_rng(8)

        def dataset(b_positions):
            return DeviationDataset(
                n_positions=64,
                by_performer={
                    "a": {"OT": point_series("a", rng.normal(0.0, 1.0, 64), "OT")},
                    "b": {"OT": point_series("b", rng.normal(1.0, 1.0, len(b_positions)), "OT", b_positions)},
                },
            )

        # b has no OT values at positions 2-7: its group-0 test set holds 2
        short_test = dataset(np.r_[0:2, 8:64])
        for family in ("histogram", "kde"):
            report = run_cv(short_test, ExperimentConfig(model_family=family, feature_set=("OT",)))
            assert len(report.trials) == 16
        config = ExperimentConfig(model_family="gmm", feature_set=("OT",), gmm_k=3)
        message = "cannot fit the OT GMM to the {} of performer 'b': series of length 2 cannot support k=3"
        with pytest.raises(ValueError, match=re.escape(message.format("test group 0"))):
            run_cv(short_test, config)
        # b's values sit at positions 0-9: the pool for its group-0 trial holds 2
        with pytest.raises(ValueError, match=re.escape(message.format("training pool for test group 0"))):
            run_cv(dataset(np.arange(10)), config)

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_empty_training_pool_raises(self, family):
        # the reason is the family's own, for an empty series
        model, reason = {
            "histogram": ("histogram", "cannot fit a histogram to an empty series"),
            "kde": ("KDE", "cannot fit a KDE to an empty series"),
            "gmm": ("GMM", "series of length 0 cannot support k=1"),
        }[family]
        # b's OT values all sit in group 0, so b's training pool for group 0 is empty
        dataset = DeviationDataset(
            n_positions=16,
            by_performer={
                "a": {"OT": point_series("a", np.linspace(0.0, 1.0, 16), "OT")},
                "b": {"OT": point_series("b", [0.2, 0.4, 0.6], "OT", positions=[0, 1, 2])},
            },
        )
        config = ExperimentConfig(model_family=family, feature_set=("OT",), n_groups=4, gmm_k=1)
        with pytest.raises(ValueError) as raised:
            run_cv(dataset, config)
        assert str(raised.value) == (
            f"cannot fit the OT {model} to the training pool for test group 0 of performer 'b': {reason}"
        )

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_only_held_out_rounds_are_scored_and_fitted(self, family):
        rng = np.random.default_rng(9)
        config = ExperimentConfig(model_family=family, feature_set=("OT",), gmm_k=1)
        chunks = {pid: [rng.normal(mu, 1.0, 6) for _ in range(3)] for pid, mu in (("a", 0), ("b", 1))}
        full = _kind_kls("OT", chunks, config, range(3))
        for g in range(3):
            rows = _kind_kls("OT", chunks, config, (g,))
            scored = np.arange(6) % 3 == g
            assert rows[scored].tobytes() == full[scored].tobytes()
            assert np.isnan(rows[~scored]).all()
        # c's values all sit in group 0, so only round 0 has a pool that cannot be fitted
        chunks["c"] = [rng.normal(0.5, 1.0, 6), np.empty(0), np.empty(0)]
        with pytest.raises(ValueError):
            _kind_kls("OT", chunks, config, range(3))
        rows = _kind_kls("OT", chunks, config, (1, 2))
        assert np.isfinite(rows[[1, 2, 4, 5]]).all()
        assert np.isnan(rows[[0, 3, 6, 7, 8]]).all()

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

    @staticmethod
    def one_trial_at_a_time(chunks, h, held_out=None, kernel=kernel_sum):
        """``_kde_kls`` built trial by trial: a list of group ``kernel`` sums per
        performer, each pool summed from a list of its groups' vectors, and
        each (test, candidate) pair scored on its own."""
        pids = list(chunks)
        n_groups = len(chunks[pids[0]])
        values = np.concatenate([c for pid in pids for c in chunks[pid]])
        grid = kde_grid(float(values.min()), float(values.max()), (h,))
        sums = {pid: [kernel(c, h, grid) for c in chunks[pid]] for pid in pids}
        table = np.full((len(pids) * n_groups, len(pids)), np.nan)
        for i, pid in enumerate(pids):
            for g in range(n_groups) if held_out is None else held_out:
                if len(chunks[pid][g]) == 0:
                    continue
                test = kernel_density(sums[pid][g], len(chunks[pid][g]), h)
                others = [k for k in range(n_groups) if k != g]
                for c, candidate in enumerate(pids):
                    pool = kernel_density(
                        np.sum([sums[candidate][k] for k in others], axis=0),
                        sum(len(chunks[candidate][k]) for k in others),
                        h,
                    )
                    table[i * n_groups + g, c] = kl_on_grid(test, pool, grid).value
        return table

    def test_table_equals_one_trial_at_a_time_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(5)
        empty_tests = 0
        for _ in range(20):
            n_groups, h = int(rng.integers(2, 7)), float(rng.uniform(0.05, 1.0))
            chunks = {}
            for pid in ("a", "b", "c", "d")[: int(rng.integers(2, 5))]:
                # some test groups are empty; two groups with values keep every pool non-empty
                sizes = rng.integers(0, 8, n_groups)
                sizes[rng.choice(n_groups, 2, replace=False)] += 1
                empty_tests += int(np.sum(sizes == 0))
                mu, sigma = rng.normal(0, 2), rng.uniform(0.05, 2)
                chunks[pid] = [rng.normal(mu, sigma, size) for size in sizes]
            expected = self.one_trial_at_a_time(chunks, h).tobytes()
            assert _kde_kls("OT", chunks, h, held_out=range(n_groups)).tobytes() == expected
            with monkeypatch.context() as patch:
                # one test per kl_rows call, and many kernel_sum chunks
                patch.setattr(densities, "KERNEL_BATCH", 1)
                patch.setattr(densities, "KERNEL_CHUNK", 1)
                assert _kde_kls("OT", chunks, h, held_out=range(n_groups)).tobytes() == expected
        assert empty_tests > 5

    def test_drifting_table_equals_every_term_sums_bit_for_bit(self):
        def every_term(samples, h, xs):
            z = (xs[:, None] - samples) / h
            return np.exp((-0.5 * z) * z).sum(-1)

        rng = np.random.default_rng(10)
        h, n_groups = 1.2, 8
        # onset deviations that drift with time, each group over its own 70 bandwidths:
        # a test's middle lies about 35 bandwidths from its pools, whose tails decide the KL
        chunks = {
            pid: [rng.uniform(g * 84.0, (g + 1) * 84.0, 40 + 3 * g) + i for g in range(n_groups)]
            for i, pid in enumerate("abc")
        }
        values = np.concatenate([c for cs in chunks.values() for c in cs])
        grid = kde_grid(values.min(), values.max(), (h,))
        # a group's window, its span and REACH bandwidths each side, covers under a third of the grid
        widest = max(np.ptp(c) for cs in chunks.values() for c in cs) + 2 * densities.REACH * h
        assert widest < np.ptp(grid) / 3
        expected = self.one_trial_at_a_time(chunks, h, kernel=every_term)
        assert np.isfinite(expected).all()
        assert _kde_kls("OT", chunks, h, range(n_groups)).tobytes() == expected.tobytes()

    def test_stacked_layouts_equal_one_trial_at_a_time_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(8)
        h = 0.3

        def check(chunks, held_out=None):
            n_groups = len(next(iter(chunks.values())))
            expected = self.one_trial_at_a_time(chunks, h, held_out).tobytes()
            rounds = range(n_groups) if held_out is None else held_out
            assert _kde_kls("OT", chunks, h, rounds).tobytes() == expected

        # every chunk of the kind has one length, as in kde_cv: one stacked class
        check({pid: [rng.normal(i, 1.0, 10) for _ in range(8)] for i, pid in enumerate("abcd")})
        # held out as a single round, as classify scores its query
        train = {pid: rng.normal(i, 1.0, 30) for i, pid in enumerate("abc")}
        check({pid: [t, rng.normal(0.5, 1.0, 6) if pid == "a" else np.empty(0)]
               for pid, t in train.items()}, held_out=(1,))
        # a bound so small that six 3-value rows take three passes while each
        # 7-value row exceeds it and its grid is chunked; kl_rows takes 2 tests a call
        sizes = {"a": [3, 3, 7, 3], "b": [3, 7, 3, 7], "c": [7, 3, 3, 0]}
        chunks = {pid: [rng.normal(i, 1.0, k) for k in ks] for i, (pid, ks) in enumerate(sizes.items())}
        values = np.concatenate([c for cs in chunks.values() for c in cs])
        n_points = len(kde_grid(values.min(), values.max(), (h,)))
        monkeypatch.setattr(densities, "KERNEL_BATCH", 6 * n_points)
        monkeypatch.setattr(densities, "KERNEL_CHUNK", 7 * 10)
        check(chunks)

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
        singles = [s for s in feature_subsets(min_size=1) if len(s) == 1]
        assert len(singles) == 5

    def test_sweep_ranks_by_precision_and_reports_the_config(self):
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
        result = sweep(dataset, config, subsets=[("OT",), ("DL",), ("OT", "DL")])
        assert len(result.rows) == 3
        precisions = [row.precision for row in result.rows]
        assert precisions == sorted(precisions, reverse=True)
        assert result.rows[0].feature_label in ("OT", "DL", "OT+DL")
        expected = run_cv(dataset, config).to_json()
        assert result.report.to_json() == expected
        # the report covers the config even when the subsets leave out one of its kinds
        assert sweep(dataset, config, subsets=[("OT",)]).report.to_json() == expected
        with pytest.raises(ValueError, match="sweep needs at least one feature subset"):
            sweep(dataset, config, subsets=[])

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
        for family in ("histogram", "kde", "gmm"):
            config = ExperimentConfig(
                model_family=family,
                feature_set=("OT", "DL"),
                weights=(0.7, 2.5),
                n_groups=4,
                n_bins=8,
            )
            # a one-shot iterable serves the table and every row
            result = sweep(dataset, config, subsets=iter(self.SUBSETS))
            assert result.report.to_json() == run_cv(dataset, config).to_json()
            assert len(result.rows) == len(self.SUBSETS)
            for row in result.rows:
                report = run_cv(dataset, replace(config, feature_set=row.feature_set, weights=None))
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

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_stacked_rows_are_bit_equal_to_run_cv_per_subset(self, family):
        dataset = self.empty_dl_dataset()
        config = ExperimentConfig(model_family=family, feature_set=("ND",), n_groups=4, n_bins=8)
        # out of canonical order, of every size, and with the skipped DL trial
        subsets = [("ND", "OT"), ("DL",), ("ND", "DL", "OT"), ("OT",), ("DL", "OT"), ("ND",)]
        rows = {row.feature_set: row for row in sweep(dataset, config, subsets=subsets).rows}
        assert sorted(rows) == sorted(subsets)
        for subset in subsets:
            scores = run_cv(dataset, replace(config, feature_set=subset)).scores
            got = (rows[subset].precision, rows[subset].recall, rows[subset].f)
            expected = (scores.macro_precision, scores.macro_recall, scores.macro_f)
            assert [type(x) for x in got] == [float] * 3
            assert [x.hex() for x in got] == [x.hex() for x in expected], subset

    def test_a_bad_subset_raises_the_configs_error(self):
        dataset = self.empty_dl_dataset()
        config = ExperimentConfig(feature_set=("OT",), n_groups=4, n_bins=8)
        cases = [
            ([("OT",), ("DL", "XX")], "unknown feature kind 'XX'; choose from OT,IOI,OTD,DL,ND"),
            ([("OT",), ()], "feature_set must be non-empty"),
            ([("OT",), ("DL", "OT", "DL")], "feature_set must not repeat kinds"),
        ]
        for subsets, message in cases:
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                sweep(dataset, config, subsets=subsets)

    def test_a_skipped_trial_is_logged_once_per_report_built(self, caplog):
        dataset = self.empty_dl_dataset()
        config = ExperimentConfig(feature_set=("OT", "DL"), n_groups=4, n_bins=8)

        def skip_warnings():
            return [r for r in caplog.records if r.getMessage().startswith("skipping trial (b, group 0)")]

        with caplog.at_level(logging.WARNING, logger="pianist_id.evaluation"):
            run_cv(dataset, config)
            assert len(skip_warnings()) == 1
            caplog.clear()
            result = sweep(dataset, config, subsets=self.SUBSETS)
        # the 4 DL subsets are decided without reports; only the config's report logs
        assert len(skip_warnings()) == len(result.report.skipped) == 1


class TestReportJson:
    """``to_json`` writes its trials with a format string; ``json`` is the oracle."""

    # json escapes, % signs for the format string, a comma as in the KL text,
    # and the text json gives a value's place
    IDS = ('a"q', "b\\s", "c%d%%", "d%(x)s", "e,f", "é", "Ω\n", "\0")

    @staticmethod
    def oracle(report):
        return json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def dataset(self, ids=IDS, n=40):
        rng = np.random.default_rng(12)
        return DeviationDataset(
            n_positions=n,
            by_performer={
                pid: {
                    kind: point_series(pid, rng.normal(0.3 * i + j, 1.0, n), kind)
                    for j, kind in enumerate(("ND", "OT", "DL"))
                }
                for i, pid in enumerate(ids)
            },
        )

    @pytest.mark.parametrize("family", MODEL_FAMILIES)
    def test_every_family_with_zero_and_explicit_weights(self, family):
        config = ExperimentConfig(
            model_family=family, feature_set=("ND", "OT", "DL"), weights=(0.0, 1.5, 0.25),
            n_groups=4, n_bins=6, gmm_k=2,
        )
        report = run_cv(self.dataset(), config)
        assert len(report.trials) == len(self.IDS) * 4
        assert report.to_json() == self.oracle(report)

    def test_skipped_trials(self):
        dataset = TestSweep().empty_dl_dataset()
        config = ExperimentConfig(feature_set=("OT", "DL"), n_groups=4, n_bins=8)
        report = run_cv(dataset, config)
        assert len(report.skipped) == 1
        assert report.to_json() == self.oracle(report)

    def test_a_report_whose_trials_are_all_skipped(self):
        # OT only in groups 0-1 and DL only in groups 2-3: every trial lacks one test set
        positions = np.arange(40)
        dataset = DeviationDataset(
            n_positions=40,
            by_performer={
                pid: {
                    "OT": point_series(pid, np.linspace(0, 1, 20) + i, "OT", positions[:20]),
                    "DL": point_series(pid, np.linspace(0, 1, 20) - i, "DL", positions[20:]),
                }
                for i, pid in enumerate(("x%y", "z"))
            },
        )
        report = run_cv(dataset, ExperimentConfig(feature_set=("OT", "DL"), n_groups=4, n_bins=4))
        assert report.trials == () and len(report.skipped) == 8
        assert report.to_json() == self.oracle(report)
        assert json.loads(report.to_json())["trials"] == []

    def test_weights_that_overflow_the_fused_kl_raise(self):
        config = ExperimentConfig(
            feature_set=("ND", "OT", "DL"), weights=(1e308, 0.0, 1e308), n_groups=4, n_bins=6
        )
        with pytest.raises(ValueError, match="overflow the fused KL to inf; only the weights' ratios"):
            run_cv(self.dataset(), config)
        # the same ratios, scaled down, decide every trial
        scaled = replace(config, weights=(1.0, 0.0, 1.0))
        assert len(run_cv(self.dataset(), scaled).trials) == len(self.IDS) * 4

    def test_signed_zero_and_non_finite_kls(self):
        report = run_cv(self.dataset(self.IDS[:3]), ExperimentConfig(
            feature_set=("OT", "DL"), n_groups=4, n_bins=6
        ))
        kls, fused = {kind: kl.copy() for kind, kl in report.kls.items()}, report.fused.copy()
        values = (-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1e-7)
        for t, value in enumerate(values):  # trial t's candidates IDS[1] and IDS[2]
            fused[t, 1] = value
            kls["DL"][t, 2] = value
        edited = replace(report, kls=kls, fused=fused)
        text = edited.to_json()
        assert text == self.oracle(edited)
        assert '": -0.0,' in text and "NaN" in text and "-Infinity" in text
