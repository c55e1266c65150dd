"""Leave-one-group-out cross-validation with minimum-KL classification.

Each performer's aligned positions are split into contiguous chronological
groups. For every (performer, group) trial the group's deviations form the
test set; every candidate trains on their own remaining groups, so no aligned
position is shared between a test set and any training pool. The candidate
whose fused divergence from the test distribution is smallest wins.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import combinations, product
from typing import Iterable, Mapping

import numpy as np

from . import densities, divergence
from .alignment import AlignedNoteTable
from .features import KINDS, DeviationSeries, NormPerformance, extract_deviations

log = logging.getLogger(__name__)

MODEL_FAMILIES = ("histogram", "kde", "gmm")

DEFAULT_N_GROUPS = 8


class EmptyTestSeriesError(ValueError):
    """A selected feature has no values in the test group."""


@dataclass(frozen=True)
class FoldSpec:
    """Contiguous position ranges (half-open) partitioning [0, n_positions)."""

    n_positions: int
    groups: tuple[tuple[int, int], ...]

    def __post_init__(self):
        expected = 0
        for start, end in self.groups:
            if start != expected or end <= start:
                raise ValueError("groups must be contiguous, non-empty and ordered")
            expected = end
        if expected != self.n_positions:
            raise ValueError("groups must cover all positions")

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def group_of(self, positions: np.ndarray) -> np.ndarray:
        starts = np.asarray([g[0] for g in self.groups])
        return np.searchsorted(starts, positions, side="right") - 1


def logo_split(n_positions: int, n_groups: int = DEFAULT_N_GROUPS) -> FoldSpec:
    """Contiguous chronological blocks: floor(N/g) positions per group, with
    the last group absorbing the remainder."""
    if n_positions < n_groups:
        raise ValueError(f"cannot split {n_positions} positions into {n_groups} groups")
    if n_groups < 2:
        raise ValueError("need at least 2 groups")
    base = n_positions // n_groups
    bounds = [i * base for i in range(n_groups)] + [n_positions]
    groups = tuple((bounds[i], bounds[i + 1]) for i in range(n_groups))
    return FoldSpec(n_positions=n_positions, groups=groups)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines one classification experiment."""

    model_family: str = "histogram"
    feature_set: tuple[str, ...] = KINDS
    weights: tuple[float, ...] | None = None
    n_groups: int = DEFAULT_N_GROUPS
    n_bins: int = densities.DEFAULT_N_BINS
    # (kind, KDE bandwidth) pairs; kinds left out take ``DEFAULT_BANDWIDTHS``
    bandwidths: tuple[tuple[str, float], ...] = ()
    gmm_k: int = densities.DEFAULT_GMM_K
    seed: int = 0

    def __post_init__(self):
        """Reject every bad setting here, before any input is read."""
        if self.model_family not in MODEL_FAMILIES:
            raise ValueError(f"unknown model family {self.model_family!r}")
        if not self.feature_set:
            raise ValueError("feature_set must be non-empty")
        if len(set(self.feature_set)) != len(self.feature_set):
            raise ValueError("feature_set must not repeat kinds")
        for kind in self.feature_set:
            if kind not in KINDS:
                raise ValueError(f"unknown feature kind {kind!r}; choose from {','.join(KINDS)}")
        object.__setattr__(self, "feature_set", tuple(self.feature_set))
        if self.weights is not None:
            if len(self.weights) != len(self.feature_set):
                raise ValueError(
                    f"got {len(self.weights)} weights for {len(self.feature_set)} features"
                )
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
            if not all(math.isfinite(w) and w >= 0 for w in self.weights):
                raise ValueError("fusion weights must be finite and non-negative")
        if self.n_groups < 2:
            raise ValueError(f"need at least 2 groups, got {self.n_groups}")
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {self.n_bins}")
        if self.gmm_k < 1:
            raise ValueError(f"gmm_k must be >= 1, got {self.gmm_k}")
        if self.gmm_k > densities.GMM_K_CAP:
            raise ValueError(f"gmm_k={self.gmm_k} exceeds the component cap {densities.GMM_K_CAP}")
        bandwidths = dict(self.bandwidths)
        for kind in bandwidths:
            if kind not in KINDS:
                raise ValueError(f"unknown feature kind in bandwidths: {kind!r}")
        bandwidths = {**densities.DEFAULT_BANDWIDTHS, **bandwidths}
        checked = {kind: densities.check_bandwidth(h, kind) for kind, h in bandwidths.items()}
        object.__setattr__(self, "bandwidths", tuple(sorted(checked.items())))

    @property
    def effective_weights(self) -> tuple[float, ...]:
        return self.weights if self.weights is not None else (1.0,) * len(self.feature_set)

    def bandwidth_for(self, kind: str) -> float:
        return dict(self.bandwidths)[kind]

    def to_json_dict(self) -> dict:
        return {
            "model_family": self.model_family,
            "feature_set": list(self.feature_set),
            "weights": list(self.effective_weights),
            "n_groups": self.n_groups,
            "n_bins": self.n_bins,
            "bandwidths": {k: v for k, v in self.bandwidths},
            "gmm_k": self.gmm_k,
            "gmm_tol": densities.GMM_TOL,
            "gmm_max_iter": densities.GMM_MAX_ITER,
            "seed": self.seed,
        }


def _model_seed(seed: int, kind: str) -> int:
    state = np.random.SeedSequence([seed, KINDS.index(kind)]).generate_state(1)
    return int(state[0])


def fit_model(values, kind: str, config: ExperimentConfig):
    """Fit the configured family's model to a value series of one feature."""
    if config.model_family == "histogram":
        return densities.fit_histogram(values, config.n_bins)
    if config.model_family == "kde":
        return densities.fit_kde(values, config.bandwidth_for(kind))
    return densities.fit_gmm(values, config.gmm_k, seed=_model_seed(config.seed, kind))


def classify(
    test_series: Mapping[str, object],
    train_models: Mapping[str, Mapping[str, object]],
    config: ExperimentConfig,
) -> str:
    """Minimum fused-KL candidate for the test deviations.

    Test models are fitted with the same family and hyperparameters as the
    training models; ties break to the lexicographically smallest id.
    """
    candidates = sorted(train_models)
    kls = {}
    for kind in config.feature_set:
        values = np.asarray(getattr(test_series[kind], "values", test_series[kind]))
        row = [math.nan] * len(candidates)  # no test values: _decide skips the trial
        if len(values):
            test = fit_model(values, kind, config)
            row = [divergence.kl(test, train_models[pid][kind]).value for pid in candidates]
        kls[kind] = np.asarray([row])
    _, predicted = _decide(kls, config)
    if predicted[0] < 0:
        raise EmptyTestSeriesError(_skip_reason(kls, config, 0))
    return candidates[predicted[0]]


def _decide(kls: Mapping[str, np.ndarray], config: ExperimentConfig):
    """Fused KLs and the winner of every trial, for ``config``'s feature set and weights.

    ``kls[kind]`` holds one row per trial and one column per candidate, NaN
    in a trial with no test values of that kind. Returns the fused KL of
    every (trial, candidate), summed with ``divergence.fuse``, and per trial
    the column of the smallest, ties to the first (smallest id); -1 where a
    kind of the set has no test values, so the trial is skipped.
    """
    fused = divergence.fuse([kls[kind] for kind in config.feature_set], config.effective_weights)
    predicted = np.argmin(fused, axis=1)
    predicted[np.isnan(fused[:, 0])] = -1
    return fused, predicted


def _skip_reason(kls: Mapping[str, np.ndarray], config: ExperimentConfig, trial: int) -> str:
    kind = next(kind for kind in config.feature_set if np.isnan(kls[kind][trial, 0]))
    return f"empty {kind} test series"


@dataclass(frozen=True)
class Metrics:
    per_class_precision: tuple[float, ...]
    per_class_recall: tuple[float, ...]
    per_class_f: tuple[float, ...]
    macro_precision: float
    macro_recall: float
    macro_f: float


def f_score(precision: float, recall: float) -> float:
    """Harmonic mean; 0 when both inputs are 0."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def metrics(confusion) -> Metrics:
    """Per-class and macro precision/recall/F from a confusion matrix.

    Rows are true labels, columns predictions. Per-class precision divides by
    the column sum, recall by the row sum (0 when the denominator is 0); macro
    scores are unweighted class means and the macro F is the harmonic mean of
    macro precision and macro recall.
    """
    cm = np.asarray(confusion)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ValueError(f"confusion matrix must be square, got shape {cm.shape}")
    if np.any(cm < 0) or not np.issubdtype(cm.dtype, np.integer):
        raise ValueError("confusion matrix must hold non-negative integers")
    tp = np.diag(cm).astype(np.float64)
    col = cm.sum(axis=0).astype(np.float64)
    row = cm.sum(axis=1).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(col > 0, tp / col, 0.0)
        recall = np.where(row > 0, tp / row, 0.0)
    per_f = tuple(f_score(p, r) for p, r in zip(precision, recall))
    macro_p = float(precision.mean())
    macro_r = float(recall.mean())
    return Metrics(
        per_class_precision=tuple(float(p) for p in precision),
        per_class_recall=tuple(float(r) for r in recall),
        per_class_f=per_f,
        macro_precision=macro_p,
        macro_recall=macro_r,
        macro_f=f_score(macro_p, macro_r),
    )


@dataclass(frozen=True)
class DeviationDataset:
    """Per-performer deviation series over a shared position index."""

    n_positions: int
    by_performer: Mapping[str, Mapping[str, DeviationSeries]]

    @classmethod
    def from_table(
        cls,
        table: AlignedNoteTable,
        norm: NormPerformance | None = None,
        kinds: Iterable[str] = KINDS,
    ) -> "DeviationDataset":
        return cls(
            n_positions=table.n_positions,
            by_performer=extract_deviations(table, norm, kinds),
        )

    @property
    def performer_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.by_performer))


@dataclass(frozen=True)
class EvaluationReport:
    performer_ids: tuple[str, ...]
    confusion: np.ndarray
    scores: Metrics
    trials: tuple[dict, ...]
    skipped: tuple[dict, ...]
    config: ExperimentConfig

    def normalized_confusion(self) -> np.ndarray:
        row_sums = self.confusion.sum(axis=1, keepdims=True)
        return np.divide(
            self.confusion,
            row_sums,
            out=np.zeros_like(self.confusion, dtype=np.float64),
            where=row_sums > 0,
        )

    def to_json_dict(self) -> dict:
        return {
            "performers": list(self.performer_ids),
            "config": self.config.to_json_dict(),
            "confusion": self.confusion.tolist(),
            "confusion_normalized": self.normalized_confusion().tolist(),
            "metrics": {
                "per_class": {
                    pid: {
                        "precision": self.scores.per_class_precision[i],
                        "recall": self.scores.per_class_recall[i],
                        "f_score": self.scores.per_class_f[i],
                    }
                    for i, pid in enumerate(self.performer_ids)
                },
                "macro_precision": self.scores.macro_precision,
                "macro_recall": self.scores.macro_recall,
                "macro_f_score": self.scores.macro_f,
            },
            "trials": list(self.trials),
            "skipped": list(self.skipped),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def _value_groups(series: DeviationSeries, fold: FoldSpec) -> np.ndarray:
    """Group id per value; -1 when a successor pair straddles group bounds."""
    start_groups = fold.group_of(series.positions)
    end_groups = fold.group_of(series.end_positions)
    return np.where(start_groups == end_groups, start_groups, -1)


def run_cv(
    dataset: DeviationDataset, config: ExperimentConfig, jobs: int = 1
) -> EvaluationReport:
    """Exhaustive LOGO cross-validation over every (performer, group) pair.

    For a trial with test group g, every candidate (the test performer
    included) trains on their remaining groups pooled; deviations whose
    successor spans two groups belong to neither side. The report is
    deterministic for a fixed config and independent of ``jobs``.
    """
    return _report(dataset, _kl_table(dataset, config, jobs), config)


def _kl_table(dataset: DeviationDataset, config: ExperimentConfig, jobs: int):
    """``{kind: KL array}`` over every (performer, group) trial.

    Row ``p * n_groups + g`` is the trial of performer p (in id order) with
    test group g, column c the candidate c; a kind with no test values in a
    trial leaves its row NaN. Per kind, the trial tests the performer's
    group-g values against each candidate's pool of their other groups. Each
    model and KL is made once, so one table serves every feature subset and
    weighting of these kinds. Histograms are fitted and scored in stacked
    passes (``_histogram_kls``); KDEs and GMMs go through the family's pieces
    (``_family``), where ``jobs`` threads compute the performers' KDE kernel
    sums and everything else runs one group at a time in the calling thread.
    """
    if len(dataset.performer_ids) < 2:
        raise ValueError("cross-validation needs at least 2 performers")
    performer_ids = dataset.performer_ids
    fold = logo_split(dataset.n_positions, config.n_groups)
    table = {}
    for kind in config.feature_set:
        # chunks[pid][g]: the values of trial (pid, g)'s test set
        chunks = {
            pid: _group_chunks(dataset.by_performer[pid][kind], fold) for pid in performer_ids
        }
        if config.model_family == "histogram":
            table[kind] = _histogram_kls(chunks, config.n_bins)
        else:
            table[kind] = _model_kls(kind, chunks, config, jobs)
    return table


def _histogram_kls(chunks, n_bins: int) -> np.ndarray:
    """One kind's ``_kl_table`` array for the histogram family.

    Every grouped value is ranked once, under its group and under its
    performer (``densities.RankedValues``). A model's bin counts are counts of
    values below its edges, and a pool's are its performer's total less the
    held-out group's, exact in integers. All models are fitted in one
    ``fit_histograms`` pass, in the order one-by-one fitting meets them (per
    group, every pool, then every non-empty test), so the first that cannot
    be fitted raises the same error. Every (test, candidate) pair is scored in
    one ``divergence.kl_histogram_rows`` pass.
    """
    pids = list(chunks)
    n, n_groups = len(pids), len(chunks[pids[0]])
    sizes = np.asarray([[len(c) for c in chunks[pid]] for pid in pids])
    values = np.concatenate([c for pid in pids for c in chunks[pid]])
    groups = np.arange(n * n_groups)  # label of performer p's group g: p * n_groups + g
    ranked = densities.RankedValues(
        values,
        (np.repeat(groups, sizes.ravel()), np.repeat(n * n_groups + np.arange(n), sizes.sum(axis=1))),
        n * n_groups + n,
    )
    lo = np.asarray([[c.min() if len(c) else np.inf for c in chunks[pid]] for pid in pids])
    hi = np.asarray([[c.max() if len(c) else -np.inf for c in chunks[pid]] for pid in pids])
    others = ~np.eye(n_groups, dtype=bool)  # others[g]: the groups of trial g's pools
    pool_lo = np.where(others, lo[:, None, :], np.inf).min(axis=2)
    pool_hi = np.where(others, hi[:, None, :], -np.inf).max(axis=2)

    # one model per (group, is_test, performer) that exists, in fitting order
    exists = np.stack((np.ones(sizes.T.shape, dtype=bool), sizes.T > 0), axis=1)
    g, is_test, p = np.nonzero(exists)
    is_test = is_test == 1
    pool = ~is_test

    def count_below(edges):
        below = ranked.below(p * n_groups + g, edges)
        below[pool] = ranked.below(n * n_groups + p[pool], edges[pool]) - below[pool]
        return below

    fitted = densities.fit_histograms(
        np.where(is_test, lo[p, g], pool_lo[p, g]),
        np.where(is_test, hi[p, g], pool_hi[p, g]),
        np.where(is_test, sizes[p, g], sizes.sum(axis=1)[p] - sizes[p, g]),
        count_below,
        n_bins,
    )
    row = np.zeros(exists.shape, dtype=np.intp)
    row[exists] = np.arange(len(g))
    test_p, test_g = np.nonzero(sizes)  # the trials with test values, in table order
    tests, pools = row[test_g, 1, test_p].repeat(n), row[test_g, 0].ravel()
    kls = divergence.kl_histogram_rows(
        replace(fitted, edges=fitted.edges[tests], masses=fitted.masses[tests]),
        replace(fitted, edges=fitted.edges[pools], masses=fitted.masses[pools]),
    )
    table = np.full((n * n_groups, n), np.nan)
    table[test_p * n_groups + test_g] = np.reshape(kls, (len(test_p), n))
    return table


def _model_kls(kind: str, chunks, config: ExperimentConfig, jobs: int) -> np.ndarray:
    """One kind's ``_kl_table`` array for the KDE or GMM family, one test group at a time."""
    performer_ids = list(chunks)
    n_groups = len(chunks[performer_ids[0]])
    part, pool, model, against = _family(kind, chunks, config)
    if part is None:
        parts = chunks
    else:
        by_pid = _map(lambda pid: [part(c) for c in chunks[pid]], performer_ids, jobs)
        parts = dict(zip(performer_ids, by_pid))
    table = np.full((len(performer_ids) * n_groups, len(performer_ids)), np.nan)
    for g in range(n_groups):
        score = against(
            [model(pool([parts[pid][k] for k in range(n_groups) if k != g])) for pid in performer_ids]
        )
        for i, pid in enumerate(performer_ids):
            if len(chunks[pid][g]):
                table[i * n_groups + g] = score(model(parts[pid][g]))
    return table


def _family(kind: str, chunks, config: ExperimentConfig):
    """``(part, pool, model, against)`` for ``_model_kls``: the family's pieces for one kind.

    ``against(train)`` takes one model per candidate and returns the function
    that maps a test model to its KL from each of them, in order. GMMs take a
    group's values as its part (``part`` is None), pool by concatenation, fit
    with ``fit_model`` and compare with ``divergence.kl``.
    KDEs work on one shared grid per kind, spanning all of its grouped values
    widened by 5 bandwidths, with the fewest points that keep the step at or
    below h/4; it depends on neither the feature subset nor the weights. A
    group's part is its exact kernel sum on that grid with its size; a pool is
    the sum of the other groups' vectors, never the total minus the group,
    which would cancel in the tails that decide the KL. The candidates'
    densities are stacked once per test group, and ``divergence.kl_rows``
    scores a test density against all of them in one pass.
    """
    if config.model_family != "kde":
        return (
            None,
            np.concatenate,
            lambda values: fit_model(values, kind, config),
            lambda train: lambda test: [divergence.kl(test, q).value for q in train],
        )
    for pid_chunks in chunks.values():
        sizes = [len(c) for c in pid_chunks]
        if any(n == sum(sizes) for n in sizes):  # an empty training pool
            raise ValueError(densities.EMPTY_KDE_MESSAGE)
    h = config.bandwidth_for(kind)
    values = [c for pid_chunks in chunks.values() for c in pid_chunks if len(c)]
    grid = divergence.kde_grid(
        min(float(c.min()) for c in values),
        max(float(c.max()) for c in values),
        pad=5.0 * h,
        max_step=h / 4.0,
    )
    n_values = sum(len(c) for c in values)
    log.debug(
        "KDE grid %s: lo %r hi %r, %d points, step/h %.4g, %d kernel evaluations",
        kind, float(grid[0]), float(grid[-1]), len(grid),
        (grid[1] - grid[0]) / h, n_values * len(grid),
    )

    def against(train):
        stacked = np.stack(train)
        return lambda test: divergence.kl_rows(test, stacked, grid)

    return (
        lambda values: (densities.kernel_sum(values, h, grid), len(values)),
        lambda parts: (np.sum([s for s, _ in parts], axis=0), sum(n for _, n in parts)),
        lambda part: densities.kernel_density(*part, h),
        against,
    )


def _map(fn, items, jobs: int) -> list:
    """``[fn(item) for item in items]``, over ``jobs`` threads when jobs > 1."""
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as executor:
            return list(executor.map(fn, items))
    return [fn(item) for item in items]


def _group_chunks(series: DeviationSeries, fold: FoldSpec) -> list[np.ndarray]:
    """The series' values per group; a value whose pair straddles groups is in none."""
    groups = _value_groups(series, fold)
    return [series.values[groups == g] for g in range(fold.n_groups)]


def _confusion(predicted: np.ndarray, n_groups: int) -> np.ndarray:
    """Confusion matrix of ``_decide``'s winners; row ``t // n_groups`` is trial t's performer."""
    n = predicted.shape[0] // n_groups
    decided = predicted >= 0
    confusion = np.zeros((n, n), dtype=np.int64)
    np.add.at(confusion, (np.flatnonzero(decided) // n_groups, predicted[decided]), 1)
    return confusion


def _report(dataset: DeviationDataset, table, config: ExperimentConfig) -> EvaluationReport:
    """Decide every trial of a ``_kl_table`` for one feature set and weighting,
    with one logged warning per skipped trial."""
    performer_ids = dataset.performer_ids
    fused, predicted = _decide(table, config)
    trials, skipped = [], []
    for t, (pid, g) in enumerate(product(performer_ids, range(config.n_groups))):
        if predicted[t] < 0:
            reason = _skip_reason(table, config, t)
            log.warning("skipping trial (%s, group %d): %s", pid, g, reason)
            skipped.append({"performer": pid, "group": g, "reason": reason})
            continue
        per_kind = {kind: table[kind][t].tolist() for kind in config.feature_set}
        trials.append({
            "performer": pid,
            "group": g,
            "predicted": performer_ids[predicted[t]],
            "fused_kl": dict(zip(performer_ids, fused[t].tolist())),
            "feature_kl": {
                c: {kind: row[i] for kind, row in per_kind.items()}
                for i, c in enumerate(performer_ids)
            },
        })
    confusion = _confusion(predicted, config.n_groups)
    return EvaluationReport(
        performer_ids=performer_ids,
        confusion=confusion,
        scores=metrics(confusion),
        trials=tuple(trials),
        skipped=tuple(skipped),
        config=config,
    )


@dataclass(frozen=True)
class SweepRow:
    model_family: str
    feature_set: tuple[str, ...]
    precision: float
    recall: float
    f: float

    @property
    def feature_label(self) -> str:
        return "+".join(self.feature_set)


@dataclass(frozen=True)
class SweepResult:
    """Sweep rows ranked by precision, the best row's report, and the base config's report.

    ``base_report`` equals ``run_cv(dataset, base_config)``. It is reduced from
    the sweep's own KL table, so it exists only when ``base_config.model_family``
    was swept and the subsets use every kind of ``base_config.feature_set``
    (the default subsets use all kinds); otherwise it is None.
    """

    rows: tuple[SweepRow, ...]
    best: SweepRow
    best_report: EvaluationReport
    base_report: EvaluationReport | None


def feature_subsets(min_size: int = 2, include_singletons: bool = False) -> list[tuple[str, ...]]:
    """All feature combinations in canonical order (size >= 2 by default)."""
    lo = 1 if include_singletons else min_size
    return [
        subset
        for size in range(lo, len(KINDS) + 1)
        for subset in combinations(KINDS, size)
    ]


def sweep(
    dataset: DeviationDataset,
    base_config: ExperimentConfig,
    model_families: Iterable[str] = MODEL_FAMILIES,
    subsets: Iterable[tuple[str, ...]] | None = None,
    jobs: int = 1,
) -> SweepResult:
    """Run CV for every feature subset x model family; rank by precision.

    Per model family, the fits and KLs of every kind the subsets use are made
    once and shared by all subsets, so a sweep costs about one CV pass per
    family. Each subset is decided from the table's arrays with ``_report``'s
    rule, and its scores equal ``run_cv`` on that subset; full reports are
    built only for the base config and the best row.
    """
    subsets = [tuple(s) for s in (feature_subsets() if subsets is None else subsets)]
    kinds = tuple(dict.fromkeys(kind for subset in subsets for kind in subset))
    rows, tables, base_report = [], {}, None
    for family in model_families:
        table_config = replace(base_config, model_family=family, feature_set=kinds, weights=None)
        table = tables[family] = _kl_table(dataset, table_config, jobs)
        if family == base_config.model_family and set(base_config.feature_set) <= set(kinds):
            base_report = _report(dataset, table, base_config)
        for subset in subsets:
            _, predicted = _decide(table, replace(table_config, feature_set=subset))
            s = metrics(_confusion(predicted, base_config.n_groups))
            rows.append(SweepRow(family, subset, s.macro_precision, s.macro_recall, s.macro_f))
    rows.sort(key=lambda r: (-r.precision, r.model_family, r.feature_set))
    best = rows[0]
    best_config = replace(
        base_config, model_family=best.model_family, feature_set=best.feature_set, weights=None
    )
    return SweepResult(
        rows=tuple(rows),
        best=best,
        best_report=_report(dataset, tables[best.model_family], best_config),
        base_report=base_report,
    )


# ---------------------------------------------------------------------------
# CSV emitters


def confusion_csv(report: EvaluationReport, normalized: bool = False) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["true\\predicted", *report.performer_ids])
    matrix = report.normalized_confusion() if normalized else report.confusion
    for i, pid in enumerate(report.performer_ids):
        row = [repr(float(v)) if normalized else int(v) for v in matrix[i]]
        writer.writerow([pid, *row])
    return buf.getvalue()


def metrics_csv(report: EvaluationReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["class", "precision", "recall", "f_score"])
    s = report.scores
    for i, pid in enumerate(report.performer_ids):
        writer.writerow(
            [pid, repr(s.per_class_precision[i]), repr(s.per_class_recall[i]), repr(s.per_class_f[i])]
        )
    writer.writerow(["macro", repr(s.macro_precision), repr(s.macro_recall), repr(s.macro_f)])
    return buf.getvalue()


def sweep_csv(rows: Iterable[SweepRow]) -> str:
    """Table-4-style layout: Feature,Precision,Recall,F-score."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["Feature", "Precision", "Recall", "F-score"])
    for row in rows:
        writer.writerow(
            [row.feature_label, repr(row.precision), repr(row.recall), repr(row.f)]
        )
    return buf.getvalue()
