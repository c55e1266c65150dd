"""Leave-one-group-out cross-validation with minimum-KL classification.

Each performer's aligned positions are split into contiguous chronological
groups. For every (performer, group) trial the group's deviations form the
test set; every candidate trains on their own remaining groups, so no aligned
position is shared between a test set and any training pool. The candidate
whose fused divergence from the test distribution is smallest wins. ``classify``
scores a query as the held-out group of one such round, with the same builders.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, combinations, product
from typing import Iterable, Mapping

import numpy as np

from . import densities, divergence
from .alignment import AlignedNoteTable
from .features import KINDS, DeviationSeries, extract_deviations
from .midi_io import csv_field, csv_text

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
        object.__setattr__(self, "feature_set", _checked_feature_set(self.feature_set))
        if self.weights is not None:
            if len(self.weights) != len(self.feature_set):
                raise ValueError(
                    f"got {len(self.weights)} weights for {len(self.feature_set)} features"
                )
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
            if not all(math.isfinite(w) and w >= 0 for w in self.weights):
                raise ValueError("fusion weights must be finite and non-negative")
            if not any(self.weights):
                raise ValueError("fusion weights must not all be 0, as a weight of 0 leaves its kind out")
        if self.n_groups < 2:
            raise ValueError(f"need at least 2 groups, got {self.n_groups}")
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {self.n_bins}")
        if self.gmm_k < 1:
            raise ValueError(f"gmm_k must be >= 1, got {self.gmm_k}")
        if self.gmm_k > densities.GMM_K_CAP:
            raise ValueError(f"gmm_k={self.gmm_k} exceeds the component cap {densities.GMM_K_CAP}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        bandwidths = dict(self.bandwidths)
        if len(bandwidths) != len(self.bandwidths):
            raise ValueError("bandwidths must not repeat kinds")
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


def _checked_feature_set(kinds) -> tuple[str, ...]:
    kinds = tuple(kinds)
    if not kinds:
        raise ValueError("feature_set must be non-empty")
    if len(set(kinds)) != len(kinds):
        raise ValueError("feature_set must not repeat kinds")
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown feature kind {kind!r}; choose from {','.join(KINDS)}")
    return kinds


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
    train_series: Mapping[str, Mapping[str, object]],
    config: ExperimentConfig,
) -> str:
    """Minimum fused-KL candidate for the test deviations, ties to the smallest id.

    Values are arrays or ``DeviationSeries``. The query is the held-out group
    of one CV round: each candidate's chunks of a kind are its training series
    and, for the first candidate, the query; ``_kind_kls`` scores round 1.
    A kind of weight 0 decides nothing, so it is neither required nor scored.
    """
    def values(x):
        return np.asarray(getattr(x, "values", x), dtype=np.float64)

    if not train_series:
        raise ValueError("classification needs at least 1 candidate")
    used = [(kind, w) for kind, w in zip(config.feature_set, config.effective_weights) if w]
    config = replace(config, feature_set=tuple(k for k, _ in used), weights=tuple(w for _, w in used))
    candidates = sorted(train_series)
    chunks = {kind: {} for kind in config.feature_set}
    for kind, pid in product(config.feature_set, candidates):
        if kind not in train_series[pid]:
            raise ValueError(f"no {kind} training series for candidate {pid!r}")
        if kind not in test_series:
            raise ValueError(f"no {kind} test series for the query")
        train = values(train_series[pid][kind])
        if not len(train):
            raise ValueError(f"empty {kind} training series for candidate {pid!r}")
        chunks[kind][pid] = [train, values(test_series[kind] if pid == candidates[0] else ())]
    kls = {kind: _kind_kls(kind, c, config, (1,))[1:2] for kind, c in chunks.items()}
    _, predicted = _decide(kls, [config.feature_set], [config.effective_weights])
    if predicted[0, 0] < 0:
        raise EmptyTestSeriesError(_skip_reason(kls, config, 0))
    return candidates[predicted[0, 0]]


def _decide(kls: Mapping[str, np.ndarray], subsets, weights=None):
    """Fused KLs and the winner of every trial for each feature subset, in one pass.

    ``kls[kind]`` holds one row per trial and one column per candidate, NaN
    in a trial with no test values of that kind. Subset s's kinds, weighted by
    ``weights[s]`` (1 when None), are added in its order from 0.0; a kind of
    weight 0 adds 0.0, as 0 times its finite KL does. Returns the fused KL per
    (subset, trial, candidate), and per (subset, trial) the column of the
    smallest, ties to the first (smallest id); -1 where a weighted kind of the
    subset has no test values. KLs are finite, so a fused KL that overflows to
    inf raises ``ValueError``.
    """
    kinds = list(kls)
    terms = np.stack([kls[kind] for kind in kinds] + [np.zeros_like(kls[kinds[0]])])
    # subset s's j-th term: kind index[s, j] times factor[s, j]; a shorter
    # subset, and a kind of weight 0, adds the zeros row
    index = np.full((len(subsets), max(map(len, subsets))), len(kinds))
    factor = np.ones(index.shape)
    for s, subset in enumerate(subsets):
        index[s, : len(subset)] = [kinds.index(kind) for kind in subset]
        factor[s, : len(subset)] = 1.0 if weights is None else weights[s]
    index[factor == 0] = len(kinds)
    fused = np.zeros((len(subsets),) + terms.shape[1:])
    with np.errstate(over="ignore"):
        for j in range(index.shape[1]):
            fused = fused + factor[:, j, None, None] * terms[index[:, j]]
    if np.isinf(fused).any():
        raise ValueError(
            "fusion weights overflow the fused KL to inf; only the weights' ratios"
            " matter, so scale them down"
        )
    predicted = np.argmin(fused, axis=2)
    predicted[np.isnan(fused[:, :, 0])] = -1
    return fused, predicted


def _skip_reason(kls: Mapping[str, np.ndarray], config: ExperimentConfig, trial: int) -> str:
    kinds = zip(config.feature_set, config.effective_weights)
    kind = next(kind for kind, w in kinds if w and np.isnan(kls[kind][trial, 0]))
    return f"empty {kind} test series"


@dataclass(frozen=True)
class Metrics:
    per_class_precision: tuple[float, ...]
    per_class_recall: tuple[float, ...]
    per_class_f: tuple[float, ...]
    macro_precision: float
    macro_recall: float
    macro_f: float


def f_score(precision, recall):
    """Harmonic mean, elementwise over arrays; 0 where both inputs are 0."""
    p, r = np.asarray(precision, dtype=np.float64), np.asarray(recall, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        f = np.where(p + r == 0, 0.0, 2.0 * p * r / (p + r))
    return f if f.ndim else float(f)


def metrics(confusion):
    """Per-class and macro precision/recall/F from a confusion matrix, or from
    each matrix of a stack along a leading axis (a list of ``Metrics``).

    Rows are true labels, columns predictions. Per-class precision divides by
    the column sum, recall by the row sum (0 when the denominator is 0); macro
    scores are unweighted class means and the macro F is the harmonic mean of
    macro precision and macro recall. Every score is a Python float.
    """
    cm = np.asarray(confusion)
    if cm.ndim not in (2, 3) or cm.shape[-2] != cm.shape[-1]:
        raise ValueError(f"confusion matrix must be square, got shape {cm.shape}")
    if np.any(cm < 0) or not np.issubdtype(cm.dtype, np.integer):
        raise ValueError("confusion matrix must hold non-negative integers")
    stack = cm.reshape((-1,) + cm.shape[-2:])
    tp = np.diagonal(stack, axis1=1, axis2=2).astype(np.float64)
    col = stack.sum(axis=1).astype(np.float64)
    row = stack.sum(axis=2).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(col > 0, tp / col, 0.0)
        recall = np.where(row > 0, tp / row, 0.0)
    macro = (precision.mean(axis=1), recall.mean(axis=1))
    columns = (precision, recall, f_score(precision, recall), *macro, f_score(*macro))
    scores = [
        Metrics(tuple(p), tuple(r), tuple(f), *macro_scores)
        for p, r, f, *macro_scores in zip(*(column.tolist() for column in columns))
    ]
    return scores if cm.ndim == 3 else scores[0]


@dataclass(frozen=True)
class DeviationDataset:
    """Per-performer deviation series over a shared position index; a
    non-empty series must lie in [0, n_positions)."""

    n_positions: int
    by_performer: Mapping[str, Mapping[str, DeviationSeries]]

    def __post_init__(self):
        for pid, by_kind in self.by_performer.items():
            for kind, s in by_kind.items():
                if len(s) and not 0 <= s.positions[0] <= s.end_positions[-1] < self.n_positions:
                    raise ValueError(f"the {kind} series of performer {pid!r} has positions outside [0, {self.n_positions})")

    @classmethod
    def from_table(cls, table: AlignedNoteTable, kinds: Iterable[str] = KINDS) -> "DeviationDataset":
        """The table's deviation series of ``kinds`` (every kind by default)."""
        by_performer = extract_deviations(table, kinds=kinds)
        return cls(n_positions=table.n_positions, by_performer=by_performer)

    @property
    def performer_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.by_performer))


@dataclass(frozen=True)
class EvaluationReport:
    """A decided KL table: ``_kl_table``'s rows for one feature set and weighting.

    ``kls[kind]`` holds one row per (performer, group) trial, in
    ``_kl_table``'s order, and one column per candidate, for each kind of
    ``config.feature_set``, weight 0 included. ``fused`` holds the trials'
    fused KLs and ``predicted`` each trial's winning column, -1 for a skipped
    trial, both from ``_decide``. ``confusion``, ``scores``, ``trials`` (one
    dict per decided trial) and ``skipped`` (one per skipped trial, with its
    reason) are derived from these on first access.
    """

    performer_ids: tuple[str, ...]
    config: ExperimentConfig
    kls: Mapping[str, np.ndarray]
    fused: np.ndarray
    predicted: np.ndarray

    def _trial_ids(self, decided: bool):
        """The (trial, performer, group) of each decided, or else skipped, trial."""
        n_groups = self.config.n_groups
        rows = np.flatnonzero((self.predicted >= 0) == decided).tolist()
        return [(t, self.performer_ids[t // n_groups], t % n_groups) for t in rows]

    @cached_property
    def confusion(self) -> np.ndarray:
        return _confusion(self.predicted[None], self.config.n_groups)[0]

    @cached_property
    def scores(self) -> Metrics:
        return metrics(self.confusion)

    @cached_property
    def trials(self) -> tuple[dict, ...]:
        ids, kinds = self.performer_ids, self.config.feature_set
        # per trial, per candidate, the KL of each kind
        kls = np.stack([self.kls[kind] for kind in kinds], axis=2).tolist()
        fused, predicted = self.fused.tolist(), self.predicted.tolist()
        return tuple(
            {
                "performer": pid,
                "group": g,
                "predicted": ids[predicted[t]],
                "fused_kl": dict(zip(ids, fused[t])),
                "feature_kl": {c: dict(zip(kinds, row)) for c, row in zip(ids, kls[t])},
            }
            for t, pid, g in self._trial_ids(True)
        )

    @cached_property
    def skipped(self) -> tuple[dict, ...]:
        return tuple(
            {"performer": pid, "group": g, "reason": _skip_reason(self.kls, self.config, t)}
            for t, pid, g in self._trial_ids(False)
        )

    def normalized_confusion(self) -> np.ndarray:
        row_sums = self.confusion.sum(axis=1, keepdims=True)
        return np.divide(
            self.confusion,
            row_sums,
            out=np.zeros_like(self.confusion, dtype=np.float64),
            where=row_sums > 0,
        )

    def _head(self) -> dict:
        """``to_json_dict`` without its ``"trials"``."""
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
            "skipped": list(self.skipped),
        }

    def to_json_dict(self) -> dict:
        return {**self._head(), "trials": list(self.trials)}

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), sort_keys=True, indent=2)`` and a newline.

        Every other key sorts before ``"trials"`` and goes through ``json``. Each
        decided trial fills one format string, which ``json`` lays out once per
        report. Its KLs are slices of one ``json`` text of the stacked KL and
        fused arrays, so inf and NaN read Infinity and NaN; no trial dict is built.
        """
        text = json.dumps(self._head(), sort_keys=True, indent=2)[:-2] + ',\n  "trials": '
        decided = self._trial_ids(True)
        if not decided:
            return text + "[]\n}\n"
        ids, kinds = sorted(self.performer_ids), sorted(self.config.feature_set)
        blank = "\0"  # a value's place, which json writes as "\u0000"
        skeleton = {
            "feature_kl": {c: dict.fromkeys(kinds, blank) for c in ids},
            "fused_kl": dict.fromkeys(ids, blank),
            **dict.fromkeys(("group", "performer", "predicted"), blank),
        }
        template = json.dumps(skeleton, sort_keys=True, indent=2).replace("%", "%%")
        template = "    " + template.replace("\n", "\n    ").replace(': "\\u0000"', ": %s")
        # each decided trial's row: the KL of every kind for every candidate, then
        # every candidate's fused KL, with candidates and kinds in sorted order
        order = sorted(range(len(ids)), key=self.performer_ids.__getitem__)
        rows = self.predicted >= 0
        kls = np.stack([self.kls[kind] for kind in kinds], axis=2)[rows][:, order]
        numbers = np.concatenate((kls.reshape(len(decided), -1), self.fused[rows][:, order]), axis=1)
        width = numbers.shape[1]
        values = json.dumps(numbers.ravel().tolist(), separators=(",", ":"))[1:-1].split(",")
        quoted = {pid: json.dumps(pid) for pid in self.performer_ids}
        winners = [self.performer_ids[c] for c in self.predicted[rows].tolist()]
        trials = ",\n".join(
            template % (*values[i * width : (i + 1) * width], g, quoted[pid], quoted[winner])
            for i, ((_, pid, g), winner) in enumerate(zip(decided, winners))
        )
        return text + "[\n" + trials + "\n  ]\n}\n"


def run_cv(dataset: DeviationDataset, config: ExperimentConfig) -> EvaluationReport:
    """Exhaustive LOGO cross-validation over every (performer, group) pair.

    For a trial with test group g, every candidate (the test performer
    included) trains on their remaining groups pooled; deviations whose
    successor spans two groups belong to neither side. The report is
    deterministic for a fixed config.
    """
    return _report(dataset, _kl_table(dataset, config), config)


def _kl_table(dataset: DeviationDataset, config: ExperimentConfig):
    """``{kind: KL array}`` over every (performer, group) trial.

    Row ``p * n_groups + g`` is the trial of performer p (in id order) with
    test group g, column c the candidate c; a kind with no test values in a
    trial leaves its row NaN. Per kind, the trial tests the performer's
    group-g values against each candidate's pool of their other groups. Each
    model and KL is made once, so one table serves every feature subset and
    weighting of these kinds. ``_kind_kls`` scores every group's round.
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
        table[kind] = _kind_kls(kind, chunks, config, range(config.n_groups))
    return table


def _kind_kls(kind: str, chunks, config: ExperimentConfig, held_out) -> np.ndarray:
    """One kind's KL array, in ``_kl_table``'s layout, from ``chunks[pid][g]``.

    Only the rounds (test groups) in ``held_out`` are scored; other rounds'
    rows stay NaN and their pools are not fitted. Before any fit, every
    scored round's pools, then its non-empty tests, are checked against the
    family's least series size (``gmm_k`` for GMM, 1 otherwise); the first too
    small is reported with the family's own reason, naming the kind, the
    part, the performer and the group. ``_histogram_kls`` fits and scores in
    stacked passes, ``_kde_kls`` too, on one shared grid, and ``_gmm_kls``
    one round at a time.
    """
    least = config.gmm_k if config.model_family == "gmm" else 1
    for g in sorted(held_out):
        pools = [("training pool for test group", pid, sum(map(len, c)) - len(c[g]))
                 for pid, c in chunks.items()]
        tests = [("test group", pid, len(c[g])) for pid, c in chunks.items() if len(c[g])]
        for part, pid, size in pools + tests:
            if size < least:
                family = {"histogram": "histogram", "kde": "KDE", "gmm": "GMM"}[config.model_family]
                try:
                    fit_model(np.zeros(size), kind, config)
                except ValueError as err:
                    raise ValueError(
                        f"cannot fit the {kind} {family} to the {part} {g} "
                        f"of performer {pid!r}: {err}"
                    ) from err
    if config.model_family == "histogram":
        return _histogram_kls(chunks, config.n_bins, held_out)
    if config.model_family == "kde":
        return _kde_kls(kind, chunks, config.bandwidth_for(kind), held_out)
    return _gmm_kls(kind, chunks, config, held_out)


def _histogram_kls(chunks, n_bins: int, held_out) -> np.ndarray:
    """One kind's ``_kind_kls`` array for the histogram family.

    Each (performer, group) chunk and each performer's values are sorted
    once. A model's bin counts are counts of values below its edges: a
    test's are one ``np.searchsorted`` in its sorted chunk, and a pool's are
    its performer's less the held-out chunk's, exact in integers. All models
    are fitted in one ``fit_histograms`` pass, in the order one-by-one
    fitting meets them (per group, every pool, then every non-empty test), so
    the first that cannot be fitted raises the same error. The sorted copies
    are released before every (test, candidate) pair is scored in one
    ``divergence.kl_histogram_rows`` pass over the fitted stack.
    """
    pids = list(chunks)
    n, n_groups = len(pids), len(chunks[pids[0]])
    sizes = np.asarray([[len(c) for c in chunks[pid]] for pid in pids])
    values = np.concatenate([c for pid in pids for c in chunks[pid]])
    sorted_chunks = [[np.sort(c) for c in chunks[pid]] for pid in pids]
    sorted_totals = [np.sort(np.concatenate(chunks[pid])) for pid in pids]
    filled = sizes > 0
    starts = (np.cumsum(sizes) - sizes.ravel())[filled.ravel()]
    lo, hi = np.full(sizes.shape, np.inf), np.full(sizes.shape, -np.inf)
    lo[filled], hi[filled] = np.minimum.reduceat(values, starts), np.maximum.reduceat(values, starts)
    others = ~np.eye(n_groups, dtype=bool)  # others[g]: the groups of trial g's pools
    pool_lo = np.where(others, lo[:, None, :], np.inf).min(axis=2)
    pool_hi = np.where(others, hi[:, None, :], -np.inf).max(axis=2)

    # one model per (group, is_test, performer) that exists in a scored round, in fitting order
    scored = np.asarray([[g in held_out] for g in range(n_groups)])
    exists = np.stack(np.broadcast_arrays(scored, filled.T & scored), axis=1)
    g, is_test, p = np.nonzero(exists)
    is_test = is_test == 1
    pool = ~is_test

    def count_below(edges):
        below = np.empty(edges.shape, dtype=np.intp)
        for i, (pi, gi, in_pool) in enumerate(zip(p.tolist(), g.tolist(), pool.tolist())):
            below[i] = np.searchsorted(sorted_chunks[pi][gi], edges[i])
            if in_pool:
                below[i] = np.searchsorted(sorted_totals[pi], edges[i]) - below[i]
        return below

    fitted = densities.fit_histograms(
        np.where(is_test, lo[p, g], pool_lo[p, g]),
        np.where(is_test, hi[p, g], pool_hi[p, g]),
        np.where(is_test, sizes[p, g], sizes.sum(axis=1)[p] - sizes[p, g]),
        count_below,
        n_bins,
    )
    del sorted_chunks, sorted_totals, values  # freed before the KL pass, whose temporaries set the peak
    row = np.zeros(exists.shape, dtype=np.intp)
    row[exists] = np.arange(len(g))
    test_p, test_g = np.nonzero(filled & scored.T)  # scored trials with test values, in order
    tests, pools = row[test_g, 1, test_p].repeat(n), row[test_g, 0].ravel()
    kls = divergence.kl_histogram_rows(fitted, fitted, tests, pools)
    table = np.full((n * n_groups, n), np.nan)
    table[test_p * n_groups + test_g] = np.reshape(kls, (len(test_p), n))
    return table


def _kde_kls(kind: str, chunks, h: float, held_out) -> np.ndarray:
    """One kind's ``_kind_kls`` array for the KDE family, with bandwidth ``h``.

    Every KDE of the kind lives on one shared ``divergence.kde_grid`` over all
    of its grouped values. The exact kernel sums of all groups of one size are
    one stacked ``densities.kernel_sum``. One masked sum over the group axis
    builds every scored round's pools, and ``divergence.kl_rows`` scores each
    non-empty test against its round's pools, in calls whose (tests x
    candidates x grid) integrand stays within ``densities.KERNEL_BATCH``
    elements, or holds one test.
    """
    pids = list(chunks)
    n, n_groups = len(pids), len(chunks[pids[0]])
    sizes = np.asarray([[len(c) for c in chunks[pid]] for pid in pids])
    flat = [c for pid in pids for c in chunks[pid]]
    values = np.concatenate(flat)
    grid = divergence.kde_grid(float(values.min()), float(values.max()), (h,))
    log.debug(
        "KDE grid %s: lo %r hi %r, %d points, step/h %.4g, at most %d kernel evaluations",
        kind, float(grid[0]), float(grid[-1]), len(grid),
        (grid[1] - grid[0]) / h, len(values) * len(grid),
    )
    sums = np.empty((n, n_groups, len(grid)))
    for size in sorted(set(sizes.flat)):
        rows = np.flatnonzero(sizes == size)
        sums.reshape(-1, len(grid))[rows] = densities.kernel_sum(np.stack([flat[i] for i in rows]), h, grid)
    rounds = np.asarray(held_out)
    # a pool is the sum of its groups' vectors, added in group order, never
    # the total minus the group, which would cancel in the tails that decide the KL
    others = np.arange(n_groups)[:, None] != rounds[:, None, None, None]
    pools = np.sum(np.broadcast_to(sums, (len(rounds),) + sums.shape), axis=2, where=others)
    densities.kernel_density(pools, (sizes.sum(axis=1) - sizes[:, rounds].T)[..., None], h, out=pools)
    test_r, test_p = np.nonzero(sizes[:, rounds].T)  # every non-empty test, round by round
    table = np.full((n * n_groups, n), np.nan)
    per_call = max(1, densities.KERNEL_BATCH // (n * len(grid)))
    for start in range(0, len(test_r), per_call):
        r, p = test_r[start : start + per_call], test_p[start : start + per_call]
        g = rounds[r]
        tests = densities.kernel_density(sums[p, g], sizes[p, g, None], h)
        table[p * n_groups + g] = divergence.kl_rows(tests[:, None], pools[r], grid)
    return table


def _gmm_kls(kind: str, chunks, config: ExperimentConfig, held_out) -> np.ndarray:
    """One kind's ``_kind_kls`` array for the GMM family: per scored round,
    ``fit_model`` fits every candidate's pool, then every non-empty test, and
    ``divergence.kl`` scores each pair."""
    pids = list(chunks)
    n_groups = len(chunks[pids[0]])
    table = np.full((len(pids) * n_groups, len(pids)), np.nan)
    for g in held_out:
        pools = [fit_model(np.concatenate(c[:g] + c[g + 1:]), kind, config) for c in chunks.values()]
        for i, pid in enumerate(pids):
            if len(chunks[pid][g]):
                test = fit_model(chunks[pid][g], kind, config)
                table[i * n_groups + g] = [divergence.kl(test, q).value for q in pools]
    return table


def _group_chunks(series: DeviationSeries, fold: FoldSpec) -> list[np.ndarray]:
    """The series' values per group, as slices; a value whose pair straddles
    groups is in none. Positions and end positions strictly increase, so a
    group's values run from the first position at or past its start to the
    last end position before its end."""
    starts, ends = np.asarray(fold.groups).T
    lo = np.searchsorted(series.positions, starts).tolist()
    hi = np.searchsorted(series.end_positions, ends).tolist()
    return [series.values[a:b] for a, b in zip(lo, hi)]


def _confusion(predicted: np.ndarray, n_groups: int) -> np.ndarray:
    """Each subset's confusion matrix of ``_decide``'s winners; trial t is in row t // n_groups."""
    n = predicted.shape[1] // n_groups
    subset, trial = np.nonzero(predicted >= 0)
    confusion = np.zeros((len(predicted), n, n), dtype=np.int64)
    np.add.at(confusion, (subset, trial // n_groups, predicted[subset, trial]), 1)
    return confusion


def _report(dataset: DeviationDataset, table, config: ExperimentConfig) -> EvaluationReport:
    """The ``EvaluationReport`` of a ``_kl_table`` decided for one feature set
    and weighting, with one logged warning per skipped trial."""
    (fused,), (predicted,) = _decide(table, [config.feature_set], [config.effective_weights])
    report = EvaluationReport(
        performer_ids=dataset.performer_ids,
        config=config,
        kls={kind: table[kind] for kind in config.feature_set},
        fused=fused,
        predicted=predicted,
    )
    for trial in report.skipped:
        log.warning("skipping trial (%s, group %d): %s", trial["performer"], trial["group"], trial["reason"])
    return report


@dataclass(frozen=True)
class SweepRow:
    feature_set: tuple[str, ...]
    precision: float
    recall: float
    f: float

    @property
    def feature_label(self) -> str:
        return "+".join(self.feature_set)


@dataclass(frozen=True)
class SweepResult:
    """Sweep rows ranked by precision, and the swept config's full report."""

    rows: tuple[SweepRow, ...]
    report: EvaluationReport


def feature_subsets(min_size: int = 2) -> list[tuple[str, ...]]:
    """All feature combinations of at least ``min_size`` kinds, in canonical order."""
    return [
        subset
        for size in range(min_size, len(KINDS) + 1)
        for subset in combinations(KINDS, size)
    ]


def sweep(
    dataset: DeviationDataset,
    config: ExperimentConfig,
    subsets: Iterable[tuple[str, ...]] | None = None,
) -> SweepResult:
    """Run CV for every feature subset of ``config``'s model family; rank by precision.

    The fits and KLs of every kind the subsets or ``config`` use are made once
    and shared, so a sweep costs about one CV pass. Every subset is decided,
    unweighted, with ``_report``'s rule in one stacked ``_decide`` and
    ``metrics`` pass, and its scores equal ``run_cv`` on that subset. The one
    full report is ``run_cv(dataset, config)``.
    """
    subsets = [_checked_feature_set(s) for s in (feature_subsets() if subsets is None else subsets)]
    if not subsets:
        raise ValueError("sweep needs at least one feature subset")
    kinds = tuple(dict.fromkeys(chain(*subsets, config.feature_set)))
    table_config = replace(config, feature_set=kinds, weights=None)
    table = _kl_table(dataset, table_config)
    _, predicted = _decide(table, subsets)
    rows = [
        SweepRow(subset, s.macro_precision, s.macro_recall, s.macro_f)
        for subset, s in zip(subsets, metrics(_confusion(predicted, config.n_groups)))
    ]
    rows.sort(key=lambda r: (-r.precision, r.feature_set))
    return SweepResult(rows=tuple(rows), report=_report(dataset, table, config))


# ---------------------------------------------------------------------------
# CSV emitters


def confusion_csv(report: EvaluationReport, normalized: bool = False) -> str:
    matrix = report.normalized_confusion() if normalized else report.confusion
    ids = [csv_field(pid) for pid in report.performer_ids]
    cell = ",%r" if normalized else ",%d"
    return csv_text(("true\\predicted", *report.performer_ids), "%s" + cell * len(ids), ids, *matrix.T)


def metrics_csv(report: EvaluationReport) -> str:
    s = report.scores
    return csv_text(
        ("class", "precision", "recall", "f_score"),
        "%s,%r,%r,%r",
        [*map(csv_field, report.performer_ids), "macro"],
        (*s.per_class_precision, s.macro_precision),
        (*s.per_class_recall, s.macro_recall),
        (*s.per_class_f, s.macro_f),
    )


def sweep_csv(rows: Iterable[SweepRow]) -> str:
    """Table-4-style layout: Feature,Precision,Recall,F-score."""
    rows = list(rows)
    return csv_text(
        ("Feature", "Precision", "Recall", "F-score"),
        "%s,%r,%r,%r",
        [row.feature_label for row in rows],  # kind names joined by "+": nothing to quote
        [row.precision for row in rows],
        [row.recall for row in rows],
        [row.f for row in rows],
    )
