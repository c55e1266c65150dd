"""Reference histogram fit, KL and classification for tests, one model at a time.

``reference_fit_histogram`` counts with ``np.histogram``, and
``reference_kl_histogram`` rebins with ``np.union1d`` and ``np.interp``, one
pair at a time. They are the oracle for ``densities.fit_histogram`` /
``fit_histograms`` and ``divergence.kl_histogram`` / ``kl_histogram_rows``,
which count in sorted values and rebin whole stacks of pairs with array
arithmetic: for every input, both give the same edges, masses and KL values
bit for bit, and raise the same errors. ``reference_kl_table`` and
``reference_classify`` build cross-validation's histogram KL table and a
classification from them, trial by trial.
"""

from __future__ import annotations

import math

import numpy as np

from pianist_id.densities import HISTOGRAM_SMOOTHING_EPS, Histogram


def reference_fit_histogram(values, n_bins: int) -> Histogram:
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        raise ValueError("cannot fit a histogram to an empty series")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo
    pad = 0.5 if span == 0.0 else 0.001 * span
    if math.isfinite(lo - pad) and math.isfinite(hi + pad):
        edges = np.linspace(lo - pad, hi + pad, n_bins + 1)
        if np.any(edges[:-1] >= edges[1:]):  # too small a span for n_bins edges at 0.1% padding
            pad = 0.5
    counts, edges = np.histogram(values, bins=n_bins, range=(lo - pad, hi + pad))
    masses = counts / len(values)
    eps = HISTOGRAM_SMOOTHING_EPS
    masses = (masses + eps) / (1.0 + n_bins * eps)
    return Histogram(edges=edges, masses=masses, smoothing_eps=eps)


def _reference_rebin(h: Histogram, edges: np.ndarray) -> np.ndarray:
    cumulative = np.concatenate(([0.0], np.cumsum(h.masses)))
    cdf = np.interp(edges, h.edges, cumulative, left=0.0, right=float(cumulative[-1]))
    return np.diff(cdf)


def reference_kl_histogram(p: Histogram, q: Histogram) -> float:
    """The clamped KL value; a ValueError where it is not finite."""
    if np.array_equal(p.edges, q.edges):
        edges = p.edges
        pm, qm = p.masses.copy(), q.masses.copy()
    else:
        edges = np.union1d(p.edges, q.edges)
        pm = _reference_rebin(p, edges)
        qm = _reference_rebin(q, edges)
    eps = max(p.smoothing_eps, q.smoothing_eps)
    if eps > 0:
        n_bins = len(edges) - 1
        pm = (pm + eps) / (1.0 + n_bins * eps)
        qm = (qm + eps) / (1.0 + n_bins * eps)
    mask = pm > 0
    value = max(float(np.sum(pm[mask] * np.log(pm[mask] / qm[mask]))), 0.0)
    if not math.isfinite(value):
        raise ValueError(f"KL value must be finite and non-negative, got {value}")
    return value


def reference_kl_table(chunks, n_bins: int) -> np.ndarray:
    """One kind's KL rows (trial p * n_groups + g, candidate column), NaN where
    the trial has no test values; ``chunks[pid][g]`` are the group's values.
    Fits and KLs run in one-by-one order: per group, every pool, then every
    non-empty test."""
    pids = list(chunks)
    n_groups = len(chunks[pids[0]])
    table = np.full((len(pids) * n_groups, len(pids)), np.nan)
    for g in range(n_groups):
        pools = [
            reference_fit_histogram(
                np.concatenate([chunks[pid][k] for k in range(n_groups) if k != g]), n_bins
            )
            for pid in pids
        ]
        for i, pid in enumerate(pids):
            if len(chunks[pid][g]):
                test = reference_fit_histogram(chunks[pid][g], n_bins)
                table[i * n_groups + g] = [reference_kl_histogram(test, q) for q in pools]
    return table


def reference_classify(test_series, train_values, feature_set, weights, n_bins: int) -> str:
    """Fused KL with Python float arithmetic, ties to the smallest id; every
    candidate's model is fitted to its training values here."""
    fused = {}
    for pid in sorted(train_values):
        total = 0.0
        for kind, w in zip(feature_set, weights):
            test = reference_fit_histogram(test_series[kind], n_bins)
            train = reference_fit_histogram(train_values[pid][kind], n_bins)
            total = total + w * reference_kl_histogram(test, train)
        fused[pid] = total
    return min(fused, key=lambda pid: (fused[pid], pid))
