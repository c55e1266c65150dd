"""KL divergence between fitted models of the same family.

Values are reported in nats. Histograms use the exact discrete sum after
rebinning both models onto the union of their edges; KDEs use deterministic
trapezoid integration of exact kernel sums on a uniform grid whose step never
exceeds a quarter of the bandwidth (``kde_grid``); GMMs use the variational
approximation built from closed-form Gaussian component divergences.
Divergence across model families is rejected.

Cross-validation's one KL table (``evaluation._kl_table``) compares GMMs with
``kl``. It scores histograms in stacked passes of at most ``HISTOGRAM_BATCH``
elements with ``kl_histogram_rows``, of which ``kl_histogram`` is the one-pair
case: a pair's edges are merged by one stable sort, each model's cumulative
mass is exact at its own edges and interpolated with ``np.interp``'s
arithmetic at the other's, and differences over the merged edges give both
rebinned mass vectors. For KDEs, ``kl_rows`` scores the tests of every round
against that round's candidate pool densities, all on one shared grid per
feature kind, in stacked passes of at most ``densities.KERNEL_BATCH``
integrand elements. Every value keeps the bits of its lone pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .densities import GMM, KDE, Histogram, kde_pdf

#: Denominator density floor; keeps the KDE integrand finite on disjoint supports.
Q_FLOOR = 1e-300

#: Elements of the (2, pairs, edges) float64 stacks of one ``kl_histogram_rows``
#: pass (104 KiB), below glibc's 128 KiB mmap threshold: the temporaries of
#: each pass reuse heap pages instead of faulting in fresh ones.
HISTOGRAM_BATCH = 13 * 2**10


@dataclass(frozen=True)
class KlResult:
    value: float
    method: str
    grid_spec: tuple[float, float, int] | None = None

    def __post_init__(self):
        _checked(self.value)


def _checked(value: float) -> float:
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"KL value must be finite and non-negative, got {value}")
    return value


def _clamped(values: np.ndarray) -> list:
    """``max(v, 0.0)`` of each value (a true KL is non-negative; -0.0 stays), as
    (nested) lists of floats; the first that is not finite raises as ``KlResult``."""
    values = np.where(values < 0, 0.0, values)
    if not np.isfinite(values).all():
        _checked(float(values[~np.isfinite(values)][0]))
    return values.tolist()


def kl_histogram(p: Histogram, q: Histogram) -> KlResult:
    """Discrete KL over shared bins: ``kl_histogram_rows`` for one pair.

    If the edge sets differ, both histograms are rebinned onto their union by
    mass-proportional overlap; both mass vectors are then re-smoothed with the
    models' additive eps so bins outside either support stay positive.
    """
    [value] = kl_histogram_rows(*[replace(h, edges=h.edges[None], masses=h.masses[None]) for h in (p, q)])
    return KlResult(value=value, method="discrete")


def kl_histogram_rows(p: Histogram, q: Histogram, p_rows=None, q_rows=None) -> list[float]:
    """``kl_histogram`` of row ``p_rows[i]`` of the histogram stack ``p``
    against row ``q_rows[i]`` of ``q`` (by default, row i of each).

    Pairs are scored in passes over as many as fit ``HISTOGRAM_BATCH``
    elements, or one. Pairs with equal edges keep their masses. Other pairs
    merge both edge sets by one stable sort, keep the last of each run of
    equal edges, and difference each model's cumulative mass there
    (``_other_cdf``). Rows are summed in groups of equal length, so each
    row's ``np.sum`` adds its terms in the order a lone row would. Values are
    clamped and checked as a ``KlResult`` would be.
    """
    p_rows, q_rows = (np.arange(len(p.edges)),) * 2 if p_rows is None else (p_rows, q_rows)
    per_pass = max(1, HISTOGRAM_BATCH // (2 * (p.edges.shape[-1] + q.edges.shape[-1])))
    if len(p_rows) > per_pass:
        return [value for start in range(0, len(p_rows), per_pass) for value in kl_histogram_rows(
            p, q, p_rows[start : start + per_pass], q_rows[start : start + per_pass])]
    pe, qe = p.edges[p_rows], q.edges[q_rows]
    same = np.all(pe == qe, axis=1) if pe.shape == qe.shape else np.zeros(len(pe), dtype=bool)
    parts = []  # (rows, stacked p and q masses)
    if same.any():
        parts.append((np.flatnonzero(same), np.stack((p.masses[p_rows[same]], q.masses[q_rows[same]]))))
    apart = np.flatnonzero(~same)
    if len(apart):
        r, a, b = len(apart), pe.shape[1], pe.shape[1] + qe.shape[1]
        edges = np.concatenate((pe[apart], qe[apart]), axis=1)  # row i: p's a edges, then q's
        order = np.argsort(edges, axis=1, kind="stable")  # a p edge sorts before an equal q edge
        flat = order + np.arange(0, r * b, b)[:, None]
        # per edge, the other model's edges the merge puts before it: for a q
        # edge those at or below it, for a p edge those below it
        before = np.empty(r * b, dtype=np.intp)
        before[flat] = np.arange(b)
        before = before.reshape(r, b) - np.r_[np.arange(a), np.arange(b - a)]
        cumulative = np.zeros((r, b))  # each model's cumulative mass at its own edges
        np.cumsum(p.masses[p_rows[apart]], axis=1, out=cumulative[:, 1:a])
        np.cumsum(q.masses[q_rows[apart]], axis=1, out=cumulative[:, a + 1 :])
        own_other = np.stack((cumulative, _other_cdf(edges, cumulative, before, a)))
        # at each merged edge, p's and q's cumulative masses: its own model's, and the other's
        swap = (order >= a) * (r * b)
        cdf = own_other.take(np.stack((flat + swap, flat + r * b - swap)))
        union = edges.take(flat)
        last = np.c_[union[:, 1:] != union[:, :-1], np.ones(r, dtype=bool)]  # last of each equal run
        lengths = last.sum(axis=1)
        # np.unique, not sorted(set()): with set, hist_sweep faulted 2146 pages an op, not 753, and was slower
        for n in np.unique(lengths):
            rows = lengths == n
            kept = cdf if rows.all() else cdf[:, rows]
            kept = kept if n == b else kept[:, last[rows]].reshape(2, -1, n)
            parts.append((apart[rows], np.diff(kept, axis=-1)))
    eps = max(p.smoothing_eps, q.smoothing_eps)
    values = np.empty(len(same))
    for rows, masses in parts:
        if eps > 0:  # in place: a fresh array per op would fault in its pages each time
            np.divide(np.add(masses, eps, out=masses), 1.0 + masses.shape[-1] * eps, out=masses)
        values[rows] = _kl_sums(*masses)
    return _clamped(values)


def _other_cdf(edges: np.ndarray, cumulative: np.ndarray, before: np.ndarray, a: int) -> np.ndarray:
    """Per row of pair edges (p's ``a``, then q's) with their own models'
    cumulative masses, the other model's cumulative mass at each edge, where
    ``before`` counts the other's edges at or below it: ``np.interp``'s
    values bit for bit, 0 on the left and the total on the right."""
    r, b = edges.shape
    n = np.r_[np.full(a, b - a), np.full(b - a, a)]  # the other model's edge count
    j = np.clip(before - 1, 0, n - 2) + np.r_[np.full(a, a), np.zeros(b - a, int)]
    j += np.arange(0, r * b, b)[:, None]
    x0, y0, y1 = edges.take(j), cumulative.take(j), cumulative.take(j + 1)
    cdf = np.where(edges == x0, y0, (y1 - y0) / (edges.take(j + 1) - x0) * (edges - x0) + y0)
    cdf[before == 0] = 0.0
    return np.where(before == n, y1, cdf)


def _kl_sums(pm: np.ndarray, qm: np.ndarray) -> np.ndarray:
    """Per row, the sum of pm * log(pm / qm) over the bins where pm > 0."""
    mask = pm > 0
    if mask.all():
        return np.sum(pm * np.log(pm / qm), axis=1)
    kept = mask.sum(axis=1)
    out = np.empty(len(pm))
    for n in np.unique(kept):
        rows = kept == n
        a, b = (m[rows][mask[rows]].reshape(-1, n) for m in (pm, qm))
        out[rows] = np.sum(a * np.log(a / b), axis=1)
    return out


def kde_grid(lo: float, hi: float, bandwidths) -> np.ndarray:
    """Uniform grid over [lo, hi] widened by 5x the largest of ``bandwidths``,
    with the fewest points that keep the step at or below a quarter of the
    smallest."""
    pad, max_step = 5.0 * max(bandwidths), min(bandwidths) / 4.0
    lo, hi = lo - pad, hi + pad
    return np.linspace(lo, hi, math.ceil((hi - lo) / max_step) + 1)


def kl_rows(px: np.ndarray, qx: np.ndarray, grid: np.ndarray) -> list:
    """Trapezoid-rule estimates of the integral p(x) log(p(x)/q(x)) dx on
    ``grid`` for the densities on the last axes of ``px`` and ``qx``,
    broadcast over their leading axes, each with the bits of its lone pair;
    the denominator is floored at ``Q_FLOOR``. Values are clamped and checked
    as a ``KlResult`` would be, and returned as (nested) lists of floats."""
    qx = np.maximum(qx, Q_FLOOR)
    integrand = np.where(px > 0, px * np.log(np.maximum(px, Q_FLOOR) / qx), 0.0)
    return _clamped(np.trapezoid(integrand, grid, axis=-1))


def kl_on_grid(px: np.ndarray, qx: np.ndarray, grid: np.ndarray) -> KlResult:
    """``kl_rows`` for one density ``qx``."""
    [value] = kl_rows(px, np.asarray(qx)[None], grid)
    return KlResult(
        value=value, method="grid", grid_spec=(float(grid[0]), float(grid[-1]), len(grid))
    )


def kl_kde(p: KDE, q: KDE) -> KlResult:
    """``kl_on_grid`` for two KDEs on the ``kde_grid`` of both sample ranges
    and both bandwidths."""
    grid = kde_grid(
        min(float(p.sample_points.min()), float(q.sample_points.min())),
        max(float(p.sample_points.max()), float(q.sample_points.max())),
        (p.bandwidth, q.bandwidth),
    )
    return kl_on_grid(np.asarray(kde_pdf(p, grid)), np.asarray(kde_pdf(q, grid)), grid)


def gaussian_kl(mean_p, var_p, mean_q, var_q):
    """Closed-form KL between two univariate Gaussians, in nats; broadcasts over arrays.

    Raises ``ValueError`` unless every variance is positive.
    """
    for name, var in (("var_p", var_p), ("var_q", var_q)):
        if not np.all(np.greater(var, 0.0)):
            raise ValueError(f"{name} must be positive, got {var!r}")
    return 0.5 * (np.log(var_q / var_p) + (var_p + (mean_p - mean_q) ** 2) / var_q - 1.0)


def kl_gmm(p: GMM, q: GMM) -> KlResult:
    """Variational approximation of KL between two Gaussian mixtures.

    D = sum_a w_a * log( sum_a' w_a' exp(-KL(f_a||f_a'))
                         / sum_b v_b exp(-KL(f_a||g_b)) )
    with closed-form Gaussian component divergences; clamped at 0 from below.
    Identical mixtures give exactly 0.
    """
    kl_pp = gaussian_kl(p.means[:, None], p.variances[:, None], p.means, p.variances)
    kl_pq = gaussian_kl(p.means[:, None], p.variances[:, None], q.means, q.variances)
    numerator = _log_weighted_sum_exp(p.weights, -kl_pp)
    denominator = _log_weighted_sum_exp(q.weights, -kl_pq)
    value = float(np.sum(p.weights * (numerator - denominator)))
    return KlResult(value=max(value, 0.0), method="variational")


def _log_weighted_sum_exp(weights: np.ndarray, log_terms: np.ndarray) -> np.ndarray:
    row_max = log_terms.max(axis=1, keepdims=True)
    return row_max[:, 0] + np.log(
        np.sum(weights[None, :] * np.exp(log_terms - row_max), axis=1)
    )


_KL_BY_TYPE = {Histogram: kl_histogram, KDE: kl_kde, GMM: kl_gmm}


def kl(p, q) -> KlResult:
    """Dispatch KL on model type; mixing model families is an error."""
    if type(p) is not type(q):
        raise TypeError(
            f"cannot compare {type(p).__name__} against {type(q).__name__}; "
            "each experiment fixes one model family"
        )
    try:
        fn = _KL_BY_TYPE[type(p)]
    except KeyError:
        raise TypeError(f"unsupported model type {type(p).__name__}") from None
    return fn(p, q)
