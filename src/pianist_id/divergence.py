"""KL divergence between fitted models of the same family, plus linear fusion.

Values are reported in nats. Histograms use the exact discrete sum after
rebinning onto shared edges; KDEs use deterministic trapezoid integration of
exact kernel sums on a uniform grid whose step never exceeds a quarter of the
bandwidth; GMMs use the variational approximation built from closed-form
Gaussian component divergences. Divergence across model families is rejected.

Every KDE grid comes from one rule (``kde_grid``): the fewest points that
keep the step at or below a quarter of the bandwidth. A pairwise KDE KL
(``kl_kde``) spans the two models' samples. Cross-validation's one KL table
(``evaluation._kl_table``) compares GMMs with ``kl``. It scores histograms in
stacked passes with ``kl_histogram_rows``, of which ``kl_histogram`` is the
one-pair case: union edges from one sort per pair, rebinning with
``np.interp``'s arithmetic, and sums grouped by length so every value keeps
the bits of a lone pair. For KDEs it puts every KDE of one feature kind on
one shared grid over all of that kind's grouped values and evaluates each
group's kernel sum there once. Per test group, ``kl_rows`` scores every
test density against every candidate's pool density in stacked passes,
whose (tests x candidates x grid) integrand stays within
``densities.KERNEL_CHUNK`` elements; it is the integrand ``kl_on_grid`` also
uses, and broadcasting gives each value the bits of its lone pair.
``fuse`` adds weighted KLs feature by feature, for single values or for
whole arrays of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .densities import GMM, KDE, Histogram, kde_pdf

#: Denominator density floor; keeps the KDE integrand finite on disjoint supports.
Q_FLOOR = 1e-300


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
    [value] = kl_histogram_rows(_stack(p), _stack(q))
    return KlResult(value=value, method="discrete")


def _stack(h: Histogram) -> Histogram:
    return Histogram(edges=h.edges[None], masses=h.masses[None], smoothing_eps=h.smoothing_eps)


def kl_histogram_rows(p: Histogram, q: Histogram) -> list[float]:
    """``kl_histogram`` of each row of the histogram stack ``p`` against the
    same row of ``q``, in stacked passes.

    Rows with equal edges use the masses as they are. Other rows take their
    union edges from one sort of both edge sets, and rebin both masses
    onto them by differencing ``np.interp``'s cumulative masses (``_cdf``).
    Rows are summed in groups of equal length, so each row's ``np.sum`` adds
    its terms in the order a lone row would. Each value is clamped and
    checked as a ``KlResult`` would be.
    """
    pe, qe = p.edges, q.edges
    same = np.all(pe == qe, axis=1) if pe.shape == qe.shape else np.zeros(len(pe), dtype=bool)
    parts = [(np.flatnonzero(same), p.masses[same], q.masses[same])]
    apart = np.flatnonzero(~same)
    if len(apart):
        pe, qe = pe[apart], qe[apart]
        both = np.concatenate((pe, qe), axis=1)
        order = np.argsort(both, axis=1)
        union = np.take_along_axis(both, order, axis=1)
        # at the last of a run of equal values, every edge of either set at
        # or below it is counted, whatever order the ties took
        from_p = order < pe.shape[1]
        p_cdf = _cdf(pe, p.masses[apart], union, np.cumsum(from_p, axis=1))
        q_cdf = _cdf(qe, q.masses[apart], union, np.cumsum(~from_p, axis=1))
        last = np.ones_like(from_p)
        last[:, :-1] = union[:, 1:] != union[:, :-1]
        lengths = last.sum(axis=1)
        for n in np.unique(lengths):
            rows = lengths == n
            keep = last[rows]
            parts.append((
                apart[rows],
                np.diff(p_cdf[rows][keep].reshape(-1, n), axis=1),
                np.diff(q_cdf[rows][keep].reshape(-1, n), axis=1),
            ))
    eps = max(p.smoothing_eps, q.smoothing_eps)
    values = np.empty(len(same))
    for rows, pm, qm in parts:
        if eps > 0:
            n_bins = pm.shape[1]
            pm = (pm + eps) / (1.0 + n_bins * eps)
            qm = (qm + eps) / (1.0 + n_bins * eps)
        values[rows] = _kl_sums(pm, qm)
    return _clamped(values)


def _cdf(edges: np.ndarray, masses: np.ndarray, x: np.ndarray, upto: np.ndarray) -> np.ndarray:
    """Per row, the histogram's cumulative mass at the points ``x``, assuming
    uniform density within bins; ``upto[i, k]`` counts row i's edges at or
    below ``x[i, k]``.

    These are ``np.interp``'s values bit for bit, with its left value 0 and
    right value the total: slopes are precomputed per bin as ``dy / dx``, and
    a point on an edge takes that edge's value.
    """
    cumulative = np.concatenate((np.zeros((len(masses), 1)), np.cumsum(masses, axis=1)), axis=1)
    slopes = np.diff(cumulative, axis=1) / np.diff(edges, axis=1)
    rows = np.arange(len(x))[:, None]
    j = np.clip(upto - 1, 0, edges.shape[1] - 2)
    x0, y0 = edges[rows, j], cumulative[rows, j]
    cdf = np.where(x == x0, y0, slopes[rows, j] * (x - x0) + y0)
    cdf[upto == 0] = 0.0
    return np.where(upto == edges.shape[1], cumulative[:, -1:], cdf)


def _kl_sums(pm: np.ndarray, qm: np.ndarray) -> np.ndarray:
    """Per row, the sum of pm * log(pm / qm) over the bins where pm > 0."""
    mask = pm > 0
    kept = mask.sum(axis=1)
    out = np.empty(len(pm))
    for n in np.unique(kept):
        rows = kept == n
        shape = (int(rows.sum()), int(n))
        a, b = pm[rows][mask[rows]].reshape(shape), qm[rows][mask[rows]].reshape(shape)
        out[rows] = np.sum(a * np.log(a / b), axis=1)
    return out


def kde_grid(lo: float, hi: float, pad: float, max_step: float) -> np.ndarray:
    """Uniform grid over [lo - pad, hi + pad] with the fewest points that keep
    the step at or below ``max_step``."""
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
    """``kl_on_grid`` for two KDEs on a grid of their own.

    The grid spans the union of both sample ranges widened by 5x the larger
    bandwidth, with the fewest points that keep the step at or below a
    quarter of the smaller bandwidth.
    """
    grid = kde_grid(
        min(float(p.sample_points.min()), float(q.sample_points.min())),
        max(float(p.sample_points.max()), float(q.sample_points.max())),
        pad=5.0 * max(p.bandwidth, q.bandwidth),
        max_step=min(p.bandwidth, q.bandwidth) / 4.0,
    )
    return kl_on_grid(np.asarray(kde_pdf(p, grid)), np.asarray(kde_pdf(q, grid)), grid)


def gaussian_kl(mean_p: float, var_p: float, mean_q: float, var_q: float) -> float:
    """Closed-form KL between two univariate Gaussians, in nats."""
    return 0.5 * (math.log(var_q / var_p) + (var_p + (mean_p - mean_q) ** 2) / var_q - 1.0)


def kl_gmm(p: GMM, q: GMM) -> KlResult:
    """Variational approximation of KL between two Gaussian mixtures.

    D = sum_a w_a * log( sum_a' w_a' exp(-KL(f_a||f_a'))
                         / sum_b v_b exp(-KL(f_a||g_b)) )
    with closed-form Gaussian component divergences; clamped at 0 from below.
    Identical mixtures give exactly 0.
    """
    kl_pp = _pairwise_gaussian_kl(p, p)
    kl_pq = _pairwise_gaussian_kl(p, q)
    numerator = _log_weighted_sum_exp(p.weights, -kl_pp)
    denominator = _log_weighted_sum_exp(q.weights, -kl_pq)
    value = float(np.sum(p.weights * (numerator - denominator)))
    return KlResult(value=max(value, 0.0), method="variational")


def _pairwise_gaussian_kl(a: GMM, b: GMM) -> np.ndarray:
    var_a = a.variances[:, None]
    var_b = b.variances[None, :]
    delta = a.means[:, None] - b.means[None, :]
    return 0.5 * (np.log(var_b / var_a) + (var_a + delta**2) / var_b - 1.0)


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


def fuse(kls: Sequence, weights: Iterable[float] | None = None):
    """Weighted linear combination of per-feature KL values (default weights 1).

    A value may also be an array (all of one shape), fusing every element at
    once. Terms are added one at a time in feature order, so each element
    gets the bits its lone float sum would.
    """
    values = [np.asarray(k.value if isinstance(k, KlResult) else k, dtype=np.float64) for k in kls]
    if weights is None:
        weights = [1.0] * len(values)
    weights = [float(w) for w in weights]
    if len(weights) != len(values):
        raise ValueError(f"got {len(values)} KL values but {len(weights)} weights")
    if not all(math.isfinite(w) and w >= 0 for w in weights):
        raise ValueError("fusion weights must be finite and non-negative")
    total = 0.0
    for w, v in zip(weights, values):
        total = total + w * v
    return float(total) if np.ndim(total) == 0 else total
