"""KL divergence between fitted models of the same family, plus linear fusion.

Values are reported in nats. Histograms use the exact discrete sum after
rebinning onto shared edges; KDEs use deterministic trapezoid integration of
exact kernel sums on a uniform grid whose step never exceeds a quarter of the
bandwidth; GMMs use the variational approximation built from closed-form
Gaussian component divergences. Divergence across model families is rejected.

A pairwise KDE KL (``kl_kde``) builds its grid from the two models' samples,
with at least ``KDE_GRID_POINTS`` points. Cross-validation's one KL table
(``evaluation._kl_table``) compares histograms and GMMs with ``kl``; for KDEs
it puts every KDE of one feature kind on one shared grid (``kde_grid`` over all
of that kind's grouped values) with the fewest points that keep the step at or
below a quarter of the bandwidth, evaluates each group's kernel sum there once
and scores each test density against every candidate's with ``kl_rows``, the
integrand ``kl_on_grid`` also uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .densities import GMM, KDE, Histogram, kde_pdf

#: Denominator density floor; keeps the KDE integrand finite on disjoint supports.
Q_FLOOR = 1e-300

KDE_GRID_POINTS = 4096


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


def _clamp(value: float) -> float:
    # tiny negatives are round-off; true KL is non-negative
    return max(float(value), 0.0)


def kl_histogram(p: Histogram, q: Histogram) -> KlResult:
    """Discrete KL over shared bins.

    If the edge sets differ, both histograms are rebinned onto their union by
    mass-proportional overlap; both mass vectors are then re-smoothed with the
    models' additive eps so bins outside either support stay positive.
    """
    if np.array_equal(p.edges, q.edges):
        edges = p.edges
        pm, qm = p.masses.copy(), q.masses.copy()
    else:
        edges = np.union1d(p.edges, q.edges)
        pm = _rebin(p, edges)
        qm = _rebin(q, edges)
    eps = max(p.smoothing_eps, q.smoothing_eps)
    if eps > 0:
        n_bins = len(edges) - 1
        pm = (pm + eps) / (1.0 + n_bins * eps)
        qm = (qm + eps) / (1.0 + n_bins * eps)
    mask = pm > 0
    value = float(np.sum(pm[mask] * np.log(pm[mask] / qm[mask])))
    return KlResult(value=_clamp(value), method="discrete")


def _rebin(h: Histogram, edges: np.ndarray) -> np.ndarray:
    """Masses on the target edges, assuming uniform density within source bins."""
    cumulative = np.concatenate(([0.0], np.cumsum(h.masses)))
    cdf = np.interp(edges, h.edges, cumulative, left=0.0, right=float(cumulative[-1]))
    return np.diff(cdf)


def kde_grid(lo: float, hi: float, pad: float, max_step: float, n_points: int = 0) -> np.ndarray:
    """Uniform grid over [lo - pad, hi + pad] with the fewest points that keep
    the step at or below ``max_step``, and at least ``n_points``."""
    lo, hi = lo - pad, hi + pad
    return np.linspace(lo, hi, max(n_points, math.ceil((hi - lo) / max_step) + 1))


def kl_rows(px: np.ndarray, qx: np.ndarray, grid: np.ndarray) -> list[float]:
    """Trapezoid-rule estimates of the integral p(x) log(p(x)/q(x)) dx for the
    density ``px`` against each row of ``qx``, all on ``grid``; the denominator
    is floored at ``Q_FLOOR``. Each value is clamped and checked as a
    ``KlResult`` would be."""
    qx = np.maximum(qx, Q_FLOOR)
    integrand = np.where(px > 0, px * np.log(np.maximum(px, Q_FLOOR) / qx), 0.0)
    return [_checked(_clamp(v)) for v in np.trapezoid(integrand, grid, axis=-1).tolist()]


def kl_on_grid(px: np.ndarray, qx: np.ndarray, grid: np.ndarray) -> KlResult:
    """``kl_rows`` for one density ``qx``."""
    [value] = kl_rows(px, np.asarray(qx)[None], grid)
    return KlResult(
        value=value, method="grid", grid_spec=(float(grid[0]), float(grid[-1]), len(grid))
    )


def kl_kde(p: KDE, q: KDE, n_points: int = KDE_GRID_POINTS) -> KlResult:
    """``kl_on_grid`` for two KDEs on a grid of their own.

    The grid spans the union of both sample ranges widened by 5x the larger
    bandwidth, with at least ``n_points`` points and a step of at most a
    quarter of the smaller bandwidth.
    """
    grid = kde_grid(
        min(float(p.sample_points.min()), float(q.sample_points.min())),
        max(float(p.sample_points.max()), float(q.sample_points.max())),
        pad=5.0 * max(p.bandwidth, q.bandwidth),
        max_step=min(p.bandwidth, q.bandwidth) / 4.0,
        n_points=n_points,
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
    return KlResult(value=_clamp(value), method="variational")


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


def fuse(kls: Sequence, weights: Iterable[float] | None = None) -> float:
    """Weighted linear combination of per-feature KL values (default weights 1)."""
    values = [k.value if isinstance(k, KlResult) else float(k) for k in kls]
    if weights is None:
        weights = [1.0] * len(values)
    weights = [float(w) for w in weights]
    if len(weights) != len(values):
        raise ValueError(f"got {len(values)} KL values but {len(weights)} weights")
    if not all(math.isfinite(w) and w >= 0 for w in weights):
        raise ValueError("fusion weights must be finite and non-negative")
    return float(sum(w * v for w, v in zip(weights, values)))
