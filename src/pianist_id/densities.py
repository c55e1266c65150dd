"""Distribution models over deviation series: histogram, Gaussian KDE, GMM.

All fits are deterministic: the histogram and KDE have no randomness, the GMM
uses a seeded kmeans++-style initialization followed by EM. Fitted models are
immutable.

A ``Histogram`` holds one model, or a stack of models with one per row.
``fit_histograms`` fits a stack in one pass from each row's value range and
size and a function that counts, per row, the values below each edge; a
value lies in bin i when ``edges[i] <= v < edges[i + 1]``, and the last bin
also holds ``edges[-1]``, as in ``np.histogram``. ``fit_histogram`` is its
one-model case, counting in its sorted series; cross-validation counts in
each sorted chunk and performer's values.

``kernel_sum`` sums Gaussian kernels exactly on a grid, for one sample or a
stack of equal-length samples, whose rows keep the bits of their lone sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Fixed KDE bandwidths per feature kind (seconds for timing kinds, velocity
#: units for DL).
DEFAULT_BANDWIDTHS = {"OT": 1.2, "IOI": 0.01, "OTD": 0.02, "DL": 1.5, "ND": 0.01}

DEFAULT_N_BINS = 50
HISTOGRAM_SMOOTHING_EPS = 1e-9
DEFAULT_GMM_K = 3
GMM_K_CAP = 3
GMM_TOL = 1e-8
GMM_MAX_ITER = 500

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Grid x sample elements per ``kernel_sum`` pass: whole rows while one fits
#: ``KERNEL_BATCH``, else a longer row's grid in chunks of ``KERNEL_CHUNK``.
KERNEL_BATCH = 2**13
KERNEL_CHUNK = 2**18

#: Bandwidths past which ``kernel_sum`` skips a term: exp(y) is +0.0 in float64
#: below y = -745.14, so exp(-0.5 * z * z) is exactly 0 for z over about 38.6.
REACH = 40


def _as_values(series) -> np.ndarray:
    values = np.asarray(getattr(series, "values", series), dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("expected a one-dimensional series")
    return values


@dataclass(frozen=True)
class Histogram:
    """One histogram (1-D ``edges`` and ``masses``) or a stack of them, one per row."""

    edges: np.ndarray
    masses: np.ndarray
    smoothing_eps: float

    def __post_init__(self):
        edges_shape, masses_shape = np.shape(self.edges), np.shape(self.masses)
        if edges_shape != masses_shape[:-1] + (masses_shape[-1] + 1,):
            raise ValueError("need len(edges) == len(masses) + 1")
        # every comparison is written so that NaN fails it
        if not (np.diff(self.edges, axis=-1) > 0).all():
            raise ValueError("edges must be strictly increasing")
        if not np.isfinite(self.edges[..., [0, -1]]).all():
            raise ValueError("edges must be finite")
        if not (self.masses >= 0).all():
            raise ValueError("masses must be non-negative")
        if not (np.abs(self.masses.sum(axis=-1) - 1.0) <= 1e-12).all():
            raise ValueError("masses must sum to 1")
        if not (math.isfinite(self.smoothing_eps) and self.smoothing_eps >= 0):
            raise ValueError(f"smoothing_eps must be finite and non-negative, got {self.smoothing_eps}")


@dataclass(frozen=True)
class KDE:
    sample_points: np.ndarray
    bandwidth: float

    def __post_init__(self):
        check_bandwidth(self.bandwidth)
        if len(self.sample_points) == 0:
            raise ValueError("KDE needs at least one sample")
        if not np.isfinite(self.sample_points).all():
            raise ValueError("sample_points must be finite")


@dataclass(frozen=True)
class GMM:
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        k = len(self.weights)
        if not len(self.means) == len(self.variances) == k or k < 1:
            raise ValueError("weights/means/variances must share a positive length")
        if not (abs(float(self.weights.sum()) - 1.0) <= 1e-12 and (self.weights >= 0).all()):
            raise ValueError("weights must form a probability vector")
        if not np.isfinite(self.means).all():
            raise ValueError("means must be finite")
        if not (np.isfinite(self.variances) & (self.variances > 0)).all():
            raise ValueError("variances must be positive and finite")

    @property
    def k(self) -> int:
        return len(self.weights)


def fit_histogram(series, n_bins: int = DEFAULT_N_BINS) -> Histogram:
    """Equal-width histogram over [min, max] widened by 0.1% per side.

    Counts are normalized, then each bin gets 1e-9 additive mass and the
    vector is renormalized so all masses stay strictly positive (keeps KL
    against other histograms finite). A zero-variance series, or one whose
    span is too small for ``n_bins`` distinct edges at 0.1%, is widened by 0.5
    per side instead, so it too gives a valid single-spike histogram. This is
    ``fit_histograms`` for one model.
    """
    values = np.sort(_as_values(series))
    ends = values[[0, -1]] if len(values) else np.zeros(2)
    stack = fit_histograms(
        ends[:1], ends[1:], [len(values)], lambda edges: np.searchsorted(values, edges), n_bins
    )
    return Histogram(edges=stack.edges[0], masses=stack.masses[0], smoothing_eps=stack.smoothing_eps)


def fit_histograms(lo, hi, sizes, count_below, n_bins: int = DEFAULT_N_BINS) -> Histogram:
    """A stack of ``fit_histogram`` models, one per row of ``lo``, ``hi`` and ``sizes``.

    Row i models ``sizes[i]`` values spanning [lo[i], hi[i]]. Its edges are
    ``np.histogram``'s for that span widened as in ``fit_histogram``;
    ``count_below(edges)`` must return, per row, how many of its values lie
    below each edge. The first row that cannot be fitted raises the error a
    one-by-one fit would: an empty series, bad ``n_bins``, a non-finite span,
    or ``np.histogram``'s own for too many bins in a span that even 0.5 of
    padding per side cannot split.
    """
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    sizes = np.asarray(sizes)
    with np.errstate(invalid="ignore"):  # inf - inf gives NaN quietly, as Python floats do
        span = hi - lo
        pad = np.where(span == 0.0, 0.5, 0.001 * span)
        first, last = lo - pad, hi + pad
    bad = (sizes == 0) | ~(np.isfinite(first) & np.isfinite(last))
    if n_bins >= 1:
        # safe stand-ins keep linspace quiet on rows that fail anyway
        edges = np.linspace(np.where(bad, 0.0, first), np.where(bad, 1.0, last), n_bins + 1, axis=-1)
        # a span too small for n_bins edges at 0.1% padding is widened by 0.5, as a zero span is
        narrow = np.flatnonzero(~bad & np.any(edges[:, :-1] >= edges[:, 1:], axis=1))
        edges[narrow] = np.linspace(lo[narrow] - 0.5, hi[narrow] + 0.5, n_bins + 1, axis=-1)
        bad |= np.any(edges[:, :-1] >= edges[:, 1:], axis=1)
    if n_bins < 1 or bad.any():
        i = int(np.argmax(bad)) if n_bins >= 1 else 0
        if sizes[i] == 0:
            raise ValueError("cannot fit a histogram to an empty series")
        if n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {n_bins}")
        if not (math.isfinite(first[i]) and math.isfinite(last[i])):
            raise ValueError(f"supplied range of [{float(first[i])}, {float(last[i])}] is not finite")
        raise ValueError(
            f"Too many bins for data range. Cannot create {n_bins} finite-sized bins."
        )
    below = count_below(edges)
    below[:, -1] = sizes  # the last bin also holds the values on its right edge
    masses = np.diff(below, axis=1) / sizes[:, None]
    eps = HISTOGRAM_SMOOTHING_EPS
    masses = (masses + eps) / (1.0 + n_bins * eps)
    return Histogram(edges=edges, masses=masses, smoothing_eps=eps)


def histogram_pdf(model: Histogram, x) -> np.ndarray | float:
    """Density implied by the histogram (mass / bin width; 0 outside range)."""
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    idx = np.searchsorted(model.edges, xs, side="right") - 1
    # the right edge belongs to the last bin, matching np.histogram
    idx = np.where(xs == model.edges[-1], len(model.masses) - 1, idx)
    inside = (idx >= 0) & (idx < len(model.masses))
    idx = np.clip(idx, 0, len(model.masses) - 1)
    widths = np.diff(model.edges)
    out = np.where(inside, model.masses[idx] / widths[idx], 0.0)
    return out if np.ndim(x) else float(out[0])


def check_bandwidth(bandwidth: float, kind: str | None = None) -> float:
    """The bandwidth as a float; a ValueError, naming ``kind`` if given, unless
    it is positive and finite."""
    h = float(bandwidth)
    if not (math.isfinite(h) and h > 0):
        name = "bandwidth" if kind is None else f"bandwidth for {kind}"
        raise ValueError(f"{name} must be positive and finite, got {bandwidth}")
    return h


def fit_kde(series, bandwidth: float) -> KDE:
    """Gaussian-kernel KDE with a fixed bandwidth."""
    values = _as_values(series)
    if len(values) == 0:
        raise ValueError("cannot fit a KDE to an empty series")
    return KDE(sample_points=values.copy(), bandwidth=float(bandwidth))


def kernel_sum(samples: np.ndarray, bandwidth: float, xs: np.ndarray) -> np.ndarray:
    """Unnormalised Gaussian kernel sum, sum over s of exp(-((x - s)/h)^2 / 2), at each x.

    Exact (no binning); zero everywhere for an empty sample. ``samples`` may
    also be a (rows, n) stack, giving one row of sums per row of samples, with
    the bits of that row's lone sum. Where finite samples meet an ascending
    ``xs`` over more than 2 ``REACH`` bandwidths, each pass computes only the
    x within ``REACH`` bandwidths of its samples, and the rest are +0.0, as
    each of their terms is.
    """
    stack = np.atleast_2d(samples)
    k, n = stack.shape
    out = np.zeros((k, len(xs)))
    # two buffers serve every pass, filled first so that no ufunc buffers a broadcast
    # input; each (row, x) is summed alone, so passes and chunks change no bit
    rows, chunk = max(1, KERNEL_BATCH // max(len(xs) * n, 1)), max(1, KERNEL_CHUNK // max(n, 1))
    buffers = np.empty((2, min(rows, k), min(chunk, len(xs)), n))
    passes, reach = range(0, k, rows), REACH * bandwidth
    spans = [(0, len(xs))] * len(passes)
    wide = len(xs) > 1 and xs[-1] - xs[0] > 2 * reach
    if n and wide and (xs[1:] >= xs[:-1]).all() and np.isfinite(stack).all():
        # every x outside a pass's span lies over REACH bandwidths from each of its samples
        lo = np.minimum.reduceat(stack.min(axis=1), passes) - reach
        hi = np.maximum.reduceat(stack.max(axis=1), passes) + reach
        spans = zip(np.searchsorted(xs, lo).tolist(), np.searchsorted(xs, hi, "right").tolist())
    for r, (a, b) in zip(passes, spans):
        for start in range(a, b, chunk):
            stop = min(start + chunk, b)
            z, e = buffers[0, : k - r, : stop - start], buffers[1, : k - r, : stop - start]
            np.copyto(z, xs[start:stop, None])
            np.copyto(e, stack[r : r + rows, None])
            np.divide(np.subtract(z, e, z), bandwidth, z)
            np.multiply(np.multiply(-0.5, z, e), z, e)
            out[r : r + rows, start:stop] = np.exp(e, e).sum(axis=2)
    return out if np.ndim(samples) == 2 else out[0]


def kernel_density(sums: np.ndarray, n_samples: int, bandwidth: float, out=None) -> np.ndarray:
    """KDE density from a ``kernel_sum`` over ``n_samples`` samples, into ``out`` if given."""
    return np.divide(sums, n_samples * bandwidth * _SQRT_2PI, out=out)


def kde_pdf(model: KDE, x) -> np.ndarray | float:
    """pdf(x) = mean of standard-normal kernels centered on the samples."""
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    samples = model.sample_points
    out = kernel_density(kernel_sum(samples, model.bandwidth, xs), len(samples), model.bandwidth)
    return out if np.ndim(x) else float(out[0])


def fit_gmm(series, k: int = DEFAULT_GMM_K, *, seed: int = 0) -> GMM:
    """EM fit of a k-component 1-D Gaussian mixture, deterministic under seed."""
    model, _ = fit_gmm_trace(series, k, seed=seed)
    return model


def fit_gmm_trace(
    series, k: int = DEFAULT_GMM_K, *, seed: int = 0
) -> tuple[GMM, np.ndarray]:
    """Like fit_gmm but also returns the per-iteration log-likelihood trace.

    Initialization picks centers kmeans++-style from the samples, then EM runs
    until the log-likelihood gain drops below ``GMM_TOL`` or ``GMM_MAX_ITER``
    iterations are done.
    Variances are floored at 1e-10 x the sample variance (1e-12 absolute for a
    degenerate series).
    """
    values = _as_values(series)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > GMM_K_CAP:
        raise ValueError(f"k={k} exceeds the component cap {GMM_K_CAP}")
    if len(values) < k:
        raise ValueError(f"series of length {len(values)} cannot support k={k}")

    # a constant series is degenerate even where round-off leaves its variance above 0
    sample_var = float(values.var()) if values.min() < values.max() else 0.0
    var_floor = 1e-10 * sample_var if sample_var > 0 else 1e-12

    centers = _kmeanspp_centers(values, k, np.random.default_rng(seed))
    assign = np.argmin(np.abs(values[:, None] - centers[None, :]), axis=1)
    weights = np.empty(k)
    means = np.empty(k)
    variances = np.empty(k)
    for c in range(k):
        members = values[assign == c]
        if len(members) == 0:
            weights[c] = 1.0 / len(values)
            means[c] = centers[c]
            variances[c] = max(sample_var, var_floor)
        else:
            weights[c] = len(members) / len(values)
            means[c] = members.mean()
            variances[c] = max(float(members.var()), var_floor)
    weights /= weights.sum()

    trace = []
    log_likelihood = -np.inf
    for _ in range(GMM_MAX_ITER):
        # E step in log space
        log_comp = (
            -0.5 * (np.log(2.0 * np.pi * variances)[None, :]
                    + (values[:, None] - means[None, :]) ** 2 / variances[None, :])
            + np.log(weights)[None, :]
        )
        row_max = log_comp.max(axis=1, keepdims=True)
        log_norm = row_max[:, 0] + np.log(np.exp(log_comp - row_max).sum(axis=1))
        new_log_likelihood = float(log_norm.sum())
        trace.append(new_log_likelihood)
        resp = np.exp(log_comp - log_norm[:, None])
        # M step
        totals = np.maximum(resp.sum(axis=0), 1e-300)
        weights = totals / len(values)
        means = resp.T @ values / totals
        variances = np.maximum(
            (resp * (values[:, None] - means[None, :]) ** 2).sum(axis=0) / totals,
            var_floor,
        )
        weights = weights / weights.sum()
        if new_log_likelihood - log_likelihood < GMM_TOL:
            break
        log_likelihood = new_log_likelihood

    model = GMM(weights=weights, means=means, variances=variances)
    return model, np.asarray(trace)


def _kmeanspp_centers(values: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = [values[rng.integers(len(values))]]
    for _ in range(1, k):
        d2 = np.min((values[:, None] - np.asarray(centers)[None, :]) ** 2, axis=1)
        total = d2.sum()
        if total == 0.0:
            centers.append(values[rng.integers(len(values))])
            continue
        target = rng.random() * total
        centers.append(values[np.searchsorted(np.cumsum(d2), target)])
    return np.asarray(centers, dtype=np.float64)


def gmm_pdf(model: GMM, x) -> np.ndarray | float:
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    z = (xs[:, None] - model.means[None, :]) ** 2 / model.variances[None, :]
    comp = np.exp(-0.5 * z) / np.sqrt(2.0 * np.pi * model.variances)[None, :]
    out = comp @ model.weights
    return out if np.ndim(x) else float(out[0])

