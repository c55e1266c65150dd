"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The full-scale synthetic benchmark (9 performers x 16980 notes) is
built once and shared.
"""

import itertools
import math
import time

import numpy as np
import pytest

from pianist_id.alignment import COST_GAP, COST_SUB, align_pair
from pianist_id.cli import main
from pianist_id.densities import (
    GMM,
    Histogram,
    fit_gmm,
    fit_gmm_trace,
    fit_histogram,
    fit_kde,
    gmm_pdf,
    histogram_pdf,
    kde_pdf,
)
from pianist_id.divergence import kl_gmm, kl_histogram, kl_kde
from pianist_id.evaluation import ExperimentConfig, f_score, logo_split, run_cv
from pianist_id.features import KINDS, compute_norm, deviations
from pianist_id.midi_io import NoteEvent, Performance
from pianist_id.synth import benchmark

FULL_SCALE_SEED = 7


def report_pass(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE PASS criterion {criterion}: {message}")


@pytest.fixture(scope="module")
def full_scale():
    """9 well-separated synthetic performers, 16980 notes, histogram model,
    IOI+DL+ND fusion; timed single-threaded."""
    config = ExperimentConfig(model_family="histogram", feature_set=("IOI", "DL", "ND"))
    started = time.monotonic()
    result = benchmark(9, 16980, config=config, seed=FULL_SCALE_SEED)
    elapsed = time.monotonic() - started
    return result, elapsed


def test_criterion_1_synthetic_end_to_end_recovery(full_scale):
    result, elapsed = full_scale
    precision = result.report.scores.macro_precision
    assert precision >= 0.90
    assert elapsed < 300.0
    assert len(result.report.trials) == 72
    report_pass(
        1,
        f"macro precision {precision:.3f} >= 0.90 on 9x16980 notes "
        f"(IOI+DL+ND, histogram) in {elapsed:.1f}s < 300s",
    )


def test_criterion_2_fold_geometry():
    fold = logo_split(16980, 8)
    sizes = [end - start for start, end in fold.groups]
    assert sizes == [2122] * 7 + [2126]
    report_pass(2, "logo_split(16980, 8) -> sizes {2122 x 7, 2126}")


def test_criterion_3_metric_consistency(full_scale):
    f = f_score(0.903, 0.875)
    assert abs(f - 0.889) <= 5e-4
    result, _ = full_scale
    assert len(result.report.trials) == 9 * 8 == 72
    assert 63 / 72 == 0.875
    report_pass(3, f"F(0.903, 0.875) = {f:.4f} within 0.889 +/- 0.0005; 63/72 = 0.875 over 9x8 trials")


def test_criterion_4_kl_oracles():
    # single-component GMM closed forms
    n01 = GMM(np.asarray([1.0]), np.asarray([0.0]), np.asarray([1.0]))
    n11 = GMM(np.asarray([1.0]), np.asarray([1.0]), np.asarray([1.0]))
    n04 = GMM(np.asarray([1.0]), np.asarray([0.0]), np.asarray([4.0]))
    assert abs(kl_gmm(n01, n11).value - 0.5) <= 1e-9
    assert abs(kl_gmm(n01, n04).value - 0.31815) <= 1e-4

    # discrete KL against an independent brute force, 100 random vector pairs
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n_bins = int(rng.integers(2, 40))
        p_masses = rng.dirichlet(np.full(n_bins, 0.8))
        q_masses = rng.dirichlet(np.full(n_bins, 0.8))
        edges = np.linspace(0.0, 1.0, n_bins + 1)
        eps = 1e-9
        p = Histogram(edges=edges, masses=p_masses, smoothing_eps=eps)
        q = Histogram(edges=edges, masses=q_masses, smoothing_eps=eps)
        ps = [(m + eps) / (1 + n_bins * eps) for m in p_masses.tolist()]
        qs = [(m + eps) / (1 + n_bins * eps) for m in q_masses.tolist()]
        expected = math.fsum(a * math.log(a / b) for a, b in zip(ps, qs))
        worst = max(worst, abs(kl_histogram(p, q).value - expected))
    assert worst <= 1e-12

    # KDE grid estimate approaches the Gaussian closed form
    rng = np.random.default_rng(77)
    p_kde = fit_kde(rng.normal(0.0, 1.0, 10_000), bandwidth=0.15)
    q_kde = fit_kde(rng.normal(1.0, 1.0, 10_000), bandwidth=0.15)
    kde_value = kl_kde(p_kde, q_kde).value
    assert abs(kde_value - 0.5) <= 0.05
    report_pass(
        4,
        f"GMM closed forms exact; histogram vs brute force worst |diff| = {worst:.2e} <= 1e-12; "
        f"KDE estimate {kde_value:.3f} within 0.5 +/- 0.05",
    )


def test_criterion_5_density_properties():
    rng = np.random.default_rng(555)
    checked = 0
    for fixture in range(50):
        n_modes = fixture % 3 + 1
        values = np.concatenate(
            [
                rng.normal(rng.uniform(-3, 3), rng.uniform(0.2, 1.5), size=140)
                for _ in range(n_modes)
            ]
        )
        seed = 1000 + fixture

        gmm, trace = fit_gmm_trace(values, k=3, seed=seed)
        assert np.all(np.diff(trace) >= -1e-10), "EM log-likelihood decreased"

        gmm_again = fit_gmm(values, k=3, seed=seed)
        assert np.array_equal(gmm.weights, gmm_again.weights)
        assert np.array_equal(gmm.means, gmm_again.means)
        assert np.array_equal(gmm.variances, gmm_again.variances)

        hist = fit_histogram(values, n_bins=40)
        kde = fit_kde(values, bandwidth=0.25)
        mean = float(values.mean())
        stddev = float(values.std())
        grid = np.linspace(mean - 10 * stddev, mean + 10 * stddev, 4096)
        hist_pdf = np.asarray(histogram_pdf(hist, grid))
        kde_vals = np.asarray(kde_pdf(kde, grid))
        gmm_vals = np.asarray(gmm_pdf(gmm, grid))
        assert np.all(hist_pdf >= 0) and np.all(kde_vals >= 0) and np.all(gmm_vals >= 0)
        assert abs(float(np.trapezoid(kde_vals, grid)) - 1.0) <= 1e-3
        assert abs(float(np.trapezoid(gmm_vals, grid)) - 1.0) <= 1e-3
        checked += 1
    assert checked == 50
    report_pass(5, "50 seeded fixtures: pdfs non-negative, integrate to 1 +/- 1e-3, EM monotone, fits deterministic")


def test_criterion_6_feature_correctness(full_scale):
    from pianist_id.alignment import build_table
    from pianist_id.synth import default_profiles, generate_score, render_performer

    # a full-coverage 9-performer table; 2000 notes keeps onsets within ~600 s
    # where a 1e-12 absolute tolerance is meaningful for float64 means
    score = generate_score(2000, seed=19)
    profiles = default_profiles(9, base_seed=19)
    table, _report = build_table(
        [render_performer(score, p, f"p{i+1}") for i, p in enumerate(profiles)]
    )
    norm_stream = compute_norm(table)

    # zero-deviation identity
    for kind in KINDS:
        series = deviations(norm_stream, norm_stream, kind)
        assert len(series) > 0 and np.all(series.values == 0.0)

    # Eq. 1 / Eq. 2 metric assignment on hand fixtures: two-note streams with
    # OTD (next onset - offset) -0.05 for the norm and 0.03 for the performer,
    # and OT 1.00 for the norm and 1.02 for the performer
    from pianist_id.features import NoteStream

    def two_notes(label, onsets, offsets):
        return NoteStream(
            label=label,
            positions=np.arange(2, dtype=np.int64),
            onsets=np.asarray(onsets),
            offsets=np.asarray(offsets),
            dynamics=np.full(2, 64.0),
        )

    otd = deviations(
        two_notes("p", [0.0, 1.00], [0.97, 1.5]),
        two_notes("norm", [0.0, 1.00], [1.05, 1.5]),
        "OTD",
    )
    assert otd.values[0] == pytest.approx(0.02, abs=1e-15)
    ot = deviations(
        two_notes("p", [1.02, 2.0], [1.5, 2.5]),
        two_notes("norm", [1.00, 2.0], [1.5, 2.5]),
        "OT",
    )
    assert ot.values[0] == pytest.approx(-0.02, abs=1e-15)

    # linearity equivalence: mean of per-performer quantities == norm quantity
    from pianist_id.features import derive_quantity, performer_stream

    streams = [performer_stream(table, pid) for pid in table.performer_ids]
    worst = 0.0
    for kind in ("IOI", "OTD", "ND"):
        per_perf = np.stack([derive_quantity(s, kind).values for s in streams])
        from_norm = derive_quantity(norm_stream, kind).values
        worst = max(worst, float(np.max(np.abs(per_perf.mean(axis=0) - from_norm))))
    assert worst <= 1e-12

    # duration-linked features stay strongly correlated on realistic data
    result, _ = full_scale
    # pooled over performers; OTD is anchored on ND's positions but the last
    series = [result.dataset.by_performer[pid] for pid in result.dataset.performer_ids]
    otd = np.concatenate([s["OTD"].values for s in series])
    nd = np.concatenate([s["ND"].values[:-1] for s in series])
    r = float(np.corrcoef(otd, nd)[0, 1])
    assert r > 0.9
    report_pass(
        6,
        f"zero identity, Eq.1/Eq.2 fixtures, linearity worst |diff| = {worst:.2e} <= 1e-12, "
        f"pearson(OTD, ND) = {r:.3f} > 0.9",
    )


def brute_force_cost(ref, perf):
    n, m = len(ref), len(perf)
    best = COST_GAP * n + COST_GAP * m
    for k in range(1, min(n, m) + 1):
        gap_cost = COST_GAP * (n - k) + COST_GAP * (m - k)
        for ref_idx in itertools.combinations(range(n), k):
            for perf_idx in itertools.combinations(range(m), k):
                pair_cost = sum(
                    0.0 if ref[r] == perf[p] else COST_SUB
                    for r, p in zip(ref_idx, perf_idx)
                )
                best = min(best, pair_cost + gap_cost)
    return best


def test_criterion_7_alignment_optimality():
    def as_perf(pitches, pid):
        notes = tuple(
            NoteEvent(0.5 * i, 0.5 * i + 0.3, p, 64) for i, p in enumerate(pitches)
        )
        return Performance(pid, "x", notes)

    rng = np.random.default_rng(4242)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        ref = [int(p) for p in rng.integers(60, 65, size=n)]
        perf = [int(p) for p in rng.integers(60, 65, size=m)]
        al = align_pair(as_perf(ref, "r"), as_perf(perf, "p"))
        assert al.total_cost == pytest.approx(brute_force_cost(ref, perf), abs=1e-9)

    identity = as_perf([60, 62, 64, 65, 67], "r")
    same = as_perf([60, 62, 64, 65, 67], "p")
    al = align_pair(identity, same)
    assert al.pairs == tuple((i, i) for i in range(5))
    assert al.total_cost == 0.0
    report_pass(7, "DP cost equals brute-force optimum on 500 seeded pairs; identity aligns as identity")


def test_criterion_8_pipeline_determinism(tmp_path):
    data = tmp_path / "data"
    assert main(
        ["synth", "--performers", "4", "--notes", "600", "--seed", "3", "--out", str(data)]
    ) == 0
    reports = []
    for jobs in (1, 4):
        out = tmp_path / f"jobs{jobs}"
        code = main(
            [
                "evaluate",
                "--input", str(data / "performances"),
                "--out", str(out),
                "--model", "histogram",
                "--features", "IOI,DL,ND",
                "--groups", "8",
                "--seed", "3",
                "--jobs", str(jobs),
            ]
        )
        assert code == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    report_pass(8, "cmd_evaluate JSON reports byte-identical for --jobs 1 and --jobs 4")


def test_criterion_9_weight_scaling_invariance(full_scale):
    result, _ = full_scale
    base_confusion = result.report.confusion
    for factor in (3.7, 0.2):
        config = ExperimentConfig(
            model_family="histogram",
            feature_set=("IOI", "DL", "ND"),
            weights=(factor, factor, factor),
        )
        scaled = run_cv(result.dataset, config)
        assert np.array_equal(scaled.confusion, base_confusion)
    report_pass(9, "confusion matrix invariant under fusion-weight scaling by 3.7 and 0.2")
