"""Synthetic multi-performer datasets with known, distinct deviation profiles.

A pseudo-random score (monophonic with occasional chords) is rendered once per
performer profile: onsets are tempo-scaled and jittered, dynamics shifted
(optionally bimodally), durations scaled and articulation-biased. Because the
renderer preserves note order and pitches, rendered performances align to the
score as the identity mapping, which gives the whole pipeline a ground truth.

Scores and renders are built as note columns from the same random stream as
the note-by-note form in ``tests/synth_reference.py``, which draws through
``Generator.choice``, ``uniform`` and ``normal``; a seed gives the same notes
and bytes from both. Each value here is drawn by the cheapest call that
consumes the same words of the stream and gives the same float: a chord size
is ``bisect_right`` of one ``random()`` on the CDF that ``choice`` builds, a
uniform value is ``low + (high - low) * random()``, and a normal one is
``loc + scale * z`` for a standard normal ``z``. A render whose profile has
no second velocity mode draws all its normals in one ``standard_normal`` call,
in note order. A second mode interleaves a ``random()`` per note with the
normals, which take a variable number of words, so that render draws note by
note.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .alignment import build_table
from .evaluation import DeviationDataset, EvaluationReport, ExperimentConfig, run_cv
from .midi_io import Performance

SCORE_PITCH_RANGE = (36, 96)
SCORE_IOI_RANGE = (0.1, 1.0)
SCORE_DYNAMIC_RANGE = (40, 100)
# staccato-leaning duration fractions: durations and gaps both track the IOI,
# which keeps note-duration and off-time-duration features strongly correlated
SCORE_DURATION_FRACTION = (0.62, 0.74)
CHORD_PROBABILITIES = ((1, 0.82), (2, 0.13), (3, 0.05))
MIN_NOTE_GAP = 1e-6
MIN_DURATION = 0.01


def _require_finite(**fields) -> None:
    for name, value in fields.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class VelocityShift:
    """Gaussian velocity offset, optionally with a second mode for bimodality."""

    mean: float = 0.0
    stddev: float = 0.0
    second_mean: float | None = None
    second_weight: float = 0.0

    def __post_init__(self):
        _require_finite(mean=self.mean, stddev=self.stddev, second_weight=self.second_weight)
        if self.second_mean is not None:
            _require_finite(second_mean=self.second_mean)
        if self.stddev < 0:
            raise ValueError("stddev must be non-negative")
        if not 0.0 <= self.second_weight <= 1.0:
            raise ValueError("second_weight must lie in [0, 1]")


@dataclass(frozen=True)
class PerformerProfile:
    tempo_scale: float = 1.0
    onset_jitter: tuple[float, float] = (0.0, 0.0)
    velocity_shift: VelocityShift = field(default_factory=VelocityShift)
    articulation_bias: float = 0.0
    duration_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _require_finite(
            tempo_scale=self.tempo_scale,
            onset_jitter=self.onset_jitter,
            articulation_bias=self.articulation_bias,
            duration_scale=self.duration_scale,
        )
        if not 0.5 <= self.tempo_scale <= 2.0:
            raise ValueError(f"tempo_scale must lie in [0.5, 2.0], got {self.tempo_scale}")
        if self.onset_jitter[1] < 0:
            raise ValueError("onset jitter stddev must be non-negative")
        if self.duration_scale <= 0:
            raise ValueError("duration_scale must be positive")


def generate_score(n_notes: int, seed: int) -> Performance:
    """Deterministic pseudo-random score with plausible ranges.

    Pitches 36..96, inter-onset intervals 0.1..1.0 s, dynamics 40..100;
    chords of up to 3 notes share an onset and duration.
    """
    if n_notes < 2:
        raise ValueError(f"need at least 2 notes, got {n_notes}")
    rng = np.random.default_rng(seed)
    random, integers = rng.random, rng.integers
    chord_sizes, chord_probs = zip(*CHORD_PROBABILITIES)
    cumulative = np.cumsum(chord_probs)
    chord_cdf = (cumulative / cumulative[-1]).tolist()  # the CDF Generator.choice searches
    ioi_low, ioi_high = SCORE_IOI_RANGE
    fraction_low, fraction_high = SCORE_DURATION_FRACTION
    dynamic_low, dynamic_high = SCORE_DYNAMIC_RANGE
    onsets: list[float] = []
    offsets: list[float] = []
    pitches: list[int] = []
    dynamics: list[int] = []
    onset = 0.0
    pitch_center = 66
    while len(pitches) < n_notes:
        ioi = ioi_low + (ioi_high - ioi_low) * random()
        duration = (fraction_low + (fraction_high - fraction_low) * random()) * ioi
        size = min(chord_sizes[bisect_right(chord_cdf, random())], n_notes - len(pitches))
        pitch_center += int(integers(-5, 6))
        pitch_center = min(max(pitch_center, SCORE_PITCH_RANGE[0] + 8), SCORE_PITCH_RANGE[1] - 8)
        onsets += [onset] * size
        offsets += [onset + duration] * size
        pitches.extend(range(pitch_center, pitch_center + 4 * size, 4))
        # scalar draws: integers(..., size=k) takes the same words but costs more per call
        dynamics.extend(int(integers(dynamic_low, dynamic_high + 1)) for _ in range(size))
        onset += ioi
    return Performance.from_columns("score", f"synth-{seed}", onsets, offsets, pitches, dynamics)


def render_performer(
    score: Performance, profile: PerformerProfile, performer_id: str | None = None
) -> Performance:
    """Apply a profile to a score; note order and pitches are preserved.

    All notes of a chord share one jitter draw, so simultaneous notes stay
    simultaneous; jittered onsets are nudged forward where needed to keep the
    original note order. Random values are drawn in note order (a chord's jitter
    before its first note's velocity draws), as the module docstring describes;
    the rest is array arithmetic.
    """
    rng = np.random.default_rng(profile.seed)
    jitter_mean, jitter_std = profile.onset_jitter
    shift = profile.velocity_shift

    starts_chord = np.ones(len(score), dtype=bool)  # a note whose onset differs from the last
    starts_chord[1:] = score.onsets[1:] != score.onsets[:-1]
    chord_index = np.cumsum(starts_chord) - 1
    if shift.second_mean is None:
        # one normal per chord and one per note, in stream order: a note's velocity
        # normal follows those of the notes before it and its chord's jitter normal
        velocity_at = np.arange(len(score)) + chord_index + 1
        z = rng.standard_normal(len(velocity_at) + int(starts_chord.sum()))
        jitters = jitter_mean + jitter_std * z[velocity_at[starts_chord] - 1]
        velocity_offsets = shift.mean + shift.stddev * z[velocity_at]
    else:
        random, normal = rng.random, rng.normal
        jitters = []
        velocity_offsets = []
        for starts in starts_chord.tolist():
            if starts:
                jitters.append(normal(jitter_mean, jitter_std))
            mean = shift.second_mean if random() < shift.second_weight else shift.mean
            velocity_offsets.append(normal(mean, shift.stddev))

    # the onset floor depends on the previous chord's floored onset, so it is a loop
    chord_onsets = (score.onsets[starts_chord] * profile.tempo_scale + jitters).tolist()
    floor = 0.0
    for k, onset in enumerate(chord_onsets):
        chord_onsets[k] = onset = max(onset, floor)
        floor = onset + MIN_NOTE_GAP
    onsets = np.asarray(chord_onsets)[chord_index]
    durations = (score.offsets - score.onsets) * profile.duration_scale - profile.articulation_bias
    dynamics = np.clip(np.rint(score.dynamics + np.asarray(velocity_offsets)), 1, 127)
    return Performance.from_columns(
        performer_id or f"{score.performer_id}-rendered",
        score.piece_id,
        onsets,
        onsets + np.maximum(durations, MIN_DURATION),
        score.pitches,
        dynamics.astype(np.int64),
    )


def default_profiles(
    n_performers: int, base_seed: int = 0, separation: float = 1.0
) -> list[PerformerProfile]:
    """Well-separated performer profiles, built deterministically.

    ``separation`` scales every profile's distance from the neutral rendition;
    0 collapses all profiles onto the identity (apart from their seeds).
    Duration scale follows tempo scale, mimicking slower players holding notes
    longer; a few profiles get bimodal velocity behavior.
    """
    if n_performers < 1:
        raise ValueError("need at least one performer")
    profiles = []
    for i in range(n_performers):
        centered = (i - (n_performers - 1) / 2.0) / max(n_performers - 1, 1)
        tempo = 1.0 + separation * 0.3 * centered
        velocity_mean = separation * 24.0 * centered
        jitter_std = 0.003 + 0.003 * (i % 3)
        second_mean = None
        second_weight = 0.0
        if i % 3 == 2:
            second_mean = velocity_mean + separation * 6.0
            second_weight = 0.35
        profiles.append(
            PerformerProfile(
                tempo_scale=tempo,
                onset_jitter=(separation * 0.012 * centered, jitter_std),
                velocity_shift=VelocityShift(
                    mean=velocity_mean,
                    stddev=2.0 + (i % 2),
                    second_mean=second_mean,
                    second_weight=second_weight,
                ),
                articulation_bias=separation * 0.008 * centered,
                duration_scale=tempo,
                seed=base_seed * 1009 + 101 + i,
            )
        )
    return profiles


@dataclass(frozen=True)
class BenchmarkResult:
    report: EvaluationReport
    dataset: DeviationDataset


def benchmark(
    n_performers: int,
    n_notes: int,
    profiles: list[PerformerProfile] | None = None,
    config: ExperimentConfig | None = None,
    seed: int = 0,
) -> BenchmarkResult:
    """Generate, render and evaluate a full synthetic experiment.

    Returns the CV report together with the dataset it was computed from.
    """
    if profiles is None:
        profiles = default_profiles(n_performers, base_seed=seed)
    if len(profiles) != n_performers:
        raise ValueError(f"expected {n_performers} profiles, got {len(profiles)}")
    if config is None:
        config = ExperimentConfig(model_family="histogram", feature_set=("IOI", "DL", "ND"))

    score = generate_score(n_notes, seed)
    width = len(str(n_performers))
    performances = [
        render_performer(score, profile, f"p{i + 1:0{width}d}")
        for i, profile in enumerate(profiles)
    ]
    table, _ = build_table(performances)
    dataset = DeviationDataset.from_table(table)
    report = run_cv(dataset, config)

    return BenchmarkResult(report=report, dataset=dataset)

