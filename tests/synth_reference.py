"""Reference score generator and renderer for tests, one note at a time.

``reference_generate_score`` and ``reference_render_performer`` build one
``NoteEvent`` per note, in a loop that makes one draw per value, in note
order, through numpy's own ``Generator.choice``, ``uniform``, ``integers``
and ``normal``. They are the oracle for ``synth.generate_score`` and
``synth.render_performer``, which draw the same words of the same stream
through cheaper calls (``random()`` for a choice or a uniform value, and one
``standard_normal`` call per render without a second velocity mode) and
compute the same notes with array arithmetic: for every seed and profile,
both give the same columns bit for bit, and so the same ``write_smf`` bytes.
Keep the calls here as they are; ``tests/test_synth.py`` pins the numpy
identities that make the two forms agree.
"""

from __future__ import annotations

import numpy as np

from pianist_id.midi_io import NoteEvent, Performance
from pianist_id.synth import (
    CHORD_PROBABILITIES,
    MIN_DURATION,
    MIN_NOTE_GAP,
    SCORE_DURATION_FRACTION,
    SCORE_DYNAMIC_RANGE,
    SCORE_IOI_RANGE,
    SCORE_PITCH_RANGE,
    PerformerProfile,
)


def reference_generate_score(n_notes: int, seed: int) -> Performance:
    if n_notes < 2:
        raise ValueError(f"need at least 2 notes, got {n_notes}")
    rng = np.random.default_rng(seed)
    chord_sizes, chord_probs = zip(*CHORD_PROBABILITIES)
    notes: list[NoteEvent] = []
    onset = 0.0
    pitch_center = 66
    while len(notes) < n_notes:
        ioi = float(rng.uniform(*SCORE_IOI_RANGE))
        duration = float(rng.uniform(*SCORE_DURATION_FRACTION)) * ioi
        size = min(int(rng.choice(chord_sizes, p=chord_probs)), n_notes - len(notes))
        pitch_center = int(
            np.clip(pitch_center + rng.integers(-5, 6), SCORE_PITCH_RANGE[0] + 8, SCORE_PITCH_RANGE[1] - 8)
        )
        pitches = sorted({pitch_center + 4 * i for i in range(size)})
        for pitch in pitches:
            dynamic = int(rng.integers(SCORE_DYNAMIC_RANGE[0], SCORE_DYNAMIC_RANGE[1] + 1))
            notes.append(NoteEvent(onset, onset + duration, pitch, dynamic))
        onset += ioi
    return Performance("score", f"synth-{seed}", tuple(notes))


def reference_render_performer(
    score: Performance, profile: PerformerProfile, performer_id: str | None = None
) -> Performance:
    rng = np.random.default_rng(profile.seed)
    jitter_mean, jitter_std = profile.onset_jitter
    shift = profile.velocity_shift

    notes: list[NoteEvent] = []
    previous_onset = -1.0
    current_source_onset: float | None = None
    current_onset = 0.0
    for note in score.notes:
        if note.onset != current_source_onset:
            current_source_onset = note.onset
            onset = note.onset * profile.tempo_scale + float(
                rng.normal(jitter_mean, jitter_std)
            )
            floor = 0.0 if previous_onset < 0.0 else previous_onset + MIN_NOTE_GAP
            if onset < floor:
                onset = floor
            current_onset = onset
            previous_onset = onset
        duration = max(
            note.duration * profile.duration_scale - profile.articulation_bias,
            MIN_DURATION,
        )
        if shift.second_mean is not None and rng.random() < shift.second_weight:
            velocity_offset = rng.normal(shift.second_mean, shift.stddev)
        else:
            velocity_offset = rng.normal(shift.mean, shift.stddev)
        dynamic = int(np.clip(round(note.dynamic + velocity_offset), 1, 127))
        notes.append(NoteEvent(current_onset, current_onset + duration, note.pitch, dynamic))
    return Performance(
        performer_id or f"{score.performer_id}-rendered",
        score.piece_id,
        tuple(notes),
    )
