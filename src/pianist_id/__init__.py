"""Pianist identification from MIDI performances of a shared piece.

Pipeline: parse performances, align them note-to-note against a reference,
average the aligned notes into a norm performance, extract per-note deviation
features (OT, IOI, OTD, DL, ND), model each performer's deviation
distributions (histogram / KDE / GMM), and classify held-out groups by
minimum fused KL divergence under leave-one-group-out cross-validation.
"""

from .alignment import AlignedNoteTable, NoteAlignment, align_pair, build_table
from .densities import (
    DEFAULT_BANDWIDTHS,
    GMM,
    KDE,
    Histogram,
    fit_gmm,
    fit_histogram,
    fit_kde,
    gmm_pdf,
    histogram_pdf,
    kde_pdf,
)
from .divergence import KlResult, gaussian_kl, kl, kl_gmm, kl_histogram, kl_kde
from .evaluation import (
    DeviationDataset,
    EvaluationReport,
    ExperimentConfig,
    FoldSpec,
    classify,
    logo_split,
    metrics,
    run_cv,
    sweep,
)
from .features import (
    KINDS,
    DeviationSeries,
    NoteStream,
    compute_norm,
    derive_quantity,
    deviations,
    pearson_r,
    performer_stream,
)
from .midi_io import (
    NoteEvent,
    Performance,
    SmfParseError,
    from_note_table,
    parse_smf,
    parse_smf_with_warnings,
    parse_smfs,
    to_note_table,
    write_smf,
)
from .synth import PerformerProfile, VelocityShift, benchmark, default_profiles, generate_score, render_performer

__version__ = "0.1.0"
