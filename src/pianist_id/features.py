"""Norm performance and the five note-level deviation features.

A table column and the norm performance (the per-position mean over all
performers, labelled ``norm``) are both a ``NoteStream``, and a derived
quantity and a deviation are both a ``DeviationSeries``.

Quantities per note stream: OT (onset time), DL (dynamic level), ND (note
duration = offset - onset), IOI (inter-onset interval to the next note) and
OTD (gap between a note's offset and the next onset; negative means legato
overlap). Deviations subtract the performer's quantity from the norm's: plain
difference for OT/DL/ND, difference of absolute values for IOI/OTD.

There is one path from note streams to deviations: restrict the performer and
norm streams to their shared positions, then derive each kind from that pair
and subtract. ``deviations`` does both for one kind; ``extract_deviations``
restricts each performer once and derives every kind from it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .alignment import AlignedNoteTable

KINDS = ("OT", "IOI", "OTD", "DL", "ND")
POINT_KINDS = frozenset({"OT", "DL", "ND"})
PAIR_KINDS = frozenset({"IOI", "OTD"})

NORM_LABEL = "norm"


class UndefinedCorrelationError(ValueError):
    """Pearson correlation is undefined (constant input or length < 2)."""


def _check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"unknown feature kind {kind!r}; expected one of {KINDS}")
    return kind


@dataclass(frozen=True)
class NoteStream:
    """Position-indexed note quantities for one table column or the norm."""

    label: str
    positions: np.ndarray
    onsets: np.ndarray
    offsets: np.ndarray
    dynamics: np.ndarray

    def __post_init__(self):
        n = len(self.positions)
        for name in ("onsets", "offsets", "dynamics"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length mismatch")
        if np.any(np.diff(self.positions) <= 0):
            raise ValueError("positions must be strictly increasing")

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class DeviationSeries:
    """One feature's per-note values: a stream's derived quantity, or a
    performer's deviation from the norm; pair kinds anchor on the first note."""

    kind: str
    performer_id: str
    values: np.ndarray
    positions: np.ndarray
    end_positions: np.ndarray

    def __post_init__(self):
        _check_kind(self.kind)
        if not len(self.positions) == len(self.end_positions) == len(self.values):
            raise ValueError("positions/end_positions/values length mismatch")
        if len(self.values) and not np.all(np.isfinite(self.values)):
            raise ValueError("series values must be finite")

    def __len__(self) -> int:
        return len(self.values)


def compute_norm(table: AlignedNoteTable) -> NoteStream:
    """The norm stream: the mean onset, offset and dynamic of each position's
    present cells."""
    if np.any(table.coverage() < 1):
        raise ValueError("every position needs at least one present cell")
    norm = NoteStream(
        label=NORM_LABEL,
        positions=np.arange(table.n_positions, dtype=np.int64),
        onsets=np.nanmean(table.onsets, axis=1),
        offsets=np.nanmean(table.offsets, axis=1),
        dynamics=np.nanmean(table.dynamics, axis=1),
    )
    if np.any(norm.offsets <= norm.onsets):
        raise ValueError("norm offsets must exceed norm onsets")
    return norm


def performer_stream(table: AlignedNoteTable, performer_id: str) -> NoteStream:
    """The present cells of one performer column, in position order."""
    col = table.performer_ids.index(performer_id)
    mask = table.present_mask()[:, col]
    positions = np.nonzero(mask)[0].astype(np.int64)
    return NoteStream(
        label=performer_id,
        positions=positions,
        onsets=table.onsets[mask, col],
        offsets=table.offsets[mask, col],
        dynamics=table.dynamics[mask, col],
    )


def derive_quantity(stream: NoteStream, kind: str) -> DeviationSeries:
    """Per-position quantity of one stream.

    IOI and OTD run between consecutive present notes of the stream; streams
    with fewer than 2 notes yield an empty result for those kinds.
    """
    _check_kind(kind)
    if kind in POINT_KINDS:
        starts = ends = stream.positions
        if kind == "OT":
            values = stream.onsets
        elif kind == "DL":
            values = stream.dynamics
        else:
            values = stream.offsets - stream.onsets
    else:
        starts, ends = stream.positions[:-1], stream.positions[1:]
        earlier = stream.onsets if kind == "IOI" else stream.offsets  # IOI or OTD
        values = stream.onsets[1:] - earlier[:-1]
    return DeviationSeries(kind, stream.label, values, starts, ends)


def deviations(performer: NoteStream, norm: NoteStream, kind: str) -> DeviationSeries:
    """Deviation series of a performer from the norm for one feature kind.

    Both streams are first restricted to their common positions, so IOI/OTD
    run between the performer's consecutive present notes and the norm
    quantity spans the same two positions.

    The sign convention is norm minus performer: x - y for OT/DL/ND and
    |x| - |y| for IOI/OTD, with x the norm quantity.
    """
    return _deviation(*_restrict_to_shared(performer, norm), kind)


def _restrict_to_shared(performer: NoteStream, norm: NoteStream) -> tuple[NoteStream, NoteStream]:
    """Both streams on their common positions."""
    common, *indices = np.intersect1d(
        performer.positions, norm.positions, assume_unique=True, return_indices=True
    )
    return tuple(
        NoteStream(stream.label, common, stream.onsets[i], stream.offsets[i], stream.dynamics[i])
        for stream, i in zip((performer, norm), indices)
    )


def _deviation(performer: NoteStream, norm: NoteStream, kind: str) -> DeviationSeries:
    """Norm-minus-performer deviation of two streams on the same positions."""
    perf_q = derive_quantity(performer, kind)
    x = derive_quantity(norm, kind).values
    y = perf_q.values
    return DeviationSeries(
        kind=kind,
        performer_id=performer.label,
        values=np.abs(x) - np.abs(y) if kind in PAIR_KINDS else x - y,
        positions=perf_q.positions,
        end_positions=perf_q.end_positions,
    )


def extract_deviations(
    table: AlignedNoteTable, norm: NoteStream | None = None
) -> dict[str, dict[str, DeviationSeries]]:
    """Every kind's deviation series for every performer in the table, from
    ``norm`` or else from ``compute_norm(table)``.

    Each performer stream is restricted to the norm once and every kind is
    derived from that pair, which gives the same series as ``deviations``.
    """
    if norm is None:
        norm = compute_norm(table)
    out: dict[str, dict[str, DeviationSeries]] = {}
    for pid in table.performer_ids:
        perf_r, norm_r = _restrict_to_shared(performer_stream(table, pid), norm)
        out[pid] = {kind: _deviation(perf_r, norm_r, kind) for kind in KINDS}
    return out


def pearson_r(a, b) -> float:
    """Sample Pearson correlation; errors on constant input or length < 2."""
    x = np.asarray(a.values if hasattr(a, "values") else a, dtype=np.float64)
    y = np.asarray(b.values if hasattr(b, "values") else b, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise UndefinedCorrelationError("need at least 2 samples")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt(float(np.dot(dx, dx)) * float(np.dot(dy, dy)))
    if denom == 0.0:
        raise UndefinedCorrelationError("correlation undefined for constant input")
    r = float(np.dot(dx, dy)) / denom
    return max(-1.0, min(1.0, r))


def dump_features_csv(series: Iterable[DeviationSeries]) -> str:
    """CSV dump with columns performer,kind,position,value (UTF-8, LF)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["performer", "kind", "position", "value"])
    for s in series:
        for pos, value in zip(s.positions.tolist(), s.values.tolist()):
            writer.writerow([s.performer_id, s.kind, pos, repr(float(value))])
    return buf.getvalue()
