"""Norm performance and the five note-level deviation features.

A table column and the norm performance (the per-position mean over all
performers, labelled ``norm``) are both a ``NoteStream``, and a derived
quantity and a deviation are both a ``DeviationSeries``.

Quantities per note stream: OT (onset time), DL (dynamic level), ND (note
duration = offset - onset), IOI (inter-onset interval to the next note) and
OTD (gap between a note's offset and the next onset; negative means legato
overlap). Deviations subtract the performer's quantity from the norm's: plain
difference for OT/DL/ND, difference of absolute values for IOI/OTD.

There is one path from note streams to deviations: gather a performer's and
the norm's notes at their shared positions, derive each kind from both and
subtract. ``extract_deviations`` does it for every table column in one pass
over the stacked columns, whose slices are each performer's series;
``deviations`` runs the same pass on one stream and one kind.
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
        p, e = self.positions, self.end_positions
        if len(p) and ((p[1:] <= p[:-1]).any() or e is not p and ((e[1:] <= e[:-1]).any() or (e < p).any())):
            raise ValueError("positions and end_positions must be strictly increasing, no end before its start")

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
    values = _quantity(_check_kind(kind), stream.onsets, stream.offsets, stream.dynamics)
    return _series(kind, stream.label, values, stream.positions)


def _quantity(kind: str, onsets, offsets, dynamics) -> np.ndarray:
    """One kind's quantity of notes in position order; a pair kind has one value
    per consecutive pair of them."""
    if kind == "OT":
        return onsets
    if kind == "DL":
        return dynamics
    if kind == "ND":
        return offsets - onsets
    earlier = onsets if kind == "IOI" else offsets  # IOI or OTD
    return onsets[1:] - earlier[:-1]


def _series(kind: str, label: str, values: np.ndarray, positions: np.ndarray, new=DeviationSeries) -> DeviationSeries:
    """``values`` of the notes at ``positions``, made by ``new``; a pair kind's
    value anchors on the first of its two notes."""
    starts, ends = (positions[:-1], positions[1:]) if kind in PAIR_KINDS else (positions, positions)
    return new(kind, label, values, starts, ends)


def deviations(performer: NoteStream, norm: NoteStream, kind: str) -> DeviationSeries:
    """Deviation series of a performer from the norm for one feature kind.

    Both streams are first restricted to their common positions, so IOI/OTD
    run between the performer's consecutive present notes and the norm
    quantity spans the same two positions.

    The sign convention is norm minus performer: x - y for OT/DL/ND and
    |x| - |y| for IOI/OTD, with x the norm quantity.
    """
    common, *indices = np.intersect1d(
        performer.positions, norm.positions, assume_unique=True, return_indices=True
    )
    perf, ref = ((s.onsets[i], s.offsets[i], s.dynamics[i]) for s, i in zip((performer, norm), indices))
    [series] = _deviation_columns((_check_kind(kind),), [performer.label], [0, len(common)], common, perf, ref)
    return series[kind]


def _deviation_columns(kinds, labels, bounds, positions, perf, norm) -> list[dict[str, DeviationSeries]]:
    """Per label, the norm-minus-performer series of each kind, where label c's
    notes are ``[bounds[c], bounds[c + 1])`` of the stacked ``positions`` and of
    the (onsets, offsets, dynamics) in ``perf`` and, at the same positions,
    ``norm``. A pair kind is subtracted over every consecutive pair of the
    stack, and a label's slice leaves out the pair that ends in the next
    label's first note.

    ``DeviationSeries``' checks run once on the stacks: each label's positions
    must strictly increase, and each kind's values be finite. The series, whose
    slices then pass them, are built without re-running them."""
    rises = np.diff(positions) > 0
    rises[[b - 1 for b in bounds[1:-1] if 0 < b < len(positions)]] = True  # label joins
    if not rises.all():
        raise ValueError("positions and end_positions must be strictly increasing, no end before its start")
    out = [{} for _ in labels]
    for kind in kinds:
        x, y = _quantity(kind, *norm), _quantity(kind, *perf)
        pair = kind in PAIR_KINDS
        values = np.abs(x) - np.abs(y) if pair else x - y
        if not np.isfinite(values).all():
            raise ValueError("series values must be finite")
        for series, label, lo, hi in zip(out, labels, bounds, bounds[1:]):
            series[kind] = _series(kind, label, values[lo : max(lo, hi - pair)], positions[lo:hi], _checked_series)
    return out


def _checked_series(kind, label, values, positions, end_positions) -> DeviationSeries:
    """A ``DeviationSeries`` of parts that already pass its checks."""
    series = object.__new__(DeviationSeries)
    series.__dict__.update(
        kind=kind, performer_id=label, values=values, positions=positions, end_positions=end_positions
    )
    return series


def extract_deviations(
    table: AlignedNoteTable, norm: NoteStream | None = None, kinds: Iterable[str] = KINDS
) -> dict[str, dict[str, DeviationSeries]]:
    """Each of ``kinds``' deviation series (every kind by default) for every
    performer in the table, from ``norm`` or else from ``compute_norm(table)``.

    One pass serves every column: ``np.nonzero`` picks each column's present
    cells at the norm's positions, column after column, and their notes and
    the norm's are gathered once. The series are slices of one stacked array
    per kind, with the bits ``deviations`` gives for each performer stream,
    and a kind not in ``kinds`` is not derived.
    """
    kinds = [_check_kind(kind) for kind in kinds]
    if norm is None:
        norm = compute_norm(table)
    index = np.arange(table.n_positions)
    shared = (table.present_mask() & np.isin(index, norm.positions)[:, None]).T
    cols, rows = np.nonzero(shared)
    at = np.searchsorted(norm.positions, index)[rows]
    bounds = np.searchsorted(cols, np.arange(len(table.performer_ids) + 1)).tolist()
    perf = [a.T[shared] for a in (table.onsets, table.offsets, table.dynamics)]
    ref = [a[at] for a in (norm.onsets, norm.offsets, norm.dynamics)]
    by_column = _deviation_columns(kinds, table.performer_ids, bounds, rows, perf, ref)
    return dict(zip(table.performer_ids, by_column))


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
