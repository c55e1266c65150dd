"""Standard MIDI File parsing/writing and the note-table CSV interchange format.

A performance is four note columns and nothing else, with absolute times in
seconds: onset, offset, pitch and dynamic level (note-on velocity). Only what
the downstream pipeline needs is kept. Sustain pedal (CC64) is ignored, so
offsets are key-release times.

The SMF reader takes many files at once (``parse_smfs``; a one-file parse is
the batch of one). One array pass decodes the track chunks of all of them,
or as many as fit in ``_BATCH_BYTES`` (32 KiB), together (``_decode_tracks``):
where the next event would start from every byte offset of all its chunks,
the chain of events from each chunk's start, then every event's tick, status
and note at once. A track that pass cannot certify (a malformed one, or one
where running status repeats a 1-data-byte message) goes through
``_scan_track``, one Python step per event, which also gives every error its
message and byte offset. Both decoders pair notes FIFO through ``_pair_notes``
and return per track its tempo changes, its (on tick, off tick, pitch,
velocity) rows in closing order, and how many of the last rows are note-ons
left open and closed at the final tick. The reader then merges each file's
tracks and words both warnings: the dangling note-ons, per track, then the
zero-length notes. All ticks of a file go to seconds in one vectorised step.

``NoteEvent`` is one note, a plain named tuple checked when it enters a
``Performance``: the element of the ``.notes`` view, built on demand from the
columns, and a way to hand a performance over note by note.
"""

from __future__ import annotations

import csv
import io
import logging
import numbers
import operator
import struct
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

log = logging.getLogger(__name__)

NOTE_TABLE_HEADER = ("onset", "offset", "pitch", "dynamic")

#: Microseconds per quarter note when an SMF carries no tempo event (120 BPM).
DEFAULT_TEMPO = 500_000
DEFAULT_DIVISION = 480

#: Integers below this convert to float64 exactly.
_EXACT_INT = 2**53

_MTHD = int.from_bytes(b"MThd", "big")
_MTRK = int.from_bytes(b"MTrk", "big")


class SmfParseError(ValueError):
    """Malformed SMF content; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class NoteEvent(NamedTuple):
    """One performed note, a plain record checked only where it enters a ``Performance``."""

    onset: float
    offset: float
    pitch: int
    dynamic: int

    @property
    def duration(self) -> float:
        return self.offset - self.onset


def _integers(column: np.ndarray) -> tuple[np.ndarray | bool, np.ndarray]:
    """Which entries are integers (a bool is not), True for an integer dtype, and
    the column with every other entry read as 1, so that it can be range-checked."""
    if column.dtype.kind in "iu":
        return True, column
    values = column.tolist()
    integral = [not isinstance(v, bool) and isinstance(v, numbers.Integral) for v in values]
    values = [v if ok else 1 for v, ok in zip(values, integral)]
    return np.array(integral, dtype=bool), np.array(values, dtype=object)


def _checked_columns(onsets, offsets, pitches, dynamics) -> tuple[np.ndarray, ...]:
    """The four note columns as arrays, once every note is valid.

    ``rules`` is the one statement of a valid note: vectorised conditions in
    order, each with its message. The first bad note, in the given order,
    raises the first rule it breaks, worded from its own values. Pitches and
    dynamics that pass are in-range integers whatever their dtype, so are cast.
    """
    columns = (
        np.asarray(onsets, dtype=np.float64),
        np.asarray(offsets, dtype=np.float64),
        np.asarray(pitches),
        np.asarray(dynamics),
    )
    n = len(columns[0])
    if any(column.shape != (n,) for column in columns):
        raise ValueError("note columns must be one-dimensional and of equal length")
    onsets, offsets, pitches, dynamics = columns
    (pitch_ok, pitch_values), (dynamic_ok, dynamic_values) = map(_integers, (pitches, dynamics))
    rules = (
        ((0 <= onsets) & (onsets < np.inf), "onset must be finite and non-negative, got {0}"),
        (onsets < offsets, "offset must exceed onset, got onset={0} offset={1}"),
        (offsets < np.inf, "offset must be finite, got {1}"),
        (pitch_ok & dynamic_ok,
         "pitches and dynamics must be integers, got pitch={2!r} dynamic={3!r}"),
        ((0 <= pitch_values) & (pitch_values <= 127), "pitch out of MIDI range 0..127: {2}"),
        ((1 <= dynamic_values) & (dynamic_values <= 127), "dynamic out of range 1..127: {3}"),
    )
    valid = reduce(operator.and_, (condition for condition, _ in rules))
    if not valid.all():
        i = int(np.argmin(valid))
        message = next(m for c, m in rules if not np.broadcast_to(c, valid.shape)[i])
        raise ValueError(message.format(*(column[i : i + 1].tolist()[0] for column in columns)))
    return onsets, offsets, pitches.astype(np.int64), dynamics.astype(np.int64)


_COLUMNS = ("onsets", "offsets", "pitches", "dynamics")


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Performance:
    """One performer's notes as four read-only columns, sorted by (onset, pitch).

    ``onsets`` and ``offsets`` are float64 seconds (offsets are key-release
    times); ``pitches`` and ``dynamics`` are int64 MIDI values (dynamics are
    note-on velocities). Notes tied in (onset, pitch) keep the order they were
    given in.

    Both constructors take the same path: every note is checked in one
    vectorised pass (``_checked_columns``), and the columns are sorted with
    one stable ``np.lexsort``. :meth:`from_columns` takes four equal-length
    columns; ``Performance(performer_id, piece_id, notes)`` takes
    ``NoteEvent``s and unzips them into columns at once. ``notes`` is a view:
    a new tuple of ``NoteEvent`` built from the checked columns on each access.
    """

    performer_id: str
    piece_id: str
    onsets: np.ndarray
    offsets: np.ndarray
    pitches: np.ndarray
    dynamics: np.ndarray

    def __init__(self, performer_id: str, piece_id: str, notes: Iterable[NoteEvent] = ()):
        self._set_columns(performer_id, piece_id, *(tuple(zip(*notes)) or ((),) * 4))

    @classmethod
    def from_columns(
        cls, performer_id: str, piece_id: str, onsets, offsets, pitches, dynamics
    ) -> Performance:
        """A performance from four equal-length note columns, in any note order."""
        performance = cls.__new__(cls)
        performance._set_columns(performer_id, piece_id, onsets, offsets, pitches, dynamics)
        return performance

    def _set_columns(self, performer_id, piece_id, *columns) -> None:
        columns = _checked_columns(*columns)
        order = np.lexsort((columns[2], columns[0]))  # stable: by onset, then pitch
        sorted_columns = [column[order] for column in columns]
        for column in sorted_columns:
            column.setflags(write=False)
        self.__dict__.update(  # the instance is frozen once built
            zip(_COLUMNS, sorted_columns),
            performer_id=performer_id,
            piece_id=piece_id,
        )

    @property
    def notes(self) -> tuple[NoteEvent, ...]:
        """The notes as ``NoteEvent``s in (onset, pitch) order, built on each access."""
        columns = (getattr(self, name).tolist() for name in _COLUMNS)
        return tuple(map(NoteEvent._make, zip(*columns)))

    def __len__(self) -> int:
        return len(self.onsets)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Performance):
            return NotImplemented
        return (self.performer_id, self.piece_id) == (other.performer_id, other.piece_id) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _COLUMNS
        )

    def __hash__(self) -> int:
        return hash((self.performer_id, self.piece_id, len(self)))

    def __repr__(self) -> str:
        return f"Performance({self.performer_id!r}, {self.piece_id!r}, {len(self)} notes)"


class TempoMap:
    """Piecewise-linear, monotone tick-to-seconds conversion.

    ``changes`` are (tick, microseconds-per-quarter) pairs; the default tempo
    applies from tick 0 until the first change.
    """

    def __init__(self, division: int, changes: Sequence[tuple[int, int]] = ()):
        if division <= 0:
            raise ValueError(f"division must be positive, got {division}")
        self.division = division
        ticks = [0]
        tempos = [DEFAULT_TEMPO]
        for tick, tempo in sorted(changes, key=lambda c: c[0]):
            if tick == ticks[-1]:
                tempos[-1] = tempo
            else:
                ticks.append(tick)
                tempos.append(tempo)
        seconds = [0.0]
        for i in range(1, len(ticks)):
            span = (ticks[i] - ticks[i - 1]) * tempos[i - 1] / (division * 1_000_000)
            seconds.append(seconds[i - 1] + span)
        self._ticks = ticks
        self._tempos = tempos
        self._seconds = seconds

    def to_seconds(self, tick: int) -> float:
        i = bisect_right(self._ticks, tick) - 1
        return self._seconds[i] + (tick - self._ticks[i]) * self._tempos[i] / (
            self.division * 1_000_000
        )

    def to_seconds_array(self, ticks: np.ndarray) -> np.ndarray:
        """``to_seconds`` of every tick, bit for bit.

        Python divides the exact integer (tick - t_i) * tempo_i with one
        rounding; float64 does the same only while that product is below
        2**53. A file whose products may reach it (one spanning months) is
        converted one tick at a time.
        """
        ticks = np.asarray(ticks, dtype=np.int64)
        if len(ticks) and int(ticks.max()) * max(self._tempos) >= _EXACT_INT:
            return np.array([self.to_seconds(t) for t in ticks.tolist()], dtype=np.float64)
        i = np.searchsorted(self._ticks, ticks, side="right") - 1
        product = (ticks - np.asarray(self._ticks, dtype=np.int64)[i]) * np.asarray(
            self._tempos, dtype=np.int64
        )[i]
        return np.asarray(self._seconds)[i] + product.astype(np.float64) / (
            self.division * 1_000_000
        )


def _need(data: bytes, pos: int, size: int) -> None:
    """Raise "truncated data" at ``pos`` unless ``size`` bytes follow it."""
    if pos + size > len(data):
        raise SmfParseError("truncated data", pos)


def _uint(data: bytes, pos: int, size: int) -> int:
    """The big-endian unsigned integer of ``size`` bytes at ``pos``."""
    _need(data, pos, size)
    return int.from_bytes(data[pos : pos + size], "big")


def _vlq_tail(data: bytes, pos: int, first: int) -> tuple[int, int]:
    """Finish a variable-length quantity whose first byte ``first`` had bit 7 set.

    Returns (value, position after it). Reading past the data raises IndexError.
    """
    value = first & 0x7F
    for _ in range(3):
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise SmfParseError("variable-length quantity longer than 4 bytes", pos)


def parse_smf(data: bytes, *, performer_id: str = "", piece_id: str = "") -> Performance:
    """Parse an SMF (format 0 or 1) into a Performance; warnings discarded."""
    performance, _ = parse_smf_with_warnings(
        data, performer_id=performer_id, piece_id=piece_id
    )
    return performance


def parse_smf_with_warnings(
    data: bytes, *, performer_id: str = "", piece_id: str = ""
) -> tuple[Performance, list[str]]:
    """Parse an SMF and also return non-fatal anomalies (e.g. dangling note-ons).

    Note-on with velocity 0 counts as note-off. Overlapping same-pitch notes
    pair each note-off with the earliest open note-on of that pitch (per track
    and channel). A note-on still open at end of track is closed at the track's
    final tick and reported as a warning. A note-off at its note-on's tick is
    moved one tick later, with a warning. Notes tied in (onset, pitch) keep the
    order of the note-offs that closed them, by (tick, position in the file).
    This is :func:`parse_smfs` on a batch of one, raising its error.
    """
    (outcome,) = parse_smfs([(data, performer_id, piece_id)])
    if isinstance(outcome, ValueError):
        raise outcome
    return outcome


def parse_smfs(
    files: Iterable[tuple[bytes, str, str]],
) -> Iterator[tuple[Performance, list[str]] | ValueError]:
    """Parse every (data, performer id, piece id) SMF as :func:`parse_smf_with_warnings` does.

    Yields each file's outcome in turn: its (performance, warnings) or the
    error it raises (an ``SmfParseError``, or the ``ValueError`` of a note a
    ``Performance`` refuses), so a caller can report the files in its own
    order. The track chunks of all the files are decoded in array passes of
    at most ``_BATCH_BYTES`` (``_decode_batches``), each when the first file
    with a chunk in it is reached; each file's performance is then built from
    its own tracks.
    """
    files = [(data, performer_id, piece_id, *_chunks(data)) for data, performer_id, piece_id in files]
    decoded = _decode_batches([(data, start, end) for data, _, _, _, spans, _ in files for start, end in spans])
    for data, performer_id, piece_id, division, spans, error in files:
        results = [next(decoded) for _ in spans]
        try:
            # a track's error comes before the error of any chunk after it
            results = [result or _scan_track(data, start, end) for result, (start, end) in zip(results, spans)]
            if error is not None:
                raise error
            outcome = _performance(performer_id, piece_id, division, results)
        except ValueError as exc:
            outcome = exc
        yield outcome


def _chunks(data: bytes) -> tuple[int, list[tuple[int, int]], SmfParseError | None]:
    """The SMF's time division, the (start, end) of its track chunks in file
    order, and the error that ends the walk over its chunks early, if any."""
    try:
        if _uint(data, 0, 4) != _MTHD:
            raise SmfParseError("missing MThd header", 0)
        header_len = _uint(data, 4, 4)
        if header_len < 6:
            raise SmfParseError(f"header chunk too short ({header_len} bytes)", 4)
        smf_format = _uint(data, 8, 2)
        n_tracks = _uint(data, 10, 2)
        division = _uint(data, 12, 2)
        if smf_format not in (0, 1):
            raise SmfParseError(f"unsupported SMF format {smf_format}", 8)
        if division & 0x8000:
            raise SmfParseError("SMPTE time division is not supported", 12)
        if division == 0:
            raise SmfParseError("time division must be positive", 12)
        _need(data, 14, header_len - 6)  # any header extension bytes are ignored
    except SmfParseError as exc:
        return 0, [], exc
    pos = 8 + header_len
    spans: list[tuple[int, int]] = []
    try:
        while len(spans) < n_tracks:
            if pos >= len(data):
                raise SmfParseError(f"expected {n_tracks} tracks, found {len(spans)}", pos)
            chunk_id = _uint(data, pos, 4)
            chunk_len = _uint(data, pos + 4, 4)
            start, end = pos + 8, pos + 8 + chunk_len
            if chunk_id != _MTRK:
                _need(data, start, chunk_len)  # alien chunks are skipped per the SMF spec
            elif end > len(data):
                raise SmfParseError("track chunk length runs past end of file", pos + 4)
            else:
                spans.append((start, end))
            pos = end
    except SmfParseError as exc:
        return division, spans, exc
    return division, spans, None


def _performance(performer_id: str, piece_id: str, division: int, results: list):
    """The (performance, warnings) of an SMF from its decoded tracks in file order.

    The warnings are the dangling note-ons, per track, then the zero-length notes.
    """
    warnings: list[str] = []
    tempo_changes: list[tuple[int, int]] = []
    for tempos, rows, n_open in results:
        tempo_changes += tempos
        warnings += [
            f"dangling note-on (pitch {pitch}) closed at final tick {tick}"
            for tick, pitch in rows[len(rows) - n_open :, 1:3].tolist()
        ]
    ticks = np.concatenate([rows for _, rows, _ in results]) if results else np.empty((0, 4), dtype=np.int64)
    # Within a track, notes close in file order at non-decreasing ticks, so a
    # stable sort by the closing note-off's tick orders them by (tick, file
    # position) across tracks.
    ticks = ticks[np.argsort(ticks[:, 1], kind="stable")]
    zero_length = np.flatnonzero(ticks[:, 1] == ticks[:, 0])
    for on_tick, pitch in ticks[zero_length][:, [0, 2]].tolist():
        warnings.append(f"zero-length note (pitch {pitch}) at tick {on_tick} extended by one tick")
    ticks[zero_length, 1] += 1

    tempo_map = TempoMap(division, tempo_changes)
    performance = Performance.from_columns(
        performer_id,
        piece_id,
        tempo_map.to_seconds_array(ticks[:, 0]),
        tempo_map.to_seconds_array(ticks[:, 1]),
        ticks[:, 2],
        ticks[:, 3],
    )
    log.debug(
        "parsed %s: %d tracks, %d notes, %d tempo changes, %d warnings",
        performer_id or "<unnamed>", len(results), len(performance), len(tempo_changes),
        len(warnings),
    )
    return performance, warnings


#: One array pass takes consecutive track chunks until their bytes, each with
#: its ``_PAD``, would pass this; a longer chunk goes alone. Measured on 52
#: synth renders (113 KB in all): a pass per 4, 8, 16, 32, 64 and 128 KiB took
#: 12.8, 8.2, 6.3, 5.7, 6.2 and 7.4 ms, since from 64 KiB on its int32
#: temporaries outgrow malloc's heap and fault in fresh pages on every pass.
_BATCH_BYTES = 1 << 15
#: Positions in a pass are int32, and an unsupported status byte sends its
#: event ``1 << 30`` on: a pass whose bytes, pads included, reach this goes to
#: ``_scan_track``.
_MAX_ARRAY_TRACK_BYTES = 1 << 30
#: The bytes of its file copied after each chunk, zeros past the file's end:
#: the array pass reads up to this far past an offset without bounds checks.
_PAD = 16

# The bytes an event takes from its status byte to its end (for SysEx, to its
# length; for meta events, to theirs), by status byte. A data byte in status
# position is running status and assumed to begin 2 data bytes; an unsupported
# system message sends the event past any track.
_EVENT_SIZE = np.full(256, 1 << 30, dtype=np.int32)
_EVENT_SIZE[:0xF0] = 3
_EVENT_SIZE[:0x80] = 2
_EVENT_SIZE[0xC0:0xE0] = 2
_EVENT_SIZE[[0xF0, 0xF7]] = 1
_EVENT_SIZE[0xFF] = 2
_VARIABLE = np.zeros(256, dtype=bool)  # SysEx and meta events: a length follows
_VARIABLE[[0xF0, 0xF7, 0xFF]] = True
_TWO_DATA_BYTES = np.zeros(256, dtype=bool)  # what running status may repeat, as the table assumes
_TWO_DATA_BYTES[0x80:0xC0] = _TWO_DATA_BYTES[0xE0:0xF0] = True


def _decode_batches(tracks: Sequence[tuple[bytes, int, int]]) -> Iterator:
    """``_decode_tracks`` of each of the (data, start, end) track chunks in turn, one pass
    of at most ``_BATCH_BYTES`` at a time; None for every chunk of a pass too large for
    int32 positions."""
    i = 0
    while i < len(tracks):
        j, size = i + 1, tracks[i][2] - tracks[i][1] + _PAD
        while j < len(tracks) and size + tracks[j][2] - tracks[j][1] + _PAD <= _BATCH_BYTES:
            size += tracks[j][2] - tracks[j][1] + _PAD
            j += 1
        if size < _MAX_ARRAY_TRACK_BYTES:
            yield from _decode_tracks(tracks[i:j])
        else:
            yield from [None] * (j - i)
        i = j


def _decode_tracks(tracks: Sequence[tuple[bytes, int, int]]) -> list:
    """Decode every track chunk ``data[start:end]`` as ``_scan_track`` reads it, in one array pass.

    Returns, per track, its (tempo changes, rows, n_open): the (tick, tempo)
    pairs in file order, and ``_pair_notes``' rows and open count for its
    note events; or None for a track this pass cannot certify: one that
    ``_scan_track`` rejects, or one where running status repeats a
    1-data-byte message. The chunks are copied into one buffer, each followed
    by the next ``_PAD`` bytes of its file, and the pass works on arrays:

    1. for every byte offset of the buffer, where the next event would start
       if an event started there. A data byte in status position is taken to
       begin 2 data bytes; End of Track jumps to its chunk's end; an event
       that is malformed or runs past its chunk jumps past every chunk.
    2. per chunk, the chain of events from its start, which must land on its end;
    3. the ticks, statuses, notes and tempos of the events on every chain at
       once: tick sums and running status start afresh at each chunk, a chunk
       with a bad event is left out, and the notes of every kept chunk go to
       one ``_pair_notes`` call, keyed by (chunk, channel, pitch).
    """
    k = len(tracks)
    starts, ends, file_ends = [], [], []
    size = 0
    for data, start, end in tracks:
        starts.append(size)
        ends.append(size + end - start)
        file_ends.append(size + len(data) - start)  # for End of Track's payload
        size += end - start + _PAD
    buffer = bytearray(size)
    for (data, start, end), at in zip(tracks, starts):
        tail = memoryview(data)[start : end + _PAD]
        buffer[at : at + len(tail)] = tail
    n = size - _PAD
    past = size  # where a malformed event leads
    b = np.frombuffer(buffer, dtype=np.uint8)
    # 1. next-event offsets; a delta's length follows from the high bits
    more = b >= 0x80
    c1 = more[:n]
    c2 = c1 & more[1 : n + 1]
    c3 = c2 & more[2 : n + 2]
    status_at = np.arange(1, n + 1, dtype=np.int32)
    status_at += c1
    status_at += c2
    status_at += c3
    status = b.take(status_at)
    nxt = _EVENT_SIZE.take(status)
    nxt += status_at
    # SysEx and meta events are few: their lengths are read one at a time
    tempo_at = []  # (offset, tempo) of each well-formed tempo event
    variable = np.flatnonzero(_VARIABLE.take(status))
    owners = np.searchsorted(starts, variable, side="right") - 1
    for p, i, event_status, owner in zip(
        variable.tolist(), nxt.take(variable).tolist(), status.take(variable).tolist(), owners.tolist()
    ):
        meta_type = buffer[i - 1] if event_status == 0xFF else None
        value = 0
        for byte in buffer[i : i + 4]:
            value = value << 7 | byte & 0x7F
            i += 1
            if byte < 0x80:
                break
        else:  # a length longer than 4 bytes
            nxt[p] = past
            continue
        event_end = i + value
        if meta_type == 0x51:  # a tempo must carry 3 bytes, not all zero
            tempo = int.from_bytes(buffer[i : i + 3], "big")
            if value == 3 and tempo:
                tempo_at.append((p, tempo))
            else:
                event_end = past
        elif meta_type == 0x2F and event_end <= file_ends[owner]:
            event_end = ends[owner]  # _scan_track stops here once the payload is read
        nxt[p] = min(event_end, past)
    nxt[c3 & more[3 : n + 3]] = past  # a delta longer than 4 bytes

    # 2. the chain of events from each chunk's start
    on_chain = bytearray(n)
    follow = memoryview(nxt)
    rejected = np.zeros(k, dtype=bool)
    for t, (start, end) in enumerate(zip(starts, ends)):
        p = start
        while p < end:
            on_chain[p] = 1
            p = follow[p]
        if p != end:
            on_chain[start:end] = bytes(end - start)
            rejected[t] = True
    at = np.flatnonzero(np.frombuffer(on_chain, dtype=np.uint8))
    event_at = status_at.take(at)
    del follow, nxt, status, status_at, more, c1, c2, c3  # step 3 needs none of them, and sets the peak

    # 3. decode the events on the chains
    first = np.searchsorted(at, starts)  # each chunk's first event
    counts = np.searchsorted(at, ends) - first
    # each event's chunk, and below each note's pairing key, in the smallest
    # unsigned type that holds them: numpy sorts those of 8 and 16 bits stably by radix
    track = np.repeat(np.arange(k, dtype=np.min_scalar_type(k - 1)), counts)
    delta_length = event_at - at
    delta = (b.take(at) & 0x7F).astype(np.int64)
    for q in range(1, int(delta_length.max(initial=1))):
        delta = np.where(delta_length > q, delta << 7 | b.take(at + q) & 0x7F, delta)
    summed = np.zeros(len(at) + 1, dtype=np.int64)
    np.cumsum(delta, out=summed[1:])
    before = summed.take(first)  # the ticks of the chunks before each one
    final_ticks = summed.take(first + counts) - before
    ticks = summed[1:]
    ticks -= np.repeat(before, counts)
    effective = b.take(event_at)
    explicit = effective >= 0x80
    if not explicit.all():  # running status, cleared by SysEx and meta events and at a chunk's start
        starting = explicit.copy()
        starting[first[counts > 0]] = True
        effective = effective.take(np.maximum.accumulate(np.where(starting, np.arange(len(at)), 0)))
        rejected[track[~explicit & ~_TWO_DATA_BYTES.take(effective)]] = True
    notes = np.flatnonzero((effective & 0xE0) == 0x80)
    data_at = event_at.take(notes)
    data_at += explicit.take(notes)
    pitches = b.take(data_at)
    velocities = b.take(data_at + 1)
    note_track = track.take(notes)
    out_of_range = (pitches | velocities) >= 0x80
    if out_of_range.any():
        rejected[note_track[out_of_range]] = True
    if rejected.any():
        kept = ~rejected.take(note_track)
        notes, pitches, velocities, note_track = (a[kept] for a in (notes, pitches, velocities, note_track))
    note_status = effective.take(notes)
    key_type = np.min_scalar_type((k << 11) - 1)
    rows, n_rows, n_open = _pair_notes(
        note_track.astype(key_type) << 11 | (note_status & 0x0F).astype(key_type) << 7 | pitches,
        (note_status >= 0x90) & (velocities > 0),
        ticks.take(notes),
        pitches,
        velocities,
        note_track,
        final_ticks,
    )

    tempos: list[list] = [[] for _ in range(k)]
    tempo_at = [(p, tempo) for p, tempo in tempo_at if on_chain[p]]
    if tempo_at:
        offsets, values = zip(*tempo_at)
        events = np.searchsorted(at, offsets)
        for owner, tick, tempo in zip(track[events].tolist(), ticks[events].tolist(), values):
            tempos[owner].append((tick, tempo))
    bounds = np.cumsum(n_rows).tolist()
    return [
        None if bad else (tempos[t], rows[bound - n_rows_t : bound], n_open_t)
        for t, (bad, bound, n_rows_t, n_open_t) in enumerate(
            zip(rejected.tolist(), bounds, n_rows.tolist(), n_open.tolist())
        )
    ]


def _pair_notes(keys, on, ticks, pitches, velocities, tracks, final_ticks):
    """FIFO-pair note events, given in file order, per key; returns (rows, n_rows, n_open).

    Both SMF track decoders pair their notes here. ``tracks`` gives each
    event's chunk, which ``keys`` must keep apart, and ``final_ticks`` each
    chunk's final tick. The rows are every chunk's in turn, and ``n_rows``
    and ``n_open`` count them and their open ones per chunk: (on tick, off
    tick, pitch, velocity) for each note-off that closes an open note-on, in
    file order, then each note-on left open, closed at its chunk's final
    tick, by key and then in file order. Within a key, the open count before
    an event is the running sum S of +1 per on and -1 per off, less its
    lowest value so far (never above 0): an off is dropped where that count
    is 0, and the j-th off kept closes the j-th on.
    """
    n = len(keys)
    order = np.argsort(keys, kind="stable")
    on = on.take(order)
    sorted_keys = keys.take(order)
    first = np.empty(n, dtype=bool)  # the first event of each key
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    ons_before = np.cumsum(on, dtype=np.int32)
    ons_before -= on
    # S before each event, summed over all keys: within one key it differs
    # from the key's own S by a constant, and shifting each key below the keys
    # before it keeps one running minimum from reaching back across keys
    shifted = np.cumsum(first, dtype=np.int64)
    shifted *= -(2 * n + 1)
    shifted += 2 * ons_before - np.arange(n, dtype=np.int32)
    kept = (shifted > np.minimum.accumulate(shifted)) & ~on
    # the j-th kept off of a key closes its j-th on: the kept offs before an
    # event plus the ons left open by the keys before it index the sorted ons
    kept_before = np.cumsum(kept, dtype=np.int32)
    kept_before -= kept
    kept_before += np.maximum.accumulate(np.where(first, ons_before - kept_before, 0))
    closed = kept_before[kept]
    ons = order[on]
    opener = np.full(n, -1)
    opener[order[kept]] = ons.take(closed)
    offs = np.flatnonzero(opener >= 0)
    is_open = np.ones(len(ons), dtype=bool)
    is_open[closed] = False
    left_open = ons[is_open]
    open_tracks = tracks.take(left_open)
    opened = np.concatenate((opener.take(offs), left_open))
    closing = np.concatenate((ticks.take(offs), final_ticks.take(open_tracks)))
    row_tracks = np.concatenate((tracks.take(offs), open_tracks))
    k = len(final_ticks)
    if len(left_open) and k > 1:
        # closing offs in file order, then open ons by key: each group runs by
        # chunk, and a stable sort by chunk puts a chunk's open ons after its offs
        by_track = np.argsort(row_tracks, kind="stable")
        opened, closing = opened.take(by_track), closing.take(by_track)
    rows = np.empty((len(opened), 4), dtype=np.int64)
    rows[:, 0] = ticks.take(opened)
    rows[:, 1] = closing
    rows[:, 2] = pitches.take(opened)
    rows[:, 3] = velocities.take(opened)
    return rows, np.bincount(row_tracks, minlength=k), np.bincount(open_tracks, minlength=k)


def _scan_track(data: bytes, pos: int, end: int):
    """Read the events of the track chunk ``data[pos:end]`` one at a time, and pair its notes.

    Returns ``_decode_tracks``' (tempo changes, rows, n_open) for the track;
    its note events go to ``_pair_notes`` in one call once all are read.

    This reads the tracks ``_decode_tracks`` leaves: any the pass cannot
    certify, and those of a pass too large for its int32 positions, so a
    malformed track raises here with its message and byte offset. An event
    may read past ``end`` before it is checked against it. A byte read past
    the end of ``data`` is "truncated data" at offset ``len(data)``, where a
    run of single-byte reads must fail.
    """
    n = len(data)
    tick = 0
    running = 0  # running status; 0 while there is none
    tempo_changes = []
    notes = []  # (tick, status, pitch, velocity) of each note event, flat, in file order
    try:
        while pos < end:
            delta = data[pos]
            pos += 1
            if delta & 0x80:
                delta, pos = _vlq_tail(data, pos, delta)
            tick += delta
            status = data[pos]
            pos += 1
            if status < 0x80:
                if not running:
                    raise SmfParseError("data byte without running status", pos - 1)
                pos -= 1
                status = running
            if status < 0xF0:
                running = status
                kind = status & 0xF0
                if kind == 0x90 or kind == 0x80:
                    pitch = data[pos]
                    velocity = data[pos + 1]
                    pos += 2
                    if pitch > 127 or velocity > 127:
                        raise SmfParseError("note data byte out of range", pos - 1)
                    notes += tick, status, pitch, velocity
                else:
                    size = 1 if kind == 0xC0 or kind == 0xD0 else 2
                    _need(data, pos, size)
                    pos += size
            elif status == 0xFF or status == 0xF0 or status == 0xF7:
                running = 0
                if status == 0xFF:
                    meta_type = data[pos]
                    pos += 1
                length = data[pos]
                pos += 1
                if length & 0x80:
                    length, pos = _vlq_tail(data, pos, length)
                _need(data, pos, length)
                pos += length
                if status == 0xFF and meta_type == 0x51:
                    if length != 3:
                        raise SmfParseError("tempo event must carry 3 bytes", pos - length)
                    tempo = int.from_bytes(data[pos - 3 : pos], "big")
                    if not tempo:
                        raise SmfParseError("tempo must be positive, got 0", pos - 3)
                    tempo_changes.append((tick, tempo))
                elif status == 0xFF and meta_type == 0x2F:
                    break
            else:
                raise SmfParseError(f"unsupported system message 0x{status:02X}", pos - 1)
            if pos > end:
                raise SmfParseError("event runs past its track chunk boundary", pos)
    except IndexError:
        raise SmfParseError("truncated data", n) from None

    ticks, statuses, pitches, velocities = np.array(notes, dtype=np.int64).reshape(-1, 4).T
    rows, _, n_open = _pair_notes(
        (statuses & 0x0F) << 7 | pitches,
        (statuses >= 0x90) & (velocities > 0),
        ticks,
        pitches,
        velocities,
        np.zeros(len(ticks), dtype=np.intp),
        np.array([tick]),
    )
    return tempo_changes, rows, int(n_open[0])


# ---------------------------------------------------------------------------
# note-table CSV interchange


def to_note_table(performance: Performance) -> str:
    """Serialize to CSV with header onset,offset,pitch,dynamic (UTF-8, LF).

    Times are written with shortest round-trip decimal text, so parsing the
    output back reproduces every field bit-exactly.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(NOTE_TABLE_HEADER)
    writer.writerows(
        zip(
            map(repr, performance.onsets.tolist()),
            map(repr, performance.offsets.tolist()),
            performance.pitches.tolist(),
            performance.dynamics.tolist(),
        )
    )
    return buf.getvalue()


def from_note_table(
    text: str, *, performer_id: str = "", piece_id: str = ""
) -> Performance:
    """Parse note-table CSV produced by :func:`to_note_table`.

    Every row is read before the notes are checked, so a file with several
    faults reports the first malformed row before the first invalid note.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != NOTE_TABLE_HEADER:
        raise ValueError(
            f"note table must start with header {','.join(NOTE_TABLE_HEADER)}"
        )
    notes = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ValueError(f"line {lineno}: expected 4 fields, got {len(row)}")
        try:
            notes.append((float(row[0]), float(row[1]), int(row[2]), int(row[3])))
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
    columns = zip(*notes) if notes else ((),) * 4
    return Performance.from_columns(performer_id, piece_id, *columns)


# ---------------------------------------------------------------------------
# SMF writing


def _vlq_events(deltas: np.ndarray, payloads: np.ndarray) -> bytes:
    """Events as bytes: each delta as a variable-length quantity, then its payload row."""
    sizes = np.ones(len(deltas), dtype=np.int64)
    groups = 1
    while len(deltas) and int(deltas.max()) >> (7 * groups):
        sizes += deltas >> (7 * groups) > 0
        groups += 1
    ends = np.cumsum(sizes + payloads.shape[1])
    starts = ends - payloads.shape[1] - sizes
    out = np.empty(int(ends[-1]) if len(ends) else 0, dtype=np.uint8)
    for g in range(groups):  # the 7-bit group g places from the quantity's last byte
        has = sizes > g
        out[starts[has] + sizes[has] - 1 - g] = (deltas[has] >> (7 * g)) & 0x7F | (0x80 if g else 0)
    for j in range(payloads.shape[1]):
        out[ends - payloads.shape[1] + j] = payloads[:, j]
    return out.tobytes()


def write_smf(
    performance: Performance,
    *,
    division: int = DEFAULT_DIVISION,
    tempo: int = DEFAULT_TEMPO,
) -> bytes:
    """Serialize as a single-track format-0 SMF at a fixed tempo.

    Onsets/offsets are rounded to the tick grid (half to even); zero-length
    notes after rounding are extended by one tick. At equal ticks note-offs
    precede note-ons so FIFO pairing on re-parse reconstructs the same notes.
    A gap between events longer than a 4-byte delta time (0x0FFFFFFF ticks)
    raises ``ValueError``, as does a division or tempo that is not an integer
    (a bool is not; a numpy integer is) or that the reader would refuse.
    """
    for name, value in (("division", division), ("tempo", tempo)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    division, tempo = int(division), int(tempo)
    if not 1 <= division <= 0x7FFF:
        raise ValueError(f"division must be in 1..32767 ticks per quarter, got {division}")
    if not 1 <= tempo <= 0xFFFFFF:
        raise ValueError(f"tempo must be in 1..16777215 microseconds per quarter, got {tempo}")
    ticks_per_second = division * 1_000_000 / tempo
    on_ticks = np.rint(performance.onsets * ticks_per_second)
    off_ticks = np.rint(performance.offsets * ticks_per_second)
    if len(off_ticks) and off_ticks.max() >= 2**62:
        raise ValueError("note times run past the SMF tick range")
    on_ticks = on_ticks.astype(np.int64)
    off_ticks = np.maximum(off_ticks.astype(np.int64), on_ticks + 1)

    # each note gives a note-on then a note-off; sorted by (tick, off before on, pitch)
    ticks = np.column_stack((on_ticks, off_ticks)).ravel()
    is_off = np.tile(np.array([0, 1]), len(performance))
    pitches = np.repeat(performance.pitches, 2)
    order = np.lexsort((pitches, 1 - is_off, ticks))
    deltas = np.diff(ticks[order], prepend=0)
    if len(deltas) and deltas.max() > 0x0FFFFFFF:
        raise ValueError("a gap between notes runs past the SMF delta-time range")
    payloads = np.column_stack(
        (
            np.where(is_off, 0x80, 0x90),
            pitches,
            np.column_stack((performance.dynamics, np.zeros_like(performance.dynamics))).ravel(),
        )
    )[order]
    body = (
        b"\x00\xff\x51\x03"
        + tempo.to_bytes(3, "big")
        + _vlq_events(deltas, payloads)
        + b"\x00\xff\x2f\x00"  # End of Track
    )
    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, division)
    return header + b"MTrk" + struct.pack(">I", len(body)) + body

