"""Reference SMF reader and writer for tests, one event at a time.

``reference_parse`` uses a byte reader with one method call per read, a sort
of every raw note event and one ``TempoMap.to_seconds`` per time. It is the
oracle for ``pianist_id.midi_io.parse_smf_with_warnings``: for every input,
both give the same notes (as ``NoteEvent``s in (onset, pitch) order, ties in
pairing order) and warnings, or raise the same error class with the same
message and byte offset. The one intended difference is a tempo of 0
microseconds per quarter note, which the library rejects as an
``SmfParseError``.

``reference_write`` is the oracle for ``pianist_id.midi_io.write_smf``: the
same bytes for the same notes.

``reference_checked_columns`` checks note columns one note at a time, with
scalar comparisons (``reference_check_note``). It is the oracle for the
vectorised rule in ``Performance.from_columns``: the same error message for
the first bad note, or the same columns.
"""

from __future__ import annotations

import math
import numbers
import struct
from collections import deque

import numpy as np

from pianist_id.midi_io import NoteEvent, SmfParseError, TempoMap


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise SmfParseError("truncated data", self.pos)
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.read(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.read(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.read(4))[0]

    def vlq(self) -> int:
        total = 0
        for _ in range(4):
            byte = self.u8()
            total = (total << 7) | (byte & 0x7F)
            if not byte & 0x80:
                return total
        raise SmfParseError("variable-length quantity longer than 4 bytes", self.pos)


def reference_parse(data: bytes) -> tuple[tuple[NoteEvent, ...], list[str]]:
    """Notes sorted by (onset, pitch), stable, and the parse warnings."""
    rdr = _Reader(data)
    if rdr.read(4) != b"MThd":
        raise SmfParseError("missing MThd header", 0)
    header_len = rdr.u32()
    if header_len < 6:
        raise SmfParseError(f"header chunk too short ({header_len} bytes)", rdr.pos - 4)
    fmt_offset = rdr.pos
    smf_format = rdr.u16()
    n_tracks = rdr.u16()
    division_offset = rdr.pos
    division = rdr.u16()
    if smf_format not in (0, 1):
        raise SmfParseError(f"unsupported SMF format {smf_format}", fmt_offset)
    if division & 0x8000:
        raise SmfParseError("SMPTE time division is not supported", division_offset)
    if division == 0:
        raise SmfParseError("time division must be positive", division_offset)
    rdr.read(header_len - 6)

    warnings: list[str] = []
    tempo_changes: list[tuple[int, int]] = []
    # (tick, file_order, tag, pitch, velocity); file_order keeps pairing FIFO
    raw_notes: list[tuple[int, int, int, int, int]] = []

    tracks_seen = 0
    while tracks_seen < n_tracks:
        if rdr.pos >= len(rdr.data):
            raise SmfParseError(f"expected {n_tracks} tracks, found {tracks_seen}", rdr.pos)
        chunk_start = rdr.pos
        chunk_id = rdr.read(4)
        chunk_len = rdr.u32()
        if chunk_id != b"MTrk":
            rdr.read(chunk_len)
            continue
        _parse_track(rdr, chunk_start, chunk_len, tracks_seen, tempo_changes, raw_notes, warnings)
        tracks_seen += 1

    tempo_map = TempoMap(division, tempo_changes)
    notes = [
        NoteEvent(
            onset=tempo_map.to_seconds(on_tick),
            offset=tempo_map.to_seconds(off_tick),
            pitch=pitch,
            dynamic=velocity,
        )
        for on_tick, off_tick, pitch, velocity in _pair_notes(raw_notes, warnings)
    ]
    return tuple(sorted(notes, key=lambda n: (n.onset, n.pitch))), warnings


def _parse_track(rdr, chunk_start, chunk_len, track_index, tempo_changes, raw_notes, warnings):
    end = rdr.pos + chunk_len
    if end > len(rdr.data):
        raise SmfParseError("track chunk length runs past end of file", chunk_start + 4)
    tick = 0
    running_status = None
    order_base = len(raw_notes)
    while rdr.pos < end:
        tick += rdr.vlq()
        status = rdr.u8()
        if status < 0x80:
            if running_status is None:
                raise SmfParseError("data byte without running status", rdr.pos - 1)
            rdr.pos -= 1
            status = running_status
        if status == 0xFF:
            running_status = None
            meta_type = rdr.u8()
            length = rdr.vlq()
            payload = rdr.read(length)
            if meta_type == 0x51:
                if length != 3:
                    raise SmfParseError("tempo event must carry 3 bytes", rdr.pos - length)
                tempo_changes.append((tick, int.from_bytes(payload, "big")))
            elif meta_type == 0x2F:
                break
        elif status in (0xF0, 0xF7):
            running_status = None
            rdr.read(rdr.vlq())
        elif status >= 0xF0:
            raise SmfParseError(f"unsupported system message 0x{status:02X}", rdr.pos - 1)
        else:
            running_status = status
            kind = status & 0xF0
            channel = status & 0x0F
            if kind in (0x80, 0x90):
                pitch = rdr.u8()
                velocity = rdr.u8()
                if pitch > 127 or velocity > 127:
                    raise SmfParseError("note data byte out of range", rdr.pos - 1)
                is_on = kind == 0x90 and velocity > 0
                key = track_index * 16 + channel
                raw_notes.append((tick, len(raw_notes), key * 256 + (1 if is_on else 0), pitch, velocity))
            elif kind in (0xA0, 0xB0, 0xE0):
                rdr.read(2)
            elif kind in (0xC0, 0xD0):
                rdr.read(1)
        if rdr.pos > end:
            raise SmfParseError("event runs past its track chunk boundary", rdr.pos)
    rdr.pos = end
    _close_dangling(raw_notes, order_base, tick, warnings)


def _close_dangling(raw_notes, order_base, final_tick, warnings):
    open_count: dict[tuple[int, int], int] = {}
    for _, _, tag, pitch, _ in raw_notes[order_base:]:
        key = (tag // 256, pitch)
        if tag % 256:
            open_count[key] = open_count.get(key, 0) + 1
        elif open_count.get(key, 0) > 0:
            open_count[key] -= 1
    for (stream_key, pitch), count in sorted(open_count.items()):
        for _ in range(count):
            warnings.append(f"dangling note-on (pitch {pitch}) closed at final tick {final_tick}")
            raw_notes.append((final_tick, len(raw_notes), stream_key * 256, pitch, 0))


def _pair_notes(raw_notes, warnings):
    paired: list[tuple[int, int, int, int]] = []
    open_notes: dict[tuple[int, int], deque] = {}
    for tick, _, tag, pitch, velocity in sorted(raw_notes, key=lambda e: (e[0], e[1])):
        key = (tag // 256, pitch)
        if tag % 256:
            open_notes.setdefault(key, deque()).append((tick, velocity))
        else:
            queue = open_notes.get(key)
            if not queue:
                continue
            on_tick, on_velocity = queue.popleft()
            off_tick = tick
            if off_tick <= on_tick:
                off_tick = on_tick + 1
                warnings.append(
                    f"zero-length note (pitch {pitch}) at tick {on_tick} extended by one tick"
                )
            paired.append((on_tick, off_tick, pitch, on_velocity))
    return paired


def _vlq_bytes(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def reference_write(notes, *, division: int = 480, tempo: int = 500_000) -> bytes:
    """Format-0 SMF of ``notes`` (NoteEvents), one event at a time."""
    ticks_per_second = division * 1_000_000 / tempo
    # (tick, kind, pitch, payload); kind: 0 tempo, 1 note-off, 2 note-on
    events: list[tuple[int, int, int, int]] = [(0, 0, 0, tempo)]
    for note in notes:
        on_tick = round(note.onset * ticks_per_second)
        off_tick = round(note.offset * ticks_per_second)
        if off_tick <= on_tick:
            off_tick = on_tick + 1
        events.append((on_tick, 2, note.pitch, note.dynamic))
        events.append((off_tick, 1, note.pitch, 0))
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    body = bytearray()
    previous_tick = 0
    for tick, kind, pitch, payload in events:
        body += _vlq_bytes(tick - previous_tick)
        previous_tick = tick
        if kind == 0:
            body += b"\xff\x51\x03" + payload.to_bytes(3, "big")
        elif kind == 1:
            body += bytes((0x80, pitch, 0))
        else:
            body += bytes((0x90, pitch, payload))
    body += b"\x00\xff\x2f\x00"
    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, division)
    return header + b"MTrk" + struct.pack(">I", len(body)) + bytes(body)


def reference_check_note(onset, offset, pitch, dynamic) -> None:
    """Raise the error of the first rule the note breaks."""
    if not 0 <= onset < math.inf:
        raise ValueError(f"onset must be finite and non-negative, got {onset}")
    if not offset > onset:
        raise ValueError(f"offset must exceed onset, got onset={onset} offset={offset}")
    if offset == math.inf:
        raise ValueError(f"offset must be finite, got {offset}")
    for value in (pitch, dynamic):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(
                f"pitches and dynamics must be integers, got pitch={pitch!r} dynamic={dynamic!r}"
            )
    if not 0 <= pitch <= 127:
        raise ValueError(f"pitch out of MIDI range 0..127: {pitch}")
    if not 1 <= dynamic <= 127:
        raise ValueError(f"dynamic out of range 1..127: {dynamic}")


def reference_checked_columns(onsets, offsets, pitches, dynamics) -> tuple[np.ndarray, ...]:
    """The columns in the given order, pitches and dynamics as int64, once
    every note has passed ``reference_check_note``; the first bad note raises."""
    columns = (
        np.asarray(onsets, dtype=np.float64),
        np.asarray(offsets, dtype=np.float64),
        np.asarray(pitches),
        np.asarray(dynamics),
    )
    if any(column.shape != (len(columns[0]),) for column in columns):
        raise ValueError("note columns must be one-dimensional and of equal length")
    for note in zip(*(column.tolist() for column in columns)):
        reference_check_note(*note)
    return columns[0], columns[1], columns[2].astype(np.int64), columns[3].astype(np.int64)
