import logging
import math
import random
import re
import struct
from collections import Counter

import numpy as np
import pytest

from conftest import END_OF_TRACK, note_off, note_on, simple_performance, smf_bytes, tempo_event, vlq
from smf_reference import reference_checked_columns, reference_parse, reference_write
from pianist_id import midi_io, synth
from pianist_id.midi_io import (
    NoteEvent,
    Performance,
    SmfParseError,
    TempoMap,
    from_note_table,
    parse_smf,
    parse_smf_with_warnings,
    to_note_table,
    write_smf,
)


def one_note(*fields) -> Performance:
    return Performance("p", "x", [NoteEvent(*fields)])


class TestNoteEvent:
    def test_rejects_offset_before_onset(self):
        with pytest.raises(ValueError, match=r"^offset must exceed onset, got onset=1\.0 offset=1\.0$"):
            one_note(1.0, 1.0, 60, 64)

    def test_rejects_out_of_range_fields(self):
        with pytest.raises(ValueError, match=r"^pitch out of MIDI range 0\.\.127: 128$"):
            one_note(0.0, 1.0, 128, 64)
        with pytest.raises(ValueError, match=r"^dynamic out of range 1\.\.127: 0$"):
            one_note(0.0, 1.0, 60, 0)
        with pytest.raises(ValueError, match=r"^onset must be finite and non-negative, got -0\.1$"):
            one_note(-0.1, 1.0, 60, 64)

    def test_rejects_non_integral_or_bool_pitch_and_dynamic(self):
        for pitch, dynamic in ((60.0, 64), (60, 64.5), (True, 64), (60, np.bool_(True))):
            with pytest.raises(ValueError, match="pitches and dynamics must be integers"):
                one_note(0.0, 1.0, pitch, dynamic)
        assert one_note(0.0, 1.0, np.int64(60), np.uint8(64)).notes == ((0.0, 1.0, 60, 64),)
        # a column of floats is refused at construction, naming the first note
        with pytest.raises(ValueError, match=r"got pitch=60\.0 dynamic=64"):
            Performance.from_columns("p", "x", [0.0, 1.0], [0.5, 1.5], [60.0, 62.0], [64, 64])

    def test_is_a_plain_record(self):
        note = NoteEvent(1.0, 1.0, 128, True)  # checked only where it enters a Performance
        assert note == (1.0, 1.0, 128, True) and note.duration == 0.0
        assert NoteEvent(0.5, 0.75, 60, 64).duration == 0.25

    def test_performance_sorts_by_onset_then_pitch(self):
        notes = (
            NoteEvent(1.0, 1.5, 64, 70),
            NoteEvent(0.0, 0.5, 60, 64),
            NoteEvent(1.0, 1.5, 60, 70),
        )
        perf = Performance("p", "x", notes)
        assert [n.pitch for n in perf.notes] == [60, 60, 64]
        assert [n.onset for n in perf.notes] == [0.0, 1.0, 1.0]

    def test_rejects_non_finite_times(self):
        for onset, offset in ((math.inf, math.inf), (math.nan, 1.0), (0.0, math.inf), (0.0, math.nan)):
            with pytest.raises(ValueError):
                one_note(onset, offset, 60, 64)
            with pytest.raises(ValueError):
                Performance.from_columns("p", "x", [0.0, onset], [1.0, offset], [60, 60], [64, 64])
        with pytest.raises(ValueError, match="offset must be finite"):
            from_note_table("onset,offset,pitch,dynamic\n0.5,inf,60,64\n")


class TestPerformanceColumns:
    NOTES = (
        NoteEvent(1.0, 1.5, 64, 70),
        NoteEvent(0.0, 0.5, 60, 64),
        NoteEvent(1.0, 1.25, 60, 71),
        NoteEvent(1.0, 1.75, 60, 72),
    )

    def test_columns_are_sorted_read_only_and_stable_on_ties(self):
        perf = Performance("p", "x", self.NOTES)
        assert perf.onsets.tolist() == [0.0, 1.0, 1.0, 1.0]
        assert perf.pitches.tolist() == [60, 60, 60, 64]
        assert perf.dynamics.tolist() == [64, 71, 72, 70]  # tied (1.0, 60) keep their order
        assert perf.onsets.dtype == np.float64 and perf.pitches.dtype.kind == "i"
        assert not perf.offsets.flags.writeable
        with pytest.raises(ValueError):
            perf.offsets[0] = 9.0
        assert len(perf) == 4

    def test_notes_view_is_rebuilt_from_columns_on_each_access(self):
        perf = Performance("p", "x", self.NOTES)
        assert perf.notes == tuple(self.NOTES[i] for i in (1, 2, 3, 0))
        columns = Performance.from_columns(
            "p", "x", *zip(*((n.onset, n.offset, n.pitch, n.dynamic) for n in self.NOTES))
        )
        assert columns == perf and columns.notes == perf.notes
        assert columns.notes == columns.notes and columns.notes is not columns.notes
        assert all(type(n.pitch) is int and type(n.dynamic) is int for n in columns.notes)
        assert columns != Performance("q", "x", self.NOTES)
        assert columns != Performance("p", "x", self.NOTES[:3])

    def test_first_bad_note_in_given_order_raises_its_own_error(self):
        with pytest.raises(ValueError, match="pitch out of MIDI range 0..127: 128"):
            Performance.from_columns("p", "x", [2.0, 1.0, 0.0], [3.0, 2.0, -1.0], [60, 128, 60], [64, 64, 64])
        with pytest.raises(ValueError, match="integers"):
            Performance.from_columns("p", "x", [0.0], [1.0], [60.5], [64])
        with pytest.raises(ValueError, match="equal length"):
            Performance.from_columns("p", "x", [0.0], [1.0, 2.0], [60], [64])

    def test_object_columns_of_ints_are_cast_and_others_still_name_the_note(self):
        as_ints = Performance.from_columns("p", "x", [0.0, 1.0], [1.0, 2.0], [60, 62], [64, 65])
        as_objects = Performance.from_columns(
            "p", "x", [0.0, 1.0], [1.0, 2.0],
            np.array([60, 62], dtype=object), np.array([64, 65], dtype=object),
        )
        assert as_objects == as_ints
        assert as_objects.pitches.dtype == as_objects.dynamics.dtype == np.int64
        for bad in ([60.0, 62.0], [True, True], np.array([60, 62.0], dtype=object)):
            with pytest.raises(ValueError, match="must be integers, got pitch="):
                Performance.from_columns("p", "x", [0.0, 1.0], [1.0, 2.0], bad, [64, 65])

    def test_note_rule_matches_the_per_note_reference(self):
        # 0-4 notes a set, mostly valid, so that later notes and later rules are reached
        rng = random.Random(20261020)
        times = (0.0, 0.5, 1.0, 2.0), (-0.1, math.inf, -math.inf, math.nan, 1e308)
        valid = (0, 1, 60, 64, 127, np.int64(60), np.uint8(64))
        other = (128, -1, np.uint8(200), 2**70, 60.0, 64.5, True, False, np.bool_(True), "60", None)

        def outcome(fn):
            try:
                return [column.tobytes() + str(column.dtype).encode() for column in fn()]
            except Exception as exc:
                return type(exc).__name__, str(exc)

        def library(*columns):
            perf = Performance.from_columns("p", "x", *columns)
            return perf.onsets, perf.offsets, perf.pitches, perf.dynamics

        def reference(*columns):
            checked = reference_checked_columns(*columns)
            order = np.lexsort((checked[2], checked[0]))  # the stable (onset, pitch) order
            return [column[order] for column in checked]

        seen = Counter()
        for _ in range(20000):
            n = rng.randint(0, 4)
            onsets, offsets = ([rng.choice(times[rng.random() < 0.15]) for _ in range(n)] for _ in range(2))
            offsets = [t + rng.choice((0.25, 1.0)) if rng.random() < 0.85 else u for t, u in zip(onsets, offsets)]
            columns = [onsets, offsets]
            for _ in range(2):
                values = [rng.choice(valid if rng.random() < 0.85 else valid + other) for _ in range(n)]
                columns.append(np.array(values, dtype=object) if rng.random() < 0.5 else values)
            expected = outcome(lambda: reference(*columns))
            assert outcome(lambda: library(*columns)) == expected, columns
            seen[expected[1].split(",")[0].split(":")[0] if isinstance(expected, tuple) else "valid"] += 1
        assert len(seen) == 7 and min(seen.values()) >= 50, seen


class TestStableOrder:
    def test_equals_lexsort_with_many_ties(self):
        rng = np.random.default_rng(40)
        for n in (0, 1, 2, 17, 500):
            for bits in (1, 7, 8):
                tiebreak = rng.integers(0, 2**bits, n)
                ticks = rng.integers(0, 6, n)  # few distinct values: ties everywhere
                onsets = rng.choice([0.0, -0.0, 0.5, 0.25, 3.0], n)  # -0.0 ties 0.0
                for primary in (ticks, onsets, ticks * 2**40):
                    expected = np.lexsort((tiebreak, primary))
                    assert np.array_equal(midi_io.stable_order(primary, tiebreak, bits), expected)
        assert midi_io.stable_order(np.empty(0), np.empty(0, dtype=np.int64), 7).shape == (0,)


class TestParse:
    def test_tick_to_seconds_example(self):
        # 480 ticks/quarter at 500000 us/quarter: tick 480 -> 0.5 s, tick 960 -> 1.0 s
        data = smf_bytes(
            [
                tempo_event(0, 500_000),
                note_on(480, 60, 64),
                note_off(480, 60),
                END_OF_TRACK,
            ]
        )
        perf = parse_smf(data)
        assert perf.notes == (NoteEvent(0.5, 1.0, 60, 64),)

    def test_default_tempo_is_120_bpm(self):
        data = smf_bytes([note_on(0, 60, 64), note_off(480, 60), END_OF_TRACK])
        perf = parse_smf(data)
        assert perf.notes[0].offset == pytest.approx(0.5)

    def test_zero_note_events_gives_empty_list(self):
        data = smf_bytes([END_OF_TRACK])
        perf = parse_smf(data)
        assert perf.notes == ()

    def test_velocity_zero_note_on_acts_as_note_off_with_running_status(self):
        # second event reuses the running 0x90 status with velocity 0
        data = smf_bytes(
            [note_on(0, 60, 80), vlq(240) + bytes((60, 0)), END_OF_TRACK]
        )
        perf = parse_smf(data)
        assert perf.notes == (NoteEvent(0.0, 0.25, 60, 80),)

    def test_overlapping_same_pitch_pairs_fifo(self):
        data = smf_bytes(
            [
                note_on(0, 60, 90),
                note_on(240, 60, 70),
                note_off(240, 60),
                note_off(240, 60),
                END_OF_TRACK,
            ]
        )
        perf = parse_smf(data)
        assert perf.notes == (
            NoteEvent(0.0, 0.5, 60, 90),
            NoteEvent(0.25, 0.75, 60, 70),
        )

    def test_dangling_note_on_closed_at_final_tick_with_warning(self):
        data = smf_bytes(
            [note_on(0, 60, 64), note_on(240, 64, 60), note_off(240, 64), END_OF_TRACK]
        )
        perf, warnings = parse_smf_with_warnings(data)
        assert len(warnings) == 1 and "dangling" in warnings[0]
        dangling = [n for n in perf.notes if n.pitch == 60][0]
        assert dangling.offset == pytest.approx(0.5)  # final tick = 480

    def test_zero_tempo_is_a_parse_error_at_the_tempo_event(self):
        data = smf_bytes([note_on(0, 60, 64), tempo_event(0, 0), note_off(480, 60), END_OF_TRACK])
        with pytest.raises(SmfParseError, match="tempo must be positive") as exc:
            parse_smf(data)
        assert data[exc.value.offset - 3 : exc.value.offset + 3] == b"\xff\x51\x03\x00\x00\x00"

    def test_one_debug_line_per_parsed_file(self, caplog):
        track0 = tempo_event(0, 250_000) + END_OF_TRACK
        # the note-on of pitch 62 is left open 10 ticks before the end
        track1 = note_on(0, 60, 64) + note_off(480, 60) + note_on(0, 62, 64) + vlq(10) + b"\xff\x2f\x00"
        data = _format_1(track0, track1)
        caplog.set_level(logging.DEBUG, logger="pianist_id.midi_io")
        parse_smf_with_warnings(data, performer_id="p7")
        assert [r.getMessage() for r in caplog.records] == [
            "parsed p7: 2 tracks, 2 notes, 1 tempo changes, 1 warnings"
        ]

    def test_parse_is_deterministic(self):
        data = smf_bytes(
            [note_on(0, 60, 64), note_off(120, 60), note_on(7, 72, 33), note_off(9, 72), END_OF_TRACK]
        )
        assert parse_smf(data) == parse_smf(data)

    def test_format_1_merges_tracks_and_shares_tempo(self):
        track0 = tempo_event(0, 250_000) + END_OF_TRACK
        track1 = note_on(0, 60, 64) + note_off(480, 60) + END_OF_TRACK
        perf = parse_smf(_format_1(track0, track1))
        assert perf.notes == (NoteEvent(0.0, 0.25, 60, 64),)

    def test_alien_chunks_are_skipped(self):
        track = note_on(0, 60, 64) + note_off(480, 60) + END_OF_TRACK
        data = (
            b"MThd"
            + struct.pack(">IHHH", 6, 0, 1, 480)
            + b"XFIH"
            + struct.pack(">I", 4)
            + b"junk"
            + b"MTrk"
            + struct.pack(">I", len(track))
            + track
        )
        assert len(parse_smf(data).notes) == 1


def _format_1(*tracks: bytes, division: int = 480) -> bytes:
    out = b"MThd" + struct.pack(">IHHH", 6, 1, len(tracks), division)
    return out + b"".join(b"MTrk" + struct.pack(">I", len(t)) + t for t in tracks)


class TestParseErrors:
    def test_missing_header(self):
        with pytest.raises(SmfParseError) as exc:
            parse_smf(b"RIFFxxxxxxxxxxxx")
        assert exc.value.offset == 0

    def test_truncated_file_reports_offset(self):
        data = smf_bytes([note_on(0, 60, 64), END_OF_TRACK])[:-6]
        with pytest.raises(SmfParseError) as exc:
            parse_smf(data)
        assert exc.value.offset > 0

    def test_format_2_rejected(self):
        data = b"MThd" + struct.pack(">IHHH", 6, 2, 1, 480)
        with pytest.raises(SmfParseError) as exc:
            parse_smf(data)
        assert exc.value.offset == 8

    def test_zero_division_rejected(self):
        data = smf_bytes([note_on(0, 60, 64), END_OF_TRACK], division=0)
        message = r"^time division must be positive \(byte offset 12\)$"
        with pytest.raises(SmfParseError, match=message) as exc:
            parse_smf(data)
        assert exc.value.offset == 12

    def test_smpte_division_rejected(self):
        data = b"MThd" + struct.pack(">IHHh", 6, 0, 1, -25 * 256 + 40)
        with pytest.raises(SmfParseError):
            parse_smf(data)

    def test_track_chunk_length_overruns_file(self):
        track = note_on(0, 60, 64) + END_OF_TRACK
        data = (
            b"MThd"
            + struct.pack(">IHHH", 6, 0, 1, 480)
            + b"MTrk"
            + struct.pack(">I", len(track) + 50)
            + track
        )
        with pytest.raises(SmfParseError):
            parse_smf(data)


class TestTempoMap:
    def test_piecewise_conversion_across_changes(self):
        # 500000 us/q until tick 480, then 250000 us/q
        tm = TempoMap(480, [(0, 500_000), (480, 250_000)])
        assert tm.to_seconds(480) == pytest.approx(0.5)
        assert tm.to_seconds(960) == pytest.approx(0.75)

    def test_division_must_be_positive(self):
        with pytest.raises(ValueError, match="division must be positive, got 0"):
            TempoMap(0)

    def test_monotone_in_tick(self):
        tm = TempoMap(96, [(0, 600_000), (100, 100_000), (500, 1_200_000)])
        times = [tm.to_seconds(t) for t in range(0, 1000, 7)]
        assert all(b > a for a, b in zip(times, times[1:]))


class TestNoteTable:
    def test_single_note_has_header_and_one_row(self):
        perf = simple_performance([0.25], [60])
        lines = to_note_table(perf).splitlines()
        assert lines[0] == "onset,offset,pitch,dynamic"
        assert len(lines) == 2

    def test_round_trip_preserves_fields_bit_exactly(self):
        onsets = [0.1 + 0.2, 1.0 / 3.0, 2.7182818284590455]
        perf = simple_performance(onsets, [60, 61, 62], durations=0.1 + 1e-9)
        back = from_note_table(to_note_table(perf), performer_id="p")
        assert back.notes == perf.notes

    def test_tied_onsets_order_by_pitch(self):
        perf = simple_performance([1.0, 1.0, 1.0], [67, 60, 64])
        rows = to_note_table(perf).splitlines()[1:]
        assert [int(r.split(",")[2]) for r in rows] == [60, 64, 67]

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            from_note_table("a,b,c,d\n1,2,3,4\n")

    def test_a_value_that_does_not_convert_names_its_line(self):
        header = "onset,offset,pitch,dynamic\n"
        cases = [
            ("0.0,0.5,60,64\n0.5,0.75,62.0,64\n",
             "line 3: invalid literal for int() with base 10: '62.0'"),
            ("0.0,0.5,60,64\n\n0.5,0.75,62,loud\n",
             "line 4: invalid literal for int() with base 10: 'loud'"),
            ("0.0,x,60,64\n", "line 2: could not convert string to float: 'x'"),
        ]
        for body, message in cases:
            with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
                from_note_table(header + body)
        # the conversion rules are Python's: padded integers and exponents still read
        perf = from_note_table(header + "0,5e-1, 62 ,64\n")
        assert perf.notes == ((0.0, 0.5, 62, 64),)


class TestWriteQuantize:
    def test_write_then_parse_recovers_quantized_performance(self):
        perf = simple_performance(
            [0.0, 0.5003, 1.0007, 1.00071], [60, 64, 60, 72], durations=0.31337, dynamics=77
        )
        q = parse_smf(write_smf(perf), performer_id=perf.performer_id, piece_id=perf.piece_id)
        back = parse_smf(write_smf(q), performer_id=q.performer_id, piece_id=q.piece_id)
        assert back == q

    def test_quantize_is_idempotent(self):
        perf = simple_performance([0.0, 0.123456, 0.777], durations=0.2)
        q = parse_smf(write_smf(perf), performer_id=perf.performer_id, piece_id=perf.piece_id)
        assert parse_smf(write_smf(q), performer_id=q.performer_id, piece_id=q.piece_id) == q

    def test_zero_length_after_rounding_extended_one_tick(self):
        perf = Performance("p", "x", (NoteEvent(0.5, 0.5 + 1e-5, 60, 64),))
        q = parse_smf(write_smf(perf), performer_id="p", piece_id="x")
        assert q.notes[0].offset > q.notes[0].onset

    def test_times_past_the_smf_ranges_raise_before_writing(self):
        # a delta time holds at most 0x0FFFFFFF ticks: 279,620.3 s at 480 ticks
        # per quarter and 120 BPM, so a gap of 279,000 s fits and 279,700 s does not
        fits = simple_performance([0.0, 279_000.0], [60, 62], durations=0.5)
        assert parse_smf(write_smf(fits), performer_id="p", piece_id="piece") == fits
        with pytest.raises(ValueError, match="runs past the SMF delta-time range"):
            write_smf(simple_performance([0.0, 279_700.0], [60, 62], durations=0.5))
        # absolute ticks from 2**62 on would overflow the int64 cast
        with pytest.raises(ValueError, match="note times run past the SMF tick range"):
            write_smf(simple_performance([1e16], [60], durations=1e3))

    @pytest.mark.parametrize(
        "name, value",
        [("division", 0), ("division", 0x8000), ("division", 0x10000), ("division", -5),
         ("tempo", 0), ("tempo", -1), ("tempo", 1 << 24)],
    )
    def test_a_division_or_tempo_the_reader_refuses_is_not_written(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be in 1\\.\\.[0-9]+ .*, got {value}$"):
            write_smf(simple_performance([0.0, 0.5], [60, 62], durations=0.25), **{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [("division", 480.0), ("division", True), ("division", "480"),
         ("tempo", 500000.0), ("tempo", False), ("tempo", np.float64(500000))],
        ids=["division float", "division bool", "division str", "tempo float", "tempo bool", "tempo numpy float"],
    )
    def test_a_division_or_tempo_that_is_not_an_integer_is_refused_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            write_smf(simple_performance([0.0, 0.5], [60, 62], durations=0.25), **{name: value})

    def test_numpy_integer_division_and_tempo_are_written_as_ints_are(self):
        perf = simple_performance([0.0, 0.5], [60, 62], durations=0.25)
        assert write_smf(perf, division=np.int16(960), tempo=np.uint32(400000)) == write_smf(
            perf, division=960, tempo=400000
        )

    def test_the_extreme_division_and_tempo_are_written_and_read_back(self):
        perf = simple_performance([0.0, 0.5], [60, 62], durations=0.25)
        for division, tempo in ((1, 1), (0x7FFF, 0xFFFFFF)):
            data = write_smf(perf, division=division, tempo=tempo)
            assert write_smf(parse_smf(data), division=division, tempo=tempo) == data


def _random_track(rng: random.Random, n_events: int | None = None) -> bytes:
    """Events over two channels: notes (often overlapping, zero-length or left
    open), running status, tempo changes, controllers, programs, SysEx and meta
    text, usually closed by End of Track. ``n_events`` defaults to 0 to 40."""
    events, running = [], None
    for _ in range(rng.randint(0, 40) if n_events is None else n_events):
        delta = rng.choice([0, 0, 1, rng.randint(0, 200), rng.randint(0, 1 << 20)])
        channel = rng.randrange(2)
        r = rng.random()
        if r < 0.6:
            pitch = rng.choice([60, 62, 64, rng.randrange(128)])
            on = rng.random() < 0.55
            status = (0x90 if on or rng.random() < 0.5 else 0x80) | channel
            velocity = rng.randint(1, 127) if on else (0 if status & 0xF0 == 0x90 else rng.randrange(128))
            head = b"" if running == status and rng.random() < 0.7 else bytes((status,))
            events.append(vlq(delta) + head + bytes((pitch, velocity)))
            running = status
            continue
        if r < 0.7:
            events.append(tempo_event(delta, 0 if rng.random() < 0.03 else rng.randint(1, (1 << 24) - 1)))
            running = None
        elif r < 0.75:
            events.append(vlq(delta) + bytes((0xB0 | channel, 64, rng.randrange(128))))
            running = 0xB0 | channel
        elif r < 0.8:
            events.append(vlq(delta) + bytes((0xC0 | channel, rng.randrange(128))))
            running = 0xC0 | channel
        elif r < 0.9:
            size = rng.randint(0, 5)
            head = rng.choice([b"\xf0", b"\xf7", b"\xff\x01"])
            events.append(vlq(delta) + head + vlq(size) + bytes(rng.randrange(128) for _ in range(size)))
            running = None
        else:
            events.append(vlq(delta) + bytes((0xE0 | channel, rng.randrange(128), rng.randrange(128))))
            running = 0xE0 | channel
    if rng.random() < 0.9:
        events.append(vlq(rng.choice([0, 5])) + b"\xff\x2f\x00")
        if rng.random() < 0.1:
            events.append(b"junk after End of Track")
    return b"".join(events)


def _random_smf(rng: random.Random, n_events: int | None = None) -> bytes:
    """A synth render (2 to 30 notes), or 1 to 4 random tracks of ``n_events`` each."""
    if n_events is None and rng.random() < 0.3:  # as the benchmark and `synth` write them
        score = synth.generate_score(rng.randint(2, 30), rng.randrange(1000))
        profile = synth.default_profiles(2, base_seed=rng.randrange(100))[rng.randrange(2)]
        return write_smf(synth.render_performer(score, profile, "p"))
    tracks = [_random_track(rng, n_events) for _ in range(rng.randint(1, 4))]
    data = b"MThd" + struct.pack(
        ">IHHH", 6, 1 if len(tracks) > 1 else rng.randrange(2), len(tracks), rng.choice([7, 96, 480, 960])
    )
    for track in tracks:
        if rng.random() < 0.1:
            data += b"XFIH" + struct.pack(">I", 3) + b"abc"  # an alien chunk
        data += b"MTrk" + struct.pack(">I", len(track)) + track
    return data


def _damage(rng: random.Random, data: bytes) -> bytes:
    """Intact, truncated, or with one to three bytes flipped (and maybe truncated)."""
    r = rng.random()
    if r < 0.25:
        return data
    if r < 0.55:
        return data[: rng.randrange(len(data) + 1)]
    damaged = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        damaged[rng.randrange(len(damaged))] ^= rng.choice([1 << rng.randrange(8), rng.randrange(1, 256)])
    if r > 0.9:
        damaged = damaged[: rng.randrange(len(damaged) + 1)]
    return bytes(damaged)


def _outcome(parse, data: bytes):
    """Notes as exact bits plus warnings, or the error's class, message and offset."""
    try:
        notes, warnings = parse(data)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    return [(n.onset.hex(), n.offset.hex(), n.pitch, n.dynamic) for n in notes], warnings


def _library_parse(data: bytes):
    performance, warnings = parse_smf_with_warnings(data)
    return performance.notes, warnings


class TestAgainstReferenceParser:
    def test_fuzzed_files_parse_as_the_reference_parses_them(self):
        rng = random.Random(20261018)
        seen = {"notes": 0, "dangling": 0, "zero-length": 0, "ties": 0, "errors": 0, "zero tempo": 0}
        for _ in range(2400):
            data = _damage(rng, _random_smf(rng))
            expected, got = _outcome(reference_parse, data), _outcome(_library_parse, data)
            if got[0] is SmfParseError and got[1].startswith("tempo must be positive"):
                # the one intended difference: the reference raises a bare
                # ValueError or parses zero-length times, or fails further on
                assert data[got[2] : got[2] + 3] == b"\0\0\0"
                seen["zero tempo"] += 1
                continue
            assert got == expected, data.hex()
            if expected[0] is SmfParseError:
                seen["errors"] += 1
            elif isinstance(expected[0], list) and expected[0]:
                keys = [(onset, pitch) for onset, _, pitch, _ in expected[0]]
                seen["notes"] += 1
                seen["ties"] += len(set(keys)) < len(keys)
                seen["dangling"] += any("dangling" in w for w in expected[1])
                seen["zero-length"] += any("zero-length" in w for w in expected[1])
        assert min(seen.values()) >= 20, seen

    def test_long_tracks_parse_as_the_reference_parses_them(self, monkeypatch):
        # long tracks, intact or damaged, at least 100 of them certified by the array pass
        certified = []
        decode = midi_io._decode_tracks

        def counted(tracks):
            results = decode(tracks)
            certified.extend(result is not None for result in results)
            return results

        monkeypatch.setattr(midi_io, "_decode_tracks", counted)
        rng = random.Random(20261019)
        for _ in range(200):
            data = _damage(rng, _random_smf(rng, n_events=rng.randint(150, 400)))
            expected, got = _outcome(reference_parse, data), _outcome(_library_parse, data)
            if got[0] is SmfParseError and got[1].startswith("tempo must be positive"):
                assert data[got[2] : got[2] + 3] == b"\0\0\0"  # as in the fuzz test above
                continue
            assert got == expected, data.hex()
        assert sum(certified) >= 100

    def test_passes_too_large_for_int32_positions_parse_as_the_reference_parses_them(self, monkeypatch):
        # with the limit below every pass's size, every track goes to _scan_track
        monkeypatch.setattr(midi_io, "_MAX_ARRAY_TRACK_BYTES", 1)
        monkeypatch.setattr(midi_io, "_decode_tracks", lambda tracks: pytest.fail("array pass taken"))
        overlapping = smf_bytes(
            [note_on(0, 60, 90), note_on(240, 60, 70), note_off(240, 60), note_on(0, 64, 50),
             note_off(240, 60), note_off(0, 62), END_OF_TRACK]
        )
        notes, warnings = _library_parse(overlapping)
        assert [(n.onset, n.offset, n.pitch) for n in notes] == [(0.0, 0.5, 60), (0.25, 0.75, 60), (0.5, 0.75, 64)]
        assert warnings == ["dangling note-on (pitch 64) closed at final tick 720"]
        rng = random.Random(20261020)
        seen = {"dangling": 0, "zero-length": 0, "errors": 0}
        for data in [overlapping] + [_damage(rng, _random_smf(rng)) for _ in range(400)]:
            expected, got = _outcome(reference_parse, data), _outcome(_library_parse, data)
            if got[0] is SmfParseError and got[1].startswith("tempo must be positive"):
                assert data[got[2] : got[2] + 3] == b"\0\0\0"  # as in the fuzz test above
                continue
            assert got == expected, data.hex()
            if expected[0] is SmfParseError:
                seen["errors"] += 1
            else:
                seen["dangling"] += any("dangling" in w for w in expected[1])
                seen["zero-length"] += any("zero-length" in w for w in expected[1])
        assert min(seen.values()) >= 20, seen

    def test_running_status_on_one_data_byte_messages(self):
        # program change and channel pressure repeated under running status, then notes
        body = [
            note_on(0, 60, 64),
            vlq(0) + bytes((0xC0, 5)), vlq(10) + bytes((6,)),
            vlq(0) + bytes((0xD1, 40)), vlq(10) + bytes((41,)), vlq(3) + bytes((42,)),
            note_on(0, 62, 50, channel=1), note_off(120, 62, channel=1), note_off(0, 60),
        ]
        notes = [note_on(7, 64 + i % 5, 70) + note_off(30, 64 + i % 5) for i in range(200)]
        for events in (body, body + notes):
            data = smf_bytes(events + [END_OF_TRACK])
            assert _outcome(_library_parse, data) == _outcome(reference_parse, data)
            assert len(parse_smf(data)) == 2 + len(events) - len(body)
            assert midi_io._decode_tracks([(data, 22, len(data))]) == [None]

    def test_running_status_data_byte_after_a_meta_event_is_an_error(self):
        notes = [note_on(7, 64 + i % 5, 70) + note_off(30, 64 + i % 5) for i in range(200)]
        for events in ([], notes):
            data = smf_bytes(
                events + [note_on(0, 60, 64), tempo_event(0, 400_000), vlq(5) + bytes((60, 0)), END_OF_TRACK]
            )
            assert _outcome(_library_parse, data) == _outcome(reference_parse, data)
            with pytest.raises(SmfParseError, match="data byte without running status") as exc:
                parse_smf(data)
            assert exc.value.offset == len(data) - 6

    def test_huge_ticks_convert_exactly(self):
        # 0x0FFFFFFF is the longest delta; at this tempo (tick - t_i) * tempo passes
        # 2**53 after a few of them, and 2**63 after 2100 more
        rng = random.Random(5)
        longest = vlq(0x0FFFFFFF)
        events, ticks, tick = [tempo_event(0, 0xFFFFFF)], [], 0
        for pitch in range(50, 70):
            on, off = tick + 0x0FFFFFFF, tick + 0x0FFFFFFF + rng.randint(1, 999)
            events += [longest + bytes((0x90, pitch, 64)), vlq(off - on) + bytes((0x80, pitch, 0))]
            ticks += [on, off]
            tick = off
        events += [longest + b"\xff\x01\x00"] * 2100
        events += [vlq(3) + bytes((0x90, 70, 64)), vlq(5) + bytes((0x80, 70, 0)), END_OF_TRACK]
        data = smf_bytes(events, division=7)
        assert ticks[-1] * 0xFFFFFF > 2**53

        assert _outcome(_library_parse, data) == _outcome(reference_parse, data)
        tempo_map = TempoMap(7, [(0, 0xFFFFFF)])
        exact = [tempo_map.to_seconds(t) for t in ticks]
        assert tempo_map.to_seconds_array(np.array(ticks)).tolist() == exact
        # a plain float64 division of the products would miss some of them
        rounded = (np.array(ticks) * 0xFFFFFF).astype(np.float64) / 7_000_000
        assert rounded.tolist() != exact

    def test_written_bytes_equal_the_reference_writer(self):
        rng = np.random.default_rng(3)
        for n in (0, 1, 2, 40, 400):
            # onsets on a coarse grid tie in onset and pitch; tiny durations round to zero
            onsets = np.round(rng.uniform(0, 60, n), 1)
            durations = rng.choice([1e-5, 0.001, 0.3, 2.0], n)
            pitches = rng.integers(58, 62, n)
            dynamics = rng.integers(1, 128, n)
            perf = Performance.from_columns("p", "x", onsets, onsets + durations, pitches, dynamics)
            for division, tempo in ((480, 500_000), (96, 1_234_567)):
                assert write_smf(perf, division=division, tempo=tempo) == reference_write(
                    perf.notes, division=division, tempo=tempo
                )


def _track_chunks(data: bytes):
    """(start, end) of each MTrk chunk that lies within ``data``, walking the chunks from the header on."""
    pos = 8 + int.from_bytes(data[4:8], "big") if data[:4] == b"MThd" else 14
    while pos + 8 <= len(data):
        start, end = pos + 8, pos + 8 + int.from_bytes(data[pos + 4 : pos + 8], "big")
        if end > len(data):
            return
        if data[pos : pos + 4] == b"MTrk":
            yield start, end
        pos = end


class TestArrayTrackDecoder:
    """``_decode_tracks`` against ``_scan_track``, on one track chunk and on many at once."""

    def test_fuzzed_tracks_decode_as_scan_track_reads_them(self):
        rng = random.Random(20261018)
        seen = {"decoded": 0, "rejected": 0, "left to the scan": 0, "uncertified between certified": 0}
        tracks = []
        for i in range(2400):
            data = _damage(rng, _random_smf(rng, n_events=None if i % 2 else rng.randint(0, 150)))
            tracks += [(data, start, end) for start, end in _track_chunks(data)]
        # every track alone, and all of them in one pass, where a track the
        # pass cannot certify sits between tracks it decodes
        batched = midi_io._decode_tracks(tracks)
        for t, ((data, start, end), in_batch) in enumerate(zip(tracks, batched)):
            try:
                scanned = midi_io._scan_track(data, start, end)
                error = None
            except SmfParseError as exc:
                error = exc
            (decoded,) = midi_io._decode_tracks([(data, start, end)])
            if decoded is None:
                # the scan rejects the track, or running status repeats a
                # program change or channel pressure in it
                if error is None:
                    assert any(0xC0 <= byte < 0xE0 for byte in data[start:end]), data.hex()
                assert in_batch is None, data.hex()
                seen["rejected" if error else "left to the scan"] += 1
                neighbours = batched[t - 1 : t + 2 : 2]
                seen["uncertified between certified"] += len(neighbours) == 2 and None not in neighbours
                continue
            assert error is None, (str(error), data.hex())
            for got in (decoded, in_batch):
                assert got[1].dtype == scanned[1].dtype == np.int64, data.hex()
                assert (got[0], got[1].tolist(), got[2]) == (
                    scanned[0], scanned[1].tolist(), scanned[2]
                ), data.hex()
            seen["decoded"] += 1
        assert seen["decoded"] >= 2000 and seen["rejected"] >= 300 and seen["left to the scan"] >= 5, seen
        assert seen["uncertified between certified"] >= 100, seen

    def test_passes_are_capped_by_the_byte_budget(self, monkeypatch):
        calls = []
        decode = midi_io._decode_tracks
        monkeypatch.setattr(midi_io, "_decode_tracks", lambda tracks: calls.append(tracks) or decode(tracks))
        rng = random.Random(3)
        files = [(_random_smf(rng, n_events=rng.randint(0, 300)), f"p{i}", "x") for i in range(10)]
        files.append((b"MThd", "bad", "x"))
        one_at_a_time = [_outcome(_library_parse, data) for data, _, _ in files]
        total = sum(end - start + midi_io._PAD for data, _, _ in files for start, end in _track_chunks(data))
        default = midi_io._BATCH_BYTES
        assert 4000 < total <= default
        for budget in (default, 4000, 1):
            monkeypatch.setattr(midi_io, "_BATCH_BYTES", budget)
            calls.clear()
            outcomes = list(midi_io.parse_smfs(files))
            got = [
                (type(o), str(o), o.offset) if isinstance(o, ValueError)
                else ([(n.onset.hex(), n.offset.hex(), n.pitch, n.dynamic) for n in o[0].notes], o[1])
                for o in outcomes
            ]
            assert got == one_at_a_time
            for (_, performer_id, _), outcome in zip(files, outcomes):
                assert isinstance(outcome, ValueError) or outcome[0].performer_id == performer_id
            sizes = [sum(end - start + midi_io._PAD for _, start, end in tracks) for tracks in calls]
            assert all(size <= budget or len(tracks) == 1 for size, tracks in zip(sizes, calls))
            if budget == default:
                assert len(calls) == 1
            elif budget == 1:  # each track a pass of its own
                assert len(calls) == sum(len(list(_track_chunks(data))) for data, _, _ in files) > 0
            else:
                assert len(calls) > 1
