import numpy as np
import pytest

from conftest import simple_performance
from pianist_id.alignment import AlignedNoteTable, build_table
from pianist_id.evaluation import DeviationDataset
from pianist_id.features import (
    KINDS,
    PAIR_KINDS,
    DeviationSeries,
    NoteStream,
    compute_norm,
    derive_quantity,
    deviations,
    dump_features_csv,
    extract_deviations,
    performer_stream,
)
from pianist_id.midi_io import Performance


def stream_from_notes(onsets, offsets, dynamics, label="s", positions=None):
    n = len(onsets)
    return NoteStream(
        label=label,
        positions=np.asarray(positions if positions is not None else range(n), dtype=np.int64),
        onsets=np.asarray(onsets, dtype=np.float64),
        offsets=np.asarray(offsets, dtype=np.float64),
        dynamics=np.asarray(dynamics, dtype=np.float64),
    )


class TestComputeNorm:
    def test_mean_onset_of_two_performers(self):
        a = simple_performance([1.0, 3.0], [60, 62], performer_id="a")
        b = simple_performance([2.0, 4.0], [60, 62], performer_id="b")
        table, _ = build_table([a, b], reference=a)
        norm = compute_norm(table)
        assert norm.onsets[0] == pytest.approx(1.5)

    def test_duplicated_performer_norm_equals_the_performance(self):
        base = simple_performance([0.0, 0.4, 1.1], [60, 64, 67], durations=0.25, dynamics=80)
        copies = [
            simple_performance([0.0, 0.4, 1.1], [60, 64, 67], durations=0.25, dynamics=80, performer_id=f"c{i}")
            for i in range(2)
        ]
        table, _ = build_table(copies)
        norm = compute_norm(table)
        assert np.array_equal(norm.onsets, [n.onset for n in base.notes])
        assert np.array_equal(norm.offsets, [n.offset for n in base.notes])
        assert np.array_equal(norm.dynamics, [n.dynamic for n in base.notes])

    def test_nine_performer_dynamic_mean(self):
        dynamics = [60, 64, 62, 70, 58, 66, 64, 61, 63]
        perfs = [
            simple_performance([0.0, 0.5], [60, 62], dynamics=d, performer_id=f"p{i}")
            for i, d in enumerate(dynamics)
        ]
        table, _ = build_table(perfs)
        norm = compute_norm(table)
        assert norm.dynamics[0] == pytest.approx(sum(dynamics) / 9)
        assert norm.dynamics[0] == pytest.approx(63.111, abs=5e-4)
        assert list(table.coverage()) == [9, 9]

    def test_norm_is_a_stream_labelled_norm(self, identical_table):
        norm = compute_norm(identical_table)
        assert isinstance(norm, NoteStream) and norm.label == "norm"
        assert norm.positions.tolist() == list(range(identical_table.n_positions))

    @staticmethod
    def two_by_two_table(onsets, offsets):
        shape = (2, 2)
        return AlignedNoteTable(
            performer_ids=("a", "b"),
            onsets=np.asarray(onsets, dtype=np.float64),
            offsets=np.asarray(offsets, dtype=np.float64),
            dynamics=np.full(shape, 64.0),
            pitches=np.full(shape, 60, dtype=np.int64),
        )

    def test_position_with_no_present_cell_is_rejected(self):
        nan = np.nan
        table = self.two_by_two_table([[0.0, 0.1], [nan, nan]], [[0.5, 0.6], [nan, nan]])
        with pytest.raises(ValueError, match="every position needs at least one present cell"):
            compute_norm(table)

    def test_norm_offset_at_its_onset_is_rejected(self):
        nan = np.nan
        # position 1 holds one cell, whose offset equals its onset
        table = self.two_by_two_table([[0.0, 0.1], [1.0, nan]], [[0.5, 0.6], [1.0, nan]])
        with pytest.raises(ValueError, match="norm offsets must exceed norm onsets"):
            compute_norm(table)


class TestDeriveQuantity:
    def test_figure_definitions_on_two_notes(self):
        s = stream_from_notes([0.0, 0.5], [0.4, 1.0], [64, 70])
        assert derive_quantity(s, "IOI").values == pytest.approx([0.5])
        assert derive_quantity(s, "OTD").values == pytest.approx([0.1])
        assert derive_quantity(s, "ND").values == pytest.approx([0.4, 0.5])
        assert derive_quantity(s, "OT").values == pytest.approx([0.0, 0.5])
        assert derive_quantity(s, "DL").values == pytest.approx([64, 70])
        ioi = derive_quantity(s, "IOI")
        assert (ioi.positions.tolist(), ioi.end_positions.tolist(), ioi.performer_id) == ([0], [1], "s")

    def test_legato_overlap_gives_negative_otd(self):
        s = stream_from_notes([0.0, 0.5], [0.6, 1.0], [64, 64])
        assert derive_quantity(s, "OTD").values == pytest.approx([-0.1])

    def test_pair_kinds_need_two_notes(self):
        s = stream_from_notes([0.0], [0.4], [64])
        assert len(derive_quantity(s, "IOI").values) == 0
        assert len(derive_quantity(s, "OTD").values) == 0

    def test_unknown_kind_rejected(self):
        s = stream_from_notes([0.0], [0.4], [64])
        with pytest.raises(ValueError):
            derive_quantity(s, "XX")


class TestDeviationSeries:
    @pytest.mark.parametrize(
        "positions, end_positions",
        [([3, 1, 2, 0], None), ([0, 1, 1], None), ([0, 2, 1], [1, 3, 4]), ([0, 1, 2], [1, 3, 2])],
    )
    def test_unordered_positions_are_refused(self, positions, end_positions):
        # None: one array for both, as a point kind's series has
        positions = np.asarray(positions)
        ends = positions if end_positions is None else np.asarray(end_positions)
        with pytest.raises(ValueError, match="strictly increasing"):
            DeviationSeries("IOI", "a", np.zeros(len(positions)), positions, ends)

    def test_an_end_before_its_position_is_refused(self):
        with pytest.raises(ValueError, match="no end before its start"):
            DeviationSeries("IOI", "a", np.zeros(2), np.asarray([1, 4]), np.asarray([2, 3]))


class TestDeviations:
    def test_identical_streams_give_zero_for_every_kind(self, identical_table):
        norm = compute_norm(identical_table)
        for kind in KINDS:
            series = deviations(norm, norm, kind)
            assert len(series) > 0
            assert np.all(series.values == 0.0)

    def test_simple_metric_order_is_norm_minus_performer(self):
        norm = stream_from_notes([1.00], [1.40], [64], label="norm")
        perf = stream_from_notes([1.02], [1.42], [64], label="p")
        series = deviations(perf, norm, "OT")
        assert series.values == pytest.approx([-0.02])
        assert series.performer_id == "p"

    def test_absolute_metric_on_otd_quantities(self):
        # OTD = next onset - offset: -0.05 for the norm, 0.03 for the performer
        norm = stream_from_notes([0.0, 1.00], [1.05, 1.5], [64] * 2, label="norm")
        perf = stream_from_notes([0.0, 1.00], [0.97, 1.5], [64] * 2, label="p")
        series = deviations(perf, norm, "OTD")
        assert series.values == pytest.approx([abs(-0.05) - abs(0.03)], abs=1e-15)
        assert series.values == pytest.approx([0.02], abs=1e-15)

    def test_pair_kinds_span_performer_gaps_commensurably(self):
        # performer misses position 1; IOI must run 0 -> 2 in both streams
        norm = stream_from_notes([0.0, 0.5, 1.2], [0.3, 0.8, 1.5], [64] * 3, label="norm")
        perf = stream_from_notes([0.1, 1.25], [0.35, 1.5], [64] * 2, label="p", positions=[0, 2])
        series = deviations(perf, norm, "IOI")
        assert list(series.positions) == [0]
        assert list(series.end_positions) == [2]
        assert series.values == pytest.approx([abs(1.2 - 0.0) - abs(1.25 - 0.1)])

    def test_point_kinds_antisymmetric_under_argument_swap(self):
        a = stream_from_notes([0.0, 0.5], [0.3, 0.9], [60, 70], label="a")
        b = stream_from_notes([0.1, 0.45], [0.35, 0.8], [66, 72], label="b")
        for kind in ("OT", "DL", "ND"):
            forward = deviations(a, b, kind).values
            backward = deviations(b, a, kind).values
            assert forward == pytest.approx(-backward)

    def test_absolute_metric_is_even_in_the_quantities(self):
        # mirroring the performer about the norm negates simple deviations but
        # not the absolute-difference ones once signs mix
        norm = stream_from_notes([0.0, 0.5], [0.6, 1.1], [64] * 2, label="norm")
        perf = stream_from_notes([0.0, 0.58], [0.45, 1.0], [64] * 2, label="p")
        mirrored = stream_from_notes(
            [0.0, 0.42], [0.75, 1.2], [64] * 2, label="m"
        )  # onset/offset reflected through the norm's values
        for kind in ("OT", "ND"):
            d = deviations(perf, norm, kind).values
            d_mirror = deviations(mirrored, norm, kind).values
            assert d_mirror == pytest.approx(-d, abs=1e-12)
        otd = deviations(perf, norm, "OTD").values
        otd_mirror = deviations(mirrored, norm, "OTD").values
        assert not np.allclose(otd_mirror, -otd)

    def test_linearity_equivalence_on_full_coverage_table(self, identical_trio):
        jittered = []
        rng = np.random.default_rng(5)
        for i, perf in enumerate(identical_trio):
            onsets = [n.onset + rng.uniform(-0.02, 0.02) for n in perf.notes]
            onsets = np.maximum.accumulate(np.maximum(onsets, 0.0)) + np.arange(5) * 1e-4
            jittered.append(
                simple_performance(
                    onsets,
                    [n.pitch for n in perf.notes],
                    durations=[0.2 + 0.03 * i] * 5,
                    dynamics=60 + i,
                    performer_id=f"p{i}",
                )
            )
        table, _ = build_table(jittered)
        norm = compute_norm(table)
        streams = [performer_stream(table, pid) for pid in table.performer_ids]
        for kind in ("IOI", "OTD", "ND"):
            per_performer = np.stack([derive_quantity(s, kind).values for s in streams])
            from_norm = derive_quantity(norm, kind).values
            assert np.max(np.abs(per_performer.mean(axis=0) - from_norm)) < 1e-12


class TestDumpCsv:
    def test_norm_vs_itself_dump_is_all_zeros(self, identical_table):
        norm = compute_norm(identical_table)
        series = [deviations(norm, norm, kind) for kind in KINDS]
        text = dump_features_csv(series)
        lines = text.splitlines()
        assert lines[0] == "performer,kind,position,value"
        assert len(lines) == 1 + sum(len(s) for s in series)
        assert all(line.endswith(",0.0") for line in lines[1:])

    def test_extract_deviations_equals_deviations_across_gaps(self):
        pitches = [60, 62, 64, 65, 67, 69, 71, 72]
        perfs = [
            simple_performance(
                [0.0, 0.5 + 0.02 * i, 1.0, 1.6 - 0.01 * i, 2.0, 2.4 - 0.01 * i, 2.9, 3.3], pitches,
                durations=0.3 + 0.05 * i, dynamics=60 + 3 * i, performer_id=f"p{i}",
            )
            for i in range(3)
        ]
        # p1 misses the note at pitch 69
        perfs[1] = simple_performance(
            [0.0, 0.52, 1.0, 1.59, 2.0, 2.9, 3.3], pitches[:5] + pitches[6:],
            durations=0.35, dynamics=63, performer_id="p1",
        )
        table = build_table(perfs)[0]
        assert table.n_positions == 8
        assert table.present_mask()[:, 1].tolist() == [True] * 5 + [False] + [True] * 2

        norm = compute_norm(table)
        by_performer = extract_deviations(table)
        for pid in table.performer_ids:
            stream = performer_stream(table, pid)
            for kind in KINDS:
                got, want = by_performer[pid][kind], deviations(stream, norm, kind)
                assert got.values.tobytes() == want.values.tobytes()
                assert got.positions.tobytes() == want.positions.tobytes()
                assert got.end_positions.tobytes() == want.end_positions.tobytes()
        # p1's IOI and OTD span the gap at position 5
        for kind in PAIR_KINDS:
            series = by_performer["p1"][kind]
            assert series.positions.tolist() == [0, 1, 2, 3, 4, 6]
            assert series.end_positions.tolist() == [1, 2, 3, 4, 6, 7]

    @staticmethod
    def assert_extract_equals_streams(table, norm=None):
        by_performer = extract_deviations(table, norm)
        norm = compute_norm(table) if norm is None else norm
        assert list(by_performer) == list(table.performer_ids)
        for pid in table.performer_ids:
            assert list(by_performer[pid]) == list(KINDS)
            stream = performer_stream(table, pid)
            for kind in KINDS:
                got, want = by_performer[pid][kind], deviations(stream, norm, kind)
                assert (got.kind, got.performer_id) == (want.kind, want.performer_id)
                for name in ("values", "positions", "end_positions"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype, (pid, kind, name)
                    assert a.tobytes() == b.tobytes(), (pid, kind, name)
        return by_performer

    def test_extract_deviations_equals_deviations_with_dropped_and_extra_notes(self):
        onsets = [0.0, 0.5, 1.0, 1.6, 2.0, 2.4, 2.9, 3.3]
        pitches = [60, 62, 64, 65, 67, 69, 71, 72]
        score = simple_performance(onsets, pitches, performer_id="score")
        perfs = [
            simple_performance(
                [t + 0.01 * i * k for k, t in enumerate(onsets)], pitches,
                durations=0.3 + 0.05 * i, dynamics=60 + 3 * i, performer_id=f"p{i}",
            )
            for i in range(3)
        ]
        # p1 drops the note at 1.6 and plays an extra note between 2.4 and 2.9
        notes = list(perfs[1].notes)
        extra = notes[5]._replace(onset=2.6, offset=2.7, pitch=90)
        perfs[1] = Performance("p1", "piece", tuple(notes[:3] + notes[4:6] + [extra] + notes[6:]))
        table, report = build_table(perfs, reference=score)
        assert (report.per_performer["p1"]["deletions"], report.per_performer["p1"]["insertions"]) == (1, 1)
        assert table.present_mask()[:, 1].tolist() == [True] * 3 + [False] + [True] * 4
        self.assert_extract_equals_streams(table)

    def test_extract_deviations_equals_deviations_on_a_column_with_one_note(self):
        # d, with no note, comes first, so its pair-kind slices start at 0
        nan = np.nan
        onsets = np.asarray([[nan, 0.0, nan, 0.1], [nan, 0.5, 0.45, 0.52], [nan, 1.0, nan, nan]])
        table = AlignedNoteTable(
            performer_ids=("d", "a", "b", "c"),
            onsets=onsets,
            offsets=onsets + np.asarray([0.0, 0.3, 0.2, 0.25]),
            dynamics=np.where(np.isnan(onsets), nan, [[80.0, 60.0, 61.0, 70.0]] * 3),
            pitches=np.where(np.isnan(onsets), -1, 60).astype(np.int16),
        )
        by_performer = self.assert_extract_equals_streams(table)
        assert [len(by_performer["b"][kind]) for kind in KINDS] == [1, 0, 0, 1, 1]
        assert all(len(series) == 0 for series in by_performer["d"].values())

    def test_extract_deviations_equals_deviations_with_a_partial_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n, k = int(rng.integers(1, 12)), int(rng.integers(1, 5))
            present = rng.random((n, k)) < 0.7
            onsets = np.where(present, np.cumsum(rng.uniform(0.1, 1.0, (n, k)), axis=0), np.nan)
            table = AlignedNoteTable(
                performer_ids=tuple(f"p{i}" for i in range(k)),
                onsets=onsets,
                offsets=onsets + rng.uniform(0.05, 0.5, (n, k)),
                dynamics=np.where(present, rng.integers(1, 128, (n, k)), np.nan),
                pitches=np.where(present, 60, -1).astype(np.int16),
            )
            # the norm covers some positions only, and one the table lacks
            positions = np.flatnonzero(rng.random(n + 1) < 0.6)
            norm = NoteStream(
                "norm", positions, rng.normal(size=len(positions)),
                rng.normal(size=len(positions)), rng.normal(64, 9, len(positions)),
            )
            self.assert_extract_equals_streams(table, norm)

    def test_a_pass_over_some_kinds_gives_the_all_kinds_series(self):
        rng = np.random.default_rng(8)
        n, k = 30, 4
        present = rng.random((n, k)) < 0.7
        present[:, 0] = True  # every position has a present cell
        onsets = np.where(present, np.cumsum(rng.uniform(0.1, 1.0, (n, k)), axis=0), np.nan)
        table = AlignedNoteTable(
            performer_ids=tuple(f"p{i}" for i in range(k)),
            onsets=onsets,
            offsets=onsets + rng.uniform(0.05, 0.5, (n, k)),
            dynamics=np.where(present, rng.integers(1, 128, (n, k)), np.nan),
            pitches=np.where(present, 60, -1).astype(np.int16),
        )
        every = DeviationDataset.from_table(table).by_performer
        for kinds in (("IOI", "DL", "ND"), ("OTD",), ("ND", "OT"), KINDS):
            some = DeviationDataset.from_table(table, kinds).by_performer
            assert list(some) == list(every)
            for pid, by_kind in some.items():
                assert list(by_kind) == list(kinds)
                for kind, got in by_kind.items():
                    want = every[pid][kind]
                    for name in ("values", "positions", "end_positions"):
                        a, b = getattr(got, name), getattr(want, name)
                        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (pid, kind, name)
                    # built without re-checking, each series passes the checks
                    DeviationSeries(kind, pid, got.values, got.positions, got.end_positions)
        with pytest.raises(ValueError, match="unknown feature kind 'XX'"):
            extract_deviations(table, kinds=("OT", "XX"))

    def test_extract_deviations_covers_all_kinds(self, identical_table):
        by_performer = extract_deviations(identical_table)
        assert set(by_performer) == set(identical_table.performer_ids)
        for series in by_performer.values():
            assert set(series) == set(KINDS)
            for kind in PAIR_KINDS:
                assert len(series[kind]) == identical_table.n_positions - 1
