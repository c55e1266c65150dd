import itertools
import logging
import math
import re

import numpy as np
import pytest

from conftest import simple_performance
from pianist_id.alignment import (
    COST_GAP,
    COST_SUB,
    AlignedNoteTable,
    NoteAlignment,
    _banded_moves,
    _lower_bound,
    align_pair,
    build_table,
    median_reference,
)
from pianist_id.midi_io import NoteEvent, Performance
from pianist_id.synth import SCORE_PITCH_RANGE, default_profiles, generate_score, render_performer


def brute_force_cost(ref_pitches, perf_pitches):
    """Minimum cost over every monotone alignment, by explicit enumeration."""
    n, m = len(ref_pitches), len(perf_pitches)
    best = COST_GAP * n + COST_GAP * m
    for k in range(1, min(n, m) + 1):
        gap_cost = COST_GAP * (n - k) + COST_GAP * (m - k)
        for ref_idx in itertools.combinations(range(n), k):
            for perf_idx in itertools.combinations(range(m), k):
                pair_cost = sum(
                    0.0 if ref_pitches[r] == perf_pitches[p] else COST_SUB
                    for r, p in zip(ref_idx, perf_idx)
                )
                best = min(best, pair_cost + gap_cost)
    return best


def full_matrix_alignment(ref, perf):
    """The unbanded Needleman-Wunsch DP over all (n+1)(m+1) cells, with its traceback.

    Same recurrence and tie order as ``align_pair`` (pair, then deletion, then
    insertion); it is the reference the banded DP must reproduce exactly.
    """
    n, m = len(ref), len(perf)
    moves = np.empty((n + 1, m + 1), dtype=np.uint8)
    prev = [0.0] * (m + 1)
    moves[0, 0] = 0
    for j in range(1, m + 1):
        prev[j] = prev[j - 1] + COST_GAP
        moves[0, j] = 2
    for i in range(1, n + 1):
        cur = [0.0] * (m + 1)
        cur[0] = prev[0] + COST_GAP
        moves[i, 0] = 1
        for j in range(1, m + 1):
            diag = prev[j - 1] + (0.0 if ref[i - 1] == perf[j - 1] else COST_SUB)
            up = prev[j] + COST_GAP
            left = cur[j - 1] + COST_GAP
            if diag <= up and diag <= left:
                cur[j], moves[i, j] = diag, 0
            elif up <= left:
                cur[j], moves[i, j] = up, 1
            else:
                cur[j], moves[i, j] = left, 2
        prev = cur
    pairs, insertions, deletions = [], [], []
    i, j = n, m
    while i > 0 or j > 0:
        if moves[i, j] == 0:
            i, j = i - 1, j - 1
            pairs.append((i, j))
        elif moves[i, j] == 1:
            i -= 1
            deletions.append(i)
        else:
            j -= 1
            insertions.append(j)
    pairs.reverse()
    return NoteAlignment(
        np.array(pairs, dtype=np.intp).reshape(-1, 2).T,
        tuple(reversed(insertions)),
        tuple(reversed(deletions)),
        tuple((r, p) for r, p in pairs if ref[r] != perf[p]),
        n,
        m,
        prev[m],
    )


def row_by_row_moves(ref, perf, low, high):
    """The banded DP stepping every row in Python: (moves, cost at (n, m), cells).

    ``_banded_moves`` jumps over runs of rows that repeat a settled row; this
    is its row loop without the jumps, the bit-for-bit reference for them.
    """
    n, m = len(ref), len(perf)
    sub, gap = COST_SUB, COST_GAP
    w = high - low + 1
    moves = bytearray((n + 1) * w)
    # slot w stays infinite; it is read as p + 1 past the top diagonal
    infinite = [math.inf] * (w + 1)
    prev = infinite.copy()
    prev[-low] = 0.0
    for p in range(1 - low, min(w, m - low + 1)):
        prev[p] = prev[p - 1] + gap
        moves[p] = 2
    # perf_at[j] is the pitch paired at column j; column 0 has none
    perf_at = [-1] + perf
    cells = 0
    base = low  # column of slot 0 in the current row
    row = 0
    for rp in ref:
        base += 1
        row += w
        cur = infinite.copy()
        # the row's slots are clamped to columns 0..m only where it meets the table edge
        p = -base if base < 0 else 0
        stop = m - base + 1
        if stop > w:
            stop = w
        cells += stop - p
        value = math.inf  # the cell to the left, slot p - 1; off-band or column -1 at first
        for pitch in perf_at[base + p : base + stop]:
            # a match adds 0.0, which leaves every cost here unchanged
            diag = prev[p] if rp == pitch else prev[p] + sub
            up = prev[p + 1] + gap
            left = value + gap
            if diag <= up and diag <= left:
                value = diag
            elif up <= left:
                value = up
                moves[row + p] = 1
            else:
                value = left
                moves[row + p] = 2
            cur[p] = value
            p += 1
        prev = cur
    return moves, prev[m - n - low], cells


def edited(rng, pitches, edits=None):
    """A copy with ``edits`` (default: up to three) random wrong, dropped or extra notes."""
    out = list(pitches)
    if edits is None:
        edits = int(rng.integers(0, 4))
    for _ in range(edits):
        kind = int(rng.integers(3))
        if kind == 0:
            out[int(rng.integers(len(out)))] = int(rng.integers(60, 66))
        elif kind == 1 and len(out) > 1:
            del out[int(rng.integers(len(out)))]
        else:
            out.insert(int(rng.integers(len(out) + 1)), int(rng.integers(60, 66)))
    return out


def perf_from_pitches(pitches, performer_id="p"):
    return simple_performance(
        [0.5 * i for i in range(len(pitches))], pitches, performer_id=performer_id
    )


class TestNoteAlignment:
    def test_pairs_are_a_tuple_view_of_the_index_columns(self):
        given = np.array([[0, 2, 3], [1, 2, 4]])
        al = NoteAlignment(given, (0, 3), (1,), ((2, 2),), 4, 5, 2.2)
        given[0, 0] = 1  # the alignment keeps its own read-only copy
        assert al.pairs == ((0, 1), (2, 2), (3, 4))
        assert al.pair_columns.dtype == np.intp and not al.pair_columns.flags.writeable
        same = NoteAlignment([[0, 2, 3], [1, 2, 4]], (0, 3), (1,), ((2, 2),), 4, 5, 2.2)
        assert al == same and hash(al) == hash(same)
        assert al != NoteAlignment([[0, 2, 3], [1, 2, 4]], (0, 3), (1,), (), 4, 5, 2.2)
        empty = NoteAlignment(np.empty((2, 0), dtype=int), (0,), (0,), (), 1, 1, 1.2)
        assert empty.pairs == () and empty.pair_columns.shape == (2, 0)

    def test_rejects_columns_that_are_not_a_partition(self):
        cases = [
            ((np.array([[0, 1], [1, 2], [2, 3]]), (), (), 3, 4), "two index columns"),  # pairs as rows
            ((np.array([[0, 0], [1, 2]]), (1, 2), (), 3, 3), "strictly increasing"),
            ((np.array([[0, 2], [0, 1]]), (2,), (), 3, 3), "deletions must partition"),  # a gap
            ((np.array([[0, 2], [0, 1]]), (2,), (1, 1), 3, 4), "deletions must partition"),  # a duplicate
            ((np.array([[0, 1], [0, 1]]), (1,), (), 2, 3), "insertions must partition"),
        ]
        for (columns, insertions, deletions, n, m), message in cases:
            with pytest.raises(ValueError, match=message):
                NoteAlignment(columns, insertions, deletions, (), n, m, 0.0)


class TestAlignPair:
    def test_identity_on_equal_sequences(self):
        a = perf_from_pitches([60, 62, 64, 65], "a")
        b = perf_from_pitches([60, 62, 64, 65], "b")
        al = align_pair(a, b)
        assert al.pairs == ((0, 0), (1, 1), (2, 2), (3, 3))
        assert al.insertions == () and al.deletions == () and al.substitutions == ()
        assert al.total_cost == 0.0

    def test_single_inserted_note_is_an_insertion(self):
        ref = perf_from_pitches([60, 62, 64, 65, 67], "r")
        perf = perf_from_pitches([60, 62, 94, 64, 65, 67], "p")
        al = align_pair(ref, perf)
        assert al.insertions == (2,)
        assert al.pairs == ((0, 0), (1, 1), (2, 3), (3, 4), (4, 5))
        assert al.total_cost == pytest.approx(0.6)

    def test_hand_dp_substitution_cheaper_than_gap_pair(self):
        ref = perf_from_pitches([60, 62, 64], "r")
        perf = perf_from_pitches([60, 65, 64], "p")
        al = align_pair(ref, perf)
        assert al.pairs == ((0, 0), (1, 1), (2, 2))
        assert al.substitutions == ((1, 1),)
        assert al.total_cost == pytest.approx(1.0)

    def test_empty_performance_rejected(self):
        full = perf_from_pitches([60], "a")
        empty = Performance("b", "x", ())
        with pytest.raises(ValueError):
            align_pair(full, empty)

    def test_matches_brute_force_on_seeded_corpus(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            ref_pitches = [int(p) for p in rng.integers(60, 64, size=n)]
            perf_pitches = [int(p) for p in rng.integers(60, 64, size=m)]
            al = align_pair(perf_from_pitches(ref_pitches, "r"), perf_from_pitches(perf_pitches, "p"))
            expected = brute_force_cost(ref_pitches, perf_pitches)
            assert al.total_cost == pytest.approx(expected, abs=1e-9)

    def test_lower_bound_never_exceeds_the_optimum(self):
        rng = np.random.default_rng(11)
        exact = 0
        for _ in range(1200):
            ref = [int(p) for p in rng.integers(60, 64, size=int(rng.integers(1, 8)))]
            if rng.random() < 0.5:
                perf = edited(rng, ref, int(rng.integers(1, 4)))
            else:
                perf = [int(p) for p in rng.integers(60, 64, size=int(rng.integers(1, 8)))]
            bound = _lower_bound(ref, perf)
            optimum = brute_force_cost(ref, perf)
            assert bound <= optimum + 1e-12, (ref, perf)
            exact += bound == pytest.approx(optimum)
        # and it is no trivial bound
        assert exact > 400

    def test_banded_dp_equals_the_full_matrix_dp(self):
        rng = np.random.default_rng(7)
        cases = [
            # the last of a run of equal pitches is the one paired
            ([60, 60], [60]),
            # co-optimal alignments whose float costs differ in the last bit: a
            # band grown only until the threshold equals the banded optimum, with
            # no round-off margin, traces a different one
            (
                [62, 60, 62, 61, 61, 61, 62, 60, 61, 62],
                [61, 62, 61, 62, 60, 60, 61, 60, 62, 61, 60, 61, 60, 60, 61, 61, 62, 61, 60, 62],
            ),
        ]
        for _ in range(600):
            alphabet = int(rng.integers(2, 6))
            ref = [int(p) for p in rng.integers(60, 60 + alphabet, size=int(rng.integers(1, 41)))]
            if rng.random() < 0.5:
                perf = edited(rng, ref)
            else:
                perf = [int(p) for p in rng.integers(60, 60 + alphabet, size=int(rng.integers(1, 41)))]
            cases.append((ref, perf))
        # edit scripts: a reference and 1-5 wrong, dropped or extra notes
        for _ in range(400):
            ref = [int(p) for p in rng.integers(60, 66, size=int(rng.integers(2, 61)))]
            cases.append((ref, edited(rng, ref, int(rng.integers(1, 6)))))
        for ref, perf in cases:
            if ref == perf:
                continue
            al = align_pair(perf_from_pitches(ref, "r"), perf_from_pitches(perf, "p"))
            assert al == full_matrix_alignment(ref, perf), (ref, perf)

    def test_banded_moves_equal_the_row_by_row_fill(self):
        rng = np.random.default_rng(30)
        rows = stepped = 0
        for case in range(2000):
            n = int(rng.integers(1, 31 if case % 5 == 0 else 401))
            if case % 8 == 0:  # a trill
                ref = [60, 62] * (n // 2) + [60] * (n % 2)
            elif case % 8 == 1:  # one repeated pitch
                ref = [60] * n
            else:
                ref = rng.integers(40, 40 + int(rng.integers(2, 41)), size=n).tolist()
            perf = list(ref)
            for _ in range(int(rng.integers(0, 7))):
                # anywhere, or among the first or the last few rows
                at = int(rng.choice([rng.integers(len(perf) + 1), rng.integers(3), len(perf) - rng.integers(3)]))
                at = min(max(at, 0), len(perf) - 1)
                kind = int(rng.integers(3))
                if kind == 0:
                    perf[at] = int(rng.integers(40, 82))
                elif kind == 1 and len(perf) > 1:
                    del perf[at]
                else:
                    perf.insert(at, int(rng.integers(40, 82)))
            m = len(perf)
            # m != n widens the band; a short pair's band is often clipped by the table edges
            low = max(-n, min(0, m - n) - int(rng.integers(0, 13)))
            high = min(m, max(0, m - n) + int(rng.integers(0, 13)))
            moves, cost, cells, case_stepped = _banded_moves(np.array(ref), np.array(perf), low, high)
            assert (moves, cost, cells) == row_by_row_moves(ref, perf, low, high), (ref, perf, low, high)
            rows += n
            stepped += case_stepped
        # the runs are jumped over, most rows are not stepped
        assert stepped < rows / 2

    def test_long_pairs_with_sparse_errors_equal_the_full_matrix_dp_in_few_steps(self, caplog):
        rng = np.random.default_rng(59)
        for _ in range(20):
            n = int(rng.integers(200, 401))
            ref = rng.integers(40, 40 + int(rng.integers(20, 41)), size=n).tolist()
            perf = ref
            while perf == ref:
                perf = edited(rng, ref, int(rng.integers(1, 5)))
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="pianist_id.alignment"):
                al = align_pair(perf_from_pitches(ref, "r"), perf_from_pitches(perf, "p"))
            assert al == full_matrix_alignment(ref, perf), (ref, perf)
            (message,) = [r.getMessage() for r in caplog.records]
            passes, rows = map(int, re.search(r" passes=(\d+) .* rows=(\d+)$", message).groups())
            assert rows < n * passes, message

    def test_injected_errors_come_back_at_scale(self):
        score = generate_score(2000, seed=3)
        notes = list(render_performer(score, default_profiles(2, base_seed=3)[0], "p").notes)
        onsets = [note.onset for note in notes]
        # a note alone at its onset keeps its place when its pitch changes
        lone = [i for i in range(1, len(notes) - 1) if onsets[i - 1] < onsets[i] < onsets[i + 1]]
        chosen: list[int] = []
        for i in np.random.default_rng(3).permutation(lone).tolist():
            if all(abs(i - c) >= 8 for c in chosen):
                chosen.append(i)
            if len(chosen) == 20:
                break
        wrong, extra = SCORE_PITCH_RANGE[0] - 1, SCORE_PITCH_RANGE[1] + 1
        counts = {"substitutions": 0, "deletions": 0, "insertions": 0}
        # apply from the back so earlier indices stay valid
        for k, i in enumerate(sorted(chosen, reverse=True)):
            note = notes[i]
            if k % 3 == 0:
                notes[i] = NoteEvent(note.onset, note.offset, wrong, note.dynamic)
                counts["substitutions"] += 1
            elif k % 3 == 1:
                del notes[i]
                counts["deletions"] += 1
            else:
                onset = 0.5 * (note.onset + notes[i + 1].onset)
                notes.insert(i + 1, NoteEvent(onset, onset + 0.01, extra, 64))
                counts["insertions"] += 1
        al = align_pair(score, Performance("p", "x", tuple(notes)))
        assert len(al.substitutions) == counts["substitutions"]
        assert len(al.deletions) == counts["deletions"]
        assert len(al.insertions) == counts["insertions"]
        script_cost = (
            counts["substitutions"] * COST_SUB
            + counts["deletions"] * COST_GAP
            + counts["insertions"] * COST_GAP
        )
        assert al.total_cost <= script_cost + 1e-9

    @pytest.mark.parametrize("errors", ["wrong pitches", "dropped notes"])
    def test_an_exact_lower_bound_takes_one_pass(self, errors, caplog):
        score = generate_score(400, seed=5)
        pitches = score.pitches.tolist()
        for i in range(10, 400, 40):
            if errors == "wrong pitches":
                # a pitch the score never plays, so no error undoes another in the multisets
                pitches[i] = SCORE_PITCH_RANGE[1] + 1
            else:
                pitches[i] = None
        performance = perf_from_pitches([p for p in pitches if p is not None])
        with caplog.at_level(logging.DEBUG, logger="pianist_id.alignment"):
            al = align_pair(score, performance)
        assert al.total_cost == pytest.approx(10 * (1.0 if errors == "wrong pitches" else 0.6))
        (message,) = [r.getMessage() for r in caplog.records]
        assert " passes=1 " in message, message



class TestBuildTable:
    def test_identical_performances_fill_every_cell(self, identical_trio):
        table, report = build_table(identical_trio)
        assert table.n_positions == 5
        assert table.present_mask().all()
        assert report.dropped_positions == ()
        for stats in report.per_performer.values():
            assert stats["pairs"] == 5
            assert stats["insertions"] == stats["deletions"] == 0

    def test_missing_note_keeps_position_at_sufficient_coverage(self):
        pitches = [60, 62, 64, 65]
        full = [perf_from_pitches(pitches, f"p{i}") for i in range(1, 3)]
        missing = simple_performance([0.0, 0.5, 1.5], [60, 62, 65], performer_id="p3")
        table, report = build_table(full + [missing], reference=full[0])
        assert table.n_positions == 4
        assert report.dropped_positions == ()
        present = table.present_mask()
        assert not present[2, 2] and present[:, :2].all()

    def test_low_coverage_positions_dropped_and_reported(self):
        ref = perf_from_pitches([60, 62, 64], "p1")
        short = simple_performance([0.0, 1.0], [60, 64], performer_id="p2")
        table, report = build_table([ref, short], reference=ref)
        assert table.n_positions == 2
        assert report.dropped_positions == (1,)

    def test_cells_equal_a_per_note_fill_of_the_alignment_pairs(self):
        score = generate_score(300, seed=5)
        rng = np.random.default_rng(5)
        performances = []
        for i, profile in enumerate(default_profiles(3, base_seed=5)):
            notes = list(render_performer(score, profile, f"p{i}").notes)
            # drop notes and change pitches, so pairs skip positions and some
            # positions fall below coverage 2
            for j in sorted(rng.choice(100, 25, replace=False).tolist(), reverse=True):
                note = notes[j]
                if j % 2:
                    del notes[j]
                else:
                    notes[j] = NoteEvent(note.onset, note.offset, 20 + j % 7, note.dynamic)
            performances.append(Performance(f"p{i}", "x", tuple(notes)))
        table, report = build_table(performances, reference=score)

        shape = (len(score), len(performances))
        expected = {name: np.full(shape, np.nan) for name in ("onsets", "offsets", "dynamics")}
        expected["pitches"] = np.full(shape, -1, dtype=np.int16)
        for col, perf in enumerate(performances):
            for r, p in align_pair(score, perf).pairs:
                note = perf.notes[p]
                expected["onsets"][r, col] = note.onset
                expected["offsets"][r, col] = note.offset
                expected["dynamics"][r, col] = note.dynamic
                expected["pitches"][r, col] = note.pitch
        keep = np.setdiff1d(np.arange(len(score)), report.dropped_positions)
        assert report.dropped_positions
        for name, cells in expected.items():
            got = getattr(table, name)
            assert got.dtype == cells.dtype
            assert np.array_equal(got, cells[keep], equal_nan=True), name

    def test_needs_two_performances(self):
        with pytest.raises(ValueError):
            build_table([perf_from_pitches([60], "a")])

    def test_median_reference_picks_middle_note_count(self):
        perfs = [
            perf_from_pitches([60] * n, f"p{n}") for n in (3, 5, 9)
        ]
        assert median_reference(perfs).performer_id == "p5"

    def test_column_monotonicity_enforced(self):
        def table(column_b):
            onsets = np.column_stack([[0.0, 1.0, 2.0], column_b])
            return AlignedNoteTable(
                performer_ids=("a", "b"),
                onsets=onsets,
                offsets=onsets + 0.1,
                dynamics=np.full((3, 2), 64.0),
                pitches=np.full((3, 2), 60, dtype=np.int16),
            )

        for column_b in ([0.0, 0.5, 0.25], [1.0, np.nan, 0.5]):
            with pytest.raises(ValueError, match="column b onsets decrease with position"):
                table(column_b)
        # the check runs over the present cells only
        assert table([0.0, np.nan, 1.0]).present_mask()[:, 1].tolist() == [True, False, True]
