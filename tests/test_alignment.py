import itertools
import logging
import math
import re

import numpy as np
import pytest

from conftest import simple_performance
from pianist_id.alignment import (
    GAP_UNITS,
    SUB_UNITS,
    UNITS_PER_COST,
    AlignedNoteTable,
    NoteAlignment,
    align_pair,
    build_table,
    median_reference,
)
from pianist_id.midi_io import NoteEvent, Performance
from pianist_id.synth import SCORE_PITCH_RANGE, default_profiles, generate_score, render_performer


def pairings(n, m):
    """Every monotone set of pairs of two sequences, as (reference, performance) index tuples."""
    for k in range(min(n, m) + 1):
        for ref_idx in itertools.combinations(range(n), k):
            for perf_idx in itertools.combinations(range(m), k):
                yield ref_idx, perf_idx


def pairing_cost(ref, perf, ref_idx, perf_idx):
    """A pairing's cost in units: its wrong-pitch pairs, and one gap per note left unpaired."""
    wrong = sum(ref[r] != perf[p] for r, p in zip(ref_idx, perf_idx))
    return SUB_UNITS * wrong + GAP_UNITS * (len(ref) + len(perf) - 2 * len(ref_idx))


def brute_force_cost(ref_pitches, perf_pitches):
    """Minimum cost in units over every monotone alignment, by explicit enumeration."""
    n, m = len(ref_pitches), len(perf_pitches)
    return min(pairing_cost(ref_pitches, perf_pitches, *pairing) for pairing in pairings(n, m))


def rule_path(ref, perf):
    """The alignment the tie rule picks, found from the optimal pairings alone.

    Walking back from (n, m), cell (i, j) is entered by a pair if some optimal
    pairing pairs i - 1 with j - 1; else by a deletion if some optimal
    pairing leaves i - 1 unpaired between pairs whose columns allow column j;
    else by an insertion. Returns (pairs, insertions, deletions, cost units).
    """
    n, m = len(ref), len(perf)
    scored = [(pairing_cost(ref, perf, *pairing), pairing) for pairing in pairings(n, m)]
    best = min(cost for cost, _ in scored)
    optimal = [list(zip(*pairing)) for cost, pairing in scored if cost == best]

    def deletes_at(pairs, i, j):
        if any(r == i - 1 for r, _ in pairs):
            return False
        before = max((p for r, p in pairs if r < i - 1), default=-1)
        after = min((p for r, p in pairs if r > i - 1), default=m)
        return before + 1 <= j <= after

    pairs, insertions, deletions = [], [], []
    i, j = n, m
    while i or j:
        if i and j and any((i - 1, j - 1) in chosen for chosen in optimal):
            i, j = i - 1, j - 1
            pairs.append((i, j))
        elif i and any(deletes_at(chosen, i, j) for chosen in optimal):
            i -= 1
            deletions.append(i)
        else:
            assert j, (ref, perf, i, j)
            j -= 1
            insertions.append(j)
    return tuple(reversed(pairs)), tuple(reversed(insertions)), tuple(reversed(deletions)), best


def alignment_from_moves(ref, perf, move_at, cost_units):
    """Trace a DP's moves back from (n, m) into a ``NoteAlignment``.

    ``move_at(i, j)`` is the move that enters cell (i, j): 0 (pair),
    1 (deletion) or 2 (insertion). The traced pairs and the DP's own cost
    are checked against the ones the alignment derives from its script.
    """
    n, m = len(ref), len(perf)
    pairs, insertions, deletions = [], [], []
    i, j = n, m
    while i > 0 or j > 0:
        move = move_at(i, j)
        if move == 0:
            i, j = i - 1, j - 1
            pairs.append((i, j))
        elif move == 1:
            i -= 1
            deletions.append(i)
        else:
            j -= 1
            insertions.append(j)
    pairs.reverse()
    al = NoteAlignment(
        tuple(reversed(insertions)),
        tuple(reversed(deletions)),
        tuple((r, p) for r, p in pairs if ref[r] != perf[p]),
        n,
        m,
    )
    assert al.pairs == tuple(pairs), (ref, perf)
    assert al.total_cost == cost_units / UNITS_PER_COST, (ref, perf)
    return al


def full_matrix_alignment(ref, perf):
    """The unbanded Needleman-Wunsch DP over all (n+1)(m+1) cells, in integer units.

    Same recurrence and tie order as ``align_pair`` (pair, then deletion, then
    insertion); it is the reference the wavefront must reproduce exactly.
    """
    n, m = len(ref), len(perf)
    moves = np.empty((n + 1, m + 1), dtype=np.uint8)
    prev = [0] * (m + 1)
    moves[0, 0] = 0
    for j in range(1, m + 1):
        prev[j] = prev[j - 1] + GAP_UNITS
        moves[0, j] = 2
    for i in range(1, n + 1):
        cur = [0] * (m + 1)
        cur[0] = prev[0] + GAP_UNITS
        moves[i, 0] = 1
        for j in range(1, m + 1):
            diag = prev[j - 1] + (0 if ref[i - 1] == perf[j - 1] else SUB_UNITS)
            up = prev[j] + GAP_UNITS
            left = cur[j - 1] + GAP_UNITS
            if diag <= up and diag <= left:
                cur[j], moves[i, j] = diag, 0
            elif up <= left:
                cur[j], moves[i, j] = up, 1
            else:
                cur[j], moves[i, j] = left, 2
        prev = cur
    return alignment_from_moves(ref, perf, lambda i, j: moves[i, j], prev[m])


def row_by_row_moves(ref, perf, low, high):
    """The DP restricted to diagonals ``low``..``high``, in integer units, stepping
    every row in Python: (moves, cost at (n, m), cells).

    Cell (i, j) sits at slot p = j - i - low of row i; off-band and off-table
    slots hold infinity. ``moves[i * w + p]`` is 0 (pair), 1 (deletion) or
    2 (insertion), with the ties of ``align_pair``.
    """
    n, m = len(ref), len(perf)
    sub, gap = SUB_UNITS, GAP_UNITS
    w = high - low + 1
    moves = bytearray((n + 1) * w)
    # slot w stays infinite; it is read as p + 1 past the top diagonal
    infinite = [math.inf] * (w + 1)
    prev = infinite.copy()
    prev[-low] = 0
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


def banded_alignment(ref, perf, cost_units):
    """``row_by_row_moves`` over every diagonal that a path of at most
    ``cost_units`` can visit, traced back into a ``NoteAlignment``.

    A path through diagonal k moves |k| diagonals from (0, 0) and |m - n - k|
    more to (n, m), each a gap. When ``cost_units`` is at least the optimum,
    every optimal path lies in the band, so the moves are the full DP's.
    """
    n, m = len(ref), len(perf)
    inside = [k for k in range(-n, m + 1) if GAP_UNITS * (abs(k) + abs(m - n - k)) <= cost_units]
    low, high = inside[0], inside[-1]
    moves, cost, _ = row_by_row_moves(ref, perf, low, high)
    w = high - low + 1
    assert cost <= cost_units, (ref, perf, cost_units)
    return alignment_from_moves(ref, perf, lambda i, j: moves[i * w + j - i - low], cost)


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


def align(ref, perf):
    return align_pair(perf_from_pitches(ref, "r"), perf_from_pitches(perf, "p"))


def align_logged(ref, perf, caplog):
    """``align`` with its DEBUG line parsed: (alignment, cost units, fronts, cells)."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="pianist_id.alignment"):
        al = align(ref, perf)
    (message,) = [r.getMessage() for r in caplog.records]
    found = re.search(r" cost=(\d+) units fronts=(\d+) cells=(\d+)$", message)
    assert found, message
    return (al, *map(int, found.groups()))


class TestNoteAlignment:
    def test_pairs_and_cost_are_derived_from_the_script(self):
        al = NoteAlignment((0, 3), (1,), ((2, 2),), 4, 5)
        assert al.pairs == ((0, 1), (2, 2), (3, 4))
        np.testing.assert_array_equal(al.pair_columns, [[0, 2, 3], [1, 2, 4]])
        assert al.pair_columns.dtype == np.intp and not al.pair_columns.flags.writeable
        assert al.total_cost == (SUB_UNITS + 3 * GAP_UNITS) / UNITS_PER_COST == 2.8
        same = NoteAlignment((0, 3), (1,), ((2, 2),), 4, 5)
        assert al == same and hash(al) == hash(same)
        assert al != NoteAlignment((0, 3), (1,), (), 4, 5)
        empty = NoteAlignment((0,), (0,), (), 1, 1)
        assert empty.pairs == () and empty.pair_columns.shape == (2, 0)
        assert empty.total_cost == 1.2
        identity = NoteAlignment((), (), (), 3, 3)
        assert identity.pairs == ((0, 0), (1, 1), (2, 2)) and identity.total_cost == 0.0

    @pytest.mark.parametrize(
        "fields, message",
        [
            (((2, 1), (), (), 3, 5), "insertions must be strictly increasing"),
            (((), (1, 1), (), 4, 2), "deletions must be strictly increasing"),
            (((), (3,), (), 3, 2), "deletions must be strictly increasing indices below 3"),
            (((-1,), (), (), 2, 3), "insertions must be strictly increasing"),
            (((), (), (), 3, 4), "n_reference - len\\(deletions\\) must equal"),
            (((), (), ((5, 7),), 2, 2), "substitutions must be pairs"),  # out of range
            (((1,), (), ((1, 1),), 2, 3), "substitutions must be pairs"),  # an inserted note
            (((), (1,), ((1, 1),), 3, 2), "substitutions must be pairs"),  # a deleted note
            (((), (), ((0, 1),), 2, 2), "substitutions must be pairs"),  # unequal ranks
            (((), (), ((1, 1), (0, 0)), 2, 2), "substitutions must be pairs"),  # out of order
            (((), (), ((1, 1), (1, 1)), 2, 2), "substitutions must be pairs"),  # repeated
        ],
    )
    def test_refuses_a_script_that_is_not_an_alignment(self, fields, message):
        with pytest.raises(ValueError, match=message):
            NoteAlignment(*fields)


class TestAlignPair:
    def test_identity_on_equal_sequences(self):
        a = perf_from_pitches([60, 62, 64, 65], "a")
        b = perf_from_pitches([60, 62, 64, 65], "b")
        al = align_pair(a, b)
        assert al.pairs == ((0, 0), (1, 1), (2, 2), (3, 3))
        assert al.insertions == () and al.deletions == () and al.substitutions == ()
        assert al.total_cost == 0.0

    def test_single_inserted_note_is_an_insertion(self):
        al = align([60, 62, 64, 65, 67], [60, 62, 94, 64, 65, 67])
        assert al.insertions == (2,)
        assert al.pairs == ((0, 0), (1, 1), (2, 3), (3, 4), (4, 5))
        assert al.total_cost == 0.6

    def test_hand_dp_substitution_cheaper_than_gap_pair(self):
        al = align([60, 62, 64], [60, 65, 64])
        assert al.pairs == ((0, 0), (1, 1), (2, 2))
        assert al.substitutions == ((1, 1),)
        assert al.total_cost == 1.0

    def test_total_cost_reads_the_units_exactly(self):
        # one dropped note (62), one wrong pitch (65 for 64), one extra note (90):
        # 3 + 5 + 3 = 11 units
        al = align([60, 62, 64, 67, 69, 71], [60, 65, 67, 90, 69, 71])
        assert (al.deletions, al.substitutions, al.insertions) == ((1,), ((2, 1),), (3,))
        assert al.total_cost == 2.2
        # two dropped notes and one extra: 9 units, where float sums of 0.6 read 1.7999999999999998
        al = align([60, 62, 64, 67, 69, 71, 72], [60, 64, 67, 90, 69, 72])
        assert (al.deletions, al.substitutions, al.insertions) == ((1, 5), (), (3,))
        assert al.total_cost == 1.8

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
            al = align(ref_pitches, perf_pitches)
            assert al.total_cost == brute_force_cost(ref_pitches, perf_pitches) / UNITS_PER_COST

    def test_ties_follow_the_rule_among_the_optimal_pairings(self):
        # every alignment with one pair costs 26 units (5.2); the rule pairs the
        # last reference note, as it pairs note 1 of [60, 61] against [70]
        al = align([3, 4, 2, 1, 4, 4, 3, 1], [0])
        assert al.pairs == ((7, 0),) and al.total_cost == 5.2
        assert align([60, 61], [70]).pairs == ((1, 0),)
        rng = np.random.default_rng(2031)
        checked = 0
        while checked < 2000:
            alphabet = int(rng.integers(1, 5))
            ref = rng.integers(0, alphabet, size=int(rng.integers(1, 8))).tolist()
            perf = rng.integers(0, alphabet, size=int(rng.integers(1, 8))).tolist()
            if ref == perf:
                continue
            al = align(ref, perf)
            pairs, insertions, deletions, cost = rule_path(ref, perf)
            assert (al.pairs, al.insertions, al.deletions) == (pairs, insertions, deletions), (ref, perf)
            assert al.total_cost == cost / UNITS_PER_COST
            checked += 1

    def test_wavefront_equals_the_full_matrix_dp(self):
        rng = np.random.default_rng(7)
        cases = [
            # the last of a run of equal pitches is the one paired
            ([60, 60], [60]),
            # many co-optimal alignments; float costs once let round-off choose among them
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
            assert align(ref, perf) == full_matrix_alignment(ref, perf), (ref, perf)

    def test_wavefront_equals_the_row_by_row_fill(self):
        rng = np.random.default_rng(30)
        for case in range(2000):
            n = int(rng.integers(1, 31 if case % 5 == 0 else 401))
            if case % 8 == 0:  # a trill
                ref = [60, 62] * (n // 2) + [60] * (n % 2)
            elif case % 8 == 1:  # one repeated pitch
                ref = [60] * n
            else:
                ref = rng.integers(40, 40 + int(rng.integers(2, 41)), size=n).tolist()
            perf = list(ref)
            edits = int(rng.integers(0, 7))
            for _ in range(edits):
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
            if perf == ref:
                continue
            # no edit costs more than a substitution, so the edit script bounds the optimum
            expected = banded_alignment(ref, perf, SUB_UNITS * edits)
            assert align(ref, perf) == expected, (ref, perf)

    def test_long_pairs_with_sparse_errors_visit_fewer_cells_than_notes(self, caplog):
        rng = np.random.default_rng(59)
        for _ in range(20):
            n = int(rng.integers(200, 401))
            ref = rng.integers(40, 40 + int(rng.integers(20, 41)), size=n).tolist()
            perf = ref
            while perf == ref:
                perf = edited(rng, ref, int(rng.integers(1, 5)))
            al, cost, fronts, cells = align_logged(ref, perf, caplog)
            assert al == full_matrix_alignment(ref, perf), (ref, perf)
            assert cost == round(al.total_cost * UNITS_PER_COST) and fronts == cost + 1
            assert cells < n, (cost, cells)

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
        script_units = SUB_UNITS * counts["substitutions"] + GAP_UNITS * (
            counts["deletions"] + counts["insertions"]
        )
        assert al.total_cost == script_units / UNITS_PER_COST

    @pytest.mark.parametrize("errors", ["wrong pitches", "dropped notes"])
    def test_cells_grow_with_the_errors_not_with_the_notes(self, errors, caplog):
        visited = []
        for n in (400, 4000):
            pitches = generate_score(n, seed=5).pitches.tolist()
            for i in range(10, 400, 40):
                if errors == "wrong pitches":
                    # a pitch the score never plays, so the error is a substitution
                    pitches[i] = SCORE_PITCH_RANGE[1] + 1
                else:
                    pitches[i] = None
            ref = generate_score(n, seed=5).pitches.tolist()
            al, cost, fronts, cells = align_logged(ref, [p for p in pitches if p is not None], caplog)
            assert al.total_cost == (2.0 if errors == "wrong pitches" else 1.2) * 5
            visited.append(cells)
        # ten errors cost 50 or 30 units, and ten times the notes visit the same
        # cells: fewer than a quarter of the long pair's notes
        assert visited[0] == visited[1] < 1000, visited

    def test_unrelated_pairs_trills_and_blocks_of_extra_notes_equal_the_full_matrix_dp(self):
        rng = np.random.default_rng(300)
        cases = [
            (rng.integers(36, 97, size=n).tolist(), rng.integers(36, 97, size=m).tolist())
            for n, m in ((40, 55), (120, 90), (300, 300))
        ]
        trill = [60, 62] * 150
        cases.append((trill, edited(rng, trill, 12)))
        cases.append((trill, trill[1:] + [60]))
        score = rng.integers(36, 97, size=300).tolist()
        cases.append((score, score[:150] + rng.integers(36, 97, size=200).tolist() + score[150:]))
        for ref, perf in cases:
            assert align(ref, perf) == full_matrix_alignment(ref, perf), (len(ref), len(perf))


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
