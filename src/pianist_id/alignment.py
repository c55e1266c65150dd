"""Note-to-note alignment of performances against a reference.

A global dynamic program over pitch sequences (Needleman-Wunsch style,
minimizing cost) yields matched pairs plus inserted/deleted notes; wrong-pitch
matches are kept as pairs but flagged as substitutions, which is how
performance errors are marked. Aligning every performance to one reference
produces the position-by-performer note table the norm performance is
averaged from.

Costs are integers, in units of 0.2: a pitch match is free, a substitution
costs ``SUB_UNITS`` (5) and an insertion or a deletion ``GAP_UNITS`` (3).
``total_cost`` is the cost of the alignment's edit script, read as units /
5, so 9 units read exactly 1.8; the backtrace's script costs the optimum.
With integer sums, ties between optimal alignments are decided by the rule
alone, never by round-off: at each cell the backtrace prefers a pair, then a
deletion, then an insertion, as the full-matrix DP does.

The DP is solved by the diagonal-transition (wavefront) method of Ukkonen
1985 and Myers 1986, as Marco-Sola et al. 2021 use it for gap-affine costs.
Front s holds, for every diagonal k = j - i, the furthest row i whose cell
costs at most s. It comes from fronts s - 5 (a substitution on k), s - 3 (an
insertion from k - 1, a deletion from k + 1) and s - 1, and each point then
slides along its run of matches. The search stops at the first front whose
diagonal m - n reaches row n; that s is the optimum S. Each front is a
numpy array over its diagonals, in the smallest integer dtype that holds
every index. A diagonal that cannot finish within the cost of pairing
note i with note i (s plus one gap per diagonal between k and m - n) is
dropped.

Work follows the errors, not the length: front s spans at most 2 s / 3 + 1
diagonals, so a pair costing S units visits about S**2 / 3 cells, plus one
step per matched note. Unrelated sequences cost about 5 units per note, and
there the cells grow as the square of the notes.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .midi_io import Performance

log = logging.getLogger(__name__)

#: Table positions matched by fewer performers than this are dropped.
MIN_COVERAGE = 2

#: DP costs in integer units of 0.2: a wrong-pitch pair, and an inserted or a
#: deleted note. A wrong-pitch note is marked as a substitution pair, since
#: 5 < 3 + 3.
SUB_UNITS = 5
GAP_UNITS = 3
UNITS_PER_COST = 5
#: The same costs as ``total_cost`` reads them: 1.0 and 0.6.
COST_SUB = SUB_UNITS / UNITS_PER_COST
COST_GAP = GAP_UNITS / UNITS_PER_COST

#: A front slot that holds no row: it loses every maximum, even plus one.
_NO_ROW = -2
#: How many fronts s < 0 the search keeps: the sources that fronts 0..5 read.
_BEFORE = SUB_UNITS + 1


@dataclass(frozen=True)
class NoteAlignment:
    """Monotone correspondence between reference and performance note indices,
    held as its edit script.

    ``deletions`` (reference) and ``insertions`` (performance) are the
    unpaired indices, strictly increasing; every other note is paired, in
    order, with the note of the same rank on the other side. ``substitutions``
    are the pairs whose pitches differ (the marked errors), in order. Derived
    on each access: ``pair_columns``, a read-only (2, k) index array,
    reference then performance; ``pairs``, a tuple view of it; and
    ``total_cost``, the script's cost.
    """

    insertions: tuple[int, ...]
    deletions: tuple[int, ...]
    substitutions: tuple[tuple[int, int], ...]
    n_reference: int
    n_performance: int

    def __post_init__(self):
        for name, gaps, n in (("insertions", self.insertions, self.n_performance),
                              ("deletions", self.deletions, self.n_reference)):
            if not all(a < b for a, b in zip((-1, *gaps), (*gaps, n))):
                raise ValueError(f"{name} must be strictly increasing indices below {n}")
        if self.n_reference - len(self.deletions) != self.n_performance - len(self.insertions):
            raise ValueError("n_reference - len(deletions) must equal n_performance - len(insertions)")
        last = -1
        for r, q in self.substitutions:
            i, j = bisect_left(self.deletions, r), bisect_left(self.insertions, q)
            if not last < r < self.n_reference or r - i != q - j or (
                r in self.deletions[i : i + 1] or q in self.insertions[j : j + 1]
            ):
                raise ValueError("substitutions must be pairs, by strictly increasing reference index")
            last = r

    @property
    def pair_columns(self) -> np.ndarray:
        """Every note not deleted or inserted, paired in order: a read-only
        (2, k) ``intp`` array, reference then performance."""
        rows, cols = np.ones(self.n_reference, dtype=bool), np.ones(self.n_performance, dtype=bool)
        rows[list(self.deletions)] = False
        cols[list(self.insertions)] = False
        columns = np.stack((np.flatnonzero(rows), np.flatnonzero(cols)))
        columns.setflags(write=False)
        return columns

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The matched (reference, performance) index pairs, in order."""
        return tuple(zip(*self.pair_columns.tolist()))

    @property
    def total_cost(self) -> float:
        """The script's cost: ``SUB_UNITS`` per substitution and ``GAP_UNITS``
        per gap, read as units / ``UNITS_PER_COST``."""
        gaps = len(self.insertions) + len(self.deletions)
        return (SUB_UNITS * len(self.substitutions) + GAP_UNITS * gaps) / UNITS_PER_COST


def _run(a: bytes, b: bytes, i: int, j: int) -> int:
    """How many pitches match from ``a[i]`` and ``b[j]`` on: the length
    doubles while the slices stay equal, then halves onto the first miss."""
    most = min(len(a) - i, len(b) - j)
    low, high = 0, 1  # low pitches are known to match; high is the next length to try
    while high <= most and a[i : i + high] == b[j : j + high]:
        low, high = high, 2 * high
    high = min(high, most + 1)
    while high - low > 1:
        mid = (low + high) // 2
        if a[i : i + mid] == b[j : j + mid]:
            low = mid
        else:
            high = mid
    return low


def _fronts(ref: bytes, perf: bytes):
    """The wavefront search over two pitch sequences (one byte per pitch);
    returns (fronts, optimum in units, cells).

    ``fronts[s + _BEFORE]`` is (lo, rows): ``rows[k - lo + 2]`` is the furthest row
    whose cell on diagonal k costs at most s units, and two ``_NO_ROW`` slots
    pad each end, so a neighbour's slot is always in the array. A front that
    no new move can change is the previous front itself. Fronts s < 0 reach
    no row.
    """
    n, m = len(ref), len(perf)
    # rows run from _NO_ROW to n + 1 (a move past the end, before the clamp)
    dtype = np.min_scalar_type(-(max(n, m) + 2))
    k = np.arange(-n, m + 1)
    diagonals = k.astype(dtype)
    ends = np.minimum(n, m - k).astype(dtype)  # the last row of each diagonal
    # one pitch of its own past each end, so a probe there misses
    ref_at, perf_at = np.frombuffer(ref + b"\xfe", np.uint8), np.frombuffer(perf + b"\xff", np.uint8)
    d = m - n
    # pairing note i with note i, then gaps, bounds the optimum from above
    bound = SUB_UNITS * min(n, m) + GAP_UNITS * abs(d)
    blank = np.full(n + m + 5, _NO_ROW, dtype=dtype)  # no front is wider
    fronts = [(0, blank[:5])] * _BEFORE
    start = (0, np.array([_NO_ROW, _NO_ROW, 0, _NO_ROW, _NO_ROW], dtype=dtype))
    cells = 0
    for s in range(bound + 1):
        at = s + _BEFORE
        # a cost that no sum of substitutions and gaps makes (1, 2, 4, 7) adds no row
        if s and fronts[at - GAP_UNITS] is fronts[at - GAP_UNITS - 1] and (
            fronts[at - SUB_UNITS] is fronts[at - SUB_UNITS - 1]
        ):
            fronts.append(fronts[-1])
            continue
        slack = (bound - s) // GAP_UNITS
        lo = max(-n, -(s // GAP_UNITS), d - slack)
        hi = min(m, s // GAP_UNITS, d + slack)
        w = hi - lo + 1
        rows = blank[: w + 4].copy()
        core = rows[2:-2]
        (lo5, sub), (lo3, gap) = fronts[at - SUB_UNITS], fronts[at - GAP_UNITS]
        lo1, prev = fronts[-1] if s else start
        # a substitution on k or a deletion from k + 1 moves one row down
        np.maximum(sub[lo - lo5 + 2 : hi - lo5 + 3], gap[lo - lo3 + 3 : hi - lo3 + 4], out=core)
        core += 1
        # an insertion from k - 1 stays on its row; the previous front's rows cost less
        np.maximum(core, gap[lo - lo3 + 1 : hi - lo3 + 2], out=core)
        np.maximum(core, prev[lo - lo1 + 2 : hi - lo1 + 3], out=core)
        np.minimum(core, ends[lo + n : hi + n + 1], out=core)
        # slide each point that stands on a match along its run
        columns = core + diagonals[lo + n : hi + n + 1]
        for slot in (ref_at.take(core) == perf_at.take(columns)).nonzero()[0].tolist():
            core[slot] += _run(ref, perf, int(core[slot]), int(columns[slot]))
        cells += w
        fronts.append((lo, rows))
        if lo <= d <= hi and core[d - lo] == n:
            return fronts, s, cells
    raise AssertionError("the wavefront passed the cost of a complete alignment")


def align_pair(reference: Performance, performance: Performance) -> NoteAlignment:
    """Globally optimal monotone alignment of the two pitch sequences.

    A pitch match is free, a wrong-pitch pair costs ``SUB_UNITS`` (5) and an
    inserted or a deleted note ``GAP_UNITS`` (3), in units of 0.2. Ties
    prefer pairing over deletion over insertion, which makes the result
    deterministic. Identical pitch sequences (``np.array_equal`` on the pitch
    columns) short-circuit to the identity mapping (cost 0, which is the DP
    optimum).

    The backtrace needs no move matrix. D, the cost of a cell, never falls
    along a diagonal, so D(i, j) <= t exactly when front t reaches row i on
    diagonal j - i. From (n, m) with t = S it jumps back over the run of
    matches it stands on, which the DP pairs and along which D stays t. At
    the mismatch before it, it takes the DP's move: a pair if front t - 5
    reaches the cell up-left, else a deletion if front t - 3 reaches the
    cell above, else an insertion. The moves are those of the integer
    full-matrix DP.
    """
    if not len(reference) or not len(performance):
        raise ValueError("alignment requires non-empty performances")
    ref_pitches, perf_pitches = reference.pitches, performance.pitches
    n, m = len(ref_pitches), len(perf_pitches)
    if np.array_equal(ref_pitches, perf_pitches):
        return NoteAlignment((), (), (), n, m)

    # pitches are 0..127, so one byte each
    ref, perf = ref_pitches.astype(np.uint8).tobytes(), perf_pitches.astype(np.uint8).tobytes()
    fronts, optimum, cells = _fronts(ref, perf)
    log.debug(
        "aligned %s (%d notes) to %s (%d notes): cost=%d units fronts=%d cells=%d",
        performance.performer_id, m, reference.performer_id, n, optimum, optimum + 1, cells,
    )

    def reaches(t: int, k: int) -> int:
        """The furthest row of diagonal k at cost <= t, or ``_NO_ROW``."""
        lo, rows = fronts[t + _BEFORE]
        slot = k - lo + 2
        return int(rows[slot]) if 0 <= slot < len(rows) else _NO_ROW

    # a run of matches that ends at cell (i, j) starts at n - i, m - j of the reversed pitches
    ref_back, perf_back = ref[::-1], perf[::-1]
    substitutions, deletions, insertions = [], [], []
    i, j, t = n, m, optimum
    while True:
        run = _run(ref_back, perf_back, n - i, m - j)
        i, j = i - run, j - run
        if not (i or j):
            break
        k = j - i
        if i and j and reaches(t - SUB_UNITS, k) >= i - 1:
            i, j, t = i - 1, j - 1, t - SUB_UNITS
            substitutions.append((i, j))
        elif i and reaches(t - GAP_UNITS, k + 1) >= i - 1:
            i, t = i - 1, t - GAP_UNITS
            deletions.append(i)
        else:
            j, t = j - 1, t - GAP_UNITS
            insertions.append(j)
    return NoteAlignment(
        tuple(reversed(insertions)), tuple(reversed(deletions)), tuple(reversed(substitutions)), n, m
    )


@dataclass(frozen=True)
class AlignedNoteTable:
    """Dense position-by-performer note table of one piece; NaN/-1 mark
    missing cells."""

    performer_ids: tuple[str, ...]
    onsets: np.ndarray
    offsets: np.ndarray
    dynamics: np.ndarray
    pitches: np.ndarray

    def __post_init__(self):
        n, k = self.onsets.shape
        if len(self.performer_ids) != k:
            raise ValueError("performer_ids must match table width")
        for name in ("offsets", "dynamics", "pitches"):
            if getattr(self, name).shape != (n, k):
                raise ValueError(f"{name} shape mismatch")
        present = ~np.isnan(self.onsets)
        for col in range(k):
            if np.any(np.diff(self.onsets[present[:, col], col]) < 0):
                raise ValueError(
                    f"column {self.performer_ids[col]} onsets decrease with position"
                )

    @property
    def n_positions(self) -> int:
        return self.onsets.shape[0]

    def present_mask(self) -> np.ndarray:
        return ~np.isnan(self.onsets)

    def coverage(self) -> np.ndarray:
        return self.present_mask().sum(axis=1)


@dataclass(frozen=True)
class TableReport:
    """Alignment bookkeeping for diagnostics and the JSON report."""

    reference_id: str
    n_positions: int
    per_performer: dict[str, dict[str, int]]
    dropped_positions: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "reference": self.reference_id,
            "n_positions": self.n_positions,
            "per_performer": {k: dict(v) for k, v in sorted(self.per_performer.items())},
            "dropped_positions": list(self.dropped_positions),
        }


def median_reference(performances: list[Performance]) -> Performance:
    """The performance with median note count (ties broken by performer_id)."""
    ordered = sorted(performances, key=lambda p: (len(p), p.performer_id))
    return ordered[len(ordered) // 2]


def build_table(
    performances: list[Performance],
    *,
    reference: Performance | None = None,
) -> tuple[AlignedNoteTable, TableReport]:
    """Align every performance to the reference and assemble the note table.

    With ``reference=None`` the median-note-count performance is used (and is
    a table column like any other; it aligns to itself as the identity). An
    explicit reference, e.g. a score rendering, only serves as alignment
    target. Positions matched by fewer than ``MIN_COVERAGE`` performers are
    dropped and reported.
    """
    if len(performances) < 2:
        raise ValueError("need at least 2 performances to build a table")
    if reference is None:
        reference = median_reference(performances)

    performer_ids = tuple(p.performer_id for p in performances)
    if len(set(performer_ids)) != len(performer_ids):
        raise ValueError("performer ids must be unique")

    n_ref = len(reference)
    k = len(performances)
    onsets = np.full((n_ref, k), np.nan)
    offsets = np.full((n_ref, k), np.nan)
    dynamics = np.full((n_ref, k), np.nan)
    pitches = np.full((n_ref, k), -1, dtype=np.int16)
    per_performer: dict[str, dict[str, int]] = {}

    for col, perf in enumerate(performances):
        al = align_pair(reference, perf)
        rows, picks = al.pair_columns
        per_performer[perf.performer_id] = {
            "pairs": len(rows),
            "substitutions": len(al.substitutions),
            "insertions": len(al.insertions),
            "deletions": len(al.deletions),
        }
        onsets[rows, col] = perf.onsets[picks]
        offsets[rows, col] = perf.offsets[picks]
        dynamics[rows, col] = perf.dynamics[picks]
        pitches[rows, col] = perf.pitches[picks]

    coverage = (~np.isnan(onsets)).sum(axis=1)
    keep = coverage >= MIN_COVERAGE
    dropped = tuple(int(i) for i in np.nonzero(~keep)[0])
    if dropped:
        log.info("dropping %d positions below coverage %d", len(dropped), MIN_COVERAGE)

    table = AlignedNoteTable(
        performer_ids=performer_ids,
        onsets=onsets[keep],
        offsets=offsets[keep],
        dynamics=dynamics[keep],
        pitches=pitches[keep],
    )
    report = TableReport(
        reference_id=reference.performer_id,
        n_positions=table.n_positions,
        per_performer=per_performer,
        dropped_positions=dropped,
    )
    return table, report

