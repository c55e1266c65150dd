"""Note-to-note alignment of performances against a reference.

A global dynamic program over pitch sequences (Needleman-Wunsch style,
minimizing cost) yields matched pairs plus inserted/deleted notes; wrong-pitch
matches are kept as pairs but flagged as substitutions, which is how
performance errors are marked. The costs are fixed: a pitch match is free, a
substitution costs ``COST_SUB`` and an insertion or a deletion ``COST_GAP``.
Aligning every performance to one reference produces the position-by-performer
note table the norm performance is averaged from.

The DP is exact but banded (Ukkonen 1985): it fills only the diagonals a
path of cost at most a threshold can visit, and doubles the threshold until
the banded optimum proves itself globally optimal. The threshold starts just
above a lower bound read off the two pitch multisets: at most as many pairs
can match as the pitches the two have in common, and every other note costs
a substitution, an insertion or a deletion. When the errors are only dropped
or extra notes, or only wrong pitches (none undoing another in the
multisets), that bound is the optimum and the first pass succeeds. Time and
memory are O((n + m) * w) for a band of w diagonals, rather than O(n * m).

Between errors an optimal path slides along one diagonal of matches (Myers
1986), so a pass steps only the rows near errors in Python. A row is settled
when its least slot k is unique and every other slot holds that value plus
one gap per slot away from k; each following row whose pitches match on k
repeats it bit for bit, so the moves of such a run are written in one numpy
step. The cells, and the moves and cost, are those of the row-by-row fill.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .midi_io import Performance

log = logging.getLogger(__name__)

#: Table positions matched by fewer performers than this are dropped.
MIN_COVERAGE = 2

#: DP cost of a wrong-pitch pair, and of an inserted or a deleted note. A
#: wrong-pitch note is marked as a substitution pair, since 1.0 < 0.6 + 0.6.
COST_SUB = 1.0
COST_GAP = 0.6


@dataclass(frozen=True, eq=False)
class NoteAlignment:
    """Monotone correspondence between reference and performance note indices.

    The matched pairs are the data: ``pair_columns``, a read-only (2, k)
    array of indices, reference then performance, both strictly increasing;
    ``pairs`` is a tuple view of them, built on each access. Every reference
    index lands in exactly one of pairs/deletions, every performance index in
    exactly one of pairs/insertions. ``substitutions`` is the subset of pairs
    whose pitches differ (the marked errors). The four hold the same
    alignment and are checked against each other when it is built.
    """

    pair_columns: np.ndarray
    insertions: tuple[int, ...]
    deletions: tuple[int, ...]
    substitutions: tuple[tuple[int, int], ...]
    n_reference: int
    n_performance: int
    total_cost: float

    def __post_init__(self):
        columns = np.array(self.pair_columns, dtype=np.intp)
        if columns.ndim != 2 or len(columns) != 2:
            raise ValueError("pair_columns must be two index columns: reference, then performance")
        if columns.shape[1] and (columns[:, 0].min() < 0 or (np.diff(columns) <= 0).any()):
            raise ValueError("pairs must be strictly increasing in both coordinates")
        if not _partitions(columns[0], self.deletions, self.n_reference):
            raise ValueError("pairs and deletions must partition reference indices")
        if not _partitions(columns[1], self.insertions, self.n_performance):
            raise ValueError("pairs and insertions must partition performance indices")
        columns.setflags(write=False)
        object.__setattr__(self, "pair_columns", columns)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The matched (reference, performance) index pairs, in order."""
        return tuple(zip(*self.pair_columns.tolist()))

    def _fields(self) -> tuple:
        return (self.insertions, self.deletions, self.substitutions,
                self.n_reference, self.n_performance, self.total_cost)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NoteAlignment):
            return NotImplemented
        return self._fields() == other._fields() and np.array_equal(self.pair_columns, other.pair_columns)

    def __hash__(self) -> int:
        return hash(self._fields())


def _partitions(paired: np.ndarray, rest: tuple[int, ...], n: int) -> bool:
    """Whether the sets of ``paired`` (strictly increasing) and ``rest`` are disjoint and make range(n)."""
    if rest:
        paired = np.sort(np.concatenate((paired, np.array(rest, dtype=np.intp))))
    return len(paired) == n and np.array_equal(paired, np.arange(n))


def _gap(k: int) -> float:
    """Cheapest way to move k diagonals: k insertions, or -k deletions."""
    return abs(k) * COST_GAP


def _band(n: int, m: int, threshold: float) -> tuple[int, int]:
    """Diagonals k = j - i (lowest, highest) that a path of cost <= ``threshold`` can visit.

    A path through diagonal k must move |k| diagonals from (0, 0) and then
    |m - n - k| more to (n, m), so it costs at least ``_gap(k) + _gap(m - n - k)``.
    """

    def bound(k: int) -> float:
        return _gap(k) + _gap(m - n - k)

    low, high = min(0, m - n), max(0, m - n)
    while low > -n and bound(low - 1) <= threshold:
        low -= 1
    while high < m and bound(high + 1) <= threshold:
        high += 1
    return low, high


def _lower_bound(ref, perf) -> float:
    """A cost no alignment of the two pitch sequences (0..127) can beat, from their pitch multisets.

    At most ``c`` pairs, the sum over pitches of the smaller of the two
    counts, can match their pitches. That leaves ``a = n - c`` reference and
    ``b = m - c`` performance notes, paired as substitutions (which cost less
    than a deletion plus an insertion) as far as they go. The result is never
    below ``_gap(m - n)``. The counts are two ``np.bincount`` calls.
    """
    c = int(np.minimum(*(np.bincount(p, minlength=128) for p in (ref, perf))).sum())
    a, b = len(ref) - c, len(perf) - c
    paired = min(a, b)
    return COST_SUB * paired + COST_GAP * (a - paired) + COST_GAP * (b - paired)


def _margin(cost: float) -> float:
    """Float round-off in path sums and bounds must not decide band membership."""
    return 1e-9 * (1.0 + cost)


def _above(cost: float) -> float:
    """The threshold just above ``cost`` by more than its round-off margin."""
    return max(cost * (1.0 + 1e-6), cost + 2.0 * _margin(cost))


def _settled_slot(row: list[float], w: int) -> int | None:
    """The slot k of a settled row, or None: row[k] is its least value and
    every other slot holds it plus one ``COST_GAP`` per slot away from k,
    added one at a time (float equality, which also rules out infinity)."""
    least = min(row)
    if least == math.inf:
        return None
    k = row.index(least)
    for side in (range(k + 1, w), range(k - 1, -1, -1)):
        value = least
        for d in side:
            value += COST_GAP
            if row[d] != value:
                return None
    return k


def _banded_moves(ref_pitches: np.ndarray, perf_pitches: np.ndarray, low: int, high: int):
    """The DP restricted to diagonals ``low``..``high``; returns (moves, cost
    at (n, m), cells, rows stepped).

    Cell (i, j) sits at slot p = j - i - low of row i, so its pair, deletion
    and insertion predecessors are slots p, p + 1 of row i - 1 and p - 1 of
    row i. Off-band and off-table slots hold infinity, which no comparison
    below prefers to a finite cost. ``moves[i * w + p]`` is 0 (pair),
    1 (deletion) or 2 (insertion); ties prefer them in that order.

    Rows -low..m - high are full-band: every slot lies in the table. Take a
    settled row (``_settled_slot`` finds its slot k) and a run of full-band
    rows whose pitches match on slot k: each repeats the settled row bit for
    bit, since k's match gives ``diag == cur[k]``, every other slot's ``up``
    (left of k) or ``left`` (right of k) reproduces its value by the float
    addition that made it, and a mismatch adds ``COST_SUB`` or a second gap
    and loses. So the run's moves are 0 where the pitches match, else 1 left
    of k and 2 right of k; they are written in one numpy step, its cells are
    counted, and the loop resumes after it. A row is tested only when it
    equals the row before it, as a settled row's first repeat does.
    """
    n, m = len(ref_pitches), len(perf_pitches)
    ref = ref_pitches.tolist()
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
    perf_at = [-1] + perf_pitches.tolist()
    last_full = min(n, m - high)
    # windows[j] is the pitches of slots 0..w - 1 in row j + 1 - low; a band
    # wider than m has no full-band row to jump to
    windows = np.lib.stride_tricks.sliding_window_view(perf_pitches, w) if w <= m else None
    cells, stepped = 0, n
    tested = False  # whether prev was already tested for settledness
    i = 0
    while i < n:
        rp = ref[i]
        i += 1
        base = low + i  # column of slot 0 in this row
        row = i * w
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
        if cur != prev:
            tested = False
        elif not tested:
            tested = True
            k = _settled_slot(cur, w)
            if k is not None:
                # rows i + 1..end repeat this one: full-band rows matching on slot k
                shift = low + k
                misses = np.flatnonzero(ref_pitches[i:last_full] != perf_pitches[i + shift : last_full + shift])
                end = i + int(misses[0]) if len(misses) else last_full
                if end > i:
                    run = np.frombuffer(moves, dtype=np.uint8)[row + w : (end + 1) * w].reshape(-1, w)
                    fill = np.array([1] * k + [0] + [2] * (w - k - 1), dtype=np.uint8)
                    np.copyto(run, fill, where=windows[i + low : end + low] != ref_pitches[i:end, None])
                    cells += (end - i) * w
                    stepped -= end - i
                    i = end
        prev = cur
    return moves, prev[m - n - low], cells, stepped


def align_pair(reference: Performance, performance: Performance) -> NoteAlignment:
    """Globally optimal monotone alignment of the two pitch sequences.

    A pitch match is free, a wrong-pitch pair costs ``COST_SUB`` (1.0) and an
    inserted or a deleted note ``COST_GAP`` (0.6). Ties prefer pairing over
    deletion over insertion, which makes the result deterministic. Identical
    pitch sequences (``np.array_equal`` on the pitch columns) short-circuit
    to the identity mapping (cost 0, which is the DP optimum).

    The threshold t starts just above ``_lower_bound``; a pass whose t is at
    or below the optimum always fails, so no pass that could succeed is
    skipped. After each pass the banded optimum U bounds the true optimum
    from above; once it falls below t (by a round-off margin), every optimal
    path lies in the band, so moves and cost equal those of the full table.
    Otherwise t rises to just above U, whose pass then succeeds, when that
    band is at most twice as wide as the doubled threshold's; else t doubles.

    The backtrace records only the moves; the index columns of the pairs,
    deletions and insertions then follow from running counts of the moves.
    """
    if not len(reference) or not len(performance):
        raise ValueError("alignment requires non-empty performances")
    ref_pitches, perf_pitches = reference.pitches, performance.pitches
    n, m = len(ref_pitches), len(perf_pitches)
    if np.array_equal(ref_pitches, perf_pitches):
        identity = np.arange(n)
        return NoteAlignment(np.stack((identity, identity)), (), (), (), n, m, 0.0)

    bound = _lower_bound(ref_pitches, perf_pitches)
    threshold = _above(bound)
    band, passes, cells, stepped = None, 0, 0, 0
    while True:
        wanted = _band(n, m, threshold)
        if wanted != band:  # a threshold that adds no diagonal would give the same pass
            band = wanted
            moves, total_cost, pass_cells, pass_stepped = _banded_moves(ref_pitches, perf_pitches, *band)
            passes += 1
            cells += pass_cells
            stepped += pass_stepped
        if total_cost + _margin(total_cost) < threshold:
            break
        (dlow, dhigh), (alow, ahigh) = _band(n, m, 2.0 * threshold), _band(n, m, _above(total_cost))
        threshold = _above(total_cost) if ahigh - alow + 1 <= 2 * (dhigh - dlow + 1) else 2.0 * threshold
    low, high = band
    w = high - low + 1
    log.debug(
        "aligned %s (%d notes) to %s (%d notes): bound=%g passes=%d band=%d diagonals cells=%d rows=%d",
        performance.performer_id, m, reference.performer_id, n, bound, passes, w, cells, stepped,
    )

    # the backtrace: from (n, m), each move's slot steps back one row, one
    # column or both
    steps = (w, w - 1, 1)
    k, origin = n * w + m - n - low, -low
    path = bytearray()
    while k != origin:
        move = moves[k]
        path.append(move)
        k -= steps[move]
    path = np.frombuffer(path, dtype=np.uint8)[::-1]
    rows = np.cumsum(path != 2) - 1  # the reference index each move pairs or deletes
    cols = np.cumsum(path != 1) - 1  # the performance index each move pairs or inserts
    paired = path == 0
    columns = np.stack((rows[paired], cols[paired]))
    wrong = np.flatnonzero(ref_pitches[columns[0]] != perf_pitches[columns[1]])
    return NoteAlignment(
        columns,
        tuple(cols[path == 2].tolist()),
        tuple(rows[path == 1].tolist()),
        tuple(zip(*columns[:, wrong].tolist())),
        n,
        m,
        float(total_cost),
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
        per_performer[perf.performer_id] = {
            "pairs": al.pair_columns.shape[1],
            "substitutions": len(al.substitutions),
            "insertions": len(al.insertions),
            "deletions": len(al.deletions),
        }
        rows, picks = al.pair_columns
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

