"""Span tracing from outside the program.

Each probe replaces one public function at the module attribute its callers
look up (``cli.build_table``, ``evaluation.fit_model``, ...) with a wrapper
that records a span (id, name, start, end, parent) and, after the span has
closed, counts the work the call did. Nothing under ``src/`` changes; the
originals are put back when tracing ends.

Spans stay in memory for the whole run. Self time is computed after each op
by a sweep over span boundaries: every instant of the op is split equally
among the innermost open spans, so with worker threads the self times still
add up to the op's wall time.
"""

from __future__ import annotations

import itertools
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from pianist_id import alignment, cli, divergence, evaluation, midi_io, synth

LAYERS = ("midi_io", "alignment", "features", "densities", "divergence", "evaluation", "cli")
MIB = 1024.0 * 1024.0


class Tracer:
    """Spans and counts of one op at a time; ``track_alloc`` adds tracemalloc peaks."""

    def __init__(self, track_alloc: bool = False):
        self.track_alloc = track_alloc
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[list] = []
        self.all_spans: list[tuple] = []  # every op's spans, kept for the span file
        self.start_op(None)

    def start_op(self, op_id) -> None:
        self.op_id = op_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.counts: dict[str, float] = defaultdict(float)
        self.fit_keys: set = set()
        self.kl_keys: set = set()
        self.model_keys: dict[int, tuple] = {}
        self.models: list = []  # keeps fitted models alive so their ids stay unique
        self.alloc_peaks: dict[str, float] = defaultdict(float)

    def finish_op(self) -> list[tuple]:
        spans = self.spans
        self.all_spans.extend(spans)
        self.models = []
        self.model_keys = {}
        return spans

    def add(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += value

    def _stack(self) -> list[list]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:  # a worker thread's first span belongs to what its submitter runs
            parent = self._main_stack[-1][0] if self._main_stack else None
        frame = [next(self._ids), parent, 0, 0]  # id, parent, alloc at start, alloc peak
        if self.track_alloc:
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1][3] = max(stack[-1][3], peak)
            tracemalloc.reset_peak()
            frame[2] = frame[3] = current
        stack.append(frame)
        frame.append(time.perf_counter())
        return frame

    def close(self, frame: list, name: str) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if self.track_alloc:
            _, peak = tracemalloc.get_traced_memory()
            frame[3] = max(frame[3], peak)
            layer = name.split(".", 1)[0]
            growth = (frame[3] - frame[2]) / MIB
            with self._lock:
                self.alloc_peaks[layer] = max(self.alloc_peaks[layer], growth)
            if stack:
                stack[-1][3] = max(stack[-1][3], frame[3])
            tracemalloc.reset_peak()
        self.spans.append((frame[0], name, frame[4], end, frame[1], self.op_id))

    def call(self, name: str, fn, *args, **kwargs):
        frame = self.open()
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(frame, name)


def _wrap(tracer: Tracer, name: str, fn, count):
    def traced(*args, **kwargs):
        frame = tracer.open()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(frame, name)
            raise
        span_name = name
        if count is not None:
            # the hook may refine the span name from the result (KL method)
            span_name = count(tracer, args, kwargs, result) or name
        tracer.close(frame, span_name)
        return result

    traced.__wrapped__ = fn
    return traced


# ---------------------------------------------------------------------------
# count hooks: run after the call returns, inside the op


def _count_parse(tracer, args, kwargs, result):
    performance, warnings = result
    tracer.add("midi_io.parse_notes", len(performance.notes))
    tracer.add("midi_io.parse_bytes", len(args[0]))
    tracer.add("midi_io.parse_warnings", len(warnings))


def _count_align(tracer, args, kwargs, result):
    n, m = result.n_reference, result.n_performance
    identity = n == m and result.total_cost == 0.0 and not result.insertions and not result.deletions
    if identity:
        tracer.add("alignment.identity_pairs")
    else:
        tracer.add("alignment.dp_pairs")
        tracer.add("alignment.dp_cells", (n + 1) * (m + 1))


def _count_features(tracer, args, kwargs, result):
    tracer.add(
        "features.values", sum(len(s.values) for kinds in result.values() for s in kinds.values())
    )


def _count_run_cv(tracer, args, kwargs, result):
    tracer.add("evaluation.run_cv_calls")
    tracer.add("evaluation.trials", len(result.trials))
    tracer.add("evaluation.trials_skipped", len(result.skipped))


def _count_fit(tracer, args, kwargs, result):
    values = np.asarray(getattr(args[0], "values", args[0]), dtype=np.float64)
    kind = args[1]
    # one key per distinct training or test sample (performer, group, kind, side)
    key = (kind, len(values), float(values.sum()), float(values[0]), float(values[-1]))
    tracer.add("densities.fit_calls")
    tracer.add("densities.fit_values", len(values))
    tracer.fit_keys.add(key)
    tracer.model_keys[id(result)] = key
    tracer.models.append(result)


def _count_kl(tracer, args, kwargs, result):
    p, q = args[0], args[1]
    tracer.add("divergence.kl_calls")
    tracer.kl_keys.add((tracer.model_keys.get(id(p)), tracer.model_keys.get(id(q))))
    if result.grid_spec is not None:
        tracer.add(
            "divergence.kde_kernel_evals",
            result.grid_spec[2] * (len(p.sample_points) + len(q.sample_points)),
        )
    return f"divergence.kl.{result.method}"


def _count_render(tracer, args, kwargs, result):
    tracer.add("synth.notes_rendered", len(result.notes))


#: (module, attribute, span name, count hook) for the ops.
OP_PROBES = (
    (cli, "parse_smf_with_warnings", "midi_io.parse", _count_parse),
    (cli, "build_table", "alignment.build_table", None),
    (cli, "compute_norm", "features.compute_norm", None),
    (cli, "run_cv", "evaluation.run_cv", _count_run_cv),
    (alignment, "align_pair", "alignment.align_pair", _count_align),
    (evaluation, "extract_deviations", "features.extract_deviations", _count_features),
    (evaluation, "run_cv", "evaluation.run_cv", _count_run_cv),
    (evaluation, "sweep", "evaluation.sweep", None),
    (evaluation, "fit_model", "densities.fit", _count_fit),
    (divergence, "kl", "divergence.kl", _count_kl),
)

#: Probes for input generation, which runs in its own process.
SETUP_PROBES = (
    (synth, "generate_score", "synth.generate_score", None),
    (synth, "render_performer", "synth.render_performer", _count_render),
    (midi_io, "write_smf", "midi_io.write", None),
)


@contextmanager
def installed(tracer: Tracer, probes):
    """Wrap every probe's function for the duration of the block."""
    saved = []
    try:
        for module, attr, name, count in probes:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic


def union_seconds(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Per span id, the wall time it was an innermost open span.

    Where several spans are innermost at once (worker threads), the instant
    is shared equally, so the values sum to the covered wall time.
    """
    events = []
    for sid, _, start, end, parent, _ in spans:
        events.append((start, 1, sid, parent))
        events.append((end, 0, sid, parent))
    events.sort(key=lambda e: (e[0], e[1]))  # closes before opens at a tie
    open_ids: set[int] = set()
    leaves: set[int] = set()
    open_children: dict[int, int] = defaultdict(int)
    result: dict[int, float] = defaultdict(float)
    last = None
    for t, opening, sid, parent in events:
        if leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                result[leaf] += share
        last = t
        if opening:
            open_ids.add(sid)
            leaves.add(sid)
            if parent in open_ids:
                leaves.discard(parent)
                open_children[parent] += 1
        else:
            open_ids.discard(sid)
            leaves.discard(sid)
            if parent in open_ids:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return result


def op_layer_metrics(tracer: Tracer, spans, write_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced op from its spans and counts."""
    by_name: dict[str, list] = defaultdict(list)
    for span in spans:
        by_name[span[1]].append((span[2], span[3]))
    own = self_times(spans)
    self_by_name: dict[str, float] = defaultdict(float)
    for span in spans:
        self_by_name[span[1]] += own.get(span[0], 0.0)

    def busy(*prefixes):
        return union_seconds(
            iv for name, ivs in by_name.items() if name.startswith(prefixes) for iv in ivs
        )

    counts = tracer.counts
    fits = counts["densities.fit_calls"]
    kls = counts["divergence.kl_calls"]
    metrics = {
        "midi_io.parse_busy_s": busy("midi_io.parse"),
        "midi_io.parse_notes": counts["midi_io.parse_notes"],
        "midi_io.parse_bytes": counts["midi_io.parse_bytes"],
        "midi_io.parse_warnings": counts["midi_io.parse_warnings"],
        "alignment.align_pair_busy_s": busy("alignment.align_pair"),
        "alignment.dp_pairs": counts["alignment.dp_pairs"],
        "alignment.identity_pairs": counts["alignment.identity_pairs"],
        "alignment.dp_cells": counts["alignment.dp_cells"],
        "alignment.dp_move_bytes": counts["alignment.dp_cells"],  # one uint8 move per cell
        "alignment.build_table_self_s": self_by_name["alignment.build_table"],
        "features.busy_s": busy("features."),
        "features.values": counts["features.values"],
        "densities.fit_calls": fits,
        "densities.fit_busy_s": busy("densities."),
        "densities.fit_values": counts["densities.fit_values"],
        "divergence.kl_calls": kls,
        "divergence.kl_busy_s": busy("divergence."),
        "divergence.kl_discrete_busy_s": busy("divergence.kl.discrete"),
        "divergence.kl_grid_busy_s": busy("divergence.kl.grid"),
        "divergence.kde_kernel_evals": counts["divergence.kde_kernel_evals"],
        "evaluation.run_cv_calls": counts["evaluation.run_cv_calls"],
        "evaluation.run_cv_self_s": self_by_name["evaluation.run_cv"],
        "evaluation.sweep_busy_s": busy("evaluation.sweep"),
        "evaluation.trials": counts["evaluation.trials"],
        "evaluation.trials_skipped": counts["evaluation.trials_skipped"],
        "evaluation.fit_unique_ratio": len(tracer.fit_keys) / fits if fits else 0.0,
        "evaluation.kl_unique_ratio": len(tracer.kl_keys) / kls if kls else 0.0,
        "cli.write_bytes": float(write_bytes),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            t for name, t in self_by_name.items() if name.split(".", 1)[0] == layer
        )
    root = [s for s in spans if s[1] == "cli.op"]
    metrics["trace.op_s"] = root[0][3] - root[0][2] if root else 0.0
    return metrics


def setup_layer_metrics(tracer: Tracer, spans) -> dict[str, float]:
    """Per-layer metrics of one traced input-generation pass."""
    intervals = defaultdict(list)
    for span in spans:
        intervals[span[1].split(".", 1)[0]].append((span[2], span[3]))
    return {
        "synth.busy_s": union_seconds(intervals["synth"]),
        "synth.notes_rendered": tracer.counts["synth.notes_rendered"],
        "midi_io.write_busy_s": union_seconds(intervals["midi_io"]),
    }
