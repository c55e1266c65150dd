"""A fixed reference computation that measures how fast the machine runs now.

On a shared host the speed available to one process drifts by up to ~2x over
tens of seconds, far more than the changes the benchmark must resolve. The
benchmark therefore times a reference pass between ops and rescales each op's
time to the speed at which the pass takes its nominal time. A pass runs three
parts that resemble the program's work: an interpreted dynamic program with
NumPy scalar access, many small NumPy calls, and a vectorised exp over 1 MB.
It never calls the program, so a change to the program cannot move it. Kinds
of work slow down by different amounts when the host is busy, so the
correction is partial: vectorised work (kde_cv) slows less than the pass.
"""

from __future__ import annotations

import time

import numpy as np


_SEQ_A = np.asarray([i % 7 for i in range(100)], dtype=np.int16)
_SEQ_B = np.asarray([(i * 3) % 7 for i in range(100)], dtype=np.int16)
_SMALL = np.linspace(0.0, 1.0, 600)
_GRID = np.linspace(-4.0, 4.0, 1024)[:, None] - np.linspace(-1.0, 1.0, 128)[None, :]
_BUFFER = np.empty_like(_GRID)  # in place, so a pass allocates no large arrays


def _interpreted_dp() -> float:
    prev = np.zeros(len(_SEQ_B) + 1)
    cur = np.zeros(len(_SEQ_B) + 1)
    for i in range(1, len(_SEQ_A) + 1):
        cur[0] = prev[0] + 0.6
        a = _SEQ_A[i - 1]
        for j in range(1, len(_SEQ_B) + 1):
            diag = prev[j - 1] + (0.0 if a == _SEQ_B[j - 1] else 1.0)
            cur[j] = min(diag, prev[j] + 0.6, cur[j - 1] + 0.6)
        prev, cur = cur, prev
    return float(prev[-1])


def _small_calls() -> float:
    total = 0.0
    for k in range(120):
        counts, edges = np.histogram(_SMALL[k:], bins=50)
        total += float(np.interp(0.5, edges[1:], np.cumsum(counts)))
    return total


def _vector_exp() -> float:
    total = 0.0
    for _ in range(24):
        np.multiply(_GRID, _GRID, out=_BUFFER)
        np.multiply(_BUFFER, -0.5, out=_BUFFER)
        np.exp(_BUFFER, out=_BUFFER)
        total += float(_BUFFER.sum())
    return total


#: Time of one pass at the reference speed (a 2-core x86-64 VM at its fastest,
#: Python 3.11, NumPy 2.4). Only ratios to it are reported.
NOMINAL_S = 0.020


class Reference:
    """Times reference passes between measurements and rescales the measurements."""

    def __init__(self):
        self.last_s = self.time_pass()

    @staticmethod
    def time_pass() -> float:
        started = time.perf_counter()
        _interpreted_dp()
        _small_calls()
        _vector_exp()
        return time.perf_counter() - started

    def scale(self) -> float:
        """Factor for a time measured since the last pass: nominal over the
        mean of that pass and a new one."""
        current = self.time_pass()
        factor = NOMINAL_S / (0.5 * (self.last_s + current))
        self.last_s = current
        return factor
