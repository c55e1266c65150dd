"""The benchmark's workloads: seeded input files, the op each one runs, and
the checks every op's outputs must pass.

Inputs are made here, outside the program under test: a synthetic score is
rendered once per performer profile and written as SMF. For ``align_errors``
each rendered performance also gets a few order-keeping performance errors
(wrong pitch, dropped note, extra note; the error types of Nakamura et al.,
ISMIR 2017), and the edit script is recorded so the alignment can be checked
against it.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from pianist_id import midi_io, synth
from pianist_id.midi_io import NoteEvent, Performance

#: Alignment DP costs the program uses by default (substitution, indel).
COST_SUB = 1.0
COST_INDEL = 0.6

#: Errors are at least this many notes apart, so their best explanations never
#: interact, and each edited pitch differs from every pitch this close to it.
ERROR_SPACING = 8
PITCH_WINDOW = 4

#: Error kind -> the alignment report field that should count it.
ERROR_KINDS = {"wrong_pitch": "substitutions", "dropped": "deletions", "extra": "insertions"}


@dataclass(frozen=True)
class Workload:
    name: str
    performers: int
    notes: int
    error_rate: float  # injected errors per score note and performer; 0 = clean
    command: tuple[str, ...]  # CLI subcommand and flags, without paths
    outputs: tuple[str, ...]  # files whose bytes must repeat from op to op
    groups: int = 8

    @property
    def is_align(self) -> bool:
        return self.command[0] == "align"


_EVAL = ("report.json", "confusion.csv", "confusion_normalized.csv", "metrics.csv")

WORKLOADS = {
    "hist_sweep": Workload(
        "hist_sweep", 4, 2000, 0.0,
        ("evaluate", "--model", "histogram", "--features", "IOI,DL,ND",
         "--groups", "8", "--jobs", "1", "--sweep"),
        _EVAL + ("sweep_histogram.csv",),
    ),
    "align_errors": Workload(
        "align_errors", 9, 300, 0.01, ("align",),
        ("alignment_report.json", "aligned_table.csv"),
    ),
    "kde_cv": Workload(
        "kde_cv", 4, 80, 0.0,
        ("evaluate", "--model", "kde", "--features", "IOI,DL,ND", "--jobs", "1"),
        _EVAL,
    ),
}

#: Input sizes (performers, notes) for the smoke test.
TINY = {"hist_sweep": (3, 160), "align_errors": (3, 120), "kde_cv": (3, 64)}


def get_workload(name: str, size: str = "default") -> Workload:
    workload = WORKLOADS[name]
    if size == "tiny":
        performers, notes = TINY[name]
        workload = replace(workload, performers=performers, notes=notes)
    return workload


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload: Workload, seed: int, dest: Path) -> dict:
    """Write the workload's input files under ``dest`` and return the manifest.

    The same seed gives byte-identical files. ``dest/performances`` holds one
    SMF per performer; ``align`` workloads also get ``dest/score.mid``.
    """
    perf_dir = dest / "performances"
    perf_dir.mkdir(parents=True)
    score = synth.generate_score(workload.notes, seed)
    profiles = synth.default_profiles(workload.performers, base_seed=seed, separation=1.0)
    width = len(str(workload.performers))
    manifest = {"n_reference": len(score.notes), "performers": {}}
    for i, profile in enumerate(profiles):
        pid = f"p{i + 1:0{width}d}"
        rendered = synth.render_performer(score, profile, pid)
        script = []
        if workload.error_rate > 0:
            rng = np.random.default_rng([seed, i, 0xE77])
            rendered, script = inject_errors(rendered, workload.error_rate, rng)
        (perf_dir / f"{pid}.mid").write_bytes(midi_io.write_smf(rendered))
        manifest["performers"][pid] = {"n_performance": len(rendered.notes), "errors": script}
    if workload.is_align:
        (dest / "score.mid").write_bytes(midi_io.write_smf(score))
    (dest / "manifest.json").write_text(json.dumps(manifest, sort_keys=True), encoding="utf-8")
    return manifest


def inject_errors(
    performance: Performance, rate: float, rng: np.random.Generator
) -> tuple[Performance, list[dict]]:
    """Apply ~``rate`` x n order-keeping errors; return the result and its edit script.

    Each script entry names the kind and the index of the note it hits (for an
    extra note, the note it follows).
    """
    notes = list(performance.notes)
    n = len(notes)
    wanted = max(1, round(rate * n))
    chosen: list[int] = []
    script: list[dict] = []
    for index in rng.permutation(np.arange(PITCH_WINDOW, n - PITCH_WINDOW - 1)).tolist():
        if len(script) == wanted:
            break
        if any(abs(index - c) < ERROR_SPACING for c in chosen):
            continue
        kind = ("wrong_pitch", "dropped", "extra")[int(rng.integers(3))]
        nearby = {notes[j].pitch for j in range(index - PITCH_WINDOW, index + PITCH_WINDOW + 1)}
        edit = {"kind": kind, "index": index}
        if kind == "wrong_pitch":
            pitch = notes[index].pitch + int(rng.choice((-1, 1)))
            if pitch in nearby:
                pitch = 2 * notes[index].pitch - pitch
            if pitch in nearby:
                continue
            edit["pitch"] = pitch
        elif kind == "extra":
            here, after = notes[index].onset, notes[index + 1].onset
            if after - here < 0.02:
                continue  # keep the extra note strictly between two onsets
            pitch = next((p for p in range(notes[index].pitch + 2, 128) if p not in nearby), None)
            if pitch is None:
                continue
            edit["pitch"] = pitch
        chosen.append(index)
        script.append(edit)
    # apply from the back so earlier indices stay valid
    for edit in sorted(script, key=lambda e: e["index"], reverse=True):
        index, note = edit["index"], notes[edit["index"]]
        if edit["kind"] == "wrong_pitch":
            notes[index] = NoteEvent(note.onset, note.offset, edit["pitch"], note.dynamic)
        elif edit["kind"] == "dropped":
            del notes[index]
        else:
            onset = 0.5 * (note.onset + notes[index + 1].onset)
            length = 0.25 * (notes[index + 1].onset - note.onset)
            notes.insert(index + 1, NoteEvent(onset, onset + length, edit["pitch"], 64))
    script.sort(key=lambda e: e["index"])
    return Performance(performance.performer_id, performance.piece_id, tuple(notes)), script


def op_argv(workload: Workload, inputs: Path, out: Path) -> list[str]:
    argv = [workload.command[0], "--input", str(inputs / "performances"), "--out", str(out)]
    if workload.is_align:
        argv += ["--reference", str(inputs / "score.mid")]
    return argv + list(workload.command[1:])


# ---------------------------------------------------------------------------
# output checks


class CheckFailed(Exception):
    """An op's outputs are missing, inconsistent or differ from the expected bytes."""


def digests(workload: Workload, out: Path) -> dict[str, str]:
    found = {}
    for name in workload.outputs:
        path = out / name
        if not path.is_file():
            raise CheckFailed(f"missing output {name}")
        found[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def check_outputs(workload: Workload, out: Path, manifest: dict) -> float:
    """Validate one op's outputs; return its quality ratio.

    Quality is the macro precision of an evaluate op and the error recall of
    an align op.
    """
    if workload.is_align:
        return _check_align(out, manifest)
    return _check_evaluate(workload, out, manifest)


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc


def _check_evaluate(workload: Workload, out: Path, manifest: dict) -> float:
    report = _load_json(out / "report.json")
    ids = sorted(manifest["performers"])
    if report.get("performers") != ids:
        raise CheckFailed("report.json lists the wrong performers")
    trials, skipped = report["trials"], report["skipped"]
    if len(trials) != len(ids) * workload.groups - len(skipped):
        raise CheckFailed(
            f"{len(trials)} trials, expected {len(ids)} x {workload.groups} - {len(skipped)}"
        )
    for pid, row in zip(ids, report["confusion"]):
        own = sum(1 for t in trials if t["performer"] == pid)
        if sum(row) != own:
            raise CheckFailed(f"confusion row {pid} sums to {sum(row)}, not {own} trials")
    precision = report["metrics"]["macro_precision"]
    if not 0.0 <= precision <= 1.0:
        raise CheckFailed(f"macro precision {precision} outside [0, 1]")
    return float(precision)


def _check_align(out: Path, manifest: dict) -> float:
    report = _load_json(out / "alignment_report.json")
    per_performer = report.get("per_performer", {})
    if sorted(per_performer) != sorted(manifest["performers"]):
        raise CheckFailed("alignment report lists the wrong performers")
    n_ref = manifest["n_reference"]
    recalled = injected = 0
    for pid, expected in manifest["performers"].items():
        got = per_performer[pid]
        if got["pairs"] + got["deletions"] != n_ref:
            raise CheckFailed(f"{pid}: pairs + deletions != {n_ref} reference notes")
        if got["pairs"] + got["insertions"] != expected["n_performance"]:
            raise CheckFailed(f"{pid}: pairs + insertions != {expected['n_performance']} notes")
        cost = COST_SUB * got["substitutions"] + COST_INDEL * (got["insertions"] + got["deletions"])
        kinds = {field: 0 for field in ERROR_KINDS.values()}
        for edit in expected["errors"]:
            kinds[ERROR_KINDS[edit["kind"]]] += 1
        script_cost = COST_SUB * kinds["substitutions"] + COST_INDEL * (
            kinds["insertions"] + kinds["deletions"]
        )
        if cost > script_cost + 1e-9:
            raise CheckFailed(f"{pid}: alignment cost {cost:.1f} exceeds the injected {script_cost:.1f}")
        recalled += sum(min(got[field], count) for field, count in kinds.items())
        injected += sum(kinds.values())

    # every present cell of the note table is one CSV row; positions below
    # coverage 2 are dropped with at most one cell each
    with open(out / "aligned_table.csv", newline="", encoding="utf-8") as handle:
        rows = sum(1 for _ in csv.reader(handle)) - 1
    pairs = sum(p["pairs"] for p in per_performer.values())
    if not pairs - len(report["dropped_positions"]) <= rows <= pairs:
        raise CheckFailed(f"aligned_table.csv has {rows} rows for {pairs} aligned pairs")
    return recalled / injected if injected else 1.0
