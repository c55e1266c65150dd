"""Command-line front end: align, features, evaluate, synth.

Every option can also come from a JSON config file (--config). Each key that
names an option of the command becomes that option's flag, and one argparse
parser converts and checks flags and config values alike; explicit flags come
later and win. Commands are deterministic under a fixed config and seed,
independent of --jobs. Exit codes: 0 success, 2 usage or input error, 1
internal error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import traceback
from dataclasses import asdict
from pathlib import Path
from typing import Iterator

import numpy as np

from . import densities, evaluation, synth
from .alignment import AlignedNoteTable, build_table
from .evaluation import DeviationDataset, ExperimentConfig, run_cv
from .features import KINDS, compute_norm, dump_features_csv, extract_deviations
from .midi_io import (
    Performance,
    from_note_table,
    parse_smf,
    parse_smf_with_warnings,  # noqa: F401  perfbench/tracing.py wraps this name
    parse_smfs,
    to_note_table,
    write_smf,
)

PROG = "pianist-id"

#: Aligned-table cells written per block.
CSV_BLOCK = 256

SMF_SUFFIXES = (".mid", ".midi")
PERFORMANCE_SUFFIXES = SMF_SUFFIXES + (".csv",)


class InputError(ValueError):
    """Bad user input (missing path, unknown feature name, ...); exit code 2."""


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv[:1] + _config_flags(argv, commands) + argv[1:])
        if not hasattr(args, "func"):
            parser.print_help()
            return 2
        return args.func(args)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    except InputError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _weights(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in _comma_list(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _bandwidths(text: str) -> tuple[tuple[str, float], ...]:
    """``KIND=VALUE`` overrides; ``ExperimentConfig`` fills in the other kinds."""
    parsed = []
    for part in _comma_list(text):
        kind, _, value = part.partition("=")
        try:
            parsed.append((kind.strip(), float(value)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected KIND=VALUE, got {part!r}") from None
    return tuple(parsed)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser, and each command's subparser by name; built once per process,
    since parsing leaves both unchanged."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Identify pianists from MIDI performances of a shared piece.",
    )
    sub = parser.add_subparsers(dest="command")

    def command(name, func, help, inputs=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", required=True, help="output directory")
        if inputs:
            p.add_argument(
                "--input", required=True, help="directory of .mid/.midi/.csv performances"
            )
            p.add_argument(
                "--reference", default="median", help="'median' (default) or a reference file"
            )
        return p

    command("align", cmd_align, "align performances and dump the note table")
    command("features", cmd_features, "dump per-note deviation features")

    p_eval = command("evaluate", cmd_evaluate, "run LOGO cross-validation and report")
    p_eval.add_argument(
        "--model", default="histogram", help="histogram | kde | gmm (default histogram)"
    )
    p_eval.add_argument(
        "--features", type=_comma_list, default=KINDS, help="comma list from OT,IOI,OTD,DL,ND"
    )
    p_eval.add_argument(
        "--weights", type=_weights, help="comma list of fusion weights (default all 1)"
    )
    p_eval.add_argument(
        "--bins", type=int, default=densities.DEFAULT_N_BINS,
        help="histogram bin count (default 50)",
    )
    p_eval.add_argument(
        "--bandwidths", type=_bandwidths, default=(),
        help="per-kind KDE bandwidth overrides, e.g. OT=1.2,IOI=0.01",
    )
    p_eval.add_argument(
        "--gmm-k", type=int, dest="gmm_k", default=densities.DEFAULT_GMM_K,
        help="GMM components (default 3)",
    )
    p_eval.add_argument(
        "--groups", type=int, default=evaluation.DEFAULT_N_GROUPS,
        help="cross-validation groups (default 8)",
    )
    p_eval.add_argument(
        "--sweep", action="store_true",
        help="also evaluate every feature subset of size >= 2 for the chosen model",
    )
    p_eval.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1,
        help="threads for the KDE kernel sums (default: cores); results do not depend on it",
    )

    p_synth = command("synth", cmd_synth, "generate a synthetic benchmark dataset", inputs=False)
    p_synth.add_argument(
        "--performers", type=int, default=9, help="number of performers (default 9)"
    )
    p_synth.add_argument(
        "--notes", type=int, default=2000, help="notes per performance (default 2000)"
    )
    p_synth.add_argument(
        "--separation", type=float, default=1.0, help="profile separation factor (default 1.0)"
    )
    for p in (p_eval, p_synth):  # the commands that read it
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    return parser, sub.choices


@functools.cache
def _config_parser() -> argparse.ArgumentParser:
    """The pre-parser that finds --config; built once per process, as ``_build_parser``."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")  # a missing value is left to the full parse
    return pre


def _config_flags(argv: list[str], commands: dict[str, argparse.ArgumentParser]) -> list[str]:
    """The settings of ``argv``'s --config file as flags of its command.

    A list becomes a comma list and an object ``KIND=VALUE`` pairs; ``true``
    becomes the bare flag, and ``false`` and ``null`` are dropped. Keys that
    name no option of the command are ignored.
    """
    path = _config_parser().parse_known_args(argv[1:])[0].config
    if path is None or argv[0] not in commands:
        return []
    # argparse lists a parser's options only in its ``_actions``
    flags = {
        action.dest: action.option_strings[-1]
        for action in commands[argv[0]]._actions
        if action.dest not in ("help", "config")
    }
    config = Path(path)
    if not config.is_file():
        raise InputError(f"config file not found: {config}")
    try:
        settings = json.loads(config.read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise InputError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(settings, dict):
        raise InputError("config file must hold a JSON object")
    tokens = []
    for key, value in settings.items():
        flag = flags.get(key.replace("-", "_"))
        if flag is None or value is None or value is False:
            continue
        if isinstance(value, dict):
            value = [f"{kind}={v}" for kind, v in value.items()]
        if isinstance(value, list):
            value = ",".join(map(str, value))
        tokens.append(flag if value is True else f"{flag}={value}")
    return tokens


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_smfs(files: list[tuple[Path, str]]) -> Iterator:
    """Read the (path, piece id) SMFs and parse them in one ``parse_smfs`` call.

    Yields each file's outcome in turn: its (performance, warnings), the
    ``ValueError`` parsing it raised, or, for the first file that cannot be
    read, the ``OSError`` reading it raised; no file after that is read.
    """
    read, unreadable = [], []
    for path, piece_id in files:
        try:
            read.append((path.read_bytes(), path.stem, piece_id))
        except OSError as exc:
            unreadable.append(exc)
            break
    yield from parse_smfs(read)
    yield from unreadable


def _load_performance(path: Path, piece_id: str, smfs: Iterator) -> Performance:
    """Read one performance file, or take its outcome from ``smfs`` if it is an SMF;
    malformed content is an input error naming the file."""
    suffix = path.suffix.lower()
    if suffix not in PERFORMANCE_SUFFIXES:
        raise InputError(f"unsupported performance file type: {path}")
    warnings = ()
    try:
        if suffix in SMF_SUFFIXES:
            outcome = next(smfs)
            if isinstance(outcome, Exception):
                raise outcome
            performance, warnings = outcome
        else:
            performance = from_note_table(
                path.read_text(encoding="utf-8"), performer_id=path.stem, piece_id=piece_id
            )
    except (OSError, ValueError) as exc:  # unreadable, SmfParseError, a bad note, or not UTF-8
        raise InputError(f"{path}: {exc}") from exc
    for message in warnings:
        print(f"{PROG}: warning: {path.name}: {message}", file=sys.stderr)
    if len(performance) == 0:
        raise InputError(f"{path}: the performance has no notes")
    return performance


def _load_inputs(args: argparse.Namespace) -> tuple[list[Performance], Performance | None]:
    """The performances of ``--input``, then ``--reference``'s (None for the median).

    Every SMF among them goes to one ``parse_smfs`` call. The files are then
    taken in order, performances first, so the first bad one is the error,
    reported after the warnings of the files before it.
    """
    input_dir = Path(args.input)
    if not input_dir.exists():
        raise InputError(f"input path not found: {input_dir}")
    if input_dir.is_file():
        raise InputError("--input must be a directory of performance files")
    files = sorted(p for p in input_dir.iterdir() if p.suffix.lower() in PERFORMANCE_SUFFIXES)
    if len(files) < 2:
        raise InputError(f"need at least 2 performance files in {input_dir}")
    by_stem = {}
    for path in files:
        if by_stem.setdefault(path.stem, path) != path:
            raise InputError(
                f"{by_stem[path.stem]} and {path} share the performer id {path.stem!r}"
            )
    inputs = [(path, input_dir.name) for path in files]
    reference = None if args.reference == "median" else Path(args.reference)
    if reference is not None and reference.is_file():
        inputs.append((reference, reference.parent.name))
    smfs = _read_smfs([item for item in inputs if item[0].suffix.lower() in SMF_SUFFIXES])
    performances = [_load_performance(path, piece_id, smfs) for path, piece_id in inputs[: len(files)]]
    if reference is None:
        return performances, None
    if len(inputs) == len(files):
        raise InputError(f"reference file not found: {reference}")
    return performances, _load_performance(*inputs[-1], smfs)


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """The arguments' ``ExperimentConfig``; the config checks every value."""
    try:
        return ExperimentConfig(
            model_family=args.model,
            feature_set=args.features,
            weights=args.weights,
            n_groups=args.groups,
            n_bins=args.bins,
            bandwidths=args.bandwidths,
            gmm_k=args.gmm_k,
            seed=args.seed,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow((text, ""))
    return buf.getvalue()[:-1]


def _write(path: Path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# commands


def _align(args: argparse.Namespace) -> tuple[AlignedNoteTable, dict[str, str]]:
    """Read the inputs and align them; the outputs, by file name, start with
    ``alignment_report.json``."""
    performances, reference = _load_inputs(args)
    table, report = build_table(performances, reference=reference)
    report_text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    return table, {"alignment_report.json": report_text}


def _write_outputs(args: argparse.Namespace, files: dict[str, str]) -> Path:
    """Make ``--out`` and write ``files`` into it, once every output is
    computed, so a run that fails leaves no ``--out``."""
    out = _out_dir(args)
    for name, text in files.items():
        _write(out / name, text)
    return out


def cmd_align(args: argparse.Namespace) -> int:
    table, files = _align(args)

    # the ids are the only fields csv might quote; ints and float reprs it writes as they are
    performers = [_csv_field(pid) for pid in table.performer_ids]
    chunks = ["position,performer,onset,offset,pitch,dynamic\n"]
    # present cells in row-major order: by position, then by performer column;
    # converted to Python values a block at a time to keep few alive at once
    positions, cols = np.nonzero(table.present_mask())
    for start in range(0, len(positions), CSV_BLOCK):
        rows, cells = positions[start : start + CSV_BLOCK], cols[start : start + CSV_BLOCK]
        rows_out = zip(
            rows.tolist(),
            map(performers.__getitem__, cells.tolist()),
            table.onsets[rows, cells].tolist(),
            table.offsets[rows, cells].tolist(),
            table.pitches[rows, cells].tolist(),
            table.dynamics[rows, cells].astype(np.int64).tolist(),
        )
        chunks.append("".join(map("%d,%s,%r,%r,%d,%d\n".__mod__, rows_out)))
    files["aligned_table.csv"] = "".join(chunks)
    out = _write_outputs(args, files)
    print(
        f"aligned {len(table.performer_ids)} performances at {table.n_positions} positions"
        f" -> {out}"
    )
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    table, files = _align(args)
    norm = compute_norm(table)

    by_performer = extract_deviations(table, norm)
    series = [by_performer[pid][kind] for pid in sorted(by_performer) for kind in KINDS]
    files["features.csv"] = dump_features_csv(series)

    rows = zip(
        norm.positions.tolist(),
        norm.onsets.tolist(),
        norm.offsets.tolist(),
        norm.dynamics.tolist(),
        table.coverage().tolist(),
    )
    header = "position,mean_onset,mean_offset,mean_dynamic,coverage\n"
    files["norm.csv"] = header + "".join(map("%d,%r,%r,%r,%d\n".__mod__, rows))
    out = _write_outputs(args, files)
    print(f"wrote deviation features for {len(by_performer)} performers -> {out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    if args.jobs < 1:
        raise InputError(f"--jobs must be >= 1, got {args.jobs}")
    table, files = _align(args)
    # the kinds that the report and the sweep's subsets decide, weight 0 included
    dataset = DeviationDataset.from_table(table, KINDS if args.sweep else config.feature_set)
    result = None
    try:
        if args.sweep:
            # one KL table serves every subset and the main report
            result = evaluation.sweep(dataset, config, jobs=args.jobs)
            report = result.report
        else:
            report = run_cv(dataset, config, jobs=args.jobs)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    files["report.json"] = report.to_json()
    files["confusion.csv"] = evaluation.confusion_csv(report)
    files["confusion_normalized.csv"] = evaluation.confusion_csv(report, normalized=True)
    files["metrics.csv"] = evaluation.metrics_csv(report)

    if result is not None:
        files[f"sweep_{config.model_family}.csv"] = evaluation.sweep_csv(result.rows)
        best = result.rows[0]
        print(f"best subset: {best.feature_label} (precision {best.precision:.3f})")
    out = _write_outputs(args, files)

    scores = report.scores
    print(
        f"macro precision {scores.macro_precision:.3f} recall {scores.macro_recall:.3f} "
        f"F {scores.macro_f:.3f} over {report.confusion.sum()} trials -> {out}"
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    n_performers, n_notes, seed = args.performers, args.notes, args.seed
    if n_performers < 2:
        raise InputError("--performers must be at least 2")
    if n_notes < 2:
        raise InputError("--notes must be at least 2")
    if seed < 0:
        raise InputError(f"--seed must be non-negative, got {seed}")
    try:
        profiles = synth.default_profiles(n_performers, base_seed=seed, separation=args.separation)
    except ValueError as exc:  # a profile out of range
        raise InputError(f"--separation {args.separation} gives a bad profile: {exc}") from exc
    out = _out_dir(args)

    score = synth.generate_score(n_notes, seed)
    width = len(str(n_performers))

    midi_dir = out / "performances"
    csv_dir = out / "note_tables"
    midi_dir.mkdir(exist_ok=True)
    csv_dir.mkdir(exist_ok=True)

    def write(performance: Performance, midi: Path, note_table: Path) -> None:
        # the note table is the quantized performance: what re-reading the SMF yields
        data = write_smf(performance)
        midi.write_bytes(data)
        _write(note_table, to_note_table(parse_smf(data)))

    write(score, out / "score.mid", out / "score.csv")
    for i, profile in enumerate(profiles):
        pid = f"p{i + 1:0{width}d}"
        rendered = synth.render_performer(score, profile, pid)
        write(rendered, midi_dir / f"{pid}.mid", csv_dir / f"{pid}.csv")

    manifest = {
        "n_performers": n_performers,
        "n_notes": n_notes,
        "seed": seed,
        "separation": args.separation,
        "profiles": [asdict(p) for p in profiles],
    }
    _write(out / "profiles.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"wrote {n_performers} synthetic performances of {n_notes} notes -> {out}")
    return 0


if __name__ == "__main__":
    entry()
