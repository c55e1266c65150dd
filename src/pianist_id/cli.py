"""Command-line front end: align, features, evaluate, synth.

Every option can also come from a JSON config file (--config); explicit
command-line flags win over config-file values. Commands are deterministic
under a fixed config and seed, independent of --jobs. Exit codes: 0 success,
2 usage or input error, 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import densities, evaluation, synth
from .alignment import build_table
from .evaluation import DeviationDataset, ExperimentConfig, run_cv
from .features import KINDS, compute_norm, dump_features_csv, extract_deviations
from .midi_io import (
    Performance,
    from_note_table,
    parse_smf_with_warnings,
    quantize_performance,
    to_note_table,
    write_smf,
)

PROG = "pianist-id"

#: Aligned-table cells written per block.
CSV_BLOCK = 256


class InputError(ValueError):
    """Bad user input (missing path, unknown feature name, ...); exit code 2."""


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        options = _merge_options(args)
        return args.func(options)
    except InputError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Identify pianists from MIDI performances of a shared piece.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="random seed (default 0)")
        p.add_argument(
            "--jobs", type=int,
            help="threads for the KDE kernel sums (default: cores); results do not depend on it",
        )

    p_align = sub.add_parser("align", help="align performances and dump the note table")
    add_common(p_align)
    p_align.add_argument("--input", help="directory of .mid/.midi/.csv performances")
    p_align.add_argument("--reference", help="'median' (default) or a reference file")
    p_align.set_defaults(func=cmd_align)

    p_feat = sub.add_parser("features", help="dump per-note deviation features")
    add_common(p_feat)
    p_feat.add_argument("--input", help="directory of .mid/.midi/.csv performances")
    p_feat.add_argument("--reference", help="'median' (default) or a reference file")
    p_feat.set_defaults(func=cmd_features)

    p_eval = sub.add_parser("evaluate", help="run LOGO cross-validation and report")
    add_common(p_eval)
    p_eval.add_argument("--input", help="directory of .mid/.midi/.csv performances")
    p_eval.add_argument("--reference", help="'median' (default) or a reference file")
    p_eval.add_argument("--model", help="histogram | kde | gmm (default histogram)")
    p_eval.add_argument("--features", help="comma list from OT,IOI,OTD,DL,ND")
    p_eval.add_argument("--weights", help="comma list of fusion weights (default all 1)")
    p_eval.add_argument("--bins", type=int, help="histogram bin count (default 50)")
    p_eval.add_argument(
        "--bandwidths", help="per-kind KDE bandwidth overrides, e.g. OT=1.2,IOI=0.01"
    )
    p_eval.add_argument("--gmm-k", type=int, dest="gmm_k", help="GMM components (default 3)")
    p_eval.add_argument("--groups", type=int, help="cross-validation groups (default 8)")
    p_eval.add_argument(
        "--sweep", action="store_true", default=None,
        help="also evaluate every feature subset of size >= 2 for the chosen model",
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_synth = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    add_common(p_synth)
    p_synth.add_argument("--performers", type=int, help="number of performers (default 9)")
    p_synth.add_argument("--notes", type=int, help="notes per performance (default 2000)")
    p_synth.add_argument(
        "--separation", type=float, help="profile separation factor (default 1.0)"
    )
    p_synth.set_defaults(func=cmd_synth)

    return parser


def _merge_options(args: argparse.Namespace) -> dict:
    """Config-file values fill in flags the user did not pass."""
    options = {k: v for k, v in vars(args).items() if k not in ("func", "command", "config")}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise InputError(f"config file not found: {path}")
        try:
            from_file = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise InputError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(from_file, dict):
            raise InputError("config file must hold a JSON object")
        for key, value in from_file.items():
            key = key.replace("-", "_")
            if key in options and options[key] is None:
                options[key] = value
    return options


def _require(options: dict, key: str):
    value = options.get(key)
    if value is None:
        raise InputError(f"--{key} is required (flag or config file)")
    return value


def _out_dir(options: dict) -> Path:
    out = Path(_require(options, "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _option(options: dict, key: str, default):
    """The option's value, or ``default`` when it was not given (0 counts as given)."""
    value = options.get(key)
    return default if value is None else value


def _jobs(options: dict) -> int:
    jobs = _option(options, "jobs", os.cpu_count() or 1)
    if jobs < 1:
        raise InputError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def _load_performance(path: Path, piece_id: str) -> Performance:
    """Read one performance file; malformed content is an input error naming the file."""
    performer_id = path.stem
    suffix = path.suffix.lower()
    if suffix not in (".mid", ".midi", ".csv"):
        raise InputError(f"unsupported performance file type: {path}")
    try:
        if suffix == ".csv":
            return from_note_table(
                path.read_text(encoding="utf-8"), performer_id=performer_id, piece_id=piece_id
            )
        performance, warnings = parse_smf_with_warnings(
            path.read_bytes(), performer_id=performer_id, piece_id=piece_id
        )
    except ValueError as exc:  # SmfParseError, a bad note, or text that is not UTF-8
        raise InputError(f"{path}: {exc}") from exc
    for message in warnings:
        print(f"{PROG}: warning: {path.name}: {message}", file=sys.stderr)
    return performance


def _load_performances(options: dict) -> list[Performance]:
    input_dir = Path(_require(options, "input"))
    if not input_dir.exists():
        raise InputError(f"input path not found: {input_dir}")
    if input_dir.is_file():
        raise InputError("--input must be a directory of performance files")
    files = sorted(
        p for p in input_dir.iterdir() if p.suffix.lower() in (".mid", ".midi", ".csv")
    )
    if len(files) < 2:
        raise InputError(f"need at least 2 performance files in {input_dir}")
    return [_load_performance(p, input_dir.name) for p in files]


def _load_reference(options: dict) -> Performance | None:
    reference = options.get("reference")
    if reference is None or reference == "median":
        return None
    path = Path(reference)
    if not path.is_file():
        raise InputError(f"reference file not found: {path}")
    return _load_performance(path, path.parent.name)


def _parse_features(options: dict) -> tuple[str, ...]:
    raw = options.get("features")
    if raw is None:
        return KINDS
    if isinstance(raw, str):
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    return tuple(raw)


def _parse_weights(options: dict) -> tuple[float, ...] | None:
    raw = options.get("weights")
    if raw is None:
        return None
    if isinstance(raw, str):
        parts = [part.strip() for part in raw.split(",") if part.strip()]
    else:
        parts = list(raw)
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"weights must be numbers: {exc}") from exc


def _parse_bandwidths(options: dict) -> tuple[tuple[str, float], ...]:
    """The ``--bandwidths`` overrides; ``ExperimentConfig`` fills in the other kinds."""
    raw = options.get("bandwidths")
    if raw is None:
        return ()
    if isinstance(raw, dict):
        overrides = raw
    else:
        overrides = {}
        for part in str(raw).split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise InputError(f"bandwidth override must look like KIND=VALUE: {part!r}")
            kind, value = part.split("=", 1)
            overrides[kind.strip()] = value
    parsed = []
    for kind, value in overrides.items():
        try:
            parsed.append((kind, float(value)))
        except ValueError as exc:
            raise InputError(f"bad bandwidth for {kind}: {value!r}") from exc
    return tuple(parsed)


def _experiment_config(options: dict) -> ExperimentConfig:
    """The options' ``ExperimentConfig``; the config checks every value."""
    try:
        return ExperimentConfig(
            model_family=_option(options, "model", "histogram"),
            feature_set=_parse_features(options),
            weights=_parse_weights(options),
            n_groups=_option(options, "groups", evaluation.DEFAULT_N_GROUPS),
            n_bins=_option(options, "bins", densities.DEFAULT_N_BINS),
            bandwidths=_parse_bandwidths(options),
            gmm_k=_option(options, "gmm_k", densities.DEFAULT_GMM_K),
            seed=_option(options, "seed", 0),
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _write(path: Path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# commands


def _align(performances: list[Performance], options: dict, out: Path):
    """The aligned note table; its alignment report goes to ``out/alignment_report.json``."""
    table, report = build_table(performances, reference=_load_reference(options))
    _write(
        out / "alignment_report.json",
        json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n",
    )
    return table


def cmd_align(options: dict) -> int:
    performances = _load_performances(options)
    out = _out_dir(options)
    table = _align(performances, options, out)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["position", "performer", "onset", "offset", "pitch", "dynamic"])
    # present cells in row-major order: by position, then by performer column;
    # converted to Python values a block at a time to keep few alive at once
    positions, cols = np.nonzero(table.present_mask())
    for start in range(0, len(positions), CSV_BLOCK):
        rows, cells = positions[start : start + CSV_BLOCK], cols[start : start + CSV_BLOCK]
        writer.writerows(
            zip(
                rows.tolist(),
                map(table.performer_ids.__getitem__, cells.tolist()),
                map(repr, table.onsets[rows, cells].tolist()),
                map(repr, table.offsets[rows, cells].tolist()),
                table.pitches[rows, cells].tolist(),
                table.dynamics[rows, cells].astype(np.int64).tolist(),
            )
        )
    _write(out / "aligned_table.csv", buf.getvalue())
    print(f"aligned {len(performances)} performances at {table.n_positions} positions -> {out}")
    return 0


def cmd_features(options: dict) -> int:
    performances = _load_performances(options)
    out = _out_dir(options)
    table = _align(performances, options, out)
    norm = compute_norm(table)

    by_performer = extract_deviations(table, norm)
    series = [by_performer[pid][kind] for pid in sorted(by_performer) for kind in KINDS]
    _write(out / "features.csv", dump_features_csv(series))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["position", "mean_onset", "mean_offset", "mean_dynamic", "coverage"])
    for i in range(len(norm)):
        writer.writerow(
            [
                int(norm.positions[i]),
                repr(float(norm.mean_onset[i])),
                repr(float(norm.mean_offset[i])),
                repr(float(norm.mean_dynamic[i])),
                int(norm.coverage[i]),
            ]
        )
    _write(out / "norm.csv", buf.getvalue())
    print(f"wrote deviation features for {len(by_performer)} performers -> {out}")
    return 0


def cmd_evaluate(options: dict) -> int:
    config = _experiment_config(options)
    jobs = _jobs(options)
    performances = _load_performances(options)
    out = _out_dir(options)

    table = _align(performances, options, out)
    norm = compute_norm(table)
    dataset = DeviationDataset.from_table(table, norm)
    result = None
    try:
        if options.get("sweep"):
            # the sweep's KL table covers every kind, so it also yields the main report
            result = evaluation.sweep(
                dataset, config, model_families=(config.model_family,), jobs=jobs
            )
            report = result.base_report
        else:
            report = run_cv(dataset, config, jobs=jobs)
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    _write(out / "report.json", report.to_json())
    _write(out / "confusion.csv", evaluation.confusion_csv(report))
    _write(out / "confusion_normalized.csv", evaluation.confusion_csv(report, normalized=True))
    _write(out / "metrics.csv", evaluation.metrics_csv(report))

    if result is not None:
        _write(out / f"sweep_{config.model_family}.csv", evaluation.sweep_csv(result.rows))
        best = result.best
        print(f"best subset: {best.feature_label} (precision {best.precision:.3f})")

    scores = report.scores
    print(
        f"macro precision {scores.macro_precision:.3f} recall {scores.macro_recall:.3f} "
        f"F {scores.macro_f:.3f} over {len(report.trials)} trials -> {out}"
    )
    return 0


def cmd_synth(options: dict) -> int:
    n_performers = _option(options, "performers", 9)
    n_notes = _option(options, "notes", 2000)
    seed = _option(options, "seed", 0)
    separation = _option(options, "separation", 1.0)
    if n_performers < 2:
        raise InputError("--performers must be at least 2")
    if n_notes < 2:
        raise InputError("--notes must be at least 2")
    out = _out_dir(options)

    score = synth.generate_score(n_notes, seed)
    profiles = synth.default_profiles(n_performers, base_seed=seed, separation=separation)
    width = len(str(n_performers))

    midi_dir = out / "performances"
    csv_dir = out / "note_tables"
    midi_dir.mkdir(exist_ok=True)
    csv_dir.mkdir(exist_ok=True)

    quantized_score = quantize_performance(score)
    (out / "score.mid").write_bytes(write_smf(score))
    _write(out / "score.csv", to_note_table(quantized_score))

    for i, profile in enumerate(profiles):
        pid = f"p{i + 1:0{width}d}"
        rendered = synth.render_performer(score, profile, pid)
        (midi_dir / f"{pid}.mid").write_bytes(write_smf(rendered))
        _write(csv_dir / f"{pid}.csv", to_note_table(quantize_performance(rendered)))

    manifest = {
        "n_performers": n_performers,
        "n_notes": n_notes,
        "seed": seed,
        "separation": separation,
        "profiles": [asdict(p) for p in profiles],
    }
    _write(out / "profiles.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"wrote {n_performers} synthetic performances of {n_notes} notes -> {out}")
    return 0
