import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pianist_id
from conftest import END_OF_TRACK, note_off, note_on, simple_performance, smf_bytes
from pianist_id import cli
from pianist_id.alignment import build_table
from pianist_id.cli import main
from pianist_id.midi_io import from_note_table, parse_smf, write_smf


def write_midi_dir(tmp_path, performances, name="perfs"):
    d = tmp_path / name
    d.mkdir()
    for perf in performances:
        (d / f"{perf.performer_id}.mid").write_bytes(write_smf(perf))
    return d


@pytest.fixture
def trio_dir(tmp_path):
    onsets = [0.0, 0.5, 1.0, 1.5, 2.25]
    pitches = [60, 64, 67, 65, 62]
    perfs = [
        simple_performance(onsets, pitches, performer_id=f"p{i}") for i in range(1, 4)
    ]
    return write_midi_dir(tmp_path, perfs)


class TestExitCodes:
    def test_no_command_prints_help_and_fails(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_module_runs_as_a_script(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(pianist_id.__file__).parents[1]))

        def run(*args):
            cmd = [sys.executable, "-m", "pianist_id.cli", *args]
            return subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True)

        synth = run("synth", "--performers", "2", "--notes", "4", "--out", "d")
        assert synth.returncode == 0, synth.stderr
        assert (tmp_path / "d" / "profiles.json").is_file()
        assert run().returncode == 2

    def test_missing_input_path_exits_2(self, tmp_path, capsys):
        code = main(["align", "--input", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_dangling_note_on_warns_once_and_align_succeeds(self, trio_dir, tmp_path, capsys):
        (trio_dir / "p4.mid").write_bytes(
            smf_bytes([note_on(0, 60, 64), note_on(240, 64, 60), note_off(240, 64), END_OF_TRACK])
        )
        assert main(["align", "--input", str(trio_dir), "--out", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err
        assert err == "pianist-id: warning: p4.mid: dangling note-on (pitch 60) closed at final tick 480\n"
        assert (tmp_path / "out" / "aligned_table.csv").is_file()

    def test_unexpected_error_exits_1_with_a_traceback(self, trio_dir, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("an unexpected failure")

        monkeypatch.setattr(cli, "build_table", fail)
        out = tmp_path / "out"
        assert main(["align", "--input", str(trio_dir), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):\n"), err
        assert err.endswith("RuntimeError: an unexpected failure\n"), err
        assert not out.exists()

    def test_weights_that_are_not_numbers_exit_2_with_the_argparse_message(self, trio_dir, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["evaluate", "--input", str(trio_dir), "--out", str(out), "--weights", "1,x,1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: pianist-id evaluate"), err
        assert err.endswith(
            "pianist-id evaluate: error: argument --weights: could not convert string to float: 'x'\n"
        ), err
        assert not out.exists()

    def test_bad_option_values_exit_2(self, trio_dir, tmp_path, capsys):
        evaluate = ["evaluate", "--input", str(trio_dir), "--out", str(tmp_path / "o")]
        synth = ["synth", "--out", str(tmp_path / "s")]
        kde = evaluate + ["--groups", "2", "--model", "kde", "--features", "IOI,DL,ND"]
        cases = [
            (evaluate + ["--features", "OT,BOGUS"], "unknown feature"),
            # an explicit 0 is a value to check, not a request for the default
            (evaluate + ["--groups", "0"], "at least 2 groups"),
            (evaluate + ["--groups", "2", "--bins", "0"], "n_bins must be >= 1"),
            (evaluate + ["--groups", "2", "--model", "gmm", "--gmm-k", "0"], "k must be >= 1"),
            (evaluate + ["--groups", "2", "--model", "gmm", "--gmm-k", "5"], "exceeds the component cap 3"),
            # non-finite values are rejected before any fit
            (kde + ["--weights", "nan,1,1"], "weights must be finite and non-negative"),
            (kde + ["--weights", "inf,1,1"], "weights must be finite and non-negative"),
            (evaluate + ["--weights", "0,0,0,0,0"], "fusion weights must not all be 0"),
            (kde + ["--bandwidths", "IOI=inf"], "bandwidth for IOI must be positive and finite"),
            (kde + ["--bandwidths", "DL=nan"], "bandwidth for DL must be positive and finite"),
            (kde + ["--bandwidths", "XX=0.1"], "unknown feature kind in bandwidths: 'XX'"),
            (kde + ["--bandwidths", "IOI=0.01,IOI=0.5"], "bandwidths must not repeat kinds"),
            (synth + ["--performers", "0"], "--performers must be at least 2"),
            (synth + ["--notes", "0"], "--notes must be at least 2"),
            (synth + ["--seed", "-1"], "--seed must be non-negative, got -1"),
            # every model family refuses it, not only GMM, whose fits are seeded
            (evaluate + ["--seed", "-1"], "seed must be non-negative, got -1"),
            (kde + ["--seed", "-1"], "seed must be non-negative, got -1"),
            (evaluate + ["--groups", "2", "--model", "gmm", "--seed", "-1"], "seed must be non-negative, got -1"),
        ]
        for argv, message in cases:
            assert main(argv) == 2, argv
            assert message in capsys.readouterr().err
            # settings are checked before any file is aligned or any output written
            assert not (tmp_path / "o" / "alignment_report.json").exists(), argv
            assert not (tmp_path / "o").exists() and not (tmp_path / "s").exists(), argv

    @pytest.mark.parametrize(
        "case",
        ["missing config", "config not an object", "reference type", "missing reference",
         "input is a file", "one performance", "jobs 0"],
    )
    def test_input_errors_exit_2_with_one_line_and_no_out(self, case, trio_dir, tmp_path, capsys):
        (tmp_path / "list.json").write_text("[1]")
        (tmp_path / "ref.txt").write_text("60\n")
        (tmp_path / "solo").mkdir()
        (tmp_path / "solo" / "p1.mid").write_bytes((trio_dir / "p1.mid").read_bytes())
        align = ["align", "--input", str(trio_dir)]
        argv, message = {
            "missing config": (align + ["--config", str(tmp_path / "nope.json")],
                               f"config file not found: {tmp_path / 'nope.json'}"),
            "config not an object": (align + ["--config", str(tmp_path / "list.json")],
                                     "config file must hold a JSON object"),
            "reference type": (align + ["--reference", str(tmp_path / "ref.txt")],
                               f"unsupported performance file type: {tmp_path / 'ref.txt'}"),
            "missing reference": (align + ["--reference", str(tmp_path / "nope.mid")],
                                  f"reference file not found: {tmp_path / 'nope.mid'}"),
            "input is a file": (["align", "--input", str(trio_dir / "p1.mid")],
                                "--input must be a directory of performance files"),
            "one performance": (["align", "--input", str(tmp_path / "solo")],
                                f"need at least 2 performance files in {tmp_path / 'solo'}"),
            "jobs 0": (["evaluate", "--input", str(trio_dir), "--groups", "2", "--jobs", "0"],
                       "--jobs must be >= 1, got 0"),
        }[case]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"pianist-id: error: {message}\n"
        assert not out.exists()

    def test_malformed_performance_files_exit_2_naming_the_file(self, trio_dir, tmp_path, capsys):
        header = b"onset,offset,pitch,dynamic\n"
        cases = [
            ("align", "p4.mid", (trio_dir / "p1.mid").read_bytes()[:30],
             "track chunk length runs past end of file (byte offset 18)"),
            ("align", "p4.csv", header + b"0.5,0.25,60,64\n", "offset must exceed onset"),
            ("align", "p4.csv", header + b"0.5,0.75,60\n", "line 2: expected 4 fields"),
            ("align", "p4.csv", header + b"0.0,0.5,60,64\n0.5,0.75,62.0,64\n",
             "line 3: invalid literal for int() with base 10: '62.0'"),
            ("align", "p4.csv", b"\xff\xfe\x00", "codec can't decode"),
            # a non-finite time used to pass the parser and fail in the features
            ("features", "p4.csv", header + b"0.5,inf,60,64\n", "offset must be finite"),
        ]
        for i, (command, name, content, message) in enumerate(cases):
            d = tmp_path / f"case{i}"
            d.mkdir()
            for good in trio_dir.iterdir():
                (d / good.name).write_bytes(good.read_bytes())
            (d / name).write_bytes(content)
            assert main([command, "--input", str(d), "--out", str(tmp_path / f"out{i}")]) == 2
            err = capsys.readouterr().err
            assert f"{d / name}: " in err and message in err, err
            assert "Traceback" not in err

    def test_the_first_bad_file_is_the_error_after_earlier_warnings(self, trio_dir, tmp_path, capsys):
        good = (trio_dir / "p1.mid").read_bytes()
        dangling = smf_bytes([note_on(0, 60, 64), note_on(240, 64, 60), note_off(240, 64), END_OF_TRACK])
        bad_csv = b"onset,offset,pitch,dynamic\n0.5,0.25,60,64\n"
        warning = "pianist-id: warning: p1.mid: dangling note-on (pitch 60) closed at final tick 480\n"
        truncated = "track chunk length runs past end of file (byte offset 18)"
        d = tmp_path / "in"
        d.mkdir()
        # the SMFs are p1 (warns), p2 (bad), p4 and p5 (bad); the note table p3 is bad too
        for name, content in (("p1.mid", dangling), ("p2.mid", good[:30]), ("p3.csv", bad_csv),
                              ("p4.mid", good), ("p5.mid", b"RIFF" + good[4:])):
            (d / name).write_bytes(content)
        bad_reference = tmp_path / "score.mid"
        bad_reference.write_bytes(good[:40])
        out = tmp_path / "out"
        cases = [
            ([], f"pianist-id: error: {d / 'p2.mid'}: {truncated}\n"),
            # performances fail before a bad reference
            (["--reference", str(bad_reference)], f"pianist-id: error: {d / 'p2.mid'}: {truncated}\n"),
        ]
        for argv, error in cases:
            assert main(["align", "--input", str(d), "--out", str(out)] + argv) == 2
            assert capsys.readouterr().err == warning + error
            assert not out.exists()
        # with p2 mended, the note table before p5 is the error
        (d / "p2.mid").write_bytes(good)
        assert main(["align", "--input", str(d), "--out", str(out)]) == 2
        assert capsys.readouterr().err == warning + (
            f"pianist-id: error: {d / 'p3.csv'}: offset must exceed onset, got onset=0.5 offset=0.25\n"
        )
        # and with every performance mended, the reference fails after their warnings
        (d / "p3.csv").unlink()
        (d / "p5.mid").write_bytes(good)
        assert main(["align", "--input", str(d), "--out", str(out), "--reference", str(bad_reference)]) == 2
        assert capsys.readouterr().err == warning + f"pianist-id: error: {bad_reference}: {truncated}\n"
        assert not out.exists()

    def test_unreadable_performance_file_exits_2_naming_it(self, trio_dir, tmp_path, capsys):
        d = tmp_path / "in"
        d.mkdir()
        for good in trio_dir.iterdir():
            (d / good.name).write_bytes(good.read_bytes())
        (d / "p4.mid").mkdir()  # a directory where a file is expected
        out = tmp_path / "out"
        assert main(["align", "--input", str(d), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{d / 'p4.mid'}: " in err and "Traceback" not in err, err
        assert not out.exists()

    def test_files_that_cannot_make_a_table_exit_2_before_writing(self, trio_dir, tmp_path, capsys):
        header = "onset,offset,pitch,dynamic\n"
        dup, empty = tmp_path / "dup", tmp_path / "empty"
        for d in (dup, empty):
            d.mkdir()
            for good in trio_dir.iterdir():
                (d / good.name).write_bytes(good.read_bytes())
        (dup / "p1.csv").write_text(header + "0.0,0.5,60,64\n")
        (empty / "p4.csv").write_text(header)
        out = tmp_path / "out"
        cases = [
            (["align", "--input", str(dup)],
             f"{dup / 'p1.csv'} and {dup / 'p1.mid'} share the performer id 'p1'"),
            (["features", "--input", str(empty)],
             f"{empty / 'p4.csv'}: the performance has no notes"),
            (["align", "--input", str(trio_dir), "--reference", str(empty / "p4.csv")],
             f"{empty / 'p4.csv'}: the performance has no notes"),
        ]
        for argv, message in cases:
            assert main(argv + ["--out", str(out)]) == 2, argv
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err, err
            assert not out.exists(), argv


class TestAlign:
    def test_identical_inputs_give_identity_report(self, trio_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["align", "--input", str(trio_dir), "--out", str(out)]) == 0
        report = json.loads((out / "alignment_report.json").read_text())
        assert report["n_positions"] == 5
        for stats in report["per_performer"].values():
            assert stats["pairs"] == 5
            assert stats["insertions"] == 0 and stats["deletions"] == 0
        table_lines = (out / "aligned_table.csv").read_text().splitlines()
        assert table_lines[0] == "position,performer,onset,offset,pitch,dynamic"
        assert len(table_lines) == 1 + 5 * 3

    def test_inserted_note_reported_as_insertion(self, tmp_path):
        base = [0.0, 0.5, 1.0, 1.5]
        pitches = [60, 64, 67, 65]
        ref = simple_performance(base, pitches, performer_id="ref")
        extra = simple_performance(
            base[:2] + [0.75] + base[2:], pitches[:2] + [94] + pitches[2:], performer_id="extra"
        )
        d = write_midi_dir(tmp_path, [ref, extra])
        out = tmp_path / "out"
        code = main(
            ["align", "--input", str(d), "--reference", str(d / "ref.mid"), "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "alignment_report.json").read_text())
        assert report["per_performer"]["extra"]["insertions"] == 1

    def test_aligned_table_quotes_performer_ids_as_csv_does(self, tmp_path):
        onsets = [0.0, 0.5, 1.0, 1.5, 2.25]
        pitches = [60, 64, 67, 65, 62]
        perfs = [
            simple_performance(onsets, pitches, performer_id="p,1"),
            simple_performance(onsets[1:], pitches[1:], dynamics=80, performer_id='p"2'),
            simple_performance([o * 1.1 for o in onsets], pitches, performer_id="p3"),
        ]
        d = write_midi_dir(tmp_path, perfs)
        out = tmp_path / "out"
        assert main(["align", "--input", str(d), "--out", str(out)]) == 0

        parsed = [
            parse_smf(path.read_bytes(), performer_id=path.stem, piece_id=d.name)
            for path in sorted(d.iterdir())
        ]
        table, _ = build_table(parsed)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["position", "performer", "onset", "offset", "pitch", "dynamic"])
        for row in range(table.n_positions):
            for col, pid in enumerate(table.performer_ids):
                if not np.isnan(table.onsets[row, col]):
                    writer.writerow([
                        row, pid, repr(float(table.onsets[row, col])),
                        repr(float(table.offsets[row, col])), int(table.pitches[row, col]),
                        int(table.dynamics[row, col]),
                    ])
        written = (out / "aligned_table.csv").read_text()
        assert '"p,1"' in written and '"p""2"' in written
        assert written == expected.getvalue()


class TestFeatures:
    def test_identical_performers_dump_all_zeros(self, tmp_path):
        # 4 copies: the across-performer mean of 4 equal floats is exact, so
        # the norm coincides with every performance and deviations are 0.0
        onsets = [0.0, 0.5, 1.0, 1.5, 2.25]
        pitches = [60, 64, 67, 65, 62]
        perfs = [
            simple_performance(onsets, pitches, performer_id=f"p{i}") for i in range(1, 5)
        ]
        d = write_midi_dir(tmp_path, perfs)
        out = tmp_path / "out"
        assert main(["features", "--input", str(d), "--out", str(out)]) == 0
        lines = (out / "features.csv").read_text().splitlines()
        assert lines[0] == "performer,kind,position,value"
        assert all(line.endswith(",0.0") for line in lines[1:])
        # 4 performers x (3 point kinds x 5 + 2 pair kinds x 4)
        assert len(lines) - 1 == 4 * (3 * 5 + 2 * 4)

    def test_feature_dump_bytes_are_deterministic(self, trio_dir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["features", "--input", str(trio_dir), "--out", str(out_a)]) == 0
        assert main(["features", "--input", str(trio_dir), "--out", str(out_b)]) == 0
        for name in ("features.csv", "norm.csv", "alignment_report.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSynthAndEvaluate:
    def test_synth_is_reproducible_and_reparses_exactly(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["synth", "--performers", "3", "--notes", "250", "--seed", "5"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for rel in ("profiles.json", "performances/p1.mid", "note_tables/p2.csv"):
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
        # SMF and note-table CSV describe the same quantized performance
        for pid in ("p1", "p2", "p3"):
            from_midi = parse_smf(
                (out_a / "performances" / f"{pid}.mid").read_bytes(), performer_id=pid
            )
            from_csv = from_note_table(
                (out_a / "note_tables" / f"{pid}.csv").read_text(), performer_id=pid
            )
            assert from_midi.notes == from_csv.notes

    @pytest.mark.parametrize("separation", ["4", "-5", "nan"])
    def test_separation_out_of_range_exits_2_before_writing(self, tmp_path, capsys, separation):
        out = tmp_path / "s"
        args = ["synth", "--performers", "3", "--notes", "20", "--separation", separation]
        assert main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("pianist-id: error: --separation ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_evaluate_outputs_and_jobs_independence(self, tmp_path):
        data = tmp_path / "data"
        assert main(
            ["synth", "--performers", "3", "--notes", "400", "--seed", "6", "--out", str(data)]
        ) == 0
        outs = []
        for jobs, name in ((1, "j1"), (3, "j3")):
            out = tmp_path / name
            code = main(
                [
                    "evaluate",
                    "--input",
                    str(data / "performances"),
                    "--out",
                    str(out),
                    "--model",
                    "histogram",
                    "--features",
                    "IOI,DL,ND",
                    "--groups",
                    "4",
                    "--jobs",
                    str(jobs),
                ]
            )
            assert code == 0
            outs.append(out)
        report_a = (outs[0] / "report.json").read_bytes()
        report_b = (outs[1] / "report.json").read_bytes()
        assert report_a == report_b
        for name in ("confusion.csv", "confusion_normalized.csv", "metrics.csv"):
            assert (outs[0] / name).exists()
        alignment = json.loads((outs[0] / "alignment_report.json").read_text())
        assert sorted(alignment["per_performer"]) == ["p1", "p2", "p3"]
        report = json.loads(report_a)
        assert report["metrics"]["macro_precision"] == 1.0

    def test_sweep_csv_has_table_layout(self, tmp_path):
        data = tmp_path / "data"
        assert main(
            ["synth", "--performers", "2", "--notes", "200", "--seed", "8", "--out", str(data)]
        ) == 0
        args = ["evaluate", "--input", str(data / "performances"), "--features", "IOI,DL",
                "--weights", "0.5,2", "--groups", "4"]
        out, plain = tmp_path / "out", tmp_path / "plain"
        assert main(args + ["--out", str(out), "--sweep"]) == 0
        lines = (out / "sweep_histogram.csv").read_text().splitlines()
        assert lines[0] == "Feature,Precision,Recall,F-score"
        assert len(lines) == 1 + 26
        # the main report comes from the sweep's KL table and equals a plain run's
        assert main(args + ["--out", str(plain)]) == 0
        for name in ("report.json", "alignment_report.json"):
            assert (out / name).read_bytes() == (plain / name).read_bytes()

    @pytest.mark.parametrize("model", ["histogram", "kde", "gmm"])
    def test_metrics_cells_are_numbers_and_the_report_is_jsons_indent_form(self, tmp_path, model):
        data = tmp_path / "data"
        assert main(["synth", "--performers", "3", "--notes", "120", "--seed", "3", "--out", str(data)]) == 0
        out = tmp_path / "out"
        assert main(["evaluate", "--input", str(data / "performances"), "--out", str(out),
                     "--model", model, "--features", "IOI,ND", "--groups", "3", "--sweep"]) == 0
        text = (out / "report.json").read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        rows = list(csv.reader(io.StringIO((out / "metrics.csv").read_text())))
        assert [row[0] for row in rows] == ["class", "p1", "p2", "p3", "macro"]
        cells = [float(cell) for row in rows[1:] for cell in row[1:]]
        assert len(cells) == 12 and any(cells)

    def test_weights_that_overflow_the_fused_kl_exit_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--performers", "5", "--notes", "600", "--seed", "7", "--out", str(data)]) == 0
        capsys.readouterr()
        code = main(["evaluate", "--input", str(data / "performances"), "--out", str(tmp_path / "out"),
                     "--features", "IOI,DL,ND", "--weights", "1e308,1e308,1e308", "--groups", "4"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err == (
            "pianist-id: error: fusion weights overflow the fused KL to inf;"
            " only the weights' ratios matter, so scale them down\n"
        )
        assert not (tmp_path / "out" / "report.json").exists()

    def test_evaluate_that_fails_after_aligning_leaves_no_out_directory(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--performers", "3", "--notes", "120", "--seed", "3", "--out", str(data)]) == 0
        # p3 plays only the first 3 of 16 notes, so its training pool for test group 0 is empty
        short = tmp_path / "short"
        short.mkdir()
        for pid, n in (("p1", 16), ("p2", 16), ("p3", 3)):
            rows = [f"{0.5 * i!r},{0.5 * i + 0.3!r},{60 + i},{64 + 7 * i % 20}\n" for i in range(n)]
            (short / f"{pid}.csv").write_text("onset,offset,pitch,dynamic\n" + "".join(rows))
        cases = [
            (["--input", str(data / "performances"), "--groups", "3", "--features", "IOI,DL,ND",
              "--weights", "1e308,1e308,1e308"], "fusion weights overflow the fused KL to inf"),
            (["--input", str(short), "--groups", "4"],
             "cannot fit the OT histogram to the training pool for test group 0 of performer 'p3'"),
        ]
        capsys.readouterr()
        out = tmp_path / "out"
        for argv, message in cases:
            assert main(["evaluate", "--out", str(out)] + argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"pianist-id: error: {message}") and err.count("\n") == 1, err
            assert not out.exists(), argv

    def test_histogram_of_a_round_off_span_is_widened(self, tmp_path):
        # p1's DL deviations are 10.333333333333329 and ...336, 4 ulps apart: too small a
        # span for 50 bins at 0.1% padding, so the histogram widens it by 0.5 per side
        d = tmp_path / "in"
        d.mkdir()
        for pid, louder in (("p1", 0), ("p2", 0), ("p3", 31)):
            rows = [
                f"{0.5 * i!r},{0.5 * i + 0.3!r},{60 + i % 12},{40 + 7 * i % 50 + louder}\n"
                for i in range(40)
            ]
            (d / f"{pid}.csv").write_text("onset,offset,pitch,dynamic\n" + "".join(rows))
        out = tmp_path / "out"
        assert main(["evaluate", "--input", str(d), "--out", str(out), "--features", "DL",
                     "--groups", "2"]) == 0
        assert len(json.loads((out / "report.json").read_text())["trials"]) == 6


class TestConfigFile:
    def test_config_file_supplies_missing_flags(self, trio_dir, tmp_path):
        out = tmp_path / "out"
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"input": str(trio_dir), "out": str(out)}))
        assert main(["align", "--config", str(config)]) == 0
        assert (out / "alignment_report.json").exists()

    def test_flags_override_config_file(self, trio_dir, tmp_path):
        flag_out = tmp_path / "flag_out"
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"input": str(trio_dir), "out": str(tmp_path / "cfg_out")})
        )
        assert main(["align", "--config", str(config), "--out", str(flag_out)]) == 0
        assert flag_out.exists()
        assert not (tmp_path / "cfg_out").exists()

    def test_bad_config_file_exits_2(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{nope")
        assert main(["align", "--config", str(config)]) == 2

    def test_bad_config_values_exit_2_before_writing(self, trio_dir, tmp_path, capsys):
        out = tmp_path / "out"
        evaluate = {"input": str(trio_dir), "out": str(out), "groups": 2}
        cases = [
            ("evaluate", {**evaluate, "seed": "x"}, "--seed: invalid int value: 'x'"),
            ("evaluate", {**evaluate, "sweep": "no"}, "--sweep: ignored explicit argument 'no'"),
            ("evaluate", {**evaluate, "bins": 10.5}, "--bins: invalid int value: '10.5'"),
            ("evaluate", {**evaluate, "seed": 1.5, "model": "gmm"}, "--seed: invalid int value: '1.5'"),
            ("evaluate", {**evaluate, "groups": True}, "--groups: expected one argument"),
            ("evaluate", {**evaluate, "bandwidths": {"IOI": "wide"}}, "got 'IOI=wide'"),
            ("synth", {"out": str(out), "performers": 2.5}, "--performers: invalid int value: '2.5'"),
        ]
        for i, (command, settings, message) in enumerate(cases):
            config = tmp_path / f"bad{i}.json"
            config.write_text(json.dumps(settings))
            assert main([command, "--config", str(config)]) == 2, settings
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err, err
            assert not out.exists(), settings

    def test_config_values_are_parsed_as_their_flags(self, tmp_path):
        data = tmp_path / "data"
        argv = ["synth", "--performers", "3", "--notes", "200", "--seed", "4", "--out", str(data)]
        assert main(argv) == 0
        flags = ["--model", "kde", "--features", "IOI,DL", "--bandwidths", "IOI=0.02",
                 "--weights", "0.5,2", "--groups", "4", "--jobs", "2", "--sweep"]
        settings = {"model": "kde", "features": ["IOI", "DL"], "bandwidths": {"IOI": 0.02},
                    "weights": [0.5, 2], "groups": "4", "jobs": "2", "sweep": True, "seed": None}
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"input": str(data / "performances"), **settings}))
        by_flags, by_config = tmp_path / "flags", tmp_path / "config"
        argv = ["evaluate", "--input", str(data / "performances"), "--out", str(by_flags)]
        assert main(argv + flags) == 0
        assert main(["evaluate", "--config", str(config), "--out", str(by_config)]) == 0
        names = sorted(p.name for p in by_flags.iterdir())
        assert "sweep_kde.csv" in names and names == sorted(p.name for p in by_config.iterdir())
        for name in names:
            assert (by_flags / name).read_bytes() == (by_config / name).read_bytes(), name
        # a string that parses as the flag's type is accepted, as on the command line
        config.write_text(json.dumps({"performers": "2", "notes": "50", "separation": "0.5"}))
        synth_flags, synth_config = tmp_path / "synth_flags", tmp_path / "synth_config"
        argv = ["synth", "--performers", "2", "--notes", "50", "--separation", "0.5"]
        assert main(argv + ["--out", str(synth_flags)]) == 0
        assert main(["synth", "--config", str(config), "--out", str(synth_config)]) == 0
        assert (synth_flags / "profiles.json").read_bytes() == (
            synth_config / "profiles.json"
        ).read_bytes()

    def test_jobs_belongs_to_evaluate(self, trio_dir, tmp_path, capsys):
        out = tmp_path / "out"
        inputs = ["--input", str(trio_dir)]
        for command in (["align", *inputs], ["features", *inputs], ["synth"]):
            assert main(command + ["--out", str(out), "--jobs", "2"]) == 2, command
            assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
            assert not out.exists(), command
        # a config file's keys that name no option of the command are ignored
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"input": str(trio_dir), "jobs": 2, "groups": 4}))
        assert main(["align", "--config", str(config), "--out", str(out)]) == 0

    def test_seed_belongs_to_evaluate_and_synth(self, trio_dir, tmp_path, capsys):
        out = tmp_path / "out"
        for command in ("align", "features"):
            assert main([command, "--input", str(trio_dir), "--out", str(out), "--seed", "5"]) == 2
            assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
            assert not out.exists(), command
        # like any key the command lacks, a config file's seed is ignored
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"input": str(trio_dir), "seed": 5}))
        assert main(["align", "--config", str(config), "--out", str(out)]) == 0

    def test_config_values_do_not_leak_into_later_calls(self, tmp_path, capsys):
        def help_texts():
            capsys.readouterr()
            texts = []
            for argv in ([], ["evaluate"], ["align"], ["synth"]):
                assert main(argv + ["--help"]) == 0
                texts.append(capsys.readouterr().out)
            return texts

        before = help_texts()
        data = tmp_path / "data"
        assert main(["synth", "--performers", "3", "--notes", "200", "--out", str(data)]) == 0
        inputs = str(data / "performances")
        evaluate = ["evaluate", "--input", inputs, "--groups", "4"]
        assert main(evaluate + ["--out", str(tmp_path / "first")]) == 0
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "input": inputs, "out": str(tmp_path / "config"), "model": "gmm",
            "features": ["IOI", "DL"], "weights": [1, 2], "groups": 2, "gmm_k": 2, "seed": 3,
        }))
        assert main(["evaluate", "--config", str(config)]) == 0
        used = json.loads((tmp_path / "config" / "report.json").read_text())["config"]
        assert (used["model_family"], used["gmm_k"], used["seed"]) == ("gmm", 2, 3)
        # flags only: every setting is back at its default, and --out is required again
        assert main(evaluate + ["--out", str(tmp_path / "again")]) == 0
        for name in ("report.json", "metrics.csv"):
            assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "first" / name).read_bytes()
        assert main(["align", "--input", inputs]) == 2
        assert "required: --out" in capsys.readouterr().err
        assert main(["align", "--input", inputs, "--out", str(tmp_path / "align")]) == 0
        assert (tmp_path / "align" / "alignment_report.json").read_bytes() == (
            tmp_path / "first" / "alignment_report.json"
        ).read_bytes()
        assert help_texts() == before
