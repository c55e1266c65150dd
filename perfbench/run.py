"""Outside-in benchmark of the pianist-id command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload hist_sweep --seed 7 --seconds 25 --trace 0

The workload's input files are made from the seed in a separate process
(``setup_s``; its memory stays out of ``peak_rss_mb``). Then one closed loop
runs the workload's op -- one ``pianist-id evaluate`` or ``align`` call,
driven in-process through ``pianist_id.cli.main`` -- back to back: the first
op is a warm-up, the rest are counted until ``--seconds`` have passed. Every
op's outputs are checked. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` interleaves traced ops with untraced ones and adds one op under
``tracemalloc`` to report per-layer metrics. Human-readable lines come first;
the last line of standard output is one JSON object.

``op_s``, ``cpu_s`` and ``setup_s`` are in reference-speed seconds: each
measured time is multiplied by a reference pass's nominal time over the mean
of the passes timed just before and after it, which takes out the host's
drifting speed (see calibration.py). The raw wall times are printed too.
Per-layer times are raw.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPAN_DIR = ROOT / ".perfbench_out"

# the program under test is this checkout's source tree, never an installed copy
if not (SRC / "pianist_id" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program source under {SRC}")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pianist_id import cli  # noqa: E402

if Path(cli.__file__).resolve().parent != (SRC / "pianist_id").resolve():
    sys.exit(f"perfbench: imported pianist_id from {cli.__file__}, not from {SRC}")

MIN_OPS = 3  # counted untraced ops per run, even when --seconds is short
MIN_TRACED_OPS = 2
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPS = 15
SUBPROCESS_TIMEOUT = 150

#: Metrics computed from sizes rather than counted, and their output units.
COMPUTED = {
    "alignment.dp_cells": "computed_count",
    "alignment.dp_move_bytes": "computed_B",
    "divergence.kde_kernel_evals": "computed_count",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default",
                        help="tiny inputs for the smoke test")
    parser.add_argument("--make-inputs", dest="make_inputs", metavar="DIR",
                        help=argparse.SUPPRESS)  # set-up child process
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    workload = workloads.get_workload(args.workload, args.size)
    if args.make_inputs:
        return _make_inputs_main(workload, args)

    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        setup = _run_setup(args, work)
        result = Bench(workload, args.seed, args.size, work).run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    metrics = result["metrics"]
    if args.trace:
        metrics.update(setup["layers"])
    else:
        metrics["setup_s"] = statistics.median(setup["setup_s"])
    _print_report(workload.name, args, result, setup)
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def unit_of(name: str) -> str:
    if name in COMPUTED:
        return COMPUTED[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "_rate")) or name == "quality":
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# set-up


def _run_setup(args, work: Path) -> dict:
    """Make the inputs in a child process; return its timings and layer metrics."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--make-inputs", str(work),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace), "--size", args.size,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: input set-up failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _make_inputs_main(workload, args) -> int:
    """Child process: make the inputs several times, keep the last pass.

    Each pass's time is rescaled by the reference passes around it, like an
    op's (see calibration.py).
    """
    dest = Path(args.make_inputs)
    tracer = tracing.Tracer() if args.trace else None
    times, layer_runs = [], []
    rep_dir = None
    reference = calibration.Reference()
    while len(times) < SETUP_MIN_REPS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPS
    ):
        if rep_dir is not None:
            shutil.rmtree(rep_dir)
        rep_dir = dest / f"rep{len(times)}"
        if tracer is not None:
            tracer.start_op(len(times))
        probes = tracing.installed(tracer, tracing.SETUP_PROBES) if tracer else contextlib.nullcontext()
        with probes:
            started = time.perf_counter()
            workloads.make_inputs(workload, args.seed, rep_dir)
            wall = time.perf_counter() - started
        times.append(wall * reference.scale())
        if tracer is not None:
            layer_runs.append(tracing.setup_layer_metrics(tracer, tracer.finish_op()))
    rep_dir.rename(dest / "inputs")
    layers = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]} if layer_runs else {}
    print(json.dumps({"setup_s": times, "layers": layers}))
    return 0


# ---------------------------------------------------------------------------
# ops


class Bench:
    """Runs one workload's ops against one set of inputs and checks each."""

    def __init__(self, workload, seed: int, size: str, work: Path):
        self.workload = workload
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.manifest = json.loads((self.inputs / "manifest.json").read_text(encoding="utf-8"))
        self.first_digests: dict | None = None
        expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        pinned = expected.get(workload.name)
        self.pinned = (
            pinned["sha256"] if pinned and pinned["seed"] == seed and size == "default" else None
        )
        self.argv = workloads.op_argv(workload, self.inputs, self.out)
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: calibration.Reference | None = None

    def op(self, tracer=None) -> dict:
        """Run one op (traced when ``tracer`` is given), check it, time it."""
        shutil.rmtree(self.out, ignore_errors=True)
        if self.reference is None:
            self.reference = calibration.Reference()
        sink = io.StringIO()
        probes = tracing.installed(tracer, tracing.OP_PROBES) if tracer else contextlib.nullcontext()
        if tracer:
            tracer.start_op(self.attempted)
        with probes, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cpu_start = _cpu_seconds()
            started = time.perf_counter()
            if tracer:
                code = tracer.call("cli.op", cli.main, self.argv)
            else:
                code = cli.main(self.argv)
            wall = time.perf_counter() - started
            cpu = _cpu_seconds() - cpu_start
        self.attempted += 1
        scale = self.reference.scale()
        result = {
            "op_s": wall * scale,
            "cpu_s": cpu * scale,
            "wall_s": wall,
            "reference_s": self.reference.last_s,
            "quality": None,
            "write_bytes": 0,
        }
        try:
            if code != 0:
                raise workloads.CheckFailed(f"exit code {code}: {sink.getvalue()[-500:]}")
            result["quality"] = workloads.check_outputs(self.workload, self.out, self.manifest)
            found = workloads.digests(self.workload, self.out)
            if self.first_digests is None:
                self.first_digests = found
            elif found != self.first_digests:
                raise workloads.CheckFailed("outputs differ from the first op's bytes")
            if self.pinned and any(found[name] != digest for name, digest in self.pinned.items()):
                raise workloads.CheckFailed("outputs differ from the digests in expected.json")
        except Exception as exc:  # any malformed output is a failed op, not a crash
            result["quality"] = None
            self.failures.append(f"{type(exc).__name__}: {exc}")
        result["write_bytes"] = sum(p.stat().st_size for p in self.out.glob("*") if p.is_file())
        return result

    def run(self, seconds: float, trace: bool) -> dict:
        """Warm up, then run ops until ``seconds`` have passed.

        Traced runs spend the window on one op under tracemalloc first, then
        on untraced and traced ops in turn.
        """
        self.op()  # warm-up: checked, not counted
        deadline = time.perf_counter() + seconds
        summary: dict = {}
        metrics: dict = {}
        tracer = tracing.Tracer() if trace else None
        if trace:
            started = time.perf_counter()
            metrics.update(self._alloc_pass())
            summary["alloc_pass_s"] = time.perf_counter() - started
        untraced, traced, layer_runs = [], [], []
        while True:
            untraced.append(self.op())
            if tracer is not None:
                traced.append(self.op(tracer))
                layer_runs.append(
                    tracing.op_layer_metrics(tracer, tracer.finish_op(), traced[-1]["write_bytes"])
                )
            enough = len(untraced) >= (MIN_TRACED_OPS if trace else MIN_OPS)
            if enough and time.perf_counter() >= deadline:
                break

        summary["samples"] = len(untraced)
        summary["op_s_all"] = [r["op_s"] for r in untraced]
        summary["wall_s_all"] = [r["wall_s"] for r in untraced]
        summary["reference_s"] = statistics.median(r["reference_s"] for r in untraced)
        wall_s = statistics.median(r["wall_s"] for r in untraced)
        if trace:
            for key in layer_runs[0]:
                metrics[key] = statistics.median(r[key] for r in layer_runs)
            metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall_s
            metrics["op_failure_rate"] = len(self.failures) / self.attempted
            summary["traced_samples"] = len(traced)
            _write_spans(self.workload.name, tracer.all_spans)
        else:
            quality = [r["quality"] for r in untraced if r["quality"] is not None]
            metrics = {
                "op_s": statistics.median(r["op_s"] for r in untraced),
                "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "quality": statistics.median(quality) if quality else 0.0,
            }
        return {
            "metrics": metrics,
            "summary": summary,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
        }

    def _alloc_pass(self) -> dict:
        """One more op with tracemalloc on: each layer's allocation peak."""
        tracer = tracing.Tracer(track_alloc=True)
        tracemalloc.start()
        try:
            self.op(tracer)
        finally:
            tracemalloc.stop()
        tracer.finish_op()
        return {f"{layer}.peak_alloc_mb": tracer.alloc_peaks.get(layer, 0.0) for layer in tracing.LAYERS}


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _write_spans(workload_name: str, spans) -> None:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans_{workload_name}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for sid, name, start, end, parent, op in spans:
            handle.write(json.dumps([op, sid, parent, name, start, end]) + "\n")


# ---------------------------------------------------------------------------
# report


def machine_record() -> dict:
    try:
        import numba  # noqa: F401  (only whether it imports matters)

        has_numba = True
    except ImportError:
        has_numba = False
    source = hashlib.sha256()
    for path in sorted((SRC / "pianist_id").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "mem_total_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": source.hexdigest(),
        "numba": has_numba,
    }


def _git_commit() -> str:
    """HEAD of the checkout's git repository, or 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _print_report(name: str, args, result: dict, setup: dict) -> None:
    print(f"machine: {json.dumps(machine_record(), sort_keys=True)}")
    summary = result["summary"]
    print(
        f"workload {name} seed {args.seed} size {args.size} trace {args.trace}: "
        f"{summary['samples']} counted ops (+1 warm-up), {len(setup['setup_s'])} set-up passes"
    )
    print("  op_s per counted op: " + " ".join(f"{t:.3f}" for t in summary["op_s_all"]))
    print("  wall seconds per counted op: " + " ".join(f"{t:.3f}" for t in summary["wall_s_all"]))
    print(f"  reference pass median {summary['reference_s'] * 1000:.1f} ms, "
          f"nominal {calibration.NOMINAL_S * 1000:.1f} ms")
    if "alloc_pass_s" in summary:
        print(f"  {summary['traced_samples']} traced ops; tracemalloc pass took {summary['alloc_pass_s']:.1f} s")
    if not args.trace:
        label = "error_recall" if name == "align_errors" else "macro_precision"
        print(f"  quality is {label}")
    print(f"  op_failure_rate = {result['failed']}/{result['attempted']} ops")
    for failure in result["failures"]:
        print(f"  failed op: {failure}")
    for metric, value in sorted(result["metrics"].items()):
        print(f"  {metric} = {value:.6g} {unit_of(metric)}")


if __name__ == "__main__":
    sys.exit(main())
