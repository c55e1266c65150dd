"""Smoke test of the benchmark, mostly on tiny inputs.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``
(or ``python3 perfbench/test_smoke.py``). It checks that every workload
prints every metric named in BENCHMARK.json with its unit, that traced self
times add up to the traced op time, that corrupted outputs count as failed
ops, and that the digests pinned in expected.json still hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pianist_id import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(name: str, seed: int = 3, size: str = "tiny"):
    """A Bench over freshly made inputs (the caller keeps the tempdir alive)."""
    tmp = tempfile.TemporaryDirectory()
    work = Path(tmp.name)
    workload = workloads.get_workload(name, size)
    workloads.make_inputs(workload, seed, work / "inputs")
    return tmp, run.Bench(workload, seed, size, work)


def _run(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_is_printed_with_its_unit():
    for workload in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload["name"], trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload["name"], trace)


def test_self_times_add_up_to_the_traced_op():
    for name in ("hist_sweep", "align_errors"):
        tmp, bench = _bench(name)
        with tmp:
            tracer = tracing.Tracer()
            outcome = bench.op(tracer)
            metrics = tracing.op_layer_metrics(tracer, tracer.finish_op(), outcome["write_bytes"])
            total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
            assert abs(total - metrics["trace.op_s"]) < 1e-6 * max(1.0, total)
            assert not bench.failures


def _corrupting(edit):
    """cli.main that runs the real command, then damages one output."""
    original = cli.main

    def main(argv):
        code = original(argv)
        edit(Path(argv[argv.index("--out") + 1]))
        return code

    return main


def _flip_byte(out: Path) -> None:
    path = out / "report.json"
    data = bytearray(path.read_bytes())
    at = data.index(b'"fused_kl"') + 30  # inside a number, so the JSON still parses
    data[at] = ord("1") if data[at] != ord("1") else ord("2")
    path.write_bytes(bytes(data))


def _drop_table_row(out: Path) -> None:
    path = out / "aligned_table.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def _drop_report_row(out: Path) -> None:
    path = out / "alignment_report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["per_performer"].pop(sorted(report["per_performer"])[0])
    path.write_text(json.dumps(report), encoding="utf-8")


def test_corrupted_outputs_count_as_failed_ops():
    cases = (("kde_cv", _flip_byte), ("align_errors", _drop_table_row),
             ("align_errors", _drop_report_row))
    for name, edit in cases:
        tmp, bench = _bench(name)
        with tmp:
            bench.op()
            assert not bench.failures
            original = cli.main
            cli.main = _corrupting(edit)
            try:
                bench.op()
            finally:
                cli.main = original
            assert len(bench.failures) == 1, (name, edit.__name__)
            bench.op()  # a clean op after the bad one passes again
            assert len(bench.failures) == 1


def test_pinned_digests_hold_at_the_default_seed():
    tmp, bench = _bench("hist_sweep", seed=7, size="default")
    with tmp:
        assert bench.pinned
        bench.op()
        assert not bench.failures


def test_injected_errors_are_recovered():
    tmp, bench = _bench("align_errors", seed=7)
    with tmp:
        assert bench.op()["quality"] == 1.0
        assert not bench.failures
        kinds = {e["kind"] for p in bench.manifest["performers"].values() for e in p["errors"]}
        assert kinds <= set(workloads.ERROR_KINDS)


if __name__ == "__main__":
    for test in [v for k, v in sorted(globals().items()) if k.startswith("test_")]:
        test()
        print(f"ok {test.__name__}")
