"""Smoke test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload at its smallest size (``--size smoke``) and checks that

* each run exits 0 and ends with the result line the benchmark promises,
  carrying every metric ``BENCHMARK.json`` names for that trace level, with
  its unit;
* two untraced runs with the same seed give identical deterministic counts:
  each operation's verdict and iteration count, the failed share and the
  undetermined share (a traced run also compares its traced and untraced
  passes itself);
* in each traced run, the layers' self times cover every traced operation's
  wall time but for a share within the tracing overhead,
  ``trace.overhead_share``, or within ``UNATTRIBUTED_FLOOR`` where that
  overhead reads lower: it is a difference of two throughputs and comes out
  near zero, or below it, when the machine's noise is larger than the cost
  of the wrappers;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's files,
  the benchmark exits non-zero without printing a result.

Exits 1 and names the first problem if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Benchmark code around a call (capturing the CLI's output) is not in any
# layer; on the smallest CLI operations, about 1 ms each, it is up to 3%.
UNATTRIBUTED_FLOOR = 0.05


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess, what: str) -> tuple[dict, dict]:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    report, last = json.loads(lines[-2]), json.loads(lines[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: result keys {sorted(last)}")
    if last["correct"] is not True or last["attempted"] < 1:
        raise AssertionError(f"{what}: incorrect run: {report['failures']} "
                             f"{report['determinism_mismatches']}")
    return report, last


def counts(report: dict) -> tuple:
    """Each operation's verdict and iteration count, and the two shares.

    Runs may differ in their number of passes, which these do not depend on.
    """
    return (sorted({(op, status, its) for op, _, _, _, status, its in report["ops"]}),
            report["failed_share"], report["undetermined_share"])


def main() -> int:
    expected = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    for w in SPEC["workloads"]:
        name = w["name"]
        first = None
        for trace in (0, 0, 1):
            what = f"{name} --trace {trace}"
            report, last = result(run(name, trace), what)
            got, want = set(last["metrics"]), set(expected[trace])
            if got != want:
                raise AssertionError(f"{what}: missing {sorted(want - got)}, "
                                     f"unexpected {sorted(got - want)}")
            for metric, m in last["metrics"].items():
                if not math.isfinite(m["value"]) or m["unit"] != expected[trace][metric]:
                    raise AssertionError(f"{what}: {metric} = {m}")
            if trace == 1:
                worst = report["unattributed_op_max"]
                allowed = max(last["metrics"]["trace.overhead_share"]["value"],
                              UNATTRIBUTED_FLOOR)
                if worst["share"] > allowed:
                    raise AssertionError(f"{what}: layers leave {worst['share']:.3f} of "
                                         f"{worst['op']} unattributed, above {allowed:.3f}")
            else:
                if first is not None and counts(report) != first:
                    raise AssertionError(f"{what}: deterministic counts differ between runs")
                first = counts(report)
            print(f"ok  {what}: {last['attempted']} ops, {last['failed']} failed")

    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("bare directory: the benchmark did not refuse to run")
    print("ok  bare directory refused")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
