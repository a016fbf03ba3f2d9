"""Benchmark of the superchannels package: one closed-loop client, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload extend-cap --seed 1 --seconds 20 --trace 0

Workloads are described in ``BENCHMARK.json`` and ``perfbench/README.md``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.  A pass runs every operation of the workload once; the
run repeats whole passes until the timed operations add up to ``--seconds``
(at least one pass), so every run measures the same mix of operations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the detailed report (machine, set-up samples, every operation's
latency and verdict, failures, absent metrics).
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark is a single client, and a second thread on a
# shared two-core machine adds noise rather than speed at these sizes.  This
# must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import machine  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 9
ROOT = Path(__file__).resolve().parent.parent


def import_fresh():
    """Import the package anew, so that set-up pays its import and cold caches."""
    for name in [n for n in sys.modules if n == "superchannels" or n.startswith("superchannels.")]:
        del sys.modules[name]
    importlib.import_module("superchannels")
    return SimpleNamespace(**{layer: importlib.import_module(f"superchannels.{layer}")
                              for layer in LAYERS})


def tail(latencies) -> dict:
    """The highest percentile that still has at least ten samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    k = n - 11 if n >= 11 else n - 1      # too few samples: the maximum, none above
    return {"value": xs[k], "percentile": round(100.0 * (k + 1) / n, 2),
            "samples": n, "samples_above": n - 1 - k}


def run_pass(ops, records, pass_no, tracer=None):
    """Run every operation once; append one record per operation."""
    for op in ops:
        idx = len(records)
        if tracer:
            tracer.op = idx
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # an operation that raises is a failed operation
            out, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if tracer:
            tracer.enabled = False
        if error is None:
            try:
                status, its, detail = op.check(out)
            except Exception as exc:
                status, its, detail = wl.FAILED, None, f"check raised {type(exc).__name__}: {exc}"
        else:
            status, its, detail = wl.FAILED, None, error
        records.append({"op": op.key, "pass": pass_no, "traced": tracer is not None,
                        "latency_s": latency, "status": status, "iterations": its,
                        "detail": detail,
                        "known_defect": bool(status == wl.FAILED and op.known_defect
                                             and op.known_defect in detail)})


def latency(records) -> dict:
    lat = [r["latency_s"] for r in records]
    return {"p50_s": statistics.median(lat), "tail": tail(lat)}


def throughput(records) -> float:
    """Operations that did not fail, per second of timed operation."""
    return sum(r["status"] != wl.FAILED for r in records) / sum(r["latency_s"] for r in records)


def end_to_end(records, setup_s: float) -> dict:
    return {"setup_s": setup_s,
            "ops_per_s": throughput(records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def per_layer(tracer: Tracer, records, span_basis_s: float, units: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes; metrics whose hook is missing are absent."""
    traced = [(i, r) for i, r in enumerate(records) if r["traced"]]
    passes = len({r["pass"] for _, r in traced})
    out, absent = {}, {}

    def put(name, needs, value, per_pass=True):
        """Record a metric unless a hook it ``needs`` is missing.

        ``needs`` names installed wrappers ("namespace.name") or wrapped
        functions ("layer.name").  Times and counts are given per traced pass.
        """
        missing = [h for h in needs if h not in tracer.hooks and h not in tracer.wrapped]
        if missing:
            absent[name] = f"no hook for {', '.join(missing)}"
            return
        v = value() if callable(value) else value
        out[name] = v / passes if per_pass and units[name] in ("s", "count") else v

    solve = tracer.solve_stats()
    its = [(r["iterations"] or 0, r["status"]) for _, r in traced]
    all_its = sum(n for n, _ in its)
    wasted = sum(n for n, status in its if status == wl.UNDETERMINED)
    put("feasibility.us_per_iter", ["feasibility.solve", "feasibility.herm_eig"],
        lambda: 1e6 * solve["loop_s"] / solve["iterations"] if solve["iterations"] else 0.0)
    put("feasibility.eig_calls", ["feasibility.herm_eig"],
        lambda: tracer.hot_total("linalg.herm_eig", "feasibility")[0])
    put("feasibility.eig_s", ["feasibility.herm_eig"],
        lambda: tracer.hot_total("linalg.herm_eig", "feasibility")[1])
    put("feasibility.setup_s", ["feasibility.solve", "feasibility.herm_eig"],
        lambda: solve["setup_s"])
    put("feasibility.iterations", ["feasibility.solve"], lambda: solve["iterations"])
    put("feasibility.solve_s", ["feasibility.solve"],
        lambda: tracer.span_total("feasibility", "solve"))
    put("feasibility.wasted_iter_share", [], wasted / all_its if all_its else 0.0)
    put("extend.validate_s", ["extend.validate_action"],
        lambda: tracer.span_total("extend", "validate_action"))
    put("extend.extend_action_s", ["extend.extend_action"],
        lambda: tracer.span_total("extend", "extend_action"))
    put("extend.restrict_s", ["extend.restrict_superchannel"],
        lambda: tracer.span_total("extend", "restrict_superchannel"))
    for name in ("pre_post_form", "recompose", "induced_marginal_map", "is_superchannel",
                 "aux_dim"):
        put(f"supermaps.{name}_s", [f"supermaps.{name}"],
            lambda name=name: tracer.span_total("supermaps", name))
    put("channels.kraus_from_choi_s", ["channels.kraus_from_choi"],
        lambda: tracer.span_total("channels", "kraus_from_choi"))
    put("serialize.load_s", ["serialize.load_json"],
        lambda: tracer.span_total("serialize", "load_json"))
    put("serialize.save_s", ["serialize.save_json"],
        lambda: tracer.span_total("serialize", "save_json"))
    put("extremal.extreme_s", [], lambda: tracer.entry_total("extremal"))
    for qual in ("linalg.herm_eig", "channels.apply_choi", "opsys.span_membership"):
        put(f"{qual}_calls", [qual], lambda qual=qual: tracer.hot_total(qual)[0])
        put(f"{qual}_s", [qual], lambda qual=qual: tracer.hot_total(qual)[1])
    put("linalg.partial_trace_calls", ["linalg.partial_trace"],
        lambda: tracer.hot_total("linalg.partial_trace")[0])
    if span_basis_s is None:
        absent["opsys.span_basis_s"] = "no opsys.span_basis to build"
    else:
        put("opsys.span_basis_s", [], span_basis_s, per_pass=False)
    for layer in LAYERS:
        put(f"{layer}.self_s", [], tracer.layer_self.get(layer, 0.0))
    traced_wall = sum(r["latency_s"] for _, r in traced)
    self_sum = sum(tracer.op_self.get(i, 0.0) for i, _ in traced)
    plain = [r for r in records if not r["traced"]]
    out["trace.overhead_share"] = 1.0 - throughput([r for _, r in traced]) / throughput(plain)
    out["trace.unattributed_share"] = (traced_wall - self_sum) / traced_wall
    attempted = len(records)
    out["ops.failed_share"] = sum(r["status"] == wl.FAILED for r in records) / attempted
    out["ops.undetermined_share"] = (sum(r["status"] == wl.UNDETERMINED for r in records)
                                     / attempted)
    absent.update({f"hook {h}": why for h, why in tracer.absent.items()})
    return out, absent


def unattributed_op_max(tracer: Tracer, records) -> dict:
    """The traced operation whose wall time the layers' self times cover least.

    The uncovered part is the benchmark's own code around the call plus the
    wrappers' cost outside their clocks, so it should stay within the tracing
    overhead.
    """
    share, key = max(((r["latency_s"] - tracer.op_self.get(i, 0.0)) / r["latency_s"], r["op"])
                     for i, r in enumerate(records) if r["traced"])
    return {"op": key, "share": share}


def determinism(records) -> list:
    """Operations whose verdict or iteration count differs between passes."""
    seen, bad = {}, []
    for r in records:
        got = (r["status"], r["iterations"])
        if seen.setdefault(r["op"], got) != got:
            bad.append({"op": r["op"], "first": seen[r["op"]], "then": got})
    return bad


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(wl.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: the smallest instance of each workload, for the smoke test")
    args = p.parse_args(argv)

    src, fixtures = ROOT / "src", ROOT / "fixtures"
    if not (src / "superchannels" / "__init__.py").is_file() or not fixtures.is_dir():
        print(f"perfbench: {ROOT} holds no src/superchannels package and fixtures/ "
              "directory to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workdir = ROOT / ".perfbench" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    def set_up():
        t0 = time.perf_counter()
        mods = import_fresh()
        work = wl.build(args.workload, mods, args.seed, args.size, fixtures, workdir)
        return mods, work, time.perf_counter() - t0

    # Set up several times in a row and keep the last; the median of the
    # samples is the set-up time.
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        mods, work, seconds = set_up()
        setup_samples.append(seconds)
    if not mods.linalg.__file__.startswith(str(src)):
        print(f"perfbench: imported {mods.linalg.__file__}, not the checkout's package",
              file=sys.stderr)
        return 2

    records = []
    tracer = Tracer(vars(mods)) if args.trace else None
    timed, passes = 0.0, 0
    while passes == 0 or timed < args.seconds:
        start = len(records)
        # in a traced run, alternate which of the pair goes first, so that
        # neither side always pays the first pass's warm-up
        for traced in ((False, True) if passes % 2 == 0 else (True, False)) if tracer else (False,):
            if traced:
                tracer.install()
                run_pass(work.ops, records, passes, tracer)
                tracer.uninstall()
            else:
                run_pass(work.ops, records, passes)
        timed += sum(r["latency_s"] for r in records[start:])
        passes += 1

    setup_s = statistics.median(setup_samples)
    failures = [r for r in records if r["status"] == wl.FAILED]
    mismatches = determinism(records)
    correct = not mismatches and all(r["known_defect"] for r in failures)
    plain = [r for r in records if not r["traced"]]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": machine.info(),
        "setup_s_samples": setup_samples, "passes": passes, "timed_s": timed,
        "latency": latency(plain),
        "failed_share": len(failures) / len(records),
        "undetermined_share": sum(r["status"] == wl.UNDETERMINED for r in records) / len(records),
        "failures": sorted({(r["op"], r["detail"], r["known_defect"]) for r in failures}),
        "determinism_mismatches": mismatches,
        "ops": [[r["op"], r["pass"], int(r["traced"]), round(r["latency_s"], 6), r["status"],
                 r["iterations"]] for r in records],
    }
    if tracer:
        metrics, absent = per_layer(tracer, records, work.span_basis_s, units)
        report["absent"] = absent
        report["unattributed_op_max"] = unattributed_op_max(tracer, records)
        spans_path = workdir / f"spans-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = end_to_end(plain, setup_s)
    print(json.dumps(report))
    print(json.dumps({"correct": bool(correct), "attempted": len(records),
                      "failed": len(failures),
                      "metrics": {name: {"value": float(v), "unit": units[name]}
                                  for name, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
