"""The benchmark's workloads: inputs made from the seed, operations, checks.

Each workload is a list of operations run one after another by a single
client (a closed loop).  An operation is one call into the package, timed
alone; its output is checked afterwards, outside the timed interval.

A check returns ``(status, iterations, detail)`` with status one of
``ok``, ``undetermined`` (the search ran to its iteration cap, which the
specification allows) or ``failed`` (an exception, a wrong verdict, a
witness that fails verification, a wrong exit code or a residual above its
tolerance).
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

OK, UNDETERMINED, FAILED = "ok", "undetermined", "failed"

# A failure that ROADMAP records as a known bug of the package: np.linalg.pinv's
# default cutoff keeps noise singular values, so the consistent constraint
# system of every (3,2,3,2) extension is reported inconsistent.  Such a
# failure is counted in `failed` like any other; it only does not make the
# run incorrect, because it is the documented state of the code.
RCOND_DEFECT = "affine constraint system is inconsistent"

CAP_SEEDS = range(400, 420)         # tests/test_extend.py's slow-test instance set
LADDER = ((2, 2, 2, 2), (2, 3, 2, 3), (3, 2, 3, 2), (3, 3, 3, 3))


@dataclass
class Op:
    key: str                                   # the same in every pass
    run: Callable[[], Any]                     # the timed call
    check: Callable[[Any], tuple]              # untimed: (status, iterations, detail)
    known_defect: str | None = None


@dataclass
class Workload:
    ops: list
    span_basis_s: float | None                 # cold span_basis builds, summed over dims


def build(name: str, mods, seed: int, size: str, fixtures: Path, workdir: Path) -> Workload:
    """Make the workload's inputs and operations; ``size`` is "full" or "smoke"."""
    ops, dims = BUILDERS[name](mods, seed, size == "smoke", fixtures, workdir)
    return Workload(ops, _warm_span_basis(mods, dims))


def _warm_span_basis(mods, dims) -> float | None:
    """Build each channel-span basis once, cold, so that no operation pays for it.

    Returns the summed build time, or None if the package has no ``span_basis``.
    """
    if not hasattr(mods.opsys, "span_basis"):
        return None
    total = 0.0
    for d, r in sorted(set(dims)):
        t0 = time.perf_counter()
        mods.opsys.span_basis(d, r)
        total += time.perf_counter() - t0
    return total


# -- extension searches --------------------------------------------------------

def _extension_op(mods, key: str, reference, cap: int, action=None, tp: bool = False,
                  expect: str = "feasible", known_defect: str | None = None) -> Op:
    """``extend_action`` on a given action, or on the restriction of ``reference``.

    ``reference`` is a superchannel whose restriction is the action, so a
    feasible witness must agree with it on the whole channel span.
    """
    feas = mods.feasibility
    sm = mods.supermaps

    def run():
        act = action if action is not None else mods.extend.restrict_superchannel(reference)
        return mods.extend.extend_action(act, trace_preserving=tp, max_iter=cap)

    def check(report):
        its = report.iterations
        if report.status == feas.UNDETERMINED:
            # undetermined is allowed only at the cap: giving up sooner is
            # not a verdict, and would read as a speed-up
            if its != cap:
                return FAILED, its, f"undetermined after {its} iterations, below the cap {cap}"
            return UNDETERMINED, its, ""
        if report.status == feas.INFEASIBLE:
            if expect == "infeasible":
                return OK, its, ""
            return FAILED, its, "infeasible verdict on the restriction of a superchannel"
        if report.status != feas.FEASIBLE:
            return FAILED, its, f"unknown status {report.status!r}"
        if expect == "infeasible":
            return FAILED, its, "feasible verdict where no TP extension exists"
        w = report.witness
        if not sm.is_superchannel(w, 1e-7):
            return FAILED, its, "witness is not a superchannel"
        if not sm.restrictions_equal(w, reference, 1e-6):
            return FAILED, its, "witness does not reproduce the action"
        return OK, its, ""

    return Op(key, run, check, known_defect)


def _extend_cap(mods, seed, smoke, fixtures, workdir):
    # The instance set is fixed; the seed only orders it.  Which of these
    # instances reach the iteration cap is what sets this workload's time,
    # and a shifted set changes that count by about 2 in 20 (a 20% swing in
    # pass time), wider than any bound the benchmark could keep.
    seeds = list(CAP_SEEDS)[:2] if smoke else list(CAP_SEEDS)
    cap = 2_000 if smoke else 20_000
    order = np.random.default_rng(seed).permutation(len(seeds))
    ops = []
    for k in order:
        s = seeds[k]
        e = 1 + (s - CAP_SEEDS[0]) % 2
        sc = mods.supermaps.random_superchannel(2, 2, 2, 2, e=e, seed=s)
        ops.append(_extension_op(mods, f"cap-extend rng={s} e={e}", sc, cap=cap))
    return ops, [(2, 2)]


def _extend_ladder(mods, seed, smoke, fixtures, workdir):
    sm, ser = mods.supermaps, mods.serialize
    ops = []
    # n = 36: the search is short, the constraint build and pinv are not.
    for dims in ((2, 3, 2, 3), (3, 2, 3, 2)):
        known = RCOND_DEFECT if dims == (3, 2, 3, 2) else None
        tag = "x".join(map(str, dims))
        gens = [("identity", sm.identity_superchannel(dims[0], dims[1]))]
        if not smoke:
            gens += [(f"random e={e}", sm.random_superchannel(*dims, e=e, seed=[seed, *dims, e]))
                     for e in (1, 2)]
        for label, sc in gens:
            ops.append(_extension_op(mods, f"ladder-extend {tag} {label}", sc,
                                     cap=200, known_defect=known))

    def load(name, decode):
        return decode(ser.load_json(fixtures / name))

    no_tp = load("no_tp_action.json", ser.decode_action)
    no_tp_sc = load("no_tp_superchannel.json", ser.decode_superchannel)
    readout = load("readout_action.json", ser.decode_action)
    readout_sc = load("readout_first_block.json", ser.decode_superchannel)
    ops += [
        _extension_op(mods, "tp-extend no_tp_action", no_tp_sc, 20_000, no_tp, tp=True,
                      expect="infeasible"),
        _extension_op(mods, "extend no_tp_action", no_tp_sc, 20_000, no_tp),
        _extension_op(mods, "extend readout_action", readout_sc, 20_000, readout),
    ]
    return ops, [(2, 3), (3, 2), (2, 2)]


# -- CLI commands --------------------------------------------------------------

def _cli_op(mods, key: str, argv: list, expect_code: int, extra=None) -> Op:
    """``cli.main(argv + ["--json"])`` with its output captured.

    The check wants the expected exit code, at least one report, and every
    judged residual (a numeric finding with a tolerance) within tolerance;
    ``extra(reports)`` may add a check of its own and returns an error or None.
    """
    argv = [str(a) for a in argv] + ["--json"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = mods.cli.main(argv)
            except SystemExit as exc:       # argparse rejects the arguments
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        if code != expect_code:
            return FAILED, None, f"exit code {code}, expected {expect_code}: {err.strip()[:200]}"
        reports = [json.loads(line) for line in out.splitlines() if line.strip()]
        if not reports:
            return FAILED, None, "no report printed"
        for rep in reports:
            for f in rep["results"]:
                v, tol = f["value"], f["tol"]
                if tol is not None and isinstance(v, float) and not v <= tol:
                    return FAILED, None, f"{f['key']} = {v:.3e} above tolerance {tol:g}"
        problem = extra(reports) if extra else None
        if problem:
            return FAILED, None, problem
        return OK, None, ""

    return Op(key, run, check)


def _finding(reports, key):
    for f in reports[0]["results"]:
        if f["key"] == key:
            return f["value"]
    return None


def _characterize_ladder(mods, seed, smoke, fixtures, workdir):
    sm, ch, ser = mods.supermaps, mods.channels, mods.serialize
    ladder = LADDER[:1] if smoke else LADDER
    es = (1, 2) if smoke else (1, 2, 3, 4)
    ops = []
    for dims in ladder:
        tag = "x".join(map(str, dims))
        for e in es:
            path = workdir / f"superchannel_{tag}_e{e}.json"
            sc = sm.random_superchannel(*dims, e=e, seed=[seed, *dims, e])
            ser.save_json(path, ser.encode_superchannel(sc))
            ops.append(_cli_op(mods, f"check-super {tag} e={e}", ["check-super", path], 0))
            out = workdir / f"form_{tag}_e{e}.json"
            ops.append(_cli_op(mods, f"characterize {tag} e={e}",
                               ["characterize", path, "--out", out], 0))

    # channels: the fixtures, and random channels of the ladder's input sizes
    channel_files = [(fixtures / "identity_channel_2.json", True),
                     (fixtures / "depolarizing_channel_2_2.json", True),
                     (fixtures / "transpose_channel_2.json", False)]
    sizes = sorted({(d[0], d[1]) for d in ladder})
    for d, r in sizes:
        path = workdir / f"channel_{d}x{r}.json"
        ser.save_json(path, ser.encode_channel(ch.random_channel(d, r, 2, seed=[seed, d, r])))
        channel_files.append((path, True))
    for path, cp in channel_files:
        ops.append(_cli_op(mods, f"check-channel {path.name}", ["check-channel", path],
                           0 if cp else 1,
                           lambda reps, cp=cp: None if _finding(reps, "cp") is cp
                           else "wrong CP verdict"))
        if cp:
            ops.append(_cli_op(mods, f"extreme {path.name}", ["extreme", path], 0))
    for d, r in sizes:
        dim = d * d * r * r - d * d + 1
        ops.append(_cli_op(mods, f"basis {d}x{r}",
                           ["basis", d, r, "--out", workdir / f"basis_{d}x{r}.json"], 0,
                           lambda reps, dim=dim: None if _finding(reps, "dim") == dim
                           else "wrong span dimension"))
    return ops, sizes


BUILDERS = {"extend-cap": _extend_cap, "extend-ladder": _extend_ladder,
            "characterize-ladder": _characterize_ladder}
