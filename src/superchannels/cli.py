"""Command-line surface.

Subcommands mirror the library: check-channel, check-super, extend,
tp-extend, characterize, extreme, factor-unitary, basis and demo-paper.
Reports print as text or, with --json, as machine-readable JSON.  Exit codes:
0 pass, 1 fail, 2 undetermined, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import demo, extremal, feasibility
from .channels import is_cp, is_tp, kraus_from_choi
from .config import DEFAULTS, resolve
from .extend import extend_action
from .linalg import frob, herm_eig, kron, rel_scale
from .opsys import span_basis, span_membership
from .report import FAIL, PASS, UNDETERMINED, RunReport
from .serialize import (
    SerializationError,
    decode_action,
    decode_channel,
    decode_matrix,
    decode_spaces,
    decode_superchannel,
    encode_basis,
    encode_feasibility,
    encode_matrix,
    encode_pre_post,
    encode_superchannel,
    load_json,
    save_json,
)
from .supermaps import (
    aux_dim,
    check_order_unit,
    factor_unitary,
    is_superchannel,
    marginal_map_residual,
    pre_post_form,
    recompose,
)

_EXIT = {PASS: 0, FAIL: 1, UNDETERMINED: 2}


def cmd_check_channel(args) -> RunReport:
    phi = decode_channel(load_json(args.path))
    rep = RunReport("check-channel", inputs=(args.path,))
    cp = is_cp(phi, args.tol)
    tp = is_tp(phi, args.tol)
    rep.add("cp", cp, tol=args.tol, ok=cp)
    rep.add("tp", tp, tol=args.tol, ok=tp)
    mem = span_membership(phi.choi, phi.d, phi.r, args.tol)
    rep.add("in channel span", mem.member)
    rep.add("trace scale", None if not mem.member else _c(mem.scale))
    if cp:
        rep.add("kraus rank", len(kraus_from_choi(phi, args.tol).ops))
    return rep


def cmd_check_super(args) -> RunReport:
    sc = decode_superchannel(load_json(args.path))
    rep = RunReport("check-super", inputs=(args.path,))
    tol = resolve(args.tol, DEFAULTS.rel_tol)
    preserving = is_superchannel(sc, tol)
    # a superchannel is PSD: only a rejected input needs its eigenvalues again
    lam_min = None if preserving else float(herm_eig(sc.choi)[0][-1])
    psd = preserving or bool(lam_min >= -tol * rel_scale(sc.choi))
    rep.add("psd", psd, tol=tol, ok=psd)
    if not psd:
        rep.add("min eigenvalue", lam_min)
    rep.add("span preserving", preserving, tol=tol, ok=preserving)
    rep.add("order unit fixed", check_order_unit(sc, tol))
    if preserving:
        rep.add("aux dim", aux_dim(sc))
        _, lift, unital = marginal_map_residual(sc.choi, sc.dims)
        rep.judge("induced map unitality residual", unital, tol)
        rep.judge("marginal factorisation residual", lift, tol)
    return rep


def _run_extend(args, trace_preserving: bool) -> RunReport:
    action = decode_action(load_json(args.path))
    seed = None
    if args.seeds:
        seed = decode_superchannel(load_json(args.seeds)).choi
    report = extend_action(action, seed_point=seed,
                           trace_preserving=trace_preserving,
                           max_iter=args.max_iter)
    name = "tp-extend" if trace_preserving else "extend"
    rep = RunReport(name, inputs=(args.path,))
    rep.add("status", report.status,
            ok={feasibility.FEASIBLE: True,
                feasibility.INFEASIBLE: False}.get(report.status))
    rep.add("iterations", report.iterations)
    rep.add("newton steps", report.newton_steps)
    rep.add("gap", report.gap)
    rep.judge("affine residual", report.affine_residual, DEFAULTS.affine_tol)
    rep.judge("psd residual", report.psd_residual, DEFAULTS.psd_tol)
    if report.certificate is not None:
        margin = report.certificate.margin
        rep.add("certificate margin", margin, tol=0.0, ok=margin < 0)
    if report.status == feasibility.UNDETERMINED:
        rep.status = UNDETERMINED
    elif report.status == feasibility.INFEASIBLE:
        rep.status = FAIL
        rep.results = [f for f in rep.results if f.key not in ("affine residual",
                                                               "psd residual")]
    if args.out:
        if report.witness is not None:
            save_json(args.out, encode_superchannel(report.witness))
            rep.add("witness written to", args.out)
        else:
            save_json(args.out, encode_feasibility(report))
            rep.add("report written to", args.out)
    return rep


def cmd_extend(args) -> RunReport:
    return _run_extend(args, trace_preserving=False)


def cmd_tp_extend(args) -> RunReport:
    return _run_extend(args, trace_preserving=True)


def cmd_characterize(args) -> RunReport:
    sc = decode_superchannel(load_json(args.path))
    rep = RunReport("characterize", inputs=(args.path,))
    form = pre_post_form(sc)
    rep.add("aux dim", form.e)
    iso = frob(form.v_pre.conj().T @ form.v_pre - np.eye(sc.d2))
    rep.judge("isometry residual", iso, DEFAULTS.rel_tol)
    rebuilt = recompose(form.v_pre, form.post, form.e)
    rep.judge("recomposition residual", frob(rebuilt.choi - sc.choi), 1e-8)
    if args.out:
        save_json(args.out, encode_pre_post(form))
        rep.add("characterisation written to", args.out)
    return rep


def cmd_extreme(args) -> RunReport:
    phi = decode_channel(load_json(args.path))
    rep = RunReport("extreme", inputs=(args.path,))
    ks = extremal.minimal_kraus(phi, args.tol)
    rep.add("kraus_count", len(ks.ops))
    rep.add("extreme_choi", extremal.is_extreme_choi(phi, args.tol))
    try:
        rep.add("extreme_unital_tp", extremal.is_extreme_unital_tp(phi, args.tol))
    except ValueError:
        rep.add("extreme_unital_tp", None)
    if args.spaces:
        spaces = decode_spaces(load_json(args.spaces))
        rep.add("extreme_constrained",
                extremal.is_extreme_constrained(phi, spaces, args.tol))
    else:
        rep.add("extreme_constrained", None)
    return rep


def cmd_factor_unitary(args) -> RunReport:
    raw = load_json(args.path)
    u = decode_matrix(raw["unitary"] if isinstance(raw, dict) and "unitary" in raw else raw)
    d, r = args.dims
    rep = RunReport("factor-unitary", inputs=(args.path,))
    factors = factor_unitary(u, d, r, args.tol)
    if factors is None:
        rep.add("factorable", False, ok=False)
        return rep
    u1, u2 = factors
    rep.add("factorable", True, ok=True)
    rep.judge("reconstruction residual", frob(u - kron(u1, u2)), 1e-8)
    if args.out:
        save_json(args.out, {"u1": encode_matrix(u1), "u2": encode_matrix(u2)})
        rep.add("factors written to", args.out)
    return rep


def cmd_basis(args) -> RunReport:
    mats = span_basis(args.d, args.r)
    rep = RunReport("basis", inputs=())
    rep.add("d", args.d)
    rep.add("r", args.r)
    rep.add("dim", len(mats))
    if args.out:
        save_json(args.out, encode_basis(args.d, args.r, mats))
        rep.add("basis written to", args.out)
    return rep


def cmd_demo_paper(args) -> list[RunReport]:
    return demo.run_all(args.tol, seed=args.seed)


def _c(z: complex):
    return [float(z.real), float(z.imag)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="superchannels",
                                     description="Choi calculus for channels and superchannels")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, path=True):
        if path:
            p.add_argument("path", help="input JSON file")
        p.add_argument("--tol", type=float, default=None, help="override the judged tolerance")
        p.add_argument("--json", action="store_true", help="emit machine-readable reports")
        p.add_argument("--out", default=None, help="write the result object to this file")

    p = sub.add_parser("check-channel", help="CP/TP/span checks for a channel file")
    common(p)
    p.set_defaults(fn=cmd_check_channel)

    p = sub.add_parser("check-super", help="superchannel checks for a supermap file")
    common(p)
    p.set_defaults(fn=cmd_check_super)

    for name, fn in (("extend", cmd_extend), ("tp-extend", cmd_tp_extend)):
        p = sub.add_parser(name, help=f"{name} a span action to a CP supermap")
        common(p)
        p.add_argument("--seeds", default=None, metavar="FILE",
                       help="superchannel file used as the starting point")
        p.add_argument("--max-iter", type=int, default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("characterize", help="pre/post factorisation of a superchannel")
    common(p)
    p.set_defaults(fn=cmd_characterize)

    p = sub.add_parser("extreme", help="extremality report for a channel file")
    common(p)
    p.add_argument("--spaces", default=None,
                   help="JSON file with s_basis/t_basis spanning sets")
    p.set_defaults(fn=cmd_extreme)

    p = sub.add_parser("factor-unitary", help="split a unitary across a tensor cut")
    common(p)
    p.add_argument("--dims", type=int, nargs=2, required=True, metavar=("D", "R"))
    p.set_defaults(fn=cmd_factor_unitary)

    p = sub.add_parser("basis", help="write the canonical channel-span basis")
    p.add_argument("d", type=int)
    p.add_argument("r", type=int)
    common(p, path=False)
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("demo-paper", help="run the built-in worked-example suite")
    common(p, path=False)
    p.add_argument("--seed", type=int, default=None,
                   help="reseed the randomised checks (fixed constants by default)")
    p.set_defaults(fn=cmd_demo_paper)

    return parser


def _emit(reports, as_json: bool) -> int:
    worst = PASS
    order = {PASS: 0, UNDETERMINED: 1, FAIL: 2}
    for rep in reports:
        if as_json:
            print(json.dumps(rep.as_dict()))
        else:
            print("\n".join(rep.lines()))
        if order[rep.status] > order[worst]:
            worst = rep.status
    return {PASS: 0, UNDETERMINED: 2, FAIL: 1}[worst]


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2, the code for undetermined
        return 3 if exc.code else 0
    try:
        result = args.fn(args)
    except SerializationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    reports = result if isinstance(result, list) else [result]
    return _emit(reports, getattr(args, "json", False))


if __name__ == "__main__":
    sys.exit(main())
