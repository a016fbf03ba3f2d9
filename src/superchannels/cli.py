"""Command-line surface.

Subcommands mirror the library: check-channel, check-super, extend,
tp-extend, characterize, extreme, factor-unitary, basis and demo-paper.
Reports print as text or, with --json, as machine-readable JSON.  Exit codes:
0 pass, 1 fail, 2 undetermined, 3 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

from . import extremal, feasibility
from .channels import is_cp, is_tp, is_unital, kraus_from_choi
from .config import DEFAULTS, resolve
from .extend import extend_action
from .linalg import frob, is_psd, kron, lambda_min
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
    as_channel,
    aux_dim,
    factor_unitary,
    is_superchannel,
    marginal_map_residual,
    pre_post_form,
    preserves_span,
)


def cmd_check_channel(args) -> RunReport:
    phi = decode_channel(load_json(args.path))
    rep = RunReport("check-channel", inputs=(args.path,))
    tol = resolve(args.tol, DEFAULTS.rel_tol)
    cp = is_cp(phi, tol)
    tp = is_tp(phi, tol)
    rep.add("cp", cp, tol=tol, ok=cp)
    rep.add("tp", tp, tol=tol, ok=tp)
    mem = span_membership(phi.choi, phi.d, phi.r, tol)
    rep.add("in channel span", mem.member)
    rep.add("trace scale", [float(mem.scale.real), float(mem.scale.imag)] if mem.member else None)
    if cp:
        rep.add("kraus rank", len(kraus_from_choi(phi, tol).ops))
    return rep


def cmd_check_super(args) -> RunReport:
    sc = decode_superchannel(load_json(args.path))
    rep = RunReport("check-super", inputs=(args.path,))
    tol = resolve(args.tol, DEFAULTS.rel_tol)
    superchannel = is_superchannel(sc, tol)
    preserving = superchannel or preserves_span(sc.choi, sc.dims, tol)
    # an input on the span that is_superchannel rejects has failed its PSD rule
    psd = superchannel or (not preserving and is_psd(sc.choi, tol))
    rep.add("psd", psd, tol=tol, ok=psd)
    if not psd:
        rep.add("min eigenvalue", lambda_min(sc.choi))
    rep.add("span preserving", preserving, tol=tol, ok=preserving)
    rep.add("order unit fixed", is_unital(as_channel(sc), tol))
    if superchannel:
        rep.add("aux dim", aux_dim(sc))
        _, lift, unital = marginal_map_residual(sc.choi, sc.dims)
        rep.judge("induced map unitality residual", unital, tol)
        rep.judge("marginal factorisation residual", lift, tol)
    return rep


def cmd_extend(args) -> RunReport:
    """``extend`` and ``tp-extend``: the subcommand's name picks the set."""
    trace_preserving = args.command == "tp-extend"
    action = decode_action(load_json(args.path))
    seed = None
    if args.seeds:
        seed = decode_superchannel(load_json(args.seeds)).choi
    report = extend_action(action, seed_point=seed,
                           trace_preserving=trace_preserving,
                           max_iter=args.max_iter)
    rep = RunReport(args.command, inputs=(args.path,))
    # one finding per scalar field of the report, in declaration order; an
    # infeasible run has no witness, so no residuals
    skip = {"witness", "certificate"} | ({"affine_residual", "psd_residual"}
                                         if report.status == feasibility.INFEASIBLE else set())
    for field in dataclasses.fields(feasibility.FeasibilityReport):
        if field.name in skip:
            continue
        key, value = field.name.replace("_", " "), getattr(report, field.name)
        if field.name == "status":
            rep.add(key, value, ok={feasibility.FEASIBLE: True,
                                    feasibility.INFEASIBLE: False}.get(value))
        else:
            # the residuals among them: solve holds a witness to the affine
            # rule and builds it PSD, and without one the status decides the
            # exit code, so they are reported, not judged
            rep.add(key, value)
    if report.certificate is not None:
        margin = report.certificate.margin
        rep.add("certificate margin", margin, tol=0.0, ok=margin < 0)
    if report.status == feasibility.UNDETERMINED:
        rep.status = UNDETERMINED
    if args.out:
        if report.witness is not None:
            save_json(args.out, encode_superchannel(report.witness))
            rep.add("witness written to", args.out)
        else:
            save_json(args.out, encode_feasibility(report))
            rep.add("report written to", args.out)
    return rep


def cmd_characterize(args) -> RunReport:
    sc = decode_superchannel(load_json(args.path))
    rep = RunReport("characterize", inputs=(args.path,))
    form = pre_post_form(sc)
    rep.add("aux dim", form.e)
    for key, value, bound in form.judged:
        rep.judge(key, value, bound)
    if args.out:
        save_json(args.out, encode_pre_post(form))
        rep.add("characterisation written to", args.out)
    return rep


def cmd_extreme(args) -> RunReport:
    phi = decode_channel(load_json(args.path))
    rep = RunReport("extreme", inputs=(args.path,))
    rep.add("kraus_count", len(kraus_from_choi(phi, args.tol)))
    rep.add("extreme_choi", extremal.is_extreme_choi(phi, args.tol))
    try:
        rep.add("extreme_unital_tp", extremal.is_extreme_unital_tp(phi, args.tol))
    except ValueError:
        rep.add("extreme_unital_tp", None)
    if args.spaces:
        spaces = decode_spaces(load_json(args.spaces))
        rep.add("extreme_constrained",
                extremal.extremality(phi, spaces, args.tol).extreme)
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
    # factor_unitary returns only factors within its own bound
    rep.add("reconstruction residual", frob(u - kron(u1, u2)))
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
    from . import demo  # imported here: it loads the gallery, which no other subcommand reads
    return demo.run_all(args.tol)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: parsing keeps no
    state in it, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(prog="superchannels",
                                     description="Choi calculus for channels and superchannels")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol, out, path=True):  # declare only what the handler reads
        if path:
            p.add_argument("path", help="input JSON file")
        if tol:
            p.add_argument("--tol", type=float, default=None, help="override the judged tolerance")
        p.add_argument("--json", action="store_true", help="emit machine-readable reports")
        if out:
            p.add_argument("--out", default=None, help="write the result object to this file")

    p = sub.add_parser("check-channel", help="CP/TP/span checks for a channel file")
    common(p, tol=True, out=False)
    p.set_defaults(fn=cmd_check_channel)

    p = sub.add_parser("check-super", help="superchannel checks for a supermap file")
    common(p, tol=True, out=False)
    p.set_defaults(fn=cmd_check_super)

    for name in ("extend", "tp-extend"):
        p = sub.add_parser(name, help=f"{name} a span action to a CP supermap")
        common(p, tol=False, out=True)
        p.add_argument("--seeds", default=None, metavar="FILE",
                       help="superchannel file used as the starting point")
        p.add_argument("--max-iter", type=int, default=None)
        p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("characterize", help="pre/post factorisation of a superchannel")
    common(p, tol=False, out=True)
    p.set_defaults(fn=cmd_characterize)

    p = sub.add_parser("extreme", help="extremality report for a channel file")
    common(p, tol=True, out=False)
    p.add_argument("--spaces", default=None,
                   help="JSON file with s_basis/t_basis spanning sets")
    p.set_defaults(fn=cmd_extreme)

    p = sub.add_parser("factor-unitary", help="split a unitary across a tensor cut")
    common(p, tol=True, out=True)
    p.add_argument("--dims", type=int, nargs=2, required=True, metavar=("D", "R"))
    p.set_defaults(fn=cmd_factor_unitary)

    p = sub.add_parser("basis", help="write the canonical channel-span basis")
    p.add_argument("d", type=int)
    p.add_argument("r", type=int)
    common(p, tol=False, out=True, path=False)
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("demo-paper", help="check the paper's claims on its worked examples")
    common(p, tol=True, out=False, path=False)
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
        out = getattr(args, "out", None)
        if out and not Path(out).parent.is_dir():  # before the work, not after it
            raise SerializationError(f"{Path(out)}: {Path(out).parent} is not a directory")
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
