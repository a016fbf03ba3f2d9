"""The paper's five claims, shown on the gallery's worked examples.

Each check builds the examples that exhibit one claim and judges every
numeric outcome against a pinned tolerance: channels span a strictly
smaller operator system under tensoring, two different superchannels can
agree on every channel, the auxiliary dimension depends on the extension
chosen, an action can have a CP extension but no TP one, and tensoring equal
actions can break their equality.  ``run_all`` executes the suite; the CLI
exposes it as the ``demo-paper`` subcommand.  ``tol`` overrides every judged
tolerance, which is mainly useful to confirm that the checks can fail.
Wall-clock time is reported as ``runtime_s``, never judged.
"""

from __future__ import annotations

import time

import numpy as np

from . import feasibility
from .channels import ChannelChoi, tensor
from .config import resolve
from .extend import extend_action
from .gallery import (
    block_trace_readout,
    entry_readout,
    no_tp_action,
    no_tp_superchannel,
    readout_mixture,
)
from .linalg import frob, rank_eps, vec
from .opsys import span_basis, span_dim, tensor_dimension_gap
from .report import FAIL, PASS, RunReport
from .supermaps import (
    aux_dim,
    identity_superchannel,
    marginal,
    restrictions_equal,
    tensor_superchannels,
)


def check_tensor_gap(tol: float | None = None) -> RunReport:
    """Strict inclusion of the tensor of two channel spans, by explicit ranks."""
    rep = RunReport("tensor-inclusion-gap")
    start = time.perf_counter()
    rep.expect("gap(2,2,2,2)", tensor_dimension_gap(2, 2, 2, 2), 72)
    rep.expect("241 - 169", span_dim(4, 4) - span_dim(2, 2) ** 2, 72)
    b22 = [ChannelChoi(2, 2, x) for x in span_basis(2, 2)]
    prods = [vec(tensor(x, y).choi) for x in b22 for y in b22]
    rank_prod = rank_eps(np.array(prods))
    rank_join = rank_eps(np.vstack((span_basis(4, 4).reshape(span_dim(4, 4), -1), prods)))
    rep.expect("rank of product span", rank_prod, 169)
    rep.expect("rank of joint span", rank_join, 241)
    rep.expect("rank gap", rank_join - rank_prod, 72)
    rep.add("runtime_s", round(time.perf_counter() - start, 3))
    return rep


def check_nonunique_extension(tol: float | None = None) -> RunReport:
    """Two distinct supermaps with identical action on the channel span."""
    rep = RunReport("nonunique-extension")
    start = time.perf_counter()
    g1 = block_trace_readout(0)
    g2 = block_trace_readout(1)
    rep.judge("| ||C1 - C2||_F - 2 |", abs(frob(g1.choi - g2.choi) - 2.0),
              resolve(tol, 1e-12))
    same = restrictions_equal(g1, g2, resolve(tol, 1e-10))
    rep.add("restrictions equal", same, tol=resolve(tol, 1e-10), ok=same)
    rep.add("runtime_s", round(time.perf_counter() - start, 3))
    return rep


def check_marginal_ranks(tol: float | None = None) -> RunReport:
    """Auxiliary dimension of the readout extensions and their mixtures."""
    rep = RunReport("marginal-ranks")
    t = resolve(tol, 1e-12)
    g1 = block_trace_readout(0)
    g2 = block_trace_readout(1)
    rep.expect("aux_dim first readout", aux_dim(g1), 1)
    rep.expect("aux_dim second readout", aux_dim(g2), 1)
    rep.judge("marginal(first) - diag(2,0)",
              float(np.max(np.abs(marginal(g1) - np.diag([2.0, 0.0])))), t)
    rep.judge("marginal(second) - diag(0,2)",
              float(np.max(np.abs(marginal(g2) - np.diag([0.0, 2.0])))), t)
    for p in (0.25, 0.5, 0.75):
        mix = readout_mixture(p)
        rep.expect(f"aux_dim mixture p={p}", aux_dim(mix), 2)
        rep.judge(f"marginal mixture p={p}",
                  float(np.max(np.abs(marginal(mix) - np.diag([2 * p, 2 - 2 * p])))), t)
    return rep


def check_no_tp_extension(tol: float | None = None) -> RunReport:
    """CP extensions of the diagonal example exist, TP extensions do not."""
    rep = RunReport("no-tp-extension")
    start = time.perf_counter()
    action = no_tp_action()
    printed = no_tp_superchannel()

    tp_rep = extend_action(action, trace_preserving=True)
    rep.add("tp status", tp_rep.status, ok=tp_rep.status == feasibility.INFEASIBLE)
    rep.add("tp gap", tp_rep.gap, tol=1e-6, ok=tp_rep.gap > 1e-6)

    cp_rep = extend_action(action)
    rep.add("cp status", cp_rep.status, ok=cp_rep.status == feasibility.FEASIBLE)

    seeded = extend_action(action, seed_point=printed)
    rep.add("seeded status", seeded.status, ok=seeded.status == feasibility.FEASIBLE)
    if seeded.witness is not None:
        rep.judge("seeded witness reproduces the diagonal supermap",
                  frob(seeded.witness.choi - printed.choi), resolve(tol, 1e-8))
    else:
        rep.add("seeded witness", None, ok=False)
    rep.add("runtime_s", round(time.perf_counter() - start, 3))
    return rep


def check_tensor_pathology(tol: float | None = None) -> RunReport:
    """Tensoring equal span actions with a common factor can break equality."""
    rep = RunReport("tensor-pathology")
    start = time.perf_counter()
    sa = entry_readout(0)
    sb = entry_readout(1)
    t = resolve(tol, 1e-10)
    same_small = restrictions_equal(sa, sb, t)
    rep.add("restrictions equal on the small span", same_small, tol=t, ok=same_small)
    ident = identity_superchannel(2, 2)
    ta = tensor_superchannels(ident, sa)
    tb = tensor_superchannels(ident, sb)
    differ = not restrictions_equal(ta, tb, t)
    rep.add("tensored restrictions differ", differ, tol=t, ok=differ)
    rep.add("runtime_s", round(time.perf_counter() - start, 3))
    return rep


CHECKS = (
    check_tensor_gap,
    check_nonunique_extension,
    check_marginal_ranks,
    check_no_tp_extension,
    check_tensor_pathology,
)


def run_all(tol: float | None = None) -> list[RunReport]:
    start = time.perf_counter()
    reports = [check(tol) for check in CHECKS]
    summary = RunReport("demo-suite")
    summary.add("total runtime_s", round(time.perf_counter() - start, 3))
    summary.status = PASS if all(r.status == PASS for r in reports) else FAIL
    reports.append(summary)
    return reports
