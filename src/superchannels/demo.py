"""Built-in verification suite.

Each check exercises one headline property of the package on the worked
examples from the gallery, judging every numeric outcome against a pinned
tolerance.  ``run_all`` executes the whole suite; the CLI exposes it as the
``demo-paper`` subcommand and the acceptance tests assert on the same
reports.  ``tol`` overrides every judged tolerance, which is mainly useful
to confirm that the checks can fail.
"""

from __future__ import annotations

import time

import numpy as np

from . import extremal, feasibility
from .channels import (
    ChannelChoi,
    apply_choi,
    choi_from_kraus,
    is_unital,
    kraus_from_choi,
    random_channel,
    tensor,
)
from .config import resolve
from .extend import extend_action
from .gallery import (
    block_trace_readout,
    entry_readout,
    no_tp_action,
    no_tp_superchannel,
    readout_mixture,
)
from .linalg import (
    frob,
    kron,
    partial_trace,
    psd_project,
    random_hermitian,
    random_unitary,
    rank_eps,
    rel_scale,
    vec,
)
from .opsys import (
    decompose_into_channels,
    span_basis,
    span_dim,
    tensor_dimension_gap,
)
from .report import FAIL, PASS, RunReport
from .supermaps import (
    apply_superchannel,
    as_channel,
    aux_dim,
    conjugation_supermap,
    factor_unitary,
    identity_superchannel,
    is_superchannel,
    marginal,
    marginal_map_residual,
    pre_post_form,
    random_superchannel,
    recompose,
    restrictions_equal,
    tensor_superchannels,
    unitary_superchannel,
)


def check_dimension_formula(tol: float | None = None, seed: int | None = None) -> RunReport:
    """Canonical basis sizes match the closed-form dimension count."""
    rep = RunReport("dimension-formula")
    start = time.perf_counter()
    for d in (1, 2, 3):
        for r in (1, 2, 3):
            rep.expect(f"dim S({d},{r})", len(span_basis(d, r)), span_dim(d, r))
    elapsed = time.perf_counter() - start
    rep.add("runtime_s", round(elapsed, 3), tol=1.0, ok=elapsed < 1.0)
    return rep


def check_tensor_gap(tol: float | None = None, seed: int | None = None) -> RunReport:
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
    elapsed = time.perf_counter() - start
    rep.add("runtime_s", round(elapsed, 3), tol=10.0, ok=elapsed < 10.0)
    return rep


def check_nonunique_extension(tol: float | None = None, seed: int | None = None) -> RunReport:
    """Two distinct supermaps with identical action on the channel span."""
    rep = RunReport("nonunique-extension")
    start = time.perf_counter()
    g1 = block_trace_readout(0)
    g2 = block_trace_readout(1)
    rep.judge("| ||C1 - C2||_F - 2 |", abs(frob(g1.choi - g2.choi) - 2.0),
              resolve(tol, 1e-12))
    same = restrictions_equal(g1, g2, resolve(tol, 1e-10))
    rep.add("restrictions equal", same, tol=resolve(tol, 1e-10), ok=same)
    elapsed = time.perf_counter() - start
    rep.add("runtime_s", round(elapsed, 3), tol=1.0, ok=elapsed < 1.0)
    return rep


def check_marginal_ranks(tol: float | None = None, seed: int | None = None) -> RunReport:
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


def check_no_tp_extension(tol: float | None = None, seed: int | None = None) -> RunReport:
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
    elapsed = time.perf_counter() - start
    rep.add("runtime_s", round(elapsed, 3), tol=60.0, ok=elapsed < 60.0)
    return rep


def check_tensor_pathology(tol: float | None = None, seed: int | None = None) -> RunReport:
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
    elapsed = time.perf_counter() - start
    rep.add("runtime_s", round(elapsed, 3), tol=5.0, ok=elapsed < 5.0)
    return rep


def _roundtrip_instances(count: int = 20, seed: int | None = None):
    rng = np.random.default_rng(515 if seed is None else seed)
    out = []
    for k in range(count):
        e = 1 + (k % 2)
        out.append((random_superchannel(2, 2, 2, 2, e, rng), e))
    return out


def check_pre_post_roundtrip(tol: float | None = None, seed: int | None = None) -> RunReport:
    """Factor generated superchannels and reproduce their action."""
    rep = RunReport("pre-post-roundtrip")
    worst_iso = 0.0
    worst_apply = 0.0
    max_e_excess = 0
    rng = np.random.default_rng(99 if seed is None else seed + 1)
    for sc, e_gen in _roundtrip_instances(seed=seed):
        form = pre_post_form(sc)
        max_e_excess = max(max_e_excess, form.e - e_gen)
        iso = frob(form.v_pre.conj().T @ form.v_pre - np.eye(sc.d2))
        worst_iso = max(worst_iso, iso)
        rebuilt = recompose(form.v_pre, form.post, form.e)
        for _ in range(10):
            phi = random_channel(sc.d1, sc.r1, int(rng.integers(1, sc.d1 * sc.r1 + 1)), rng)
            diff = frob(apply_superchannel(sc, phi).choi
                        - apply_superchannel(rebuilt, phi).choi)
            worst_apply = max(worst_apply, diff)
    rep.add("aux dim never exceeds the generator", max_e_excess <= 0, ok=max_e_excess <= 0)
    rep.judge("worst isometry residual", worst_iso, resolve(tol, 1e-9))
    rep.judge("worst action disagreement", worst_apply, resolve(tol, 1e-8))
    return rep


def check_induced_map_identity(tol: float | None = None, seed: int | None = None) -> RunReport:
    """Output marginals factor through one unital CP map on the input factor."""
    rep = RunReport("induced-map-identity")
    t = resolve(tol, 1e-9)
    rng = np.random.default_rng(7177 if seed is None else seed + 2)
    worst_eq = 0.0
    worst_unital = 0.0
    worst_marg = 0.0
    for sc, _ in _roundtrip_instances(seed=seed):
        n_map, _, unital = marginal_map_residual(sc.choi, sc.dims)
        worst_unital = max(worst_unital, unital)
        worst_marg = max(worst_marg, frob(marginal(sc) - sc.r1 * n_map.choi))
        for _ in range(50):
            c = random_hermitian(sc.d1 * sc.r1, rng)
            lhs = partial_trace(apply_superchannel(sc, c), (sc.d2, sc.r2), {1})
            rhs = apply_choi(n_map, partial_trace(c, (sc.d1, sc.r1), {1}))
            worst_eq = max(worst_eq, frob(lhs - rhs))
    rep.judge("worst marginal-factorisation residual", worst_eq, t)
    rep.judge("worst unitality residual", worst_unital, t)
    rep.judge("worst double-marginal identity residual", worst_marg, t)
    return rep


def _fixture_superchannels():
    yield identity_superchannel(2, 2)
    yield block_trace_readout(0)
    yield block_trace_readout(1)
    yield readout_mixture(0.5)
    yield no_tp_superchannel()
    yield entry_readout(0)
    yield entry_readout(1)
    yield tensor_superchannels(identity_superchannel(2, 2), entry_readout(0))
    yield unitary_superchannel(random_unitary(2, 11), random_unitary(2, 12))


def check_scale_preservation(tol: float | None = None, seed: int | None = None) -> RunReport:
    """Every fixture preserves the trace-scaling factor on the whole span: the
    drift is the larger of the marginal map's lift and unitality residuals."""
    rep = RunReport("scale-preservation")
    worst = max(max(marginal_map_residual(sc.choi, sc.dims)[1:])
                for sc in _fixture_superchannels())
    rep.judge("worst scale drift", worst, resolve(tol, 1e-9))
    return rep


def check_unitary_superchannels(tol: float | None = None, seed: int | None = None) -> RunReport:
    """Product conjugations are superchannels, non-product conjugations are not."""
    rep = RunReport("unitary-superchannels")
    t = resolve(tol, 1e-8)
    rng = np.random.default_rng(2026 if seed is None else seed + 3)
    worst_recovery = 0.0
    all_good = True
    for _ in range(20):
        u1 = random_unitary(2, rng)
        u2 = random_unitary(2, rng)
        sc = unitary_superchannel(u1, u2)
        all_good &= is_superchannel(sc)
        all_good &= aux_dim(sc) == 1
        all_good &= is_unital(as_channel(sc))
        factors = factor_unitary(kron(u1, u2), 2, 2)
        if factors is None:
            all_good = False
            continue
        worst_recovery = max(worst_recovery,
                             frob(kron(*factors) - kron(u1, u2)))
    rep.add("product conjugations all verified", all_good, ok=all_good)
    rep.judge("worst factor recovery", worst_recovery, t)

    non_product_ok = True
    found = 0
    while found < 20:
        u = random_unitary(4, rng)
        reshaped = u.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        if rank_eps(reshaped, 1e-6) <= 1:
            continue  # essentially a product, resample
        found += 1
        non_product_ok &= factor_unitary(u, 2, 2) is None
        non_product_ok &= not is_superchannel(conjugation_supermap(u, 2, 2))
    rep.add("non-product conjugations all rejected", non_product_ok, ok=non_product_ok)
    return rep


def check_extremality(tol: float | None = None, seed: int | None = None) -> RunReport:
    """Extremality of the readout extensions; non-extreme verdicts carry pairs."""
    rep = RunReport("extremality")
    spaces = extremal.extension_constraint_spaces(2, 2)
    readouts = [as_channel(block_trace_readout(0)), as_channel(block_trace_readout(1)),
                as_channel(readout_mixture(0.5))]
    results = [extremal.extremality(phi, spaces) for phi in readouts]
    rep.expect("first readout extreme", results[0].extreme, True)
    rep.expect("second readout extreme", results[1].extreme, True)
    rep.expect("midpoint extreme", results[2].extreme, False)

    rng = np.random.default_rng(4242 if seed is None else seed + 4)
    fixed_unit = extremal.ConstraintSpaces((np.eye(2, dtype=complex),), ())
    results += [extremal.extremality(random_channel(2, 2, 1 + (k % 4), rng), fixed_unit)
                for k in range(20)]
    # extremality checks each pair before returning it, so its presence is the evidence
    paired = all(res.extreme or res.pair is not None for res in results)
    rep.add("non-extreme verdicts carry verified pairs", paired, ok=paired)
    return rep


def check_property_gate(tol: float | None = None, seed: int | None = None) -> RunReport:
    """Round trips, projection optimality and span decompositions in bulk."""
    rep = RunReport("property-gate")
    t = resolve(tol, 1e-9)
    rng = np.random.default_rng(31337 if seed is None else seed + 5)
    dims = [(2, 2), (2, 3), (3, 2), (3, 3)]
    worst_rt = 0.0
    for k in range(100):
        d, r = dims[k % len(dims)]
        lo = max(1, -(-d // r))  # smallest rank that still allows trace preservation
        phi = random_channel(d, r, int(rng.integers(lo, d * r + 1)), rng)
        back = choi_from_kraus(kraus_from_choi(phi))
        worst_rt = max(worst_rt, frob(back.choi - phi.choi) / rel_scale(phi.choi))
    rep.judge("worst Choi/Kraus round trip", worst_rt, t)

    m = random_hermitian(6, rng)
    proj = psd_project(m)
    base = frob(m - proj)
    optimal = True
    for _ in range(100):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        p = g @ g.conj().T
        optimal &= base <= frob(m - p) + 1e-12
    rep.add("projection optimality spot check", optimal, ok=optimal)

    worst_rec = 0.0
    for _ in range(50):
        c = np.zeros((4, 4), dtype=complex)
        for _ in range(3):
            z = complex(rng.standard_normal(), rng.standard_normal())
            c = c + z * random_channel(2, 2, int(rng.integers(1, 5)), rng).choi
        terms = decompose_into_channels(c, 2, 2)
        rebuilt = sum((coeff * ch.choi for coeff, ch in terms),
                      np.zeros((4, 4), dtype=complex))
        worst_rec = max(worst_rec, frob(rebuilt - c) / rel_scale(c))
    rep.judge("worst span decomposition residual", worst_rec, t)
    return rep


CHECKS = (
    check_dimension_formula,
    check_tensor_gap,
    check_nonunique_extension,
    check_marginal_ranks,
    check_no_tp_extension,
    check_tensor_pathology,
    check_pre_post_roundtrip,
    check_induced_map_identity,
    check_scale_preservation,
    check_unitary_superchannels,
    check_extremality,
    check_property_gate,
)


def run_all(tol: float | None = None, seed: int | None = None) -> list[RunReport]:
    start = time.perf_counter()
    reports = [check(tol, seed) for check in CHECKS]
    total = time.perf_counter() - start
    summary = RunReport("demo-suite")
    summary.add("total runtime_s", round(total, 3), tol=300.0, ok=total < 300.0)
    summary.status = PASS if all(r.status == PASS for r in reports) \
        and summary.results[0].ok else FAIL
    reports.append(summary)
    return reports
