"""Acceptance gate: every headline criterion at its stated tolerance.

Criteria 2-6 are the paper's claims, each implemented once as a
``demo.check_*`` report (the CLI's ``demo-paper`` suite).  Their tests run
the check and assert the report's findings against bounds pinned here, not
against the demo's own verdicts, so loosening a demo default still fails the
gate.  A boolean finding decided at a tolerance is held to the pinned bound
through the tolerance it records, or by passing that bound as the check's
``tol``.  Criteria 1 and 7-12 re-test library functions on fixed instances
(the seeds, fixtures and sample counts below) and are computed here from
direct library calls.  Each test finishes by printing one pass line (run
pytest with -s to see them).
"""

import itertools
import time
from types import SimpleNamespace

import numpy as np

from superchannels import demo, extremal
from superchannels.channels import (
    apply_choi,
    choi_from_kraus,
    is_unital,
    kraus_from_choi,
    random_channel,
)
from superchannels.gallery import (
    block_trace_readout,
    entry_readout,
    no_tp_superchannel,
    readout_mixture,
)
from superchannels.linalg import (
    frob,
    kron,
    partial_trace,
    psd_project,
    random_hermitian,
    random_unitary,
    rank_eps,
    rel_scale,
)
from superchannels.opsys import decompose_into_channels, span_basis, span_dim
from superchannels.report import PASS
from superchannels.supermaps import (
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
    tensor_superchannels,
    unitary_superchannel,
)

_START = time.perf_counter()


def _passed(label: str) -> None:
    print(f"[PASS] {label}")


def _findings(report) -> dict:
    return {f.key: f for f in report.results}


def _values(report) -> dict:
    return {f.key: f.value for f in report.results}


def test_criterion_01_dimension_formula():
    start = time.perf_counter()
    for d in (1, 2, 3):
        for r in (1, 2, 3):
            assert len(span_basis(d, r)) == span_dim(d, r) == d * d * r * r - d * d + 1
    assert time.perf_counter() - start < 1.0
    _passed("criterion 1: basis sizes match d^2 r^2 - d^2 + 1 on {1,2,3}^2, < 1 s")


def test_criterion_01_judges_the_runtime_it_reports(monkeypatch):
    """The demo reports wall-clock time and judges none of it: ``runtime_s``
    is the one span between two readings, with no bound and no verdict."""
    # a clock that moves 0.6 s per reading: a second reading would report 1.2 s
    ticks = itertools.count(0.0, 0.6)
    monkeypatch.setattr(demo, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    report = demo.check_nonunique_extension()
    runtime = _findings(report)["runtime_s"]
    assert runtime.value == 0.6 and runtime.tol is None and runtime.ok is None
    assert report.status == PASS
    # 400 s per reading: a suite bounded by the clock would fail here
    ticks = itertools.count(0.0, 400.0)
    summary = demo.run_all()[-1]
    assert summary.command == "demo-suite" and summary.status == PASS
    assert all(f.tol is None and f.ok is None for f in summary.results)


def test_criterion_02_tensor_inclusion_gap():
    report = demo.check_tensor_gap()
    values = _values(report)
    assert values["gap(2,2,2,2)"] == 72
    assert values["241 - 169"] == 241 - 169
    assert values["rank of product span"] == 169
    assert values["rank of joint span"] == 241
    assert values["rank gap"] == 72
    assert report.status == PASS
    assert values["runtime_s"] < 10.0
    _passed("criterion 2: tensor gap 241 - 169 = 72 cross-checked by explicit ranks, < 10 s")


def test_criterion_03_nonunique_extension():
    found = _findings(demo.check_nonunique_extension())
    assert found["| ||C1 - C2||_F - 2 |"].value <= 1e-12
    assert found["restrictions equal"].value is True
    assert found["restrictions equal"].tol <= 1e-10
    assert found["runtime_s"].value < 1.0
    _passed("criterion 3: distinct supermaps (Frobenius distance 2) with equal restriction to 1e-10")


def test_criterion_04_marginal_ranks():
    values = _values(demo.check_marginal_ranks())
    assert values["aux_dim first readout"] == 1
    assert values["aux_dim second readout"] == 1
    assert values["marginal(first) - diag(2,0)"] <= 1e-12
    assert values["marginal(second) - diag(0,2)"] <= 1e-12
    for p in (0.25, 0.5, 0.75):
        assert values[f"aux_dim mixture p={p}"] == 2
        assert values[f"marginal mixture p={p}"] <= 1e-12
    _passed("criterion 4: aux dims 1/1/2 with marginals diag(2,0), diag(0,2), diag(2p, 2-2p) to 1e-12")


def test_criterion_05_no_tp_extension():
    values = _values(demo.check_no_tp_extension())
    assert values["tp status"] == "infeasible"
    assert values["tp gap"] > 1e-6
    assert values["cp status"] == "feasible"
    assert values["seeded status"] == "feasible"
    assert values["seeded witness reproduces the diagonal supermap"] <= 1e-8
    assert values["runtime_s"] < 60.0
    _passed("criterion 5: TP extension infeasible (gap > 1e-6), CP extension feasible "
            "with the diagonal witness to 1e-8, < 60 s")


def test_criterion_06_tensor_pathology():
    values = _values(demo.check_tensor_pathology(tol=1e-10))
    assert values["restrictions equal on the small span"] is True
    assert values["tensored restrictions differ"] is True
    assert values["runtime_s"] < 5.0
    _passed("criterion 6: equal actions on the small span, unequal after tensoring, < 5 s")


def _generated_superchannels():
    """The 20 generated (2,2,2,2) superchannels of criteria 7 and 8, e = 1, 2, 1, ..."""
    rng = np.random.default_rng(515)
    for k in range(20):
        e = 1 + (k % 2)
        yield random_superchannel(2, 2, 2, 2, e, rng), e


def test_criterion_07_pre_post_round_trip():
    rng = np.random.default_rng(99)
    worst_iso = worst_apply = 0.0
    max_e_excess = 0
    for sc, e_gen in _generated_superchannels():
        form = pre_post_form(sc)
        max_e_excess = max(max_e_excess, form.e - e_gen)
        worst_iso = max(worst_iso, frob(form.v_pre.conj().T @ form.v_pre - np.eye(sc.d2)))
        rebuilt = recompose(form.v_pre, form.post, form.e)
        for _ in range(10):
            phi = random_channel(sc.d1, sc.r1, int(rng.integers(1, sc.d1 * sc.r1 + 1)), rng)
            worst_apply = max(worst_apply, frob(apply_superchannel(sc, phi).choi
                                                - apply_superchannel(rebuilt, phi).choi))
    assert max_e_excess <= 0
    assert worst_iso <= 1e-9
    assert worst_apply <= 1e-8
    _passed("criterion 7: 20 generated superchannels re-factored with e <= generator e, "
            "isometry residual <= 1e-9, action agreement <= 1e-8")


def test_criterion_08_induced_map_identity():
    rng = np.random.default_rng(7177)
    worst_eq = worst_unital = worst_marg = 0.0
    for sc, _ in _generated_superchannels():
        n_map, _, unital = marginal_map_residual(sc.choi, sc.dims)
        worst_unital = max(worst_unital, unital)
        worst_marg = max(worst_marg, frob(marginal(sc) - sc.r1 * n_map.choi))
        for _ in range(50):
            c = random_hermitian(sc.d1 * sc.r1, rng)
            lhs = partial_trace(apply_superchannel(sc, c), (sc.d2, sc.r2), {1})
            rhs = apply_choi(n_map, partial_trace(c, (sc.d1, sc.r1), {1}))
            worst_eq = max(worst_eq, frob(lhs - rhs))
    assert worst_eq <= 1e-9
    assert worst_unital <= 1e-9
    assert worst_marg <= 1e-9
    _passed("criterion 8: marginal factorisation, unitality and double-marginal identity to 1e-9")


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


def test_criterion_09_scale_preservation():
    """Every fixture preserves the trace-scaling factor on the whole span: the
    drift is the larger of the marginal map's lift and unitality residuals."""
    worst = max(max(marginal_map_residual(sc.choi, sc.dims)[1:])
                for sc in _fixture_superchannels())
    assert worst <= 1e-9
    _passed("criterion 9: trace-scaling factor preserved to 1e-9 across fixtures and basis")


def test_criterion_10_unitary_superchannels():
    rng = np.random.default_rng(2026)
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
        worst_recovery = max(worst_recovery, frob(kron(*factors) - kron(u1, u2)))
    assert all_good
    assert worst_recovery <= 1e-8

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
    assert non_product_ok
    _passed("criterion 10: 20 product conjugations verified (aux dim 1, order unit, factors "
            "to 1e-8); 20 non-product conjugations rejected")


def test_criterion_11_extremality():
    spaces = extremal.extension_constraint_spaces(2, 2)
    readouts = [as_channel(block_trace_readout(0)), as_channel(block_trace_readout(1)),
                as_channel(readout_mixture(0.5))]
    results = [extremal.extremality(phi, spaces) for phi in readouts]
    assert results[0].extreme is True
    assert results[1].extreme is True
    assert results[2].extreme is False

    rng = np.random.default_rng(4242)
    fixed_unit = extremal.ConstraintSpaces((np.eye(2, dtype=complex),), ())
    results += [extremal.extremality(random_channel(2, 2, 1 + (k % 4), rng), fixed_unit)
                for k in range(20)]
    # extremality checks each pair before returning it, so its presence is the evidence
    assert all(res.extreme or res.pair is not None for res in results)
    _passed("criterion 11: readout extensions extreme, midpoint not; every non-extreme "
            "verdict carries a verified pair")


def test_criterion_12_property_gate():
    # one generator for the three parts, drawn in this order
    rng = np.random.default_rng(31337)
    dims = [(2, 2), (2, 3), (3, 2), (3, 3)]
    worst_rt = 0.0
    for k in range(100):
        d, r = dims[k % len(dims)]
        lo = max(1, -(-d // r))  # smallest rank that still allows trace preservation
        phi = random_channel(d, r, int(rng.integers(lo, d * r + 1)), rng)
        back = choi_from_kraus(kraus_from_choi(phi))
        worst_rt = max(worst_rt, frob(back.choi - phi.choi) / rel_scale(phi.choi))
    assert worst_rt <= 1e-9

    m = random_hermitian(6, rng)
    base = frob(m - psd_project(m))
    optimal = True
    for _ in range(100):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        optimal &= base <= frob(m - g @ g.conj().T) + 1e-12
    assert optimal

    worst_rec = 0.0
    for _ in range(50):
        c = np.zeros((4, 4), dtype=complex)
        for _ in range(3):
            z = complex(rng.standard_normal(), rng.standard_normal())
            c = c + z * random_channel(2, 2, int(rng.integers(1, 5)), rng).choi
        terms = decompose_into_channels(c, 2, 2)
        rebuilt = sum((coeff * ch.choi for coeff, ch in terms), np.zeros((4, 4), dtype=complex))
        worst_rec = max(worst_rec, frob(rebuilt - c) / rel_scale(c))
    assert worst_rec <= 1e-9
    _passed("criterion 12: 100 Choi/Kraus round trips <= 1e-9, projection optimality, "
            "50 span decompositions <= 1e-9")


def test_full_suite_runs_quickly():
    elapsed = time.perf_counter() - _START
    assert elapsed < 300.0
    _passed(f"acceptance module wall clock {elapsed:.1f} s < 300 s")
