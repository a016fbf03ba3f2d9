"""The Douglas-Rachford loop of ``feasibility.solve`` against its written-out
reference, and the primal-dual Newton phase that ``solve`` runs after
``newton_after(m)``.

``solve`` takes a bare ``eigh`` of the lower triangle, forms the PSD shadow
as one Gram product and updates its iterate in place; ``reference_solve``
validates and symmetrises each eigendecomposition and each shadow and builds
a fresh iterate every step, and has no Newton phase.  The two must agree on
status, iteration count and witness up to the switch, and after it wherever
the phase returns no verdict; ``solve``'s witness must be exactly Hermitian,
and ``solve`` must leave its inputs alone.  The phase's closed-form
direction coordinates and Hessian are checked against dense ones and
against the orthonormal basis they replace, and the phase, which measures t
against the output marginal, against ``reference_newton_phase``, the phase
with the identity as its unit; each step's LAPACK calls are counted.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _dense_reference import direction_basis, reference_newton_phase, reference_solve
from superchannels import feasibility
from superchannels.config import DEFAULTS
from superchannels.extend import SpanAction, affine_set, restrict_superchannel
from superchannels.feasibility import (
    CERTIFICATE,
    FEASIBLE,
    INFEASIBLE,
    NONE,
    SHADOW,
    STRICT,
    UNDETERMINED,
    Certificate,
    newton_after,
    newton_phase,
    solve,
)
from superchannels.gallery import block_trace_readout, no_tp_action, readout_action
from superchannels.linalg import random_hermitian
from superchannels.supermaps import (
    Superchannel,
    identity_superchannel,
    is_superchannel,
    random_superchannel,
    restrictions_equal,
)


def _random_restriction(seed):
    return affine_set(restrict_superchannel(
        random_superchannel(2, 2, 2, 2, e=1 + seed % 2, seed=seed)))


# each case with its cap
CASES = {
    "random-400": (lambda: _random_restriction(400), 20_000),
    "random-403": (lambda: _random_restriction(403), 127),
    "random-408": (lambda: _random_restriction(408), 20_000),
    "identity-2323": (lambda: affine_set(restrict_superchannel(identity_superchannel(2, 3))),
                      20_000),
    "identity-3232": (lambda: affine_set(restrict_superchannel(identity_superchannel(3, 2))),
                      20_000),
    # here, at n = 81, the Gram product itself is not exactly Hermitian
    "random-3333": (lambda: affine_set(restrict_superchannel(
        random_superchannel(3, 3, 3, 3, e=1, seed=0))), 20_000),
}
# the (2,2,2,2) cases switch at iteration 4, before Douglas-Rachford ends
# them (random-403 at iteration 112), so they run with the phase patched out
PHASE_FIRST = ("random-400", "random-403", "random-408")


def _no_phase(monkeypatch):
    """Patch the Newton phase out of ``solve``: it returns no verdict after
    no step, so Douglas-Rachford runs on exactly as if it had not run, and
    the report's ``newton_exit`` reads ``NONE`` wherever the switch came."""
    monkeypatch.setattr(feasibility, "newton_phase",
                        lambda affine, start=None: (None, NONE, 0, None, None))


@pytest.mark.parametrize("name", CASES)
def test_solve_matches_reference_loop(name, monkeypatch):
    make, cap = CASES[name]
    affine = make()
    patched = name in PHASE_FIRST
    if patched:
        _no_phase(monkeypatch)
    got, (want, _) = solve(affine, max_iter=cap), reference_solve(affine, max_iter=cap)
    assert got.status == want.status == FEASIBLE
    assert got.newton_steps == 0
    assert got.newton_exit == (NONE if patched else "")
    assert got.iterations == want.iterations
    np.testing.assert_allclose(got.witness, want.witness, rtol=0, atol=1e-10)
    assert np.array_equal(got.witness, got.witness.conj().T)


def test_tp_no_tp_action_infeasible_at_the_reference_iteration():
    affine = affine_set(no_tp_action(), trace_preserving=True)
    got, (want, _) = solve(affine), reference_solve(affine)
    assert got.status == want.status == INFEASIBLE
    assert got.iterations == want.iterations == 4
    assert got.certificate.margin < 0
    assert got.certificate.margin == pytest.approx(want.certificate.margin, abs=1e-10)


def test_solve_leaves_anchor_and_seed_unchanged():
    affine = _random_restriction(403)
    anchor = affine.anchor.copy()
    seed = random_hermitian(affine.anchor.shape[0], np.random.default_rng(5))
    seed_copy = seed.copy()
    for kwargs in ({}, {"seed_point": seed}):
        report = solve(affine, max_iter=300, **kwargs)
        assert report.iterations > 1
        assert np.array_equal(affine.anchor, anchor)
    assert np.array_equal(seed, seed_copy)


def test_feasible_seed_returns_itself_at_iteration_one():
    g1 = block_trace_readout(0)
    affine = affine_set(restrict_superchannel(g1))
    seed = g1.choi.copy()
    report = solve(affine, seed_point=seed)
    assert report.status == FEASIBLE and report.iterations == 1
    np.testing.assert_allclose(report.witness, g1.choi, rtol=0, atol=1e-10)
    assert np.array_equal(seed, g1.choi)


# -- the Newton phase ------------------------------------------------------------

def _cap_instance(seed):
    return random_superchannel(2, 2, 2, 2, e=1 + seed % 2, seed=seed)


def _thr(affine):
    return DEFAULTS.affine_tol * affine.rhs_scale


def _assert_verified(point, sc, affine):
    """A witness of the restriction of ``sc``: it passes the affine rule, and
    as a supermap it is a superchannel that agrees with ``sc`` on the span."""
    assert np.array_equal(point, point.conj().T)
    assert affine.residual(point) <= _thr(affine)
    ext = Superchannel(sc.d1, sc.r1, sc.d2, sc.r2, point)
    assert is_superchannel(ext, 1e-7)
    assert restrictions_equal(ext, sc, 1e-6)


@pytest.mark.parametrize("m", [1, 48, 64])
def test_switch_is_4_up_to_64_directions(m):
    """(2,2,2,2)'s 48 directions and the two edges."""
    assert newton_after(m) == 4


@pytest.mark.parametrize("m, switch", [(108, 128), (288, 512), (648, 1024), (65, 128)])
def test_switch_is_the_first_power_of_two_at_or_above_m(m, switch):
    """Above 64 directions: the ladder's direction counts, (2,3,2,3) to
    (3,3,3,3), and the edge."""
    assert newton_after(m) == switch


@pytest.mark.parametrize("seed", [s for s in range(400, 420) if s not in (415, 419)])
def test_solve_matches_reference_loop_on_the_cap_instances(seed, monkeypatch):
    """Douglas-Rachford is the reference loop, with the phase patched out
    past the switch at iteration 4.  Seeds 400, 408, 409, 414, 416, 417 and
    418 end by iteration 64, at a cap of 20,000, with the reference's
    iteration count and witness.  The others are still open at 64, and at a
    cap of 127 they match the reference's run at that cap: feasible for
    seeds 403, 410, 412 and 413, undetermined for the rest."""
    _no_phase(monkeypatch)
    affine = affine_set(restrict_superchannel(_cap_instance(seed)))
    switch = newton_after(affine.directions.size)
    assert switch == 4
    early = seed in (400, 408, 409, 414, 416, 417, 418)
    cap = 20_000 if early else 127
    want, _ = reference_solve(affine, max_iter=cap)
    assert (want.iterations <= 64) == early
    assert (want.status == UNDETERMINED) == (seed in (401, 402, 404, 405, 406, 407, 411))
    got = solve(affine, max_iter=cap)
    assert got.status == want.status
    assert got.iterations == want.iterations > switch
    assert (got.newton_after, got.newton_steps, got.newton_exit) == (switch, 0, NONE)
    if want.status == FEASIBLE:
        np.testing.assert_allclose(got.witness, want.witness, rtol=0, atol=1e-10)
    else:
        assert got.gap == pytest.approx(want.gap, rel=1e-8)


@pytest.mark.parametrize("seed", [402, 415, 419])
def test_thin_sets_get_a_strict_witness_after_the_switch(seed):
    affine = affine_set(restrict_superchannel(_cap_instance(seed)))
    report = solve(affine, max_iter=20_000)
    assert report.status == FEASIBLE
    assert report.iterations == report.newton_after == 4
    assert report.newton_exit == STRICT
    assert 0 < report.newton_steps <= 12
    assert np.linalg.eigvalsh(report.witness)[0] > 0
    _assert_verified(report.witness, _cap_instance(seed), affine)


def test_cap_at_the_switch_is_pure_douglas_rachford():
    """Any cap below twice the switch runs no phase, so a capped run costs at
    most its cap; from twice the switch on, the phase runs."""
    affine = affine_set(restrict_superchannel(_cap_instance(415)))
    switch = newton_after(affine.directions.size)
    for cap in (switch, 2 * switch - 1):
        got, (want, _) = solve(affine, max_iter=cap), reference_solve(affine, max_iter=cap)
        assert got.status == want.status == UNDETERMINED
        assert got.iterations == want.iterations == cap
        assert got.gap == pytest.approx(want.gap, rel=1e-8)
        assert (got.newton_steps, got.newton_exit) == (0, "")
    assert solve(affine, max_iter=2 * switch).newton_exit == STRICT


@pytest.mark.parametrize("seed", [401, 403, 404, 410, 411, 412, 413, 417])
def test_sets_without_a_positive_definite_point_exit_the_phase(seed):
    """The unique extensions: no point of the set is positive definite, and
    the phase exits with the PSD shadow of its point as the witness."""
    affine = affine_set(restrict_superchannel(_cap_instance(seed)))
    witness, kind, steps, _, _ = newton_phase(affine)
    assert kind == SHADOW
    assert 0 < steps <= 12
    _assert_verified(witness, _cap_instance(seed), affine)


def test_a_unique_extension_ends_at_the_switch_with_a_shadow():
    """Seed 401, which Douglas-Rachford alone ends at iteration 2,261."""
    affine = affine_set(restrict_superchannel(_cap_instance(401)))
    report = solve(affine, max_iter=20_000)
    assert report.status == FEASIBLE
    assert report.iterations == report.newton_after == 4
    assert report.newton_exit == SHADOW
    assert 0 < report.newton_steps <= 12
    assert report.affine_residual == affine.residual(report.witness)
    _assert_verified(report.witness, _cap_instance(401), affine)


def test_a_phase_without_a_witness_resumes_douglas_rachford(monkeypatch):
    """A phase that ends without a verdict leaves the run to Douglas-Rachford,
    exactly as if it had not run.  No measured set whose start factorises
    makes the phase end that way, so here the phase runs on seed 401 and its
    witness is dropped: the run then ends as the reference's does, feasible
    at iteration 2,261 with the same witness."""
    def no_verdict(affine, start=None):
        _, _, steps, dual, _ = newton_phase(affine, start)
        return None, NONE, steps, dual, None

    monkeypatch.setattr(feasibility, "newton_phase", no_verdict)
    affine = affine_set(restrict_superchannel(_cap_instance(401)))
    got, (want, _) = solve(affine, max_iter=5_000), reference_solve(affine, max_iter=5_000)
    assert got.status == want.status == FEASIBLE
    assert got.iterations == want.iterations == 2261
    assert got.newton_after == 4 and got.newton_exit == NONE and 0 < got.newton_steps <= 12
    np.testing.assert_allclose(got.witness, want.witness, rtol=0, atol=1e-10)


@pytest.mark.parametrize("seed, steps, kind", [(401, 10, SHADOW), (402, 3, STRICT)])
def test_each_step_makes_the_same_lapack_calls(seed, steps, kind, monkeypatch):
    """The phase's LAPACK work, in order, counted by wrapping ``np.linalg``
    from DR's point at the switch.  The set-up takes M's ``eigh``, the
    ``eigvalsh`` that places t and S's Cholesky factorisation.  Every step
    then takes one ``eigh`` (of ``L^H X L``), a ``solve`` against ``L^H``
    for R, the two Schur solves, the predictor's ``eigvalsh`` and the
    corrector's batched over its two matrices, and S's factorisation; the
    strict exit adds the factorisation of ``W - (t/2) E`` and the shadow
    exit ``_shadow``'s ``eigh``.  No step inverts a matrix."""
    calls, counting = [], [False]

    def counted(name, call):
        def wrapper(a, *args, **kwargs):
            if counting[0]:
                calls.append((name, np.ndim(a)))
            return call(a, *args, **kwargs)
        return wrapper

    for name in ("inv", "eigh", "solve", "eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    phase = feasibility.newton_phase

    def counted_phase(affine, start=None):
        counting[0] = True
        try:
            return phase(affine, start)
        finally:
            counting[0] = False

    monkeypatch.setattr(feasibility, "newton_phase", counted_phase)
    report = solve(affine_set(restrict_superchannel(_cap_instance(seed))), max_iter=20_000)
    assert (report.newton_steps, report.newton_exit) == (steps, kind)
    step = [("eigh", 2), ("solve", 2), ("solve", 2), ("eigvalsh", 2), ("solve", 2),
            ("eigvalsh", 3), ("cholesky", 2)]
    exit_calls = [("eigh", 2)] if kind == SHADOW else [("cholesky", 2)]
    assert calls == [("eigh", 2), ("eigvalsh", 2), ("cholesky", 2)] + step * steps + exit_calls


def _tp_restriction(dims, seed):
    return affine_set(restrict_superchannel(random_superchannel(*dims, e=2, seed=seed)),
                      trace_preserving=True)


@pytest.mark.parametrize("dims, seed, dr_alone", [((2, 2, 2, 2), 5, 128),
                                                  ((2, 2, 2, 2), 26, 2048),
                                                  ((2, 2, 2, 2), 32, 512),
                                                  ((2, 3, 2, 3), 5, 512),
                                                  ((2, 3, 2, 3), 26, 512)])
def test_the_phase_certifies_infeasible_tp_sets_at_the_switch(dims, seed, dr_alone):
    """TP extensions of restrictions that have none, still open at the
    switch: the phase's dual matrix checks as a Farkas certificate within
    five steps, where Douglas-Rachford alone needs ``dr_alone`` iterations.
    The two verdicts agree."""
    affine = _tp_restriction(dims, seed)
    got, (want, _) = solve(affine, max_iter=5_000), reference_solve(affine, max_iter=5_000)
    assert got.status == want.status == INFEASIBLE
    assert want.iterations == dr_alone
    assert got.iterations == got.newton_after == newton_after(affine.directions.size)
    assert got.newton_exit == CERTIFICATE
    assert 0 < got.newton_steps <= 5
    assert got.certificate.margin < 0
    assert got.certificate.kernel_term <= 1e-12


def _marginal(affine):
    """The output marginal ``Tr_{n1}(anchor)`` that every point of the set shares."""
    anchor, n2 = affine.anchor, affine.directions.k
    n1 = anchor.shape[0] // n2
    return anchor.reshape(n1, n2, n1, n2).trace(axis1=0, axis2=2)


def _unit(affine):
    """The phase's unit E: ``I_{n1} (x) M`` for the output marginal M, scaled
    so that ``Tr E = n``, or the identity when ``lambda_min(M)`` is at most
    ``sqrt(affine_tol)`` times ``lambda_max(M)``."""
    marg, n = _marginal(affine), affine.anchor.shape[0]
    w = np.linalg.eigvalsh(marg)
    if w[0] <= np.sqrt(DEFAULTS.affine_tol) * w[-1]:
        return np.eye(n)
    return np.kron(np.eye(n // len(marg)), marg) * (len(marg) / np.trace(affine.anchor).real)


def _assert_weak_duality(affine, dual):
    """The phase's last dual point ``(t, X)`` is feasible and bounds t: X is
    Hermitian PSD with ``<E, X> = 1`` for the phase's unit E and orthogonal
    to the directions, each ``<B_a, X>`` over an orthonormal basis B_a of
    them at most 1e-12, and ``<anchor, X> >= t``."""
    t, x = dual
    assert np.array_equal(x, x.conj().T)
    assert np.linalg.eigvalsh(x)[0] >= 0
    assert np.vdot(_unit(affine), x).real == pytest.approx(1.0, abs=1e-12)
    dirs = affine.directions
    basis = direction_basis(dirs.d, dirs.r, dirs.k, dirs.tp)
    assert np.abs(np.einsum("aij,ji->a", basis, x).real).max() <= 1e-12
    assert np.vdot(x, affine.anchor).real >= t


@pytest.mark.parametrize("make, kind", [
    (lambda: affine_set(restrict_superchannel(_cap_instance(400))), STRICT),
    (lambda: affine_set(restrict_superchannel(_cap_instance(401))), SHADOW),
    (lambda: _tp_restriction((2, 2, 2, 2), 32), CERTIFICATE),
    (lambda: affine_set(no_tp_action(), trace_preserving=True), CERTIFICATE),
])
def test_weak_duality_holds_at_every_exit(make, kind):
    affine = make()
    found, got, steps, dual, _ = newton_phase(affine)
    assert got == kind and steps > 0
    _assert_weak_duality(affine, dual)
    t, x = dual
    if kind == CERTIFICATE:
        assert isinstance(found, Certificate)
        assert np.vdot(x, affine.anchor).real < 0 and found.margin < 0
    else:
        # X bounds every point W of the set, the largest s with W - s E >= 0 of
        # the witness too: its smallest eigenvalue relative to E
        lowest = scipy.linalg.eigh(found, _unit(affine), eigvals_only=True)[0]
        assert np.vdot(x, affine.anchor).real >= lowest - 1e-12


def test_douglas_rachford_gap_windows_shrink():
    """The gap windows of a Douglas-Rachford history after burn-in shrink,
    here on the reference loop's 2,261 iterations of seed 401 (the iterates
    ``solve`` follows up to its switch)."""
    affine = affine_set(restrict_superchannel(_cap_instance(401)))
    report, h = reference_solve(affine, max_iter=20_000)
    assert report.status == FEASIBLE
    assert len(h) == 2261
    windows = [max(h[i:i + 100]) for i in range(100, len(h) - 100, 100)]
    for earlier, later in zip(windows, windows[1:]):
        assert later <= earlier * (1 + 1e-9)


def test_a_larger_set_without_a_positive_definite_point_crosses_at_512():
    """``(3,2,3,2)``, seed 2, e = 2: m = 288 directions, so the switch comes at
    iteration 512; Douglas-Rachford alone needs 16,149 iterations."""
    sc = random_superchannel(3, 2, 3, 2, e=2, seed=2)
    affine = affine_set(restrict_superchannel(sc))
    report = solve(affine, max_iter=20_000)
    assert report.status == FEASIBLE
    assert report.iterations == report.newton_after == 512
    assert report.newton_exit == SHADOW
    assert 0 < report.newton_steps <= 25
    _assert_verified(report.witness, sc, affine)


def test_newton_phase_stops_at_once_on_a_set_without_positive_trace():
    """Every point of the set shares the anchor's trace, so a negated
    restriction has no positive definite point, and no floor to clear."""
    action = restrict_superchannel(_cap_instance(415))
    negated = SpanAction(2, 2, 2, 2, tuple(-y for y in action.images))
    assert newton_phase(affine_set(negated)) == (None, NONE, 0, None, None)


def test_newton_phase_stops_at_once_when_the_start_does_not_factorise():
    """The starting ``S = anchor - t I`` has smallest eigenvalue
    ``Tr(anchor)/n``; under the rounding of a large anchor it is singular.
    Here the anchor is ``2^-60 I`` plus a Hermitian part with eigenvalues
    +-1, so ``S`` rounds to a singular matrix."""
    affine = _random_restriction(415)
    n = affine.anchor.shape[0]
    anchor = np.kron(np.eye(n // 2), [[0, 1], [1, 0]]) + 2.0 ** -60 * np.eye(n)
    assert np.trace(anchor) > 0
    assert newton_phase(dataclasses.replace(affine, anchor=anchor.astype(complex))) == (
        None, NONE, 0, None, None)


LADDER = [(2, 2, 2, 2), (2, 3, 2, 3), (3, 2, 3, 2), (3, 3, 3, 3)]


@pytest.mark.parametrize("tp", [False, True])
@pytest.mark.parametrize("dims", LADDER)
def test_direction_basis_is_an_orthonormal_basis_of_the_directions(dims, tp):
    """The matrix coordinates describe the directions, though not
    orthonormally: ``combine`` of each coordinate vector is fixed by
    ``project(.) - project(0)``, ``coords`` is the adjoint of ``combine``
    (``Re Tr(combine(z) M) = z . coords(M)`` for random z and complex M),
    ``combine`` has rank m, the dimension of the directions, and the kernel
    part of a random matrix is the combination of its own coordinates
    through the Gram matrix ``coords(combine(.))``."""
    d1, r1, d2, r2 = dims
    n2 = d2 * r2
    affine = affine_set(restrict_superchannel(random_superchannel(*dims, e=1, seed=1)),
                        trace_preserving=tp)
    dirs = affine.directions
    assert dirs.size == (d1 * d1 - 1) * (n2 * n2 - (1 if tp else 0))
    n = affine.anchor.shape[0]
    base = affine.project(np.zeros((n, n), dtype=complex))
    gram = np.empty((dirs.size, dirs.size))
    for a, unit in enumerate(np.eye(dirs.size)):
        b = dirs.combine(unit)
        np.testing.assert_allclose(affine.project(b) - base, b, rtol=0, atol=1e-14)
        gram[:, a] = dirs.coords(b)
    assert np.array_equal(gram, gram.T)
    assert np.linalg.matrix_rank(gram) == dirs.size
    rng = np.random.default_rng(2)
    for _ in range(3):
        z = rng.standard_normal(dirs.size)
        m = random_hermitian(n, rng) + 1j * random_hermitian(n, rng)
        assert np.trace(dirs.combine(z) @ m).real == pytest.approx(
            z @ dirs.coords(m), rel=1e-12, abs=1e-12)
    k = affine.project(random_hermitian(n, rng)) - base
    np.testing.assert_allclose(dirs.combine(np.linalg.solve(gram, dirs.coords(k))), k,
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("tp", [False, True])
@pytest.mark.parametrize("dims", LADDER)
def test_closed_form_hessian_matches_the_dense_one(dims, tp):
    """``z1 . hessian(G) z2 = Re Tr(G combine(z1) G combine(z2))`` for random
    z1, z2 and Hermitian G, and the Hessian is exactly symmetric."""
    affine = affine_set(restrict_superchannel(random_superchannel(*dims, e=2, seed=3)),
                        trace_preserving=tp)
    dirs = affine.directions
    rng = np.random.default_rng(4)
    g = random_hermitian(affine.anchor.shape[0], rng)
    hess = dirs.hessian(g)
    assert hess.shape == (dirs.size, dirs.size)
    assert np.array_equal(hess, hess.T)
    for _ in range(3):
        z1, z2 = rng.standard_normal((2, dirs.size))
        dense = np.trace(g @ dirs.combine(z1) @ g @ dirs.combine(z2)).real
        assert z1 @ hess @ z2 == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("tp", [False, True])
@pytest.mark.parametrize("dims", LADDER[:3])
def test_direction_coordinates_match_the_orthonormal_basis(dims, tp):
    """The dense oracle: with ``T[a, i] = <B_a, combine(e_i)>`` over the
    orthonormal basis B_a built from ``hermitian_basis``, every
    ``combine(e_i)`` is ``sum_a T[a, i] B_a``, ``coords(G) = T^T <B, G>`` and
    ``hessian(G) = T^T Tr(G B_a G B_b) T`` to 1e-13 of its largest entry."""
    d1, r1, d2, r2 = dims
    affine = affine_set(restrict_superchannel(random_superchannel(*dims, e=2, seed=3)),
                        trace_preserving=tp)
    dirs = affine.directions
    basis = direction_basis(d1, r1, d2 * r2, tp)
    combined = np.array([dirs.combine(unit) for unit in np.eye(dirs.size)])
    change = np.einsum("aij,bji->ab", basis, combined).real
    np.testing.assert_allclose(np.tensordot(change.T, basis, 1), combined, rtol=0, atol=1e-14)
    g = random_hermitian(affine.anchor.shape[0], np.random.default_rng(4))
    np.testing.assert_allclose(dirs.coords(g), change.T @ np.einsum("aij,ji->a", basis, g).real,
                               rtol=0, atol=1e-12)
    gb = g @ basis
    dense = (gb.reshape(len(basis), -1) @ gb.transpose(0, 2, 1).reshape(len(basis), -1).T).real
    dense = change.T @ dense @ change
    np.testing.assert_allclose(dirs.hessian(g), dense, rtol=0, atol=1e-13 * np.abs(dense).max())


def test_a_set_without_directions_has_empty_coordinates():
    """Under trace preservation with n2 = 1 (``readout_action``) the set has
    no directions: every map on the coordinates is empty, and the phase runs
    on the Schur complement of t alone.  This set is inconsistent, so the
    phase ends without a verdict."""
    affine = affine_set(readout_action(), trace_preserving=True)
    dirs = affine.directions
    assert dirs.size == 0
    n = affine.anchor.shape[0]
    g = random_hermitian(n, np.random.default_rng(1))
    assert dirs.hessian(g).shape == (0, 0)
    assert dirs.coords(g).shape == (0,)
    assert np.array_equal(dirs.combine(np.zeros(0)), np.zeros((n, n)))
    assert newton_phase(affine)[1] == NONE


@settings(max_examples=12, deadline=None)
@given(dims=st.sampled_from([(2, 2, 2, 2), (2, 3, 2, 3)]),
       e=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(dims=(2, 2, 2, 2), e=2, seed=3117)  # 13 steps; X's direction part was 4.1e-12
def test_newton_phase_returns_a_proved_witness_or_none(dims, e, seed):
    """A strict witness is positive definite, a shadow passes the affine
    rule, and either kind verifies; the set is feasible, so no certificate
    checks, and the last dual point bounds t."""
    sc = random_superchannel(*dims, e=e, seed=seed)
    affine = affine_set(restrict_superchannel(sc))
    witness, kind, steps, dual, residual = newton_phase(affine)
    assert steps >= 1
    assert kind in (STRICT, SHADOW, NONE)
    assert (witness is None) == (kind == NONE) == (residual is None)
    _assert_weak_duality(affine, dual)
    if kind == STRICT:
        assert np.linalg.eigvalsh(witness)[0] > 0
    if witness is not None:
        assert residual == affine.residual(witness)
        _assert_verified(witness, sc, affine)


# -- the phase against the one it replaced (_dense_reference) -------------------

def _phase_starts(affines, monkeypatch):
    """Each set with the affine point Douglas-Rachford hands the phase at
    iteration 4; the sets DR ends sooner are left out."""
    starts = []
    monkeypatch.setattr(feasibility, "newton_after", lambda m: 4)
    monkeypatch.setattr(feasibility, "newton_phase", lambda affine, start=None: (
        starts.append((affine, start)), (None, NONE, 0, None, None))[1])
    for affine in affines:
        solve(affine, max_iter=8)
    monkeypatch.undo()
    return starts


# name: (dims, seeds, e values as a function of the seed, trace preserving)
ORACLE_SETS = {
    "extend-cap": ((2, 2, 2, 2), range(400, 420), lambda s: (1 + s % 2,), False),
    "2222-CP": ((2, 2, 2, 2), range(10), lambda s: (1, 2, 3), False),
    "2222-TP": ((2, 2, 2, 2), range(10), lambda s: (1, 2, 3), True),
    "2323-CP": ((2, 3, 2, 3), range(4), lambda s: (1, 2, 3), False),
    "2323-TP": ((2, 3, 2, 3), range(4), lambda s: (1, 2, 3), True),
}


@pytest.mark.parametrize("name", ORACLE_SETS)
def test_the_phase_ends_as_the_identity_unit_phase_does(name, monkeypatch):
    """From the point DR holds at iteration 4, the phase measured against the
    output marginal ends every set as ``reference_newton_phase`` (the phase
    with ``E = I``) does, in no more steps in all.  Every witness verifies as
    a superchannel that restricts to the generator's action, and every
    certificate has a negative margin."""
    dims, seeds, es, tp = ORACLE_SETS[name]
    scs = [random_superchannel(*dims, e=e, seed=s) for s in seeds for e in es(s)]
    affines = [affine_set(restrict_superchannel(sc), trace_preserving=tp) for sc in scs]
    generators = {id(a): sc for a, sc in zip(affines, scs)}
    got_steps = want_steps = 0
    for affine, start in _phase_starts(affines, monkeypatch):
        found, kind, steps, _, _ = newton_phase(affine, start)
        _, want_kind, want, _ = reference_newton_phase(affine, start)
        assert kind == want_kind
        got_steps, want_steps = got_steps + steps, want_steps + want
        if kind == CERTIFICATE:
            assert found.margin < 0
        elif found is not None:
            _assert_verified(found, generators[id(affine)], affine)
    assert got_steps <= want_steps


def _replaced(sc, psi):
    """``sc`` followed by the channel that replaces the r2 output with the
    pure state psi: a superchannel whose output marginal is singular."""
    n1, n = sc.d1 * sc.r1, sc.choi.shape[0]
    c = sc.choi.reshape(n1, sc.d2, sc.r2, n1, sc.d2, sc.r2).trace(axis1=2, axis2=5)
    p = np.outer(psi, psi.conj())
    out = c[:, :, None, :, :, None] * p[None, None, :, None, None, :]
    return Superchannel(sc.d1, sc.r1, sc.d2, sc.r2, out.reshape(n, n))


@pytest.mark.parametrize("tp", [False, True])
@pytest.mark.parametrize("mix", [0.0, 1e-6, 1e-8])
@pytest.mark.parametrize("dims", LADDER[:2])
def test_a_singular_output_marginal_keeps_the_identity_unit(dims, mix, tp):
    """No point of a set whose output marginal M is singular is positive
    definite, so the phase keeps ``E = I``; so it does when M is nearly
    singular (the generator mixed back in with weight 1e-6 or 1e-8), where a
    unit with M's condition number stalled the phase or ended it without a
    verdict.  On the pure replacement's (2,2,2,2) set a Cholesky
    factorisation of M succeeds at the rounding level, so a factorisation
    cannot decide.  The phase then runs as the reference does: the same exit
    kind, step count and t, and a dual point with ``Tr X = 1``."""
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(dims[3]) + 1j * rng.standard_normal(dims[3])
    sc = random_superchannel(*dims, e=2, seed=0)
    replaced = _replaced(sc, psi / np.linalg.norm(psi))
    assert is_superchannel(replaced, 1e-9)
    mixed = Superchannel(*dims, (1 - mix) * replaced.choi + mix * sc.choi)
    affine = affine_set(restrict_superchannel(mixed), trace_preserving=tp)
    marg = np.linalg.eigvalsh(_marginal(affine))
    assert marg[0] <= 1e-5 * marg[-1]
    if mix == 0 and dims == (2, 2, 2, 2):
        np.linalg.cholesky(_marginal(affine))
    n = affine.anchor.shape[0]
    assert np.array_equal(_unit(affine), np.eye(n))
    found, kind, steps, (t, x), _ = newton_phase(affine)
    _, want_kind, want_steps, (want_t, _) = reference_newton_phase(affine)
    assert (kind, steps) == (want_kind, want_steps)
    assert kind == SHADOW
    assert t == pytest.approx(want_t, abs=1e-12)
    assert np.trace(x).real == pytest.approx(1.0, abs=1e-12)
    _assert_verified(found, mixed, affine)


@pytest.mark.parametrize("tp", [False, True])
@pytest.mark.parametrize("dims", LADDER[:3])
def test_the_bordered_hessian_matches_the_dense_one(dims, tp):
    """``hessian(G, V)`` borders ``hessian(G)`` with the lift L of the real
    matrix V, ``Z (x) I_r`` for ``Z = (V + V^T)/2 + i (V - V^T)/2``: the border
    is ``Re Tr(G combine(e_a) G L)`` and the corner ``Re Tr(G L G L)``."""
    affine = affine_set(restrict_superchannel(random_superchannel(*dims, e=2, seed=3)),
                        trace_preserving=tp)
    dirs = affine.directions
    n, nn, r = affine.anchor.shape[0], dirs.d * dirs.k, dirs.r
    rng = np.random.default_rng(5)
    g = random_hermitian(n, rng)
    v = rng.standard_normal((nn, nn))
    z = ((v + v.T) + 1j * (v - v.T)) / 2
    lift = (z.reshape(dirs.d, 1, dirs.k, dirs.d, 1, dirs.k)
            * np.eye(r)[None, :, None, None, :, None]).reshape(n, n)
    full = dirs.hessian(g, v)
    assert np.array_equal(full, full.T)
    np.testing.assert_array_equal(full[:-1, :-1], dirs.hessian(g))
    glg = g @ lift @ g
    scale = np.abs(full).max()
    np.testing.assert_allclose(full[:-1, -1], dirs.coords(glg), rtol=0, atol=1e-13 * scale)
    assert full[-1, -1] == pytest.approx(np.trace(glg @ lift).real, rel=1e-12)
