"""The Douglas-Rachford loop of ``feasibility.solve`` against its written-out
reference, and the Newton phase that ``solve`` runs after ``NEWTON_AFTER``.

``solve`` takes a bare ``eigh`` of the lower triangle, forms the PSD shadow
as one Gram product and updates its iterate in place; ``reference_solve``
validates and symmetrises each eigendecomposition and each shadow and builds
a fresh iterate every step, and has no Newton phase.  The two must agree on
status, iteration count and witness wherever the phase finds no strict
witness, ``solve``'s witness must be exactly Hermitian, and ``solve`` must
leave its inputs alone.  The phase's closed-form directions basis and
Hessian are checked against dense ones.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _dense_reference import reference_solve
from superchannels.config import DEFAULTS
from superchannels.extend import SpanAction, affine_set, restrict_superchannel
from superchannels.feasibility import (
    FEASIBLE,
    INFEASIBLE,
    NEWTON_AFTER,
    UNDETERMINED,
    solve,
    strict_witness,
)
from superchannels.gallery import block_trace_readout, no_tp_action
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


CASES = {
    "random-400": lambda: _random_restriction(400),
    "random-403": lambda: _random_restriction(403),
    "random-408": lambda: _random_restriction(408),
    "identity-2323": lambda: affine_set(restrict_superchannel(identity_superchannel(2, 3))),
    "identity-3232": lambda: affine_set(restrict_superchannel(identity_superchannel(3, 2))),
    # here, at n = 81, the Gram product itself is not exactly Hermitian
    "random-3333": lambda: affine_set(restrict_superchannel(
        random_superchannel(3, 3, 3, 3, e=1, seed=0))),
}


@pytest.mark.parametrize("name", CASES)
def test_solve_matches_reference_loop(name):
    affine = CASES[name]()
    got, want = solve(affine, max_iter=20_000), reference_solve(affine, max_iter=20_000)
    assert got.status == want.status == FEASIBLE
    assert got.iterations == want.iterations
    np.testing.assert_allclose(got.point, want.point, rtol=0, atol=1e-10)
    assert np.array_equal(got.point, got.point.conj().T)


def test_tp_no_tp_action_infeasible_at_the_reference_iteration():
    affine = affine_set(no_tp_action(), trace_preserving=True)
    got, want = solve(affine), reference_solve(affine)
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
    np.testing.assert_allclose(report.point, g1.choi, rtol=0, atol=1e-10)
    assert np.array_equal(seed, g1.choi)


# -- the Newton phase ------------------------------------------------------------

def _cap_instance(seed):
    return random_superchannel(2, 2, 2, 2, e=1 + seed % 2, seed=seed)


@pytest.mark.parametrize("seed", [s for s in range(400, 420) if s not in (415, 419)])
def test_solve_matches_reference_loop_on_the_cap_instances(seed):
    """Every ``extend-cap`` instance whose set Douglas-Rachford crosses
    quickly: seed 401 runs past iteration 1,024, gets no strict witness from
    the Newton phase, and must resume with its iterate unchanged."""
    affine = affine_set(restrict_superchannel(_cap_instance(seed)))
    got, want = solve(affine, max_iter=20_000), reference_solve(affine, max_iter=20_000)
    assert got.status == want.status == FEASIBLE
    assert got.iterations == want.iterations
    np.testing.assert_allclose(got.point, want.point, rtol=0, atol=1e-10)
    assert (got.newton_steps > 0) == (got.iterations > NEWTON_AFTER)


@pytest.mark.parametrize("seed", [415, 419])
def test_thin_sets_get_a_strict_witness_after_the_switch(seed):
    affine = affine_set(restrict_superchannel(_cap_instance(seed)))
    report = solve(affine, max_iter=20_000)
    assert report.status == FEASIBLE
    assert report.iterations == NEWTON_AFTER
    assert 0 < report.newton_steps <= 60
    assert np.linalg.eigvalsh(report.point)[0] > 0
    assert np.array_equal(report.point, report.point.conj().T)
    assert report.affine_residual <= DEFAULTS.affine_tol * affine.rhs_scale


def test_cap_at_the_switch_is_pure_douglas_rachford():
    affine = affine_set(restrict_superchannel(_cap_instance(415)))
    got, want = solve(affine, max_iter=NEWTON_AFTER), reference_solve(affine, max_iter=NEWTON_AFTER)
    assert got.status == want.status == UNDETERMINED
    assert got.newton_steps == 0


@pytest.mark.parametrize("seed", [401, 403, 404, 410, 411, 412, 413, 417])
def test_sets_without_a_positive_definite_point_exit_the_phase(seed):
    witness, steps = strict_witness(affine_set(restrict_superchannel(_cap_instance(seed))))
    assert witness is None
    assert 0 < steps <= 100


def test_newton_phase_stops_at_once_on_a_set_without_positive_trace():
    """Every point of the set shares the anchor's trace, so a negated
    restriction has no positive definite point, and no floor to clear."""
    action = restrict_superchannel(_cap_instance(415))
    negated = SpanAction(2, 2, 2, 2, tuple(-y for y in action.images))
    assert strict_witness(affine_set(negated)) == (None, 0)


def test_newton_phase_stops_at_once_when_the_start_does_not_factorise():
    """The starting ``F = anchor - t I`` has smallest eigenvalue
    ``Tr(anchor)/n``; under the rounding of a large anchor it is singular.
    Here the anchor is ``2^-60 I`` plus a Hermitian part with eigenvalues
    +-1, so ``F`` rounds to a singular matrix."""
    affine = _random_restriction(415)
    n = affine.anchor.shape[0]
    anchor = np.kron(np.eye(n // 2), [[0, 1], [1, 0]]) + 2.0 ** -60 * np.eye(n)
    assert np.trace(anchor) > 0
    assert strict_witness(dataclasses.replace(affine, anchor=anchor.astype(complex))) == (None, 0)


LADDER = [(2, 2, 2, 2), (2, 3, 2, 3), (3, 2, 3, 2), (3, 3, 3, 3)]


@pytest.mark.parametrize("tp", [False, True])
@pytest.mark.parametrize("dims", LADDER)
def test_direction_basis_is_an_orthonormal_basis_of_the_directions(dims, tp):
    """``combine`` of each coordinate vector is fixed by ``project(.) - project(0)``,
    the basis is orthonormal (``coords`` is the adjoint of ``combine``), and
    it spans the directions: the kernel part of a random matrix is the
    combination of its own coordinates."""
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
    np.testing.assert_allclose(gram, np.eye(dirs.size), rtol=0, atol=1e-14)
    x = random_hermitian(n, np.random.default_rng(2))
    k = affine.project(x) - base
    np.testing.assert_allclose(dirs.combine(dirs.coords(k)), k, rtol=0, atol=1e-13)


@pytest.mark.parametrize("tp", [False, True])
@pytest.mark.parametrize("dims", LADDER[:3])
def test_closed_form_hessian_matches_the_dense_one(dims, tp):
    affine = affine_set(restrict_superchannel(random_superchannel(*dims, e=2, seed=3)),
                        trace_preserving=tp)
    dirs = affine.directions
    g = random_hermitian(affine.anchor.shape[0], np.random.default_rng(4))
    basis = np.array([dirs.combine(unit) for unit in np.eye(dirs.size)])
    gb = g @ basis
    dense = (gb.reshape(dirs.size, -1) @ gb.transpose(0, 2, 1).reshape(dirs.size, -1).T).real
    hess = dirs.hessian(g)
    assert np.array_equal(hess, hess.T)
    np.testing.assert_allclose(hess, dense, rtol=0, atol=1e-12 * np.abs(dense).max())
    np.testing.assert_allclose(dirs.coords(g), np.einsum("aij,ji->a", basis, g).real,
                               rtol=0, atol=1e-12)


@settings(max_examples=12, deadline=None)
@given(dims=st.sampled_from([(2, 2, 2, 2), (2, 3, 2, 3)]),
       e=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_newton_phase_returns_a_proved_witness_or_none(dims, e, seed):
    sc = random_superchannel(*dims, e=e, seed=seed)
    affine = affine_set(restrict_superchannel(sc))
    witness, steps = strict_witness(affine)
    assert steps >= 1
    if witness is not None:
        assert np.linalg.eigvalsh(witness)[0] > 0
        ext = Superchannel(*dims, witness)
        assert is_superchannel(ext, 1e-7)
        assert restrictions_equal(ext, sc, 1e-6)
