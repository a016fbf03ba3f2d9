"""The Douglas-Rachford loop of ``feasibility.solve`` against its written-out reference.

``solve`` takes a bare ``eigh`` of the lower triangle, forms the PSD shadow
as one Gram product and updates its iterate in place; ``reference_solve``
validates and symmetrises each eigendecomposition and each shadow and builds
a fresh iterate every step.  The two must agree on status, iteration count
and witness, ``solve``'s witness must be exactly Hermitian, and ``solve``
must leave its inputs alone.
"""

import numpy as np
import pytest

from _dense_reference import reference_solve
from superchannels.extend import affine_set, restrict_superchannel
from superchannels.feasibility import FEASIBLE, INFEASIBLE, solve
from superchannels.gallery import block_trace_readout, no_tp_action
from superchannels.linalg import random_hermitian
from superchannels.supermaps import identity_superchannel, random_superchannel


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
