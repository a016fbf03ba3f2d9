"""The closed-form affine projection of the extension search against a dense reference.

The reference realifies the full linear system (the images of the canonical
span basis, plus trace preservation) and projects with its pseudo-inverse,
cut off at a relative 1e-12.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _dense_reference import linear_affine_set, linear_system, realify, to_coords
from superchannels.extend import affine_set, extend_action, restrict_superchannel
from superchannels.extremal import from_coords
from superchannels.feasibility import solve
from superchannels.gallery import no_tp_action
from superchannels.supermaps import random_superchannel

DIMS = [(2, 2, 2, 2), (2, 3, 2, 2), (3, 2, 3, 2)]


@lru_cache(maxsize=None)
def _action(dims):
    return restrict_superchannel(random_superchannel(*dims, e=2, seed=[17, *dims]))


@lru_cache(maxsize=None)
def _reference(dims, tp):
    """Dense projection ``C -> P(C)`` and minimum-norm point of the same affine set."""
    a_real, b_real = realify(*linear_system(_action(dims), tp))
    n = int(np.prod(dims))
    pinv = np.linalg.pinv(a_real, rcond=1e-12)
    base = pinv @ b_real
    proj = np.eye(a_real.shape[1]) - pinv @ a_real
    return (lambda c: from_coords(proj @ to_coords(c, n) + base, n)), from_coords(base, n)


def _hermitian(parts):
    c = parts[0] + 1j * parts[1]
    return (c + c.conj().T) / 2


def _hermitian_of_size(n):
    return hnp.arrays(np.float64, (2, n, n),
                      elements=st.floats(-1, 1, allow_nan=False, allow_infinity=False))


@pytest.mark.parametrize("tp", [False, True])
@pytest.mark.parametrize("dims", DIMS)
def test_closed_form_projection_matches_pinv_reference(dims, tp):
    n = int(np.prod(dims))
    closed = affine_set(_action(dims), tp)
    project, _ = _reference(dims, tp)

    @settings(max_examples=15, deadline=None)
    @given(_hermitian_of_size(n))
    def check(parts):
        c = _hermitian(parts)
        np.testing.assert_allclose(closed.project(c), project(c), rtol=0, atol=1e-12)

    check()


@pytest.mark.parametrize("tp", [False, True])
@pytest.mark.parametrize("dims", DIMS)
def test_anchor_is_the_minimum_norm_affine_point(dims, tp):
    n = int(np.prod(dims))
    closed = affine_set(_action(dims), tp)
    _, base = _reference(dims, tp)
    anchor = closed.anchor
    np.testing.assert_allclose(anchor, base, rtol=0, atol=1e-12)
    np.testing.assert_allclose(closed.project(np.zeros((n, n))), anchor, rtol=0, atol=1e-12)
    assert closed.residual(anchor) <= 1e-12

    @settings(max_examples=10, deadline=None)
    @given(_hermitian_of_size(n))
    def check(parts):
        # every affine point differs from the anchor orthogonally to it
        point = closed.project(_hermitian(parts))
        assert closed.residual(point) <= 1e-10
        assert abs(np.vdot(anchor, point - anchor)) <= 1e-10 * max(1.0, np.linalg.norm(point))

    check()


@pytest.mark.parametrize("tp", [False, True])
@pytest.mark.parametrize("dims", DIMS)
def test_every_affine_point_has_the_anchor_trace(dims, tp):
    """The identity lies in the channel span, so the trace is fixed on the
    affine set; the infeasibility certificate's eigenvalue term relies on it."""
    n = int(np.prod(dims))
    closed = affine_set(_action(dims), tp)
    t = np.trace(closed.anchor)

    @settings(max_examples=10, deadline=None)
    @given(_hermitian_of_size(n))
    def check(parts):
        c = _hermitian(parts)
        assert abs(np.trace(closed.project(c)) - t) <= 1e-12 * max(1.0, np.linalg.norm(c))

    check()


@pytest.mark.parametrize("tp", [False, True])
@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 2, 3, 2)])
def test_linear_affine_set_matches_closed_form(dims, tp):
    """The generic pinv-based set agrees, including at (3,2,3,2), where
    numpy's default pinv cutoff fails."""
    action = _action(dims)
    closed = affine_set(action, tp)
    dense = linear_affine_set(*linear_system(action, tp), closed.directions)
    np.testing.assert_allclose(dense.anchor, closed.anchor, rtol=0, atol=1e-12)
    assert dense.row_bound == pytest.approx(closed.row_bound)
    assert dense.rhs_scale == pytest.approx(closed.rhs_scale)
    rng = np.random.default_rng(3)
    n = closed.anchor.shape[0]
    for _ in range(3):
        c = _hermitian(rng.uniform(-1, 1, size=(2, n, n)))
        np.testing.assert_allclose(dense.project(c), closed.project(c), rtol=0, atol=1e-12)
        assert dense.residual(c) == pytest.approx(closed.residual(c), rel=1e-9)


@pytest.mark.parametrize("tp", [False, True])
def test_solve_on_either_affine_set_gives_the_same_verdict(tp):
    action = no_tp_action()
    dense = solve(linear_affine_set(*linear_system(action, tp),
                                    affine_set(action, tp).directions))
    closed = extend_action(action, trace_preserving=tp)
    assert (dense.status, dense.iterations) == (closed.status, closed.iterations)
    assert dense.gap == pytest.approx(closed.gap, rel=1e-6, abs=1e-12)
