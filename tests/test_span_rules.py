"""The closed-form span rules agree with the per-basis-element loops.

``is_superchannel`` and ``validate_action`` judge span preservation from the
marginal map's lift and unitality residuals, and ``restrictions_equal``
compares all basis images at once.  On random superchannels across the
dimension ladder, unperturbed and perturbed by 1e-3, each must give the
verdict of the loop it replaced (``_dense_reference``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _dense_reference import (
    is_superchannel_by_basis,
    restrictions_equal_by_basis,
    span_images_by_einsum,
    span_preserved_by_basis,
)
from superchannels.extend import SpanAction, affine_set, restrict_superchannel, validate_action
from superchannels.linalg import random_hermitian
from superchannels.opsys import span_basis
from superchannels.supermaps import (
    Superchannel,
    apply_superchannel,
    is_superchannel,
    random_superchannel,
    restrictions_equal,
    span_images,
)

LADDER = [(2, 2, 2, 2), (2, 3, 2, 3), (3, 2, 3, 2), (3, 3, 3, 3), (2, 2, 1, 1)]
TOL = 1e-9
EPS = 1e-3


def _perturbed(sc: Superchannel, kind: str, rng) -> Superchannel:
    """``sc`` itself, or a full-rank superchannel next to it moved by EPS, so
    that the move keeps the Choi matrix PSD: along a random PSD direction,
    along the Choi matrix itself (breaks only the trace scale), or along
    ``P (x) Q`` with ``Tr_{r1} P = 0`` (breaks only the lift independence)."""
    if kind == "none":
        return sc
    d1, r1, d2, r2 = sc.dims
    n1, n2 = d1 * r1, d2 * r2
    # half of sc and half of the superchannel X -> Tr(X) I / (d1 r2)
    inner = (sc.choi + np.eye(n1 * n2) / (d1 * r2)) / 2
    if kind == "psd":
        g = rng.standard_normal((n1 * n2,) * 2) + 1j * rng.standard_normal((n1 * n2,) * 2)
        delta = g @ g.conj().T
    elif kind == "scale":
        delta = inner
    else:
        p = random_hermitian(n1, rng).reshape(d1, r1, d1, r1)
        p = p - np.einsum("iaja->ij", p)[:, None, :, None] * np.eye(r1)[None, :, None, :] / r1
        delta = np.kron(p.reshape(n1, n1), random_hermitian(n2, rng))
    return Superchannel(*sc.dims, inner + EPS * delta / np.linalg.norm(delta))


def _validates(action) -> bool:
    try:
        validate_action(action, TOL)
    except ValueError:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(dims=st.sampled_from(LADDER), e=st.integers(1, 2), seed=st.integers(0, 2**16),
       kind=st.sampled_from(["none", "psd", "scale", "lift"]))
def test_closed_form_span_rules_agree_with_the_loops(dims, e, seed, kind):
    rng = np.random.default_rng(seed)
    sc = _perturbed(random_superchannel(*dims, e, rng), kind, rng)
    expected = kind == "none"
    assert is_superchannel(sc, TOL) == is_superchannel_by_basis(sc, TOL) == expected
    action = restrict_superchannel(sc)
    loop = span_preserved_by_basis(action.images, dims, TOL)
    assert _validates(action) == loop == expected


@pytest.mark.parametrize("dims", LADDER)
def test_span_images_match_the_apply_loop(dims):
    sc = random_superchannel(*dims, 2, np.random.default_rng(1))
    loop = [apply_superchannel(sc, x) for x in span_basis(sc.d1, sc.r1)]
    np.testing.assert_allclose(span_images(sc.choi, dims), loop, rtol=0, atol=1e-14)


@pytest.mark.parametrize("dims", LADDER)
def test_span_images_match_the_einsum(dims):
    """The one matmul over the span basis against the 4-index contraction it
    replaced, on a Hermitian and a non-Hermitian matrix."""
    sc = random_superchannel(*dims, 2, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    n = sc.choi.shape[0]
    for c in (sc.choi, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))):
        np.testing.assert_allclose(span_images(c, dims), span_images_by_einsum(c, dims),
                                   rtol=0, atol=1e-14 * max(1.0, np.abs(c).max()))


@settings(max_examples=30, deadline=None)
@given(dims=st.sampled_from(LADDER), e=st.integers(1, 2), seed=st.integers(0, 2**16))
def test_closed_form_restriction_equality_agrees_with_the_loop(dims, e, seed):
    rng = np.random.default_rng(seed)
    sc = random_superchannel(*dims, e, rng)
    h = random_hermitian(sc.choi.shape[0], rng)
    h *= EPS / np.linalg.norm(h)
    aff = affine_set(restrict_superchannel(sc))
    in_kernel = aff.project(h) - aff.project(np.zeros_like(h))  # vanishes on the span
    for delta, expected in ((0 * h, True), (in_kernel, True), (h, False)):
        other = Superchannel(*dims, sc.choi + delta)
        assert restrictions_equal(sc, other, TOL) == expected
        assert restrictions_equal_by_basis(sc, other, TOL) == expected


@pytest.mark.parametrize("dims", LADDER)
def test_non_hermitian_actions_are_judged_like_the_loop(dims):
    """Adding complex multiples of an element with zero r2 trace to the images
    keeps the span and its scale but breaks the adjoint; multiplying them by
    i breaks the scale.  The minimum-norm extension is then not Hermitian,
    and the closed form takes it as it is."""
    d1, r1, d2, r2 = dims
    rng = np.random.default_rng(3)
    images = restrict_superchannel(random_superchannel(*dims, 1, rng)).images
    n2 = d2 * r2
    z = (rng.standard_normal((n2, n2)) + 1j * rng.standard_normal((n2, n2))).reshape(d2, r2, d2, r2)
    z = z - np.einsum("isjs->ij", z)[:, None, :, None] * np.eye(r2)[None, :, None, :] / r2
    coef = rng.standard_normal(len(images)) + 1j * rng.standard_normal(len(images))
    kept = [y + c * z.reshape(n2, n2) for y, c in zip(images, coef)]
    for new_images, expected in ((kept, True), ([1j * y for y in images], False)):
        action = SpanAction(*dims, tuple(new_images))
        assert _validates(action) == span_preserved_by_basis(action.images, dims, TOL) == expected
