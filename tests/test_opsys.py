import numpy as np
import pytest
from _dense_reference import span_basis_by_gram_schmidt

from superchannels.channels import is_cp, is_tp, random_channel
from superchannels.linalg import frob, kron, matrix_unit, vec
from superchannels.opsys import (
    decompose_into_channels,
    hermitian_span,
    project_to_span,
    span_basis,
    span_dim,
    span_membership,
    tensor_dimension_gap,
)


def random_span_element(d, r, seed, terms=3):
    rng = np.random.default_rng(seed)
    c = np.zeros((d * r, d * r), dtype=complex)
    for k in range(terms):
        z = complex(rng.standard_normal(), rng.standard_normal())
        c = c + z * random_channel(d, r, int(rng.integers(1, d * r + 1)), seed * 91 + k).choi
    return c


def test_channel_choi_is_member_with_unit_scale():
    for seed in range(4):
        phi = random_channel(2, 2, 1 + seed, seed)
        mem = span_membership(phi.choi, 2, 2)
        assert mem.member
        assert abs(mem.scale - 1) < 1e-12


def test_identity_scale_is_r():
    mem = span_membership(np.eye(6, dtype=complex), 2, 3)
    assert mem.member and abs(mem.scale - 3) < 1e-12


def test_unequal_diagonal_not_member():
    mem = span_membership(np.diag([1.0, 2.0]).astype(complex), 2, 1)
    assert not mem.member


def test_membership_reports_complex_scale():
    mem = span_membership(1j * np.eye(2, dtype=complex), 2, 1)
    assert mem.member and abs(mem.scale - 1j) < 1e-12


def test_project_fixed_point():
    c = random_span_element(2, 2, 5)
    np.testing.assert_allclose(project_to_span(c, 2, 2), c, atol=1e-10)


def test_project_averages_diagonal():
    out = project_to_span(np.diag([3.0, 1.0]).astype(complex), 2, 1)
    np.testing.assert_allclose(out, np.diag([2.0, 2.0]), atol=1e-12)


def test_project_kills_traceful_offdiagonal_block():
    for r in (1, 2):
        c = kron(matrix_unit(2, 0, 1), np.eye(r, dtype=complex))
        np.testing.assert_allclose(project_to_span(c, 2, r), np.zeros((2 * r, 2 * r)),
                                   atol=1e-12)


def test_project_idempotent_self_adjoint():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        pa = project_to_span(a, 2, 2)
        np.testing.assert_allclose(project_to_span(pa, 2, 2), pa, atol=1e-10)
        lhs = np.vdot(pa, b)
        rhs = np.vdot(a, project_to_span(b, 2, 2))
        assert abs(lhs - rhs) < 1e-10 * max(1, abs(lhs))


def test_membership_iff_projection_fixed():
    rng = np.random.default_rng(9)
    for seed in range(10):
        c = (random_span_element(2, 2, seed) if seed % 2 == 0
             else rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        fixed = frob(c - project_to_span(c, 2, 2)) <= 1e-9 * max(1, frob(c))
        assert span_membership(c, 2, 2).member == fixed


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("r", (1, 2, 3))
def test_basis_count(d, r):
    basis = span_basis(d, r)
    assert len(basis) == span_dim(d, r) == d * d * r * r - d * d + 1


@pytest.mark.parametrize("d, r", [(d, r) for d in (1, 2, 3) for r in (1, 2, 3)]
                         + [(4, 1), (4, 4)])
def test_basis_is_the_gram_schmidt_basis_in_order(d, r):
    """The closed form (structural drop, one QR) equals Gram-Schmidt over the
    projected matrix units entry by entry, in the canonical order."""
    np.testing.assert_allclose(span_basis(d, r), span_basis_by_gram_schmidt(d, r),
                               rtol=0, atol=1e-13)


def test_basis_is_one_read_only_array():
    basis = span_basis(2, 3)
    assert isinstance(basis, np.ndarray) and basis.shape == (span_dim(2, 3), 6, 6)
    with pytest.raises(ValueError):
        basis[0, 0, 0] = 1.0


@pytest.mark.parametrize("d, r", [(0, 2), (2, 0), (-1, 2)])
def test_non_positive_dimensions_are_rejected(d, r):
    """span_dim(2, 0) used to return -3 and span_basis(0, 2) died in numpy."""
    message = rf"span dimensions must be positive, got d={d}, r={r}"
    with pytest.raises(ValueError, match=message):
        span_dim(d, r)
    with pytest.raises(ValueError, match=message):
        span_basis(d, r)


def test_basis_of_trivial_input_side_is_full():
    assert len(span_basis(1, 3)) == 9


def test_basis_orthonormal_members():
    basis = span_basis(2, 2)
    gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
    np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-10)
    for b in basis:
        assert span_membership(b, 2, 2).member


def test_decompose_cptp_short_circuit():
    phi = random_channel(2, 2, 3, seed=4)
    terms = decompose_into_channels(phi.choi, 2, 2)
    assert len(terms) == 1
    coeff, chan = terms[0]
    assert abs(coeff - 1) < 1e-10
    np.testing.assert_allclose(chan.choi, phi.choi, atol=1e-10)


def test_decompose_zero_is_empty():
    assert decompose_into_channels(np.zeros((4, 4), dtype=complex), 2, 2) == []


def test_decompose_difference_of_channels():
    a = random_channel(2, 2, 2, seed=6).choi
    b = random_channel(2, 2, 3, seed=7).choi
    for c in (a - b, 1j * (a - b)):
        terms = decompose_into_channels(c, 2, 2)
        assert len(terms) <= 4
        rebuilt = sum(coeff * chan.choi for coeff, chan in terms)
        np.testing.assert_allclose(rebuilt, c, atol=1e-9)
        for _, chan in terms:
            assert is_cp(chan) and is_tp(chan)


@pytest.mark.parametrize("seed", range(50))
def test_decompose_random_span_elements(seed):
    c = random_span_element(2, 2, seed + 1)
    terms = decompose_into_channels(c, 2, 2)
    rebuilt = sum(coeff * chan.choi for coeff, chan in terms)
    np.testing.assert_allclose(rebuilt, c, atol=1e-9 * max(1, frob(c)))
    for _, chan in terms:
        assert is_cp(chan) and is_tp(chan)


def test_decompose_rejects_non_members():
    with pytest.raises(ValueError):
        decompose_into_channels(np.diag([1.0, 2.0]).astype(complex), 2, 1)


def test_decomposed_channels_span_the_space():
    chois = []
    for b in span_basis(2, 2):
        for _, chan in decompose_into_channels(b, 2, 2):
            chois.append(vec(chan.choi))
    stack = np.array(chois)
    s = np.linalg.svd(stack, compute_uv=False)
    assert int(np.count_nonzero(s > 1e-9 * s[0])) == span_dim(2, 2)


def test_tensor_dimension_gap_trivial_cases():
    assert tensor_dimension_gap(1, 2, 1, 3) == 0
    assert tensor_dimension_gap(2, 1, 2, 1) == 0
    assert tensor_dimension_gap(2, 2, 2, 2) == 72


def test_tensor_dimension_gap_nonnegative():
    for dims in ((2, 2, 3, 2), (3, 2, 2, 3), (2, 3, 2, 3)):
        assert tensor_dimension_gap(*dims) >= 0


def test_gap_matches_basis_ranks_small():
    # embed products of S(2,1) bases into S(4,1) and compare ranks
    from superchannels.linalg import permute_factors

    b21 = span_basis(2, 1)
    b41 = span_basis(4, 1)
    prods = [permute_factors(kron(x, y), (2, 1, 2, 1), (0, 2, 1, 3)) for x in b21 for y in b21]
    stack = np.array([vec(m) for m in prods])
    s = np.linalg.svd(stack, compute_uv=False)
    rank_prod = int(np.count_nonzero(s > 1e-9 * max(1, s[0])))
    joint = np.array([vec(m) for m in list(b41) + prods])
    s2 = np.linalg.svd(joint, compute_uv=False)
    rank_joint = int(np.count_nonzero(s2 > 1e-9 * max(1, s2[0])))
    assert rank_joint - rank_prod == tensor_dimension_gap(2, 1, 2, 1)


def test_hermitian_span_spans():
    basis = span_basis(2, 2)
    herm = hermitian_span(basis)
    for h in herm:
        np.testing.assert_allclose(h, h.conj().T, atol=1e-12)
    stack = np.array([vec(m) for m in herm])
    s = np.linalg.svd(stack, compute_uv=False)
    assert int(np.count_nonzero(s > 1e-9 * s[0])) == span_dim(2, 2)
