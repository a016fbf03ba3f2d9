import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _dense_reference import rank_by_eigenvalues
from superchannels.linalg import (
    herm_eig,
    is_isometry,
    is_psd,
    kron,
    lambda_min,
    matrix_unit,
    null_space,
    partial_trace,
    permute_factors,
    psd_project,
    psd_support,
    random_hermitian,
    random_isometry,
    random_unitary,
    rank_eps,
)


def test_kron_identity():
    np.testing.assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_scalar_factor():
    e11 = matrix_unit(2, 0, 0)
    np.testing.assert_allclose(kron(e11, np.array([[5.0]])), np.diag([5.0, 0.0]).astype(complex))


def test_kron_single_entry_placement():
    # E_01 (x) E_10 has its only 1 at row 0*2+1, column 1*2+0
    out = kron(matrix_unit(2, 0, 1), matrix_unit(2, 1, 0))
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = 1.0
    np.testing.assert_allclose(out, expected)


@pytest.mark.parametrize("seed", range(5))
def test_kron_associative_bilinear(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
    np.testing.assert_allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)
    z = 0.7 - 0.3j
    np.testing.assert_allclose(kron(z * a + b, c), z * kron(a, c) + kron(b, c), atol=1e-12)


def test_partial_trace_factor_of_product():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    m = kron(matrix_unit(2, 0, 0), a)
    np.testing.assert_allclose(partial_trace(m, (2, 2), {1}), 5 * matrix_unit(2, 0, 0))


def test_partial_trace_block_unit():
    # tracing the inner factor of E_00 in M_2(M_2) leaves E_00 in M_2
    e = matrix_unit(4, 0, 0)
    np.testing.assert_allclose(partial_trace(e, (2, 2), {1}), matrix_unit(2, 0, 0))


def test_partial_trace_identity():
    np.testing.assert_allclose(partial_trace(np.eye(4, dtype=complex), (2, 2), {1}),
                               2 * np.eye(2))


@pytest.mark.parametrize("seed", range(4))
def test_partial_trace_product_rule(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(partial_trace(kron(a, b), (3, 2), {1}), np.trace(b) * a,
                               atol=1e-12)
    np.testing.assert_allclose(partial_trace(kron(a, b), (3, 2), {0}), np.trace(a) * b,
                               atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    for traced in ({0}, {1}, {2}, {0, 2}, {0, 1, 2}):
        out = partial_trace(m, (2, 3, 2), traced)
        np.testing.assert_allclose(np.trace(out), np.trace(m))


def test_partial_trace_all_factors_is_scalar():
    m = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    out = partial_trace(m, (2, 2), {0, 1})
    assert out.shape == (1, 1)
    np.testing.assert_allclose(out[0, 0], 10.0)


def test_partial_trace_shape_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(3, dtype=complex), (2, 2), {0})


def test_herm_eig_diagonal():
    w, v = herm_eig(np.diag([3.0, 1.0]).astype(complex))
    np.testing.assert_allclose(w, [3.0, 1.0])
    np.testing.assert_allclose(np.abs(v), np.eye(2))


def test_herm_eig_pauli_x():
    w, _ = herm_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_allclose(w, [1.0, -1.0])


def test_herm_eig_reconstruction():
    m = random_hermitian(6, 3)
    w, v = herm_eig(m)
    np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, m, atol=1e-9)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(6), atol=1e-10)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_herm_eig_kron_spectrum():
    m = random_hermitian(3, 5)
    k = random_hermitian(2, 6)
    wm, _ = herm_eig(m)
    wk, _ = herm_eig(k)
    products = sorted((a * b for a in wm for b in wk))
    wkron, _ = herm_eig(kron(m, k))
    np.testing.assert_allclose(sorted(wkron), products, atol=1e-9)


def test_psd_project_clamps():
    np.testing.assert_allclose(psd_project(np.diag([2.0, -1.0]).astype(complex)),
                               np.diag([2.0, 0.0]), atol=1e-12)


def test_psd_project_fixed_point():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p = g @ g.conj().T
    np.testing.assert_allclose(psd_project(p), p, atol=1e-10)


def test_psd_project_pauli_x():
    out = psd_project(np.array([[0, 1], [1, 0]], dtype=complex))
    np.testing.assert_allclose(out, np.full((2, 2), 0.5), atol=1e-12)


def test_psd_project_idempotent_and_optimal():
    m = random_hermitian(5, 21)
    proj = psd_project(m)
    np.testing.assert_allclose(psd_project(proj), proj, atol=1e-10)
    base = np.linalg.norm(m - proj)
    rng = np.random.default_rng(22)
    for _ in range(100):
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        p = g @ g.conj().T
        assert base <= np.linalg.norm(m - p) + 1e-12


def test_lambda_min_matches_the_spectrum():
    m = random_hermitian(6, 31)
    assert lambda_min(m) == pytest.approx(herm_eig(m)[0][-1], abs=1e-12)
    with pytest.raises(ValueError):
        lambda_min(np.array([[0, 1], [0, 0]], dtype=complex))


def test_is_psd_reads_its_tol_and_rejects_non_hermitian_input():
    m = np.diag([1.0, -1e-3]).astype(complex)
    assert is_psd(m, 1e-2) and not is_psd(m)
    assert not is_psd(np.array([[1, 1], [0, 1]], dtype=complex))


def test_psd_support_is_a_square_root_on_the_support():
    rng = np.random.default_rng(33)
    g = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    m = g @ g.conj().T
    w, v = psd_support(m)
    assert len(w) == 3 == rank_eps(m) and np.all(np.diff(w) <= 0)
    root = v * np.sqrt(w)
    np.testing.assert_allclose(root @ root.conj().T, m, atol=1e-12)
    # the cutoff is tol * max(1, ||d||_F), with ||d||_F = 5 here
    d = np.diag([5.0, 1e-6, 0.0]).astype(complex)
    assert [len(psd_support(d, tol)[0]) for tol in (None, 1e-7, 1e-6)] == [2, 2, 1]
    with pytest.raises(ValueError):
        psd_support(np.diag([1.0, -1e-3]).astype(complex))


def test_rank_eps():
    assert rank_eps(np.diag([2.0, 0.0]).astype(complex)) == 1
    assert rank_eps(np.diag([1.0, 1.0]).astype(complex)) == 2
    assert rank_eps(np.zeros((3, 3), dtype=complex)) == 0
    # four unit singular values give ||m||_F = 2, so the cut is 2 tol, not tol * s_max
    m = np.diag([1.0, 1.0, 1.0, 1.0, 1.5e-9])
    assert rank_eps(m) == 4 and rank_eps(m, 0.7e-9) == 5
    assert null_space(m).shape == (1, 5) and null_space(m, 0.7e-9).shape == (0, 5)
    assert rank_eps(np.zeros((0, 3))) == 0 and rank_eps(np.zeros((3, 0))) == 0
    np.testing.assert_array_equal(null_space(np.zeros((0, 3))), np.eye(3))
    # five values below the cut 1e-3 whose Frobenius norm, 1.0025e-3, is above it:
    # the cut bounds each singular value, not their root sum of squares
    m = np.diag([4.2e-4, 4.4e-4, 4.5e-4, 4.6e-4, 4.7e-4])
    assert rank_eps(m, 1e-3) == 0
    null = null_space(m, 1e-3)
    assert null.shape == (5, 5) and np.linalg.norm(m @ null.T, 2) <= 1e-3
    assert np.linalg.norm(m @ null.T) > 1e-3


def _orthonormal_columns(rng, rows: int, cols: int, complex_: bool) -> np.ndarray:
    g = rng.standard_normal((rows, cols))
    if complex_:
        g = g + 1j * rng.standard_normal((rows, cols))
    return np.linalg.qr(g)[0]


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(0, 6), cols=st.integers(0, 6), complex_=st.booleans(),
       tol=st.sampled_from([1e-9, 1e-6, 1e-3]), data=st.data())
def test_rank_and_null_space_follow_known_singular_values(rows, cols, complex_, tol, data):
    """``m = U diag(s) V^dagger`` with ``above`` singular values in [1, 10] and the
    rest at or below ``tol / 2``: every cut ``tol * max(1, ||m||_F)`` lies between."""
    k = min(rows, cols)
    above = data.draw(st.integers(0, k))
    big = data.draw(st.lists(st.floats(1.0, 10.0), min_size=above, max_size=above))
    small = data.draw(st.lists(st.floats(0.0, tol / 2), min_size=k - above, max_size=k - above))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    u = _orthonormal_columns(rng, rows, k, complex_)
    v = _orthonormal_columns(rng, cols, k, complex_)
    m = (u * np.array(big + small)) @ v.conj().T
    assert rank_eps(m, tol) == above
    null = null_space(m, tol)
    assert null.shape == (cols - above, cols)
    np.testing.assert_allclose(null @ null.conj().T, np.eye(cols - above), atol=1e-12)
    # the cut bounds each dropped singular value, so the spectral norm, not the
    # Frobenius norm, which adds up to sqrt(k) of them
    assert np.linalg.norm(m @ null.T, 2) <= tol * max(1.0, np.linalg.norm(m))


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_rank_eps_agrees_with_the_eigenvalue_count_on_hermitian_matrices(n):
    rng = np.random.default_rng(40 + n)
    for rank in range(n + 1):
        for _ in range(5):
            w = np.zeros(n)
            w[:rank] = rng.choice([-1.0, 1.0], rank) * rng.uniform(0.1, 10.0, rank)
            q = random_unitary(n, rng)
            m = (q * w) @ q.conj().T
            assert rank_eps(m) == rank_by_eigenvalues(m) == rank


def test_permute_factors_swaps_kron():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    np.testing.assert_allclose(permute_factors(kron(a, b), (2, 3), (1, 0)), kron(b, a),
                               atol=1e-12)


def test_permute_factors_on_matrix_units():
    # the reshuffle used for tensored maps, checked entry by entry on units
    for i, j, k, l in ((0, 1, 1, 0), (1, 1, 0, 1)):
        m = kron(kron(matrix_unit(2, i, j), matrix_unit(2, k, l)), np.eye(1))
        out = permute_factors(m, (2, 2, 1), (1, 0, 2))
        np.testing.assert_allclose(out, kron(kron(matrix_unit(2, k, l), matrix_unit(2, i, j)),
                                             np.eye(1)))


def test_random_unitary_and_isometry():
    u = random_unitary(4, 5)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
    v = random_isometry(6, 2, 5)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)
    with pytest.raises(ValueError):
        random_isometry(2, 3)


def test_is_isometry():
    v = random_isometry(6, 2, 5)
    assert is_isometry(v) and is_isometry(random_unitary(3, 1))
    assert not is_isometry(1.01 * v)
    assert not is_isometry(np.ones((2, 2)))
    # the tolerance is 1e-9 * max(1, sqrt(n)) in the Frobenius norm of V^dagger V - I
    assert is_isometry(np.sqrt(1 + 0.9e-9) * np.eye(1))
    assert not is_isometry(np.sqrt(1 + 1.1e-9) * np.eye(1))
