"""Dense complex linear algebra kernel.

Row-major conventions are fixed globally: ``vec`` flattens rows first and the
Kronecker product follows numpy's indexing, so composite indices read
``(outer, inner)`` everywhere in the package.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULTS, resolve

kron = np.kron


def vec(m: np.ndarray) -> np.ndarray:
    """Row-major flattening of a matrix into a vector."""
    return np.asarray(m, dtype=complex).reshape(-1)


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dagger b)."""
    return complex(np.vdot(a, b))


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def rel_scale(m: np.ndarray) -> float:
    """max(1, ||m||_F), the floor used by relative tolerance checks."""
    return max(1.0, frob(m))


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    u = np.zeros((n, n), dtype=complex)
    u[i, j] = 1.0
    return u


def is_hermitian(m: np.ndarray, tol: float | None = None) -> bool:
    m = np.asarray(m, dtype=complex)
    tol = resolve(tol, DEFAULTS.herm_tol)
    return frob(m - m.conj().T) <= tol * rel_scale(m)


def require_hermitian(m: np.ndarray, tol: float | None = None) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not is_hermitian(m, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    return m


def is_isometry(m: np.ndarray) -> bool:
    """Whether the columns of ``m`` are orthonormal, to ``DEFAULTS.rel_tol *
    max(1, sqrt(n))`` in the Frobenius norm of ``m^dagger m - I_n`` (n columns)."""
    n = m.shape[1]
    return frob(m.conj().T @ m - np.eye(n)) <= DEFAULTS.rel_tol * max(1.0, np.sqrt(n))


def herm_eig(m: np.ndarray, tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(w, v)`` with ``m @ v == v @ diag(w)``.  Raises ``ValueError``
    on non-Hermitian input and ``numpy.linalg.LinAlgError`` if the solver
    fails to converge.
    """
    m = require_hermitian(m, tol)
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return w[::-1].copy(), v[:, ::-1].copy()


def psd_project(m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix to Hermitian ``m``."""
    w, v = herm_eig(m)
    w = np.maximum(w, 0.0)
    out = (v * w) @ v.conj().T
    return (out + out.conj().T) / 2


def rank_eps(m: np.ndarray, eps: float | None = None) -> int:
    """Numerical rank of a Hermitian matrix via its eigenvalue magnitudes."""
    eps = resolve(eps, DEFAULTS.rel_tol)
    w, _ = herm_eig(m)
    return int(np.count_nonzero(np.abs(w) > eps * rel_scale(m)))


def svd_rank(m: np.ndarray, tol: float | None = None) -> int:
    """Numerical rank of any matrix: the number of singular values above
    ``tol * max(1, s_max)``.  An empty matrix has rank 0."""
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > resolve(tol, DEFAULTS.rel_tol) * max(1.0, s[0])))


@lru_cache(maxsize=None)
def hermitian_basis(n: int, traceless: bool = False) -> np.ndarray:
    """Orthonormal real basis of the Hermitian n x n matrices, shape (n^2, n, n),
    or of the traceless ones, shape (n^2 - 1, n, n).

    Ordering: the n diagonal units (with ``traceless``, the n - 1 Helmert
    contrasts ``(E_00 + ... + E_{k-1,k-1} - k E_kk) / sqrt(k(k+1))`` in their
    place), then the symmetric combinations over the upper triangle in
    row-major order, then the antisymmetric ones.
    """
    diag = np.eye(n)
    if traceless:
        diag = np.array([np.r_[np.ones(k), -k, np.zeros(n - k - 1)] / np.sqrt(k * (k + 1))
                         for k in range(1, n)]).reshape(n - 1, n)
    mats = [np.diag(v).astype(complex) for v in diag]
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    for phase in (1.0, 1j):
        for p, q in pairs:
            m = np.zeros((n, n), dtype=complex)
            m[p, q] = phase / np.sqrt(2.0)
            m[q, p] = np.conj(phase) / np.sqrt(2.0)
            mats.append(m)
    out = np.array(mats).reshape(-1, n, n)
    out.setflags(write=False)
    return out


def partial_trace(m: np.ndarray, dims: Sequence[int], traced: Iterable[int]) -> np.ndarray:
    """Trace out tensor factors of a matrix on a product space.

    ``dims`` lists the factor sizes and ``traced`` the 0-based positions to
    trace out; the remaining factors keep their order.  Tracing every factor
    returns a 1x1 matrix holding the trace.
    """
    m = np.asarray(m, dtype=complex)
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match factor sizes {dims}")
    k = len(dims)
    traced_set = {int(i) for i in traced}
    if traced_set and not traced_set <= set(range(k)):
        raise ValueError(f"traced factors {sorted(traced_set)} out of range for {k} factors")
    keep = [i for i in range(k) if i not in traced_set]
    t = m.reshape(dims + dims)
    row_idx = list(range(k))
    col_idx = [i if i in traced_set else k + i for i in range(k)]
    out_idx = keep + [k + i for i in keep]
    res = np.einsum(t, row_idx + col_idx, out_idx)
    size = int(np.prod([dims[i] for i in keep])) if keep else 1
    return res.reshape(size, size)


def permute_factors(m: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder the tensor factors of a matrix on a product space.

    Factor ``perm[k]`` of the input becomes factor ``k`` of the output, on
    rows and columns simultaneously.
    """
    m = np.asarray(m, dtype=complex)
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match factor sizes {dims}")
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(len(dims))):
        raise ValueError(f"{perm} is not a permutation of the {len(dims)} factors")
    k = len(dims)
    t = m.reshape(dims + dims)
    out = t.transpose(perm + tuple(k + p for p in perm))
    return out.reshape(total, total)


def as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_hermitian(n: int, seed=None) -> np.ndarray:
    rng = as_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_unitary(n: int, seed=None) -> np.ndarray:
    """Haar-random unitary via QR with the usual phase fix."""
    rng = as_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_isometry(rows: int, cols: int, seed=None) -> np.ndarray:
    """Random ``rows x cols`` matrix with orthonormal columns."""
    if rows < cols:
        raise ValueError(f"no isometry with shape {rows}x{cols}")
    rng = as_rng(seed)
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, _ = np.linalg.qr(z)
    return q
