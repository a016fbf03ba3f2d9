"""Dense complex linear algebra kernel.

Row-major conventions are fixed globally: ``vec`` flattens rows first and the
Kronecker product follows numpy's indexing, so composite indices read
``(outer, inner)`` everywhere in the package.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULTS, resolve

kron = np.kron


def vec(m: np.ndarray) -> np.ndarray:
    """Row-major flattening of a matrix into a vector."""
    return np.asarray(m, dtype=complex).reshape(-1)


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def rel_scale(m: np.ndarray) -> float:
    """max(1, ||m||_F), the floor used by relative tolerance checks."""
    return max(1.0, frob(m))


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    u = np.zeros((n, n), dtype=complex)
    u[i, j] = 1.0
    return u


def is_hermitian(m: np.ndarray) -> bool:
    m = np.asarray(m, dtype=complex)
    return frob(m - m.conj().T) <= DEFAULTS.herm_tol * rel_scale(m)


def require_hermitian(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    return m


def is_isometry(m: np.ndarray) -> bool:
    """Whether the columns of ``m`` are orthonormal, to ``DEFAULTS.rel_tol *
    max(1, sqrt(n))`` in the Frobenius norm of ``m^dagger m - I_n`` (n columns)."""
    n = m.shape[1]
    return frob(m.conj().T @ m - np.eye(n)) <= DEFAULTS.rel_tol * max(1.0, np.sqrt(n))


def herm_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(w, v)`` with ``m @ v == v @ diag(w)``.  Raises ``ValueError``
    on non-Hermitian input and ``numpy.linalg.LinAlgError`` if the solver
    fails to converge.
    """
    m = require_hermitian(m)
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return w[::-1].copy(), v[:, ::-1].copy()


def lambda_min(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix, computed without eigenvectors;
    ``is_psd`` asks for it only where its shifted factorisation cannot decide."""
    m = require_hermitian(m)
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])


def cholesky(a: np.ndarray) -> np.ndarray | None:
    """The lower Cholesky factor of Hermitian ``a``, or None where it breaks down."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None


def is_psd(m: np.ndarray, tol: float | None = None) -> bool:
    """The one PSD rule: Hermitian with ``lambda_min(m) >= -cut``, ``cut = tol *
    max(1, ||m||_F)``.  A Cholesky factorisation of ``(m + m^H + cut I)/2`` accepts
    first: above the guard ``tol > 4 (n+1) sqrt(n) eps`` its backward error, at most
    about ``(n+1) eps`` times the trace (Demmel 1989; Rump, BIT 2006), stays below
    ``cut/2``, so it succeeds only if ``lambda_min > -cut``.  Else ``lambda_min`` decides."""
    tol, m, n = resolve(tol, DEFAULTS.rel_tol), np.asarray(m, dtype=complex), len(m)
    if not is_hermitian(m):
        return False
    if tol > 4 * (n + 1) * np.sqrt(n) * np.finfo(float).eps:
        a = m + m.conj().T  # twice the shifted matrix: the factor 2 is exact
        a.flat[::n + 1] += tol * rel_scale(m)
        if cholesky(a) is not None:
            return True
    return lambda_min(m) >= -tol * rel_scale(m)


def psd_support(m: np.ndarray, tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs ``(w, v)`` with ``w`` above ``tol * max(1, ||m||_F)``, descending,
    so that ``v * sqrt(w)`` is a square root of ``m`` on its support.  Raises
    ``ValueError`` where ``is_psd`` fails: an eigenvalue below minus that cutoff."""
    w, v = herm_eig(m)
    cutoff = resolve(tol, DEFAULTS.rel_tol) * rel_scale(m)
    if w[-1] < -cutoff:
        raise ValueError(f"matrix is not PSD: eigenvalue {w[-1]:.3e} below {-cutoff:.3e}")
    return w[w > cutoff], v[:, w > cutoff]


def psd_project(m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix to Hermitian ``m``."""
    w, v = herm_eig(m)
    w = np.maximum(w, 0.0)
    out = (v * w) @ v.conj().T
    return (out + out.conj().T) / 2


def _count_above(s: np.ndarray, m: np.ndarray, tol: float | None) -> int:
    return int(np.count_nonzero(s > resolve(tol, DEFAULTS.rel_tol) * rel_scale(m)))


def rank_eps(m: np.ndarray, eps: float | None = None) -> int:
    """The one rank rule: the number of singular values of any matrix above
    ``eps * max(1, ||m||_F)``.  An empty matrix has rank 0."""
    return _count_above(np.linalg.svd(m, compute_uv=False), m, eps)


def null_space(m: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Orthonormal rows ``v`` with ``m @ v.T ~ 0``: the right singular vectors
    whose singular value is at or below the ``rank_eps`` cut, together with
    those a wide or empty ``m`` has no singular value for.  There are
    ``m.shape[1] - rank_eps(m, tol)`` of them."""
    _, s, vh = np.linalg.svd(m)
    return vh[_count_above(s, m, tol):].conj()


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
