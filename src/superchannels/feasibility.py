"""PSD-affine feasibility by Dykstra-corrected alternating projections.

The solver looks for a Hermitian n x n matrix inside the intersection of an
affine set and the PSD cone, iterating on the matrices themselves.  The
affine set arrives as an ``AffineSet``: its nearest-point map, its
minimum-norm point (the anchor), a residual and a bound relating residuals
to distances.  Callers that know the geometry pass a closed-form projection
(``extend.affine_set`` does); ``linear_affine_set`` builds one from an
explicit complex linear system for everything else.  The Dykstra correction
is applied on the cone side only, which is the standard simplification when
the other factor is affine.

The orthonormal real basis of the Hermitian matrices and the coordinate maps
below serve ``linear_affine_set`` and the extremality tests; in coordinates,
Euclidean geometry coincides with Frobenius geometry on matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .config import DEFAULTS, resolve
from .linalg import herm_eig

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNDETERMINED = "undetermined"

_SQRT2 = np.sqrt(2.0)


@lru_cache(maxsize=None)
def hermitian_basis(n: int) -> np.ndarray:
    """Orthonormal real basis of the Hermitian n x n matrices, shape (n^2, n, n).

    Ordering: the n diagonal units, then the symmetric combinations over the
    upper triangle in row-major order, then the antisymmetric ones.
    """
    mats = []
    for p in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[p, p] = 1.0
        mats.append(m)
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    for p, q in pairs:
        m = np.zeros((n, n), dtype=complex)
        m[p, q] = 1 / _SQRT2
        m[q, p] = 1 / _SQRT2
        mats.append(m)
    for p, q in pairs:
        m = np.zeros((n, n), dtype=complex)
        m[p, q] = 1j / _SQRT2
        m[q, p] = -1j / _SQRT2
        mats.append(m)
    out = np.array(mats)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _triu(n: int):
    return np.triu_indices(n, 1)


def to_coords(m: np.ndarray, n: int) -> np.ndarray:
    """Coordinates of a Hermitian matrix in the orthonormal basis above."""
    iu, ju = _triu(n)
    off = m[iu, ju]
    return np.concatenate([np.diagonal(m).real, _SQRT2 * off.real, _SQRT2 * off.imag])


def from_coords(x: np.ndarray, n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    iu, ju = _triu(n)
    k = len(iu)
    off = (x[n:n + k] + 1j * x[n + k:]) / _SQRT2
    m[iu, ju] = off
    m[ju, iu] = off.conj()
    m[np.diag_indices(n)] = x[:n]
    return m


def realify(a_complex: np.ndarray, b_complex: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rewrite complex constraints on vec(C) as real constraints on Hermitian coordinates."""
    basis = hermitian_basis(n)
    v = basis.reshape(n * n, n * n).T  # column k is vec of basis element k
    m = a_complex @ v
    a_real = np.vstack([m.real, m.imag])
    b_real = np.concatenate([b_complex.real, b_complex.imag])
    return a_real, b_real


@dataclass(frozen=True)
class AffineSet:
    """An affine set of Hermitian n x n matrices, described for ``solve``.

    ``project`` is the Frobenius-nearest-point map onto the set and
    ``anchor`` its minimum-norm point, a Hermitian matrix whose residual
    decides consistency.  ``residual(C)`` is the largest violation of the
    defining equations, real and imaginary parts taken apart.  ``row_bound``
    bounds that residual by ``row_bound * ||C - project(C)||_F``, and
    ``rhs_scale`` is the floor (at least 1) that scales the affine tolerance.
    """

    project: Callable[[np.ndarray], np.ndarray]
    anchor: np.ndarray
    residual: Callable[[np.ndarray], float]
    row_bound: float
    rhs_scale: float


def linear_affine_set(a_complex: np.ndarray, b_complex: np.ndarray, n: int) -> AffineSet:
    """The Hermitian solutions of ``a_complex @ vec(C) = b_complex`` as an ``AffineSet``.

    Generic fallback for systems without a closed-form projection: realify
    the system and take its pseudo-inverse.  Singular values below
    ``DEFAULTS.rel_tol`` times the largest are treated as zero; numpy's own
    cutoff near machine precision keeps noise directions and can turn a
    consistent system inconsistent.
    """
    a_real, b_real = realify(a_complex, b_complex, n)
    pinv = np.linalg.pinv(a_real, rcond=DEFAULTS.rel_tol)
    base = pinv @ b_real
    proj = np.eye(a_real.shape[1]) - pinv @ a_real

    def residual(c: np.ndarray) -> float:
        return float(np.max(np.abs(a_real @ to_coords(c, n) - b_real)))

    return AffineSet(
        project=lambda c: from_coords(proj @ to_coords(c, n) + base, n),
        anchor=from_coords(base, n),
        residual=residual,
        row_bound=float(np.sqrt((a_real * a_real).sum(axis=1).max())),
        rhs_scale=max(1.0, float(np.max(np.abs(b_real)))),
    )


@dataclass
class ProjectionReport:
    """Outcome of one alternating-projection run."""

    status: str
    point: np.ndarray | None
    gap: float
    iterations: int
    affine_residual: float
    psd_residual: float
    gap_history: list[float] = field(default_factory=list)


def solve(affine: AffineSet,
          seed_point: np.ndarray | None = None,
          max_iter: int | None = None,
          affine_tol: float | None = None,
          psd_tol: float | None = None,
          gap_tol: float | None = None,
          stall_rel: float | None = None,
          stall_window: int | None = None) -> ProjectionReport:
    """Search the intersection of an affine set with the PSD cone.

    Starts from the affine projection of ``seed_point`` (from the anchor, the
    minimum-norm affine point, by default).  Reports ``feasible`` with a
    witness once residuals drop below tolerance, ``infeasible`` once the gap
    between the two sets stalls above ``gap_tol``, and ``undetermined`` at
    the iteration cap.  Raises ``ValueError`` when the affine set is empty,
    that is when its anchor leaves a residual above tolerance.
    """
    max_iter = int(resolve(max_iter, DEFAULTS.max_iter))
    affine_tol = resolve(affine_tol, DEFAULTS.affine_tol)
    psd_tol = resolve(psd_tol, DEFAULTS.psd_tol)
    gap_tol = resolve(gap_tol, DEFAULTS.gap_tol)
    stall_rel = resolve(stall_rel, DEFAULTS.stall_rel)
    stall_window = int(resolve(stall_window, DEFAULTS.stall_window))

    affine_thr = affine_tol * affine.rhs_scale
    if affine.residual(affine.anchor) > affine_thr:
        raise ValueError("affine constraint system is inconsistent")
    project = affine.project
    rowmax = affine.row_bound

    if seed_point is not None:
        s = np.asarray(seed_point, dtype=complex)
        x = project((s + s.conj().T) / 2)
    else:
        x = affine.anchor.copy()
    p = np.zeros_like(x)
    history: list[float] = []

    for it in range(1, max_iter + 1):
        # linalg.psd_project, inlined so that this module's herm_eig is the
        # one eigendecomposition per iteration (perfbench counts it here)
        z = x + p
        w, v = herm_eig(z)
        m = (v * np.maximum(w, 0.0)) @ v.conj().T
        y = (m + m.conj().T) / 2
        p = z - y
        x = project(y)
        gap = float(np.linalg.norm(x - y))
        history.append(gap)

        # y is PSD exactly; accept it once its affine residual qualifies.
        if rowmax * gap <= 2 * affine_thr or gap <= affine_thr:
            affine_res = affine.residual(y)
            if affine_res <= affine_thr:
                return ProjectionReport(FEASIBLE, y, gap, it, affine_res, 0.0, history)
        # x satisfies the affine constraints exactly and its most negative
        # eigenvalue is bounded by the gap.
        if gap <= psd_tol * max(1.0, float(np.linalg.norm(x))):
            w, _ = herm_eig(x)
            return ProjectionReport(FEASIBLE, x, gap, it,
                                    0.0, float(max(0.0, -w[-1])), history)
        if it > stall_window and gap > gap_tol:
            prev = history[-stall_window - 1]
            if abs(gap - prev) <= stall_rel * max(gap, 1e-300):
                return ProjectionReport(INFEASIBLE, None, gap, it,
                                        affine.residual(y), gap, history)

    w, _ = herm_eig(x)
    return ProjectionReport(UNDETERMINED, None,
                            history[-1] if history else np.inf,
                            max_iter,
                            0.0, float(max(0.0, -w[-1])), history)
