"""PSD-affine feasibility by Douglas-Rachford splitting.

The solver looks for a Hermitian n x n matrix inside the intersection of an
affine set and the PSD cone, iterating on the matrices themselves.  The
affine set arrives as an ``AffineSet``: its nearest-point map, its
minimum-norm point (the anchor), a residual and a bound relating residuals
to distances.  Its one caller, ``extend.affine_set``, builds the projection
in closed form.

The iteration is Douglas-Rachford (Lions & Mercier 1979): with the shadow
``y = P_PSD(x)``, ``x <- x + P_A(2y - x) - y``.  The shadow is PSD by
construction and is the witness once its affine residual qualifies.  On an
inconsistent problem the displacement ``y - P_A(y)`` converges to the gap
vector between the two sets (Bauschke & Moursi 2017); "infeasible" is
reported only when that vector, stripped of its kernel part, checks as a
Farkas certificate (see ``Certificate``).  The check runs at iterations 1, 2,
4, 8, ...: a run of ``max_iter`` iterations pays at most
``ceil(log2 max_iter) + 1`` of them, and once the certificates check from
some iteration on, "infeasible" comes at most twice as late.

An iteration is one bare ``np.linalg.eigh(x)``, which reads only the lower
triangle of x, so x is never symmetrised; the shadow as one Gram product
``B B^H`` with ``B = V sqrt(max(w, 0))``; the closed-form ``P_A(y)``; and an
in-place update of x.  The witness is symmetrised once, when it is returned.
At n = 16 (one BLAS thread, a shared 2-core Xeon) an iteration took 65-130 us
with load, about three quarters of it in ``eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import DEFAULTS, resolve
from .linalg import herm_eig

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class AffineSet:
    """An affine set of Hermitian n x n matrices, described for ``solve``.

    ``project`` is the Frobenius-nearest-point map onto the set and
    ``anchor`` its minimum-norm point, a Hermitian matrix whose residual
    decides consistency.  ``residual(C)`` is the largest violation of the
    defining equations, real and imaginary parts taken apart.  ``row_bound``
    bounds that residual by ``row_bound * ||C - project(C)||_F``, and
    ``rhs_scale`` is the floor (at least 1) that scales the affine tolerance.
    Every point of the set has the anchor's trace (the identity lies in the
    row space of the equations); the infeasibility certificate relies on it.
    """

    project: Callable[[np.ndarray], np.ndarray]
    anchor: np.ndarray
    residual: Callable[[np.ndarray], float]
    row_bound: float
    rhs_scale: float


@dataclass(frozen=True)
class Certificate:
    """A Farkas certificate that the affine set misses the PSD cone.

    ``matrix`` is a Hermitian W orthogonal (up to rounding) to the directions
    of the affine set, so ``<W, C>`` is the same for every C in the set.  If
    some C in the set were PSD, with ``t = Tr C = Tr(anchor)`` and
    ``||C||_F <= t``,

        <W, anchor> >= lambda_min(W) t - ||K W||_F (t + ||anchor||_F),

    where K projects onto the set's directions.  The three terms below are
    ``<W, anchor>``, ``max(0, -lambda_min(W)) t`` and
    ``(||K W||_F + n^2 eps ||W||_F) (t + ||anchor||_F)`` for n x n matrices
    and machine epsilon eps; the added ``n^2 eps ||W||_F`` bounds the
    rounding of the computed ``<W, anchor>`` (a sum of n^2 products) and
    ``lambda_min(W)``.  A negative sum (``margin``) proves that no such C
    exists.
    """

    matrix: np.ndarray
    inner: float
    eig_term: float
    kernel_term: float

    @property
    def margin(self) -> float:
        return self.inner + self.eig_term + self.kernel_term


@dataclass
class ProjectionReport:
    """Outcome of one Douglas-Rachford run.

    Without a witness, ``certificate`` is the last displacement checked; it
    proves infeasibility only when its margin is negative.
    """

    status: str
    point: np.ndarray | None
    gap: float
    iterations: int
    affine_residual: float
    psd_residual: float
    gap_history: list[float] = field(default_factory=list)
    certificate: Certificate | None = None


def certificate(affine: AffineSet, y: np.ndarray, py: np.ndarray) -> Certificate:
    """The displacement ``y - P_A(y)`` as a candidate Farkas certificate.

    Its kernel part ``K W = P_A(W) - P_A(0)`` is removed, and what rounding
    leaves of it, with the rounding of the other two terms, is charged to
    the margin.
    """
    project, anchor = affine.project, affine.anchor
    w = y - py
    base = project(np.zeros_like(w))
    w = w - (project(w) - base)
    t = float(np.trace(anchor).real)
    lam_min = float(herm_eig(w)[0][-1])
    residue = float(np.linalg.norm(project(w) - base)
                    + w.shape[0] ** 2 * np.finfo(float).eps * np.linalg.norm(w))
    return Certificate(w,
                       float(np.vdot(w, anchor).real),
                       max(0.0, -lam_min) * t,
                       residue * (t + float(np.linalg.norm(anchor))))


def solve(affine: AffineSet,
          seed_point: np.ndarray | None = None,
          max_iter: int | None = None) -> ProjectionReport:
    """Search the intersection of an affine set with the PSD cone.

    Starts from the affine projection of ``seed_point`` (from the anchor, the
    minimum-norm affine point, by default).  Reports ``feasible`` with the
    PSD shadow as witness once its affine residual drops below tolerance,
    ``infeasible`` once the displacement checks as a certificate (checked
    at iterations 1, 2, 4, 8, ...), and ``undetermined`` at the iteration
    cap.  Raises ``ValueError`` when ``max_iter`` is below 1 and when the
    affine set is empty, that is when its anchor leaves a residual above
    tolerance.
    """
    max_iter = int(resolve(max_iter, DEFAULTS.max_iter))
    if max_iter < 1:
        raise ValueError(f"iteration cap must be at least 1, got {max_iter}")
    affine_thr = DEFAULTS.affine_tol * affine.rhs_scale
    if affine.residual(affine.anchor) > affine_thr:
        raise ValueError("affine constraint system is inconsistent")
    project = affine.project
    rowmax = affine.row_bound

    if seed_point is not None:
        s = np.asarray(seed_point, dtype=complex)
        x = project((s + s.conj().T) / 2)
    else:
        x = affine.anchor
    # x is affine here, and P_A(x) stays known without projecting x again:
    # P_A is affine and idempotent, so P_A(x + 2 py - px - y) = py.  The
    # update is in place, on a copy that aliases neither the anchor nor px.
    px = py = x
    x = x.copy()
    cert = None
    history: list[float] = []

    for it in range(1, max_iter + 1):
        w, v = np.linalg.eigh(x)
        b = v * np.sqrt(np.maximum(w, 0.0))
        y = b @ b.conj().T
        py = project(y)
        gap = float(np.linalg.norm(y - py))
        history.append(gap)

        # y is PSD exactly; accept it once its affine residual qualifies.
        if rowmax * gap <= 2 * affine_thr or gap <= affine_thr:
            affine_res = affine.residual(y)
            if affine_res <= affine_thr:
                return ProjectionReport(FEASIBLE, (y + y.conj().T) / 2, gap, it,
                                        affine_res, 0.0, history)
        if it & (it - 1) == 0:  # it is a power of two
            cert = certificate(affine, y, py)
            if cert.margin < 0:
                return ProjectionReport(INFEASIBLE, None, gap, it,
                                        affine.residual(y), gap, history, cert)
        x += py
        x += py
        x -= px
        x -= y
        px = py

    w, _ = herm_eig(py)
    return ProjectionReport(UNDETERMINED, None, history[-1], max_iter,
                            0.0, float(max(0.0, -w[-1])), history, cert)
