"""PSD-affine feasibility: Douglas-Rachford splitting with one Newton phase.

The solver looks for a Hermitian n x n matrix inside the intersection of an
affine set and the PSD cone, iterating on the matrices themselves.  The
affine set arrives as an ``AffineSet``: its nearest-point map, its
minimum-norm point (the anchor), a residual, a bound relating residuals to
distances and an orthonormal basis of its directions.  Its one caller,
``extend.affine_set``, builds the projection and the basis in closed form.

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

DR crosses a thin set slowly: one whose largest smallest eigenvalue is
1e-5 takes it tens of thousands of iterations.  So a run with a cap above
``NEWTON_AFTER`` (1,024) and no verdict after that iteration's certificate
check runs ``strict_witness`` once: a barrier Newton method that maximises
t subject to ``W - t I > 0`` over the directions basis (Vandenberghe &
Boyd, SIAM Review 1996).  It ends in one of three ways:

* a strict witness: ``t`` clears a rounding floor and a Cholesky
  factorisation of ``W - (t/2) I`` proves W positive definite; W must then
  pass the same ``affine_tol`` residual rule as a DR witness;
* the bound ``t + n/eta`` on the best t falls below that floor: the set
  holds no point that a factorisation could prove positive definite;
* ``W - t I`` does not factorise at the start, or no damped step keeps it
  factorisable.

Without a strict witness DR resumes from its unchanged iterate, so the
run's status, iteration count and witness are those of DR alone; the
report records the phase's step count either way.

An iteration is one bare ``np.linalg.eigh(x)``, which reads only the lower
triangle of x, so x is never symmetrised; the shadow as one Gram product
``B B^H`` with ``B = V sqrt(max(w, 0))``; the closed-form ``P_A(y)``; and an
in-place update of x.  The witness is symmetrised once, when it is returned.
At n = 16 (one BLAS thread, a shared 2-core Xeon) an iteration took 65-130 us
with load, about three quarters of it in ``eigh``; a Newton step took about
0.4 ms there and 7.5 ms at n = 36.
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

# The Douglas-Rachford iteration after which a run without a verdict tries
# the Newton phase, once.  A power of two, so that iteration's certificate
# check comes first.
NEWTON_AFTER = 1024
# Newton phase: barrier weight growth per centring, the half squared Newton
# decrement below which a point counts as centred, and a step budget that
# bounds the phase should centring stall (the benchmark sets need at most 89).
_ETA_GROWTH = 10.0
_CENTRED = 1e-2
_NEWTON_STEP_CAP = 200


@dataclass(frozen=True)
class Directions:
    """An orthonormal basis of an affine set's directions, in closed form.

    The basis matrices are ``B_(i,j) = A_i (x) I_r / sqrt(r) (x) H_j`` on
    ``C^d (x) C^r (x) C^k``, for the orthonormal Hermitian ``left`` matrices
    ``A_i`` (shape ``(a, d, d)``) and ``right`` matrices ``H_j`` (shape
    ``(h, k, k)``); coordinates are indexed by ``(i, j)`` in row-major order.
    The methods below work on that tensor structure and never form the
    ``a h`` basis matrices.
    """

    left: np.ndarray
    right: np.ndarray
    r: int

    @property
    def size(self) -> int:
        return self.left.shape[0] * self.right.shape[0]

    def _flat(self):
        a, d = self.left.shape[:2]
        h, k = self.right.shape[:2]
        return a, d, h, k, self.left.reshape(a, d * d), self.right.reshape(h, k * k)

    def combine(self, z: np.ndarray) -> np.ndarray:
        """``sum_(i,j) z_(i,j) B_(i,j)`` for real coordinates ``z``."""
        a, d, h, k, af, hf = self._flat()
        r = self.r
        x = (af.T @ z.reshape(a, h) @ hf).reshape(d, d, k, k).transpose(0, 2, 1, 3)
        return np.einsum("puqv,st->psuqtv", x, np.eye(r) / np.sqrt(r)).reshape(d * r * k, -1)

    def coords(self, m: np.ndarray) -> np.ndarray:
        """``Re Tr(B_(i,j) m)`` for every basis matrix: the adjoint of ``combine``."""
        a, d, h, k, af, hf = self._flat()
        r = self.r
        mr = m.reshape(d, r, k, d, r, k).trace(axis1=1, axis2=4)  # (q, v, p, u)
        mr = mr.transpose(2, 0, 3, 1).reshape(d * d, k * k)
        return (af @ mr @ hf.T).real.ravel() / np.sqrt(r)

    def hessian(self, g: np.ndarray) -> np.ndarray:
        """The matrix ``Tr(G B_a G B_b)`` for Hermitian ``G``.

        With ``G`` indexed ``(p, s, u; P, S, U)`` over ``(d, r, k)``, the entry
        is ``(1/r) sum G[p s u, P S U] G[q S v, Q s V] A_i[P, q] H_j[U, v]
        A_k[Q, p] H_l[V, u]``: one product over the ``r^2`` block pairs, then
        the ``A`` and ``H`` factors contracted in turn.
        """
        a, d, h, k, af, hf = self._flat()
        r = self.r
        nn = d * k
        blocks = g.reshape(d, r, k, d, r, k).transpose(1, 4, 0, 2, 3, 5).reshape(r, r, nn * nn)
        q4 = blocks.reshape(r * r, -1).T @ blocks.transpose(1, 0, 2).reshape(r * r, -1) / r
        # (p, u, P, U, q, v, Q, V) -> (P, q, Q, p; U, v, V, u)
        q4 = q4.reshape(d, k, d, k, d, k, d, k).transpose(2, 4, 6, 0, 3, 5, 7, 1)
        aa = np.einsum("ix,ky->ikxy", af, af).reshape(a * a, -1)
        s = (aa @ q4.reshape(d ** 4, -1)).reshape(a * a, k * k, k * k)
        s = np.matmul(hf, s) @ hf.T                                 # ((i, k), j, l)
        s = s.reshape(a, a, h, h).transpose(0, 2, 1, 3).reshape(a * h, a * h).real
        return (s + s.T) / 2


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
    ``directions`` is an orthonormal basis of the set's directions, for the
    Newton phase.
    """

    project: Callable[[np.ndarray], np.ndarray]
    anchor: np.ndarray
    residual: Callable[[np.ndarray], float]
    row_bound: float
    rhs_scale: float
    directions: Directions


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
    """Outcome of one ``solve`` run.

    Without a witness, ``certificate`` is the last displacement checked; it
    proves infeasibility only when its margin is negative.  ``newton_steps``
    counts the steps of the Newton phase, 0 when it did not run; a witness
    found there comes with ``iterations == NEWTON_AFTER``.
    """

    status: str
    point: np.ndarray | None
    gap: float
    iterations: int
    affine_residual: float
    psd_residual: float
    gap_history: list[float] = field(default_factory=list)
    certificate: Certificate | None = None
    newton_steps: int = 0


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


def strict_witness(affine: AffineSet) -> tuple[np.ndarray | None, int]:
    """A positive definite point of the affine set, by a barrier Newton method.

    Maximises t subject to ``F = W - t I > 0`` over ``W = anchor + sum_a z_a
    B_a`` (the ``affine.directions`` basis B_a), from ``z = 0`` and ``t`` below
    the smallest eigenvalue of the anchor: damped Newton steps on
    ``-eta t - log det F`` in the coordinates ``(z, t)``, with ``eta`` grown
    tenfold whenever the Newton decrement shows the point centred.  A centred
    point bounds the optimum by ``t + n/eta``.

    Returns ``(W, steps)`` once ``t`` clears the floor ``4 (n+1) eps Tr(anchor)``
    and a Cholesky factorisation of ``W - (t/2) I`` succeeds.  The backward
    error of a factorisation that succeeds is at most about ``(n+1) eps/2``
    times the trace (Demmel 1989; Rump, BIT 2006), and every point of the
    set shares the anchor's trace; the floor leaves a factor of four for
    complex arithmetic and the rounding of the shift, so ``lambda_min(W) >=
    t/2 - floor/2 > 0``.  Returns ``(None, steps)`` when the bound
    ``t + n/eta`` falls below the floor, when no damped step keeps F
    factorisable, or after ``_NEWTON_STEP_CAP`` steps; ``(None, 0)`` when the
    trace is not positive or F does not factorise at the start (its smallest
    eigenvalue, ``Tr(anchor)/n``, can lie within the rounding of
    ``||anchor||``).
    """
    dirs, anchor = affine.directions, affine.anchor
    n, m = anchor.shape[0], dirs.size
    trace = float(np.trace(anchor).real)
    if trace <= 0:  # a positive definite point has a positive trace
        return None, 0
    floor = 4 * (n + 1) * np.finfo(float).eps * trace
    eye = np.eye(n)

    def factor(w: np.ndarray, t: float):
        """The Cholesky factor of ``w - t I`` and ``-log det``, or None."""
        try:
            low = np.linalg.cholesky(w - t * eye)
        except np.linalg.LinAlgError:
            return None
        return low, -2.0 * float(np.log(np.diagonal(low).real).sum())

    w = anchor
    t = float(np.linalg.eigvalsh(anchor)[0]) - trace / n
    eta = n / (trace / n - t)
    start = factor(w, t)
    if start is None:
        return None, 0
    low, logdet = start
    for step in range(1, _NEWTON_STEP_CAP + 1):
        inv_low = np.linalg.inv(low)
        g = inv_low.conj().T @ inv_low           # F^{-1}
        g2 = g @ g
        grad = np.append(-dirs.coords(g), np.trace(g).real - eta)
        hess = np.empty((m + 1, m + 1))
        hess[:m, :m] = dirs.hessian(g)
        hess[:m, m] = hess[m, :m] = -dirs.coords(g2)
        hess[m, m] = np.trace(g2).real
        try:
            dx = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            return None, step
        slope = float(grad @ dx)
        dw, dt = dirs.combine(dx[:m]), float(dx[m])
        value = logdet - eta * t
        alpha = 1.0
        while True:
            trial = factor(w + alpha * dw, t + alpha * dt)
            if trial is not None and trial[1] - eta * (t + alpha * dt) <= value + alpha * slope / 4:
                break
            alpha /= 2
            if alpha < 2.0 ** -30:
                return None, step
        w, t = w + alpha * dw, t + alpha * dt
        low, logdet = trial
        if t > floor:
            point = (w + w.conj().T) / 2
            if factor(point, t / 2) is not None:
                return point, step
        if -slope / 2 <= _CENTRED:
            if t + n / eta < floor:
                return None, step
            eta *= _ETA_GROWTH
    return None, _NEWTON_STEP_CAP


def solve(affine: AffineSet,
          seed_point: np.ndarray | None = None,
          max_iter: int | None = None) -> ProjectionReport:
    """Search the intersection of an affine set with the PSD cone.

    Starts from the affine projection of ``seed_point`` (from the anchor, the
    minimum-norm affine point, by default).  Reports ``feasible`` with the
    PSD shadow as witness once its affine residual drops below tolerance,
    ``infeasible`` once the displacement checks as a certificate (checked
    at iterations 1, 2, 4, 8, ...), and ``undetermined`` at the iteration
    cap.  With a cap above ``NEWTON_AFTER``, a run without a verdict at that
    iteration first tries ``strict_witness``; if it finds none, the
    iteration resumes unchanged.
    Raises ``ValueError`` when ``max_iter`` is below 1 and when the
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
    newton_steps = 0

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
                                        affine_res, 0.0, history, newton_steps=newton_steps)
        if it & (it - 1) == 0:  # it is a power of two
            cert = certificate(affine, y, py)
            if cert.margin < 0:
                return ProjectionReport(INFEASIBLE, None, gap, it,
                                        affine.residual(y), gap, history, cert,
                                        newton_steps)
        if it == NEWTON_AFTER and max_iter > NEWTON_AFTER:
            point, newton_steps = strict_witness(affine)
            if point is not None:
                affine_res = affine.residual(point)
                if affine_res <= affine_thr:
                    return ProjectionReport(FEASIBLE, point,
                                            float(np.linalg.norm(point - project(point))), it,
                                            affine_res, 0.0, history, newton_steps=newton_steps)
        x += py
        x += py
        x -= px
        x -= y
        px = py

    w, _ = herm_eig(py)
    return ProjectionReport(UNDETERMINED, None, history[-1], max_iter,
                            0.0, float(max(0.0, -w[-1])), history, cert, newton_steps)
