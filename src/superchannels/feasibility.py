"""PSD-affine feasibility: Douglas-Rachford splitting with one primal-dual phase.

The solver looks for a Hermitian n x n matrix inside the intersection of an
affine set and the PSD cone, iterating on the matrices themselves.  The
affine set arrives as an ``AffineSet``: its nearest-point map, its
minimum-norm point (the anchor), a residual, a bound relating residuals to
distances and its directions in matrix coordinates (``Directions``).  Its
one caller, ``extend.affine_set``, builds both in closed form.

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
1e-5 takes it tens of thousands of iterations, and a set that holds no
positive definite point (a unique extension, say) it approaches
tangentially (Sturm, SIAM J. Optim. 2000).  So a run with a cap of at least
``2 newton_after(m)`` and no verdict after that iteration's certificate
check runs ``newton_phase`` once, from that iteration's affine point
``P_A(y)``: a primal-dual interior-point method that maximises t subject to
``W - t E >= 0`` over the set's m directions, with a dual matrix X that
bounds the best t (Vandenberghe & Boyd, SIAM Review 1996).  The unit E is
``I (x) M`` for the output marginal M that every point of the set shares,
or the identity when M is singular or nearly so; the 20 ``extend-cap`` sets
take 90 steps against it, 102 against ``E = I``.  The phase ends with a
witness, a certificate (the run then ends "infeasible" at the switch) or
nothing, and then DR resumes from its unchanged iterate, so the run's
status, iteration count and witness are those of DR alone; the report
records the switch, the phase's step count and how it ended either way.
The switch (``newton_after``) is set from measured costs: at (2,2,2,2) (m =
48) a step costs 5-8 DR iterations, and the phase ends a set with a positive
definite point in 1-8 steps (1-2 where DR takes 12-53 iterations) and saves
DR's whole run on a set without one (2,261 iterations at seed 401).

A run ends in a ``FeasibilityReport``, the one declaration of an extension
search's outcome: ``extend.extend_action`` returns the same report with its
witness wrapped as a ``Superchannel``, and ``serialize.encode_feasibility``
and the CLI's ``extend`` findings are derived from its fields.

An iteration is one bare ``np.linalg.eigh(x)``, which reads only the lower
triangle of x, so x is never symmetrised; the shadow as one Gram product
``B B^H`` with ``B = V sqrt(max(w, 0))``; the closed-form ``P_A(y)``; and an
in-place update of x.  The witness is symmetrised once, when it is returned.
At n = 16 (one BLAS thread, a shared 2-core Xeon) an iteration took 65-160 us
with load, about three quarters of it in ``eigh``.  A Newton step took 0.57 ms
there, 1.9 ms at (2,3,2,3), 5.0 ms at (3,2,3,2) and 29 ms at (3,3,3,3) (n = 81);
with ``inv(L)``, W in place of S and fresh temporaries, 0.63, 2.1, 5.3 and 32 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from .config import DEFAULTS, resolve
from .linalg import cholesky, herm_eig

if TYPE_CHECKING:
    from .supermaps import Superchannel

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNDETERMINED = "undetermined"

# How the Newton phase ended (``FeasibilityReport.newton_exit``); "" when it
# did not run.
STRICT = "strict"
SHADOW = "shadow"
CERTIFICATE = "certificate"
NONE = "none"
# Newton phase: the share of the longest step to the cone's boundary that a
# step takes, and a step budget should the method stall.
_STEP_FRACTION = 0.98
_NEWTON_STEP_CAP = 200


@dataclass(frozen=True)
class Directions:
    """The directions of an extension set, in matrix coordinates.

    A direction is ``Z (x) I_r / sqrt(r)`` on ``C^d (x) C^r (x) C^k``, for
    Hermitian Z on ``C^d (x) C^k`` with ``Tr_d Z = 0`` (and ``Tr_k Z = 0`` with
    ``tp``), and ``Z = (V + V^T)/2 + i (V - V^T)/2`` for a real N x N matrix
    V, N = d k.  The coordinates are V's ``free`` entries: all but its last
    d-diagonal block and, with ``tp``, each block's last k-diagonal entry;
    the map E fills those from the trace conditions.  They are not
    orthonormal; ``coords`` is the adjoint of ``combine``.
    """

    d: int
    k: int
    r: int
    tp: bool
    free: np.ndarray = field(init=False, repr=False, compare=False)
    lift: np.ndarray = field(init=False, repr=False, compare=False)
    size: int = field(init=False)

    def __post_init__(self):
        keep = np.ones((self.d, self.k, self.d, self.k), dtype=bool)
        keep[-1, :, -1, :] = False
        if self.tp:
            keep[:, -1, :, -1] = False
        object.__setattr__(self, "free", np.flatnonzero(keep))
        object.__setattr__(self, "lift", np.eye(self.r)[:, None, None, :, None] / 2 / self.r ** .5)
        object.__setattr__(self, "size", self.free.size)

    def _reduce(self, v: np.ndarray, axis: int = 0, out: np.ndarray | None = None) -> np.ndarray:
        """``E^T`` on the N^2 axis ``axis`` (0 or 1) of ``v``, which it overwrites; into ``out``."""
        d, k, u = self.d, self.k, v if axis == 0 else v.T
        t = u.reshape((d, k, d, k) + u.shape[1:])
        for p in range(d - 1):
            t[p, :, p] -= t[-1, :, -1]
        if self.tp:
            t[:, np.arange(k - 1), :, np.arange(k - 1)] -= t[:, -1, :, -1]
        return np.take(v, self.free, axis=axis, out=out, mode="clip")  # the indices are valid

    def combine(self, z: np.ndarray) -> np.ndarray:
        """The direction with coordinates ``z``: the lift of Z for ``V = E z``."""
        d, k, r = self.d, self.k, self.r
        v = np.zeros((d, k, d, k))
        v.reshape(-1)[self.free] = z
        if self.tp:
            v[:, -1, :, -1] -= v.trace(axis1=1, axis2=3)
        for p in range(d - 1):
            v[-1, :, -1] -= v[p, :, p]
        v = v.reshape(d * k, d * k)
        herm = np.empty(v.shape, dtype=complex)
        np.add(v, v.T, out=herm.real)
        np.subtract(v, v.T, out=herm.imag)
        return (herm.reshape(d, 1, k, d, 1, k) * self.lift).reshape(d * r * k, -1)

    def coords(self, m: np.ndarray) -> np.ndarray:
        """``Re Tr(combine(e_a) m)`` for every coordinate a: ``E^T`` of
        ``(Re(Y + Y^T) + Im(Y - Y^T)) / (2 sqrt(r))`` with ``Y = Tr_r m``."""
        d, k, r = self.d, self.k, self.r
        y = m.reshape(d, r, k, d, r, k).trace(axis1=1, axis2=4).reshape(d * k, d * k)
        c = (0.5 - 0.5j) / r ** .5  # Re(c Y + conj(c) Y^T), the real form above
        return self._reduce((c * y + c.conjugate() * y.T).real.reshape(-1))

    def hessian(self, g: np.ndarray, extra: np.ndarray | None = None) -> np.ndarray:
        """The matrix ``Re Tr(G combine(e_a) G combine(e_b))`` for Hermitian G;
        with ``extra``, a real N x N V, bordered by V's lift ``Z (x) I_r``.

        With ``G_st`` the N x N blocks of G over the middle factor, the form
        on Z is ``sum K[j, k, l, i] Z1[j, k] Z2[l, i]`` for ``K[j, k, l, i] =
        (1/r) sum_st G_st[i, j] G_ts[k, l]``, one Gram product over the ``r^2``
        block pairs.  On V it is ``(Re KP + Re PK - Im K + Im PKP) / 2`` for
        the index transposition P.  G is Hermitian, so PKP is K's conjugate
        and PK is KP's: ``H = Re KP - Im K``, two views subtracted into one
        array, and E gives E^T H E; the 1/r is applied to that, once.
        """
        d, k, r, nn, m = self.d, self.k, self.r, self.d * self.k, self.size
        blocks = g.reshape(d, r, k, d, r, k).transpose(1, 4, 0, 2, 3, 5).reshape(r, r, nn * nn)
        q4 = blocks.reshape(r * r, -1).T @ blocks.transpose(1, 0, 2).reshape(r * r, -1)
        kk, h = q4.reshape((nn,) * 4), np.empty((nn,) * 4)
        np.subtract(kk.real.transpose(1, 2, 0, 3), kk.imag.transpose(1, 2, 3, 0), h)
        h, s = h.reshape(q4.shape), np.empty((m, m) if extra is None else (m + 1, m + 1))
        if extra is not None:  # the corner before _reduce overwrites h
            s[-1, -1] = 2 * r * ((vec := extra.reshape(-1)) @ h @ vec)
        # H E into q4's memory, then E^T H E into h's: each is spent by then
        cols = self._reduce(h, 1, q4.view(float).reshape(-1)[:len(h) * m].reshape(len(h), m))
        if extra is not None:  # (H E)^T V for E^T H V: s is symmetrised below
            s[:-1, -1] = s[-1, :-1] = 2 * r ** .5 * (vec @ cols)
        inner = self._reduce(cols, out=h.reshape(-1)[:m * m].reshape(m, m))
        np.add(inner, inner.T, out=s[:m, :m])
        return np.multiply(s, 0.5 / r, out=s)


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
    ``directions`` writes the set's directions in coordinates, for the
    Newton phase.
    """

    project: Callable[[np.ndarray], np.ndarray]
    anchor: np.ndarray
    residual: Callable[[np.ndarray], float]
    row_bound: float
    rhs_scale: float
    directions: Directions

    @cached_property
    def origin(self) -> np.ndarray:  # project(0), once: K W = project(W) - origin
        return self.project(np.zeros_like(self.anchor))


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


@dataclass(frozen=True, kw_only=True)
class FeasibilityReport:
    """Outcome of an extension search, from ``solve`` and ``extend_action``.

    ``witness`` is the PSD point found: a Hermitian matrix from ``solve``, a
    ``Superchannel`` from ``extend_action``.  Without one, ``certificate`` is
    the last displacement checked (at iterations 1, 2, 4, 8, ...) or the
    Newton phase's dual matrix; it proves infeasibility only when its margin
    is negative.  ``newton_after`` is the iteration that starts the Newton
    phase (``newton_after(m)``), ``newton_steps`` counts the phase's steps
    and ``newton_exit`` records how it ended: ``STRICT`` or ``SHADOW`` with a
    witness, ``CERTIFICATE`` with a certificate, ``NONE`` without either, ""
    when it did not run.  A verdict found there comes with ``iterations ==
    newton_after``.  The fields other than ``witness`` and ``certificate``
    are scalars; their declaration order is the order of the JSON keys and
    of the CLI findings.
    """

    status: str
    iterations: int
    newton_after: int
    newton_steps: int = 0
    newton_exit: str = ""
    gap: float
    affine_residual: float
    psd_residual: float
    witness: np.ndarray | Superchannel | None = None
    certificate: Certificate | None = None


def certificate(affine: AffineSet, y: np.ndarray, py: np.ndarray) -> Certificate:
    """The displacement ``y - P_A(y)`` as a candidate Farkas certificate.

    Its kernel part ``K W = P_A(W) - P_A(0)`` is removed, and what rounding
    leaves of it, with the rounding of the other two terms, is charged to
    the margin.
    """
    project, anchor = affine.project, affine.anchor
    w = y - py
    w = w - (project(w) - affine.origin)
    t = float(np.trace(anchor).real)
    lam_min = float(np.linalg.eigvalsh(w)[0])
    residue = float(np.linalg.norm(project(w) - affine.origin)
                    + w.shape[0] ** 2 * np.finfo(float).eps * np.linalg.norm(w))
    return Certificate(w,
                       float(np.vdot(w, anchor).real),
                       max(0.0, -lam_min) * t,
                       residue * (t + float(np.linalg.norm(anchor))))


def _shadow(x: np.ndarray) -> np.ndarray:
    """The PSD part of x as one Gram product ``B B^H``, ``B = V sqrt(max(w, 0))``
    from a bare ``eigh`` of x's lower triangle; PSD, not exactly Hermitian."""
    w, v = np.linalg.eigh(x)
    b = v * np.sqrt(np.maximum(w, 0.0))
    return b @ b.conj().T


def newton_after(m: int) -> int:
    """The DR iteration after which a run without a verdict runs the Newton
    phase, for ``m`` directions: 4 up to 64 directions, where the phase costs
    about what DR spends on the sets it ends soonest, and above the first
    power of two at or above ``m`` (128 at (2,3,2,3), 1,024 at (3,3,3,3)),
    after that iteration's certificate check."""
    return 4 if m <= 64 else 1 << (m - 1).bit_length()


def newton_phase(affine: AffineSet, start: np.ndarray | None = None
                 ) -> tuple[np.ndarray | Certificate | None, str, int,
                            tuple[float, np.ndarray] | None, float | None]:
    """A witness of the affine set, or a certificate that it misses the cone,
    by a primal-dual interior-point method.

    The primal maximises t subject to ``S = W - t E >= 0`` over ``W = start
    + combine(z)`` (``affine.directions``, z real); the dual minimises
    ``<anchor, X>`` over ``X >= 0`` with ``<E, X> = 1`` and ``coords(X) = 0``,
    so every dual point bounds the best t.  The unit is ``E = I (x) M`` on
    ``C^{dr} (x) C^k`` for ``M = Tr_{dr}(anchor) k / Tr(anchor)``, so ``Tr E =
    n``: every direction has ``Tr_{dr} = 0``, so every point W of the set has
    ``Tr_{dr} W = Tr_{dr}(anchor)``.  For v in the kernel of a singular M,
    ``sum_i <e_i (x) v, W e_i (x) v> = <v, Tr_{dr}(W) v> = 0``, so a PSD W has
    a kernel: no point is positive definite.  E is then I, as it is whenever
    ``lambda_min(M) <= sqrt(affine_tol) lambda_max(M)``: S and X carry E's
    condition number, and at 1e6 it stalled the phase on sets that ``E = I``
    ends in 5 steps (at 1e4 none).  Both
    start feasible: W at ``start``, an affine point (the anchor by default),
    with t below its spectrum relative to E by ``Tr(anchor)/n``, and ``X =
    E^-1/n``.  A step is Mehrotra's predictor-corrector under Nesterov-Todd
    scaling (Todd, Toh & Tutuncu, SIAM J. Optim. 1998), with the Schur
    complement ``Tr(G A_i G A_j)`` over ``A = (combine(e_a), -E)``
    (``hessian``) at the scaling matrix G (``G S G = X``); each matrix moves
    ``_STEP_FRACTION`` of the way to the cone's boundary, at most a full step.
    Returns ``(found, kind, steps, dual, residual)``, ``dual`` the last ``(t,
    X)`` less the part along the directions that rounding leaves in X; a
    witness passes the affine rule ``residual <= affine_tol * rhs_scale``
    (``thr``), and ``residual`` is its residual (None without a witness).

    * ``STRICT``: ``t`` clears the floor ``4 (n+1) eps Tr(anchor) /
      lambda_min(E)`` and a Cholesky factorisation of ``W - (t/2) E``
      succeeds.  Its backward error is at most about ``(n+1) eps/2`` times
      its trace, below ``Tr(anchor)`` (Demmel 1989; Rump, BIT 2006); the floor
      leaves a factor of four for complex arithmetic and the shift, so
      ``lambda_min(W) >= lambda_min(E) (t - floor)/2 > 0``.  Checked first.
    * ``SHADOW``: with ``<anchor, X> < thr`` no W of the set has ``W >= thr E``,
      so the set is that thin (a single point, say).  W's PSD shadow
      (``_shadow``, as DR forms it) is returned once it passes the rule.
    * ``CERTIFICATE``: with ``<anchor, X> < 0``, X is checked by the rule
      DR's displacements pass, ``certificate(affine, X, 0)``, and returned
      once its margin is negative.
    * ``NONE``: when the gap ``<anchor, X> - t`` falls below the floor, S
      stops factorising, X or the Schur complement turns singular, or after
      ``_NEWTON_STEP_CAP`` steps; ``(None, NONE, 0, None, None)`` when the trace is
      not positive or S does not factorise at the start (its least eigenvalue
      relative to E, ``Tr(anchor)/n``, can lie within ``||start||``'s rounding).
    """
    dirs, anchor = affine.directions, affine.anchor
    n, m, k = anchor.shape[0], dirs.size, dirs.k
    trace = float(np.trace(anchor).real)
    if trace <= 0:  # a positive definite point has a positive trace
        return None, NONE, 0, None, None
    thr = DEFAULTS.affine_tol * affine.rhs_scale

    def eye_kron(p: int, a: np.ndarray) -> np.ndarray:  # I_p (x) a for k x k a
        return (np.eye(p)[:, None, :, None] * a[:, None, :]).reshape(p * k, p * k)

    marg = anchor.reshape(n // k, k, n // k, k).trace(axis1=0, axis2=2) * (k / trace)
    mw, mv = np.linalg.eigh(marg)
    if mw[0] <= np.sqrt(DEFAULTS.affine_tol) * mw[-1]:  # E = I
        marg, mw, mv = np.eye(k), np.ones(k), np.eye(k)
    e, f = eye_kron(n // k, marg), eye_kron(n // k, (mv / np.sqrt(mw)) @ mv.conj().T)  # F = E^-1/2
    x = eye_kron(n // k, (mv / (n * mw)) @ mv.conj().T)  # E^-1/n, from M's eigh like F
    border = -eye_kron(dirs.d, marg.real + marg.imag)  # -V for Z = I_d (x) M, which lifts to E
    floor = 4 * (n + 1) * np.finfo(float).eps * trace / mw[0]
    w = anchor if start is None else (start + start.conj().T) / 2
    t = float(np.linalg.eigvalsh(f @ w @ f)[0]) - trace / n
    low = cholesky(s := w - t * e)  # the phase carries S = W - t E; exits form W
    if low is None:
        return None, NONE, 0, None, None
    unit, rhs, found, kind, residual = np.eye(1, m + 1, m)[0], np.empty(m + 1), None, NONE, None
    for step in range(1, _NEWTON_STEP_CAP + 1):
        # R = L^-H Q diag(sqrt(lam)) for S = L L^H and L^H X L = Q diag(lam^2) Q^H
        # scales both matrices to diag(lam): R^H S R = R^-1 X R^-H; G = R R^H
        lam2, q = np.linalg.eigh((lowh := low.conj().T) @ x @ low)
        if lam2[0] <= 0:
            break
        lam, quart = np.sqrt(lam2), lam2 ** 0.25
        root, r = np.multiply.outer(quart, quart), np.linalg.solve(lowh, q * quart)
        rh = r.conj().T
        schur = dirs.hessian(r @ rh, border).T  # exactly symmetric: .T is solve's column order

        def direction(rhs: np.ndarray):
            """The step dy for ``rhs``, S's step and its scaled step ``R^H dS R``."""
            dy = np.linalg.solve(schur, rhs)
            dsw = dirs.combine(dy[:m]) - dy[m] * e
            return dy, dsw, rh @ dsw @ r

        try:
            # the predictor's target -diag(lam^2) gives d = -diag(lam), and
            # R diag(lam) R^H = X, so its right-hand side is the unit vector;
            # dx = -diag(lam) - ds, so both its steps come from ds's spectrum
            _, _, ds = direction(unit)
            (dx := -ds).flat[::n + 1] -= lam
            spectrum = np.linalg.eigvalsh(ds / root)
            step_s, step_x = 1 / max(1.0, -spectrum[0]), 1 / max(1.0, 1 + spectrum[-1])
            # n mu and n affine mu, <diag(lam) + a dx, diag(lam) + b ds>; d solves
            # (diag(lam) d + d diag(lam))/2 = sigma mu I - diag(lam^2) - (dx ds + ds dx)/2
            mu, cross = lam2.sum(), dx @ ds
            affine_mu = (mu + lam @ (step_s * ds.diagonal().real + step_x * dx.diagonal().real)
                         + step_s * step_x * np.vdot(dx, ds).real)
            d = -(cross + cross.conj().T) / np.add.outer(lam, lam)
            d.flat[::n + 1] += ((affine_mu / mu) ** 3 * mu / n - lam2) / lam
            y = x + r @ d @ rh
            rhs[:m], rhs[m] = dirs.coords(y), 1 - np.vdot(e, y).real
            dy, dsw, ds = direction(rhs)
        except np.linalg.LinAlgError:
            break
        # _STEP_FRACTION of the longest steps keeping diag(lam) + a ds, + a dx PSD, at most 1
        lowest = np.linalg.eigvalsh(np.stack((ds, dx := d - ds)) / root)[:, 0].tolist()
        step_s, step_x = (_STEP_FRACTION / max(_STEP_FRACTION, -v) for v in lowest)
        s, t = s + step_s * dsw, t + step_s * float(dy[m])
        x = x + step_x * (r @ dx @ rh)
        x += x.conj().T
        x /= np.vdot(e, x).real  # the step keeps <E, X> = 1 only up to rounding
        low = cholesky(s)
        if low is None:
            break
        if t > floor and cholesky((point := s + t * e) - t / 2 * e) is not None:
            if (res := affine.residual(point)) <= thr:
                found, kind, residual = point, STRICT, res
            break
        bound = float(np.vdot(x, anchor).real)
        if bound < thr:
            shadow = _shadow(s + t * e)
            shadow = (shadow + shadow.conj().T) / 2
            if (res := affine.residual(shadow)) <= thr:
                found, kind, residual = shadow, SHADOW, res
                break
        if bound < 0:
            cert = certificate(affine, x, 0)
            if cert.margin < 0:
                found, kind = cert, CERTIFICATE
                break
        if bound - t < floor:
            break
    # rounding leaves X a part along the directions that grows with G's condition
    return found, kind, step, (t, x - affine.project(x) + affine.origin), residual


def solve(affine: AffineSet,
          seed_point: np.ndarray | None = None,
          max_iter: int | None = None) -> FeasibilityReport:
    """Search the intersection of an affine set with the PSD cone.

    Starts from the affine projection of ``seed_point`` (from the anchor, the
    minimum-norm affine point, by default).  Reports ``feasible`` with the
    PSD shadow as witness once its affine residual drops below tolerance,
    ``infeasible`` once the displacement checks as a certificate (checked
    at iterations 1, 2, 4, 8, ...), and ``undetermined`` at the iteration
    cap.  With a cap of at least ``2 newton_after(m)`` for the set's ``m``
    directions, a run without a verdict at that iteration first runs
    ``newton_phase``; if it returns neither a witness nor a certificate, the
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
    switch = newton_after(affine.directions.size)
    phase = {"newton_after": switch}

    for it in range(1, max_iter + 1):
        y = _shadow(x)
        py = project(y)
        gap = float(np.linalg.norm(y - py))

        # y is PSD exactly; accept it once its affine residual qualifies.
        if affine.row_bound * gap <= 2 * affine_thr or gap <= affine_thr:
            affine_res = affine.residual(y)
            if affine_res <= affine_thr:
                return FeasibilityReport(status=FEASIBLE, iterations=it, gap=gap,
                                         affine_residual=affine_res, psd_residual=0.0,
                                         witness=(y + y.conj().T) / 2, **phase)
        if it & (it - 1) == 0:  # it is a power of two
            cert = certificate(affine, y, py)
            if it == switch and max_iter >= 2 * switch and cert.margin >= 0:
                found, phase["newton_exit"], phase["newton_steps"], _, res = newton_phase(
                    affine, py)
                if isinstance(found, Certificate):
                    cert = found
                elif found is not None:
                    return FeasibilityReport(status=FEASIBLE, iterations=it,
                                             gap=float(np.linalg.norm(found - project(found))),
                                             affine_residual=res,
                                             psd_residual=0.0, witness=found, **phase)
            if cert.margin < 0:
                return FeasibilityReport(status=INFEASIBLE, iterations=it, gap=gap,
                                         affine_residual=affine.residual(y), psd_residual=gap,
                                         certificate=cert, **phase)
        x += py
        x += py
        x -= px
        x -= y
        px = py

    w, _ = herm_eig(py)
    return FeasibilityReport(status=UNDETERMINED, iterations=max_iter, gap=gap,
                             affine_residual=0.0, psd_residual=float(max(0.0, -w[-1])),
                             certificate=cert, **phase)
