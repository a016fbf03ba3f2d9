"""CP supermap extensions of a map given only on the channel span.

A map defined on the span S of channel Choi matrices extends to a supermap
exactly when the PSD cone meets the affine set of supermap Choi matrices
that reproduce the given images.  That set has a closed form.  The supermaps
vanishing on S have Choi matrices in ``S^perp (x) M_{n2}``, where
``S^perp = {A (x) I_{r1} : Tr A = 0}``, and the minimum-norm extension is
``x0 = sum_k conj(x_k) (x) y_k`` over the canonical orthonormal basis
``x_k`` of S with images ``y_k``.  Projecting onto the set therefore takes a
partial trace over r1, removes the d1 trace and tensors ``I_{r1}/r1`` back;
trace preservation adds the projection that acts on the output factor only,
and the two commute.  The same description gives the set's directions an
orthonormal basis in closed form, ``A (x) I_{r1}/sqrt(r1) (x) H`` with A
running over a traceless Hermitian basis on d1 and H over a Hermitian basis
on n2 (traceless under trace preservation): ``(d1^2 - 1) n2^2`` directions,
or ``(d1^2 - 1)(n2^2 - 1)``.

The search runs Douglas-Rachford splitting between the affine set and the
cone (``feasibility.solve``): "feasible" comes with a PSD witness, and
"infeasible" only with a Farkas certificate that checks at one of the
iterations 1, 2, 4, 8, ...  A search still open after iteration 1,024 runs
one barrier Newton phase over the directions basis; it either returns a
witness that a Cholesky factorisation proves positive definite, or leaves
the DR run to go on exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import feasibility
from .feasibility import FEASIBLE, AffineSet, Certificate, Directions
from .linalg import hermitian_basis
from .opsys import span_basis, span_dim
from .supermaps import Superchannel, aux_dim, preserves_span, span_images


@dataclass(frozen=True)
class SpanAction:
    """A linear map recorded by its images on the canonical span basis.

    ``images[k]`` is the (d2 r2) x (d2 r2) image of the k-th canonical basis
    element of the channel span inside M_{d1}(M_{r1}).
    """

    d1: int
    r1: int
    d2: int
    r2: int
    images: tuple

    def __post_init__(self):
        expected = span_dim(self.d1, self.r1)
        images = tuple(np.asarray(m, dtype=complex) for m in self.images)
        if len(images) != expected:
            raise ValueError(f"{len(images)} images given, the canonical basis has {expected}")
        n2 = self.d2 * self.r2
        for m in images:
            if m.shape != (n2, n2):
                raise ValueError(f"image shape {m.shape}, expected ({n2}, {n2})")
        object.__setattr__(self, "images", images)


@dataclass
class FeasibilityReport:
    """Outcome of an extension search.

    Without a witness, ``certificate`` is the last displacement checked as
    a Farkas certificate (at iterations 1, 2, 4, 8, ...); it proves
    infeasibility when its margin is negative.  ``newton_steps`` counts the
    steps of the solver's Newton phase, 0 when it did not run.
    """

    status: str
    witness: Superchannel | None
    gap: float
    iterations: int
    affine_residual: float
    psd_residual: float
    gap_history: list[float] = field(default_factory=list)
    certificate: Certificate | None = None
    newton_steps: int = 0


@dataclass(frozen=True)
class SpreadReport:
    """Range of auxiliary dimensions seen over a family of found extensions.

    ``min_e`` is only an upper bound on the true minimum; the search is a
    heuristic sweep over seeds and pairwise midpoints, not an enumeration.
    """

    min_e: int
    max_e: int
    witnesses: tuple
    aux_dims: tuple


def restrict_superchannel(sc: Superchannel) -> SpanAction:
    """Record the action of a supermap on the canonical span basis."""
    return SpanAction(sc.d1, sc.r1, sc.d2, sc.r2, tuple(span_images(sc.choi, sc.dims)))


def min_norm_extension(action: SpanAction) -> np.ndarray:
    """The minimum-norm supermap Choi matrix ``x0`` reproducing the action; it is
    Hermitian only when the action commutes with the adjoint."""
    n1, n2 = action.d1 * action.r1, action.d2 * action.r2
    xs = np.array(span_basis(action.d1, action.r1)).reshape(-1, n1 * n1)
    ys = np.array(action.images).reshape(-1, n2 * n2)
    x0 = (xs.conj().T @ ys).reshape(n1, n1, n2, n2).transpose(0, 2, 1, 3)
    return x0.reshape(n1 * n2, n1 * n2)


def validate_action(action: SpanAction, tol: float | None = None) -> None:
    """Check that the images sit in the target span with matching scales:
    ``preserves_span`` of the minimum-norm extension, exact because the span
    residuals depend only on the restriction."""
    dims = (action.d1, action.r1, action.d2, action.r2)
    if not preserves_span(min_norm_extension(action), dims, tol):
        raise ValueError("the images leave the target channel span or break "
                         "the trace-scaling factor")


def affine_set(action: SpanAction, trace_preserving: bool = False) -> AffineSet:
    """The supermap Choi matrices that reproduce ``action``, with their
    projection and an orthonormal basis of their directions.

    With ``trace_preserving`` the set also asks ``Tr_{n2} C = I``.  The
    anchor is the Hermitian part of the minimum-norm extension ``x0`` (see
    the module docstring).  It misses the set, and the solver reports the
    system inconsistent, when the action does not commute with the adjoint
    or breaks trace preservation.
    """
    d1, r1 = action.d1, action.r1
    n1, n2 = d1 * r1, action.d2 * action.r2
    n = n1 * n2
    ys = np.array(action.images)
    x0 = min_norm_extension(action)
    anchor = (x0 + x0.conj().T) / 2
    eye_d1 = np.eye(d1)[:, None, :, None] / d1
    eye_n2 = np.eye(n2)[None, :, None, :] / n2
    eye_r1 = (np.eye(r1) / r1)[None, :, None, None, :, None]

    def kernel(c: np.ndarray) -> np.ndarray:
        # orthogonal projection onto the supermaps vanishing on the span (and
        # on the trace, with TP); t is indexed (d1, n2, d1, n2)
        t = c.reshape(d1, r1, n2, d1, r1, n2).trace(axis1=1, axis2=4)
        if trace_preserving:
            t = t - t.trace(axis1=1, axis2=3)[:, None, :, None] * eye_n2
        t = t - eye_d1 * t.trace(axis1=0, axis2=2)[None, :, None, :]
        return (t[:, None, :, :, None, :] * eye_r1).reshape(n, n)

    def residual(c: np.ndarray) -> float:
        diffs = [(span_images(c, (d1, r1, action.d2, action.r2)) - ys).ravel()]
        if trace_preserving:
            tr = c.reshape(n1, n2, n1, n2).trace(axis1=1, axis2=3)
            diffs.append((tr - np.eye(n1)).ravel())
        diff = np.concatenate(diffs)
        return float(max(np.max(np.abs(diff.real)), np.max(np.abs(diff.imag))))

    # P(C) = anchor + K(C - anchor), with K(anchor) (zero in exact arithmetic)
    # folded into the offset
    offset = anchor - kernel(anchor)
    return AffineSet(
        project=lambda c: offset + kernel(c),
        anchor=anchor,
        residual=residual,
        # a span row has the norm of a basis element, 1; a TP diagonal row
        # sums n2 diagonal entries
        row_bound=float(np.sqrt(n2)) if trace_preserving else 1.0,
        rhs_scale=max(1.0, float(np.max(np.abs(ys.real))), float(np.max(np.abs(ys.imag)))),
        directions=Directions(hermitian_basis(d1, traceless=True),
                              hermitian_basis(n2, traceless=trace_preserving), r1),
    )


def extend_action(action: SpanAction,
                  seed_point=None,
                  trace_preserving: bool = False,
                  max_iter: int | None = None) -> FeasibilityReport:
    """Search for a CP supermap extension of the recorded action.

    The affine set fixes the image of every canonical basis element (plus
    full trace preservation when ``trace_preserving``); the other set is the
    PSD cone.  ``seed_point`` may be a Hermitian matrix or a Superchannel;
    by default the iteration starts from the minimum-norm affine point.
    """
    validate_action(action)
    if isinstance(seed_point, Superchannel):
        seed_point = seed_point.choi
    res = feasibility.solve(affine_set(action, trace_preserving), seed_point=seed_point,
                            max_iter=max_iter)
    witness = None
    if res.status == FEASIBLE:
        witness = Superchannel(action.d1, action.r1, action.d2, action.r2, res.point)
    return FeasibilityReport(res.status, witness, res.gap, res.iterations,
                             res.affine_residual, res.psd_residual, res.gap_history,
                             res.certificate, res.newton_steps)


def tp_extension(action: SpanAction, **kwargs) -> FeasibilityReport:
    """Search for a trace-preserving CP extension."""
    return extend_action(action, trace_preserving=True, **kwargs)


def extension_spread(action: SpanAction, seeds, eps: float | None = None) -> SpreadReport:
    """Sweep extension searches over seeds and report the aux-dimension range.

    Midpoints of every witness pair are included, exploiting convexity of
    the extension set.
    """
    witnesses: list[Superchannel] = []
    for seed in seeds:
        report = extend_action(action, seed_point=seed)
        if report.status == FEASIBLE and report.witness is not None:
            witnesses.append(report.witness)
    if not witnesses:
        raise ValueError("no feasible extension found from the given seeds")
    for a, b in combinations(list(witnesses), 2):
        mid = (a.choi + b.choi) / 2
        witnesses.append(Superchannel(action.d1, action.r1, action.d2, action.r2, mid))
    dims = tuple(aux_dim(w, eps) for w in witnesses)
    return SpreadReport(min(dims), max(dims), tuple(witnesses), dims)
