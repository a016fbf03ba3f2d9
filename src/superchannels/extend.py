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
and the two commute.  The search runs Dykstra-corrected alternating
projections between the affine set and the cone; infeasibility is reported
with a numeric gap estimate, never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import feasibility
from .config import DEFAULTS, resolve
from .feasibility import FEASIBLE, AffineSet
from .opsys import span_basis, span_dim, span_membership
from .supermaps import Superchannel, apply_superchannel, aux_dim


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
    """Outcome of an extension search."""

    status: str
    witness: Superchannel | None
    gap: float
    iterations: int
    affine_residual: float
    psd_residual: float
    gap_history: list[float] = field(default_factory=list)


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
    images = tuple(apply_superchannel(sc, x) for x in span_basis(sc.d1, sc.r1))
    return SpanAction(sc.d1, sc.r1, sc.d2, sc.r2, images)


def validate_action(action: SpanAction, tol: float | None = None) -> None:
    """Check that the images sit in the target span with matching scales."""
    tol = resolve(tol, DEFAULTS.rel_tol)
    basis = span_basis(action.d1, action.r1)
    for x, y in zip(basis, action.images):
        lam = span_membership(x, action.d1, action.r1, tol).scale
        mem = span_membership(y, action.d2, action.r2, tol)
        if not mem.member:
            raise ValueError("an image leaves the target channel span")
        if abs(mem.scale - lam) > tol * max(1.0, abs(lam)):
            raise ValueError("an image breaks the trace-scaling factor")


def affine_set(action: SpanAction, trace_preserving: bool = False) -> AffineSet:
    """The supermap Choi matrices that reproduce ``action``, with their projection.

    With ``trace_preserving`` the set also asks ``Tr_{n2} C = I``.  The
    anchor is the Hermitian part of the minimum-norm extension ``x0`` (see
    the module docstring).  It misses the set, and the solver reports the
    system inconsistent, when the action does not commute with the adjoint
    or breaks trace preservation.
    """
    d1, r1 = action.d1, action.r1
    n1, n2 = d1 * r1, action.d2 * action.r2
    n = n1 * n2
    m = span_dim(d1, r1)
    xs = np.array(span_basis(d1, r1)).reshape(m, n1 * n1)
    ys = np.array(action.images).reshape(m, n2 * n2)
    x0 = (xs.conj().T @ ys).reshape(n1, n1, n2, n2).transpose(0, 2, 1, 3).reshape(n, n)
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
        c4 = c.reshape(n1, n2, n1, n2)
        images = xs @ c4.transpose(0, 2, 1, 3).reshape(n1 * n1, n2 * n2)
        diffs = [(images - ys).ravel()]
        if trace_preserving:
            diffs.append((c4.trace(axis1=1, axis2=3) - np.eye(n1)).ravel())
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
    )


def extend_action(action: SpanAction,
                  seed_point=None,
                  trace_preserving: bool = False,
                  max_iter: int | None = None,
                  **solver_kwargs) -> FeasibilityReport:
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
                            max_iter=max_iter, **solver_kwargs)
    witness = None
    if res.status == FEASIBLE:
        witness = Superchannel(action.d1, action.r1, action.d2, action.r2, res.point)
    return FeasibilityReport(res.status, witness, res.gap, res.iterations,
                             res.affine_residual, res.psd_residual, res.gap_history)


def tp_extension(action: SpanAction, **kwargs) -> FeasibilityReport:
    """Search for a trace-preserving CP extension."""
    return extend_action(action, trace_preserving=True, **kwargs)


def extension_spread(action: SpanAction, seeds, eps: float | None = None,
                     **solver_kwargs) -> SpreadReport:
    """Sweep extension searches over seeds and report the aux-dimension range.

    Midpoints of every witness pair are included, exploiting convexity of
    the extension set.
    """
    witnesses: list[Superchannel] = []
    for seed in seeds:
        report = extend_action(action, seed_point=seed, **solver_kwargs)
        if report.status == FEASIBLE and report.witness is not None:
            witnesses.append(report.witness)
    if not witnesses:
        raise ValueError("no feasible extension found from the given seeds")
    for a, b in combinations(list(witnesses), 2):
        mid = (a.choi + b.choi) / 2
        witnesses.append(Superchannel(action.d1, action.r1, action.d2, action.r2, mid))
    dims = tuple(aux_dim(w, eps) for w in witnesses)
    return SpreadReport(min(dims), max(dims), tuple(witnesses), dims)
