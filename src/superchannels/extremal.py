"""Extreme-point tests for constrained completely positive maps.

The classes considered fix a CP map on a subspace of the input algebra and
fix its dual on a subspace of the output algebra.  The Kraus set A_a of
``kraus_from_choi`` is linearly independent by construction (its Gram matrix
is diag(w), every Choi eigenvalue w above the ``psd_support`` cut).  A
coefficient matrix lam moves the map to X -> phi(X) + sum lam_ab A_a X
A_b^dagger, and that move stays inside the class exactly when lam is in the
null space of the pair rows below.  The map is extreme exactly when that null
space is trivial (Choi, Linear Algebra Appl. 10, 1975, Thm. 5; Landau &
Streater, Linear Algebra Appl. 193, 1993).  ``extremality`` decides this with
one null-space computation and, when the map is not extreme, returns the two
CP maps of the class it is the midpoint of, checked directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelChoi,
    apply_choi,
    dual_channel,
    is_cp,
    is_tp,
    is_unital,
    kraus_from_choi,
)
from .config import DEFAULTS, resolve
from .linalg import frob, is_hermitian, null_space, rel_scale
from .opsys import hermitian_span, span_basis


@dataclass(frozen=True)
class ConstraintSpaces:
    """Hermitian spanning sets of the two constraint subspaces.

    ``s_basis`` spans the input-side subspace on which the map is pinned;
    ``t_basis`` spans the output-side subspace on which its dual is pinned.
    Either may be empty.  Spanning is enough, independence is not required.
    """

    s_basis: tuple = ()
    t_basis: tuple = ()

    def __post_init__(self):
        s = tuple(np.asarray(m, dtype=complex) for m in self.s_basis)
        t = tuple(np.asarray(m, dtype=complex) for m in self.t_basis)
        for m in s + t:
            if not is_hermitian(m):
                raise ValueError("spanning sets must consist of Hermitian matrices")
        object.__setattr__(self, "s_basis", s)
        object.__setattr__(self, "t_basis", t)


def _pair_rows(v_ops, s_mats, t_mats) -> np.ndarray:
    """Row (i, j) concatenates vec(V_i^* A_k V_j) over k with vec(V_j B_l V_i^*) over l."""
    v = np.array(v_ops)
    n, d, r = v.shape
    vh = v.conj().transpose(0, 2, 1)
    # broadcast products over (i, j, k): einsum's dispatch costs more than the
    # whole product on the few-operator maps the CLI sees
    left = (vh[:, None, None] @ np.reshape(s_mats, (-1, d, d))) @ v[None, :, None]
    right = (v[None, :, None] @ np.reshape(t_mats, (-1, r, r))) @ vh[:, None, None]
    return np.concatenate([left.reshape(n, n, -1), right.reshape(n, n, -1)],
                          axis=2).reshape(n * n, -1)


@dataclass(frozen=True)
class Extremality:
    """Verdict of ``extremality``.  A map that is not extreme carries ``pair``,
    two CP maps of its class, each different from it, whose midpoint it is."""

    extreme: bool
    pair: tuple[ChannelChoi, ChannelChoi] | None = None


def extremality(phi: ChannelChoi, spaces: ConstraintSpaces,
                tol: float | None = None) -> Extremality:
    """Extremality among CP maps pinned on the given constraint subspaces.

    With a minimal Kraus family V_i and spanning sets A_k, B_l, the map is
    extreme exactly when the families (V_i^* A_k V_j)_k + (V_j B_l V_i^*)_l,
    one per pair (i, j), are linearly independent, i.e. when no coefficient
    matrix lam annihilates them (``linalg.null_space`` at ``tol``).  The
    decision is basis independent: any Hermitian spanning sets of the same
    subspaces give the same verdict.  Otherwise a null vector, made
    Hermitian and scaled to operator norm 1/2, gives the pair phi +- W^T lam
    W^*, PSD by construction, which is checked CP and pinned at
    ``DEFAULTS.equal_tol`` before it is returned; a failed check raises
    ``ArithmeticError``.  A spanning matrix of the wrong size raises
    ``ValueError``, as does a map that fails the PSD rule at ``tol``.
    """
    for side, mats, n in (("s_basis", spaces.s_basis, phi.d),
                          ("t_basis", spaces.t_basis, phi.r)):
        for idx, m in enumerate(mats):
            if m.shape != (n, n):
                raise ValueError(f"{side}[{idx}] has shape {m.shape}, "
                                 f"expected {(n, n)} for a {phi.d} -> {phi.r} map")
    tol = resolve(tol, DEFAULTS.rel_tol)
    ks = kraus_from_choi(phi, tol)
    k = len(ks.ops)
    # adjoint convention: with phi(X) = sum A X A^dagger, set V_i = A_i^dagger
    rows = _pair_rows([a.conj().T for a in ks.ops], spaces.s_basis, spaces.t_basis)
    # rows has rank at most its m columns, so with k^2 > m + 1 its first m + 1
    # rows are already dependent and the verdict is "not extreme" either way:
    # the slice keeps every verdict and bounds the SVD by the size of rows, not k^4
    null = null_space(rows[:rows.shape[1] + 1].T, tol)
    if null.shape[0] == 0:
        return Extremality(True)
    lam = np.pad(null[0], (0, k * k - null.shape[1])).reshape(k, k)
    # the null space is closed under lam -> lam^dagger because the spanning
    # sets are Hermitian, so both Hermitian parts are null and one is nonzero
    lam = max(lam + lam.conj().T, 1j * (lam - lam.conj().T), key=frob)
    lam = lam / (2 * np.linalg.norm(lam, 2))
    w_mat = np.stack([a.T.reshape(-1) for a in ks.ops])  # row a is the vec of Kraus a
    # the rows of w_mat have Gram matrix diag(w) with every w > 0, so the shift is nonzero
    shift = ChannelChoi(phi.d, phi.r, w_mat.T @ lam @ w_mat.conj())
    pair = tuple(ChannelChoi(phi.d, phi.r, phi.choi + sign * shift.choi) for sign in (1, -1))
    dual = dual_channel(shift)
    pinned = (all(frob(apply_choi(shift, a)) <= DEFAULTS.equal_tol * rel_scale(a)
                  for a in spaces.s_basis)
              and all(frob(apply_choi(dual, b)) <= DEFAULTS.equal_tol * rel_scale(b)
                      for b in spaces.t_basis))
    if not (pinned and all(is_cp(c, DEFAULTS.equal_tol) for c in pair)):
        raise ArithmeticError("null direction found but no certified perturbation; "
                              "inconsistent constraint data")
    return Extremality(False, pair)


def is_extreme_choi(phi: ChannelChoi, tol: float | None = None) -> bool:
    """Extremality among CP maps sharing the image of the identity.

    The map is extreme exactly when the products V_i^* V_j of a minimal
    Kraus family are linearly independent: ``extremality`` with the
    identity as the only input-side constraint.
    """
    return extremality(phi, ConstraintSpaces((np.eye(phi.d, dtype=complex),), ()), tol).extreme


def is_extreme_unital_tp(phi: ChannelChoi, tol: float | None = None) -> bool:
    """Extremality among unital trace-preserving channels.

    Tests linear independence of the direct sums V_i^* V_j + V_j V_i^*
    (stacked side by side), the unital-TP refinement of the CP criterion:
    ``extremality`` with the identity pinned on both sides.
    """
    if not (is_tp(phi, DEFAULTS.equal_tol) and is_unital(phi, DEFAULTS.equal_tol)):
        raise ValueError("extremality test requires a unital trace-preserving map")
    return extremality(phi, ConstraintSpaces((np.eye(phi.d, dtype=complex),),
                                             (np.eye(phi.r, dtype=complex),)), tol).extreme


def extension_constraint_spaces(d1: int, r1: int) -> ConstraintSpaces:
    """Constraint spaces for extremality among extensions of one span action."""
    return ConstraintSpaces(hermitian_span(span_basis(d1, r1)), ())
