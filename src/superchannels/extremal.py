"""Extreme-point tests for constrained completely positive maps.

The classes considered fix a CP map on a subspace of the input algebra and
fix its dual on a subspace of the output algebra.  Extremality reduces to
linear independence of operator families built from a minimal Kraus set; the
brute-force perturbation search below certifies the same decision
independently by exhibiting (or failing to find) a symmetric CP
perturbation that stays inside the class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelChoi,
    KrausSet,
    apply_choi,
    dual_channel,
    is_cp,
    is_tp,
    is_unital,
    kraus_from_choi,
    kraus_gram,
)
from .config import DEFAULTS, resolve
from .linalg import frob, hermitian_basis, is_hermitian, null_space, rank_eps, rel_scale
from .opsys import hermitian_span, span_basis

# perturbation_search's null directions tried, their operator norm, and their seed
TRIALS = 8
STEP = 0.5
SEED = 0


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


def minimal_kraus(phi: ChannelChoi, tol: float | None = None) -> KrausSet:
    """Minimal Kraus set with the linear independence re-verified."""
    ks = kraus_from_choi(phi, tol)
    if rank_eps(kraus_gram(ks), tol) != len(ks.ops):
        raise ArithmeticError("extracted Kraus operators are not independent")
    return ks


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


def is_extreme_choi(phi: ChannelChoi, tol: float | None = None) -> bool:
    """Extremality among CP maps sharing the image of the identity.

    The map is extreme exactly when the products V_i^* V_j of a minimal
    Kraus family are linearly independent: the constrained test with the
    identity as the only input-side constraint.
    """
    return is_extreme_constrained(
        phi, ConstraintSpaces((np.eye(phi.d, dtype=complex),), ()), tol)


def is_extreme_unital_tp(phi: ChannelChoi, tol: float | None = None) -> bool:
    """Extremality among unital trace-preserving channels.

    Tests linear independence of the direct sums V_i^* V_j + V_j V_i^*
    (stacked side by side), the unital-TP refinement of the CP criterion:
    the constrained test with the identity pinned on both sides.
    """
    if not (is_tp(phi, DEFAULTS.equal_tol) and is_unital(phi, DEFAULTS.equal_tol)):
        raise ValueError("extremality test requires a unital trace-preserving map")
    return is_extreme_constrained(
        phi, ConstraintSpaces((np.eye(phi.d, dtype=complex),),
                              (np.eye(phi.r, dtype=complex),)), tol)


def is_extreme_constrained(phi: ChannelChoi, spaces: ConstraintSpaces,
                           tol: float | None = None) -> bool:
    """Extremality among CP maps pinned on the given constraint subspaces.

    With a minimal Kraus family V_i and spanning sets A_k, B_l, the map is
    extreme exactly when the families (V_i^* A_k V_j)_k + (V_j B_l V_i^*)_l,
    one per pair (i, j), are linearly independent.  This is the one rank
    test; the two specialisations above call it.  The decision is basis
    independent: any Hermitian spanning sets of the same subspaces give the
    same rank verdict.  A map that fails the PSD rule at ``tol`` raises
    ``minimal_kraus``'s ``ValueError``.
    """
    tol = resolve(tol, DEFAULTS.rel_tol)
    # adjoint convention: with phi(X) = sum A X A^dagger, set V_i = A_i^dagger
    v_ops = [a.conj().T for a in minimal_kraus(phi, tol).ops]
    rows = _pair_rows(v_ops, spaces.s_basis, spaces.t_basis)
    return rank_eps(rows, tol) == rows.shape[0]


def perturbation_search(phi: ChannelChoi, spaces: ConstraintSpaces,
                        tol: float | None = None) -> bool:
    """Brute-force extremality check; True means no perturbation was found.

    Solves for Hermitian coefficient matrices annihilating the constraint
    family.  A trivial null space certifies extremality.  Otherwise the map
    is exhibited as the midpoint of two CP maps in the class, built from a
    null direction scaled to operator norm ``STEP`` so both perturbed Choi
    matrices stay PSD by construction; the certificate is verified directly
    on the constraint subspaces before declaring non-extremality.
    """
    tol = resolve(tol, DEFAULTS.rel_tol)
    ks = minimal_kraus(phi, tol)
    k = len(ks.ops)
    if k * k > 1000:
        raise ValueError("constraint system too large for the brute-force search")
    v_ops = [a.conj().T for a in ks.ops]
    rows = _pair_rows(v_ops, spaces.s_basis, spaces.t_basis)

    herm = hermitian_basis(k)
    # column g is sum_ij herm[g]_ij rows[(i, j)], real and imaginary parts stacked
    contrib = herm.reshape(k * k, k * k) @ rows
    null = null_space(np.concatenate([contrib.real, contrib.imag], axis=1).T, tol)
    if null.shape[0] == 0:
        return True

    w_mat = np.stack([a.T.reshape(-1) for a in ks.ops])  # row a is the vec of Kraus a
    # ||W^T lam W^*||_F >= w_min ||lam||_F, and minimal_kraus's Gram check gives
    # w_min > tol * ||W||_2^2, so no real shift falls under this floor
    shift_floor = tol * np.linalg.norm(w_mat, 2) ** 2
    rng = np.random.default_rng(SEED)
    candidates = [null[i] for i in range(min(TRIALS, null.shape[0]))]
    while len(candidates) < TRIALS:
        candidates.append(null.T @ rng.standard_normal(null.shape[0]))
    for direction in candidates:
        norm = np.linalg.norm(direction)  # a null direction has unit norm
        if norm <= tol:
            continue
        lam = np.tensordot(direction / norm, herm, 1)
        lam = lam * (STEP / np.linalg.norm(lam, 2))
        shift = w_mat.T @ lam @ w_mat.conj()
        if frob(shift) <= shift_floor * frob(lam):
            continue
        ok = True
        for sign in (1.0, -1.0):
            cand = ChannelChoi(phi.d, phi.r, phi.choi + sign * shift)
            if not is_cp(cand, DEFAULTS.equal_tol):
                ok = False
                break
            for a in spaces.s_basis:
                if frob(apply_choi(cand, a) - apply_choi(phi, a)) > DEFAULTS.equal_tol * rel_scale(a):
                    ok = False
                    break
            if not ok:
                break
            dual_c, dual_p = dual_channel(cand), dual_channel(phi)
            for b in spaces.t_basis:
                if frob(apply_choi(dual_c, b) - apply_choi(dual_p, b)) > DEFAULTS.equal_tol * rel_scale(b):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return False
    raise ArithmeticError("null direction found but no certified perturbation; "
                          "inconsistent constraint data")


def extension_constraint_spaces(d1: int, r1: int) -> ConstraintSpaces:
    """Constraint spaces for extremality among extensions of one span action."""
    return ConstraintSpaces(hermitian_span(span_basis(d1, r1)), ())
