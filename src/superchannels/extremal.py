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
from functools import lru_cache

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
from .linalg import frob, herm_eig, hermitian_basis, is_hermitian, rel_scale, svd_rank, vec
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


def minimal_kraus(phi: ChannelChoi, tol: float | None = None) -> KrausSet:
    """Minimal Kraus set with the linear independence re-verified."""
    ks = kraus_from_choi(phi, tol)
    gram = kraus_gram(ks)
    w, _ = herm_eig(gram)
    cutoff = resolve(tol, DEFAULTS.rel_tol) * rel_scale(gram)
    if int(np.count_nonzero(w > cutoff)) != len(ks.ops):
        raise ArithmeticError("extracted Kraus operators are not independent")
    return ks


def _pair_rows(v_ops, s_mats, t_mats) -> np.ndarray:
    """Row (i, j) concatenates vec(V_i^* A_k V_j) over k with vec(V_j B_l V_i^*) over l."""
    rows = []
    for vi in v_ops:
        for vj in v_ops:
            parts = [vec(vi.conj().T @ a @ vj) for a in s_mats]
            parts += [vec(vj @ b @ vi.conj().T) for b in t_mats]
            rows.append(np.concatenate(parts) if parts
                        else np.zeros(0, dtype=complex))
    return np.array(rows)


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
    if not (is_tp(phi, 1e-8) and is_unital(phi, 1e-8)):
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
    same rank verdict.
    """
    tol = resolve(tol, DEFAULTS.rel_tol)
    if not is_cp(phi, tol):
        raise ValueError("extremality test requires a CP map")
    # adjoint convention: with phi(X) = sum A X A^dagger, set V_i = A_i^dagger
    v_ops = [a.conj().T for a in minimal_kraus(phi, tol).ops]
    rows = _pair_rows(v_ops, spaces.s_basis, spaces.t_basis)
    return svd_rank(rows, tol) == rows.shape[0]


# Real coordinates on the Hermitian matrices for the perturbation search; in
# these coordinates Euclidean geometry coincides with Frobenius geometry.
_SQRT2 = np.sqrt(2.0)


@lru_cache(maxsize=None)
def _triu(n: int):
    return np.triu_indices(n, 1)


def from_coords(x: np.ndarray, n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    iu, ju = _triu(n)
    k = len(iu)
    off = (x[n:n + k] + 1j * x[n + k:]) / _SQRT2
    m[iu, ju] = off
    m[ju, iu] = off.conj()
    m[np.diag_indices(n)] = x[:n]
    return m


def perturbation_search(phi: ChannelChoi, spaces: ConstraintSpaces,
                        trials: int = 8, eps: float = 0.5,
                        tol: float | None = None, seed=0) -> bool:
    """Brute-force extremality check; True means no perturbation was found.

    Solves for Hermitian coefficient matrices annihilating the constraint
    family.  A trivial null space certifies extremality.  Otherwise the map
    is exhibited as the midpoint of two CP maps in the class, built from a
    null direction scaled to operator norm ``eps`` so both perturbed Choi
    matrices stay PSD by construction; the certificate is verified directly
    on the constraint subspaces before declaring non-extremality.
    """
    tol = resolve(tol, DEFAULTS.rel_tol)
    if not (0 < eps <= 1):
        raise ValueError("step must lie in (0, 1]")
    ks = minimal_kraus(phi, tol)
    k = len(ks.ops)
    if k * k > 1000:
        raise ValueError("constraint system too large for the brute-force search")
    v_ops = [a.conj().T for a in ks.ops]
    rows = _pair_rows(v_ops, spaces.s_basis, spaces.t_basis)

    herm = hermitian_basis(k)
    width = rows.shape[1]
    cols = np.zeros((2 * width, k * k))
    for g in range(k * k):
        contrib = np.tensordot(herm[g], rows.reshape(k, k, width), axes=([0, 1], [0, 1]))
        cols[:width, g] = contrib.real
        cols[width:, g] = contrib.imag
    if width == 0:
        null = np.eye(k * k)
    else:
        _, s, vh = np.linalg.svd(cols)
        smax = s[0] if len(s) else 0.0
        null = vh[np.concatenate([s, np.zeros(k * k - len(s))]) <= tol * max(1.0, smax)]
    if null.shape[0] == 0:
        return True

    w_mat = np.stack([a.T.reshape(-1) for a in ks.ops])  # row a is the vec of Kraus a
    rng = np.random.default_rng(seed)
    candidates = [null[i] for i in range(min(trials, null.shape[0]))]
    while len(candidates) < trials:
        candidates.append(null.T @ rng.standard_normal(null.shape[0]))
    for direction in candidates:
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            continue
        lam = from_coords(direction / norm, k)
        w, _ = herm_eig(lam)
        lam = lam * (eps / float(np.max(np.abs(w))))
        shift = w_mat.T @ lam @ w_mat.conj()
        if frob(shift) <= 1e-10 * rel_scale(phi.choi):
            continue
        ok = True
        for sign in (1.0, -1.0):
            cand = ChannelChoi(phi.d, phi.r, phi.choi + sign * shift)
            if not is_cp(cand, 1e-8):
                ok = False
                break
            for a in spaces.s_basis:
                if frob(apply_choi(cand, a) - apply_choi(phi, a)) > 1e-8 * rel_scale(a):
                    ok = False
                    break
            if not ok:
                break
            dual_c, dual_p = dual_channel(cand), dual_channel(phi)
            for b in spaces.t_basis:
                if frob(apply_choi(dual_c, b) - apply_choi(dual_p, b)) > 1e-8 * rel_scale(b):
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
