"""Channel-level Choi calculus.

A linear map phi: M_d -> M_r is carried by its Choi matrix, the d x d block
matrix whose (i, j) block is phi(E_ij).  Row and column factors are therefore
ordered (input, output).  Kraus operators follow the convention
phi(X) = sum_a A_a X A_a^dagger with each A_a of shape (r, d).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import DEFAULTS, resolve
from .linalg import (
    as_rng,
    frob,
    is_isometry,
    is_psd,
    kron,
    matrix_unit,
    permute_factors,
    psd_support,
    random_isometry,
    vec,
)


@dataclass(frozen=True)
class ChannelChoi:
    """Choi matrix of a linear map M_d -> M_r with its dimensions."""

    d: int
    r: int
    choi: np.ndarray

    def __post_init__(self):
        if self.d < 1 or self.r < 1:
            raise ValueError("dimensions must be positive")
        c = np.array(self.choi, dtype=complex)
        n = self.d * self.r
        if c.shape != (n, n):
            raise ValueError(f"choi matrix shape {c.shape} does not match dims ({self.d}, {self.r})")
        c.setflags(write=False)
        object.__setattr__(self, "choi", c)

    def block(self, i: int, j: int) -> np.ndarray:
        """Image of the matrix unit E_ij, an r x r block."""
        r = self.r
        return self.choi[i * r:(i + 1) * r, j * r:(j + 1) * r]

    def as_tensor(self) -> np.ndarray:
        return self.choi.reshape(self.d, self.r, self.d, self.r)


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators of a CP map, each of shape (r, d).

    ``kraus_from_choi`` returns a linearly independent family by construction,
    so its number of operators is the Choi rank.
    """

    d: int
    r: int
    ops: tuple = field(default_factory=tuple)

    def __post_init__(self):
        ops = tuple(np.asarray(a, dtype=complex) for a in self.ops)
        if not ops:
            raise ValueError("a Kraus set needs at least one operator")
        for a in ops:
            if a.shape != (self.r, self.d):
                raise ValueError(f"Kraus operator shape {a.shape}, expected ({self.r}, {self.d})")
        object.__setattr__(self, "ops", ops)

    def __len__(self) -> int:
        return len(self.ops)


def choi_from_unit_images(images: Sequence[np.ndarray]) -> ChannelChoi:
    """Assemble a Choi matrix from the images of the matrix units.

    ``images`` holds phi(E_ij) in row-major (i, j) order, so its length must
    be a perfect square d^2 and every entry an r x r matrix.
    """
    mats = [np.asarray(m, dtype=complex) for m in images]
    d = int(round(len(mats) ** 0.5))
    if d * d != len(mats):
        raise ValueError(f"{len(mats)} images do not fill a square block grid")
    r = mats[0].shape[0]
    for m in mats:
        if m.shape != (r, r):
            raise ValueError("images must all be square matrices of equal size")
    arr = np.array(mats).reshape(d, d, r, r)
    choi = arr.transpose(0, 2, 1, 3).reshape(d * r, d * r)
    return ChannelChoi(d, r, choi)


def apply_choi(phi: ChannelChoi, x: np.ndarray) -> np.ndarray:
    """Evaluate the map on an input, phi(X) = sum_ij X_ij phi(E_ij)."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (phi.d, phi.d):
        raise ValueError(f"input shape {x.shape}, expected ({phi.d}, {phi.d})")
    return np.einsum("ij,isjt->st", x, phi.as_tensor())


def block_traces(phi: ChannelChoi) -> np.ndarray:
    """d x d matrix of block traces, entry (i, j) = Tr phi(E_ij)."""
    return np.einsum("isjs->ij", phi.as_tensor())


def is_cp(phi: ChannelChoi, tol: float | None = None) -> bool:
    """Complete positivity: the Choi matrix is PSD (``linalg.is_psd``)."""
    return is_psd(phi.choi, tol)


def is_tp(phi: ChannelChoi, tol: float | None = None) -> bool:
    """Trace preservation: diagonal blocks have trace one, off-diagonal zero."""
    tol = resolve(tol, DEFAULTS.rel_tol)
    t = block_traces(phi)
    return bool(np.max(np.abs(t - np.eye(phi.d))) <= tol)


def is_unital(phi: ChannelChoi, tol: float | None = None) -> bool:
    tol = resolve(tol, DEFAULTS.rel_tol)
    out = apply_choi(phi, np.eye(phi.d, dtype=complex))
    return frob(out - np.eye(phi.r)) <= tol * max(1.0, float(phi.r))


def kraus_from_choi(phi: ChannelChoi, tol: float | None = None) -> KrausSet:
    """Minimal Kraus operators from the square root of the Choi matrix on its
    support, ``linalg.psd_support`` at ``tol``: eigenvalues at or below
    ``tol * max(1, ||C||_F)`` are discarded, so the number of operators is the
    numerical Choi rank.
    """
    w, v = psd_support(phi.choi, tol)
    if not len(w):
        raise ValueError("Choi matrix is numerically zero")
    ops = (v * np.sqrt(w)).T.reshape(-1, phi.d, phi.r).transpose(0, 2, 1)
    return KrausSet(phi.d, phi.r, tuple(ops))


def choi_from_kraus(k: KrausSet) -> ChannelChoi:
    """Choi matrix of the CP map defined by a Kraus set."""
    w = np.stack([a.T.reshape(-1) for a in k.ops])
    choi = w.T @ w.conj()
    return ChannelChoi(k.d, k.r, choi)


def dual_channel(phi: ChannelChoi) -> ChannelChoi:
    """Hilbert-Schmidt adjoint, the map M_r -> M_d with <phi(X), B> = <X, dual(B)>."""
    t = phi.as_tensor()
    dual = t.transpose(1, 0, 3, 2).conj()
    n = phi.d * phi.r
    return ChannelChoi(phi.r, phi.d, dual.reshape(n, n))


def compose(outer: ChannelChoi, inner: ChannelChoi) -> ChannelChoi:
    """Choi matrix of ``outer`` after ``inner``."""
    if inner.r != outer.d:
        raise ValueError(f"cannot compose: inner output {inner.r} != outer input {outer.d}")
    images = [apply_choi(outer, inner.block(i, j))
              for i in range(inner.d) for j in range(inner.d)]
    return choi_from_unit_images(images)


def tensor(a: ChannelChoi, b: ChannelChoi) -> ChannelChoi:
    """Choi matrix of the tensor of two maps, factors regrouped to (input, output)."""
    prod = kron(a.choi, b.choi)
    choi = permute_factors(prod, (a.d, a.r, b.d, b.r), (0, 2, 1, 3))
    return ChannelChoi(a.d * b.d, a.r * b.r, choi)


def identity_channel(d: int) -> ChannelChoi:
    omega = vec(np.eye(d, dtype=complex))
    return ChannelChoi(d, d, np.outer(omega, omega.conj()))


def depolarizing_channel(d: int, r: int) -> ChannelChoi:
    """The channel sending every unit-trace input to the maximally mixed state."""
    return ChannelChoi(d, r, np.eye(d * r, dtype=complex) / r)


def trace_channel(d: int) -> ChannelChoi:
    """The map M_d -> M_1 taking X to [[Tr X]]."""
    return choi_from_unit_images([np.array([[np.trace(matrix_unit(d, i, j))]])
                                  for i in range(d) for j in range(d)])


def unitary_channel(u: np.ndarray) -> ChannelChoi:
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    if u.shape != (n, n) or not is_isometry(u):
        raise ValueError("input is not unitary within tolerance")
    return choi_from_kraus(KrausSet(n, n, (u,)))


def transpose_channel(d: int) -> ChannelChoi:
    """The (positive but not completely positive) transpose map on M_d."""
    return choi_from_unit_images([matrix_unit(d, j, i)
                                  for i in range(d) for j in range(d)])


def random_channel(d: int, r: int, kraus_rank: int, seed=None) -> ChannelChoi:
    """Random CPTP map built by slicing a Haar-random isometry into Kraus blocks.

    Deterministic in ``seed``.  Requires ``r * kraus_rank >= d`` so that the
    stacked Kraus operators can form an isometry.
    """
    if not 1 <= kraus_rank <= d * r:
        raise ValueError(f"kraus_rank must lie in [1, {d * r}]")
    if r * kraus_rank < d:
        raise ValueError("kraus_rank too small for a trace-preserving map")
    rng = as_rng(seed)
    v = random_isometry(r * kraus_rank, d, rng)
    ops = tuple(v[a * r:(a + 1) * r, :] for a in range(kraus_rank))
    return choi_from_kraus(KrausSet(d, r, ops))
