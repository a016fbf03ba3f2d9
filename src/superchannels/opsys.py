"""The operator system spanned by Choi matrices of quantum channels.

Inside M_d(M_r) this is the set of block matrices whose diagonal blocks all
share one trace and whose off-diagonal blocks are traceless.  It carries the
Hilbert-Schmidt inner product.  The canonical basis ``span_basis``, one
read-only (span_dim, dr, dr) array built in closed form (projected matrix
units, one QR), is the reference ordering used by every file format that
lists images of basis elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import ChannelChoi, block_traces
from .config import DEFAULTS, resolve
from .linalg import frob, is_hermitian, is_psd, matrix_unit, rel_scale


@dataclass(frozen=True)
class SpanMembership:
    """Membership verdict together with the trace-scaling factor.

    ``scale`` is the common diagonal-block trace; it is the factor by which
    the associated linear map scales traces, real for Hermitian input and 1
    for the Choi matrix of a channel.
    """

    member: bool
    scale: complex


def span_dim(d: int, r: int) -> int:
    """Dimension of the span of channel Choi matrices inside M_d(M_r)."""
    if d < 1 or r < 1:
        raise ValueError(f"span dimensions must be positive, got d={d}, r={r}")
    return d * d * r * r - d * d + 1


def span_membership(c: np.ndarray, d: int, r: int, tol: float | None = None) -> SpanMembership:
    """Block-trace membership test, reporting the trace-scaling factor."""
    phi = ChannelChoi(d, r, c)  # validates the shape
    tol = resolve(tol, DEFAULTS.rel_tol)
    cutoff = tol * rel_scale(phi.choi)
    t = block_traces(phi)
    lam = complex(np.trace(t) / d)
    off = t - np.diag(np.diagonal(t))
    member = bool(np.max(np.abs(off)) <= cutoff if d > 1 else True)
    member = member and bool(np.max(np.abs(np.diagonal(t) - lam)) <= cutoff)
    if is_hermitian(phi.choi):
        lam = complex(lam.real)
    return SpanMembership(member, lam)


def project_to_span(c: np.ndarray, d: int, r: int) -> np.ndarray:
    """Hilbert-Schmidt orthogonal projection onto the channel span.

    Off-diagonal blocks lose their trace component; diagonal block traces are
    evened out to their mean.  The map is idempotent and self-adjoint.
    """
    phi = ChannelChoi(d, r, c)  # validates the shape
    t = block_traces(phi)
    mean = np.trace(t) / d
    excess = t - mean * np.eye(d)
    correction = np.einsum("ij,st->isjt", excess / r, np.eye(r, dtype=complex))
    out = phi.as_tensor() - correction
    return out.reshape(d * r, d * r)


@lru_cache(maxsize=None)
def span_basis(d: int, r: int) -> np.ndarray:
    """Canonical orthonormal basis of the channel span, a read-only array of
    shape (span_dim, dr, dr).

    Closed form: project every matrix unit E_{(i,s),(j,t)} of M_{dr} in
    row-major order onto the span, drop the d^2 - 1 units with s = t = r - 1
    outside block (0, 0) (each is a combination of the units before it), and
    orthonormalise the rest with one QR factorisation whose R has a positive
    diagonal.  That QR is unique, so the basis is the Gram-Schmidt basis of
    the projected units in row-major order.
    """
    span_dim(d, r)  # rejects d or r below 1
    n = d * r
    units = np.array([project_to_span(matrix_unit(n, p, q), d, r)
                      for p in range(n) for q in range(n)])
    i, s, j, t = np.indices((d, r, d, r)).reshape(4, -1)
    dependent = (s == r - 1) & (t == r - 1) & ((i > 0) | (j > 0))
    q, upper = np.linalg.qr(units[~dependent].reshape(-1, n * n).T)
    basis = (q * np.sign(np.diagonal(upper).real)).T.reshape(-1, n, n)
    basis.setflags(write=False)
    return basis


def decompose_into_channels(c: np.ndarray, d: int, r: int,
                            tol: float | None = None) -> list[tuple[complex, ChannelChoi]]:
    """Write a span element as a combination of at most four channel Choi matrices.

    Each Hermitian part H splits as the difference of the positive matrices
    (||H|| I +- H) / 2, which stay in the span because the identity does;
    scaling each nonzero part to diagonal-block trace one yields CPTP maps.
    A PSD input with positive scale short-circuits to a single term.  The
    zero matrix decomposes to the empty list.
    """
    tol = resolve(tol, DEFAULTS.rel_tol)
    c = np.asarray(c, dtype=complex)
    mem = span_membership(c, d, r, tol)
    if not mem.member:
        raise ValueError("matrix is not in the channel span")
    if frob(c) <= tol:
        return []
    if is_psd(c, tol) and mem.scale.real > tol:
        lam = mem.scale.real
        return [(complex(lam), ChannelChoi(d, r, c / lam))]
    eye = np.eye(d * r, dtype=complex)
    h1 = (c + c.conj().T) / 2
    h2 = (c - c.conj().T) / (2j)
    terms: list[tuple[complex, ChannelChoi]] = []
    for h, unit in ((h1, 1.0 + 0j), (h2, 1j)):
        if frob(h) <= tol * rel_scale(c):
            continue
        opnorm = float(np.linalg.norm(h, 2))
        for part, sign in (((opnorm * eye + h) / 2, 1.0), ((opnorm * eye - h) / 2, -1.0)):
            tr = float(np.trace(part).real)
            if tr <= tol * rel_scale(c):
                continue  # a positive span element with zero trace is zero
            lam = tr / d
            terms.append((unit * sign * lam, ChannelChoi(d, r, part / lam)))
    return terms


def tensor_dimension_gap(d1: int, r1: int, d2: int, r2: int) -> int:
    """Dimension deficit of the tensor of two channel spans inside the big one."""
    if min(d1, r1, d2, r2) < 1:
        raise ValueError("dimensions must be positive")
    return span_dim(d1 * d2, r1 * r2) - span_dim(d1, r1) * span_dim(d2, r2)


def hermitian_span(mats) -> tuple:
    """Hermitian spanning set of a *-closed family, via real and imaginary parts."""
    out = []
    for m in mats:
        m = np.asarray(m, dtype=complex)
        for h in ((m + m.conj().T) / 2, (m - m.conj().T) / (2j)):
            if frob(h) > DEFAULTS.rel_tol * rel_scale(m):
                out.append(h)
    return tuple(out)
