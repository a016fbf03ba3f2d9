"""Superchannels as four-factor Choi matrices.

A supermap taking maps M_{d1} -> M_{r1} to maps M_{d2} -> M_{r2} is carried
by the Choi matrix of the induced map M_{d1}(M_{r1}) -> M_{d2}(M_{r2}); the
row and column index factors as (d1, r1, d2, r2).  A superchannel is a
supermap with PSD Choi matrix that maps the channel span into the channel
span with the trace-scaling factor preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelChoi,
    apply_choi,
    identity_channel,
    is_cp,
    is_tp,
    random_channel,
)
from .config import DEFAULTS, resolve
from .linalg import (
    as_rng,
    frob,
    is_isometry,
    kron,
    partial_trace,
    permute_factors,
    psd_support,
    random_isometry,
    rank_eps,
    rel_scale,
    require_hermitian,
)
from .opsys import span_basis


@dataclass(frozen=True)
class Superchannel:
    """Hermitian supermap Choi matrix with its four dimensions."""

    d1: int
    r1: int
    d2: int
    r2: int
    choi: np.ndarray

    def __post_init__(self):
        if min(self.d1, self.r1, self.d2, self.r2) < 1:
            raise ValueError("dimensions must be positive")
        n = self.d1 * self.r1 * self.d2 * self.r2
        c = np.array(self.choi, dtype=complex)
        if c.shape != (n, n):
            raise ValueError(f"choi matrix shape {c.shape} does not match dims "
                             f"({self.d1}, {self.r1}, {self.d2}, {self.r2})")
        require_hermitian(c)
        c.setflags(write=False)
        object.__setattr__(self, "choi", c)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (self.d1, self.r1, self.d2, self.r2)


@dataclass(frozen=True)
class PrePostForm:
    """Pre/post realisation of a superchannel.

    ``v_pre`` is an isometry from the d2 space into the d1 space tensored
    with an auxiliary space of dimension ``e``; ``post`` is a channel from
    M_{r1 e} to M_{r2}.  Acting with the supermap equals pre-processing by
    conjugation with ``v_pre``, applying the input map on the d1/r1 factor,
    and post-processing with ``post``.  ``judged`` holds the ``(key, value,
    bound)`` residuals ``pre_post_form`` held the form to; a decoded form has
    none.
    """

    e: int
    v_pre: np.ndarray
    post: ChannelChoi
    judged: tuple = ()

    def __post_init__(self):
        v = np.array(self.v_pre, dtype=complex)
        v.setflags(write=False)
        object.__setattr__(self, "v_pre", v)


def as_channel(sc: Superchannel) -> ChannelChoi:
    """View the supermap as an ordinary map M_{d1 r1} -> M_{d2 r2}."""
    return ChannelChoi(sc.d1 * sc.r1, sc.d2 * sc.r2, sc.choi)


def apply_superchannel(sc: Superchannel, x):
    """Evaluate the supermap on a channel or on a raw matrix in M_{d1}(M_{r1})."""
    if isinstance(x, ChannelChoi):
        if (x.d, x.r) != (sc.d1, sc.r1):
            raise ValueError(f"input dims ({x.d}, {x.r}) do not match superchannel "
                             f"input ({sc.d1}, {sc.r1})")
        return ChannelChoi(sc.d2, sc.r2, apply_choi(as_channel(sc), x.choi))
    return apply_choi(as_channel(sc), np.asarray(x, dtype=complex))


def conjugation_supermap(w: np.ndarray, d: int, r: int) -> Superchannel:
    """The supermap C -> W C W^dagger on M_d(M_r), for any matrix W."""
    w = np.asarray(w, dtype=complex)
    n = d * r
    if w.shape != (n, n):
        raise ValueError(f"conjugation matrix shape {w.shape}, expected ({n}, {n})")
    base = identity_channel(n).choi
    big = kron(np.eye(n, dtype=complex), w)
    return Superchannel(d, r, d, r, big @ base @ big.conj().T)


def identity_superchannel(d: int, r: int) -> Superchannel:
    return conjugation_supermap(np.eye(d * r, dtype=complex), d, r)


def is_superchannel(sc: Superchannel, tol: float | None = None) -> bool:
    """Scale-preserving action on the channel span plus a PSD Choi matrix,
    checked in that order, so a supermap off the span costs no eigenvalues."""
    return preserves_span(sc.choi, sc.dims, tol) and is_cp(as_channel(sc), tol)


def span_images(choi: np.ndarray, dims: tuple[int, int, int, int]) -> np.ndarray:
    """Images of the canonical span basis under a supermap Choi matrix, stacked
    into an array of shape (span_dim, d2 r2, d2 r2)."""
    d1, r1, d2, r2 = dims
    n1, n2 = d1 * r1, d2 * r2
    c = np.asarray(choi).reshape(n1, n2, n1, n2).transpose(0, 2, 1, 3).reshape(n1 * n1, n2 * n2)
    return (span_basis(d1, r1).reshape(-1, n1 * n1) @ c).reshape(-1, n2, n2)


def restrictions_equal(a: Superchannel, b: Superchannel, tol: float | None = None) -> bool:
    """Whether two supermaps agree on the whole channel span: every basis
    image differs by at most ``tol * max(1, ||y_a||_F, ||y_b||_F)``."""
    tol = resolve(tol, DEFAULTS.rel_tol)
    if a.dims != b.dims:
        raise ValueError("superchannel dimensions do not match")
    ya, yb = span_images(a.choi, a.dims), span_images(b.choi, b.dims)
    na, nb, nd = (np.linalg.norm(y, axis=(1, 2)) for y in (ya, yb, ya - yb))
    return bool(np.all(nd <= tol * np.maximum(1.0, np.maximum(na, nb))))


def marginal(sc: Superchannel) -> np.ndarray:
    """Partial trace of the supermap Choi matrix over both output-side factors."""
    return partial_trace(sc.choi, sc.dims, traced={1, 3})


def marginal_map_residual(choi: np.ndarray,
                          dims: tuple[int, int, int, int]) -> tuple[ChannelChoi, float, float]:
    """The induced marginal map and the residuals of its lift independence and
    unitality, from one partial trace of any (even non-Hermitian) Choi matrix.

    N: M_{d1} -> M_{d2} lifts X to X tensor I/r1, applies the supermap and
    traces out r2; its Choi matrix is T, the r2 partial trace, traced over r1
    and divided by r1.  Residuals: the largest Frobenius norm of the blocks
    ``T[i,k,:,j,l,:] - delta_kl N[i,:,j,:]``, and ``||sum_i N[i,:,i,:] - I||_F``.
    Both read the supermap on span elements only.
    """
    d1, r1, d2, _ = dims
    t = partial_trace(choi, dims, {3}).reshape(d1, r1, d2, d1, r1, d2)
    n_choi = np.einsum("ikajkb->iajb", t) / r1
    diff = t - np.einsum("iajb,kl->ikajlb", n_choi, np.eye(r1))
    lift = float(np.sqrt(np.max(np.einsum("ikajlb->ikjl", np.abs(diff) ** 2))))
    unital = frob(np.einsum("iaib->ab", n_choi) - np.eye(d2))
    return ChannelChoi(d1, d2, n_choi.reshape(d1 * d2, d1 * d2)), lift, unital


def preserves_span(choi: np.ndarray, dims: tuple[int, int, int, int],
                   tol: float | None = None) -> bool:
    """Whether a supermap maps the channel span into the output span with the
    trace-scaling factor kept: exactly when its marginal map is
    lift-independent and unital (Gour 2019), judged as ``max(lift, unital) <= tol``.
    """
    _, lift, unital = marginal_map_residual(choi, dims)
    return max(lift, unital) <= resolve(tol, DEFAULTS.rel_tol)


def induced_marginal_map(sc: Superchannel, tol: float | None = None) -> ChannelChoi:
    """The unital CP map N: M_{d1} -> M_{d2} governing output marginals.

    For a superchannel the map is independent of the lift: tracing the image
    over r2 equals N applied to the input traced over r1, for every input.
    That identity is verified in closed form (``marginal_map_residual``) and
    a ``ValueError`` reports a lift residual above ``tol``.
    """
    n_map, lift, _ = marginal_map_residual(sc.choi, sc.dims)
    if lift > resolve(tol, DEFAULTS.rel_tol):
        raise ValueError(f"marginal map is lift-dependent, residual {lift:.3e}: "
                         "input is not a superchannel")
    return n_map


def aux_dim(sc: Superchannel, eps: float | None = None) -> int:
    """Auxiliary dimension of the pre/post form: rank of the double marginal."""
    return rank_eps(marginal(sc), eps)


def recompose(v_pre: np.ndarray, post: ChannelChoi, e: int) -> Superchannel:
    """Assemble the superchannel realised by an isometric pre-processing
    followed by the input map (tensored with an e-dimensional identity) and a
    post-processing channel.

    Shapes: ``v_pre`` is (d1*e) x d2 with orthonormal columns and ``post``
    maps M_{r1 e} to M_{r2}.  The Choi matrix is the single contraction
    C[(i,k,j,s),(i',l,j',t)] = sum_{a,b} v[(i,a),j] conj(v[(i',b),j'])
    P[(k,a,s),(l,b,t)], with P the Choi matrix of ``post``.
    """
    v = np.asarray(v_pre, dtype=complex)
    if v.ndim != 2 or v.shape[0] % e:
        raise ValueError(f"pre-isometry shape {v.shape} incompatible with e={e}")
    if post.d % e:
        raise ValueError(f"post-channel input {post.d} incompatible with e={e}")
    if not is_isometry(v):
        raise ValueError("pre-processing matrix is not an isometry within tolerance")
    if not (is_cp(post) and is_tp(post)):
        raise ValueError("post-processing map is not a channel")
    return Superchannel(v.shape[0] // e, post.d // e, v.shape[1], post.r, _assemble(v, post, e))


def _assemble(v: np.ndarray, post: ChannelChoi, e: int) -> np.ndarray:
    """``recompose``'s Choi matrix, without its checks: for ``w[(i,j),a] = v[(i,a),j]``,
    ``sum_ab w[(i,j),a] P[(k,a,s),(l,b,t)] conj(w[(I,J),b])`` as two products."""
    d1, d2, r1, r2 = v.shape[0] // e, v.shape[1], post.d // e, post.r
    w = v.reshape(d1, e, d2).transpose(0, 2, 1).reshape(d1 * d2, e)
    p = post.choi.reshape(r1, e, r2, r1, e, r2).transpose(1, 0, 2, 3, 5, 4).reshape(e, -1)
    c = ((w @ p).reshape(-1, e) @ w.conj().T).reshape(d1, d2, r1, r2, r1, r2, d1, d2)
    choi = c.transpose(0, 2, 1, 3, 6, 4, 7, 5).reshape(d1 * r1 * d2 * r2, -1)
    return (choi + choi.conj().T) / 2


def pre_post_form(sc: Superchannel, tol: float | None = None) -> PrePostForm:
    """Factor a superchannel into an isometric pre-processing and a post channel.

    Closed form (Chiribella, D'Ariano & Perinotti 2008; Gour 2019).  Let
    ``W`` be the square root of the double marginal (read as r1 N from the
    induced map N the lift check builds) divided by r1, on its support: the
    (d1 d2) x e matrix of the eigenvectors with nonzero eigenvalue, each
    scaled by the root of its eigenvalue over r1.  The pre-isometry is
    ``v[(i,a),j] = W[(i,j),a]``, and the post Choi matrix is the supermap Choi
    matrix, regrouped to ((d1,d2),(r1,r2)), sandwiched by the pseudo-inverse of
    ``W`` tensored with the identity on (r1,r2) (two matrix products) and
    regrouped to (r1,e,r2).  The support is ``linalg.psd_support`` at ``tol``,
    so the auxiliary dimension e equals ``aux_dim(sc, tol)``.

    Every judgement reads ``tol`` (default ``DEFAULTS.rel_tol``), with an
    allowance for what the k = d1 d2 - e dropped eigenvalues, each within the
    PSD rule's cut ``tol * max(1, ||marginal||_F)``, can contribute:

    * ``v^dagger v - I`` is the marginal map's unitality residual plus the
      dropped part traced over d1 and divided by r1, judged against
      ``tol + sqrt(d1 k) * cut / r1``; it passes whenever the unitality
      residual is within ``tol``, as ``is_superchannel`` requires.
    * The post map must pass ``is_cp`` and ``is_tp`` at ``tol`` on its own
      scale.  No allowance on the input's scale can promise this: the
      sandwich divides by the root of the smallest kept eigenvalue, which may
      lie just above the cut.
    * The recomposition residual is judged against ``(DEFAULTS.equal_tol +
      sqrt(k r1 r2) * tol) * max(1, ||C||_F)``: rounding, plus the dropped
      (k r1 r2)-dimensional part of C with every eigenvalue at the cut.
      Where C couples positive dropped eigenvalues to the kept ones, the
      residual grows like the root of the cut, and such input can fail.

    Raises ``ValueError`` when the marginal map is lift-dependent, the
    marginal is not PSD, ``v`` is not an isometry or the post map is not a
    channel, and ``ArithmeticError`` when the recomposition misses the input.
    """
    d1, r1, d2, r2 = sc.dims
    tol = resolve(tol, DEFAULTS.rel_tol)
    m = r1 * induced_marginal_map(sc, tol).choi  # raises ValueError when lift-dependent
    w, u = psd_support(m, tol)
    lam, e = w / r1, len(w)
    root = u * np.sqrt(lam)
    v = root.reshape(d1, d2, e).transpose(0, 2, 1).reshape(d1 * e, d2)

    inv = (u / np.sqrt(lam)).conj().T  # rows a, columns (i,j) = (d1,d2)
    c = sc.choi.reshape(d1, r1, d2, r2, d1, r1, d2, r2).transpose(0, 2, 1, 3, 5, 7, 4, 6)
    c_post = (inv @ c.reshape(d1 * d2, -1)).reshape(-1, d1 * d2) @ inv.conj().T
    c_post = c_post.reshape(e, r1, r2, r1, r2, e).transpose(1, 0, 2, 3, 5, 4)
    c_post = c_post.reshape(r1 * e * r2, -1)
    post = ChannelChoi(r1 * e, r2, (c_post + c_post.conj().T) / 2)

    k, cut = d1 * d2 - e, tol * rel_scale(m)
    iso = ("isometry residual", frob(v.conj().T @ v - np.eye(d2)),
           float(tol + np.sqrt(d1 * k) * cut / r1))
    if iso[1] > iso[2]:
        raise ValueError("pre-processing matrix is not an isometry within tolerance")
    if not (is_cp(post, tol) and is_tp(post, tol)):
        raise ValueError("post-processing map is not a channel")
    rec = ("recomposition residual", frob(_assemble(v, post, e) - sc.choi),
           float(DEFAULTS.equal_tol + np.sqrt(k * r1 * r2) * tol) * rel_scale(sc.choi))
    if rec[1] > rec[2]:
        raise ArithmeticError(f"recomposition residual {rec[1]:.3e} above tolerance")
    return PrePostForm(e, v, post, (iso, rec))


def tensor_superchannels(a: Superchannel, b: Superchannel) -> Superchannel:
    """Tensor of two supermaps, factors regrouped to the canonical order."""
    dims = (a.d1, a.r1, a.d2, a.r2, b.d1, b.r1, b.d2, b.r2)
    choi = permute_factors(kron(a.choi, b.choi), dims, (0, 4, 1, 5, 2, 6, 3, 7))
    return Superchannel(a.d1 * b.d1, a.r1 * b.r1, a.d2 * b.d2, a.r2 * b.r2, choi)


def unitary_superchannel(u1: np.ndarray, u2: np.ndarray) -> Superchannel:
    """Conjugation of Choi matrices by u1 tensor u2."""
    u1 = np.asarray(u1, dtype=complex)
    u2 = np.asarray(u2, dtype=complex)
    d = u1.shape[0]
    r = u2.shape[0]
    for u, n in ((u1, d), (u2, r)):
        if u.shape != (n, n) or not is_isometry(u):
            raise ValueError("factors must be unitary within tolerance")
    return conjugation_supermap(kron(u1, u2), d, r)


def factor_unitary(u: np.ndarray, d: int, r: int,
                   eps: float | None = None) -> tuple[np.ndarray, np.ndarray] | None:
    """Split a unitary on a d*r space into a product of unitary factors.

    Reshapes across the tensor cut and inspects the singular values (the
    operator Schmidt coefficients); the unitary factors exist precisely when
    a single coefficient is nonzero.  Returns ``None`` when the input is not
    a product.  The phase split is fixed by making the first nonzero entry
    of the d-side factor real and positive.
    """
    u = np.asarray(u, dtype=complex)
    n = d * r
    if u.shape != (n, n):
        raise ValueError(f"unitary shape {u.shape}, expected ({n}, {n})")
    if not is_isometry(u):
        raise ValueError("input is not unitary within tolerance")
    t = u.reshape(d, r, d, r).transpose(0, 2, 1, 3).reshape(d * d, r * r)
    if rank_eps(t, eps) > 1:
        return None
    left, _, right = np.linalg.svd(t)
    u1 = np.sqrt(d) * left[:, 0].reshape(d, d)
    u2 = np.sqrt(r) * right[0, :].reshape(r, r)
    flat = u1.reshape(-1)
    pos = int(np.argmax(np.abs(flat) > DEFAULTS.equal_tol * np.max(np.abs(flat))))
    phase = flat[pos] / abs(flat[pos])
    u1 = u1 / phase
    u2 = u2 * phase
    if frob(u - kron(u1, u2)) > DEFAULTS.equal_tol * rel_scale(u):
        return None
    return u1, u2


def random_superchannel(d1: int, r1: int, d2: int, r2: int, e: int,
                        seed=None) -> Superchannel:
    """Random superchannel built from a random pre-isometry and post channel."""
    rng = as_rng(seed)
    v = random_isometry(d1 * e, d2, rng)
    max_rank = r1 * e * r2
    lo = max(1, int(np.ceil(r1 * e / r2)))
    rank = int(rng.integers(lo, max_rank + 1))
    post = random_channel(r1 * e, r2, rank, rng)
    return recompose(v, post, e)
