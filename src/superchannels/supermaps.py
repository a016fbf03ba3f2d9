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

from . import feasibility
from .channels import (
    ChannelChoi,
    apply_choi,
    choi_action_rows,
    choi_from_unit_images,
    dual_channel,
    identity_channel,
    is_cp,
    is_tp,
    kraus_from_choi,
    random_channel,
    tensor,
)
from .config import DEFAULTS, resolve
from .linalg import (
    as_rng,
    frob,
    herm_eig,
    is_hermitian,
    kron,
    matrix_unit,
    partial_trace,
    permute_factors,
    psd_project,
    random_isometry,
    rank_eps,
    rel_scale,
    require_hermitian,
    vec,
)
from .opsys import span_basis, span_membership


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
    and post-processing with ``post``.
    """

    e: int
    v_pre: np.ndarray
    post: ChannelChoi

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
    """PSD Choi matrix plus scale-preserving action on the channel span."""
    tol = resolve(tol, DEFAULTS.rel_tol)
    if not is_hermitian(sc.choi):
        return False
    w, _ = herm_eig(sc.choi)
    if w[-1] < -tol * rel_scale(sc.choi):
        return False
    for x in span_basis(sc.d1, sc.r1):
        lam_in = span_membership(x, sc.d1, sc.r1, tol).scale
        out = apply_superchannel(sc, x)
        mem = span_membership(out, sc.d2, sc.r2, tol)
        if not mem.member:
            return False
        if abs(mem.scale - lam_in) > tol * max(1.0, abs(lam_in)):
            return False
    return True


def restrictions_equal(a: Superchannel, b: Superchannel, tol: float | None = None) -> bool:
    """Whether two supermaps agree on the whole channel span."""
    tol = resolve(tol, DEFAULTS.rel_tol)
    if (a.d1, a.r1, a.d2, a.r2) != (b.d1, b.r1, b.d2, b.r2):
        raise ValueError("superchannel dimensions do not match")
    for x in span_basis(a.d1, a.r1):
        ya = apply_superchannel(a, x)
        yb = apply_superchannel(b, x)
        if frob(ya - yb) > tol * max(1.0, frob(ya), frob(yb)):
            return False
    return True


def marginal(sc: Superchannel) -> np.ndarray:
    """Partial trace of the supermap Choi matrix over both output-side factors."""
    return partial_trace(sc.choi, sc.dims, traced={1, 3})


def induced_marginal_map(sc: Superchannel, tol: float | None = None) -> ChannelChoi:
    """The unital CP map N: M_{d1} -> M_{d2} governing output marginals.

    N is defined by lifting X to X tensor I/r1, applying the supermap and
    tracing out the r2 factor.  For a superchannel the result is independent
    of the lift: tracing the image over r2 equals N applied to the input
    traced over r1, for every input.  That identity is verified on the full
    matrix-unit basis and a ``ValueError`` reports the residual otherwise.
    """
    tol = resolve(tol, DEFAULTS.rel_tol)
    d1, r1, d2, r2 = sc.dims
    lift = np.eye(r1, dtype=complex) / r1
    images = []
    for i in range(d1):
        for j in range(d1):
            out = apply_superchannel(sc, kron(matrix_unit(d1, i, j), lift))
            images.append(partial_trace(out, (d2, r2), {1}))
    n_map = choi_from_unit_images(images)

    scale = rel_scale(sc.choi)
    residual = 0.0
    for i in range(d1):
        for j in range(d1):
            for k in range(r1):
                for l in range(r1):
                    out = apply_superchannel(sc, kron(matrix_unit(d1, i, j),
                                                      matrix_unit(r1, k, l)))
                    got = partial_trace(out, (d2, r2), {1})
                    want = n_map.block(i, j) if k == l else np.zeros((d2, d2))
                    residual = max(residual, frob(got - want))
    if residual > tol * scale:
        raise ValueError(f"marginal map is lift-dependent, residual {residual:.3e}: "
                         "input is not a superchannel")
    return n_map


def aux_dim(sc: Superchannel, eps: float | None = None) -> int:
    """Auxiliary dimension of the pre/post form: rank of the double marginal."""
    return rank_eps(marginal(sc), eps)


def check_order_unit(sc: Superchannel, tol: float | None = None) -> bool:
    """Whether the supermap fixes the identity (the span's order unit)."""
    tol = resolve(tol, DEFAULTS.rel_tol)
    out = apply_superchannel(sc, np.eye(sc.d1 * sc.r1, dtype=complex))
    return frob(out - np.eye(sc.d2 * sc.r2)) <= tol * max(1.0, float(sc.d2 * sc.r2))


def _pre_isometry_images(v: np.ndarray, d2: int) -> list[np.ndarray]:
    return [v @ matrix_unit(d2, i, j) @ v.conj().T for i in range(d2) for j in range(d2)]


def recompose(v_pre: np.ndarray, post: ChannelChoi, e: int) -> Superchannel:
    """Assemble the superchannel realised by an isometric pre-processing
    followed by the input map (tensored with an e-dimensional identity) and a
    post-processing channel.

    Shapes: ``v_pre`` is (d1*e) x d2 with orthonormal columns and ``post``
    maps M_{r1 e} to M_{r2}.  The output is built by evaluating the
    composition on every matrix unit of M_{d1}(M_{r1}).
    """
    v = np.asarray(v_pre, dtype=complex)
    if v.ndim != 2 or v.shape[0] % e:
        raise ValueError(f"pre-isometry shape {v.shape} incompatible with e={e}")
    d1 = v.shape[0] // e
    d2 = v.shape[1]
    if post.d % e:
        raise ValueError(f"post-channel input {post.d} incompatible with e={e}")
    r1 = post.d // e
    r2 = post.r
    if frob(v.conj().T @ v - np.eye(d2)) > 1e-9 * max(1.0, np.sqrt(d2)):
        raise ValueError("pre-processing matrix is not an isometry within tolerance")
    if not (is_cp(post) and is_tp(post)):
        raise ValueError("post-processing map is not a channel")

    pre_images = _pre_isometry_images(v, d2)
    ide = identity_channel(e)
    n1 = d1 * r1
    images = []
    for p in range(n1):
        for q in range(n1):
            mid = tensor(ChannelChoi(d1, r1, matrix_unit(n1, p, q)), ide)
            blocks = [apply_choi(post, apply_choi(mid, w)) for w in pre_images]
            images.append(choi_from_unit_images(blocks).choi)
    choi = choi_from_unit_images(images).choi
    return Superchannel(d1, r1, d2, r2, (choi + choi.conj().T) / 2)


def _post_constraint_system(sc: Superchannel, v: np.ndarray,
                            e: int) -> tuple[np.ndarray, np.ndarray]:
    """Linear system pinning the post-processing Choi matrix.

    Rows force the recomposition to reproduce the supermap on every matrix
    unit of M_{d1}(M_{r1}) and the post map to be trace preserving.
    """
    d1, r1, d2, r2 = sc.dims
    n1 = d1 * r1
    n_in = r1 * e
    big = n_in * r2
    pre_images = _pre_isometry_images(v, d2)
    ide = identity_channel(e)
    rows, rhs = [], []
    for p in range(n1):
        for q in range(n1):
            mid = tensor(ChannelChoi(d1, r1, matrix_unit(n1, p, q)), ide)
            target = apply_superchannel(sc, matrix_unit(n1, p, q)).reshape(d2, r2, d2, r2)
            for w, m in enumerate(pre_images):
                i, j = divmod(w, d2)
                rows.append(choi_action_rows(apply_choi(mid, m), n_in, r2))
                rhs.append(vec(target[i, :, j, :]))
    tp_rows = np.zeros((n_in * n_in, big * big), dtype=complex)
    tp_rhs = np.zeros(n_in * n_in, dtype=complex)
    for c in range(n_in):
        for a in range(n_in):
            for s in range(r2):
                tp_rows[c * n_in + a, (c * r2 + s) * big + (a * r2 + s)] += 1.0
            tp_rhs[c * n_in + a] = 1.0 if c == a else 0.0
    rows.append(tp_rows)
    rhs.append(tp_rhs)
    return np.vstack(rows), np.concatenate(rhs)


def pre_post_form(sc: Superchannel, tol: float | None = None) -> PrePostForm:
    """Factor a superchannel into an isometric pre-processing and a post channel.

    The pre-isometry is the Stinespring dilation of the dual of the induced
    marginal map, with the auxiliary dimension equal to its Kraus rank (the
    rank of the double marginal).  The post channel is recovered by solving
    the linear system that makes the composition reproduce the supermap on
    the full matrix-unit basis; the least-squares point is certified PSD and
    trace preserving, with an alternating-projection repair if the plain
    solve lands outside the cone.  Raises ``ArithmeticError`` when no
    certified solution is found.
    """
    tol = resolve(tol, DEFAULTS.rel_tol)
    d1, r1, d2, r2 = sc.dims
    n_map = induced_marginal_map(sc, tol)
    ks = kraus_from_choi(dual_channel(n_map))
    e = len(ks.ops)
    # Stacking the conjugated Kraus operators of the dual marginal map gives
    # the isometry whose row-major composite index (i, a) makes the
    # composition below reproduce the supermap exactly.
    v = np.zeros((d1 * e, d2), dtype=complex)
    for a, b_op in enumerate(ks.ops):
        for i in range(d1):
            v[i * e + a, :] = b_op[i, :].conj()

    a_sys, b_sys = _post_constraint_system(sc, v, e)
    n_post = r1 * e * r2
    z, *_ = np.linalg.lstsq(a_sys, b_sys, rcond=None)
    c_post = z.reshape(n_post, n_post)
    c_post = (c_post + c_post.conj().T) / 2
    sys_scale = max(1.0, float(np.max(np.abs(b_sys))))
    if np.max(np.abs(a_sys @ vec(c_post) - b_sys)) > 1e-7 * sys_scale:
        raise ArithmeticError("post-channel system has no Hermitian solution; "
                              "input is not a superchannel")

    w, _ = herm_eig(c_post)
    if w[-1] < -DEFAULTS.psd_tol * rel_scale(c_post):
        report = feasibility.solve(feasibility.linear_affine_set(a_sys, b_sys, n_post),
                                   seed_point=c_post, max_iter=50_000)
        if report.status != feasibility.FEASIBLE:
            raise ArithmeticError("post-channel recovery failed the PSD repair")
        c_post = report.point
    else:
        c_post = psd_project(c_post)

    post = ChannelChoi(r1 * e, r2, c_post)
    if not (is_cp(post) and is_tp(post, tol=1e-7)):
        raise ArithmeticError("recovered post-processing map failed the channel check")
    rebuilt = recompose(v, post, e)
    residual = frob(rebuilt.choi - sc.choi)
    if residual > 1e-8 * rel_scale(sc.choi):
        raise ArithmeticError(f"recomposition residual {residual:.3e} above tolerance")
    return PrePostForm(e, v, post)


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
        if u.shape != (n, n) or frob(u.conj().T @ u - np.eye(n)) > 1e-9 * max(1.0, np.sqrt(n)):
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
    if frob(u.conj().T @ u - np.eye(n)) > 1e-9 * max(1.0, np.sqrt(n)):
        raise ValueError("input is not unitary within tolerance")
    eps = resolve(eps, DEFAULTS.rel_tol)
    t = u.reshape(d, r, d, r).transpose(0, 2, 1, 3).reshape(d * d, r * r)
    left, s, right = np.linalg.svd(t)
    if len(s) > 1 and s[1] > eps * max(1.0, s[0]):
        return None
    u1 = np.sqrt(d) * left[:, 0].reshape(d, d)
    u2 = np.sqrt(r) * right[0, :].reshape(r, r)
    flat = u1.reshape(-1)
    pos = int(np.argmax(np.abs(flat) > 1e-8 * np.max(np.abs(flat))))
    phase = flat[pos] / abs(flat[pos])
    u1 = u1 / phase
    u2 = u2 * phase
    if frob(u - kron(u1, u2)) > 1e-8 * rel_scale(u):
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
