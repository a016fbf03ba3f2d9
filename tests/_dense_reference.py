"""Dense reference implementations that the tests compare the closed forms against.

Nothing here is used by the library.  The linear-system helpers write the
constraints on a Choi matrix as an explicit complex system on vec(C), turn it
into a real system on Hermitian coordinates and project with a
pseudo-inverse; the loops evaluate a supermap or a pre/post realisation on
every matrix unit, or test span preservation and restriction equality one
span basis element at a time.  ``reference_solve`` is the Douglas-Rachford
loop written out with validated, symmetrised eigendecompositions and
out-of-place updates.
"""

import numpy as np

from superchannels.channels import (
    ChannelChoi,
    apply_choi,
    choi_from_unit_images,
    identity_channel,
    tensor,
)
from superchannels.config import DEFAULTS, resolve
from superchannels.extremal import from_coords, hermitian_basis
from superchannels.feasibility import (
    FEASIBLE,
    INFEASIBLE,
    UNDETERMINED,
    AffineSet,
    Directions,
    ProjectionReport,
    certificate,
)
from superchannels.linalg import (
    frob,
    herm_eig,
    kron,
    matrix_unit,
    partial_trace,
    rel_scale,
    vec,
)
from superchannels.opsys import span_basis, span_membership
from superchannels.supermaps import Superchannel, apply_superchannel


def choi_action_rows(m: np.ndarray, dim_in: int, dim_out: int) -> np.ndarray:
    """Linearisation of C -> vec(phi_C(m)) over vec(C).

    Rows are indexed by the output entry (u, v); the underlying identity is
    phi_C(m)[u, v] = sum_{c,a} m[c, a] C[(c,u), (a,v)].
    """
    m = np.asarray(m, dtype=complex)
    n = dim_in * dim_out
    rows = np.zeros((dim_out * dim_out, n * n), dtype=complex)
    for c in range(dim_in):
        for a in range(dim_in):
            x = m[c, a]
            if x == 0:
                continue
            for u in range(dim_out):
                for v in range(dim_out):
                    rows[u * dim_out + v, (c * dim_out + u) * n + (a * dim_out + v)] += x
    return rows


def linear_system(action, tp: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """The extension constraints as a dense complex system ``A vec(C) = b``:
    the image of every canonical span basis element, plus ``Tr_{n2} C = I``
    with ``tp``.  Returns ``(A, b, n)``."""
    n1 = action.d1 * action.r1
    n2 = action.d2 * action.r2
    n = n1 * n2
    rows = [choi_action_rows(x, n1, n2) for x in span_basis(action.d1, action.r1)]
    rhs = [vec(y) for y in action.images]
    if tp:
        tp_rows = np.zeros((n1 * n1, n * n), dtype=complex)
        for p in range(n1):
            for q in range(n1):
                for u in range(n2):
                    tp_rows[p * n1 + q, (p * n2 + u) * n + (q * n2 + u)] = 1.0
        rows.append(tp_rows)
        rhs.append(vec(np.eye(n1)))
    return np.vstack(rows), np.concatenate(rhs), n


def to_coords(m: np.ndarray, n: int) -> np.ndarray:
    """Coordinates of a Hermitian matrix in ``extremal.hermitian_basis(n)``."""
    iu, ju = np.triu_indices(n, 1)
    off = m[iu, ju]
    return np.concatenate([np.diagonal(m).real, np.sqrt(2.0) * off.real,
                           np.sqrt(2.0) * off.imag])


def realify(a_complex: np.ndarray, b_complex: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rewrite complex constraints on vec(C) as real constraints on Hermitian coordinates."""
    basis = hermitian_basis(n)
    v = basis.reshape(n * n, n * n).T  # column k is vec of basis element k
    m = a_complex @ v
    a_real = np.vstack([m.real, m.imag])
    b_real = np.concatenate([b_complex.real, b_complex.imag])
    return a_real, b_real


def linear_affine_set(a_complex: np.ndarray, b_complex: np.ndarray, n: int,
                      directions: Directions) -> AffineSet:
    """The Hermitian solutions of ``a_complex @ vec(C) = b_complex`` as an ``AffineSet``.

    Realifies the system and takes its pseudo-inverse.  Singular values below
    ``DEFAULTS.rel_tol`` times the largest are treated as zero; numpy's own
    cutoff near machine precision keeps noise directions and can turn a
    consistent system inconsistent.  ``directions``, the basis of the set's
    directions that the Newton phase uses, is passed through.
    """
    a_real, b_real = realify(a_complex, b_complex, n)
    pinv = np.linalg.pinv(a_real, rcond=DEFAULTS.rel_tol)
    base = pinv @ b_real
    proj = np.eye(a_real.shape[1]) - pinv @ a_real

    def residual(c: np.ndarray) -> float:
        return float(np.max(np.abs(a_real @ to_coords(c, n) - b_real)))

    return AffineSet(
        project=lambda c: from_coords(proj @ to_coords(c, n) + base, n),
        anchor=from_coords(base, n),
        residual=residual,
        row_bound=float(np.sqrt((a_real * a_real).sum(axis=1).max())),
        rhs_scale=max(1.0, float(np.max(np.abs(b_real)))),
        directions=directions,
    )


def recompose_by_matrix_units(v: np.ndarray, post: ChannelChoi, e: int) -> Superchannel:
    """The pre/post composition evaluated on every matrix unit of M_{d1}(M_{r1})."""
    d1, d2 = v.shape[0] // e, v.shape[1]
    r1, r2 = post.d // e, post.r
    pre_images = [v @ matrix_unit(d2, i, j) @ v.conj().T for i in range(d2) for j in range(d2)]
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


def marginal_residual_by_matrix_units(sc: Superchannel, n_map: ChannelChoi) -> float:
    """Largest ||Tr_{r2} S(E_ij tensor E_kl) - delta_kl N(E_ij)||_F over all matrix units."""
    worst = 0.0
    for i in range(sc.d1):
        for j in range(sc.d1):
            for k in range(sc.r1):
                for l in range(sc.r1):
                    out = apply_superchannel(sc, kron(matrix_unit(sc.d1, i, j),
                                                      matrix_unit(sc.r1, k, l)))
                    got = partial_trace(out, (sc.d2, sc.r2), {1})
                    want = n_map.block(i, j) if k == l else np.zeros((sc.d2, sc.d2))
                    worst = max(worst, frob(got - want))
    return worst


def span_preserved_by_basis(images, dims, tol: float) -> bool:
    """Whether every image of a canonical span basis element lies in the output
    span with that element's trace-scaling factor, each judged relative to the
    matrices involved."""
    d1, r1, d2, r2 = dims
    for x, y in zip(span_basis(d1, r1), images):
        lam = span_membership(x, d1, r1, tol).scale
        mem = span_membership(y, d2, r2, tol)
        if not mem.member or abs(mem.scale - lam) > tol * max(1.0, abs(lam)):
            return False
    return True


def is_superchannel_by_basis(sc: Superchannel, tol: float) -> bool:
    """PSD Choi matrix plus ``span_preserved_by_basis`` on its basis images."""
    w, _ = herm_eig(sc.choi)
    if w[-1] < -tol * rel_scale(sc.choi):
        return False
    images = [apply_superchannel(sc, x) for x in span_basis(sc.d1, sc.r1)]
    return span_preserved_by_basis(images, sc.dims, tol)


def restrictions_equal_by_basis(a: Superchannel, b: Superchannel, tol: float) -> bool:
    """Whether the two supermaps' images of every span basis element agree to
    ``tol * max(1, ||y_a||_F, ||y_b||_F)``."""
    for x in span_basis(a.d1, a.r1):
        ya = apply_superchannel(a, x)
        yb = apply_superchannel(b, x)
        if frob(ya - yb) > tol * max(1.0, frob(ya), frob(yb)):
            return False
    return True


def reference_solve(affine: AffineSet, seed_point=None, max_iter=None) -> ProjectionReport:
    """``feasibility.solve`` with every step spelled out: ``herm_eig`` (checked
    and symmetrised) for the PSD shadow, a symmetrised reconstruction, and a
    fresh array for each update."""
    max_iter = int(resolve(max_iter, DEFAULTS.max_iter))
    affine_thr = DEFAULTS.affine_tol * affine.rhs_scale
    if affine.residual(affine.anchor) > affine_thr:
        raise ValueError("affine constraint system is inconsistent")
    project = affine.project
    if seed_point is not None:
        s = np.asarray(seed_point, dtype=complex)
        x = project((s + s.conj().T) / 2)
    else:
        x = affine.anchor.copy()
    px = py = x
    cert = None
    history = []
    for it in range(1, max_iter + 1):
        w, v = herm_eig(x)
        m = (v * np.maximum(w, 0.0)) @ v.conj().T
        y = (m + m.conj().T) / 2
        py = project(y)
        gap = float(np.linalg.norm(y - py))
        history.append(gap)
        if affine.row_bound * gap <= 2 * affine_thr or gap <= affine_thr:
            affine_res = affine.residual(y)
            if affine_res <= affine_thr:
                return ProjectionReport(FEASIBLE, y, gap, it, affine_res, 0.0, history)
        if it & (it - 1) == 0:
            cert = certificate(affine, y, py)
            if cert.margin < 0:
                return ProjectionReport(INFEASIBLE, None, gap, it,
                                        affine.residual(y), gap, history, cert)
        x = x + 2 * py - px - y
        px = py
    w, _ = herm_eig(py)
    return ProjectionReport(UNDETERMINED, None, history[-1] if history else np.inf,
                            max_iter, 0.0, float(max(0.0, -w[-1])), history, cert)
