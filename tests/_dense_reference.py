"""Dense reference implementations that the tests compare the closed forms against.

Nothing here is used by the library.  ``hermitian_basis`` is an orthonormal
real basis of the Hermitian matrices; the linear-system helpers write the
constraints on a Choi matrix as an explicit complex system on vec(C), turn it
into a real system on coordinates in that basis and project with a
pseudo-inverse, and the Newton phase's direction coordinates are checked
against the basis ``A (x) I_r / sqrt(r) (x) H`` built from it; the loops evaluate a supermap or a pre/post realisation on
every matrix unit, or test span preservation and restriction equality one
span basis element at a time, or build Kraus operators one eigenvalue at a
time, or count a Hermitian rank from eigenvalues.  ``span_basis_by_gram_schmidt``
builds the canonical span basis by modified Gram-Schmidt over every projected
matrix unit, dropping the remainders at ``DEFAULTS.rel_tol``.  ``reference_solve`` is
the Douglas-Rachford loop written out with validated, symmetrised
eigendecompositions and out-of-place updates; ``reference_newton_phase`` is
the Newton phase with the identity as its unit (``W - t I >= 0``, ``Tr X =
1``), the oracle for the phase measured against the output marginal.
``span_images_by_einsum`` is ``span_images`` as a 4-index contraction, and
``assemble_by_einsum`` and ``post_choi_by_einsum`` are ``recompose``'s Choi
matrix and ``pre_post_form``'s post Choi matrix as one planned einsum each.
``perturbation_search`` decides extremality by brute force: it solves for
real coordinates of Hermitian coefficient matrices in ``hermitian_basis(k)``
and tries seeded random null directions until one gives a checked pair of CP
maps in the class.
"""

from functools import lru_cache

import numpy as np

from superchannels.channels import (
    ChannelChoi,
    apply_choi,
    choi_from_unit_images,
    dual_channel,
    identity_channel,
    is_cp,
    kraus_from_choi,
    tensor,
)
from superchannels.config import DEFAULTS, resolve
from superchannels.extremal import ConstraintSpaces, _pair_rows
from superchannels.feasibility import (
    _NEWTON_STEP_CAP,
    _STEP_FRACTION,
    CERTIFICATE,
    FEASIBLE,
    INFEASIBLE,
    NONE,
    SHADOW,
    STRICT,
    UNDETERMINED,
    AffineSet,
    Certificate,
    Directions,
    FeasibilityReport,
    _shadow,
    certificate,
)
from superchannels.linalg import (
    frob,
    herm_eig,
    kron,
    matrix_unit,
    null_space,
    partial_trace,
    rel_scale,
    vec,
)
from superchannels.opsys import project_to_span, span_basis, span_dim, span_membership
from superchannels.supermaps import Superchannel, apply_superchannel

# perturbation_search's null directions tried, their operator norm, and their seed
TRIALS = 8
STEP = 0.5
SEED = 0


def span_basis_by_gram_schmidt(d: int, r: int) -> np.ndarray:
    """The canonical span basis by modified Gram-Schmidt, in row-major order
    of the projected matrix units, as a (span_dim, dr, dr) array."""
    n = d * r
    kept: list[np.ndarray] = []
    for p in range(n):
        for q in range(n):
            v = vec(project_to_span(matrix_unit(n, p, q), d, r))
            for b in kept:
                v = v - np.vdot(b, v) * b
            for b in kept:  # second pass stabilises near-dependent vectors
                v = v - np.vdot(b, v) * b
            norm = np.linalg.norm(v)
            if norm > DEFAULTS.rel_tol:
                kept.append(v / norm)
    if len(kept) != span_dim(d, r):
        raise RuntimeError(
            f"basis construction produced {len(kept)} elements, expected {span_dim(d, r)}")
    return np.array(kept).reshape(-1, n, n)


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


@lru_cache(maxsize=None)
def hermitian_basis(n: int, traceless: bool = False) -> np.ndarray:
    """Orthonormal real basis of the Hermitian n x n matrices, shape (n^2, n, n),
    or of the traceless ones, shape (n^2 - 1, n, n).

    Ordering: the n diagonal units (with ``traceless``, the n - 1 Helmert
    contrasts ``(E_00 + ... + E_{k-1,k-1} - k E_kk) / sqrt(k(k+1))`` in their
    place), then the symmetric combinations over the upper triangle in
    row-major order, then the antisymmetric ones.
    """
    diag = np.eye(n)
    if traceless:
        diag = np.array([np.r_[np.ones(k), -k, np.zeros(n - k - 1)] / np.sqrt(k * (k + 1))
                         for k in range(1, n)]).reshape(n - 1, n)
    mats = [np.diag(v).astype(complex) for v in diag]
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    for phase in (1.0, 1j):
        for p, q in pairs:
            m = np.zeros((n, n), dtype=complex)
            m[p, q] = phase / np.sqrt(2.0)
            m[q, p] = np.conj(phase) / np.sqrt(2.0)
            mats.append(m)
    out = np.array(mats).reshape(-1, n, n)
    out.setflags(write=False)
    return out


def direction_basis(d: int, r: int, k: int, tp: bool) -> np.ndarray:
    """The orthonormal basis ``A_i (x) I_r / sqrt(r) (x) H_j`` of an extension
    set's directions on ``C^d (x) C^r (x) C^k``, for ``A_i`` in
    ``hermitian_basis(d, traceless=True)`` and ``H_j`` in
    ``hermitian_basis(k, traceless=tp)``, indexed ``(i, j)`` in row-major
    order: shape ``((d^2 - 1)(k^2 - [tp]), n, n)`` with ``n = d r k``."""
    a, h = hermitian_basis(d, traceless=True), hermitian_basis(k, traceless=tp)
    b = np.einsum("ipq,st,juv->ijpsuqtv", a, np.eye(r) / np.sqrt(r), h)
    return b.reshape(len(a) * len(h), d * r * k, d * r * k)


def from_coords(x: np.ndarray, n: int) -> np.ndarray:
    """The Hermitian matrix with coordinates ``x`` in ``hermitian_basis(n)``."""
    return np.tensordot(x, hermitian_basis(n), 1)


def to_coords(m: np.ndarray, n: int) -> np.ndarray:
    """Coordinates of a Hermitian matrix in ``hermitian_basis(n)``."""
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


class RealSystem:
    """``a_complex @ vec(C) = b_complex`` on Hermitian C, realified and
    factorised by one thin SVD, so that pseudo-inverse projections at several
    cutoffs share the factorisation."""

    def __init__(self, a_complex: np.ndarray, b_complex: np.ndarray, n: int):
        self.a_real, self.b_real = realify(a_complex, b_complex, n)
        self.n = n
        self.u, self.s, self.vt = np.linalg.svd(self.a_real, full_matrices=False)

    def projection(self, rcond: float) -> tuple[np.ndarray, np.ndarray]:
        """``(I - pinv(a) a, pinv(a) b)`` on Hermitian coordinates, keeping the
        singular values above ``rcond`` times the largest, as
        ``np.linalg.pinv(a, rcond)`` does."""
        keep = self.s > rcond * self.s[0]
        v = self.vt[keep]
        base = v.T @ ((self.u[:, keep].T @ self.b_real) / self.s[keep])
        return np.eye(v.shape[1]) - v.T @ v, base


def linear_affine_set(system: RealSystem, directions: Directions) -> AffineSet:
    """The Hermitian solutions of a ``RealSystem`` as an ``AffineSet``.

    Projects with the pseudo-inverse.  Singular values below
    ``DEFAULTS.rel_tol`` times the largest are treated as zero; numpy's own
    cutoff near machine precision keeps noise directions and can turn a
    consistent system inconsistent.  ``directions``, the basis of the set's
    directions that the Newton phase uses, is passed through.
    """
    a_real, b_real, n = system.a_real, system.b_real, system.n
    proj, base = system.projection(DEFAULTS.rel_tol)

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


def kraus_by_eigenvalue_loop(phi: ChannelChoi, tol: float) -> list[np.ndarray]:
    """Kraus operators one eigenvalue at a time: each eigenvector with
    eigenvalue above ``tol * max(1, ||C||_F)``, scaled by its root, as a
    ``(d, r)`` matrix transposed."""
    w, v = herm_eig(phi.choi)
    cutoff = tol * rel_scale(phi.choi)
    return [(np.sqrt(w[a]) * v[:, a]).reshape(phi.d, phi.r).T
            for a in range(len(w)) if w[a] > cutoff]


def rank_by_eigenvalues(m: np.ndarray, eps: float | None = None) -> int:
    """Numerical rank of a Hermitian matrix: its eigenvalues of magnitude above
    ``eps * max(1, ||m||_F)``."""
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return int(np.count_nonzero(np.abs(w) > resolve(eps, DEFAULTS.rel_tol) * rel_scale(m)))


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


def span_images_by_einsum(choi: np.ndarray, dims: tuple[int, int, int, int]) -> np.ndarray:
    """``supermaps.span_images`` as the 4-index contraction
    ``Y_k[s, t] = sum_ij B_k[i, j] C[i, s, j, t]`` over the span basis B."""
    d1, r1, d2, r2 = dims
    c4 = np.asarray(choi).reshape(d1 * r1, d2 * r2, d1 * r1, d2 * r2)
    return np.einsum("kij,isjt->kst", span_basis(d1, r1), c4)


def assemble_by_einsum(v: np.ndarray, post: ChannelChoi, e: int) -> np.ndarray:
    """``recompose``'s Choi matrix as the einsum ``C[(i,k,j,s),(I,l,J,t)] =
    sum_ab v[(i,a),j] conj(v[(I,b),J]) P[(k,a,s),(l,b,t)]``, symmetrised."""
    d1, d2, r1, r2 = v.shape[0] // e, v.shape[1], post.d // e, post.r
    vt = v.reshape(d1, e, d2)
    p = post.choi.reshape(r1, e, r2, r1, e, r2)
    n = d1 * r1 * d2 * r2
    choi = np.einsum("iaj,IbJ,kaslbt->ikjsIlJt", vt, vt.conj(), p, optimize=True).reshape(n, n)
    return (choi + choi.conj().T) / 2


def post_choi_by_einsum(sc: Superchannel, v: np.ndarray, e: int) -> np.ndarray:
    """The post Choi matrix of ``pre_post_form`` for the pre-isometry ``v``: for
    ``W[(i,j),a] = v[(i,a),j]``, whose columns are orthogonal, the supermap Choi
    matrix sandwiched by ``pinv(W)`` on (d1,d2), symmetrised."""
    d1, r1, d2, r2 = sc.dims
    inv = np.linalg.pinv(v.reshape(d1, e, d2).transpose(0, 2, 1).reshape(d1 * d2, e))
    inv = inv.reshape(e, d1, d2)
    c = sc.choi.reshape(d1, r1, d2, r2, d1, r1, d2, r2)
    n_post = r1 * e * r2
    c_post = np.einsum("aij,ikjsIlJt,bIJ->kaslbt", inv, c, inv.conj(), optimize=True)
    c_post = c_post.reshape(n_post, n_post)
    return (c_post + c_post.conj().T) / 2


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


def reference_solve(affine: AffineSet, seed_point=None,
                    max_iter=None) -> tuple[FeasibilityReport, list[float]]:
    """``feasibility.solve`` without its Newton phase and with every step
    spelled out: ``herm_eig`` (checked and symmetrised) for the PSD shadow, a
    symmetrised reconstruction, and a fresh array for each update.  Returns
    the report and the gap of every iteration."""
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
    phase = {"newton_after": 0}  # no Newton phase
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
                return FeasibilityReport(status=FEASIBLE, iterations=it, gap=gap,
                                         affine_residual=affine_res, psd_residual=0.0,
                                         witness=y, **phase), history
        if it & (it - 1) == 0:
            cert = certificate(affine, y, py)
            if cert.margin < 0:
                return FeasibilityReport(status=INFEASIBLE, iterations=it, gap=gap,
                                         affine_residual=affine.residual(y), psd_residual=gap,
                                         certificate=cert, **phase), history
        x = x + 2 * py - px - y
        px = py
    w, _ = herm_eig(py)
    return FeasibilityReport(status=UNDETERMINED, iterations=max_iter,
                             gap=history[-1] if history else np.inf, affine_residual=0.0, psd_residual=float(max(0.0, -w[-1])),
                             certificate=cert, **phase), history


def reference_newton_phase(affine: AffineSet, start: np.ndarray | None = None
                 ) -> tuple[np.ndarray | Certificate | None, str, int,
                            tuple[float, np.ndarray] | None]:
    """A witness of the affine set, or a certificate that it misses the cone,
    by a primal-dual interior-point method.

    The primal maximises t subject to ``S = W - t I >= 0`` over ``W = start
    + combine(z)`` (``affine.directions``, z real); the dual minimises
    ``<anchor, X>`` over ``X >= 0`` with ``Tr X = 1`` and ``coords(X) = 0``,
    so every dual point bounds the best t.  Both start feasible: W at
    ``start``, an affine point (the anchor by default), with t below its
    spectrum, and ``X = I/n``.  A step is Mehrotra's predictor-corrector
    under Nesterov-Todd scaling (Todd, Toh & Tutuncu, SIAM J. Optim. 1998),
    with the Schur complement ``Tr(G A_i G A_j)`` over ``A = (combine(e_a),
    I)`` (``hessian(G)``, ``-coords(G^2)`` and ``Tr G^2``) at the scaling
    matrix G (``G S G = X``); each matrix moves ``_STEP_FRACTION`` of the
    way to the cone's boundary, at most a full step.  Returns ``(found,
    kind, steps, dual)``, ``dual`` the last ``(t, X)``; a witness passes the
    affine rule ``residual <= affine_tol * rhs_scale`` (``thr``), as a DR
    witness does.

    * ``STRICT``: ``t`` clears the floor ``4 (n+1) eps Tr(anchor)`` and a
      Cholesky factorisation of ``W - (t/2) I`` succeeds.  The backward
      error of a factorisation that succeeds is at most about ``(n+1) eps/2``
      times the trace (Demmel 1989; Rump, BIT 2006), and every point of the
      set shares the anchor's trace; the floor leaves a factor of four for
      complex arithmetic and the rounding of the shift, so ``lambda_min(W)
      >= t/2 - floor/2 > 0``.  This check comes first.
    * ``SHADOW``: with ``<anchor, X> < thr`` no matrix of the set has
      ``lambda_min`` above ``thr``, so the set is at most that thin (a
      single point, say).  W's PSD shadow (``_shadow``, as DR forms it) is
      returned, symmetrised, once it passes the affine rule.
    * ``CERTIFICATE``: with ``<anchor, X> < 0``, X is checked as a Farkas
      certificate by the rule DR's displacements pass, ``certificate(affine,
      X, 0)``, and returned once its margin is negative.
    * ``NONE``: when the duality gap ``<anchor, X> - t`` falls below the
      floor, S stops factorising, X or the Schur complement turns singular,
      or after ``_NEWTON_STEP_CAP`` steps; ``(None, NONE, 0, None)`` when the
      trace is not positive or S does not factorise at the start (its least
      eigenvalue, ``Tr(anchor)/n``, can lie within the rounding of
      ``||start||``).
    """
    dirs, anchor = affine.directions, affine.anchor
    n, m = anchor.shape[0], dirs.size
    trace = float(np.trace(anchor).real)
    if trace <= 0:  # a positive definite point has a positive trace
        return None, NONE, 0, None
    floor = 4 * (n + 1) * np.finfo(float).eps * trace
    thr = DEFAULTS.affine_tol * affine.rhs_scale
    eye = np.eye(n)

    def cholesky(a: np.ndarray):
        try:
            return np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return None

    w, x = anchor if start is None else (start + start.conj().T) / 2, eye / n
    t = float(np.linalg.eigvalsh(w)[0]) - trace / n
    low = cholesky(w - t * eye)
    if low is None:
        return None, NONE, 0, None
    unit = np.eye(1, m + 1, m)[0]
    for step in range(1, _NEWTON_STEP_CAP + 1):
        # R = L^-H Q diag(sqrt(lam)) for S = L L^H and L^H X L = Q diag(lam^2) Q^H
        # scales both matrices to diag(lam): R^H S R = R^-1 X R^-H; G = R R^H
        lam2, q = np.linalg.eigh(low.conj().T @ x @ low)
        if lam2[0] <= 0:
            return None, NONE, step, (t, x)
        lam = np.sqrt(lam2)
        root = np.sqrt(np.outer(lam, lam))
        r = np.linalg.inv(low).conj().T @ (q * np.sqrt(lam))
        rh = r.conj().T
        g = r @ rh
        g2 = g @ g
        schur = np.empty((m + 1, m + 1))
        schur[:m, :m] = dirs.hessian(g)
        schur[:m, m] = schur[m, :m] = -dirs.coords(g2)
        schur[m, m] = np.trace(g2).real

        def direction(d: np.ndarray, rhs: np.ndarray):
            """The step dy for ``rhs``, W's step and the scaled steps of S and X (sum d)."""
            dy = np.linalg.solve(schur, rhs)
            dw = dirs.combine(dy[:m])
            ds = rh @ (dw - dy[m] * eye) @ r
            return dy, dw, ds, d - ds

        def longest(ds: np.ndarray, dx: np.ndarray, frac: float) -> np.ndarray:
            """``frac`` of the longest steps keeping diag(lam) + a ds, + a dx PSD, at most 1."""
            lowest = np.linalg.eigvalsh(np.stack((ds, dx)) / root)[:, 0]
            return frac / np.maximum(frac, -lowest)

        try:
            # the predictor's target -diag(lam^2) gives d = -diag(lam), and
            # R diag(lam) R^H = X, so its right-hand side is the unit vector
            _, _, ds, dx = direction(-np.diag(lam), unit)
            mu = float(lam2.sum()) / n
            step_s, step_x = longest(ds, dx, 1.0)
            affine_mu = np.vdot(np.diag(lam) + step_x * dx, np.diag(lam) + step_s * ds).real / n
            cross = dx @ ds
            target = ((affine_mu / mu) ** 3 * mu * eye - np.diag(lam2)
                      - (cross + cross.conj().T) / 2)
            d = 2 * target / np.add.outer(lam, lam)  # (diag(lam) d + d diag(lam))/2 = target
            y = x + r @ d @ rh
            dy, dw, ds, dx = direction(d, np.append(dirs.coords(y), 1 - np.trace(y).real))
        except np.linalg.LinAlgError:
            return None, NONE, step, (t, x)
        step_s, step_x = longest(ds, dx, _STEP_FRACTION)
        w = w + step_s * dw
        t += step_s * float(dy[m])
        x = x + step_x * (r @ dx @ rh)
        x = (x + x.conj().T) / 2
        x = x / np.trace(x).real  # the step keeps Tr X = 1 only up to rounding
        low = cholesky(w - t * eye)
        if low is None:
            return None, NONE, step, (t, x)
        if t > floor:
            point = (w + w.conj().T) / 2
            if cholesky(point - t / 2 * eye) is not None:
                if affine.residual(point) <= thr:
                    return point, STRICT, step, (t, x)
                return None, NONE, step, (t, x)
        bound = float(np.vdot(x, anchor).real)
        if bound < thr:
            shadow = _shadow(w)
            shadow = (shadow + shadow.conj().T) / 2
            if affine.residual(shadow) <= thr:
                return shadow, SHADOW, step, (t, x)
        if bound < 0:
            cert = certificate(affine, x, 0)
            if cert.margin < 0:
                return cert, CERTIFICATE, step, (t, x)
        if bound - t < floor:
            return None, NONE, step, (t, x)
    return None, NONE, _NEWTON_STEP_CAP, (t, x)


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
    ks = kraus_from_choi(phi, tol)
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
    # ||W^T lam W^*||_F >= w_min ||lam||_F, and kraus_from_choi's Gram matrix is
    # diag(w) with every w above the psd_support cut, so w_min > tol * ||W||_2^2
    # and no real shift falls under this floor
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
