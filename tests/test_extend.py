import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from superchannels.extend import (
    SpanAction,
    affine_set,
    extend_action,
    extension_spread,
    restrict_superchannel,
    tp_extension,
)
from superchannels.feasibility import FEASIBLE, INFEASIBLE, certificate
from superchannels.gallery import (
    block_trace_readout,
    no_tp_action,
    no_tp_images,
    no_tp_superchannel,
    readout_action,
)
from superchannels.opsys import span_basis
from superchannels.supermaps import (
    apply_superchannel,
    identity_superchannel,
    is_superchannel,
    random_superchannel,
    restrictions_equal,
    unitary_superchannel,
)
from superchannels.linalg import psd_project, random_hermitian, random_unitary


def test_restriction_of_readouts_coincide():
    a1 = restrict_superchannel(block_trace_readout(0))
    a2 = restrict_superchannel(block_trace_readout(1))
    for x, y in zip(a1.images, a2.images):
        np.testing.assert_allclose(x, y, atol=1e-10)


def test_restriction_of_identity_returns_basis():
    action = restrict_superchannel(identity_superchannel(2, 2))
    for img, basis_elt in zip(action.images, span_basis(2, 2)):
        np.testing.assert_allclose(img, basis_elt, atol=1e-12)


def test_action_validates_image_count():
    with pytest.raises(ValueError):
        SpanAction(2, 2, 1, 1, (np.eye(1),) * 5)


def test_seeded_run_is_a_fixed_point():
    g1 = block_trace_readout(0)
    action = restrict_superchannel(g1)
    report = extend_action(action, seed_point=g1)
    assert report.status == FEASIBLE
    np.testing.assert_allclose(report.witness.choi, g1.choi, atol=1e-10)


def test_extension_of_restrictions_never_infeasible():
    """Restrictions of actual superchannels always re-extend.

    All 20 end feasible at a cap of 20,000 iterations, and every witness
    verifies.  Seeds 415 and 419 have thin extension sets that
    Douglas-Rachford alone crosses slowly (seed 415 not within the cap);
    their witnesses come from the Newton phase after iteration 1,024 and are
    positive definite.  The gap windows of a Douglas-Rachford history after
    burn-in shrink, here on seed 401's 2,261 iterations, a run that crosses
    the Newton phase without a strict witness and resumes.
    """
    for seed in range(400, 420):
        sc = random_superchannel(2, 2, 2, 2, e=1 + seed % 2, seed=seed)
        report = extend_action(restrict_superchannel(sc), max_iter=20_000)
        assert report.status == FEASIBLE, seed
        assert is_superchannel(report.witness, 1e-7)
        assert restrictions_equal(report.witness, sc, 1e-6)
        if seed in (415, 419):
            assert np.linalg.eigvalsh(report.witness.choi)[0] > 0
        if seed == 401:
            h = report.gap_history
    assert len(h) == 2261
    windows = [max(h[i:i + 100]) for i in range(100, len(h) - 100, 100)]
    for earlier, later in zip(windows, windows[1:]):
        assert later <= earlier * (1 + 1e-9)


def test_certificate_margin_nonnegative_at_a_rounding_edge():
    """A displacement on a feasible set whose margin, without the rounding
    charge on ``<W, anchor>`` and ``lambda_min(W)``, reads -4.4e-15: a false
    proof of infeasibility."""
    sc = random_superchannel(3, 2, 3, 2, e=1, seed=[0, 3, 2, 3, 2, 1])
    aff = affine_set(restrict_superchannel(sc))
    y = psd_project(aff.anchor)
    assert certificate(aff, y, aff.project(y)).margin >= 0


# restrictions on which the margin read below zero at step 0 before rounding
# was charged to it
@example(dims=(2, 2, 2, 2), e=1, seed=15)
@example(dims=(2, 3, 2, 3), e=1, seed=5)
@example(dims=(3, 2, 3, 2), e=1, seed=33)
@settings(max_examples=15, deadline=None)
@given(dims=st.sampled_from([(2, 2, 2, 2), (2, 3, 2, 3), (3, 2, 3, 2)]),
       e=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_certificate_never_proves_a_feasible_set_infeasible(dims, e, seed):
    """On the restriction of a superchannel, the certificate built from any
    PSD point has a margin >= 0: only the certificate guards "infeasible".
    The points are ``psd_project(anchor + s H)`` for a random Hermitian H;
    a search of 300 iterations (9 checks) never ends infeasible either, and
    its witness verifies."""
    rng = np.random.default_rng(seed)
    sc = random_superchannel(*dims, e=e, seed=rng)
    action = restrict_superchannel(sc)
    aff = affine_set(action)
    h = random_hermitian(aff.anchor.shape[0], rng)
    for step in (0.0, 1e-6, 0.1, 3.0):
        y = psd_project(aff.anchor + step * h)
        assert certificate(aff, y, aff.project(y)).margin >= 0
    report = extend_action(action, max_iter=300)
    assert report.status != INFEASIBLE
    if report.status == FEASIBLE:
        assert is_superchannel(report.witness, 1e-7)
        assert restrictions_equal(report.witness, sc, 1e-6)


def test_witness_convexity():
    from superchannels.linalg import herm_eig
    from superchannels.supermaps import Superchannel

    action = readout_action()
    g1, g2 = block_trace_readout(0), block_trace_readout(1)
    w1 = extend_action(action, seed_point=g1).witness
    w2 = extend_action(action, seed_point=g2).witness
    rng = np.random.default_rng(5)
    basis = span_basis(2, 2)
    for t in rng.uniform(0, 1, size=10):
        mix = Superchannel(2, 2, 1, 1, t * w1.choi + (1 - t) * w2.choi)
        w, _ = herm_eig(mix.choi)
        assert w[-1] >= -1e-9
        for x, y in zip(basis, action.images):
            np.testing.assert_allclose(apply_superchannel(mix, x), y, atol=1e-8)


def test_no_tp_extension_family():
    action = no_tp_action()
    printed = no_tp_superchannel()

    cp_report = extend_action(action)
    assert cp_report.status == FEASIBLE

    seeded = extend_action(action, seed_point=printed)
    assert seeded.status == FEASIBLE
    np.testing.assert_allclose(seeded.witness.choi, printed.choi, atol=1e-8)

    tp_report = tp_extension(action)
    assert tp_report.status == INFEASIBLE
    assert tp_report.gap > 1e-6
    # the certificate checks at iteration 4 (checks run at 1, 2, 4, 8, ...)
    assert tp_report.iterations <= 8
    assert tp_report.certificate.margin < 0


def test_infeasibility_confirmed_by_diagonal_linear_program():
    """Independent check: diagonals of any TP extension satisfy an infeasible LP.

    Variables are the four diagonals (a, b, c, d) of the images of the
    diagonal matrix units.  Positivity forces them nonnegative, the span
    action pins the pairwise sums, and trace preservation forces each to sum
    to one.
    """
    a_img, b_img, _, _ = no_tp_images()
    pair_sum_ac = np.diagonal(a_img).real  # equals a + c and a + d
    pair_sum_bc = np.diagonal(b_img).real  # equals b + c and b + d
    n = 16  # a(4) b(4) c(4) d(4)
    rows, rhs = [], []

    def eq(idx_one, idx_two, value):
        row = np.zeros(n)
        row[idx_one] = 1.0
        row[idx_two] = 1.0
        rows.append(row)
        rhs.append(value)

    for i in range(4):
        eq(i, 8 + i, pair_sum_ac[i])        # a_i + c_i
        eq(i, 12 + i, pair_sum_ac[i])       # a_i + d_i
        eq(4 + i, 8 + i, pair_sum_bc[i])    # b_i + c_i
        eq(4 + i, 12 + i, pair_sum_bc[i])   # b_i + d_i
    for block in range(4):                  # trace preservation
        row = np.zeros(n)
        row[4 * block: 4 * block + 4] = 1.0
        rows.append(row)
        rhs.append(1.0)

    res = linprog(np.zeros(n), A_eq=np.array(rows), b_eq=np.array(rhs),
                  bounds=[(0, None)] * n, method="highs")
    assert not res.success  # the relaxation is already empty

    # dropping trace preservation makes the relaxation feasible
    res_cp = linprog(np.zeros(n), A_eq=np.array(rows[:-4]), b_eq=np.array(rhs[:-4]),
                     bounds=[(0, None)] * n, method="highs")
    assert res_cp.success


def test_tp_extension_feasible_cases():
    ident = restrict_superchannel(identity_superchannel(2, 2))
    assert tp_extension(ident, seed_point=identity_superchannel(2, 2)).status == FEASIBLE
    u_sc = unitary_superchannel(random_unitary(2, 0), random_unitary(2, 1))
    report = tp_extension(restrict_superchannel(u_sc), seed_point=u_sc)
    assert report.status == FEASIBLE


def test_extension_spread_of_readout_action():
    action = readout_action()
    g1, g2 = block_trace_readout(0), block_trace_readout(1)
    spread = extension_spread(action, [g1.choi, g2.choi, np.zeros((4, 4))])
    assert spread.min_e == 1
    assert spread.max_e == 2
    assert 1 in spread.aux_dims and 2 in spread.aux_dims


def test_extension_spread_identity():
    ident = identity_superchannel(2, 2)
    spread = extension_spread(restrict_superchannel(ident), [ident.choi])
    assert spread.min_e == spread.max_e == 1


def test_extension_spread_bounds_generator():
    sc = random_superchannel(2, 2, 2, 2, e=2, seed=31)
    spread = extension_spread(restrict_superchannel(sc), [sc.choi])
    assert spread.min_e <= 2


def test_inconsistent_action_rejected():
    action = readout_action()
    images = list(action.images)
    images[0] = images[0] + 0.5 * np.eye(1)  # breaks the scaling factor
    with pytest.raises(ValueError):
        extend_action(SpanAction(2, 2, 1, 1, tuple(images)))


def test_adjoint_incompatible_action_makes_system_inconsistent():
    """A Hermitian basis element with a non-Hermitian image passes the
    blockwise membership checks but admits no Hermitian supermap at all; the
    solver reports the inconsistent system rather than searching."""
    basis = span_basis(2, 1)
    assert len(basis) == 1
    lam = np.trace(basis[0]).real / 2
    image = np.array([[lam / 2, 1.0], [0.0, lam / 2]], dtype=complex)  # trace lam, not Hermitian
    action = SpanAction(2, 1, 1, 2, (image,))
    with pytest.raises(ValueError):
        extend_action(action)


def test_non_positive_iteration_cap_rejected():
    for cap in (0, -5):
        with pytest.raises(ValueError, match="iteration cap"):
            extend_action(readout_action(), max_iter=cap)
