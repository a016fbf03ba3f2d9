import numpy as np
import pytest

from _dense_reference import (
    assemble_by_einsum,
    choi_action_rows,
    from_coords,
    marginal_residual_by_matrix_units,
    post_choi_by_einsum,
    realify,
    recompose_by_matrix_units,
    to_coords,
)
from superchannels.channels import (
    ChannelChoi,
    apply_choi,
    identity_channel,
    is_cp,
    is_tp,
    is_unital,
    random_channel,
    unitary_channel,
)
from superchannels.gallery import (
    block_trace_readout,
    entry_readout,
    no_tp_superchannel,
    perturbed_readout,
    readout_mixture,
)
from superchannels.linalg import (
    frob,
    is_isometry,
    kron,
    matrix_unit,
    partial_trace,
    random_hermitian,
    random_isometry,
    random_unitary,
    rank_eps,
    vec,
)
from superchannels.opsys import span_basis, span_membership
from superchannels.supermaps import (
    Superchannel,
    _assemble,
    apply_superchannel,
    as_channel,
    aux_dim,
    conjugation_supermap,
    factor_unitary,
    identity_superchannel,
    induced_marginal_map,
    is_superchannel,
    marginal,
    marginal_map_residual,
    pre_post_form,
    random_superchannel,
    recompose,
    restrictions_equal,
    tensor_superchannels,
    unitary_superchannel,
)

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)


def test_identity_superchannel_acts_trivially():
    ident = identity_superchannel(2, 2)
    phi = random_channel(2, 2, 3, seed=1)
    np.testing.assert_allclose(apply_superchannel(ident, phi).choi, phi.choi, atol=1e-12)


def test_readout_sends_channels_to_one():
    g1 = block_trace_readout(0)
    for seed in range(5):
        phi = random_channel(2, 2, 1 + seed % 4, seed)
        out = apply_superchannel(g1, phi)
        np.testing.assert_allclose(out.choi, [[1.0]], atol=1e-10)


def test_readout_choi_matrices():
    np.testing.assert_allclose(block_trace_readout(0).choi, np.diag([1, 1, 0, 0]))
    np.testing.assert_allclose(block_trace_readout(1).choi, np.diag([0, 0, 1, 1]))


def test_unitary_superchannel_conjugates():
    u1, u2 = random_unitary(2, 3), random_unitary(2, 4)
    sc = unitary_superchannel(u1, u2)
    w = random_unitary(2, 5)
    phi = unitary_channel(w)
    out = apply_superchannel(sc, phi)
    direct = kron(u1, u2) @ phi.choi @ kron(u1, u2).conj().T
    np.testing.assert_allclose(out.choi, direct, atol=1e-10)
    # the composite acts as conjugation by U2 W U1^T (transpose on the input leg)
    expected = unitary_channel(u2 @ w @ u1.T)
    np.testing.assert_allclose(out.choi, expected.choi, atol=1e-10)


def test_is_superchannel_on_examples():
    assert is_superchannel(identity_superchannel(2, 2))
    assert is_superchannel(block_trace_readout(0))
    assert is_superchannel(block_trace_readout(1))
    assert is_superchannel(readout_mixture(0.3))
    bad = Superchannel(2, 2, 1, 1, np.diag([1.0, 1.0, -0.1, 0.0]).astype(complex))
    assert not is_superchannel(bad)


def test_diagonal_example_is_cp_preserving_but_not_tp():
    sc = no_tp_superchannel()
    assert is_superchannel(sc)
    assert is_cp(as_channel(sc))
    assert not is_tp(as_channel(sc))


def test_readout_kraus_witness_form():
    # the two readouts act as C -> Tr(V^* C V) for stacked identity blocks
    g1, g2 = block_trace_readout(0), block_trace_readout(1)
    v1 = np.vstack([np.eye(2), np.zeros((2, 2))]).astype(complex)
    v2 = np.vstack([np.zeros((2, 2)), np.eye(2)]).astype(complex)
    rng = np.random.default_rng(6)
    c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_allclose(apply_superchannel(g1, c)[0, 0],
                               np.trace(v1.conj().T @ c @ v1), atol=1e-12)
    np.testing.assert_allclose(apply_superchannel(g2, c)[0, 0],
                               np.trace(v2.conj().T @ c @ v2), atol=1e-12)


def test_restrictions_equal_readouts():
    g1, g2 = block_trace_readout(0), block_trace_readout(1)
    assert restrictions_equal(g1, g2, 1e-10)
    assert frob(g1.choi - g2.choi) > 1
    assert restrictions_equal(g1, g1)
    assert restrictions_equal(g1, readout_mixture(0.3), 1e-10)


def test_restrictions_differ_for_distinct_actions():
    ident = identity_superchannel(2, 2)
    swapped = conjugation_supermap(SWAP, 2, 2)
    assert not restrictions_equal(ident, swapped)


def test_induced_map_of_identity():
    n_map = induced_marginal_map(identity_superchannel(2, 2))
    np.testing.assert_allclose(n_map.choi, identity_channel(2).choi, atol=1e-12)


def test_induced_map_of_readout_is_compression():
    n_map = induced_marginal_map(block_trace_readout(0))
    assert (n_map.d, n_map.r) == (2, 1)
    np.testing.assert_allclose(n_map.choi, matrix_unit(2, 0, 0), atol=1e-12)
    # unital: N(I) = 1
    np.testing.assert_allclose(apply_choi(n_map, np.eye(2, dtype=complex)), [[1.0]],
                               atol=1e-12)


def test_induced_map_of_unitary_superchannel():
    u1, u2 = random_unitary(2, 8), random_unitary(2, 9)
    n_map = induced_marginal_map(unitary_superchannel(u1, u2))
    np.testing.assert_allclose(n_map.choi, unitary_channel(u1).choi, atol=1e-10)


def test_induced_map_rejects_non_superchannels():
    bad = conjugation_supermap(SWAP @ kron(random_unitary(2, 1), np.eye(2)), 2, 2)
    with pytest.raises(ValueError):
        induced_marginal_map(bad)


def test_marginal_factorisation_on_random_inputs():
    rng = np.random.default_rng(40)
    for seed in range(5):
        sc = random_superchannel(2, 2, 2, 2, e=1 + seed % 2, seed=seed)
        n_map = induced_marginal_map(sc)
        assert is_cp(n_map)
        np.testing.assert_allclose(apply_choi(n_map, np.eye(2, dtype=complex)), np.eye(2),
                                   atol=1e-9)
        np.testing.assert_allclose(marginal(sc), sc.r1 * n_map.choi, atol=1e-9)
        for _ in range(10):
            c = random_hermitian(4, rng)
            lhs = partial_trace(apply_superchannel(sc, c), (2, 2), {1})
            rhs = apply_choi(n_map, partial_trace(c, (2, 2), {1}))
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_aux_dims_of_readouts_and_mixtures():
    assert aux_dim(block_trace_readout(0)) == 1
    assert aux_dim(block_trace_readout(1)) == 1
    np.testing.assert_allclose(marginal(block_trace_readout(0)), np.diag([2.0, 0.0]),
                               atol=1e-12)
    for p in (0.25, 0.5, 0.75):
        mix = readout_mixture(p)
        assert aux_dim(mix) == 2
        np.testing.assert_allclose(marginal(mix), np.diag([2 * p, 2 - 2 * p]), atol=1e-12)


def test_aux_dim_cross_check_against_induced_map_rank():
    for seed in range(5):
        sc = random_superchannel(2, 2, 2, 2, e=1 + seed % 2, seed=seed + 50)
        assert aux_dim(sc) == rank_eps(induced_marginal_map(sc).choi)


def test_pre_post_identity():
    form = pre_post_form(identity_superchannel(2, 2))
    assert form.e == 1
    np.testing.assert_allclose(np.abs(form.v_pre), np.eye(2), atol=1e-9)
    np.testing.assert_allclose(recompose(form.v_pre, form.post, form.e).choi,
                               identity_superchannel(2, 2).choi, atol=1e-9)


def test_pre_post_readout():
    g1 = block_trace_readout(0)
    form = pre_post_form(g1)
    assert form.e == 1
    rebuilt = recompose(form.v_pre, form.post, form.e)
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        np.testing.assert_allclose(apply_superchannel(g1, c),
                                   apply_superchannel(rebuilt, c), atol=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_pre_post_random_round_trip(seed):
    e = 1 + seed % 2
    sc = random_superchannel(2, 2, 2, 2, e=e, seed=seed)
    form = pre_post_form(sc)
    assert form.e <= e
    assert form.e <= sc.d1 * sc.d2
    np.testing.assert_allclose(form.v_pre.conj().T @ form.v_pre, np.eye(2), atol=1e-9)
    assert is_cp(form.post) and is_tp(form.post)
    rebuilt = recompose(form.v_pre, form.post, form.e)
    np.testing.assert_allclose(rebuilt.choi, sc.choi, atol=1e-8)


def test_recompose_identity_embedding():
    form = recompose(np.eye(2, dtype=complex), identity_channel(2), 1)
    np.testing.assert_allclose(form.choi, identity_superchannel(2, 2).choi, atol=1e-10)


def test_recompose_validates_inputs():
    with pytest.raises(ValueError):
        recompose(np.ones((2, 2), dtype=complex), identity_channel(2), 1)
    bad_post = ChannelChoi(2, 2, identity_channel(2).choi / 2)
    with pytest.raises(ValueError):
        recompose(np.eye(2, dtype=complex), bad_post, 1)


def test_recompose_outputs_are_superchannels():
    for seed in range(4):
        sc = random_superchannel(2, 2, 2, 2, e=1 + seed % 2, seed=seed + 70)
        assert is_superchannel(sc)
        assert aux_dim(sc) <= 1 + seed % 2


def test_recompose_with_trivial_auxiliary_has_aux_dim_one():
    for seed in range(5):
        sc = random_superchannel(2, 2, 2, 2, e=1, seed=seed + 90)
        assert aux_dim(sc) == 1


@pytest.mark.parametrize("e", [1, 2, 3, 4])
@pytest.mark.parametrize("dims", [(2, 3, 2, 3), (3, 2, 3, 2), (3, 3, 3, 3)])
def test_pre_post_form_round_trips_on_the_ladder(dims, e):
    sc = random_superchannel(*dims, e=e, seed=[23, *dims, e])
    form = pre_post_form(sc)
    assert form.e == aux_dim(sc)
    assert is_isometry(form.v_pre)
    assert is_cp(form.post) and is_tp(form.post)
    rebuilt = recompose(form.v_pre, form.post, form.e)
    assert frob(rebuilt.choi - sc.choi) <= 1e-8


@pytest.mark.parametrize("e", [1, 2, 3, 4])
@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 3, 2, 3), (3, 2, 3, 2), (3, 3, 3, 3)])
def test_contractions_match_the_einsum_oracles(dims, e):
    """``_assemble`` (and so ``recompose``) and ``pre_post_form``'s post Choi
    matrix, as fixed matrix products, agree with the planned einsums they
    replace; the double marginal read off the induced map is ``marginal``."""
    sc = random_superchannel(*dims, e=e, seed=[31, *dims, e])
    form = pre_post_form(sc)
    v, post = form.v_pre, form.post
    want = assemble_by_einsum(v, post, form.e)
    for got in (_assemble(v, post, form.e), recompose(v, post, form.e).choi):
        assert frob(got - want) <= 1e-13 * frob(want)
    want = post_choi_by_einsum(sc, v, form.e)
    assert frob(post.choi - want) <= 1e-13 * frob(want)
    m = marginal(sc)
    assert frob(dims[1] * induced_marginal_map(sc).choi - m) <= 1e-14 * frob(m)


@pytest.mark.parametrize("tol", [None, 1e-12])
def test_pre_post_form_support_cutoff_is_its_tol(tol):
    """A weight of 1e-10 lies below the default rank cutoff and above 1e-12:
    the pre/post form keeps exactly the support ``aux_dim`` counts at ``tol``."""
    sc = readout_mixture(1e-10)
    form = pre_post_form(sc, tol)
    assert form.e == aux_dim(sc, tol) == (1 if tol is None else 2)


def test_pre_post_form_rejects_non_superchannels():
    swapped = conjugation_supermap(SWAP @ kron(random_unitary(2, 1), np.eye(2)), 2, 2)
    for bad in (perturbed_readout(), swapped):
        with pytest.raises(ValueError):
            pre_post_form(bad)


def test_recompose_matches_the_matrix_unit_loop():
    rng = np.random.default_rng(5)
    e = 2
    v = random_isometry(3 * e, 3, rng)
    post = random_channel(2 * e, 2, 5, rng)
    np.testing.assert_allclose(recompose(v, post, e).choi,
                               recompose_by_matrix_units(v, post, e).choi, rtol=0, atol=1e-13)


def test_marginal_map_residual_matches_the_matrix_unit_loop():
    swapped = conjugation_supermap(SWAP @ kron(random_unitary(2, 1), np.eye(2)), 2, 2)
    cases = [random_superchannel(3, 2, 3, 2, e=3, seed=1), perturbed_readout(), swapped]
    for sc in cases:
        n_map, residual, _ = marginal_map_residual(sc.choi, sc.dims)
        assert residual == pytest.approx(marginal_residual_by_matrix_units(sc, n_map),
                                         rel=1e-12, abs=1e-14)
    sc = perturbed_readout()
    assert marginal_map_residual(sc.choi, sc.dims)[1] == pytest.approx(0.05)


def test_tensor_identity_superchannels():
    a = identity_superchannel(2, 2)
    b = identity_superchannel(2, 1)
    t = tensor_superchannels(a, b)
    assert (t.d1, t.r1, t.d2, t.r2) == (4, 2, 4, 2)
    np.testing.assert_allclose(t.choi, identity_superchannel(4, 2).choi, atol=1e-12)


def test_tensor_pathology():
    sa, sb = entry_readout(0), entry_readout(1)
    assert restrictions_equal(sa, sb, 1e-10)
    ident = identity_superchannel(2, 2)
    ta = tensor_superchannels(ident, sa)
    tb = tensor_superchannels(ident, sb)
    assert is_superchannel(ta) and is_superchannel(tb)
    assert not restrictions_equal(ta, tb, 1e-10)


def test_tensor_aux_dim_submultiplicative():
    rng = np.random.default_rng(77)
    for _ in range(10):
        a = random_superchannel(2, 2, 2, 2, e=int(rng.integers(1, 3)), seed=rng)
        b = random_superchannel(2, 1, 1, 1, e=int(rng.integers(1, 3)), seed=rng)
        assert aux_dim(tensor_superchannels(a, b)) <= aux_dim(a) * aux_dim(b)


def test_scale_preservation_across_span():
    fixtures = [identity_superchannel(2, 2), block_trace_readout(0), readout_mixture(0.5),
                no_tp_superchannel(),
                unitary_superchannel(random_unitary(2, 1), random_unitary(2, 2))]
    for sc in fixtures:
        for x in span_basis(sc.d1, sc.r1):
            lam_in = span_membership(x, sc.d1, sc.r1).scale
            mem = span_membership(apply_superchannel(sc, x), sc.d2, sc.r2)
            assert mem.member
            assert abs(mem.scale - lam_in) < 1e-9


def test_unitary_superchannel_properties():
    for seed in range(5):
        u1, u2 = random_unitary(2, seed), random_unitary(2, seed + 100)
        sc = unitary_superchannel(u1, u2)
        assert is_superchannel(sc)
        assert aux_dim(sc) == 1
        assert is_unital(as_channel(sc))
        for s2 in range(3):
            phi = random_channel(2, 2, 1 + s2, seed=s2)
            out = apply_superchannel(sc, phi)
            np.testing.assert_allclose(partial_trace(out.choi, (2, 2), {1}), np.eye(2),
                                       atol=1e-9)


def test_unitary_superchannel_rejects_non_unitary():
    with pytest.raises(ValueError):
        unitary_superchannel(np.ones((2, 2), dtype=complex), np.eye(2, dtype=complex))


def test_order_unit_examples():
    assert is_unital(as_channel(identity_superchannel(2, 2)))
    assert not is_unital(as_channel(block_trace_readout(0)))  # image of I_4 is [[2]]
    out = apply_superchannel(block_trace_readout(0), np.eye(4, dtype=complex))
    np.testing.assert_allclose(out, [[2.0]])


@pytest.mark.parametrize("seed", range(6))
def test_factor_unitary_recovers_products(seed):
    u1, u2 = random_unitary(2, seed), random_unitary(3, seed + 40)
    u = kron(u1, u2)
    factors = factor_unitary(u, 2, 3)
    assert factors is not None
    f1, f2 = factors
    np.testing.assert_allclose(kron(f1, f2), u, atol=1e-9)
    np.testing.assert_allclose(f1.conj().T @ f1, np.eye(2), atol=1e-9)
    np.testing.assert_allclose(f2.conj().T @ f2, np.eye(3), atol=1e-9)
    # phase gauge: first sizeable entry of the first factor is real positive
    flat = f1.reshape(-1)
    pos = int(np.argmax(np.abs(flat) > 1e-8 * np.max(np.abs(flat))))
    assert abs(flat[pos].imag) < 1e-9 and flat[pos].real > 0


def test_factor_unitary_swap_not_factorable():
    assert factor_unitary(SWAP, 2, 2) is None
    reshaped = SWAP.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    s = np.linalg.svd(reshaped, compute_uv=False)
    np.testing.assert_allclose(s, np.ones(4), atol=1e-12)


def test_factor_unitary_identity():
    f1, f2 = factor_unitary(np.eye(6, dtype=complex), 2, 3)
    np.testing.assert_allclose(f1, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(f2, np.eye(3), atol=1e-12)


def test_factorability_matches_superchannel_property():
    rng = np.random.default_rng(4)
    for k in range(20):
        if k % 2 == 0:
            u = kron(random_unitary(2, rng), random_unitary(2, rng))
            expect = True
        else:
            u = random_unitary(4, rng)
            reshaped = u.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
            if np.linalg.svd(reshaped, compute_uv=False)[1] < 1e-6:
                continue
            expect = False
        assert (factor_unitary(u, 2, 2) is not None) == expect
        assert is_superchannel(conjugation_supermap(u, 2, 2)) == expect


def _project_to_scale_preserving(c: np.ndarray) -> np.ndarray:
    """Project a Hermitian supermatrix onto the scale-preservation constraints."""
    n1 = n2 = 4
    rows, rhs = [], []
    trace_rows = np.zeros((4, n2 * n2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for s in range(2):
                trace_rows[i * 2 + j, (i * 2 + s) * n2 + (j * 2 + s)] = 1.0
    for x in span_basis(2, 2):
        lam = span_membership(x, 2, 2).scale
        rows.append(trace_rows @ choi_action_rows(x, n1, n2))
        rhs.append(lam * vec(np.eye(2)))
    a_real, b_real = realify(np.vstack(rows), np.concatenate(rhs), 16)
    coords = to_coords(c, 16)
    pinv = np.linalg.pinv(a_real)
    sol = coords - pinv @ (a_real @ coords - b_real)
    return from_coords(sol, 16)


def test_superchannel_iff_psd_once_scale_preserving():
    from superchannels.linalg import herm_eig, rel_scale

    for seed in range(20):
        c = _project_to_scale_preserving(random_hermitian(16, seed))
        sc = Superchannel(2, 2, 2, 2, c)
        w, _ = herm_eig(c)
        psd = bool(w[-1] >= -1e-9 * rel_scale(c))
        assert is_superchannel(sc) == psd
