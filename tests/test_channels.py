import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _dense_reference import kraus_by_eigenvalue_loop
from superchannels.channels import (
    ChannelChoi,
    KrausSet,
    apply_choi,
    choi_from_kraus,
    choi_from_unit_images,
    compose,
    depolarizing_channel,
    dual_channel,
    identity_channel,
    is_cp,
    is_tp,
    is_unital,
    kraus_from_choi,
    random_channel,
    tensor,
    trace_channel,
    transpose_channel,
    unitary_channel,
)
from superchannels.config import DEFAULTS
from superchannels.linalg import (
    frob,
    herm_eig,
    kron,
    matrix_unit,
    psd_support,
    random_hermitian,
    random_unitary,
    rank_eps,
)


def random_cp(d, r, rank, seed):
    """Random CP (not TP) map: random Kraus operators, no normalisation."""
    rng = np.random.default_rng(seed)
    ops = tuple(rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
                for _ in range(rank))
    return choi_from_kraus(KrausSet(d, r, ops))


def test_identity_choi_entries():
    c = identity_channel(2).choi
    expected = np.zeros((4, 4), dtype=complex)
    for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
        expected[i, j] = 1.0
    np.testing.assert_allclose(c, expected)


def test_trace_map_choi_is_identity():
    np.testing.assert_allclose(trace_channel(2).choi, np.eye(2))


def test_depolarizing_choi():
    np.testing.assert_allclose(depolarizing_channel(2, 3).choi, np.eye(6) / 3)


def test_choi_from_unit_images_rejects_bad_shapes():
    with pytest.raises(ValueError):
        choi_from_unit_images([np.eye(2)] * 3)
    with pytest.raises(ValueError):
        choi_from_unit_images([np.eye(2), np.eye(2), np.eye(2), np.eye(3)])


def test_apply_identity():
    x = np.array([[1, 2j], [-2j, 3]], dtype=complex)
    np.testing.assert_allclose(apply_choi(identity_channel(2), x), x)


def test_apply_depolarizing():
    rho = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    np.testing.assert_allclose(apply_choi(depolarizing_channel(2, 2), rho), np.eye(2) / 2,
                               atol=1e-12)


def test_apply_on_units_extracts_blocks():
    phi = random_channel(2, 3, 4, seed=8)
    for i in range(2):
        for j in range(2):
            np.testing.assert_allclose(apply_choi(phi, matrix_unit(2, i, j)),
                                       phi.block(i, j), atol=1e-12)


def test_is_cp():
    assert is_cp(identity_channel(2))
    assert is_cp(depolarizing_channel(2, 2))
    assert not is_cp(transpose_channel(2))


def test_transpose_choi_spectrum():
    w, _ = herm_eig(transpose_channel(2).choi)
    np.testing.assert_allclose(w, [1.0, 1.0, 1.0, -1.0], atol=1e-12)


def test_is_tp():
    assert is_tp(identity_channel(2))
    assert not is_tp(ChannelChoi(2, 2, identity_channel(2).choi / 2))
    u = random_unitary(3, 4)
    assert is_tp(unitary_channel(u))


def test_tp_equivalent_to_trace_identity():
    rng = np.random.default_rng(3)
    for phi in (random_channel(2, 3, 2, 5), random_cp(2, 2, 2, 6)):
        tp = is_tp(phi)
        agree = True
        for _ in range(20):
            x = rng.standard_normal((phi.d, phi.d)) + 1j * rng.standard_normal((phi.d, phi.d))
            agree &= abs(np.trace(apply_choi(phi, x)) - np.trace(x)) < 1e-9 * max(1, frob(x))
        assert tp == agree


def test_kraus_identity_channel():
    ks = kraus_from_choi(identity_channel(2))
    assert len(ks.ops) == 1
    a = ks.ops[0]
    phase = a[0, 0] / abs(a[0, 0])
    np.testing.assert_allclose(a / phase, np.eye(2), atol=1e-12)


def test_kraus_depolarizing_norms():
    ks = kraus_from_choi(depolarizing_channel(2, 2))
    assert len(ks.ops) == 4
    for a in ks.ops:
        np.testing.assert_allclose(frob(a), 1 / np.sqrt(2), atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_choi_kraus_round_trip(seed):
    rng = np.random.default_rng(seed)
    d, r = rng.integers(1, 4), rng.integers(1, 4)
    rank = rng.integers(1, d * r + 1)
    phi = random_cp(d, r, rank, seed + 100)
    ks = kraus_from_choi(phi)
    back = choi_from_kraus(ks)
    np.testing.assert_allclose(back.choi, phi.choi, atol=1e-9 * max(1, frob(phi.choi)))
    # the same arithmetic as the per-eigenvalue loop, so the same bits
    want = kraus_by_eigenvalue_loop(phi, DEFAULTS.rel_tol)
    assert len(ks.ops) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(ks.ops, want))


def test_kraus_count_equals_choi_rank():
    for seed in range(5):
        phi = random_channel(2, 2, 1 + seed % 4, seed)
        assert len(kraus_from_choi(phi).ops) == rank_eps(phi.choi)


@settings(max_examples=40, deadline=None)
@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]), data=st.data(),
       seed=st.integers(0, 2**16))
def test_kraus_from_choi_is_independent_by_construction(dims, data, seed):
    """The operators are Choi eigenvectors scaled by sqrt(w), so their
    Hilbert-Schmidt Gram matrix is diagonal: the family is independent with
    no further check, and the extremality tests rely on that."""
    d, r = dims
    # random_channel needs r * rank >= d
    rank = data.draw(st.integers(-(-d // r), d * r), label="kraus rank")
    phi = random_channel(d, r, rank, seed)
    ks = kraus_from_choi(phi)
    w = np.array(ks.ops).reshape(len(ks.ops), -1)
    gram = w.conj() @ w.T
    norms = np.sum(np.abs(w) ** 2, axis=1)
    np.testing.assert_allclose(gram, np.diag(norms), rtol=0, atol=1e-12 * norms.max())
    assert len(ks.ops) == len(psd_support(phi.choi)[0])
    np.testing.assert_allclose(choi_from_kraus(ks).choi, phi.choi,
                               rtol=0, atol=1e-10 * frob(phi.choi))


def test_choi_from_kraus_embedding():
    # single 1x2 Kraus row [1, 0] maps M_2 to scalars picking the (0,0) entry
    ks = KrausSet(2, 1, (np.array([[1.0, 0.0]]),))
    np.testing.assert_allclose(choi_from_kraus(ks).choi, matrix_unit(2, 0, 0))


def test_choi_invariant_under_isometric_mixing():
    rng = np.random.default_rng(12)
    ops = tuple(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(3))
    u = random_unitary(3, 13)
    mixed = tuple(sum(u[a, b] * ops[b] for b in range(3)) for a in range(3))
    c1 = choi_from_kraus(KrausSet(2, 2, ops))
    c2 = choi_from_kraus(KrausSet(2, 2, mixed))
    np.testing.assert_allclose(c1.choi, c2.choi, atol=1e-10)


def test_dual_identity_and_involution():
    ident = identity_channel(3)
    np.testing.assert_allclose(dual_channel(ident).choi, ident.choi)
    phi = random_channel(2, 3, 3, seed=2)
    np.testing.assert_allclose(dual_channel(dual_channel(phi)).choi, phi.choi, atol=1e-12)


def test_dual_pairing():
    rng = np.random.default_rng(14)
    phi = random_cp(2, 3, 2, seed=15)
    dual = dual_channel(phi)
    for _ in range(10):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.vdot(apply_choi(phi, x), b)
        rhs = np.vdot(x, apply_choi(dual, b))
        assert abs(lhs - rhs) < 1e-10 * max(1, abs(lhs))


def test_dual_of_trace_map_embeds_identity():
    dual = dual_channel(trace_channel(2))
    assert (dual.d, dual.r) == (1, 2)
    np.testing.assert_allclose(apply_choi(dual, np.array([[3.0]])), 3 * np.eye(2))


def test_dual_of_tp_is_unital():
    for seed in range(5):
        phi = random_channel(3, 2, 3, seed)
        dual = dual_channel(phi)
        np.testing.assert_allclose(apply_choi(dual, np.eye(2, dtype=complex)), np.eye(3),
                                   atol=1e-9)
        assert is_unital(dual)


def test_random_channel_properties():
    phi = random_channel(2, 2, 4, seed=7)
    assert is_cp(phi) and is_tp(phi)
    again = random_channel(2, 2, 4, seed=7)
    np.testing.assert_allclose(phi.choi, again.choi)
    iso = random_channel(2, 2, 1, seed=3)
    assert is_tp(iso) and len(kraus_from_choi(iso).ops) == 1
    with pytest.raises(ValueError):
        random_channel(2, 2, 5, seed=0)
    with pytest.raises(ValueError):
        random_channel(3, 1, 2, seed=0)


def test_choi_theorem_on_amplified_inputs():
    # CP maps keep amplified positive inputs positive; for a non-CP map the
    # maximally entangled witness reproduces the Choi matrix itself.
    rng = np.random.default_rng(20)
    for seed in range(10):
        cp = seed % 2 == 0
        if cp:
            phi = random_cp(2, 2, 1 + seed % 3, seed)
        else:
            phi = ChannelChoi(2, 2, random_hermitian(4, seed))
        big = tensor(identity_channel(2), phi)
        omega = identity_channel(2).choi  # unnormalised maximally entangled state
        out = apply_choi(big, omega)
        np.testing.assert_allclose(out, phi.choi, atol=1e-10)
        assert is_cp(phi) == bool(herm_eig(out)[0][-1] >= -1e-9 * max(1, frob(out)))
        if cp:
            for _ in range(3):
                g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                p = g @ g.conj().T
                w, _ = herm_eig(apply_choi(big, p))
                assert w[-1] >= -1e-9 * max(1, frob(p))


def test_compose_with_identity():
    phi = random_channel(2, 3, 2, seed=9)
    np.testing.assert_allclose(compose(phi, identity_channel(2)).choi, phi.choi, atol=1e-12)
    np.testing.assert_allclose(compose(identity_channel(3), phi).choi, phi.choi, atol=1e-12)


def test_compose_matches_pointwise():
    f = random_channel(2, 3, 2, seed=10)
    g = random_channel(3, 2, 3, seed=11)
    gf = compose(g, f)
    rng = np.random.default_rng(30)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(apply_choi(gf, x), apply_choi(g, apply_choi(f, x)), atol=1e-10)


def test_tensor_matches_pointwise():
    f = random_channel(2, 2, 2, seed=12)
    g = random_channel(2, 3, 2, seed=13)
    fg = tensor(f, g)
    rng = np.random.default_rng(31)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(apply_choi(fg, kron(x, y)),
                               kron(apply_choi(f, x), apply_choi(g, y)), atol=1e-10)
