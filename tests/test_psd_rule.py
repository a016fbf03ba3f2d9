"""Every PSD judgement of the package applies one rule, ``linalg.is_psd``:
``lambda_min >= -tol * max(1, ||M||_F)``.  Its five users accept or reject a
matrix together, on either side of the cutoff, and the shifted Cholesky
factorisation that decides first agrees with the eigenvalues."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superchannels import linalg
from superchannels.channels import ChannelChoi, identity_channel, is_cp, kraus_from_choi
from superchannels.linalg import frob, is_psd, lambda_min, random_unitary, rel_scale
from superchannels.opsys import decompose_into_channels
from superchannels.supermaps import Superchannel, aux_dim, is_superchannel, pre_post_form


def boundary_choi(k: float, tol: float) -> np.ndarray:
    """``Omega + eps (|Phi-><Phi-| - |Psi+><Psi+|)`` for the identity channel's
    Choi matrix ``Omega = 2 |Phi+><Phi+|``: both Bell-state projectors have
    partial traces I/2, so the map stays unital and trace preserving, and its
    eigenvalues are 2, eps, 0 and -eps, with ``eps = k * tol * max(1, ||Omega||_F)``,
    which is ``k * tol * max(1, ||C||_F)`` to relative order eps^2.

    With r1 = r2 = 1 the supermap on M_2 with this Choi matrix is its own
    double marginal, so every user below judges the same matrix.
    """
    phi_minus = np.array([1, 0, 0, -1]) / np.sqrt(2)
    psi_plus = np.array([0, 1, 1, 0]) / np.sqrt(2)
    x = np.outer(phi_minus, phi_minus) - np.outer(psi_plus, psi_plus)
    omega = identity_channel(2).choi
    eps = k * tol * rel_scale(omega)
    return omega + eps * x


@pytest.mark.parametrize("tol", [1e-9, 1e-10])
@pytest.mark.parametrize("k, accepted", [(0.5, True), (2.0, False)])
def test_users_of_the_rule_agree_at_the_cutoff(k, accepted, tol):
    c = boundary_choi(k, tol)
    assert lambda_min(c) / (tol * rel_scale(c)) == pytest.approx(-k, rel=1e-6)
    phi, sc = ChannelChoi(2, 2, c), Superchannel(2, 1, 2, 1, c)
    assert is_cp(phi, tol) is accepted
    assert is_superchannel(sc, tol) is accepted
    # a PSD span element is a single scaled channel; otherwise the general split
    assert (len(decompose_into_channels(c, 2, 2, tol)) == 1) is accepted
    if accepted:
        assert len(kraus_from_choi(phi, tol)) == 1
        assert pre_post_form(sc, tol).e == 1
    else:
        with pytest.raises(ValueError, match="not PSD"):
            kraus_from_choi(phi, tol)
        with pytest.raises(ValueError, match="not PSD"):
            pre_post_form(sc, tol)


def depolarized_identity(d: int, p: float) -> Superchannel:
    """``(1 - p) Omega + p I/d`` on M_d with r1 = r2 = 1: its own double
    marginal, with the d^2 - 1 eigenvalues ``p/d`` that the support drops."""
    omega = identity_channel(d).choi
    return Superchannel(d, 1, d, 1, (1 - p) * omega + p * np.eye(d * d) / d)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [0.25, 0.5, 0.99, 1.01])
def test_pre_post_form_and_the_rule_agree_on_a_depolarized_identity(d, k):
    """Across the whole range the rule accepts, up to its cut ``p/d = -tol *
    max(1, ||C||_F)``, the factorisation exists with e = 1; past the cut both
    reject.  At d = 2, k = 0.5 (p = -2e-9, three eigenvalues -1e-9 against a
    cut of 2e-9) the pre-isometry misses by ``1.5e-9 * sqrt(2)``, above a
    fixed ``rel_tol * sqrt(2)`` but within what the dropped eigenvalues can
    leave."""
    tol = 1e-9
    p = -k * d * tol * rel_scale(identity_channel(d).choi)
    sc = depolarized_identity(d, p)
    assert is_superchannel(sc, tol) is (k < 1)
    if k < 1:
        form = pre_post_form(sc, tol)
        assert form.e == aux_dim(sc, tol) == 1
        iso = frob(form.v_pre.conj().T @ form.v_pre - np.eye(d))
        assert iso == pytest.approx(-p * (1 - 1 / d**2) * np.sqrt(d), rel=1e-3)
    else:
        with pytest.raises(ValueError, match="not PSD"):
            pre_post_form(sc, tol)


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([1, 2, 4, 9, 16, 36, 81]),
       k=st.sampled_from([-2.0, -1.01, -0.99, -0.51, -0.49, 0.0, 0.5]),
       tol=st.sampled_from([1e-9, 1e-12, 1e-15]),
       scale=st.sampled_from([1e-3, 1.0, 1e3]),
       seed=st.integers(0, 2**32 - 1))
def test_the_shifted_factorisation_decides_as_the_eigenvalues_do(n, k, tol, scale, seed):
    """A Hermitian matrix with ``lambda_min = k * cut`` and its other eigenvalues
    in ``scale * [1, 2]``: ``is_psd`` equals ``eigvalsh(h)[0] >= -cut``.  At
    tol 1e-15, below the guard ``4 (n+1) sqrt(n) eps``, no factorisation runs
    and the eigenvalues decide; above it, with ``k >= 0``, the factorisation
    accepts and no eigenvalue is computed."""
    rng = np.random.default_rng(seed)
    rest = scale * rng.uniform(1, 2, n - 1)
    u = random_unitary(n, rng)
    h = (u * np.append(k * tol * max(1.0, float(np.linalg.norm(rest))), rest)) @ u.conj().T
    h = (h + h.conj().T) / 2  # exactly Hermitian, so lambda_min reads h itself
    with mock.patch.object(linalg, "lambda_min", wraps=linalg.lambda_min) as eig, \
            mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as chol:
        got = is_psd(h, tol)
    assert got is bool(np.linalg.eigvalsh(h)[0] >= -tol * rel_scale(h))
    if tol == 1e-15:
        assert (chol.call_count, eig.call_count) == (0, 1)
    elif k >= 0:
        assert (chol.call_count, eig.call_count) == (1, 0)
