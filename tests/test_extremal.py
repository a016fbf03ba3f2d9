import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _dense_reference import perturbation_search
from superchannels.channels import (
    ChannelChoi,
    KrausSet,
    apply_choi,
    choi_from_kraus,
    depolarizing_channel,
    dual_channel,
    is_cp,
    kraus_from_choi,
    random_channel,
    unitary_channel,
)
from superchannels.config import DEFAULTS
from superchannels.extremal import (
    ConstraintSpaces,
    extension_constraint_spaces,
    extremality,
    is_extreme_choi,
    is_extreme_unital_tp,
)
from superchannels.gallery import block_trace_readout, readout_mixture
from superchannels.linalg import matrix_unit, random_unitary
from superchannels.opsys import hermitian_span
from superchannels.supermaps import as_channel, random_superchannel, unitary_superchannel

PAULI_Z = np.diag([1.0, -1.0]).astype(complex)

FIXED_UNIT_2 = ConstraintSpaces((np.eye(2, dtype=complex),), ())
FIXED_UNIT_4 = ConstraintSpaces((np.eye(4, dtype=complex),), ())


def test_minimal_kraus_counts():
    assert len(kraus_from_choi(unitary_channel(random_unitary(2, 0))).ops) == 1
    assert len(kraus_from_choi(depolarizing_channel(2, 2)).ops) == 4
    for rank in (1, 2, 3):
        phi = random_channel(2, 2, rank, seed=rank)
        assert len(kraus_from_choi(phi).ops) == rank


def test_extreme_choi_unitary():
    assert is_extreme_choi(unitary_channel(random_unitary(3, 1)))


def test_extreme_choi_depolarizing_false():
    # sixteen 2x2 products cannot be independent
    assert not is_extreme_choi(depolarizing_channel(2, 2))


def test_extreme_choi_rank_one():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    phi = choi_from_kraus(KrausSet(3, 2, (a,)))
    assert is_extreme_choi(phi)


def test_extreme_choi_rejects_non_cp():
    from superchannels.channels import transpose_channel

    with pytest.raises(ValueError):
        is_extreme_choi(transpose_channel(2))


def test_extreme_unital_tp_unitary():
    assert is_extreme_unital_tp(unitary_channel(random_unitary(2, 2)))


def test_extreme_unital_tp_completely_depolarizing_false():
    assert not is_extreme_unital_tp(depolarizing_channel(2, 2))


def test_extreme_unital_tp_pauli_mixture_false():
    mix = ChannelChoi(2, 2, (unitary_channel(np.eye(2, dtype=complex)).choi
                             + unitary_channel(PAULI_Z).choi) / 2)
    assert not is_extreme_unital_tp(mix)


def test_extreme_unital_tp_requires_unital_tp():
    ks = KrausSet(2, 2, (np.diag([1.0, 0.5]).astype(complex),))
    with pytest.raises(ValueError):
        is_extreme_unital_tp(choi_from_kraus(ks))


def test_full_span_makes_every_map_extreme():
    full = ConstraintSpaces(tuple(
        hermitian_span(matrix_unit(2, i, j) for i in range(2) for j in range(2))), ())
    for seed in range(6):
        phi = random_channel(2, 2, 1 + seed % 4, seed)
        assert extremality(phi, full).extreme


def test_readout_extensions_extreme_midpoint_not():
    spaces = extension_constraint_spaces(2, 2)
    assert extremality(as_channel(block_trace_readout(0)), spaces).extreme
    assert extremality(as_channel(block_trace_readout(1)), spaces).extreme
    assert not extremality(as_channel(readout_mixture(0.5)), spaces).extreme


def test_midpoint_has_explicit_perturbation_direction():
    # the difference of the two readouts perturbs the midpoint inside the class
    g1, g2 = block_trace_readout(0), block_trace_readout(1)
    mid = readout_mixture(0.5)
    shift = (g1.choi - g2.choi) / 2
    for sign in (1, -1):
        cand = ChannelChoi(4, 1, mid.choi + sign * shift)
        assert is_cp(cand)
        for a in extension_constraint_spaces(2, 2).s_basis:
            np.testing.assert_allclose(apply_choi(cand, a),
                                       apply_choi(as_channel(mid), a), atol=1e-10)


def test_fixed_unit_specialisation_matches_extreme_choi():
    for seed in range(20):
        phi = random_channel(2, 2, 1 + seed % 4, seed)
        assert is_extreme_choi(phi) == perturbation_search(phi, FIXED_UNIT_2)


def test_unital_tp_specialisation():
    instances = [unitary_channel(random_unitary(2, s)) for s in range(3)]
    instances.append(depolarizing_channel(2, 2))
    instances.append(ChannelChoi(2, 2, (unitary_channel(np.eye(2, dtype=complex)).choi
                                        + unitary_channel(PAULI_Z).choi) / 2))
    both = ConstraintSpaces((np.eye(2, dtype=complex),), (np.eye(2, dtype=complex),))
    for phi in instances:
        assert is_extreme_unital_tp(phi) == perturbation_search(phi, both)


def test_basis_independence():
    rng = np.random.default_rng(8)
    spaces = extension_constraint_spaces(2, 2)
    for phi in (as_channel(block_trace_readout(0)), as_channel(readout_mixture(0.5))):
        base = extremality(phi, spaces).extreme
        for _ in range(5):
            # random invertible real recombination of the spanning set
            mats = spaces.s_basis
            m = rng.standard_normal((len(mats), len(mats)))
            while abs(np.linalg.det(m)) < 1e-3:
                m = rng.standard_normal((len(mats), len(mats)))
            remixed = tuple(sum(m[i, j] * mats[j] for j in range(len(mats)))
                            for i in range(len(mats)))
            assert extremality(phi, ConstraintSpaces(remixed, ())).extreme == base


def test_perturbation_search_matches_rank_test():
    spaces = extension_constraint_spaces(2, 2)
    cases = [
        (as_channel(block_trace_readout(0)), spaces),
        (as_channel(block_trace_readout(1)), spaces),
        (as_channel(readout_mixture(0.5)), spaces),
        (depolarizing_channel(2, 2), FIXED_UNIT_2),
        (unitary_channel(random_unitary(2, 5)), FIXED_UNIT_2),
    ]
    for seed in range(8):
        cases.append((random_channel(2, 2, 1 + seed % 4, seed + 60), FIXED_UNIT_2))
    for phi, spaces_k in cases:
        assert perturbation_search(phi, spaces_k) == extremality(phi, spaces_k).extreme


def test_perturbation_search_size_cap():
    phi = depolarizing_channel(4, 4)  # Kraus rank 16 -> 256 coefficients, fine
    big = depolarizing_channel(6, 6)  # Kraus rank 36 -> 1296 coefficients, too many
    assert isinstance(perturbation_search(phi, ConstraintSpaces((np.eye(4, dtype=complex),), ())), bool)
    with pytest.raises(ValueError):
        perturbation_search(big, ConstraintSpaces((np.eye(6, dtype=complex),), ()))


def test_unitary_superchannels_are_extreme_extensions():
    spaces = extension_constraint_spaces(2, 2)
    for seed in range(3):
        sc = unitary_superchannel(random_unitary(2, seed), random_unitary(2, seed + 30))
        assert extremality(as_channel(sc), spaces).extreme


def _assert_verified_pair(phi, spaces, result):
    """The pair is CP, pinned on both sides, different from phi, and averages to it."""
    a, b = result.pair
    np.testing.assert_allclose((a.choi + b.choi) / 2, phi.choi, atol=1e-12)
    assert min(np.linalg.norm(a.choi - phi.choi), np.linalg.norm(b.choi - phi.choi)) > 1e-6
    for member in (a, b):
        assert is_cp(member, DEFAULTS.equal_tol)
        for m in spaces.s_basis:
            np.testing.assert_allclose(apply_choi(member, m), apply_choi(phi, m), atol=1e-8)
        for m in spaces.t_basis:
            np.testing.assert_allclose(apply_choi(dual_channel(member), m),
                                       apply_choi(dual_channel(phi), m), atol=1e-8)


def test_readout_midpoint_pair_is_verified():
    spaces = extension_constraint_spaces(2, 2)
    mid = as_channel(readout_mixture(0.5))
    result = extremality(mid, spaces)
    assert not result.extreme
    _assert_verified_pair(mid, spaces, result)
    assert extremality(as_channel(block_trace_readout(0)), spaces).pair is None


@settings(max_examples=25, deadline=None)
@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]), data=st.data(),
       seed=st.integers(0, 2**16))
def test_extremality_matches_reference_and_pairs_are_verified(dims, data, seed):
    d, r = dims
    # random_channel needs r * rank >= d
    rank = data.draw(st.integers(-(-d // r), d * r), label="kraus rank")
    phi = random_channel(d, r, rank, seed)
    units = (np.eye(d, dtype=complex),), (np.eye(r, dtype=complex),)
    for spaces in (ConstraintSpaces(units[0], ()), ConstraintSpaces(*units)):
        result = extremality(phi, spaces)
        if len(kraus_from_choi(phi).ops) ** 2 <= 1000:
            assert result.extreme == perturbation_search(phi, spaces)
        if result.extreme:
            assert result.pair is None
        else:
            _assert_verified_pair(phi, spaces, result)


def test_extend_cap_generators_are_extreme_extensions():
    spaces = extension_constraint_spaces(2, 2)
    for s in range(400, 420):
        sc = random_superchannel(2, 2, 2, 2, e=1 + (s - 400) % 2, seed=s)
        assert extremality(as_channel(sc), spaces).extreme


@pytest.mark.parametrize("side, shape", [("s_basis", 4), ("s_basis", 3), ("t_basis", 4),
                                         ("t_basis", 3)])
def test_mis_sized_spanning_matrix_is_rejected(side, shape):
    """A 4x4 entry for a 2 -> 2 map used to be cut into four 2x2 blocks and
    give a verdict; a 3x3 one died in a reshape."""
    spaces = ConstraintSpaces(**{side: (np.eye(shape, dtype=complex),)})
    with pytest.raises(ValueError, match=rf"{side}\[0\] has shape \({shape}, {shape}\)"):
        extremality(depolarizing_channel(2, 2), spaces)
    with pytest.raises(ValueError):
        extremality(depolarizing_channel(2, 2), spaces).extreme
