"""Extensions up the dimension ladder, (3,2,3,2) and (3,3,3,3)."""

import numpy as np
import pytest

from superchannels.extend import extend_action, restrict_superchannel, tp_extension
from superchannels.feasibility import FEASIBLE, UNDETERMINED
from superchannels.gallery import readout_action
from superchannels.linalg import partial_trace
from superchannels.supermaps import (
    identity_superchannel,
    is_superchannel,
    random_superchannel,
    restrictions_equal,
)


def _assert_re_extends(sc, **kwargs):
    report = extend_action(restrict_superchannel(sc), **kwargs)
    assert report.status == FEASIBLE
    assert is_superchannel(report.witness, 1e-7)
    assert restrictions_equal(report.witness, sc, 1e-6)
    return report


@pytest.mark.parametrize("d, r", [(3, 2), (3, 3)])
def test_identity_restriction_re_extends(d, r):
    _assert_re_extends(identity_superchannel(d, r))


def test_random_restriction_re_extends_at_3232():
    _assert_re_extends(random_superchannel(3, 2, 3, 2, e=1, seed=0), max_iter=20_000)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("e", [1, 2])
def test_3232_system_is_consistent(e, seed):
    """The affine set of a (3,2,3,2) restriction is never reported empty."""
    sc = random_superchannel(3, 2, 3, 2, e=e, seed=seed)
    report = extend_action(restrict_superchannel(sc), max_iter=50)
    assert report.status in (FEASIBLE, UNDETERMINED)


def test_identity_tp_extension_at_3232_is_trace_preserving():
    sc = identity_superchannel(3, 2)
    report = tp_extension(restrict_superchannel(sc))
    assert report.status == FEASIBLE
    assert restrictions_equal(report.witness, sc, 1e-6)
    marginal = partial_trace(report.witness.choi, (6, 6), {1})
    np.testing.assert_allclose(marginal, np.eye(6), atol=1e-7)


def test_tp_extension_of_readout_action_is_inconsistent():
    with pytest.raises(ValueError):
        tp_extension(readout_action())
