"""Choi calculus for quantum channels and superchannels.

The package models linear maps between matrix algebras by their Choi
matrices, the operator system those Choi matrices span, supermaps acting on
that system, constructive CP extensions by Douglas-Rachford splitting, and
extreme-point tests for constrained CP maps.
"""

from .channels import (
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
from .config import DEFAULTS
from .extend import (
    FeasibilityReport,
    SpanAction,
    SpreadReport,
    extend_action,
    extension_spread,
    restrict_superchannel,
)
from .extremal import (
    ConstraintSpaces,
    Extremality,
    extension_constraint_spaces,
    extremality,
    is_extreme_choi,
    is_extreme_unital_tp,
)
from .linalg import (
    herm_eig,
    kron,
    partial_trace,
    permute_factors,
    psd_project,
    rank_eps,
)
from .opsys import (
    SpanMembership,
    decompose_into_channels,
    project_to_span,
    span_basis,
    span_dim,
    span_membership,
    tensor_dimension_gap,
)
from .supermaps import (
    PrePostForm,
    Superchannel,
    apply_superchannel,
    aux_dim,
    as_channel,
    conjugation_supermap,
    factor_unitary,
    identity_superchannel,
    induced_marginal_map,
    is_superchannel,
    marginal,
    pre_post_form,
    random_superchannel,
    recompose,
    restrictions_equal,
    tensor_superchannels,
    unitary_superchannel,
)

__all__ = [name for name in dir() if not name.startswith("_")]
