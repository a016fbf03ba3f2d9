"""Snapshot of the public surface: the package's exported names and the CLI's
subcommands.  Dropping or renaming one is an API change and must update this
file on purpose."""

import argparse

import superchannels
from superchannels.cli import build_parser

PUBLIC_NAMES = [
    "ChannelChoi", "ConstraintSpaces", "DEFAULTS", "Extremality", "FeasibilityReport",
    "KrausSet", "PrePostForm", "SpanAction", "SpanMembership", "SpreadReport",
    "Superchannel", "apply_choi", "apply_superchannel", "as_channel", "aux_dim",
    "channels", "choi_from_kraus", "choi_from_unit_images",
    "compose", "config", "conjugation_supermap", "decompose_into_channels",
    "depolarizing_channel", "dual_channel", "extend", "extend_action",
    "extension_constraint_spaces", "extension_spread", "extremal", "extremality",
    "factor_unitary", "feasibility", "herm_eig", "identity_channel",
    "identity_superchannel", "induced_marginal_map", "is_cp", "is_extreme_choi",
    "is_extreme_unital_tp", "is_superchannel", "is_tp",
    "is_unital", "kraus_from_choi", "kron", "linalg", "marginal",
    "opsys", "partial_trace", "permute_factors", "pre_post_form", "project_to_span",
    "psd_project", "random_channel", "random_superchannel", "rank_eps", "recompose",
    "restrict_superchannel", "restrictions_equal", "span_basis", "span_dim",
    "span_membership", "supermaps", "tensor", "tensor_dimension_gap",
    "tensor_superchannels", "trace_channel", "transpose_channel",
    "unitary_channel", "unitary_superchannel",
]

SUBCOMMANDS = {"basis", "characterize", "check-channel", "check-super", "demo-paper",
               "extend", "extreme", "factor-unitary", "tp-extend"}


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 69
    assert sorted(superchannels.__all__) == PUBLIC_NAMES


def test_cli_subcommands_are_pinned():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == SUBCOMMANDS
