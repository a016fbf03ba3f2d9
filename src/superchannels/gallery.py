"""Small zoo of worked superchannel examples used by the demo suite and tests.

Run ``python -m superchannels.gallery OUTDIR`` to write every example to a
fixtures directory, with matrices in ``serialize``'s base64 form; the files
are generated from code rather than typed in, so the JSON always matches
these constructors.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from .channels import depolarizing_channel, identity_channel, transpose_channel
from .extend import SpanAction, restrict_superchannel
from .linalg import kron, matrix_unit
from .serialize import (
    encode_action,
    encode_channel,
    encode_superchannel,
    save_json,
)
from .supermaps import Superchannel, identity_superchannel, tensor_superchannels


def block_trace_readout(block: int, d1: int = 2, r1: int = 2) -> Superchannel:
    """Supermap sending a block matrix to the trace of one diagonal block.

    It maps M_{d1}(M_{r1}) to scalars; on the Choi matrix of a channel the
    value is the trace of the image of one input matrix unit, which equals 1
    for every channel, so all these readouts restrict to the same action on
    the channel span while differing as supermaps.
    """
    if not 0 <= block < d1:
        raise ValueError(f"block index {block} out of range for d1={d1}")
    choi = kron(matrix_unit(d1, block, block), np.eye(r1, dtype=complex))
    return Superchannel(d1, r1, 1, 1, choi)


def readout_mixture(p: float, d1: int = 2, r1: int = 2) -> Superchannel:
    """Convex mixture of the first and last block-trace readouts."""
    a = block_trace_readout(0, d1, r1)
    b = block_trace_readout(d1 - 1, d1, r1)
    return Superchannel(d1, r1, 1, 1, p * a.choi + (1 - p) * b.choi)


def entry_readout(entry: int) -> Superchannel:
    """Supermap on M_2(M_1) reading one diagonal entry.

    On the channel span of M_2(M_1), which is just the multiples of the
    identity, both entry readouts agree; off the span they differ, and
    tensoring them with a common superchannel yields supermaps that disagree
    already on the larger channel span.
    """
    if entry not in (0, 1):
        raise ValueError("entry must be 0 or 1")
    return Superchannel(2, 1, 1, 1, matrix_unit(2, entry, entry))


def no_tp_images() -> list[np.ndarray]:
    """Diagonal images defining the supermap below, in unit order."""
    a = np.diag([0.5, 0.5, 1.0, 0.0]).astype(complex)
    b = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    zero = np.zeros((4, 4), dtype=complex)
    return [a, b, zero, zero]


def no_tp_superchannel() -> Superchannel:
    """A diagonal superchannel on M_2(M_2) whose span action admits no
    trace-preserving extension.

    Each diagonal matrix unit maps to a fixed diagonal matrix and every other
    unit to zero.  The supermap is CP and preserves the channel span with its
    scaling factor, but positivity pins enough diagonal entries of any CP
    extension that the trace-preservation equations become inconsistent.
    """
    diag_images = no_tp_images()
    images = []
    for p in range(4):
        for q in range(4):
            images.append(diag_images[p] if p == q else np.zeros((4, 4), dtype=complex))
    blocks = np.array(images).reshape(4, 4, 4, 4)
    choi = blocks.transpose(0, 2, 1, 3).reshape(16, 16)
    return Superchannel(2, 2, 2, 2, choi)


def no_tp_action() -> SpanAction:
    return restrict_superchannel(no_tp_superchannel())


def readout_action(r1: int = 2) -> SpanAction:
    return restrict_superchannel(block_trace_readout(0, 2, r1))


def perturbed_readout() -> Superchannel:
    """Hermitian but non-PSD perturbation of the first block-trace readout."""
    choi = block_trace_readout(0).choi - 0.1 * matrix_unit(4, 2, 2)
    return Superchannel(2, 2, 1, 1, choi)


FIXTURES = {
    "identity_channel_2.json": lambda: encode_channel(identity_channel(2)),
    "depolarizing_channel_2_2.json": lambda: encode_channel(depolarizing_channel(2, 2)),
    "transpose_channel_2.json": lambda: encode_channel(transpose_channel(2)),
    "identity_superchannel_2_2.json": lambda: encode_superchannel(identity_superchannel(2, 2)),
    "readout_first_block.json": lambda: encode_superchannel(block_trace_readout(0)),
    "readout_second_block.json": lambda: encode_superchannel(block_trace_readout(1)),
    "readout_mixture_50.json": lambda: encode_superchannel(readout_mixture(0.5)),
    "readout_action.json": lambda: encode_action(readout_action()),
    "entry_readout_first.json": lambda: encode_superchannel(entry_readout(0)),
    "entry_readout_second.json": lambda: encode_superchannel(entry_readout(1)),
    "no_tp_superchannel.json": lambda: encode_superchannel(no_tp_superchannel()),
    "no_tp_action.json": lambda: encode_action(no_tp_action()),
    "tensor_identity_entry_first.json": lambda: encode_superchannel(
        tensor_superchannels(identity_superchannel(2, 2), entry_readout(0))),
    "perturbed_readout.json": lambda: encode_superchannel(perturbed_readout()),
}


def write_fixtures(outdir) -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, build in FIXTURES.items():
        path = outdir / name
        save_json(path, build())
        written.append(path)
    return written


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else "fixtures"
    for written_path in write_fixtures(target):
        print(written_path)
