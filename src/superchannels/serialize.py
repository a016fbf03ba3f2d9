"""JSON encodings for every value the CLI reads or writes.

A complex ``n x m`` matrix is written as ``{"rows": n, "cols": m, "base64":
s}``, where ``s`` is RFC 4648 base64 (standard alphabet, padded) of its
``16*n*m`` bytes as row-major little-endian complex128: the float64 pairs
``(re, im)`` of every entry in row-major order, so a matrix round-trips bit
for bit.  The hand-written form ``{"rows": n, "cols": m, "data": [[re, im],
...]}``, with the same row-major pairs as JSON numbers, is still read.  A
matrix object holds exactly one of ``data`` and ``base64``; parsers reject
length mismatches and entries that are not finite.  Container formats wrap
that encoding with dimension metadata, and every dimension is a positive
JSON integer.
"""

from __future__ import annotations

import base64
import dataclasses
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .channels import ChannelChoi
from .extend import SpanAction
from .extremal import ConstraintSpaces
from .feasibility import FeasibilityReport
from .opsys import span_dim
from .supermaps import PrePostForm, Superchannel

# the byte layout of a base64 matrix: little-endian complex128
_WIRE = np.dtype("<c16")


class SerializationError(ValueError):
    pass


@contextmanager
def _input_errors(where: str):
    """Report malformed input met in the block (a missing key, a wrong type
    or a value its constructor rejects) as a ``SerializationError`` prefixed
    with ``where``; one raised by a nested decoder passes unchanged."""
    try:
        yield
    except SerializationError:
        raise
    except KeyError as exc:
        raise SerializationError(f"{where}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"{where}: {exc}") from exc


def _dimension(obj: dict, key: str, where: str) -> int:
    """``obj[key]`` if it is a positive integer (not a bool, a float or a
    string); any other value is a ``SerializationError`` naming ``where``.
    Call it under ``_input_errors``, which reports a missing key."""
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise SerializationError(f"{where}: {key} must be a positive integer, got {value!r}")
    return value


def encode_matrix(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise SerializationError(f"expected a matrix, got array of rank {m.ndim}")
    text = base64.b64encode(m.astype(_WIRE, copy=False).tobytes()).decode("ascii")
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "base64": text}


def _from_base64(text, size: int, where: str) -> np.ndarray:
    if not isinstance(text, str):
        raise SerializationError(f"{where}: base64 must be a string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise SerializationError(f"{where}: invalid base64: {exc}") from exc
    if len(raw) != _WIRE.itemsize * size:
        raise SerializationError(f"{where}: base64 holds {len(raw)} bytes, expected "
                                 f"{_WIRE.itemsize * size} for {size} complex128 entries")
    # frombuffer is a read-only view of ``raw``; astype copies to native order
    return np.frombuffer(raw, dtype=_WIRE).astype(complex)


def _from_pairs(data, size: int, where: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != size:
        got = len(data) if isinstance(data, list) else type(data).__name__
        raise SerializationError(f"{where}: data length {got} does not match {size} entries")
    bad = f"{where}: data entries must be [re, im] pairs of numbers"
    try:
        pairs = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"{bad}: {exc}") from exc
    if pairs.shape != (size, 2):
        raise SerializationError(bad)
    return pairs.view(complex).reshape(size)


def decode_matrix(obj, where: str = "matrix") -> np.ndarray:
    """The matrix of a ``{rows, cols, base64}`` or ``{rows, cols, data}``
    object, as an owned, writable array."""
    if not isinstance(obj, dict):
        raise SerializationError(f"{where}: expected an object with rows/cols and data or base64")
    with _input_errors(where):
        rows, cols = _dimension(obj, "rows", where), _dimension(obj, "cols", where)
    forms = [key for key in ("data", "base64") if key in obj]
    if len(forms) != 1:
        raise SerializationError(f"{where}: expected exactly one of data and base64, "
                                 f"got {' and '.join(forms) or 'neither'}")
    if forms == ["data"]:
        flat = _from_pairs(obj["data"], rows * cols, where)
    else:
        flat = _from_base64(obj["base64"], rows * cols, where)
    # numpy reads a JSON null as nan
    if not np.isfinite(flat).all():
        raise SerializationError(f"{where}: matrix entries must be finite numbers")
    return flat.reshape(rows, cols)


def encode_channel(phi: ChannelChoi) -> dict:
    return {"d": phi.d, "r": phi.r, "choi": encode_matrix(phi.choi)}


def decode_channel(obj, where: str = "channel") -> ChannelChoi:
    with _input_errors(where):
        d, r = (_dimension(obj, key, where) for key in ("d", "r"))
        return ChannelChoi(d, r, decode_matrix(obj["choi"], where=f"{where}.choi"))


def encode_superchannel(sc: Superchannel) -> dict:
    return {"d1": sc.d1, "r1": sc.r1, "d2": sc.d2, "r2": sc.r2,
            "choi": encode_matrix(sc.choi)}


def decode_superchannel(obj, where: str = "superchannel") -> Superchannel:
    with _input_errors(where):
        dims = [_dimension(obj, k, where) for k in ("d1", "r1", "d2", "r2")]
        return Superchannel(*dims, decode_matrix(obj["choi"], where=f"{where}.choi"))


def encode_action(action: SpanAction) -> dict:
    return {"d1": action.d1, "r1": action.r1, "d2": action.d2, "r2": action.r2,
            "images": [encode_matrix(m) for m in action.images]}


def decode_action(obj, where: str = "action") -> SpanAction:
    with _input_errors(where):
        dims = [_dimension(obj, k, where) for k in ("d1", "r1", "d2", "r2")]
        images = obj["images"]
        count = span_dim(dims[0], dims[1])
        if not isinstance(images, list) or len(images) != count:
            raise SerializationError(f"{where}: expected {count} images for the canonical basis")
        mats = [decode_matrix(m, where=f"{where}.images[{i}]") for i, m in enumerate(images)]
        return SpanAction(*dims, mats)


def encode_pre_post(form: PrePostForm) -> dict:
    return {"e": form.e, "v_pre": encode_matrix(form.v_pre),
            "post": encode_channel(form.post)}


def decode_pre_post(obj, where: str = "characterisation") -> PrePostForm:
    with _input_errors(where):
        e = _dimension(obj, "e", where)
        v = decode_matrix(obj["v_pre"], where=f"{where}.v_pre")
        return PrePostForm(e, v, decode_channel(obj["post"], where=f"{where}.post"))


def decode_spaces(obj, where: str = "spaces") -> ConstraintSpaces:
    """The ``{"s_basis": [...], "t_basis": [...]}`` spanning sets of the
    extremality constraints; a missing list is empty."""
    with _input_errors(where):
        if not isinstance(obj, dict):
            raise TypeError("expected an object with s_basis/t_basis lists")
        return ConstraintSpaces(*(
            tuple(decode_matrix(m, where=f"{where}.{key}[{i}]")
                  for i, m in enumerate(obj.get(key, [])))
            for key in ("s_basis", "t_basis")))


def encode_feasibility(report: FeasibilityReport) -> dict:
    """One key per field of the report, in declaration order; ``witness`` and
    ``certificate`` are encoded objects or null."""
    out = {f.name: getattr(report, f.name) for f in dataclasses.fields(FeasibilityReport)}
    if report.witness is not None:
        out["witness"] = encode_superchannel(report.witness)
    cert = report.certificate
    if cert is not None:
        out["certificate"] = {"matrix": encode_matrix(cert.matrix), "inner": cert.inner,
                              "eig_term": cert.eig_term, "kernel_term": cert.kernel_term,
                              "margin": cert.margin}
    return out


def encode_basis(d: int, r: int, mats) -> dict:
    return {"d": d, "r": r, "dim": len(mats),
            "basis": [encode_matrix(m) for m in mats]}


def load_json(path) -> object:
    """The JSON value in the file at ``path``, read as bytes so that json
    detects UTF-8, UTF-16 or UTF-32 (RFC 8259)."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise SerializationError(f"{path}: {exc}") from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise SerializationError(f"{path}: {exc}") from exc


def save_json(path, obj) -> None:
    """Write ``obj`` as one line of compact JSON: without ``indent``, json
    encodes with its C encoder, several times faster on large matrices.  A
    file that cannot be written is a ``SerializationError`` naming ``path``."""
    path = Path(path)
    text = json.dumps(obj) + "\n"
    try:
        path.write_text(text)
    except OSError as exc:
        raise SerializationError(f"{path}: {exc}") from exc
