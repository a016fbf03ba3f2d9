"""JSON encodings for every value the CLI reads or writes.

Complex matrices are stored as ``{"rows": n, "cols": m, "data": [[re, im],
...]}`` with row-major data; parsers reject length mismatches.  Container
formats wrap that encoding with dimension metadata.
"""

from __future__ import annotations

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
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"{where}: {exc}") from exc


def encode_matrix(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise SerializationError(f"expected a matrix, got array of rank {m.ndim}")
    data = np.stack((m.real, m.imag), -1).reshape(-1, 2).tolist()
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def decode_matrix(obj, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise SerializationError(f"{where}: expected an object with rows/cols/data")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise SerializationError(f"{where}: missing key {exc}") from exc
    if not (isinstance(rows, int) and isinstance(cols, int) and rows > 0 and cols > 0):
        raise SerializationError(f"{where}: rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        got = len(data) if isinstance(data, list) else type(data).__name__
        raise SerializationError(f"{where}: data length {got} does not match {rows}x{cols}")
    bad = f"{where}: data entries must be [re, im] pairs of finite numbers"
    try:
        pairs = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"{bad}: {exc}") from exc
    # numpy reads a JSON null as nan
    if pairs.shape != (rows * cols, 2) or not np.isfinite(pairs).all():
        raise SerializationError(bad)
    return pairs.view(complex).reshape(rows, cols)


def encode_channel(phi: ChannelChoi) -> dict:
    return {"d": phi.d, "r": phi.r, "choi": encode_matrix(phi.choi)}


def decode_channel(obj, where: str = "channel") -> ChannelChoi:
    with _input_errors(where):
        d, r = int(obj["d"]), int(obj["r"])
        return ChannelChoi(d, r, decode_matrix(obj["choi"], where=f"{where}.choi"))


def encode_superchannel(sc: Superchannel) -> dict:
    return {"d1": sc.d1, "r1": sc.r1, "d2": sc.d2, "r2": sc.r2,
            "choi": encode_matrix(sc.choi)}


def decode_superchannel(obj, where: str = "superchannel") -> Superchannel:
    with _input_errors(where):
        dims = [int(obj[k]) for k in ("d1", "r1", "d2", "r2")]
        return Superchannel(*dims, decode_matrix(obj["choi"], where=f"{where}.choi"))


def encode_action(action: SpanAction) -> dict:
    return {"d1": action.d1, "r1": action.r1, "d2": action.d2, "r2": action.r2,
            "images": [encode_matrix(m) for m in action.images]}


def decode_action(obj, where: str = "action") -> SpanAction:
    with _input_errors(where):
        dims = [int(obj[k]) for k in ("d1", "r1", "d2", "r2")]
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
        e = int(obj["e"])
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
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SerializationError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def save_json(path, obj) -> None:
    """Write ``obj`` as one line of compact JSON: without ``indent``, json
    encodes with its C encoder, several times faster on large matrices."""
    Path(path).write_text(json.dumps(obj) + "\n")
