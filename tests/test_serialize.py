import base64
import dataclasses
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from superchannels.channels import depolarizing_channel, random_channel
from superchannels.cli import main
from superchannels.extend import FeasibilityReport, extend_action, restrict_superchannel
from superchannels.gallery import FIXTURES, block_trace_readout, no_tp_action, readout_action
from superchannels.serialize import (
    SerializationError,
    decode_action,
    decode_channel,
    decode_matrix,
    decode_pre_post,
    decode_superchannel,
    encode_action,
    encode_basis,
    encode_channel,
    encode_feasibility,
    encode_matrix,
    encode_pre_post,
    encode_superchannel,
    load_json,
    save_json,
)
from superchannels.opsys import span_basis
from superchannels.supermaps import identity_superchannel, pre_post_form


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    np.testing.assert_allclose(decode_matrix(encode_matrix(m)), m)


def _text_pairs(m) -> dict:
    """The hand-written form of a matrix: ``[re, im]`` pairs, entry by entry."""
    m = np.asarray(m, dtype=complex)
    return {"rows": m.shape[0], "cols": m.shape[1],
            "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}


def test_matrix_base64_and_text_pairs_decode_to_the_same_bits():
    """The written base64 form and the per-entry text form decode to the same
    bits, signed zeros, subnormals and extremes included."""
    rng = np.random.default_rng(1)
    m = rng.standard_normal((9, 7)) + 1j * rng.standard_normal((9, 7))
    m[0, :5] = [-0.0, complex(0.0, -0.0), 5e-324, complex(1e300, -1e300),
                complex(-1e300, 1e300)]
    written = json.loads(json.dumps(encode_matrix(m)))
    assert set(written) == {"rows", "cols", "base64"}
    base64_form, text_form = decode_matrix(written), decode_matrix(_text_pairs(m))
    assert base64_form.shape == text_form.shape == (9, 7)
    assert base64_form.tobytes() == text_form.tobytes() == m.tobytes()


def test_matrix_base64_layout_is_row_major_little_endian_complex128():
    m = np.array([[1 + 2j, 3], [-0.0, 4j]])
    raw = base64.b64decode(encode_matrix(m)["base64"], validate=True)
    assert raw == struct.pack("<8d", 1, 2, 3, 0, -0.0, 0, 0, 4)
    assert encode_matrix(m.T)["base64"] == encode_matrix(np.ascontiguousarray(m.T))["base64"]


def test_decoded_matrices_are_owned_and_writable():
    """Both forms decode to a writable native complex array whose memory
    numpy owns, not a view of the decoded bytes."""
    for obj in (encode_matrix(np.eye(2)), _text_pairs(np.eye(2))):
        m = decode_matrix(obj)
        root = m
        while isinstance(root.base, np.ndarray):
            root = root.base
        assert root.flags.owndata and m.flags.writeable
        assert m.dtype == np.dtype(complex) and m.dtype.isnative
        m[0, 1] = 5
        assert m[0, 1] == 5


def _base64_of(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<c16").tobytes()).decode()


@pytest.mark.parametrize("obj, message", [
    ({"rows": 2, "cols": 2, "base64": _base64_of([1, 0, 0])}, "48 bytes, expected 64"),
    ({"rows": 1, "cols": 1, "base64": _base64_of([1])[:-1]}, "invalid base64"),
    ({"rows": 1, "cols": 1, "base64": _base64_of([1]).replace("A", "-")}, "invalid base64"),
    ({"rows": 1, "cols": 1, "base64": "é" + _base64_of([1])[1:]}, "invalid base64"),
    ({"rows": 1, "cols": 1, "base64": [1.0, 0.0]}, "must be a string, got list"),
    ({"rows": 1, "cols": 1, "base64": None}, "must be a string, got NoneType"),
    ({"rows": 1, "cols": 2, "base64": _base64_of([1, complex(0, np.inf)])}, "finite"),
    ({"rows": 1, "cols": 1, "base64": _base64_of([np.nan])}, "finite"),
    ({"rows": 1, "cols": 1, "base64": _base64_of([1]), "data": [[1.0, 0.0]]},
     "exactly one of data and base64, got data and base64"),
    ({"rows": 1, "cols": 1}, "exactly one of data and base64, got neither"),
], ids=["length", "padding", "alphabet", "non-ascii", "list", "null", "inf", "nan",
        "both", "neither"])
def test_matrix_rejects_malformed_base64(obj, message):
    with pytest.raises(SerializationError, match=f"^cell: .*{re.escape(message)}"):
        decode_matrix(obj, where="cell")


@pytest.mark.parametrize("value", [True, False, 2.0, 2.9, "2", None, [2], 0, -1],
                         ids=["true", "false", "2.0", "2.9", "string", "null", "list",
                              "zero", "negative"])
def test_dimensions_must_be_positive_json_integers(value):
    """``rows``/``cols`` and every container dimension must be a JSON integer
    of at least 1; a bool, a float or a string is an input error."""
    matrix = encode_matrix(np.eye(2))
    for key in ("rows", "cols"):
        with pytest.raises(SerializationError, match=f"^matrix: {key} must be a positive"):
            decode_matrix({**matrix, key: value})
    for decode, where, build, keys in [
            (decode_channel, "channel", lambda: encode_channel(depolarizing_channel(2, 2)),
             ("d", "r")),
            (decode_superchannel, "superchannel",
             lambda: encode_superchannel(block_trace_readout(0)), ("d1", "r1", "d2", "r2")),
            (decode_action, "action", lambda: encode_action(readout_action()),
             ("d1", "r1", "d2", "r2")),
            (decode_pre_post, "characterisation",
             lambda: encode_pre_post(pre_post_form(identity_superchannel(2, 2))), ("e",))]:
        for key in keys:
            obj = build()
            obj[key] = value
            with pytest.raises(SerializationError, match=f"^{where}: {key} must be a positive"):
                decode(obj)


@pytest.mark.parametrize("decode, where, build, key", [
    (decode_matrix, "matrix", lambda: encode_matrix(np.eye(2)), "rows"),
    (decode_channel, "channel", lambda: encode_channel(depolarizing_channel(2, 2)), "choi"),
    (decode_superchannel, "superchannel",
     lambda: encode_superchannel(block_trace_readout(0)), "choi"),
    (decode_superchannel, "superchannel", lambda: encode_action(readout_action()), "choi"),
    (decode_action, "action", lambda: encode_action(readout_action()), "images"),
    (decode_action, "action", lambda: encode_action(readout_action()), "d2"),
    (decode_pre_post, "characterisation",
     lambda: encode_pre_post(pre_post_form(identity_superchannel(2, 2))), "post"),
], ids=["matrix-rows", "channel-choi", "superchannel-choi", "action-as-superchannel",
        "action-images", "action-d2", "characterisation-post"])
def test_a_missing_key_is_named(decode, where, build, key):
    """A missing dimension or matrix key reads ``missing key '<key>'``; an
    action file read as a superchannel has no ``choi``."""
    obj = build()
    obj.pop(key, None)
    with pytest.raises(SerializationError, match=f"^{where}: missing key '{key}'$"):
        decode(obj)


def test_matrix_rejects_length_mismatch():
    bad = {"rows": 2, "cols": 2, "data": [[1.0, 0.0]] * 3}
    with pytest.raises(SerializationError):
        decode_matrix(bad)


def test_matrix_rejects_malformed_entries():
    with pytest.raises(SerializationError):
        decode_matrix({"rows": 1, "cols": 1, "data": [[1.0]]})
    with pytest.raises(SerializationError):
        decode_matrix({"rows": 1, "cols": 1})
    with pytest.raises(SerializationError):
        decode_matrix({"rows": 0, "cols": 1, "data": []})


def test_channel_round_trip():
    phi = random_channel(2, 3, 2, seed=1)
    back = decode_channel(encode_channel(phi))
    assert (back.d, back.r) == (2, 3)
    np.testing.assert_allclose(back.choi, phi.choi)


def test_channel_rejects_dimension_mismatch():
    obj = encode_channel(depolarizing_channel(2, 2))
    obj["d"] = 3
    with pytest.raises(SerializationError):
        decode_channel(obj)


def test_superchannel_round_trip():
    sc = block_trace_readout(0)
    back = decode_superchannel(encode_superchannel(sc))
    assert (back.d1, back.r1, back.d2, back.r2) == (2, 2, 1, 1)
    np.testing.assert_allclose(back.choi, sc.choi)


def test_action_round_trip_and_count_check():
    action = readout_action()
    back = decode_action(encode_action(action))
    assert len(back.images) == len(action.images)
    obj = encode_action(action)
    obj["images"] = obj["images"][:-1]
    with pytest.raises(SerializationError):
        decode_action(obj)
    obj = encode_action(action)
    obj["images"][3] = encode_matrix(np.eye(2))
    with pytest.raises(SerializationError, match="^action: "):
        decode_action(obj)


# decoder, its default ``where``, a valid encoding, a dimension key, and the
# key of a nested matrix (or list of matrices) with that matrix's ``where``.
DECODERS = [
    (decode_channel, "channel", lambda: encode_channel(depolarizing_channel(2, 2)),
     "d", "choi", "channel.choi"),
    (decode_superchannel, "superchannel", lambda: encode_superchannel(block_trace_readout(0)),
     "d1", "choi", "superchannel.choi"),
    (decode_action, "action", lambda: encode_action(readout_action()),
     "d1", "images", "action.images[0]"),
    (decode_pre_post, "characterisation",
     lambda: encode_pre_post(pre_post_form(identity_superchannel(2, 2))),
     "e", "v_pre", "characterisation.v_pre"),
]


@pytest.mark.parametrize("decode, where, build, dim_key, nested_key, nested_where", DECODERS,
                         ids=[case[1] for case in DECODERS])
def test_decoders_report_malformed_input_with_their_location(
        decode, where, build, dim_key, nested_key, nested_where):
    decode(build())
    missing = build()
    del missing[dim_key]
    wrong_type = build()
    wrong_type[dim_key] = "two"
    nested = build()
    if isinstance(nested[nested_key], list):
        nested[nested_key][0] = []
    else:
        nested[nested_key] = []
    for bad, prefix in ((missing, where), (wrong_type, where), ([], where),
                        (nested, nested_where)):
        with pytest.raises(SerializationError) as err:
            decode(bad)
        assert str(err.value).startswith(f"{prefix}: "), str(err.value)


def test_pre_post_encoding_keys():
    form = pre_post_form(identity_superchannel(2, 2))
    obj = encode_pre_post(form)
    assert set(obj) == {"e", "v_pre", "post"}
    assert obj["e"] == 1


def test_feasibility_encoding():
    action = restrict_superchannel(block_trace_readout(0))
    report = extend_action(action, seed_point=block_trace_readout(0))
    obj = encode_feasibility(report)
    assert obj["status"] == "feasible"
    assert obj["witness"] is not None
    assert {"iterations", "gap", "affine_residual", "psd_residual"} <= set(obj)
    assert obj["certificate"] is None
    assert obj["newton_steps"] == 0
    assert obj["newton_exit"] == ""
    assert obj["newton_after"] == report.newton_after == 4  # 3 directions
    for exit_ in ("strict", "shadow", "certificate", "none"):
        phase = dataclasses.replace(report, newton_steps=7, newton_exit=exit_)
        assert encode_feasibility(phase)["newton_steps"] == 7
        assert encode_feasibility(phase)["newton_exit"] == exit_


def test_feasibility_encoding_keys_are_the_report_fields_and_the_readme_list():
    """The encoding, the report's declaration and the README's file-format
    list name the same keys."""
    fields = [f.name for f in dataclasses.fields(FeasibilityReport)]
    report = extend_action(no_tp_action(), trace_preserving=True)
    assert list(encode_feasibility(report)) == fields
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = re.search(r"saves its report as `\{(.*?)\}`", readme, re.S).group(1)
    assert re.findall(r'"(\w+)"', listed) == fields


def test_basis_export_header():
    mats = span_basis(2, 1)
    obj = encode_basis(2, 1, mats)
    assert obj["d"] == 2 and obj["r"] == 1 and obj["dim"] == 1
    assert len(obj["basis"]) == 1


def test_load_json_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"rows": 1,\n  "cols": }')
    with pytest.raises(SerializationError) as err:
        load_json(path)
    assert "line 2" in str(err.value)


def test_save_json_reports_an_unwritable_path(tmp_path):
    path = tmp_path / "missing" / "chan.json"
    with pytest.raises(SerializationError, match=f"^{re.escape(str(path))}: "):
        save_json(path, encode_channel(depolarizing_channel(2, 2)))
    assert not path.parent.exists()


def test_save_and_load(tmp_path):
    path = tmp_path / "chan.json"
    save_json(path, encode_channel(depolarizing_channel(2, 2)))
    back = decode_channel(load_json(path))
    np.testing.assert_allclose(back.choi, np.eye(4) / 2)


FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def _same_text(a, b) -> bool:
    """Whether two JSON values encode to the same text: the same structure
    and every float bit for bit, since ``repr`` round-trips (-0.0 included)."""
    return json.dumps(a) == json.dumps(b)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_written_files_are_one_line_and_round_trip_bit_for_bit(tmp_path, name):
    obj = FIXTURES[name]()
    path = tmp_path / name
    save_json(path, obj)
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert _same_text(load_json(path), obj)


def _is_matrix(obj) -> bool:
    return isinstance(obj, dict) and set(obj) in ({"rows", "cols", "data"},
                                                  {"rows", "cols", "base64"})


def _decoded_arrays(obj) -> list:
    """Every encoded matrix in a JSON value, decoded, in document order."""
    if _is_matrix(obj):
        return [decode_matrix(obj)]
    values = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ()
    return [m for v in values for m in _decoded_arrays(v)]


def test_cli_out_files_decode_to_the_indented_writers_arrays(tmp_path, capsys):
    """The ``--out`` files of ``characterize``, ``basis`` and ``extend`` decode
    to the same arrays, bit for bit, as the objects written with
    ``indent=1``, the layout the committed fixtures keep."""
    superchannel = FIXTURE_DIR / "identity_superchannel_2_2.json"
    action = FIXTURE_DIR / "readout_action.json"
    cases = [
        (["characterize", str(superchannel)],
         lambda: encode_pre_post(pre_post_form(decode_superchannel(load_json(superchannel))))),
        (["basis", "2", "3"], lambda: encode_basis(2, 3, span_basis(2, 3))),
        (["extend", str(action)],
         lambda: encode_superchannel(extend_action(decode_action(load_json(action))).witness)),
    ]
    for argv, build in cases:
        out = tmp_path / f"{argv[0]}.json"
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        indented = json.loads(json.dumps(build(), indent=1))
        written, wanted = _decoded_arrays(load_json(out)), _decoded_arrays(indented)
        assert len(written) == len(wanted) > 0, argv[0]
        for got, want in zip(written, wanted):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), argv[0]


def _max_matrix_gap(a, b, where: str) -> float:
    """Largest absolute difference between the matching matrices of two JSON
    values of the same shape, in whichever form each matrix is written; any
    other difference, a float outside a matrix included, fails."""
    if _is_matrix(a):
        assert _is_matrix(b), where
        x, y = decode_matrix(a, where), decode_matrix(b, where)
        assert x.shape == y.shape, where
        return float(np.abs(x - y).max())
    if isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), where
        return max((_max_matrix_gap(a[k], b[k], f"{where}.{k}") for k in a), default=0.0)
    if isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), where
        return max((_max_matrix_gap(x, y, where) for x, y in zip(a, b)), default=0.0)
    assert type(a) is type(b) and a == b, where
    return 0.0


def test_committed_fixtures_match_their_builders():
    """Every committed fixture equals its ``gallery.FIXTURES`` builder: each
    matrix to 1e-12 and every other field exactly.  The action fixtures are
    restriction images, so this guards the restriction.  The committed files
    keep an earlier writer's indented layout and text pairs, which are read
    like the compact base64 one."""
    assert sorted(p.name for p in FIXTURE_DIR.glob("*.json")) == sorted(FIXTURES)
    for name, build in FIXTURES.items():
        committed = load_json(FIXTURE_DIR / name)
        assert (FIXTURE_DIR / name).read_text().count("\n") > 1, name
        assert "base64" not in json.dumps(committed), name
        assert _max_matrix_gap(committed, build(), name) <= 1e-12, name
