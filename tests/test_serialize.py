import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from superchannels.channels import KrausSet, depolarizing_channel, random_channel
from superchannels.extend import extend_action, restrict_superchannel
from superchannels.gallery import FIXTURES, block_trace_readout, readout_action
from superchannels.serialize import (
    SerializationError,
    decode_action,
    decode_channel,
    decode_kraus,
    decode_matrix,
    decode_pre_post,
    decode_superchannel,
    encode_action,
    encode_basis,
    encode_channel,
    encode_feasibility,
    encode_kraus,
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


def test_matrix_json_text_matches_per_entry_encoding():
    """The array encoding writes the same JSON text as converting entry by entry."""
    rng = np.random.default_rng(1)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m[0, :4] = [-0.0, complex(0.0, -0.0), 5e-324, complex(1e300, -1e300)]
    per_entry = {"rows": 9, "cols": 9,
                 "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}
    assert json.dumps(encode_matrix(m)) == json.dumps(per_entry)


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


def test_kraus_round_trip():
    ks = KrausSet(2, 2, (np.eye(2, dtype=complex), 1j * np.eye(2, dtype=complex)))
    back = decode_kraus(encode_kraus(ks))
    assert len(back.ops) == 2
    np.testing.assert_allclose(back.ops[1], ks.ops[1])


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


# decoder, its default ``where``, a valid encoding, a dimension key, and the
# key of a nested matrix (or list of matrices) with that matrix's ``where``.
DECODERS = [
    (decode_channel, "channel", lambda: encode_channel(depolarizing_channel(2, 2)),
     "d", "choi", "channel.choi"),
    (decode_kraus, "kraus", lambda: encode_kraus(KrausSet(2, 2, (np.eye(2, dtype=complex),))),
     "d", "ops", "kraus.ops[0]"),
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
    assert encode_feasibility(dataclasses.replace(report, newton_steps=7))["newton_steps"] == 7


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


def test_save_and_load(tmp_path):
    path = tmp_path / "chan.json"
    save_json(path, encode_channel(depolarizing_channel(2, 2)))
    back = decode_channel(load_json(path))
    np.testing.assert_allclose(back.choi, np.eye(4) / 2)


def _max_number_gap(a, b, where: str) -> float:
    """Largest absolute difference between the numbers of two JSON values of
    the same shape; any other difference fails."""
    if isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), where
        return max((_max_number_gap(a[k], b[k], f"{where}.{k}") for k in a), default=0.0)
    if isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), where
        return max((_max_number_gap(x, y, where) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, float):
        return abs(a - b)
    assert a == b, where
    return 0.0


def test_committed_fixtures_match_their_builders():
    """Every committed fixture equals its ``gallery.FIXTURES`` builder to 1e-12;
    the action fixtures are restriction images, so this guards the restriction."""
    root = Path(__file__).resolve().parent.parent / "fixtures"
    assert sorted(p.name for p in root.glob("*.json")) == sorted(FIXTURES)
    for name, build in FIXTURES.items():
        assert _max_number_gap(load_json(root / name), build(), name) <= 1e-12, name
