import json

import numpy as np
import pytest

from superchannels.cli import main
from superchannels.gallery import write_fixtures
from superchannels.serialize import (
    decode_pre_post,
    decode_superchannel,
    encode_matrix,
    load_json,
    save_json,
)
from superchannels.linalg import kron, random_unitary


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fixtures")
    write_fixtures(outdir)
    return outdir


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main(list(argv) + ["--json"])
    out = capsys.readouterr().out
    reports = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, reports


def test_check_channel_depolarizing(capsys, fixtures):
    code, reports = run_json(capsys, "check-channel",
                             str(fixtures / "depolarizing_channel_2_2.json"))
    assert code == 0
    results = {f["key"]: f["value"] for f in reports[0]["results"]}
    assert results["cp"] is True and results["tp"] is True
    assert results["trace scale"] == [1.0, 0.0]
    assert results["kraus rank"] == 4


def test_check_channel_identity(capsys, fixtures):
    code, reports = run_json(capsys, "check-channel",
                             str(fixtures / "identity_channel_2.json"))
    assert code == 0
    results = {f["key"]: f["value"] for f in reports[0]["results"]}
    assert results["kraus rank"] == 1


def test_check_channel_transpose_fails(capsys, fixtures):
    code, reports = run_json(capsys, "check-channel",
                             str(fixtures / "transpose_channel_2.json"))
    assert code == 1
    results = {f["key"]: f["value"] for f in reports[0]["results"]}
    assert results["cp"] is False


def test_check_super_readout(capsys, fixtures):
    code, reports = run_json(capsys, "check-super",
                             str(fixtures / "readout_first_block.json"))
    assert code == 0
    results = {f["key"]: f["value"] for f in reports[0]["results"]}
    assert results["psd"] is True and results["span preserving"] is True
    assert results["aux dim"] == 1


def test_check_super_mixture_aux_dim(capsys, fixtures):
    code, reports = run_json(capsys, "check-super",
                             str(fixtures / "readout_mixture_50.json"))
    assert code == 0
    results = {f["key"]: f["value"] for f in reports[0]["results"]}
    assert results["aux dim"] == 2


def test_check_super_rejects_non_psd(capsys, fixtures):
    code, reports = run_json(capsys, "check-super",
                             str(fixtures / "perturbed_readout.json"))
    assert code == 1
    results = {f["key"]: f["value"] for f in reports[0]["results"]}
    assert results["psd"] is False
    assert results["min eigenvalue"] < 0


def test_extend_readout_action(capsys, fixtures, tmp_path):
    out = tmp_path / "witness.json"
    code, reports = run_json(capsys, "extend", str(fixtures / "readout_action.json"),
                             "--out", str(out))
    assert code == 0
    assert reports[0]["status"] == "pass"
    witness = decode_superchannel(load_json(out))
    assert (witness.d1, witness.r1, witness.d2, witness.r2) == (2, 2, 1, 1)


def test_extend_with_seed(capsys, fixtures):
    code, reports = run_json(capsys, "extend", str(fixtures / "readout_action.json"),
                             "--seeds", str(fixtures / "readout_first_block.json"))
    assert code == 0


def test_tp_extend_infeasible(capsys, fixtures):
    code, reports = run_json(capsys, "tp-extend", str(fixtures / "no_tp_action.json"))
    assert code == 1
    results = {f["key"]: f["value"] for f in reports[0]["results"]}
    assert results["status"] == "infeasible"
    assert results["gap"] > 1e-6


def test_characterize_identity(capsys, fixtures, tmp_path):
    out = tmp_path / "form.json"
    code, reports = run_json(capsys, "characterize",
                             str(fixtures / "identity_superchannel_2_2.json"),
                             "--out", str(out))
    assert code == 0
    form = decode_pre_post(load_json(out))
    assert form.e == 1


def test_characterize_rejects_lift_dependent_input(capsys, fixtures):
    code = main(["characterize", str(fixtures / "perturbed_readout.json")])
    assert code == 3
    assert "lift-dependent" in capsys.readouterr().err


def test_extreme_reports(capsys, fixtures, tmp_path):
    spaces_path = tmp_path / "spaces.json"
    save_json(spaces_path, {"s_basis": [encode_matrix(np.eye(2))], "t_basis": []})
    code, reports = run_json(capsys, "extreme",
                             str(fixtures / "depolarizing_channel_2_2.json"),
                             "--spaces", str(spaces_path))
    assert code == 0
    results = {f["key"]: f["value"] for f in reports[0]["results"]}
    assert results["kraus_count"] == 4
    assert results["extreme_choi"] is False
    assert results["extreme_unital_tp"] is False
    assert results["extreme_constrained"] is False


def test_factor_unitary_command(capsys, tmp_path):
    u = kron(random_unitary(2, 1), random_unitary(2, 2))
    path = tmp_path / "u.json"
    save_json(path, {"unitary": encode_matrix(u)})
    code, reports = run_json(capsys, "factor-unitary", str(path), "--dims", "2", "2")
    assert code == 0
    swap = np.eye(4)[[0, 2, 1, 3]]
    save_json(path, {"unitary": encode_matrix(swap)})
    code, reports = run_json(capsys, "factor-unitary", str(path), "--dims", "2", "2")
    assert code == 1


def test_basis_command(capsys, tmp_path):
    out = tmp_path / "basis.json"
    code, reports = run_json(capsys, "basis", "2", "2", "--out", str(out))
    assert code == 0
    obj = load_json(out)
    assert obj["dim"] == 13


def test_extend_undetermined_exit_code(capsys, fixtures):
    code, reports = run_json(capsys, "extend", str(fixtures / "no_tp_action.json"),
                             "--max-iter", "5")
    assert code == 2
    assert reports[0]["status"] == "undetermined"


def test_demo_reseeded_still_passes(capsys):
    code, _ = run_json(capsys, "demo-paper", "--seed", "7")
    assert code == 0


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["check-channel", str(bad)])
    assert code == 3
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["extend"],                                   # missing path
    ["check-super", "a.json", "--bogus"],         # unknown option
    ["factor-unitary", "u.json", "--dims", "2"],  # too few values
    ["no-such-command"],
])
def test_argument_errors_exit_as_input_errors(capsys, argv):
    assert main(argv) == 3
    assert "error" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["extend", "--help"]) == 0
    assert "--seeds" in capsys.readouterr().out


def test_extend_takes_one_seed_file(capsys, fixtures):
    seed = str(fixtures / "readout_first_block.json")
    code = main(["extend", str(fixtures / "readout_action.json"), "--seeds", seed, seed])
    assert code == 3
    assert "unrecognized arguments" in capsys.readouterr().err


def test_text_output_contains_status(capsys, fixtures):
    code, out = run(capsys, "check-channel", str(fixtures / "identity_channel_2.json"))
    assert code == 0
    assert "[PASS]" in out


def test_demo_forced_failure_with_tiny_tolerance(capsys):
    code, reports = run_json(capsys, "demo-paper", "--tol", "1e-30")
    assert code == 1
    failed = [r for r in reports if r["status"] == "fail" and r["command"] != "demo-suite"]
    assert failed
    # failures carry the judged tolerance in their findings
    for rep in failed:
        bad = [f for f in rep["results"] if f["ok"] is False]
        assert bad
        assert any(f["tol"] is not None for f in bad)
