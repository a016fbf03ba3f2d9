import json

import numpy as np
import pytest

from _dense_reference import linear_system
from superchannels.cli import main
from superchannels.extend import restrict_superchannel
from superchannels.gallery import write_fixtures
from superchannels.serialize import (
    decode_action,
    decode_matrix,
    decode_pre_post,
    decode_superchannel,
    encode_action,
    encode_matrix,
    load_json,
    save_json,
)
from superchannels.linalg import kron, random_unitary, vec
from superchannels.supermaps import is_superchannel, random_superchannel


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


def test_extend_reports_the_newton_steps(capsys, tmp_path):
    """Seed 415's thin extension set: Douglas-Rachford runs to iteration
    1,024, then the Newton phase returns a strict witness."""
    path = tmp_path / "action.json"
    sc = random_superchannel(2, 2, 2, 2, e=2, seed=415)
    save_json(path, encode_action(restrict_superchannel(sc)))
    code, reports = run_json(capsys, "extend", str(path), "--max-iter", "20000")
    assert code == 0
    results = {f["key"]: f["value"] for f in reports[0]["results"]}
    assert results["status"] == "feasible"
    assert results["iterations"] == 1024
    assert 0 < results["newton steps"] <= 60


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


def test_tp_extend_certificate_checks_against_the_dense_system(capsys, fixtures, tmp_path):
    """The Farkas certificate ``tp-extend --out`` saves, checked without the
    solver: W lies in the row space of the dense constraint matrix, so
    ``<W, C> = <W, x0>`` on every C that meets the constraints, and that
    value is negative while W is PSD up to what the trace term absorbs."""
    out = tmp_path / "report.json"
    path = fixtures / "no_tp_action.json"
    code, reports = run_json(capsys, "tp-extend", str(path), "--out", str(out))
    assert code == 1
    results = {f["key"]: f["value"] for f in reports[0]["results"]}
    cert = load_json(out)["certificate"]
    assert results["certificate margin"] == pytest.approx(cert["margin"])
    assert cert["margin"] < 0
    w = decode_matrix(cert["matrix"])

    a, b, n = linear_system(decode_action(load_json(path)), tp=True)
    z = np.linalg.lstsq(a.T, vec(w).conj(), rcond=None)[0]
    assert np.linalg.norm(a.T @ z - vec(w).conj()) <= 1e-10 * np.linalg.norm(w)
    x0 = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.linalg.norm(a @ x0 - b) <= 1e-10
    x0 = x0.reshape(n, n)
    inner = np.vdot(w, x0).real
    lam_min = np.linalg.eigvalsh(w)[0]
    assert inner < 0
    assert inner + max(0.0, -lam_min) * np.trace(x0).real < 0


@pytest.mark.parametrize("name, expected", [
    ("identity_superchannel_2_2.json",
     [("psd", True, 1e-9, True), ("span preserving", True, 1e-9, True),
      ("order unit fixed", True, None, None), ("aux dim", 1, None, None),
      ("induced map unitality residual", 0.0, 1e-9, True),
      ("marginal factorisation residual", 0.0, 1e-9, True)]),
    ("perturbed_readout.json",
     [("psd", False, 1e-9, False), ("min eigenvalue", -0.1, None, None),
      ("span preserving", False, 1e-9, False), ("order unit fixed", False, None, None)]),
])
def test_check_super_findings(capsys, fixtures, monkeypatch, name, expected):
    """The findings follow from ``is_superchannel``, and a superchannel's
    Choi matrix is decomposed once."""
    from superchannels import cli, linalg, supermaps

    path = fixtures / name
    choi_shape = decode_superchannel(load_json(path)).choi.shape
    calls = []

    def counted(m, *args, **kwargs):
        calls.append(np.shape(m) == choi_shape)
        return linalg.herm_eig(m, *args, **kwargs)

    monkeypatch.setattr(cli, "herm_eig", counted)
    monkeypatch.setattr(supermaps, "herm_eig", counted)
    code, reports = run_json(capsys, "check-super", str(path))
    assert sum(calls) == (1 if expected[0][1] else 2)
    assert code == (0 if expected[0][1] else 1)
    got = [(f["key"], f["value"], f["tol"], f["ok"]) for f in reports[0]["results"]]
    assert [g[0] for g in got] == [e[0] for e in expected]
    for (key, value, tol, ok), want in zip(got, expected):
        assert (tol, ok) == want[2:], key
        assert value == pytest.approx(want[1], abs=1e-12), key
    preserving = dict((g[0], g[1]) for g in got)["span preserving"]
    assert preserving == is_superchannel(decode_superchannel(load_json(path)), 1e-9)


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


@pytest.mark.parametrize("content", [[], "x"])
def test_extreme_spaces_file_that_is_not_an_object_is_an_input_error(
        capsys, fixtures, tmp_path, content):
    spaces_path = tmp_path / "spaces.json"
    save_json(spaces_path, content)
    code = main(["extreme", str(fixtures / "identity_channel_2.json"),
                 "--spaces", str(spaces_path)])
    assert code == 3
    assert capsys.readouterr().err.startswith("input error: spaces: ")


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
                             "--max-iter", "1")
    assert code == 2
    assert reports[0]["status"] == "undetermined"


@pytest.mark.parametrize("command", ["extend", "tp-extend"])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_non_positive_iteration_cap_is_an_error(capsys, fixtures, command, cap):
    code = main([command, str(fixtures / "readout_action.json"), "--max-iter", cap, "--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "iteration cap" in captured.err


def test_demo_reseeded_still_passes(capsys):
    code, _ = run_json(capsys, "demo-paper", "--seed", "7")
    assert code == 0


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["check-channel", str(bad)])
    assert code == 3
    assert "line" in capsys.readouterr().err


def test_non_integer_dimension_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "c.json"
    save_json(path, {"d": "two", "r": 2, "choi": encode_matrix(np.eye(4))})
    assert main(["check-channel", str(path)]) == 3
    assert capsys.readouterr().err.startswith("input error: channel: ")


def test_null_matrix_entry_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "u.json"
    obj = {"unitary": encode_matrix(np.eye(4))}
    obj["unitary"]["data"][5] = [None, 0.0]
    save_json(path, obj)
    assert main(["factor-unitary", str(path), "--dims", "2", "2"]) == 3
    assert "input error" in capsys.readouterr().err


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
