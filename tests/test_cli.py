import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from _dense_reference import linear_system
from superchannels.channels import identity_channel, transpose_channel
from superchannels.cli import main
from superchannels.extend import restrict_superchannel
from superchannels.feasibility import FeasibilityReport
from superchannels.gallery import write_fixtures
from superchannels.serialize import (
    decode_action,
    decode_matrix,
    decode_pre_post,
    decode_superchannel,
    encode_action,
    encode_matrix,
    encode_superchannel,
    load_json,
    save_json,
)
from superchannels.linalg import is_psd, kron, random_hermitian, random_unitary, vec
from superchannels.supermaps import (
    Superchannel,
    pre_post_form,
    preserves_span,
    random_superchannel,
    restrictions_equal,
)


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fixtures")
    write_fixtures(outdir)
    # preserves the span but is not PSD, which no committed fixture is
    save_json(outdir / "transpose_supermap_2_2_2_2.json",
              encode_superchannel(Superchannel(2, 2, 2, 2, transpose_channel(4).choi)))
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


@pytest.mark.parametrize("name, code", [("depolarizing_channel_2_2.json", 0),
                                        ("identity_channel_2.json", 0),
                                        ("transpose_channel_2.json", 1)])
def test_check_channel_reports_the_bound_it_applied(capsys, fixtures, name, code):
    """The cp and tp findings carry the tolerance they were judged at: the
    default 1e-9 without --tol, the given one with it; values and exit codes
    do not depend on which of the two is given on these channels."""
    path = str(fixtures / name)
    runs = {tol: run_json(capsys, "check-channel", path, *argv)
            for tol, argv in ((1e-9, ()), (1e-6, ("--tol", "1e-6")))}
    values = set()
    for tol, (got, reports) in runs.items():
        assert got == code
        found = {f["key"]: f for f in reports[0]["results"]}
        assert found["cp"]["tol"] == found["tp"]["tol"] == tol
        values.add(json.dumps([f["value"] for f in reports[0]["results"]]))
    assert len(values) == 1


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


def _cap_action(tmp_path, seed):
    path = tmp_path / f"action_{seed}.json"
    sc = random_superchannel(2, 2, 2, 2, e=1 + seed % 2, seed=seed)
    save_json(path, encode_action(restrict_superchannel(sc)))
    return path


def test_extend_reports_the_newton_steps(capsys, tmp_path):
    """Seed 415's thin extension set: Douglas-Rachford runs to iteration
    4, the switch for its 48 directions, then the Newton phase returns a
    strict witness."""
    path = _cap_action(tmp_path, 415)
    code, reports = run_json(capsys, "extend", str(path), "--max-iter", "20000")
    assert code == 0
    results = {f["key"]: f["value"] for f in reports[0]["results"]}
    assert results["status"] == "feasible"
    assert results["iterations"] == results["newton after"] == 4
    assert results["newton exit"] == "strict"
    assert 0 < results["newton steps"] <= 12
    code, out = run(capsys, "extend", str(path), "--max-iter", "20000")
    assert code == 0
    assert "newton exit: strict" in out and "newton after: 4" in out


def test_extend_reports_a_shadow_exit(capsys, tmp_path):
    """Seed 401's extension is unique: the phase returns the PSD shadow of
    its point at the switch, and ``--out`` writes it as the witness."""
    path, out = _cap_action(tmp_path, 401), tmp_path / "witness.json"
    code, reports = run_json(capsys, "extend", str(path), "--max-iter", "20000",
                             "--out", str(out))
    assert code == 0
    results = {f["key"]: f["value"] for f in reports[0]["results"]}
    assert results["iterations"] == results["newton after"] == 4
    assert results["newton exit"] == "shadow"
    assert 0 < results["newton steps"] <= 12
    sc = random_superchannel(2, 2, 2, 2, e=2, seed=401)
    assert restrictions_equal(decode_superchannel(load_json(out)), sc, 1e-6)
    code, text = run(capsys, "extend", str(path), "--max-iter", "20000")
    assert code == 0
    assert "newton exit: shadow" in text


def test_psd_residual_decides_no_exit_code(capsys, fixtures, tmp_path):
    """The psd residual is 0.0 on a feasible report, dropped on an
    infeasible one, and reported unjudged on an undetermined one, where the
    status sets the exit code; the phase has not run in any of them.  An
    infeasible report judges no residual either."""
    runs = [(0, "feasible", ["extend", str(fixtures / "readout_action.json")]),
            (1, "infeasible", ["tp-extend", str(fixtures / "no_tp_action.json")]),
            (2, "undetermined", ["extend", str(_cap_action(tmp_path, 415)), "--max-iter", "7"])]
    for code_want, status, argv in runs:
        code, reports = run_json(capsys, *argv)
        assert code == code_want
        findings = {f["key"]: f for f in reports[0]["results"]}
        assert findings["status"]["value"] == status
        assert findings["newton exit"]["value"] == ""
        if status == "infeasible":
            assert "psd residual" not in findings
            assert "affine residual" not in findings
            continue
        psd = findings["psd residual"]
        assert psd["tol"] is None and psd["ok"] is None
        assert (psd["value"] == 0.0) == (status == "feasible")


def test_extend_findings_are_the_report_fields(capsys, fixtures):
    """One finding per scalar field of ``FeasibilityReport``, in declaration
    order, with ``_`` read as a space; an infeasible run drops the two
    residuals and adds the certificate margin."""
    scalars = [f.name.replace("_", " ") for f in dataclasses.fields(FeasibilityReport)
               if f.name not in ("witness", "certificate")]
    code, reports = run_json(capsys, "extend", str(fixtures / "readout_action.json"))
    assert code == 0
    assert [f["key"] for f in reports[0]["results"]] == scalars
    code, reports = run_json(capsys, "tp-extend", str(fixtures / "no_tp_action.json"))
    assert code == 1
    assert [f["key"] for f in reports[0]["results"]] == [
        k for k in scalars if k not in ("affine residual", "psd residual")] + ["certificate margin"]


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


def _tp_certificate_checks_against_the_dense_system(capsys, path, out):
    """Run ``tp-extend --out`` on ``path`` and check the Farkas certificate it
    saves without the solver: W lies in the row space of the dense constraint
    matrix, so ``<W, C> = <W, x0>`` on every C that meets the constraints,
    and that value is negative while W is PSD up to what the trace term
    absorbs.  Returns the findings."""
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
    return results


def test_tp_extend_certificate_checks_against_the_dense_system(capsys, fixtures, tmp_path):
    """Douglas-Rachford's certificate, at iteration 4."""
    results = _tp_certificate_checks_against_the_dense_system(
        capsys, fixtures / "no_tp_action.json", tmp_path / "report.json")
    assert results["iterations"] == 4 and results["newton exit"] == ""


def test_tp_extend_phase_certificate_checks_against_the_dense_system(capsys, tmp_path):
    """The Newton phase's dual matrix, at the switch, iteration 4: TP
    ``(2,2,2,2)`` seed 32, e = 2, which Douglas-Rachford alone certifies only
    at iteration 512."""
    path = tmp_path / "action.json"
    sc = random_superchannel(2, 2, 2, 2, e=2, seed=32)
    save_json(path, encode_action(restrict_superchannel(sc)))
    results = _tp_certificate_checks_against_the_dense_system(capsys, path,
                                                              tmp_path / "report.json")
    assert results["iterations"] == results["newton after"] == 4
    assert results["newton exit"] == "certificate"


@pytest.mark.parametrize("name, expected", [
    ("identity_superchannel_2_2.json",
     [("psd", True, 1e-9, True), ("span preserving", True, 1e-9, True),
      ("order unit fixed", True, None, None), ("aux dim", 1, None, None),
      ("induced map unitality residual", 0.0, 1e-9, True),
      ("marginal factorisation residual", 0.0, 1e-9, True)]),
    ("perturbed_readout.json",
     [("psd", False, 1e-9, False), ("min eigenvalue", -0.1, None, None),
      ("span preserving", False, 1e-9, False), ("order unit fixed", False, None, None)]),
    ("transpose_supermap_2_2_2_2.json",
     [("psd", False, 1e-9, False), ("min eigenvalue", -1.0, None, None),
      ("span preserving", True, 1e-9, True), ("order unit fixed", True, None, None)]),
])
def test_check_super_findings(capsys, fixtures, monkeypatch, name, expected):
    """The psd and span findings judge the two axioms apart.  A superchannel's Choi
    matrix gets no eigenvalue computation (``is_psd``'s shifted Cholesky
    factorisation accepts it), a rejected one two (``is_psd``'s fallback to
    ``lambda_min`` and the ``min eigenvalue`` finding), and no input gets
    eigenvectors."""
    from superchannels import cli, linalg

    path = fixtures / name
    choi_shape = decode_superchannel(load_json(path)).choi.shape
    eigvals, eigvecs = [], []
    lambda_min, herm_eig = linalg.lambda_min, linalg.herm_eig

    def counted(m):
        eigvals.append(np.shape(m) == choi_shape)
        return lambda_min(m)

    def vectors(m):
        eigvecs.append(np.shape(m))
        return herm_eig(m)

    monkeypatch.setattr(linalg, "lambda_min", counted)
    monkeypatch.setattr(cli, "lambda_min", counted)
    monkeypatch.setattr(linalg, "herm_eig", vectors)
    code, reports = run_json(capsys, "check-super", str(path))
    assert sum(eigvals) == (0 if expected[0][1] else 2)
    assert eigvecs == []
    assert code == (0 if expected[0][1] else 1)
    got = [(f["key"], f["value"], f["tol"], f["ok"]) for f in reports[0]["results"]]
    assert [g[0] for g in got] == [e[0] for e in expected]
    for (key, value, tol, ok), want in zip(got, expected):
        assert (tol, ok) == want[2:], key
        assert value == pytest.approx(want[1], abs=1e-12), key
    preserving = dict((g[0], g[1]) for g in got)["span preserving"]
    sc = decode_superchannel(load_json(path))
    assert preserving == preserves_span(sc.choi, sc.dims, 1e-9)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 3, 2, 3)])
def test_check_super_psd_and_span_findings_are_the_two_rules(capsys, tmp_path, dims, seed):
    """``psd`` is ``is_psd`` and ``span preserving`` is ``preserves_span``, on
    inputs that pass both rules, either one alone, or neither."""
    choi = random_superchannel(*dims, e=2, seed=seed).choi
    inputs = (choi, choi.T, -choi, 2 * choi, random_hermitian(choi.shape[0], seed),
              transpose_channel(dims[0] * dims[1]).choi)
    seen = set()
    for m in inputs:
        path = tmp_path / "supermap.json"
        save_json(path, encode_superchannel(Superchannel(*dims, m)))
        _, reports = run_json(capsys, "check-super", str(path))
        found = {f["key"]: f["value"] for f in reports[0]["results"]}
        assert found["psd"] == is_psd(m, 1e-9)
        assert found["span preserving"] == preserves_span(m, dims, 1e-9)
        seen.add((found["psd"], found["span preserving"]))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_characterize_identity(capsys, fixtures, tmp_path):
    out = tmp_path / "form.json"
    code, reports = run_json(capsys, "characterize",
                             str(fixtures / "identity_superchannel_2_2.json"),
                             "--out", str(out))
    assert code == 0
    form = decode_pre_post(load_json(out))
    assert form.e == 1


def test_characterize_reports_the_bounds_pre_post_form_applied(capsys, tmp_path):
    """A superchannel a hair off the PSD cone, (1 - p) Omega + p I/2 with p =
    -2e-9: check-super passes it and pre_post_form factors it with e = 1, so
    characterize passes too, each residual held to pre_post_form's bound."""
    p = -2e-9
    sc = Superchannel(2, 1, 2, 1, (1 - p) * identity_channel(2).choi + p * np.eye(4) / 2)
    path = tmp_path / "sc.json"
    save_json(path, encode_superchannel(sc))
    assert run_json(capsys, "check-super", str(path))[0] == 0
    code, reports = run_json(capsys, "characterize", str(path))
    assert code == 0
    findings = [(f["key"], f["value"], f["tol"], f["ok"]) for f in reports[0]["results"]]
    assert findings == [("aux dim", 1, None, None)] + [
        (key, value, bound, True) for key, value, bound in pre_post_form(sc).judged]


def test_characterize_rejects_lift_dependent_input(capsys, fixtures):
    code = main(["characterize", str(fixtures / "perturbed_readout.json")])
    assert code == 3
    assert "lift-dependent" in capsys.readouterr().err


def test_extreme_reports(capsys, fixtures, tmp_path):
    """Every CP fixture channel (the transpose channel is not CP) under the
    fixed-unit spaces: the keys and values of ``extreme --json``."""
    spaces_path = tmp_path / "spaces.json"
    save_json(spaces_path, {"s_basis": [encode_matrix(np.eye(2))], "t_basis": []})
    for name, kraus_count, extreme in (("depolarizing_channel_2_2.json", 4, False),
                                       ("identity_channel_2.json", 1, True)):
        code, reports = run_json(capsys, "extreme", str(fixtures / name),
                                 "--spaces", str(spaces_path))
        assert code == 0
        results = {f["key"]: f["value"] for f in reports[0]["results"]}
        assert results == {"kraus_count": kraus_count, "extreme_choi": extreme,
                           "extreme_unital_tp": extreme, "extreme_constrained": extreme}


@pytest.mark.parametrize("size", [4, 3])
def test_extreme_mis_sized_spaces_are_an_input_error(capsys, fixtures, tmp_path, size):
    """A 4x4 spanning matrix for a 2 -> 2 map is not cut into 2x2 blocks, and a
    3x3 one does not reach numpy's reshape: both are named and rejected."""
    spaces_path = tmp_path / "spaces.json"
    save_json(spaces_path, {"s_basis": [encode_matrix(np.eye(size))], "t_basis": []})
    code = main(["extreme", str(fixtures / "identity_channel_2.json"),
                 "--spaces", str(spaces_path)])
    assert code == 3
    assert f"s_basis[0] has shape ({size}, {size}), expected (2, 2)" in capsys.readouterr().err


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


def test_factor_unitary_reports_the_residual_factor_unitary_accepted(capsys, tmp_path):
    """A product unitary moved 6e-9 off the product set: factor_unitary splits
    it with residual 1.26e-8, within its bound 1e-8 * ||u||_F = 4e-8, so the
    command passes and reports that residual without a bound of its own."""
    h = random_hermitian(16, np.random.default_rng(0))
    u = kron(random_unitary(4, 1), random_unitary(4, 2)) @ expm(6e-9j * h / np.linalg.norm(h, 2))
    path = tmp_path / "u.json"
    save_json(path, {"unitary": encode_matrix(u)})
    code, reports = run_json(capsys, "factor-unitary", str(path), "--dims", "4", "4",
                             "--tol", "1e-6")
    assert code == 0
    findings = {f["key"]: f for f in reports[0]["results"]}
    assert findings["factorable"]["value"] is True
    residual = findings["reconstruction residual"]
    assert 1e-8 < residual["value"] <= 4e-8
    assert residual["tol"] is None and residual["ok"] is None


def test_basis_command(capsys, tmp_path):
    out = tmp_path / "basis.json"
    code, reports = run_json(capsys, "basis", "2", "2", "--out", str(out))
    assert code == 0
    obj = load_json(out)
    assert obj["dim"] == 13


@pytest.mark.parametrize("d, r", [("0", "2"), ("2", "0"), ("-1", "2")])
def test_basis_of_non_positive_dimensions_is_an_input_error(capsys, d, r):
    """``basis 0 2`` used to exit 3 with numpy's reshape message."""
    assert main(["basis", d, r]) == 3
    assert capsys.readouterr().err == (
        f"error: span dimensions must be positive, got d={d}, r={r}\n")


@pytest.mark.parametrize("command, operand, option", [
    ("extend", "readout_action.json", "--tol"),
    ("tp-extend", "readout_action.json", "--tol"),
    ("characterize", "identity_superchannel_2_2.json", "--tol"),
    ("basis", None, "--tol"),
    ("check-channel", "identity_channel_2.json", "--out"),
    ("check-super", "identity_superchannel_2_2.json", "--out"),
    ("extreme", "identity_channel_2.json", "--out"),
    ("demo-paper", None, "--out"),
    ("demo-paper", None, "--seed"),
])
def test_options_a_handler_does_not_read_are_rejected(capsys, fixtures, tmp_path,
                                                       command, operand, option):
    """Each subcommand declares only the options its handler reads, so an
    ignored ``--tol`` or ``--out`` is an input error, and nothing is written."""
    operands = [str(fixtures / operand)] if operand else ["2", "2"] if command == "basis" else []
    out = tmp_path / "out.json"
    value = str(out) if option == "--out" else "1e-3"
    assert main([command, *operands, option, value]) == 3
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_tp_extend_of_a_set_without_directions_is_an_input_error(capsys, fixtures, json_flag):
    """Under trace preservation ``readout_action`` (n2 = 1) leaves an affine
    set with no directions, and an inconsistent one: exit 3, nothing on
    standard output."""
    code = main(["tp-extend", str(fixtures / "readout_action.json"), *json_flag])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "affine constraint system is inconsistent" in captured.err


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
    """A null in the text pairs and a NaN in the base64 bytes are both
    input errors."""
    path = tmp_path / "u.json"
    text = {"rows": 4, "cols": 4,
            "data": [[float(z.real), float(z.imag)] for z in np.eye(4, dtype=complex).flat]}
    text["data"][5] = [None, 0.0]
    with_nan = np.eye(4, dtype=complex)
    with_nan[1, 1] = complex(1.0, np.nan)
    for matrix in (text, encode_matrix(with_nan)):
        save_json(path, {"unitary": matrix})
        assert main(["factor-unitary", str(path), "--dims", "2", "2"]) == 3
        assert capsys.readouterr().err.startswith("input error: matrix: ")


@pytest.mark.parametrize("command, obj, where", [
    (["factor-unitary", "--dims", "2", "2"],
     {"unitary": {**encode_matrix(np.ones((1, 4))), "rows": True}}, "matrix"),
    (["check-channel"], {"d": 2.9, "r": 2, "choi": encode_matrix(np.eye(4))}, "channel"),
    (["check-channel"], {"d": 2, "r": "2", "choi": encode_matrix(np.eye(4))}, "channel"),
], ids=["bool-rows", "float-d", "string-r"])
def test_dimensions_that_are_not_json_integers_are_input_errors(capsys, tmp_path,
                                                               command, obj, where):
    path = tmp_path / "in.json"
    save_json(path, obj)
    assert main([command[0], str(path), *command[1:]]) == 3
    assert capsys.readouterr().err.startswith(f"input error: {where}: ")


@pytest.mark.parametrize("command, operand", [("basis", None),
                                              ("characterize", "identity_superchannel_2_2.json"),
                                              ("extend", "readout_action.json")])
def test_an_unwritable_out_is_an_input_error_naming_it(capsys, fixtures, tmp_path,
                                                       command, operand):
    """A failed write is an input error (exit 3), not a failed check, and no
    report is printed."""
    operands = [str(fixtures / operand)] if operand else ["2", "2"]
    out = tmp_path / "missing" / "out.json"
    assert main([command, *operands, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {out}: ")


@pytest.mark.parametrize("command, operand, work", [
    ("basis", None, "span_basis"),
    ("characterize", "identity_superchannel_2_2.json", "pre_post_form"),
    ("extend", "readout_action.json", "extend_action"),
])
def test_a_missing_out_directory_ends_the_run_before_the_work(capsys, fixtures, tmp_path,
                                                              monkeypatch, command, operand,
                                                              work):
    from superchannels import cli

    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran although --out cannot be written")

    monkeypatch.setattr(cli, work, never)
    operands = [str(fixtures / operand)] if operand else ["2", "2"]
    out = tmp_path / "missing" / "out.json"
    assert main([command, *operands, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {out}: ")


@pytest.mark.parametrize("command, name, where, key", [
    ("check-super", "readout_action.json", "superchannel", "choi"),
    ("extend", "identity_superchannel_2_2.json", "action", "images"),
])
def test_a_missing_key_is_an_input_error_naming_it(capsys, fixtures, command, name,
                                                   where, key):
    assert main([command, str(fixtures / name)]) == 3
    assert capsys.readouterr().err == f"input error: {where}: missing key '{key}'\n"


def test_a_file_that_is_not_unicode_is_an_input_error_naming_it(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"d": 2, "r": 2, "note": "\xff"}')
    assert main(["check-channel", str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"input error: {path}: ")


def test_utf16_files_are_read(capsys, fixtures, tmp_path):
    """json detects the encoding of the bytes (RFC 8259), so a UTF-16 copy of
    a fixture gives the same report."""
    source = fixtures / "identity_channel_2.json"
    copy = tmp_path / "utf16.json"
    copy.write_bytes(source.read_text().encode("utf-16"))
    assert main(["check-channel", str(source), "--json"]) == 0
    want = json.loads(capsys.readouterr().out)
    assert main(["check-channel", str(copy), "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["results"] == want["results"]


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


def test_the_cached_parser_keeps_no_state_between_calls(capsys, fixtures):
    """``main`` reuses one parser per process.  A bad option, a help request
    and two reports in a row give the same exit codes and output as the same
    calls, each on a freshly built parser."""
    from superchannels import cli

    calls = [["check-super", "a.json", "--bogus"],
             ["extend", "--help"],
             ["check-channel", str(fixtures / "identity_channel_2.json"), "--json"],
             ["check-super", str(fixtures / "identity_superchannel_2_2.json"), "--json"]]
    assert cli.build_parser() is cli.build_parser()
    shared = [(main(argv), capsys.readouterr()) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append((main(argv), capsys.readouterr()))
    assert [code for code, _ in shared] == [3, 0, 0, 0]
    assert shared == fresh


def test_extend_takes_one_seed_file(capsys, fixtures):
    seed = str(fixtures / "readout_first_block.json")
    code = main(["extend", str(fixtures / "readout_action.json"), "--seeds", seed, seed])
    assert code == 3
    assert "unrecognized arguments" in capsys.readouterr().err


def test_text_output_contains_status(capsys, fixtures):
    code, out = run(capsys, "check-channel", str(fixtures / "identity_channel_2.json"))
    assert code == 0
    assert "[PASS]" in out


def test_importing_the_cli_loads_neither_the_demo_nor_the_gallery():
    """Only ``demo-paper`` reads the demo suite, and only the demo suite the
    gallery, so no other subcommand pays for importing either."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import superchannels.cli, sys; "
            "print([m for m in ('superchannels.demo', 'superchannels.gallery') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


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
