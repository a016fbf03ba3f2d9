"""Spectral decisions go through ``linalg``: no module of the package outside
``linalg.py`` and ``feasibility.py`` (whose solver loop runs its own bare
``eigh`` and its Newton phase's Cholesky factorisations) calls ``herm_eig``,
``eigh``, ``eigvalsh`` or ``cholesky``, and the PSD rule ``lambda_min >= -tol *
rel_scale(m)`` is written once, in ``linalg.is_psd``, behind its shifted
Cholesky factorisation.

Ranks follow one rule, ``linalg.rank_eps`` and ``linalg.null_space``: outside
``linalg.py`` only ``supermaps.factor_unitary`` (which reads the singular
vectors) calls ``svd`` or ``matrix_rank``, and no module floors a cut at the
largest singular value, as in ``tol * max(1.0, s[0])``."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "superchannels"
EXEMPT = {"linalg.py", "feasibility.py"}
SPECTRAL = {"herm_eig", "eigh", "eigvalsh", "cholesky"}
PSD_RULE = re.compile(r">=\s*-\s*\w+\s*\*\s*rel_scale\(")
RANK = {"svd", "matrix_rank"}
RANK_EXEMPT = {("supermaps.py", "factor_unitary")}
SPECTRAL_FLOOR = re.compile(r"max\(\s*1(?:\.0*)?\s*,\s*(?:\w+\[0\]|\w*s_?max\w*)\s*\)")


def _called_name(node: ast.Call) -> str | None:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def spectral_calls(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every call of a function named in ``SPECTRAL``,
    bare or as an attribute."""
    return sorted((node.lineno, _called_name(node)) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and _called_name(node) in SPECTRAL)


def rank_calls(source: str) -> list[tuple[int, str, str]]:
    """``(line, name, function)`` of every call of a function named in ``RANK``,
    with the top-level function it sits in (``""`` at module level)."""
    hits = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else ""
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and _called_name(node) in RANK:
                hits.append((node.lineno, _called_name(node), owner))
    return sorted(hits)


def spectral_floors(source: str) -> list[int]:
    """Lines of every ``max(1, s[0])`` or ``max(1, smax)``-style floor."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and _called_name(node) == "max"
                  and SPECTRAL_FLOOR.search(ast.unparse(node)))


def psd_rules(source: str) -> list[int]:
    """Lines of every comparison written as ``x >= -tol * rel_scale(m)``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare) and PSD_RULE.search(ast.unparse(node))]


def test_spectral_calls_are_found():
    source = "w, _ = herm_eig(m)\nx = np.linalg.eigvalsh(m)[0]\nla.eigh(m)\nherm_eig\n"
    assert spectral_calls(source) == [(1, "herm_eig"), (2, "eigvalsh"), (3, "eigh")]


def test_cholesky_calls_are_found():
    source = ("low = np.linalg.cholesky(a)\nif cholesky(w - t * e) is None:\n    pass\n"
              "cholesky\nla.cholesky_solve(a)\n")
    assert spectral_calls(source) == [(1, "cholesky"), (2, "cholesky")]


def test_psd_rules_are_found():
    assert psd_rules("ok = w[-1] >= -tol * rel_scale(c)\nok = lam >= -t*rel_scale(m) and x\n"
                     "ok = w[-1] >= tol * rel_scale(c)\n") == [1, 2]


def test_no_spectral_call_outside_linalg():
    found = {path.name: hits for path in sorted(PACKAGE.glob("*.py"))
             if path.name not in EXEMPT and (hits := spectral_calls(path.read_text()))}
    assert found == {}


def test_the_psd_rule_is_written_once():
    found = {path.name: hits for path in sorted(PACKAGE.glob("*.py"))
             if (hits := psd_rules(path.read_text()))}
    assert list(found) == ["linalg.py"] and len(found["linalg.py"]) == 1


def test_rank_calls_and_spectral_floors_are_found():
    source = ("s = np.linalg.svd(m)\n"
              "def f(m):\n    return np.linalg.matrix_rank(m) + len(svd(m, compute_uv=False))\n"
              "svd\n")
    assert rank_calls(source) == [(1, "svd", ""), (3, "matrix_rank", "f"), (3, "svd", "f")]
    assert spectral_floors("a = tol * max(1.0, s[0])\nb = max(1, smax) * t\n"
                           "c = max(1.0, frob(m))\nd = max(1, s_max)\ne = max(1, n)\n") == [1, 2, 4]


def test_no_rank_call_outside_linalg():
    found = {path.name: hits for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "linalg.py"
             and (hits := [h for h in rank_calls(path.read_text())
                           if (path.name, h[2]) not in RANK_EXEMPT])}
    assert found == {}


def test_no_cut_is_floored_at_the_largest_singular_value():
    found = {path.name: hits for path in sorted(PACKAGE.glob("*.py"))
             if (hits := spectral_floors(path.read_text()))}
    assert found == {}
