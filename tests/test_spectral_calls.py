"""Spectral decisions go through ``linalg``: no module of the package outside
``linalg.py`` and ``feasibility.py`` (whose solver loop runs its own bare
``eigh``) calls ``herm_eig``, ``eigh`` or ``eigvalsh``, and the PSD rule
``lambda_min >= -tol * rel_scale(m)`` is written once, in ``linalg.is_psd``."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "superchannels"
EXEMPT = {"linalg.py", "feasibility.py"}
SPECTRAL = {"herm_eig", "eigh", "eigvalsh"}
PSD_RULE = re.compile(r">=\s*-\s*\w+\s*\*\s*rel_scale\(")


def spectral_calls(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every call of a function named in ``SPECTRAL``,
    bare or as an attribute."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in SPECTRAL:
                hits.append((node.lineno, name))
    return sorted(hits)


def psd_rules(source: str) -> list[int]:
    """Lines of every comparison written as ``x >= -tol * rel_scale(m)``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare) and PSD_RULE.search(ast.unparse(node))]


def test_spectral_calls_are_found():
    source = "w, _ = herm_eig(m)\nx = np.linalg.eigvalsh(m)[0]\nla.eigh(m)\nherm_eig\n"
    assert spectral_calls(source) == [(1, "herm_eig"), (2, "eigvalsh"), (3, "eigh")]


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
