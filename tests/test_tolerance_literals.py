"""Tolerances come from ``config.DEFAULTS``: no module of the package outside
``config.py`` and ``demo.py`` (whose paper criteria pin their own bounds)
writes a small float literal, the usual form of a hard-coded tolerance.  The
CLI reads ``DEFAULTS`` only for its ``--tol`` default: the bound of every
other finding is the one the library applied."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "superchannels"
EXEMPT = {"config.py", "demo.py"}


def small_float_literals(source: str) -> list[tuple[int, float]]:
    """``(line, value)`` of every float literal with ``0 < |value| < 1e-3``."""
    return [(node.lineno, node.value) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < abs(node.value) < 1e-3]


def test_small_float_literals_are_found():
    assert small_float_literals("x = -1e-4\ny = 1e-3 * 2.5e-4\nz = 1e-2") == [(1, 1e-4),
                                                                          (2, 2.5e-4)]


def test_no_tolerance_literal_outside_config():
    found = {path.name: hits for path in sorted(PACKAGE.glob("*.py"))
             if path.name not in EXEMPT
             and (hits := small_float_literals(path.read_text()))}
    assert found == {}


CLI = PACKAGE / "cli.py"
TOL_DEFAULT = "resolve(args.tol, DEFAULTS.rel_tol)"


def defaults_reads(source: str) -> list[int]:
    """Lines that read ``DEFAULTS`` other than as ``TOL_DEFAULT``, the one
    default the CLI owns: every other bound in a finding is the library's."""
    tree = ast.parse(source)
    allowed = {id(node) for call in ast.walk(tree)
               if isinstance(call, ast.Call) and ast.unparse(call) == TOL_DEFAULT
               for node in ast.walk(call)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == "DEFAULTS"
                  and id(node) not in allowed)


def test_defaults_reads_are_found():
    assert defaults_reads(f"a = {TOL_DEFAULT}\nb = rep.judge(k, v, DEFAULTS.equal_tol)\n"
                          "c = resolve(args.tol, DEFAULTS.equal_tol)") == [2, 3]


def test_cli_reads_defaults_only_for_the_tol_option():
    assert defaults_reads(CLI.read_text()) == []
