"""Tolerances come from ``config.DEFAULTS``: no module of the package outside
``config.py`` and ``demo.py`` (whose paper criteria pin their own bounds)
writes a small float literal, the usual form of a hard-coded tolerance."""

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
