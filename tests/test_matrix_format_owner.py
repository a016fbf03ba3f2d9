"""One module knows the matrix format: no module under ``src/`` other than
``serialize.py`` imports ``base64`` or names the ``"data"``/``"base64"`` keys
of an encoded matrix, so every file the package reads or writes goes through
``serialize.encode_matrix`` and ``serialize.decode_matrix``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "superchannels"
OWNER = "serialize.py"
KEYS = {"data", "base64"}


def format_uses(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every import of ``base64`` and every string
    constant that is one of the matrix keys."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hits += [(node.lineno, alias.name) for alias in node.names
                     if alias.name.partition(".")[0] == "base64"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "base64":
            hits.append((node.lineno, node.module))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in KEYS:
            hits.append((node.lineno, node.value))
    return sorted(hits)


def test_format_uses_are_found():
    source = ("import base64\nfrom base64 import b64encode\nimport json, base64 as b\n"
              "m = {'rows': 1, 'cols': 1, 'data': []}\nx = obj.get(\"base64\")\n"
              "'''data is not a key'''\ny = obj['database']\n")
    assert format_uses(source) == [(1, "base64"), (2, "base64"), (3, "base64"),
                                   (4, "data"), (5, "base64")]


def test_only_serialize_knows_the_matrix_format():
    found = {path.name for path in sorted(PACKAGE.glob("*.py"))
             if format_uses(path.read_text())}
    assert found == {OWNER}
    names = {name for _, name in format_uses((PACKAGE / OWNER).read_text())}
    assert names == {"base64", "data"}
