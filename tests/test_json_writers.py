"""Every JSON file the package writes goes through ``serialize.save_json``,
which encodes with json's C encoder: no ``json.dump`` or ``json.dumps`` call
under ``src/`` passes ``indent`` (an indent selects the pure-Python encoder,
several times slower on large matrices), and no other function writes a file."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "superchannels"
JSON_CALLS = {"dump", "dumps"}
WRITES = {"write_text", "write_bytes", "dump"}
WRITER = ("serialize.py", "save_json")


def _called_name(node: ast.Call) -> str | None:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _opens_for_writing(node: ast.Call) -> bool:
    """An ``open(...)`` or ``path.open(...)`` call whose mode writes, appends
    or creates; the mode is the second positional argument of ``open`` and the
    first of ``Path.open``, or the ``mode`` keyword."""
    if _called_name(node) != "open":
        return False
    position = 1 if isinstance(node.func, ast.Name) else 0
    modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
    modes += node.args[position:position + 1]
    return any(isinstance(m, ast.Constant) and isinstance(m.value, str)
               and set(m.value) & set("wax+") for m in modes)


def indented_json_calls(source: str) -> list[int]:
    """Lines of every ``json.dump``/``json.dumps`` call that passes ``indent``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and _called_name(node) in JSON_CALLS
                  and any(kw.arg == "indent" for kw in node.keywords))


def file_writes(source: str) -> list[tuple[int, str, str]]:
    """``(line, name, function)`` of every call that writes a file, with the
    top-level function it sits in (``""`` at module level)."""
    hits = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else ""
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (_called_name(node) in WRITES
                                               or _opens_for_writing(node)):
                hits.append((node.lineno, _called_name(node), owner))
    return sorted(hits)


def test_indented_json_calls_are_found():
    source = ("a = json.dumps(obj, indent=1)\nb = json.dumps(obj)\n"
              "json.dump(obj, fh, indent=None)\nprint(dumps(x, indent=2))\n")
    assert indented_json_calls(source) == [1, 3, 4]


def test_file_writes_are_found():
    source = ("def save(p, o):\n    Path(p).write_text(json.dumps(o))\n"
              "def dump(p, o):\n    with open(p, 'w') as fh:\n        json.dump(o, fh)\n"
              "def read(p):\n    return open(p).read() + Path(p).open(mode='r').read()\n"
              "Path('x').open('a').write('y')\nPath('x').write_bytes(b'')\n")
    assert file_writes(source) == [(2, "write_text", "save"), (4, "open", "dump"),
                                   (5, "dump", "dump"), (8, "open", ""),
                                   (9, "write_bytes", "")]


def test_no_json_call_passes_indent():
    found = {path.name: hits for path in sorted(PACKAGE.glob("*.py"))
             if (hits := indented_json_calls(path.read_text()))}
    assert found == {}


def test_save_json_is_the_only_file_writer():
    found = {(path.name, owner) for path in sorted(PACKAGE.glob("*.py"))
             for _, _, owner in file_writes(path.read_text())}
    assert found == {WRITER}
