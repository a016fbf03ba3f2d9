"""The benchmark's tracer hooks name functions that the package still has.

``perfbench/tracer.py`` wraps each ``(namespace, name)`` of its
``EXTRA_HOOKS`` where ``superchannels.<namespace>`` looks it up; a hook
whose function is gone is reported absent, and the metrics that need it are
dropped.  The tracer is read with ``ast``, neither imported nor changed.
Three of its hooks name functions the package has deleted; they are listed
here so that a fourth is caught.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"
DELETED = {("feasibility", "realify"), ("extremal", "minimal_kraus"),
           ("extremal", "is_extreme_constrained")}


def extra_hooks() -> list[tuple[str, str]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["EXTRA_HOOKS"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracer.py assigns no EXTRA_HOOKS")


def test_every_hook_resolves_but_the_deleted_ones():
    hooks = extra_hooks()
    assert DELETED <= set(hooks)
    resolved = {(ns, name): callable(getattr(importlib.import_module(f"superchannels.{ns}"),
                                             name, None))
                for ns, name in hooks}
    assert {hook for hook, found in resolved.items() if not found} == DELETED


def test_feasibility_looks_up_herm_eig():
    """``run.py``'s ``feasibility.*`` metrics need ``feasibility.herm_eig``:
    the wrapper the tracer installs where ``solve`` looks it up."""
    from superchannels import feasibility, linalg

    assert feasibility.herm_eig is linalg.herm_eig
