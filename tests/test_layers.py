"""The library's modules form one acyclic stack: each relative import, at
module level or inside a function, names a module strictly below the
importing one.  The package ``__init__`` imports nothing, so importing a
layer loads only that layer and the layers below it."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import SUBPROCESS_ENV

SRC = Path(__file__).resolve().parent.parent / "src" / "jvu"

ORDER = ("fields", "freealg", "expr", "linalg", "jordan", "ideals", "albert", "cli")


def relative_import_targets(tree):
    """The sibling module named by each relative import in tree; ``from .
    import name`` names the module ``name`` when there is one, and the package
    ``__init__`` otherwise."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level):
            continue
        if node.module:
            yield node.module.split(".")[0]
        else:
            yield from (a.name if (SRC / f"{a.name}.py").exists() else "__init__" for a in node.names)


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == {*ORDER, "__init__"}


def test_imports_point_down_the_stack():
    upward = [
        (name, target)
        for name in ORDER
        for target in relative_import_targets(ast.parse((SRC / f"{name}.py").read_text()))
        if target != "__init__" and ORDER.index(target) >= ORDER.index(name)
    ]
    assert not upward


@pytest.mark.parametrize("name", ORDER)
def test_each_layer_loads_alone(name):
    script = f"import sys, jvu.{name}; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'jvu'))"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=SUBPROCESS_ENV, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    allowed = {"jvu", *(f"jvu.{m}" for m in ORDER[: ORDER.index(name) + 1])}
    assert set(proc.stdout.split()) - allowed == set()


#: stdlib modules no layer needs: ``dataclasses`` and the source-inspection
#: stack that ``dataclasses`` loads through ``inspect``
STARTUP_EXCLUDED = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def _loaded_modules(code):
    """The modules a fresh interpreter holds after running code."""
    script = f"{code}; import sys; print(*sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=SUBPROCESS_ENV, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_startup_loads_no_introspection():
    """``import jvu.cli`` adds none of STARTUP_EXCLUDED to what a bare
    interpreter in the same environment loads, whatever ``site`` preloads."""
    added = _loaded_modules("import jvu.cli") - _loaded_modules("pass")
    assert "jvu.cli" in added
    assert added & STARTUP_EXCLUDED == set()
