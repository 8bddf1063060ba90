"""The library is pure standard library: every absolute import in src/jvu
names a standard-library module or jvu itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "jvu"


def absolute_imports(tree):
    """The top-level module name of every absolute import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_only_stdlib():
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 9
    allowed = sys.stdlib_module_names | {"jvu"}
    foreign = {
        (path.name, name)
        for path in sources
        for name in absolute_imports(ast.parse(path.read_text(), filename=str(path)))
        if name not in allowed
    }
    assert not foreign
