"""The package declares Python >= 3.10, and CI has a 3.10 leg: every source
file parses with the 3.10 grammar, and every int/bytes conversion names its
length and byte order, which have no defaults before Python 3.11."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_310():
    sources = sorted(p for d in ("src/jvu", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
    assert len(sources) >= 20
    unnamed = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("to_bytes", "from_bytes"):
                if len(node.args) + len(node.keywords) < 2:
                    unnamed.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not unnamed
