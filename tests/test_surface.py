"""The library has no public surface that only tests read: every public
module-level def and class in src/jvu is read somewhere in src/jvu, demos/
or perfbench/, outside its own definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "jvu"
READERS = (SRC, ROOT / "demos", ROOT / "perfbench")

#: public names kept with no reader yet: name -> (module, the ROADMAP item that gives it one)
KEEP = {
    "spanning_is_fixed_point": ("jordan", "item 4: dims re-verifies its closure with it"),
    "left_kernel": ("albert", "item 5: the kernel sampler calls it; perfbench/tracer.py binds it by string"),
}


def public_definitions(tree):
    """The public module-level def and class nodes of tree."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node


def reads(node):
    """Every name node reads: ast.Name loads, attribute names and import aliases."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_every_public_definition_is_read():
    """Unread names are exactly the keep-list: a kept name that is deleted or
    gains a reader leaves the list."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for d in READERS for path in sorted(d.glob("*.py"))}
    assert len([p for p in trees if p.parent == SRC]) >= 9
    read = set()
    for tree in trees.values():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            read.update(name for name in reads(stmt) if name != own)
    unread = {
        f"{path.stem}.{node.name}"
        for path, tree in trees.items()
        if path.parent == SRC
        for node in public_definitions(tree)
        if node.name not in read
    }
    assert unread == {f"{module}.{name}" for name, (module, _) in KEEP.items()}
