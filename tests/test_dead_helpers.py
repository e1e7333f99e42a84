"""No dead helpers: every function, method and class defined in
`src/cloudsched` is named somewhere else in the package, by a call, an
attribute, a reference or an import, or it stands on `KEPT` with the reason
it is kept. Dunders are exempt, since Python calls them. A name counts only
outside the definition's own body, so recursion alone keeps nothing alive.
The check reads names, not types: two methods that share a name keep each
other alive, which errs towards passing, never towards a false alarm."""

import ast
from collections import Counter
from pathlib import Path

import cloudsched

SRC = Path(cloudsched.__file__).parent

# name -> why it stays although nothing in the package names it
KEPT = {
    "csv_bytes": "renders result rows for tests/golden.py and its gate",
    "generate_events": "a perfbench target that times event drawing",
    "TraceLog.records": "parses the held trace for tests and debugging",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names(tree: ast.AST) -> Counter:
    """Every name the tree uses: identifiers, attributes and imports."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def definitions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of every def and class, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, DEFS):
            qualified = prefix + node.name
            yield qualified, node
            yield from definitions(node, qualified + ".")
        else:
            yield from definitions(node, prefix)


def unnamed(trees: dict[str, ast.AST]) -> list[str]:
    """`module:qualified name` of every definition that nothing outside its
    own body names."""
    used = Counter()
    for tree in trees.values():
        used += names(tree)
    out = []
    for module, tree in trees.items():
        for qualified, node in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] - names(node)[name] == 0:
                out.append(f"{module}:{qualified}")
    return sorted(out)


def test_guard_sees_dead_and_live_names():
    source = "\n".join([
        "from .other import imported",
        "def called(): pass",
        "def recursive(): recursive()",
        "def dead(): called()",
        "class Box:",
        "    def __init__(self): self.used()",
        "    def used(self): pass",
        "    def unused(self):",
        "        def inner(): pass",
    ])
    assert unnamed({"m": ast.parse(source)}) == [
        "m:Box", "m:Box.unused", "m:Box.unused.inner", "m:dead",
        "m:recursive"]


def test_only_kept_definitions_go_unnamed():
    # a kept name that the package starts to name, or that is gone, leaves
    # `KEPT` too
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    found = unnamed(trees)
    assert sorted(name.split(":", 1)[1] for name in found) == sorted(KEPT), \
        found
