"""Only `model` and `rescheduling` checkpoint a batch. Every other module asks
`SimWorld.fresh_requirements` for a batch's remaining work, or
`rescheduling.contract_holds` whether its contract still delivers, and each
of those checkpoints the batch to now first. The check reads the source, so
a module that checkpoints and then judges the batch by itself fails here
before its copy of the re-check can drift from the owners'."""

import ast
from pathlib import Path

import cloudsched

SRC = Path(cloudsched.__file__).parent
OWNERS = ("model.py", "rescheduling.py")


def checkpoint_refs(tree: ast.AST) -> list[int]:
    """Line numbers of each use of `checkpoint` in a parsed module: a call
    or reference by name or attribute, or an import of the name."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "checkpoint" or \
                isinstance(node, ast.Attribute) and node.attr == "checkpoint" or \
                isinstance(node, ast.ImportFrom) and \
                any(alias.name == "checkpoint" for alias in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_sees_every_use_of_checkpoint():
    source = "\n".join([
        "model.checkpoint(batch, vm, now)",
        "from .model import checkpoint as advance",
        "checkpoint(batch, vm, now)",
        "step = model.checkpoint",
        "batch.last_checkpoint = now",
        "'checkpoint the batch to now'",
        "# model.checkpoint(batch, vm, now)",
    ])
    assert checkpoint_refs(ast.parse(source)) == [1, 2, 3, 4]


def test_only_model_and_rescheduling_checkpoint():
    users = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name in OWNERS:
            continue
        lines = checkpoint_refs(ast.parse(path.read_text(), str(path)))
        if lines:
            users[path.name] = lines
    assert users == {}
    for name in OWNERS:
        assert checkpoint_refs(ast.parse((SRC / name).read_text()))
