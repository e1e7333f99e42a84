"""`model` is the only module that writes a ledger: no other module of the
package assigns a `Reservation` field or mutates a VM's `.reservations` list.
The check reads the source, so a new writer elsewhere fails here before it
can break the tail-append order that `reserve` and `available_time` rely on.
It holds a request's `status` and a batch's progress (`remaining`,
`finishes`, `successes`) to the same rule: the batch lifecycle in `model`
moves them, and every other module only reads them."""

import ast
from pathlib import Path

import cloudsched

SRC = Path(cloudsched.__file__).parent
PROGRESS = {"remaining", "finishes", "successes"}
FIELDS = {"start", "end", "released_at", "task_indices", "per_task_finish",
          "status"} | PROGRESS
LISTS = {"reservations", "task_indices", "per_task_finish"} | PROGRESS
MUTATORS = {"append", "extend", "insert", "remove", "pop", "clear", "sort",
            "reverse"}


def _written(target) -> bool:
    """The assignment or `del` target writes a ledger field or list."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_written(t) for t in target.elts)
    if isinstance(target, ast.Starred):
        return _written(target.value)
    if isinstance(target, ast.Attribute):
        return target.attr in FIELDS | LISTS
    if isinstance(target, ast.Subscript):
        inner = target.value
        while isinstance(inner, ast.Subscript):
            inner = inner.value
        return isinstance(inner, ast.Attribute) and inner.attr in LISTS
    return False


def ledger_writes(tree: ast.AST) -> list[int]:
    """Line numbers of the ledger writes in a parsed module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in MUTATORS \
                    and isinstance(func.value, ast.Attribute) \
                    and func.value.attr in LISTS:
                lines.append(node.lineno)
            continue
        else:
            continue
        if any(_written(t) for t in targets):
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_sees_every_kind_of_write():
    source = "\n".join([
        "res.start = 1.0",
        "res.end += 1.0",
        "res.released_at: float = 2.0",
        "a, res.task_indices = 1, []",
        "res.per_task_finish[0] = 3.0",
        "del vm.reservations[0]",
        "vm.reservations.append(res)",
        "vm.reservations.remove(res)",
        "ends = [r.end for r in vm.reservations]",
        "d[res.start] = res.end",
        "req.status = RequestStatus.PENDING",
        "done(req.status is RequestStatus.COMPLETED)",
        "status = 1",
        "batch.remaining[i] *= 1.5",
        "batch.finishes[i] = now",
        "batch.successes = [False]",
        "batch.remaining.append(0.0)",
        "left = sum(batch.remaining)",
    ])
    assert ledger_writes(ast.parse(source)) == [1, 2, 3, 4, 5, 6, 7, 8, 11,
                                                14, 15, 16, 17]


def test_model_is_the_only_ledger_writer():
    writers = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "model.py":
            continue
        lines = ledger_writes(ast.parse(path.read_text(), str(path)))
        if lines:
            writers[path.name] = lines
    assert writers == {}
    assert ledger_writes(ast.parse((SRC / "model.py").read_text()))
