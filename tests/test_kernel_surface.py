"""Outside `kernel`, the package reaches a kernel only through its surface:
the clock `now`, `schedule` and `cancel` for entries, `lane` and `timer` for
timer lanes, and `run_until_quiescent`. The check reads the source, so a
module that starts to keep kernel state of its own (an attribute it sets or
reads on the kernel) fails here before two modules share one decision."""

import ast
from pathlib import Path

import cloudsched

SRC = Path(cloudsched.__file__).parent
SURFACE = {"now", "schedule", "cancel", "lane", "timer", "run_until_quiescent"}


def _is_kernel(node) -> bool:
    """`kernel`, `Kernel` or any `<expr>.kernel`."""
    if isinstance(node, ast.Name):
        return node.id in ("kernel", "Kernel")
    return isinstance(node, ast.Attribute) and node.attr == "kernel"


def kernel_reaches(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, attribute) of each kernel attribute outside the surface."""
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and _is_kernel(node.value) and node.attr not in SURFACE)


def test_guard_sees_every_kind_of_reach():
    source = "\n".join([
        "kernel.batch_at = at",
        "self.kernel.batch.append(msg)",
        "n = len(self.runtime.kernel._heap)",
        "kernel.batched += 1",
        "at = kernel.now + kernel.schedule(t, f)",
        "kernels.batch = self.kernels.batch",
        "Kernel._surface(kernel, lane, 0.0)",
    ])
    assert kernel_reaches(ast.parse(source)) == [
        (1, "batch_at"), (2, "batch"), (3, "_heap"), (4, "batched"),
        (7, "_surface")]


def test_modules_reach_a_kernel_only_through_its_surface():
    reaches = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "kernel.py":
            continue
        found = kernel_reaches(ast.parse(path.read_text(), str(path)))
        if found:
            reaches[path.name] = found
    assert reaches == {}
