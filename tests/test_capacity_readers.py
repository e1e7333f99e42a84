"""`model` is the only module that judges whether a holder's capacities cover
a batch: no other module of the package reads a batch's per-task maxima
(`max_ram`, `max_storage`, `max_bandwidth`). The others call
`model.capacity_feasible`, `model.fitting` or `model.quote`, so the supervise
agent's recommendation, the host's re-check and the central baselines apply
one test. The check reads the source, so an inline copy of the comparison
elsewhere fails here before the copies can drift apart."""

import ast
from pathlib import Path

import cloudsched

SRC = Path(cloudsched.__file__).parent
MAXIMA = {"max_ram", "max_storage", "max_bandwidth"}
# (module, function) -> why it may read the maxima
EXEMPT = {
    ("ara.py", "_candidates"):
        "bisects them into the registry's capacity index over its snapshots, "
        "which only narrows the VMs that `model.quote` then judges",
}


def maxima_reads(tree: ast.AST) -> list[tuple[str | None, int]]:
    """(innermost enclosing function or None, line) of each read of a batch
    maximum in a parsed module, by attribute or by name in a string."""
    reads = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr in MAXIMA \
                    and isinstance(child.ctx, ast.Load) or \
                    isinstance(child, ast.Constant) and child.value in MAXIMA:
                reads.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return reads


def stray_reads(name: str, tree: ast.AST) -> list[int]:
    """Lines of module `name` that read a maximum outside its exemptions."""
    return sorted(line for function, line in maxima_reads(tree)
                  if (name, function) not in EXEMPT)


def test_guard_fails_an_inline_comparison():
    source = "\n".join([
        "def pick(vms, reqs):",
        "    ram, storage = reqs.max_ram, reqs.max_storage",
        "    return [vm for vm in vms if vm.ram >= ram and vm.storage >= storage",
        "            and vm.bandwidth >= getattr(reqs, 'max_bandwidth')]",
        "def _candidates(self, reqs):",
        "    return bisect_left(self.ram, reqs.max_ram)",
        "total, ram = reqs.total_workload, vm.ram",
    ])
    tree = ast.parse(source)
    assert stray_reads("baselines.py", tree) == [2, 2, 4, 6]
    # the exemption names one function of one module
    assert stray_reads("ara.py", tree) == [2, 2, 4]


def test_model_alone_compares_capacities():
    readers = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "model.py":
            continue
        lines = stray_reads(path.name, ast.parse(path.read_text(), str(path)))
        if lines:
            readers[path.name] = lines
    assert readers == {}
    assert stray_reads("model.py", ast.parse((SRC / "model.py").read_text()))
    # every exemption still reads the maxima, so none outlives its reason
    for name, function in EXEMPT:
        tree = ast.parse((SRC / name).read_text())
        assert function in {f for f, _ in maxima_reads(tree)}
