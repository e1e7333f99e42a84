"""The builtin `sum` adds floats left to right up to Python 3.11 and with
compensated summation from 3.12 on, so a float `sum` in the package would
make the result rows and traces depend on the Python minor version. The
package hands `sum` integer counts only (`len` of each item, or the literal
1), and adds floats with `model.add_up` or in a loop of its own. The check
reads the source, so a float `sum` fails here before a row moves."""

import ast
from pathlib import Path

import cloudsched
from cloudsched.model import add_up

SRC = Path(cloudsched.__file__).parent


def _is_count(node) -> bool:
    """`len(<x>)` or an integer literal."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "len")


def _counts(node) -> bool:
    """`map(len, <x>)`, or a comprehension of counts."""
    if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
        return _is_count(node.elt)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "map" and len(node.args) == 2
            and isinstance(node.args[0], ast.Name) and node.args[0].id == "len")


def non_count_sums(tree: ast.AST) -> list[int]:
    """The line of each builtin `sum` call that may add anything but counts."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "sum"
                  and not (len(node.args) == 1 and not node.keywords
                           and _counts(node.args[0])))


def test_guard_sees_every_float_sum():
    source = "\n".join([
        "total = sum(reqs.workloads)",
        "n = sum(len(u.tasks) for u in users)",
        "mean = sum(u for u in utilizations) / len(utilizations)",
        "m = sum(map(len, lanes))",
        "s = sum([len(x) for x in xs], 0.0)",
        "k = sum(1 for x in xs if x)",
        "f = sum(1.0 for x in xs)",
        "g = sum(map(float, xs))",
        "h = sum(xs, start=0)",
        "i = sum(w * 2 for w in ws)",
    ])
    assert non_count_sums(ast.parse(source)) == [1, 3, 5, 7, 8, 9, 10]


def test_package_sums_only_counts():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        lines = non_count_sums(ast.parse(path.read_text(), str(path)))
        if lines:
            found[path.name] = lines
    assert found == {}


def test_add_up_adds_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16 at each step; a compensated sum keeps
    # the two ones and reads 1.0000000000000002e16
    assert add_up([1e16, 1.0, 1.0]) == 1e16
    assert add_up([1.0, 1.0, 1e16]) == 1e16 + 2.0
    assert add_up([]) == 0.0 and type(add_up([])) is float
    assert add_up(0.1 for _ in range(10)) == 0.9999999999999999
