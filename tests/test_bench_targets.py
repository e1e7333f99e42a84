"""The benchmark's per-layer tracer (perfbench/layers.py) wraps program
functions by name and silently skips a target that no longer resolves, which
drops its metrics from a traced run. These tests pin every name it relies on,
so a rename or deletion fails here instead of in the benchmark."""

import importlib
import json
import pkgutil
import sys
from pathlib import Path

import cloudsched
from cloudsched.bdi import AgentRuntime
from cloudsched.kernel import Kernel
from cloudsched.rescheduling import RescheduleCycle

ROOT = Path(__file__).resolve().parents[1]

for _module in pkgutil.iter_modules(cloudsched.__path__):
    importlib.import_module(f"cloudsched.{_module.name}")

sys.path.insert(0, str(ROOT / "perfbench"))
try:
    import layers
finally:
    sys.path.remove(str(ROOT / "perfbench"))


def test_every_wrapped_target_resolves():
    targets = [(module, path) for _, module, path, _ in layers.TARGETS]
    targets += [("kernel", "Kernel.schedule"), ("bdi", "AgentRuntime.__init__"),
                ("rescheduling", "RescheduleCycle.__init__")]
    missing = [f"{module}.{path}" for module, path in targets
               if layers._resolve(module, path) is None]
    assert missing == []


def test_harvested_counters_exist():
    runtime = AgentRuntime(Kernel())
    assert runtime.listeners_registered == 0
    assert runtime.listeners_timed_out == 0
    cycle = RescheduleCycle("u00000", 0)
    assert (cycle.attempts, cycle.passes) == (0, 0)


def test_benchmark_metrics_are_reported_by_the_tracer():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared if m["name"] not in layers.METRICS] == []
