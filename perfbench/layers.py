"""Per-layer tracing from outside the program: the public functions of each
`cloudsched` module are wrapped for the length of one traced round, each call
records a span (name, start, end, parent) in memory, and the spans are
aggregated into counts and self times when the round ends.

A wrapper replaces the target in every `cloudsched` module that holds it
(`ara` imports `available_time` by name, for example), and every wrapper is
removed again by `uninstall`. A target that no longer exists is skipped, and
its metrics are left out of the result rather than failing the run.
"""

import gc
import json
import sys
import time
from array import array
from collections import Counter

PACKAGE = "cloudsched"


def _empty(args, rec):
    return not rec.vm_refs


def _declined(args, result):
    return result is None


def _placed(args, pairs):
    return sum(vm is not None for _, vm in pairs)


def _recorded(args, result):
    return bool(args[0].enabled)


# (metric prefix, module, attribute path, (extra count, its increment per call))
TARGETS = [
    ("kernel.run_until_quiescent", "kernel", "Kernel.run_until_quiescent", None),
    ("kernel.cancel", "kernel", "Kernel.cancel", None),
    ("bdi.send_async", "bdi", "AgentRuntime.send_async", None),
    ("bdi.deliberate", "bdi", "deliberate", None),
    ("ara.recommend", "ara", "VmRegistry.recommend",
     ("ara.recommend.empty", _empty)),
    ("ara.finalize", "ara", "VmRegistry.finalize", None),
    ("ara.sync", "ara", "VmRegistry.sync", None),
    ("ara.make_proposal", "ara", "make_proposal",
     ("ara.make_proposal.declined", _declined)),
    ("agents.commit_contract", "agents", "HostAgent.commit_contract",
     ("agents.commit_contract.declined", _declined)),
    ("model.available_time", "model", "available_time", None),
    ("model.reserve", "model", "reserve", None),
    ("model.checkpoint", "model", "checkpoint", None),
    ("model.release_remainder", "model", "release_remainder", None),
    ("baselines.assign_mct", "baselines", "assign_mct",
     ("baselines.placements", _placed)),
    ("baselines.assign_met", "baselines", "assign_met",
     ("baselines.placements", _placed)),
    ("baselines.assign_min_min", "baselines", "assign_min_min",
     ("baselines.placements", _placed)),
    ("baselines.assign_round_robin", "baselines", "assign_round_robin",
     ("baselines.placements", _placed)),
    ("baselines.reactive_realloc", "baselines", "CentralScheduler.reactive_realloc", None),
    ("rescheduling.validate_contract", "rescheduling", "validate_contract", None),
    ("rescheduling.apply_vm_degrade", "rescheduling", "apply_vm_degrade", None),
    ("rescheduling.generate_events", "rescheduling", "generate_events", None),
    ("scenario.generate_scenario", "scenario", "generate_scenario", None),
    ("metrics.compute_metrics", "metrics", "compute_metrics", None),
    ("tracelog.emit", "tracelog", "TraceLog.emit",
     ("tracelog.records", _recorded)),
    ("tracelog.write", "tracelog", "TraceLog.write", None),
]

ENTRY_KINDS = ("deliver", "listener-timeout", "completion", "cycle-retry",
               "round-retry")

# Every per-layer metric this module can report, in output order.
METRICS = (
    ["kernel.entries"] + [f"kernel.entries.{k}" for k in ENTRY_KINDS]
    + ["kernel.cancel.calls", "kernel.self_s",
       "bdi.send_async.calls", "bdi.send_async.self_s", "bdi.deliberate.calls",
       "bdi.listeners.registered", "bdi.listeners.timed_out",
       "ara.recommend.calls", "ara.recommend.self_s", "ara.recommend.empty",
       "ara.finalize.calls", "ara.finalize.self_s", "ara.sync.calls",
       "ara.make_proposal.calls", "ara.make_proposal.declined",
       "agents.commit_contract.calls", "agents.commit_contract.declined",
       "agents.commit_contract.self_s",
       "model.available_time.calls", "model.available_time.self_s",
       "model.reserve.calls", "model.reserve.self_s",
       "model.checkpoint.calls", "model.checkpoint.self_s",
       "model.release_remainder.calls",
       "baselines.assign_mct.self_s", "baselines.assign_met.self_s",
       "baselines.assign_min_min.self_s", "baselines.assign_round_robin.self_s",
       "baselines.placements", "baselines.reactive_realloc.calls",
       "rescheduling.cycles", "rescheduling.cycle_attempts",
       "rescheduling.cycle_passes", "rescheduling.attempts_per_cycle",
       "rescheduling.validate_contract.calls",
       "rescheduling.validate_contract.self_s",
       "rescheduling.apply_vm_degrade.self_s",
       "rescheduling.generate_events.self_s",
       "scenario.generate_scenario.calls", "scenario.generate_scenario.self_s",
       "metrics.compute_metrics.self_s",
       "harness.executions", "harness.probe_runs",
       "tracelog.emit.calls", "tracelog.emit.self_s", "tracelog.records",
       "tracelog.write.self_s",
       "gc.collections", "gc.s", "trace.overhead_s"])


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric == "gc.s":
        return "s"
    return "count/cycle" if metric.endswith("per_cycle") else "count"


def _resolve(module: str, path: str):
    """(owner, attribute, current value) or None when the target is gone."""
    owner = sys.modules.get(f"{PACKAGE}.{module}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, parts[-1], None)):
        return None
    if isinstance(owner, type) and parts[-1] not in vars(owner):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class LayerTracer:
    """Installs span-recording wrappers, collects spans and side counts, and
    turns them into the per-layer metrics."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.present: set[str] = set()
        self._extra_keys: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._runtimes: list = []
        self._cycles: list = []
        self._gc_started = 0.0

    # -- spans ------------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _spanned(self, name: str, fn, after=None):
        nid = self._nid(name)
        stack, names, parents = self._stack, self.span_name, self.span_parent
        starts, ends, clock = self.span_start, self.span_end, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    # -- installing -------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, owner, attr: str, original, wrapper) -> None:
        if isinstance(owner, type):
            self._patch(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)

    def install(self) -> None:
        for prefix, module, path, extra in TARGETS:
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr, original = found
            after = self._counter(*extra) if extra else None
            if prefix == "kernel.run_until_quiescent":
                after = self._harvest
            self.present.add(prefix)
            self._replace_everywhere(owner, attr, original,
                                     self._spanned(prefix, original, after))
        self._install_entries()
        self._capture("bdi", "AgentRuntime", self._runtimes)
        self._capture("rescheduling", "RescheduleCycle", self._cycles)
        gc.callbacks.append(self._on_gc)

    def _install_entries(self) -> None:
        """Every action passing through Kernel.schedule fires inside a span
        named after its entry kind."""
        found = _resolve("kernel", "Kernel.schedule")
        if found is None:
            return
        owner, attr, original = found
        spanned = self._spanned
        self.present.add("kernel.schedule")

        def schedule(kernel, fire_at, action, kind="timer"):
            return original(kernel, fire_at,
                            spanned("kernel.entry." + kind, action), kind)
        self._patch(owner, attr, schedule)

    def _capture(self, module: str, cls_name: str, into: list) -> None:
        found = _resolve(module, f"{cls_name}.__init__")
        if found is None:
            return
        owner, attr, original = found
        self.present.add(f"{module}.{cls_name}")

        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            into.append(obj)
        self._patch(owner, attr, init)

    def _counter(self, key: str, increment):
        self._extra_keys.add(key)
        counts = self.counts

        def after(args, result):
            counts[key] += increment(args, result)
        return after

    def _harvest(self, args, result) -> None:
        """At quiescence, read the listener counters of each agent runtime and
        the attempt/pass counters of each reschedule cycle created since."""
        c = self.counts
        for rt in self._runtimes:
            c["bdi.listeners.registered"] += rt.listeners_registered
            c["bdi.listeners.timed_out"] += rt.listeners_timed_out
        for cycle in self._cycles:
            c["rescheduling.cycles"] += 1
            c["rescheduling.cycle_attempts"] += cycle.attempts
            c["rescheduling.cycle_passes"] += cycle.passes
        self._runtimes.clear()
        self._cycles.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.counts["gc.collections"] += 1
            self.counts["gc.s"] += time.perf_counter() - self._gc_started

    def collect(self) -> None:
        """A full collection made by the benchmark between units; it stays
        out of the gc metrics, which count the program's own."""
        gc.callbacks.remove(self._on_gc)
        try:
            gc.collect()
        finally:
            gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------------

    def summary(self, cells: int) -> dict[str, float]:
        """Per-layer metrics over everything recorded so far. `cells` is the
        number of (scheduler, probability, seed) runs the round asked for."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = Counter()
        self_s = Counter()
        names = self.span_name
        for i in range(n):
            calls[names[i]] += 1
            self_s[names[i]] += ends[i] - starts[i] - child[i]
        by_name = {self.names[k]: (calls[k], self_s[k]) for k in calls}

        out: dict[str, float] = {}
        for prefix, *_ in TARGETS:
            if prefix in self.present:
                count, own = by_name.get(prefix, (0, 0.0))
                out[f"{prefix}.calls"] = count
                out[f"{prefix}.self_s"] = own
        for key in self._extra_keys:
            out[key] = self.counts[key]
        if "kernel.schedule" in self.present:
            entries = {name[len("kernel.entry."):]: c for name, (c, _) in by_name.items()
                       if name.startswith("kernel.entry.")}
            out["kernel.entries"] = sum(entries.values())
            for kind in ENTRY_KINDS:
                out[f"kernel.entries.{kind}"] = entries.get(kind, 0)
        if "kernel.run_until_quiescent" in self.present:
            out["kernel.self_s"] = out["kernel.run_until_quiescent.self_s"]
            out["harness.executions"] = out["kernel.run_until_quiescent.calls"]
            out["harness.probe_runs"] = out["harness.executions"] - cells
        harvested = "kernel.run_until_quiescent" in self.present
        if harvested and "bdi.AgentRuntime" in self.present:
            out["bdi.listeners.registered"] = self.counts["bdi.listeners.registered"]
            out["bdi.listeners.timed_out"] = self.counts["bdi.listeners.timed_out"]
        if harvested and "rescheduling.RescheduleCycle" in self.present:
            cycles = self.counts["rescheduling.cycles"]
            attempts = self.counts["rescheduling.cycle_attempts"]
            out["rescheduling.cycles"] = cycles
            out["rescheduling.cycle_attempts"] = attempts
            out["rescheduling.cycle_passes"] = self.counts["rescheduling.cycle_passes"]
            out["rescheduling.attempts_per_cycle"] = attempts / cycles if cycles else 0.0
        out["gc.collections"] = self.counts["gc.collections"]
        out["gc.s"] = self.counts["gc.s"]
        return {k: v for k, v in out.items() if k in METRICS}

    def dump(self, stem: str) -> None:
        """Spans as four native-endian binary columns, `<stem>.<column>.bin`
        (name id int32, parent index int32 with -1 for a root, start and end
        float64 seconds), plus `<stem>.names.json` mapping name ids to names."""
        with open(stem + ".names.json", "w") as fh:
            json.dump(self.names, fh)
        for column, values in (("name", self.span_name),
                               ("parent", self.span_parent),
                               ("start", self.span_start), ("end", self.span_end)):
            with open(f"{stem}.{column}.bin", "wb") as fh:
                values.tofile(fh)
