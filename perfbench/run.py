"""Benchmark entry point.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds nothing: the simulator is imported from
`src/` of the same checkout. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones from a
separate traced round. Span dumps and the full per-run result go to
`.perfbench_out/`.

`wall_s` is corrected for the host's speed with the probe of `hostspeed.py`
(see README.md). The checked reference pass runs in a child interpreter
(`--reference PATH` writes its rows and check violations to PATH), so that
neither the checks nor the original worlds they keep count in this
process's peak memory.
"""

import argparse
import gc
import json
import math
import os
import resource
import statistics
import shutil
import subprocess
import sys
import time
import traceback

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 5
MIN_ROUNDS = 3          # a fresh process's first round runs cold
CHILD_TIMEOUT_S = 150

IMPORT_PROBE = (
    "import sys, time\n"
    f"sys.path.insert(0, {SRC!r})\n"
    "t = time.perf_counter()\n"
    "import cloudsched\n"
    "print(time.perf_counter() - t)\n")


def import_cloudsched():
    if not os.path.isfile(os.path.join(SRC, "cloudsched", "__init__.py")):
        raise SystemExit(f"error: no simulator source under {SRC}")
    sys.path.insert(0, SRC)
    import cloudsched
    if not os.path.abspath(cloudsched.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported cloudsched from {cloudsched.__file__}")


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def checked_reference(args, path: str):
    """Rows and check violations of every cell, from a child interpreter;
    None when the child did not finish."""
    command = [sys.executable, os.path.abspath(__file__), "--reference", path,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: the reference pass timed out", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"error: the reference pass exited with {done.returncode}",
              file=sys.stderr)
        return None
    with open(path) as fh:
        saved = json.load(fh)
    return saved["rows"], saved["violations"]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Tally:
    """Attempted and failed cells over the reference pass and every timed
    round. The reference pass is checked in full; a cell of a timed round
    passes only if its row equals the checked reference row."""

    def __init__(self, cells: int):
        self.cells = cells
        self.attempted = 0
        self.failed = 0
        self.reference: list[dict] = []
        self.reference_ok: list[bool] = [False] * cells

    def first(self, checked) -> None:
        self.attempted += self.cells
        if checked is None or len(checked[0]) != self.cells:
            self.failed += self.cells
            return
        rows, violations = checked
        self.reference = rows
        self.reference_ok = [not v for v in violations]
        for row, found in zip(rows, violations):
            for line in found[:5]:
                print(f"check failed [{row.get('scheduler')} seed {row.get('seed')} "
                      f"p {row.get('axis_value')}]: {line}", file=sys.stderr)
        self.failed += self.cells - sum(self.reference_ok)

    def later(self, rows: list[dict] | None) -> None:
        self.attempted += self.cells
        if rows is None or len(rows) != self.cells:
            self.failed += self.cells
            return
        for i in range(self.cells):
            if not (self.reference_ok[i] and rows[i] == self.reference[i]):
                if self.reference_ok[i]:
                    print(f"row changed between rounds: {self.reference[i]} -> "
                          f"{rows[i]}", file=sys.stderr)
                self.failed += 1


def timed_round(workload, tally: Tally, collect=gc.collect,
                probe=hostspeed.probe) -> tuple[list[float], list[float]] | None:
    """One timed round. Before each unit: `collect()`, then the host-speed
    probe, timed; then the unit, timed on its own. The rows are compared
    with the reference after the clock stops. Returns (unit times, probe
    times), or None if the round raised."""
    spent, probed, outs = [], [], []
    try:
        for unit in workload.units():
            collect()
            if probe is not None:
                started = time.perf_counter()
                probe()
                probed.append(time.perf_counter() - started)
            started = time.perf_counter()
            outs.append(unit())
            spent.append(time.perf_counter() - started)
        rows = workload.rows(outs)
    except Exception:
        traceback.print_exc()
        tally.later(None)
        return None
    tally.later(rows)
    return spent, probed


def wall_at_reference_speed(rounds) -> float:
    """Each round's wall time scaled to the reference host speed by the mean
    probe time measured through it; the fastest round, which leaves out the
    cold first round of a fresh process."""
    return min(sum(spent) * hostspeed.REFERENCE_S / statistics.mean(probed)
               for spent, probed in rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_cloudsched()
    import layers
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.reference:
        rows, violations = WORKLOADS[args.workload](args.seed, "").reference()
        with open(args.reference, "w") as fh:
            json.dump({"rows": rows, "violations": violations}, fh)
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setups = []
        for _ in range(SETUP_REPS):
            imported = import_seconds()
            gc.collect()
            started = time.perf_counter()
            workload.build()
            setups.append(imported + time.perf_counter() - started)

        tally = Tally(workload.cells)
        tally.first(checked_reference(args, os.path.join(workdir, "reference.json")))
        rounds: list[tuple[list[float], list[float]]] = []
        while (len(rounds) < MIN_ROUNDS
               or sum(sum(spent) for spent, _ in rounds) < args.seconds):
            measured = timed_round(workload, tally)
            if measured is None:
                break
            rounds.append(measured)
        raw_wall = min((sum(spent) for spent, _ in rounds), default=None)

        report = {"rounds": [{"units_s": spent, "probes_s": probed}
                             for spent, probed in rounds],
                  "raw_wall_s": raw_wall, "setups_s": setups}
        metrics = {}
        if args.trace and rounds:
            tracer = layers.LayerTracer()
            tracer.install()
            try:
                traced = timed_round(workload, tally, tracer.collect, probe=None)
            finally:
                tracer.uninstall()
            values = tracer.summary(workload.cells)
            if traced is not None:
                values["trace.overhead_s"] = sum(traced[0]) - raw_wall
                report["traced_units_s"] = traced[0]
            metrics = {name: {"value": values[name], "unit": layers.unit_of(name)}
                       for name in layers.METRICS if name in values}
            tracer.dump(os.path.join(OUT_DIR, stem + "-spans"))
        elif not args.trace:
            ref = [r for r, ok in zip(tally.reference, tally.reference_ok) if ok]
            values = {
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "MB"),
            }
            if rounds:
                values["wall_s"] = (wall_at_reference_speed(rounds), "s")
            if ref:
                values.update({
                    "makespan_s": (geomean([float(r["makespan"]) for r in ref]), "s"),
                    "util_variance": (geomean([float(r["utilization_variance"])
                                               for r in ref]), "1"),
                    "tasks_on_time": (sum(int(r["successful_tasks"]) for r in ref),
                                      "count"),
                })
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        if not rounds:
            print("error: no timed round completed", file=sys.stderr)
        result = {"correct": tally.failed == 0 and bool(rounds),
                  "attempted": tally.attempted, "failed": tally.failed,
                  "metrics": metrics}
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}",
                  file=sys.stderr)
        if raw_wall is not None:
            print(f"{args.workload} fastest round, host wall time = {raw_wall:.6g} s",
                  file=sys.stderr)
        print(f"{args.workload} runs attempted {tally.attempted}, failed "
              f"{tally.failed}", file=sys.stderr)
        with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
            json.dump(dict(result, **report), fh, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
