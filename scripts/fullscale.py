#!/usr/bin/env python3
"""Full-scale timing matrix: every (scheduler, event probability) cell runs
`cloudsched run` in its own child process, --reps times, and the JSON result
holds each run's wall time, peak RSS and a digest of its CSV row, plus the
median wall time per cell and its lower and upper quartiles
(`statistics.quantiles`, exclusive method; both equal the one time when
--reps is 1). With --trace each run also streams its trace into
the work directory, and the trace's digest is kept next to the CSV's.

The base config is --config (default configs/desk.json, unbounded deadlines)
with --users and --seed applied. Several source trees can be given with
--src; each repetition then runs every tree once, alternating which goes
first, so that drift in the host's speed falls on both alike.

  python scripts/fullscale.py --schedulers mct,met,min_min,round_robin \\
      --users 10000 --p 0,0.5 --reps 3 --out fullscale.json
  python scripts/fullscale.py --config configs/uncertain.json --trace \\
      --schedulers ara --users 2000 --p 0 --src old/src --src new/src \\
      --out traced.json
"""

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()[:16]


def run_once(src: str, config: dict, workdir: str, trace: bool) -> dict:
    cfg_path = os.path.join(workdir, "config.json")
    out_path = os.path.join(workdir, "out.csv")
    trace_path = os.path.join(workdir, "trace.jsonl")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    argv = [sys.executable, "-m", "cloudsched.cli", "run",
            "--config", cfg_path, "--out", out_path]
    if trace:
        argv += ["--trace", trace_path]
    env = dict(os.environ, PYTHONPATH=src)
    started = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped by wait4
    result = {"exit": proc.returncode, "wall_s": round(wall, 3),
              "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
              "csv_sha256": digest(out_path)}
    if trace:
        result["trace_sha256"] = digest(trace_path)
    return result


def wall_summary(results: list[dict]) -> dict:
    """Median wall time of a cell's runs, with its lower and upper quartiles."""
    walls = [r["wall_s"] for r in results]
    q1, median, q3 = (statistics.quantiles(walls, n=4) if len(walls) > 1
                      else walls * 3)
    return {"median_wall_s": median, "q1_wall_s": q1, "q3_wall_s": q3}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", default=str(ROOT / "configs" / "desk.json"),
                        help="base config (default: configs/desk.json)")
    parser.add_argument("--schedulers", default="mct,met,min_min,round_robin")
    parser.add_argument("--users", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--p", default="0,0.5", help="event probabilities")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--src", action="append",
                        help="source tree to import cloudsched from "
                             "(repeatable; default: this checkout's src)")
    parser.add_argument("--trace", action="store_true",
                        help="each run also writes its trace; keep its digest")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sources = args.src or [str(ROOT / "src")]
    base = json.loads(pathlib.Path(args.config).read_text())
    config_name = pathlib.Path(args.config).name
    cells = []
    with tempfile.TemporaryDirectory() as workdir:
        for scheduler in args.schedulers.split(","):
            for p in (float(x) for x in args.p.split(",")):
                config = dict(base, scheduler=scheduler, users=args.users,
                              seed=args.seed, event_probability=p)
                runs = {src: [] for src in sources}
                for rep in range(args.reps):
                    order = sources if rep % 2 == 0 else sources[::-1]
                    for src in order:
                        runs[src].append(run_once(src, config, workdir,
                                                  args.trace))
                cell = {"config": config_name, "scheduler": scheduler, "p": p,
                        "users": args.users, "seed": args.seed,
                        "trace": args.trace, "by_src": {}}
                for src, results in runs.items():
                    cell["by_src"][src] = {
                        "runs": results, **wall_summary(results),
                        "max_peak_rss_mb": max(r["peak_rss_mb"] for r in results)}
                print(json.dumps(cell), flush=True)
                cells.append(cell)
    pathlib.Path(args.out).write_text(json.dumps(cells, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
