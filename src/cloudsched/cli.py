"""Command-line entry points.

  cloudsched run --config cfg.json [--seed N] [--trace out.jsonl] --out results.csv
  cloudsched sweep --config cfg.json --axis theta --values 1..20 --reps 5 --out results.csv
  cloudsched compare --config cfg.json --schedulers ara,mct --probability 0.1..1.0 --out results.csv

Config files are JSON objects holding exactly the ScenarioConfig fields;
unknown fields are rejected. Exit code 0 on success, 2 on a config error or
an output path that cannot be opened. Arguments are checked, then outputs
opened, before the run; an output file is replaced only once it is written.
"""

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path
from typing import TextIO

from . import harness
from .scenario import ConfigError, ScenarioConfig


def parse_values(spec: str, step: float = 1.0) -> list[float]:
    """Accepts "1,5,10", "1..20", or "0.1..1.0:0.1" (range with explicit step)."""
    if ".." in spec:
        if ":" in spec:
            span, step_text = spec.split(":", 1)
            step = float(step_text)
        else:
            span = spec
        lo_text, hi_text = span.split("..", 1)
        lo, hi = float(lo_text), float(hi_text)
        if step <= 0:
            raise ValueError("step must be positive")
        values = []
        x = lo
        while x <= hi + 1e-9:
            values.append(round(x, 10))
            x += step
        return values
    return [float(x) for x in spec.split(",") if x]


def _tidy(values: list[float]) -> list:
    return [int(v) if float(v).is_integer() else v for v in values]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="cloudsched")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="single simulation run")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--trace", default=None, help="write JSONL trace here")
    run_p.add_argument("--dump-events", default=None,
                       help="write the injected event list as JSON (feed it "
                            "back through the config's 'events' field to replay)")
    run_p.add_argument("--out", required=True, help="CSV output path")

    sweep_p = sub.add_parser("sweep", help="sweep one axis")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--axis", required=True, choices=harness.AXES)
    sweep_p.add_argument("--values", required=True,
                         help="comma list or lo..hi[:step]")
    sweep_p.add_argument("--reps", type=int, default=1)
    sweep_p.add_argument("--out", required=True)

    cmp_p = sub.add_parser("compare", help="schedulers x event probability grid")
    cmp_p.add_argument("--config", required=True)
    cmp_p.add_argument("--schedulers", required=True, help="comma list")
    cmp_p.add_argument("--probability", required=True,
                       help="comma list or lo..hi (step 0.1 unless :step given)")
    cmp_p.add_argument("--reps", type=int, default=1)
    cmp_p.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    started = time.perf_counter()
    created: list[str] = []     # outputs new to this command; exit 2 removes them
    files = contextlib.ExitStack()

    def output(path: str | None, **kw) -> TextIO | None:
        """Open an output before the run, so that a bad path fails first. It
        is opened to append: what it holds stays until it is truncated."""
        if path is not None:
            if not Path(path).exists():
                created.append(path)
            return files.enter_context(open(path, "a", **kw))

    try:
        config = ScenarioConfig.from_json(args.config)
        if args.command == "run":
            if args.seed is not None:
                config = config.replaced(seed=args.seed)
            paths = [p for p in (args.out, args.trace, args.dump_events) if p]
            if len({Path(p).resolve() for p in paths}) < len(paths):
                raise ConfigError("--out, --trace and --dump-events must name "
                                  "different files")
        if args.command == "sweep":
            values = _tidy(parse_values(args.values))
            harness.check_grid(config, args.axis, values, args.reps)
        elif args.command == "compare":
            schedulers = [s for s in args.schedulers.split(",") if s]
            probabilities = parse_values(args.probability, step=0.1)
            harness.check_grid(config, "probability", probabilities,
                               args.reps, schedulers)
        with files:
            out = output(args.out, newline="")
            if args.command == "run":
                sink, dump = output(args.trace), output(args.dump_events)
                if sink is not None:
                    sink.truncate(0)
                result = harness.run_simulation(config, trace_sink=sink)
                if warning := harness.cut_warning(result):
                    print(warning, file=sys.stderr)
                if dump is not None:
                    dump.truncate(0)
                    json.dump([e.to_json() for e in result.events], dump, indent=1)
                rows = [harness.result_row(result)]
            elif args.command == "sweep":
                rows = harness.sweep(config, args.axis, values, reps=args.reps)
            else:
                rows = harness.compare(config, schedulers, probabilities,
                                       reps=args.reps)
            out.truncate(0)
            harness.write_csv(rows, out)
    except (ConfigError, ValueError, OSError) as exc:
        for path in created:
            Path(path).unlink(missing_ok=True)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    print(f"wrote {args.out} in {elapsed:.1f}s wall time", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
