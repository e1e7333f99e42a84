"""Command-line entry points.

  cloudsched run --config cfg.json [--seed N] [--trace out.jsonl] --out results.csv
  cloudsched sweep --config cfg.json --axis theta --values 1..20 --reps 5 --out results.csv
  cloudsched compare --config cfg.json --schedulers ara,mct --probability 0.1..1.0 --out results.csv

Config files are JSON objects holding exactly the ScenarioConfig fields;
unknown fields are rejected. Exit code 0 on success, 2 on a config error.
"""

import argparse
import contextlib
import json
import sys
import time

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
    try:
        config = ScenarioConfig.from_json(args.config)
        if args.command == "run":
            if args.seed is not None:
                config = config.replaced(seed=args.seed)
            with (open(args.trace, "w") if args.trace
                  else contextlib.nullcontext()) as sink:
                result = harness.run_simulation(config, trace_sink=sink)
            harness.warn_if_cut(result)
            if args.dump_events:
                with open(args.dump_events, "w") as fh:
                    json.dump([e.to_json() for e in result.events], fh, indent=1)
            harness.write_csv([harness.result_row(result)], args.out)
        elif args.command == "sweep":
            values = _tidy(parse_values(args.values))
            rows = harness.sweep(config, args.axis, values, reps=args.reps)
            harness.write_csv(rows, args.out)
        else:
            schedulers = [s for s in args.schedulers.split(",") if s]
            probabilities = parse_values(args.probability, step=0.1)
            rows = harness.compare(config, schedulers, probabilities,
                                   reps=args.reps)
            harness.write_csv(rows, args.out)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    print(f"wrote {args.out} in {elapsed:.1f}s wall time", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
