#!/usr/bin/env python3
"""Hummingbird repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload lifecycle --seed 1 --seconds 25 --trace 0

Workloads: ``lifecycle`` and ``market_churn``, which ``BENCHMARK.json``
lists, and ``datapath``, run by hand (see ``perfbench/README.md``).
``--seed`` generates the workload's inputs; the program only ever sees
those inputs.  ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` runs an untraced pass and then a traced pass of the same
length, prints the per-layer table and writes the spans to
``perfbench/traces/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from hbbench import runner
    from hbbench.datapath import Datapath
    from hbbench.lifecycle import Lifecycle
    from hbbench.market_churn import MarketChurn

    workloads = {workload.name: workload for workload in (Lifecycle, MarketChurn, Datapath)}
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads)}",
              file=sys.stderr)
        return 2
    workload = workloads[args.workload]()
    if args.trace:
        result = traced_run(runner, workload, args)
    else:
        result = untraced_run(runner, workload, args)
    print(json.dumps(result))
    return 0


def untraced_run(runner, workload, args) -> dict:
    measured = runner.run_pass(workload, args.seed, args.seconds)
    report_errors(measured)
    metrics = runner.end_to_end(workload, measured)
    print(f"workload {workload.name}, seed {args.seed}: {len(measured.op_s)} ops "
          f"({len(measured.read_s)} read, {len(measured.write_s)} write samples), "
          f"{len(measured.setup_s)} set-ups, tails at p{workload.tails['op']}/"
          f"p{workload.tails['read']}/p{workload.tails['write']} (op/read/write)")
    for name, metric in metrics.items():
        print(f"  {name:<14} {metric['value']:>14.4f} {metric['unit']}")
    fail_ratio = measured.failed / measured.attempted
    print(f"  {'fail_ratio':<14} {fail_ratio:>14.4f} ({measured.failed}/{measured.attempted})")
    priority_bytes = measured.counters.get("priority_payload_bytes", 0)
    print(f"  {'priority_payload_bytes_per_s':<14} {priority_bytes / measured.busy_s:>14.1f} B/s")
    return {
        "correct": measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": metrics,
    }


def traced_run(runner, workload, args) -> dict:
    from hbbench import layers
    from hbbench.tracer import Tracer

    untraced = runner.run_pass(workload, args.seed, args.seconds)
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        traced = runner.run_pass(workload, args.seed, args.seconds, tracer)
    finally:
        tracer.uninstall()
    report_errors(untraced)
    report_errors(traced)
    metrics, summary = runner.per_layer(untraced, traced, tracer)
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"{workload.name}-seed{args.seed}.jsonl"
    tracer.write(spans_file)
    print(runner.layer_table(workload.name, summary, metrics))
    print(f"spans: {spans_file.relative_to(HERE.parent)} ({len(tracer.spans)} spans)")
    return {
        "correct": untraced.failed == 0 and traced.failed == 0,
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "metrics": metrics,
    }


def report_errors(measured) -> None:
    for message in measured.errors:
        print(f"  FAILED: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
