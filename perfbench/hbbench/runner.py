"""Closed-loop runner shared by the three workloads.

One client, one operation in flight: the next operation starts only after
the previous one and its output check finished.  Operations come in
fixed-composition blocks whose order and parameters are drawn from the
seed, and the loop runs whole blocks until the timed operations add up to
``--seconds``, and at least the workload's minimum block count, so the
tail percentile always has ten samples beyond it.  A workload whose
per-operation cost grows with its history sets ``max_blocks`` equal to
``min_blocks``: it then runs a fixed operation count.

Only the operations are timed.  Output checks run between operations,
outside the clock and outside every span.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from hbbench import layers
from hbbench.tracer import OP_SPAN, Tracer

READ, WRITE, MIXED = "read", "write", "mixed"


class Op(NamedTuple):
    """One operation: ``run()`` returns ``(value, read_s)``.

    ``read_s`` is the part of a ``mixed`` operation spent in its read
    phase (the rest is its write phase); pure reads and writes return
    None.  ``check(value)`` returns an error message, or None when the
    output is correct.
    """

    kind: str
    run: Callable[[], tuple]
    check: Callable[[object], str | None]


@dataclass
class Pass:
    """What one measured pass over a workload saw."""

    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    read_s: list[float] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        return sum(self.op_s)

    @property
    def ops_per_s(self) -> float:
        return len(self.op_s) / self.busy_s

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: ``pct`` of the samples are at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _add_counters(total: dict, more: dict) -> None:
    for key, value in more.items():
        total[key] = total.get(key, 0) + value


def run_pass(workload, seed: int, seconds: float, tracer: Tracer | None = None) -> Pass:
    """Set up, then run whole blocks of operations for ``seconds``."""
    result = Pass()
    rng = random.Random(seed)
    env_index = 0

    def new_env():
        nonlocal env_index
        began = time.perf_counter()
        env = workload.setup(seed * 1000 + env_index)
        result.setup_s.append(time.perf_counter() - began)
        env_index += 1
        return env

    def retire(env) -> None:
        for message in workload.final_check(env):
            result.attempted += 1
            result.fail(message)
        _add_counters(result.counters, workload.counters(env))

    def more(blocks: int) -> bool:
        if blocks < workload.min_blocks:
            return True
        if workload.max_blocks is not None and blocks >= workload.max_blocks:
            return False
        return result.busy_s < seconds

    env = None
    for _ in range(workload.setup_repeats):
        env = new_env()
    blocks = 0
    while more(blocks):
        if workload.blocks_per_env and blocks and blocks % workload.blocks_per_env == 0:
            retire(env)
            env = new_env()
        for op in workload.block(env, rng):
            _run_op(op, result, tracer)
        blocks += 1
    retire(env)
    return result


def _run_op(op: Op, result: Pass, tracer: Tracer | None) -> None:
    result.attempted += 1
    root = tracer.begin_op(result.attempted) if tracer is not None else None
    began = time.perf_counter()
    try:
        value, read_s = op.run()
    except Exception as error:  # a failed op is counted, the loop goes on
        elapsed = time.perf_counter() - began
        if root is not None:
            tracer.end_op(root, False)
        result.op_s.append(elapsed)
        result.fail(f"{op.kind} op raised {type(error).__name__}: {error}")
        return
    elapsed = time.perf_counter() - began
    if root is not None:
        tracer.end_op(root, True)
    result.op_s.append(elapsed)
    if op.kind == READ:
        result.read_s.append(elapsed)
    elif op.kind == WRITE:
        result.write_s.append(elapsed)
    else:
        result.read_s.append(read_s)
        result.write_s.append(elapsed - read_s)
    problem = op.check(value)
    if problem is not None:
        result.fail(problem)


def peak_rss_mb() -> float:
    scale = 1024 if sys.platform != "darwin" else 1024 * 1024  # ru_maxrss in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / 1e6


def end_to_end(workload, measured: Pass) -> dict:
    """The untraced metrics, each ``{"value", "unit"}``.

    Read and write latencies come only from ops that completed; when every
    op of a kind raised, its metrics are left out (the run has failed).
    """
    metrics = {
        "setup_s": (statistics.median(measured.setup_s), "s"),
        "ops_per_s": (measured.ops_per_s, "1/s"),
    }
    for kind, samples in (("op", measured.op_s), ("read", measured.read_s),
                          ("write", measured.write_s)):
        if samples:
            metrics[f"{kind}_ms_p50"] = (1e3 * statistics.median(samples), "ms")
            metrics[f"{kind}_ms_tail"] = (1e3 * percentile(samples, workload.tails[kind]), "ms")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def per_layer(untraced: Pass, traced: Pass, tracer: Tracer) -> tuple[dict, dict]:
    """Span and count metrics of the traced pass; also the span summary.

    The traced pass runs until its time is used up, so a faster layer fits
    more ops into it: every total is divided by the pass's op count.
    """
    summary = tracer.summary()
    ops = len(traced.op_s)
    counters = traced.counters

    def ratio(numerator, denominator) -> float:
        return numerator / denominator if denominator else 0.0

    def per_op(counter: str) -> float:
        return ratio(counters.get(counter, 0), ops)

    values = {}
    for name in layers.span_names():
        entry = summary.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        values[f"{name}.calls_per_op"] = ratio(entry["calls"], ops)
        values[f"{name}.busy_ms_per_op"] = ratio(1e3 * entry["busy_s"], ops)
        values[f"{name}.self_ms_per_op"] = ratio(1e3 * entry["self_s"], ops)

    def ok_ratio(name: str) -> float:
        entry = summary.get(name)
        return ratio(entry["ok"], entry["calls"]) if entry else 0.0

    op_entry = summary[OP_SPAN]
    submits = summary.get("ledger.submit", {"calls": 0, "ok": 0})
    verdicts = counters.get("router.verdicts", 0)
    values |= {
        "controlplane.collect.events_scanned": ratio(
            counters.get("collect.events_pending", 0), counters.get("collect.calls", 0)
        ),
        "ledger.tx_aborted_per_op": ratio(submits["calls"] - submits["ok"], ops),
        "controlplane.undeliverable_per_op": per_op("controlplane.undeliverable"),
        "marketdata.quote_found_ratio": ok_ratio("marketdata.quote"),
        "transfers.feasible_ratio": ok_ratio("transfers.plan"),
        "hummingbird.priority_ratio": ratio(counters.get("router.priority", 0), verdicts),
        "hummingbird.priority_payload_bytes_per_s": ratio(
            counters.get("priority_payload_bytes", 0), traced.busy_s
        ),
        "router.demoted_stale_per_op": per_op("router.demoted_stale"),
        "router.demoted_inactive_per_op": per_op("router.demoted_inactive"),
        "router.demoted_overuse_per_op": per_op("router.demoted_overuse"),
        "router.demoted_duplicate_per_op": per_op("router.demoted_duplicate"),
        "router.dropped_per_op": per_op("router.dropped"),
        "fail_ratio": ratio(traced.failed, traced.attempted),
        "trace.untraced_ops_per_s": untraced.ops_per_s,
        "trace.traced_ops_per_s": traced.ops_per_s,
        "trace.overhead_ratio": untraced.ops_per_s / traced.ops_per_s - 1,
        "trace.unaccounted_share": ratio(op_entry["self_s"], op_entry["busy_s"]),
    }
    exported = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in layers.per_layer_metrics()
    }
    return exported, summary


def layer_table(workload_name: str, summary: dict, counts: dict) -> str:
    """The per-layer breakdown of one traced pass, busiest self time first."""
    wall = summary[OP_SPAN]["busy_s"]
    lines = [
        f"per-layer breakdown, workload {workload_name} (traced wall {wall:.3f} s, "
        f"{summary[OP_SPAN]['calls']} ops)",
        f"{'span':<34} {'calls':>9} {'busy_s':>10} {'self_s':>10} {'self%':>7}  should move",
    ]
    rows = sorted(
        ((name, entry) for name, entry in summary.items() if name != OP_SPAN),
        key=lambda item: -item[1]["self_s"],
    )
    rows.append(("(unaccounted)", {**summary[OP_SPAN], "busy_s": summary[OP_SPAN]["self_s"]}))
    for name, entry in rows:
        lines.append(
            f"{name:<34} {entry['calls']:>9} {entry['busy_s']:>10.4f} "
            f"{entry['self_s']:>10.4f} {100 * entry['self_s'] / wall:>6.2f}%  "
            f"{layers.expected_effect(name)}"
        )
    lines.append(
        f"tracing overhead: untraced {counts['trace.untraced_ops_per_s']['value']:.3f} ops/s "
        f"vs traced {counts['trace.traced_ops_per_s']['value']:.3f} ops/s "
        f"({100 * counts['trace.overhead_ratio']['value']:+.1f}%); "
        f"unaccounted share {100 * counts['trace.unaccounted_share']['value']:.2f}% "
        "(target <= 5%)"
    )
    return "\n".join(lines)
