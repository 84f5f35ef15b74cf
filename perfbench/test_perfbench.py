"""Tiny-size self-test of the benchmark: every workload, the tracer, the CLI.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import pathlib
import random
import shutil
import subprocess
import sys

import pytest

from hbbench import layers, runner
from hbbench.datapath import Datapath
from hbbench.lifecycle import Lifecycle
from hbbench.market_churn import MarketChurn
from hbbench.tracer import END, NAME, OP_SPAN, PARENT, START, Tracer

HERE = pathlib.Path(__file__).resolve().parent
TINY = {
    "lifecycle": lambda: Lifecycle(blocks=1),
    "market_churn": lambda: MarketChurn(min_blocks=1, setup_repeats=1),
    "datapath": lambda: Datapath(min_blocks=2, setup_repeats=1),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_and_checks_pass(name):
    workload = TINY[name]()
    measured = runner.run_pass(workload, seed=3, seconds=0)
    assert measured.failed == 0, measured.errors
    assert measured.attempted >= len(measured.op_s) > 0
    metrics = runner.end_to_end(workload, measured)
    assert all(metric["value"] > 0 for metric in metrics.values()), metrics


def test_same_seed_same_inputs():
    def verdicts(seed):
        workload = TINY["datapath"]()
        env = workload.setup(0)
        return [op.run()[0] for op in workload.block(env, random.Random(seed))]

    assert verdicts(5) == verdicts(5)
    assert verdicts(5) != verdicts(6)


def test_traced_pass_records_nested_spans_and_restores_the_program():
    from repro.controlplane.asclient import seal
    from repro.crypto.sealing import KeyPair
    from repro.ledger.accounts import Account

    originals = (seal, vars(KeyPair)["generate"], vars(Account)["address"])
    workload = TINY["lifecycle"]()
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        traced = runner.run_pass(workload, seed=4, seconds=0, tracer=tracer)
    finally:
        tracer.uninstall()
    import repro.controlplane.asclient as asclient

    assert (asclient.seal, vars(KeyPair)["generate"], vars(Account)["address"]) == originals
    assert traced.failed == 0, traced.errors

    spans = tracer.spans
    roots = [span for span in spans if span[NAME] == OP_SPAN]
    assert len(roots) == len(traced.op_s)
    for span in spans:  # every layer span nests inside the span that caused it
        if span[NAME] == OP_SPAN:
            assert span[PARENT] == -1
            continue
        parent = spans[span[PARENT]]
        assert parent[START] <= span[START] <= span[END] <= parent[END]

    summary = tracer.summary()
    for name in ("crypto.keygen", "crypto.seal", "crypto.unseal", "ledger.address",
                 "controlplane.collect", "ledger.submit", "contracts.market.buy",
                 "hummingbird.router", "pathadm.screen", "marketdata.quote"):
        assert summary[name]["calls"] > 0, name
        assert 0 <= summary[name]["self_s"] <= summary[name]["busy_s"] + 1e-9, name

    metrics, _ = runner.per_layer(traced, traced, tracer)
    declared = {metric["name"]: metric["unit"] for metric in layers.per_layer_metrics()}
    assert {name: metric["unit"] for name, metric in metrics.items()} == declared
    assert metrics["controlplane.collect.events_scanned"]["value"] > 0
    assert metrics["hummingbird.priority_ratio"]["value"] > 0
    assert 0 <= metrics["trace.unaccounted_share"]["value"] < 0.05


def test_tracer_self_time_excludes_children_and_skips_calls_outside_ops():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: 7)
    outer = tracer.wrap("outer", lambda: inner() + inner())
    assert inner() == 7  # outside an op: not recorded
    assert tracer.spans == []
    root = tracer.begin_op(0)
    assert outer() == 14
    tracer.end_op(root, True)
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1 and summary["inner"]["calls"] == 2
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["busy_s"] - summary["inner"]["busy_s"]
    )
    assert summary[OP_SPAN]["self_s"] == pytest.approx(
        summary[OP_SPAN]["busy_s"] - summary["outer"]["busy_s"]
    )


def test_a_run_whose_ops_all_raise_still_reports():
    class Broken:
        tails = {"op": 50, "read": 50, "write": 50}
        min_blocks = max_blocks = 2
        blocks_per_env = None
        setup_repeats = 1

        def setup(self, seed):
            return None

        def block(self, env, rng):
            def run():
                raise RuntimeError("aborted")

            return [runner.Op(runner.MIXED, run, lambda _: None)] * 3

        def final_check(self, env):
            return []

        def counters(self, env):
            return {}

    measured = runner.run_pass(Broken(), seed=1, seconds=0)
    assert (measured.attempted, measured.failed) == (6, 6)
    metrics = runner.end_to_end(Broken(), measured)
    assert "op_ms_p50" in metrics and "read_ms_p50" not in metrics


def test_per_layer_figures_are_per_op():
    workload = TINY["datapath"]()
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        traced = runner.run_pass(workload, seed=2, seconds=0, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics, summary = runner.per_layer(traced, traced, tracer)
    ops = len(traced.op_s)
    routed = summary["hummingbird.router"]
    assert metrics["hummingbird.router.calls_per_op"]["value"] == routed["calls"] / ops == 4
    assert metrics["hummingbird.router.self_ms_per_op"]["value"] == pytest.approx(
        1e3 * routed["self_s"] / ops
    )
    # Four packets in twenty are over-rate, each demoted at all four hops.
    assert metrics["router.demoted_overuse_per_op"]["value"] == pytest.approx(4 * 4 / 20)


def test_benchmark_json_lists_every_exported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    # datapath runs by hand only: its timings follow the host's speed phases.
    assert [w["name"] for w in spec["workloads"]] == ["lifecycle", "market_churn"]
    assert spec["per_layer"] == layers.per_layer_metrics()
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    workload = Datapath(min_blocks=1, setup_repeats=1)
    assert end_to_end == set(runner.end_to_end(workload, runner.run_pass(workload, 1, 0)))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("traces"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "datapath", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
