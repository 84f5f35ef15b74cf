"""The traced layers: which calls each span wraps, and what it should move.

Every entry is ``(span name, wrapped targets, expected effect)``.  A
target is ``"module:Owner.attr"`` at the name the caller looks up, so a
function imported into a caller's module is wrapped in that module.
The expected effect records, before any optimisation is measured, which
end-to-end metric a faster layer should move and on which workload.
"""

from __future__ import annotations

LIFECYCLE_CRYPTO = (
    "ops_per_s/op_ms_p50 on lifecycle; write_ms_*/setup_s on market_churn; "
    "no change on datapath"
)
LIFECYCLE_OPS = "op_ms_* on lifecycle; write_ms_* on market_churn"
READS = "read_ms_* on market_churn; under 0.2% of lifecycle"
WRITES = "write_ms_* on market_churn; small share of lifecycle; none of datapath"
DATAPATH = "ops_per_s, op_ms_* on datapath; negligible on lifecycle"

SPANS = [
    ("crypto.keygen", ["repro.crypto.sealing:KeyPair.generate"], LIFECYCLE_CRYPTO),
    ("crypto.seal", ["repro.controlplane.asclient:seal"], LIFECYCLE_CRYPTO),
    ("crypto.unseal", ["repro.controlplane.hostclient:unseal"], LIFECYCLE_CRYPTO),
    ("ledger.address", ["repro.ledger.accounts:Account.address"], LIFECYCLE_CRYPTO),
    (
        "controlplane.collect",
        ["repro.controlplane.hostclient:HostClient.collect_reservations"],
        "op_ms_tail on lifecycle",
    ),
    (
        "controlplane.new_host",
        ["repro.controlplane.workflow:MarketDeployment.new_host"],
        LIFECYCLE_OPS,
    ),
    (
        "controlplane.buy_redeem",
        ["repro.controlplane.hostclient:HostClient.atomic_buy_and_redeem"],
        LIFECYCLE_OPS,
    ),
    (
        "controlplane.deliver",
        ["repro.controlplane.asclient:AsService.poll_and_deliver"],
        LIFECYCLE_OPS,
    ),
    ("hummingbird.grant", ["repro.controlplane.asclient:grant_reservation"], LIFECYCLE_OPS),
    ("ledger.submit", ["repro.ledger.executor:LedgerExecutor.submit"], LIFECYCLE_OPS),
    ("marketdata.sync", ["repro.marketdata.indexer:MarketIndexer.sync"], READS),
    ("marketdata.quote", ["repro.marketdata.planner:PurchasePlanner.quote"], READS),
    ("transfers.book", ["repro.transfers.planner:TransferPlanner.book"], READS),
    ("transfers.plan", ["repro.transfers.planner:TransferPlanner.plan"], READS),
    (
        "admission.admit",
        [
            "repro.admission.controller:AdmissionController.admit_issue",
            "repro.admission.controller:AdmissionController.admit_reservation",
        ],
        WRITES,
    ),
    ("admission.expire", ["repro.admission.controller:AdmissionController.expire"], WRITES),
    ("pathadm.screen", ["repro.pathadm.protocol:PathAdmission.screen"], WRITES),
    (
        "controlplane.issue_list",
        ["repro.controlplane.asclient:AsService.issue_and_list"],
        WRITES,
    ),
    ("controlplane.cancel", ["repro.controlplane.asclient:AsService.cancel_listing"], WRITES),
    (
        "hummingbird.build",
        [
            "repro.hummingbird.source:HummingbirdSource.build_packet",
            "repro.hummingbird.source:ScionBestEffortSource.build_packet",
        ],
        DATAPATH + "; priority_payload_bytes_per_s on datapath",
    ),
    ("hummingbird.router", ["repro.hummingbird.router:HummingbirdRouter.process"], DATAPATH),
    (
        "hummingbird.flyover_mac",
        [
            "repro.hummingbird.router:compute_flyover_mac",
            "repro.hummingbird.source:compute_flyover_mac",
        ],
        DATAPATH,
    ),
    ("hummingbird.police", ["repro.hummingbird.policing:PerInterfacePolicer.monitor"], DATAPATH),
    (
        "crypto.derive_auth_key",
        [
            "repro.hummingbird.router:derive_auth_key",
            "repro.hummingbird.reservation:derive_auth_key",
        ],
        DATAPATH,
    ),
    ("scion.hopfield_mac", ["repro.scion.router:compute_hopfield_mac"], DATAPATH),
    ("scion.encode", ["repro.scion.packet:encode_packet"], DATAPATH),
    ("scion.decode", ["repro.scion.packet:decode_packet"], DATAPATH),
]

# Contract entry points reached through ``Contract.dispatch``; the span
# name is ``contracts.<contract>.<fn>``.  Entry points outside this list
# are still traced and shown in the table, but not exported as metrics.
CONTRACT_FNS = [
    "coin.mint",
    "market.buy",
    "asset.redeem",
    "asset.deliver_reservation",
    "asset.issue",
    "market.create_listing",
    "market.cancel_listing",
]
CONTRACTS_EFFECT = LIFECYCLE_OPS

DISPATCH_TARGET = "repro.ledger.runtime:Contract.dispatch"


def _contract_span(contract, function, *_):
    return f"contracts.{contract.name}.{function}"


def _submitted_ok(submitted) -> bool:
    return submitted.effects.ok


def targets():
    """Every ``(span name, target, ok_of)`` the traced run installs."""
    found = [
        (name, target, _submitted_ok if name == "ledger.submit" else None)
        for name, spans, _ in SPANS
        for target in spans
    ]
    found.append((_contract_span, DISPATCH_TARGET, None))
    return found


def span_names() -> list[str]:
    return [name for name, _, _ in SPANS] + [f"contracts.{fn}" for fn in CONTRACT_FNS]


def expected_effect(name: str) -> str:
    for span, _, effect in SPANS:
        if span == name:
            return effect
    return CONTRACTS_EFFECT if name.startswith("contracts.") else ""


# Counts and ratios measured where the work happens, exported next to the
# span metrics: (name, unit, better, what it counts).  A traced pass runs
# until its time is used up, so every total is divided by the pass's op
# count: a faster layer then moves only its own figures.
COUNTS = [
    (
        "controlplane.collect.events_scanned",
        "count",
        "lower",
        "ReservationDelivered events pending for the host per collect call",
    ),
    ("ledger.tx_aborted_per_op", "count", "lower", "submitted transactions that aborted"),
    ("controlplane.undeliverable_per_op", "count", "lower", "redeem requests an AS declined"),
    ("marketdata.quote_found_ratio", "ratio", "higher", "quotes that found a cover / quotes"),
    ("transfers.feasible_ratio", "ratio", "higher", "feasible transfer plans / plans"),
    ("hummingbird.priority_ratio", "ratio", "higher", "router verdicts with priority / verdicts"),
    (
        "hummingbird.priority_payload_bytes_per_s",
        "B/s",
        "higher",
        "payload bytes with priority at every hop per second of traced ops",
    ),
    ("router.demoted_stale_per_op", "count", "lower", "flyover packets demoted as stale"),
    ("router.demoted_inactive_per_op", "count", "lower", "flyover packets demoted as not active"),
    ("router.demoted_overuse_per_op", "count", "lower", "flyover packets demoted by the policer"),
    ("router.demoted_duplicate_per_op", "count", "lower", "flyover packets demoted as duplicates"),
    ("router.dropped_per_op", "count", "lower", "packets dropped by a router"),
    ("fail_ratio", "ratio", "lower", "failed ops / attempted ops, output checks included"),
    ("trace.untraced_ops_per_s", "1/s", "higher", "ops per second of the untraced pass"),
    ("trace.traced_ops_per_s", "1/s", "higher", "ops per second of the traced pass"),
    ("trace.overhead_ratio", "ratio", "lower", "untraced / traced ops_per_s - 1"),
    ("trace.unaccounted_share", "ratio", "lower", "traced wall time no layer span covers"),
]


def per_layer_metrics() -> list[dict]:
    """The per-layer metric list, as ``BENCHMARK.json`` declares it."""
    spans = [
        {"name": f"{span}.{field}", "unit": unit, "better": "lower"}
        for span in span_names()
        for field, unit in (
            ("calls_per_op", "count"), ("busy_ms_per_op", "ms"), ("self_ms_per_op", "ms")
        )
    ]
    return spans + [
        {"name": name, "unit": unit, "better": better} for name, unit, better, _ in COUNTS
    ]
