"""Workload ``datapath``: one packet per operation over a 4-hop path.

Many concurrent flyover reservations cover every hop of the path.  Each
operation builds one packet at the source (``HummingbirdSource`` or
``ScionBestEffortSource``) and encodes it; then, at every hop,
``decode_packet`` -> that AS's ``HummingbirdRouter.process`` ->
``encode_packet``, ending in DELIVER.

The mix: in-profile flyover packets on 100 Mbps reservations, over-rate
packets on 8 kbps reservations (any packet of 100 B or more exceeds the
50 ms burst allowance, so the policer demotes it at every hop), and
best-effort SCION packets; payloads are 100 B and 1500 B.  Flows are
drawn at random from distinct reservations, so no per-reservation state
stays warm from one packet to the next.

Write phase: the source (build + encode).  Read phase: the hops.
"""

from __future__ import annotations

import time

from repro.clock import SimClock
from repro.hummingbird.reservation import ResInfo, grant_reservation
from repro.hummingbird.router import HummingbirdRouter
from repro.hummingbird.source import HummingbirdSource, ScionBestEffortSource
from repro.scion import packet as wire
from repro.scion.router import Action
from repro.scion.topology import linear_topology
from repro.wire import bwcls

from hbbench.net import T0, Chain, forward, router_counters
from hbbench.runner import MIXED, Op

NUM_ASES = 4
IN_PROFILE_FLOWS = 768
OVER_RATE_FLOWS = 256
IN_PROFILE_KBPS = 100_000
OVER_RATE_KBPS = 8
RESERVATION_SECONDS = 3600
STEP_S = 0.00025  # sim time per packet: 2^16 ms of timestamp range lasts 262k packets
PAYLOADS = (bytes(100), bytes(1500))
# One block: (kind, payload index) pairs, order drawn per block.
BLOCK = (
    [("flyover", 0)] * 6 + [("flyover", 1)] * 6
    + [("over_rate", 0)] * 2 + [("over_rate", 1)] * 2
    + [("best_effort", 0)] * 2 + [("best_effort", 1)] * 2
)


class Env:
    def __init__(self) -> None:
        self.clock = SimClock(float(T0 + 10))
        topology = linear_topology(NUM_ASES)
        self.chain = chain = Chain(topology)
        self.routers = {a.isd_as: HummingbirdRouter(a, self.clock) for a in topology.ases}
        self.flyover = [
            self._source(res_id, IN_PROFILE_KBPS) for res_id in range(IN_PROFILE_FLOWS)
        ]
        self.over_rate = [
            self._source(IN_PROFILE_FLOWS + index, OVER_RATE_KBPS)
            for index in range(OVER_RATE_FLOWS)
        ]
        self.best_effort = ScionBestEffortSource(chain.src, chain.dst, chain.path)
        self.priority_payload_bytes = 0

    def _source(self, res_id: int, kbps: int) -> HummingbirdSource:
        chain = self.chain
        reservations = [
            grant_reservation(
                crossing.isd_as,
                chain.topology.as_of(crossing.isd_as).secret_value,
                ResInfo(
                    ingress=crossing.ingress,
                    egress=crossing.egress,
                    res_id=res_id,
                    bw_cls=bwcls.encode_floor(kbps),
                    start=T0,
                    duration=RESERVATION_SECONDS,
                ),
            )
            for crossing in chain.crossings
        ]
        return HummingbirdSource(chain.src, chain.dst, chain.path, reservations, self.clock)


class Datapath:
    name = "datapath"
    # The highest percentile with ten samples beyond it at the minimum 10
    # blocks (200 packets): p95 lies inside the slowest class, in-profile
    # 1500 B packets, rather than among scheduler hiccups.
    tails = {"op": 95, "read": 95, "write": 95}
    blocks_per_env = None
    max_blocks = None

    def __init__(self, min_blocks: int = 10, setup_repeats: int = 3) -> None:
        self.min_blocks = min_blocks
        self.setup_repeats = setup_repeats

    def setup(self, seed: int) -> Env:
        return Env()

    def block(self, env: Env, rng) -> list[Op]:
        order = list(BLOCK)
        rng.shuffle(order)
        ops = []
        for kind, payload_index in order:
            if kind == "flyover":
                source = env.flyover[rng.randrange(IN_PROFILE_FLOWS)]
            elif kind == "over_rate":
                source = env.over_rate[rng.randrange(OVER_RATE_FLOWS)]
            else:
                source = env.best_effort
            ops.append(Op(MIXED, self._runner(env, source, PAYLOADS[payload_index]),
                          self._checker(env, kind, len(PAYLOADS[payload_index]))))
        return ops

    def _runner(self, env: Env, source, payload: bytes):
        def run():
            env.clock.advance(STEP_S)
            data = wire.encode_packet(source.build_packet(payload))
            read_began = time.perf_counter()
            verdicts = forward(env.chain, env.routers, data)
            return verdicts, time.perf_counter() - read_began

        return run

    def _checker(self, env: Env, kind: str, payload_len: int):
        expect_priority = kind == "flyover"

        def check(verdicts) -> str | None:
            actions = [action for action, _ in verdicts]
            if actions != [Action.FORWARD_PRIORITY if expect_priority else Action.FORWARD] * (
                NUM_ASES - 1
            ) + [Action.DELIVER]:
                return f"{kind} packet: hop actions {[a.value for a in actions]}"
            if any(priority != expect_priority for _, priority in verdicts):
                return f"{kind} packet: per-hop priority {[p for _, p in verdicts]}"
            if expect_priority:
                env.priority_payload_bytes += payload_len
            return None

        return check

    def final_check(self, env: Env) -> list[str]:
        return []

    def counters(self, env: Env) -> dict:
        counters = router_counters(env.routers.values())
        counters["priority_payload_bytes"] = env.priority_payload_bytes
        return counters
