"""Topology helpers shared by the workloads: paths and the hop pipeline."""

from __future__ import annotations

from repro.scion import packet as wire
from repro.scion.addresses import HostAddr, ScionAddr
from repro.scion.beaconing import run_beaconing
from repro.scion.paths import PathLookup, as_crossings
from repro.scion.router import Action

T0 = 1_700_000_400  # sim-clock origin and asset anchor: a multiple of 60


class Chain:
    """A linear topology, its leaf-to-core path and the hop-to-hop links."""

    def __init__(self, topology) -> None:
        self.topology = topology
        store = run_beaconing(topology, timestamp=T0)
        self.src_as = topology.ases[-1].isd_as
        self.dst_as = topology.ases[0].isd_as
        self.path = PathLookup(store).find_paths(self.src_as, self.dst_as)[0]
        self.crossings = as_crossings(self.path)
        self.src = ScionAddr(self.src_as, HostAddr.from_string("10.0.0.1"))
        self.dst = ScionAddr(self.dst_as, HostAddr.from_string("10.0.0.2"))
        self.links = {
            (autonomous_system.isd_as, ifid): (interface.neighbor, interface.neighbor_ifid)
            for autonomous_system in topology.ases
            for ifid, interface in autonomous_system.interfaces.items()
        }


def forward(chain: Chain, routers: dict, data: bytes) -> list[tuple[Action, bool]]:
    """Send an encoded packet from the path's source to the end.

    At each hop: decode, that AS's router, encode.  Returns one
    ``(action, priority)`` verdict per hop, where ``priority`` says the
    router counted the crossing as reserved traffic.
    """
    current, ingress = chain.src_as, 0
    verdicts = []
    while True:
        router = routers[current]
        before = router.stats.flyover_forwarded
        packet = wire.decode_packet(data)
        decision = router.process(packet, ingress)
        verdicts.append((decision.action, router.stats.flyover_forwarded > before))
        if decision.action in (Action.DELIVER, Action.DROP):
            return verdicts
        data = wire.encode_packet(packet)
        current, ingress = chain.links[(current, decision.egress_ifid)]


def router_counters(routers) -> dict:
    """The routers' verdict and demotion counts, summed over ASes."""
    totals = {
        "router.verdicts": 0,
        "router.priority": 0,
        "router.demoted_stale": 0,
        "router.demoted_inactive": 0,
        "router.demoted_overuse": 0,
        "router.demoted_duplicate": 0,
        "router.dropped": 0,
    }
    for router in routers:
        stats = router.stats
        totals["router.verdicts"] += (
            stats.flyover_forwarded + stats.best_effort_forwarded + stats.dropped
        )
        totals["router.priority"] += stats.flyover_forwarded
        totals["router.demoted_stale"] += stats.demoted_stale
        totals["router.demoted_inactive"] += stats.demoted_inactive
        totals["router.demoted_overuse"] += stats.demoted_overuse
        totals["router.demoted_duplicate"] += stats.demoted_duplicate
        totals["router.dropped"] += stats.dropped
    return totals
