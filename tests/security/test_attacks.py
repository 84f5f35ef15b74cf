"""Security analysis (§5): adversarial behaviours against both planes.

Each test is one row of the paper's analysis: the attack, the defender's
mechanism, and the guaranteed outcome (C1/C2 on the control plane, D1/D2 on
the data plane).
"""

import math
from copy import deepcopy

import pytest

from tests.conftest import BLAKE2, T0, addresses, grant_full_path, walk_path

from repro.clock import SimClock
from repro.hummingbird import (
    DuplicateFilter,
    FlyoverReservation,
    HummingbirdRouter,
    HummingbirdSource,
    ResInfo,
)
from repro.hummingbird.mac import TAG_LEN
from repro.scion.addresses import HostAddr, IsdAs, ScionAddr
from repro.scion.router import Action


def router_for(topology, isd_as, clock, **kwargs):
    return HummingbirdRouter(topology.as_of(isd_as), clock, BLAKE2, **kwargs)


class TestOveruseProtectionD1:
    def test_spoofed_reservation_dropped(self, chain3, clock):
        """A reservation invented out of thin air fails authentication."""
        topology, path = chain3
        from repro.crypto.keys import SecretValue
        from repro.hummingbird.reservation import grant_reservation
        from repro.scion.paths import as_crossings

        crossings = as_crossings(path)
        forged = [
            grant_reservation(
                crossing.isd_as,
                SecretValue.from_seed("attacker guess"),  # not the AS's SV
                ResInfo(
                    ingress=crossing.ingress, egress=crossing.egress, res_id=7,
                    bw_cls=500, start=T0 - 5, duration=600,
                ),
                BLAKE2,
            )
            for crossing in crossings
        ]
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, forged, clock, BLAKE2)
        decision = router_for(topology, path.src, clock).process(
            source.build_packet(b"x"), 0
        )
        assert decision.action is Action.DROP

    def test_pre_start_use_via_lying_dropped(self, chain3, clock):
        """Claiming an earlier ResStart changes the derived key: drop."""
        topology, path = chain3
        real = grant_full_path(topology, path, start=T0 + 500)
        lied = [
            FlyoverReservation(
                isd_as=r.isd_as,
                resinfo=ResInfo(
                    ingress=r.resinfo.ingress, egress=r.resinfo.egress,
                    res_id=r.resinfo.res_id, bw_cls=r.resinfo.bw_cls,
                    start=T0 - 1, duration=r.resinfo.duration,
                ),
                auth_key=r.auth_key,
            )
            for r in real
        ]
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, lied, clock, BLAKE2)
        decision = router_for(topology, path.src, clock).process(
            source.build_packet(b"x"), 0
        )
        assert decision.action is Action.DROP

    def test_post_expiry_use_demoted(self, chain3):
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0, duration=60)
        clock = SimClock(float(T0 + 61))
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        router = router_for(topology, path.src, clock)
        decision = router.process(source.build_packet(b"x"), 0)
        assert decision.action is Action.FORWARD  # best effort, not priority
        assert router.stats.demoted_inactive == 1

    def test_claiming_more_bandwidth_dropped(self, chain3, clock):
        """Inflating the BW class in the header invalidates the key."""
        topology, path = chain3
        real = grant_full_path(topology, path, start=T0 - 5, bandwidth_kbps=1000)
        inflated = [
            FlyoverReservation(
                isd_as=r.isd_as,
                resinfo=ResInfo(
                    ingress=r.resinfo.ingress, egress=r.resinfo.egress,
                    res_id=r.resinfo.res_id, bw_cls=1023,  # claim ~64 Tbps
                    start=r.resinfo.start, duration=r.resinfo.duration,
                ),
                auth_key=r.auth_key,
            )
            for r in real
        ]
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, inflated, clock, BLAKE2)
        decision = router_for(topology, path.src, clock).process(
            source.build_packet(b"x"), 0
        )
        assert decision.action is Action.DROP

    def test_packet_length_is_authenticated(self, chain3, clock):
        """Shrinking len(pkt) after MAC computation is detected."""
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5)
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        packet = source.build_packet(b"y" * 500)
        packet.payload = packet.payload[:100]  # lie about consumed bandwidth
        decision = router_for(topology, path.src, clock).process(packet, 0)
        assert decision.action is Action.DROP


class TestQosD2:
    def test_reservation_stealing_blocked_by_dst_binding(self, chain3, clock):
        """§5.4: redirecting a stolen packet to another AS breaks the tag."""
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5)
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        stolen = source.build_packet(b"z" * 100)
        stolen.dst = ScionAddr(IsdAs(1, 999), stolen.dst.host)
        decision = router_for(topology, path.src, clock).process(stolen, 0)
        assert decision.action is Action.DROP

    def test_on_reservation_set_replay_without_suppression(self, chain3, clock):
        """Fig. 3: a shared reservation can be drained by replays..."""
        topology, path = chain3
        reservations = grant_full_path(
            topology, path, start=T0 - 5, bandwidth_kbps=1000
        )
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        router = router_for(topology, path.src, clock)
        original = source.build_packet(b"v" * 400)
        assert router.process(deepcopy(original), 0).action is Action.FORWARD_PRIORITY
        # The adversary replays the observed packet to exhaust the bucket
        # (the 50 ms burst budget at 1 Mbps is ~6250 B, ~11 packets)...
        for _ in range(25):
            router.process(deepcopy(original), 0)
        # ...and the victim's next legitimate packet is demoted.
        victim_next = source.build_packet(b"v" * 400)
        assert router.process(victim_next, 0).action is Action.FORWARD

    def test_mitigation_separate_reservations_per_path(self, chain3, clock):
        """§5.4 mitigation: per-path reservations are replay-isolated."""
        topology, path = chain3
        path_a = grant_full_path(topology, path, start=T0 - 5, bandwidth_kbps=1000, res_id_base=0)
        path_b = grant_full_path(topology, path, start=T0 - 5, bandwidth_kbps=1000, res_id_base=10)
        src, dst = addresses(path)
        source_a = HummingbirdSource(src, dst, path, path_a, clock, BLAKE2)
        source_b = HummingbirdSource(src, dst, path, path_b, clock, BLAKE2)
        router = router_for(topology, path.src, clock)
        observed = source_a.build_packet(b"v" * 400)
        for _ in range(12):  # adversary drains reservation A via replays
            router.process(deepcopy(observed), 0)
        # Path B's reservation is untouched.
        decision = router.process(source_b.build_packet(b"v" * 400), 0)
        assert decision.action is Action.FORWARD_PRIORITY

    def test_mitigation_incremental_duplicate_suppression(self, chain3, clock):
        """§5.4: an AS may deploy duplicate suppression unilaterally."""
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5, bandwidth_kbps=1000)
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        router = router_for(
            topology, path.src, clock, duplicate_filter=DuplicateFilter()
        )
        observed = source.build_packet(b"v" * 400)
        assert router.process(deepcopy(observed), 0).action is Action.FORWARD_PRIORITY
        for _ in range(12):
            replay = router.process(deepcopy(observed), 0)
            assert replay.action is Action.FORWARD  # demoted, bucket untouched
        fresh = source.build_packet(b"v" * 400)
        assert router.process(fresh, 0).action is Action.FORWARD_PRIORITY


class TestBruteForceEconomics:
    def test_online_attack_expectation(self):
        """§5.4: 6-byte tags need >140 trillion packets per success."""
        expected_packets = 2 ** (8 * TAG_LEN) / 2
        assert expected_packets > 140e12

    def test_offline_attack_not_possible_without_key(self, chain3, clock):
        """Tag validity is only observable through the router (online)."""
        topology, path = chain3
        reservations = grant_full_path(topology, path, start=T0 - 5)
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, reservations, clock, BLAKE2)
        packet = source.build_packet(b"x")
        router = router_for(topology, path.src, clock)
        # A wrong tag and a right tag are indistinguishable except by the
        # router's forwarding behaviour (drop vs priority).
        tampered = deepcopy(packet)
        hop = tampered.path.segments[0].hopfields[0]
        hop.mac = bytes(b ^ 1 for b in hop.mac)
        assert router.process(tampered, 0).action is Action.DROP
        assert router.process(packet, 0).action is Action.FORWARD_PRIORITY


class TestEconomicFairnessC2:
    def test_sybil_accounts_pay_the_same_total(self, deployment3):
        """C2: N accounts buying N slices pay what 1 account pays for N."""
        from repro.marketdata import PathSpec
        from repro.scion.beaconing import run_beaconing
        from repro.scion.paths import PathLookup, as_crossings

        deployment = deployment3
        topology = deployment.topology
        store = run_beaconing(topology, timestamp=T0)
        path = PathLookup(store).find_paths(
            topology.ases[2].isd_as, topology.ases[0].isd_as
        )[0]
        crossing = as_crossings(path)[1]
        # Stay well inside the deployed assets' one-hour window.
        start = int(deployment.clock.now()) + 120
        start -= start % 60

        single = deployment.new_host(funding_sui=100)
        plan = single.plan_path(
            deployment.marketplace,
            PathSpec.from_crossings([crossing], start, start + 240, 4000),
        )
        single_price = plan.estimated_price_mist

        sybil_total = 0
        for i in range(4):
            sybil = deployment.new_host(funding_sui=100)
            plan = sybil.plan_path(
                deployment.marketplace,
                PathSpec.from_crossings(
                    [crossing], start + 240 * (i + 1), start + 240 * (i + 2), 1000
                ),
            )
            sybil_total += plan.estimated_price_mist
        # 4 x (1000 kbps x 240 s) == 1 x (4000 kbps x 240 s): same volume,
        # same cost — splitting across accounts buys nothing.
        assert sybil_total == single_price

    def test_starving_requires_buying_the_bandwidth(self, deployment3):
        """C2: denying others the hop means paying for the whole hop."""
        from repro.contracts.asset import asset_units
        from repro.contracts.market import LISTING_TYPE, MICROMIST

        deployment = deployment3
        ledger = deployment.ledger
        # The cost of making one interface unavailable = sum of list prices
        # of every remaining listed rectangle on it: linear in the volume.
        total_cost = 0
        for obj in ledger.objects.values():
            if obj.type_tag != LISTING_TYPE:
                continue
            asset = ledger.objects.get(obj.payload["asset"])
            if asset is None:
                continue
            total_cost += (
                asset_units(asset.payload)
                * obj.payload["price_micromist_per_unit"]
                // MICROMIST
            )
        assert total_cost > 0
