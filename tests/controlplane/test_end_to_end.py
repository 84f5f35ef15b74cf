"""Control plane end to end: deploy, purchase, deliver, use on the data plane."""

import pytest

from tests.conftest import T0, addresses, walk_path

from repro.clock import SimClock
from repro.controlplane import deploy_market, purchase_path
from repro.controlplane.pki import CpPki
from repro.hummingbird import HummingbirdRouter, HummingbirdSource
from repro.marketdata import ListingQuery
from repro.scion import PathLookup, as_crossings, linear_topology, run_beaconing
from repro.scion.addresses import IsdAs
from repro.scion.router import Action


@pytest.fixture(scope="module")
def world():
    clock = SimClock(float(T0))
    topology = linear_topology(3)
    deployment = deploy_market(topology, clock=clock, asset_duration=14_400)
    store = run_beaconing(topology, timestamp=T0)
    path = PathLookup(store).find_paths(topology.ases[2].isd_as, topology.ases[0].isd_as)[0]
    return {
        "clock": clock,
        "topology": topology,
        "deployment": deployment,
        "path": path,
        "next_window": [T0 + 3600],  # mutable slot allocator
    }


def fresh_window(world, duration=600):
    """A not-yet-fragmented purchase window (each test gets its own slot)."""
    start = world["next_window"][0]
    world["next_window"][0] = start + duration + 600
    return start, start + duration


def purchase(world, bandwidth_kbps=4000, window=None):
    deployment = world["deployment"]
    host = deployment.new_host(funding_sui=100)
    start, expiry = window if window is not None else fresh_window(world)
    outcome = purchase_path(
        deployment,
        host,
        as_crossings(world["path"]),
        start=start,
        expiry=expiry,
        bandwidth_kbps=bandwidth_kbps,
    )
    return host, outcome


class TestPurchaseWorkflow:
    def test_reservations_cover_all_crossings(self, world):
        _, outcome = purchase(world)
        crossings = as_crossings(world["path"])
        assert len(outcome.reservations) == len(crossings)
        granted = {(r.isd_as, r.ingress, r.egress) for r in outcome.reservations}
        expected = {(c.isd_as, c.ingress, c.egress) for c in crossings}
        assert granted == expected

    def test_reservation_windows_cover_request(self, world):
        start, expiry = fresh_window(world)
        host = world["deployment"].new_host(funding_sui=100)
        outcome = purchase_path(
            world["deployment"], host, as_crossings(world["path"]),
            start=start, expiry=expiry, bandwidth_kbps=4000,
        )
        for reservation in outcome.reservations:
            assert reservation.resinfo.start <= start
            assert reservation.resinfo.expiry >= expiry

    def test_bandwidth_class_is_floor_of_purchase(self, world):
        from repro.wire import bwcls

        _, outcome = purchase(world, bandwidth_kbps=5000)
        for reservation in outcome.reservations:
            assert reservation.resinfo.bandwidth_kbps <= 5000
            assert reservation.resinfo.bw_cls == bwcls.encode_floor(5000)

    def test_latency_phases(self, world):
        _, outcome = purchase(world)
        assert outcome.latency.request > 0
        assert outcome.latency.response > 0
        assert outcome.latency.total == pytest.approx(
            outcome.latency.request + outcome.latency.response
        )

    def test_gas_in_paper_band(self, world):
        """3 hops stay in Table 1's magnitude band and the 1000-unit bucket.

        The exact storage cost depends on how fragmented the listings
        already are (earlier tests in this module bought rectangles too),
        so the band is generous; the Table 1 bench uses a fresh market.
        """
        _, outcome = purchase(world)
        assert 0.01 < outcome.gas.total_sui < 0.20
        assert outcome.gas.computation_units == 1000
        assert outcome.gas.storage_cost > outcome.gas.computation_cost  # storage-dominated

    def test_distinct_res_ids_for_overlapping_windows(self, world):
        """Two hosts overlapping in time get different ResIDs per interface."""
        window = fresh_window(world)
        _, first = purchase(world, window=window)
        _, second = purchase(world, window=window)
        for a in first.reservations:
            for b in second.reservations:
                if (a.isd_as, a.ingress, a.egress) == (b.isd_as, b.ingress, b.egress):
                    overlap = (
                        a.resinfo.start < b.resinfo.expiry
                        and b.resinfo.start < a.resinfo.expiry
                    )
                    if overlap:
                        assert a.resinfo.res_id != b.resinfo.res_id

    def test_purchased_reservations_work_on_data_plane(self, world):
        host, outcome = purchase(world)
        clock = world["clock"]
        topology = world["topology"]
        path = world["path"]
        active = max(r.resinfo.start for r in outcome.reservations) + 1
        if clock.now() < active:
            clock.set(active)
        src, dst = addresses(path)
        source = HummingbirdSource(src, dst, path, outcome.reservations, clock)
        routers = {a.isd_as: HummingbirdRouter(a, clock) for a in topology.ases}
        decisions = walk_path(topology, routers, source.build_packet(b"x" * 64), path.src)
        assert decisions[-1].action is Action.DELIVER
        assert all(d.action is Action.FORWARD_PRIORITY for d in decisions[:-1])

    def test_assets_destroyed_after_redeem(self, world):
        host, _ = purchase(world)
        assert host.owned_assets() == []  # wrapped into requests, then burned

    def test_unknown_as_listing_fails(self, world):
        host = world["deployment"].new_host(funding_sui=10)
        query = ListingQuery(
            isd_as=IsdAs(9, 9),
            interface=1,
            is_ingress=True,
            start=T0,
            expiry=T0 + 600,
            bandwidth_kbps=1000,
        )
        assert host.indexer(world["deployment"].marketplace).best(query) is None


class TestPki:
    def test_certificate_roundtrip(self):
        import random

        from repro.crypto.signatures import SigningKey

        pki = CpPki(seed=5)
        key = SigningKey.generate(random.Random(5))
        cert = pki.issue_certificate(IsdAs(1, 7), key.public)
        assert pki.verify_certificate(cert)

    def test_tampered_certificate_rejected(self):
        import random

        from repro.crypto.signatures import SigningKey

        pki = CpPki(seed=5)
        key = SigningKey.generate(random.Random(5))
        cert = pki.issue_certificate(IsdAs(1, 7), key.public)
        cert["asn"] = 8
        assert not pki.verify_certificate(cert)

    def test_foreign_anchor_rejected(self):
        import random

        from repro.crypto.signatures import SigningKey

        pki_a = CpPki(seed=1)
        pki_b = CpPki(seed=2)
        key = SigningKey.generate(random.Random(5))
        cert = pki_a.issue_certificate(IsdAs(1, 7), key.public)
        assert not pki_b.verify_certificate(cert)
