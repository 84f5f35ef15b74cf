"""Admission control wired through the AS service and market deployment."""

import pytest

from tests.conftest import T0

from repro.admission import (
    AdmissionController,
    AdmissionRejected,
    ProportionalShare,
    ScarcityPricer,
)
from repro.clock import SimClock
from repro.controlplane import deploy_market, purchase_path
from repro.marketdata import PathSpec
from repro.scion import PathLookup, as_crossings, linear_topology, run_beaconing


@pytest.fixture()
def world():
    clock = SimClock(float(T0))
    topology = linear_topology(3)
    deployment = deploy_market(topology, clock=clock, asset_duration=14_400)
    store = run_beaconing(topology, timestamp=T0)
    path = PathLookup(store).find_paths(
        topology.ases[2].isd_as, topology.ases[0].isd_as
    )[0]
    return {"clock": clock, "topology": topology, "deployment": deployment, "path": path}


class TestIssuanceAdmission:
    def test_over_capacity_issuance_rejected(self, world):
        """The deployment fills every calendar; one more kbps must bounce."""
        deployment = world["deployment"]
        service = deployment.service(world["topology"].ases[0].isd_as)
        with pytest.raises(AdmissionRejected, match="kbps free"):
            service.issue_and_list(
                deployment.marketplace, 1, True, 1000, T0, T0 + 3600, 50
            )
        assert service.admission.rejections == 1

    def test_disjoint_window_issuance_admitted(self, world):
        """The same interface is free again after the deployed assets expire."""
        deployment = world["deployment"]
        service = deployment.service(world["topology"].ases[0].isd_as)
        later = T0 + 14_400  # deployed assets end here
        submitted = service.issue_and_list(
            deployment.marketplace, 1, True, 1000, later, later + 3600, 50
        )
        assert submitted.effects.ok

    def test_seed_deployment_fills_calendars_exactly(self, world):
        deployment = world["deployment"]
        for autonomous_system in world["topology"].ases:
            service = deployment.service(autonomous_system.isd_as)
            for interface in [0, *sorted(autonomous_system.interfaces)]:
                for is_ingress in (True, False):
                    utilization = service.admission.utilization(
                        interface, is_ingress, T0, T0 + 14_400
                    )
                    assert utilization == pytest.approx(1.0)

    def test_failed_ledger_transaction_releases_commitment(self, world):
        """An issuance the ledger refuses must hand its capacity back."""
        deployment = world["deployment"]
        service = deployment.service(world["topology"].ases[0].isd_as)
        later = T0 + 14_400
        # Duration not a multiple of the granularity: the contract aborts
        # after admission already committed.
        refused = service.issue_and_list(
            deployment.marketplace, 1, True, 1000, later, later + 3601, 50
        )
        assert not refused.effects.ok
        assert service.admission.calendar(1, True).peak_commitment(later, later + 3601) == 0


class TestDeliveryAdmission:
    def test_deliveries_land_in_active_calendar(self, world):
        deployment = world["deployment"]
        host = deployment.new_host(funding_sui=100)
        start, expiry = T0 + 3600, T0 + 4200
        purchase_path(
            deployment,
            host,
            as_crossings(world["path"]),
            start=start,
            expiry=expiry,
            bandwidth_kbps=4000,
        )
        crossings = as_crossings(world["path"])
        for crossing in crossings:
            service = deployment.service(crossing.isd_as)
            ingress_peak = service.admission.calendar(
                crossing.ingress, True, "active"
            ).peak_commitment(start, expiry)
            egress_peak = service.admission.calendar(
                crossing.egress, False, "active"
            ).peak_commitment(start, expiry)
            assert ingress_peak >= 4000
            assert egress_peak >= 4000

    def test_active_commitments_tagged_with_redeemer(self, world):
        deployment = world["deployment"]
        host = deployment.new_host(funding_sui=100)
        start, expiry = T0 + 4800, T0 + 5400
        purchase_path(
            deployment,
            host,
            as_crossings(world["path"]),
            start=start,
            expiry=expiry,
            bandwidth_kbps=4000,
        )
        crossing = as_crossings(world["path"])[0]
        service = deployment.service(crossing.isd_as)
        calendar = service.admission.calendar(crossing.ingress, True, "active")
        assert calendar.tag_peak(host.account.address, start, expiry) >= 4000

    def test_partial_batch_rejection_does_not_orphan_later_requests(self, world):
        """A rejected delivery is skipped, not allowed to abort the poll:
        later requests in the same event batch still get served."""
        deployment = world["deployment"]
        crossing = as_crossings(world["path"])[0]
        service = deployment.service(crossing.isd_as)
        start, expiry = T0 + 7200, T0 + 7800
        for _ in range(2):
            host = deployment.new_host(funding_sui=100)
            plan = host.plan_path(
                deployment.marketplace,
                PathSpec.from_crossings([crossing], start, expiry, 4000),
            )
            assert host.atomic_buy_and_redeem(deployment.marketplace, plan).effects.ok
        # Shrink the AS's live capacity so only the first request fits.
        service.admission = AdmissionController(5000)
        records = service.poll_and_deliver()
        assert len(records) == 1
        assert len(service.undeliverable) == 1
        request_id, reason = service.undeliverable[0]
        assert "kbps free" in reason
        # The rejected request rolled back cleanly: capacity for exactly
        # one 4000 kbps reservation is in use on each crossed interface.
        for interface, is_ingress in ((crossing.ingress, True), (crossing.egress, False)):
            calendar = service.admission.calendar(interface, is_ingress, "active")
            assert calendar.peak_commitment(start, expiry) == 4000

    def test_expire_commitments_garbage_collects(self, world):
        deployment = world["deployment"]
        host = deployment.new_host(funding_sui=100)
        purchase_path(
            deployment,
            host,
            as_crossings(world["path"]),
            start=T0 + 6000,
            expiry=T0 + 6600,
            bandwidth_kbps=4000,
        )
        service = deployment.service(as_crossings(world["path"])[0].isd_as)
        assert service.expire_commitments(T0 + 100_000) > 0
        remaining = sum(
            calendar.commitment_count
            for calendar in service.admission._calendars.values()
        )
        assert remaining == 0


class TestDeploymentKnobs:
    def test_scarcity_pricer_raises_successive_listing_prices(self):
        clock = SimClock(float(T0))
        topology = linear_topology(2)
        deployment = deploy_market(
            topology,
            clock=clock,
            asset_duration=3600,
            asset_bandwidth_kbps=1_000_000,
            interface_capacity_kbps=4_000_000,
            pricer=ScarcityPricer(),
        )
        service = deployment.service(topology.ases[0].isd_as)
        prices = []
        for _ in range(3):
            submitted = service.issue_and_list(
                deployment.marketplace, 1, True, 1_000_000, T0, T0 + 3600, 50
            )
            assert submitted.effects.ok
            listing = deployment.ledger.get_object(
                submitted.effects.returns[1]["listing"]
            )
            prices.append(listing.payload["price_micromist_per_unit"])
        assert prices == sorted(prices) and prices[-1] > prices[0]
        # Deploy issued the first 1 Gbps slice, so 4 Gbps is now full: the
        # next slice must bounce.
        with pytest.raises(AdmissionRejected):
            service.issue_and_list(
                deployment.marketplace, 1, True, 1_000_000, T0, T0 + 3600, 50
            )

    def test_admission_policy_passed_to_services(self):
        clock = SimClock(float(T0))
        topology = linear_topology(2)
        deployment = deploy_market(
            topology,
            clock=clock,
            asset_duration=3600,
            # Seed issuance takes exactly the 50% share the policy allows.
            interface_capacity_kbps=20_000_000,
            admission_policy=ProportionalShare(0.5),
        )
        service = deployment.service(topology.ases[0].isd_as)
        assert isinstance(service.admission.policy, ProportionalShare)
