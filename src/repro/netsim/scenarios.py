"""Canned simulation scenarios for the QoS experiments.

The central harness, :func:`build_path_simulation`, turns a forwarding path
into a chain of router nodes joined by priority-queue links, with a metrics
sink at the destination.  Reservations are granted directly by the on-path
ASes (the market is exercised elsewhere; here we study data-plane
behaviour).

The flagship experiment — :func:`congestion_experiment` — reproduces the
QoS property D2: a reservation-protected flow keeps its goodput and latency
through a best-effort flood that saturates the bottleneck link, while an
unprotected flow collapses.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass, field

from repro.clock import SimClock
from repro.crypto.prf import PrfFactory
from repro.hummingbird.reservation import FlyoverReservation, ResInfo, grant_reservation
from repro.hummingbird.router import HummingbirdRouter
from repro.hummingbird.source import HummingbirdSource, ScionBestEffortSource
from repro.netsim.events import EventLoop
from repro.netsim.link import Link
from repro.netsim.metrics import FlowMetrics
from repro.netsim.nodes import HostSink, RouterNode
from repro.netsim.traffic import CbrSource, FloodSource
from repro.scion.addresses import HostAddr, ScionAddr
from repro.scion.paths import ForwardingPath, as_crossings
from repro.scion.topology import Topology
from repro.telemetry import ExperimentTelemetry
from repro.telemetry.tracing import use_trace
from repro.wire import bwcls

# Simulations hash millions of packets; the keyed-BLAKE2 backend keeps the
# event loop fast while exercising the identical MAC code paths.  Every
# MAC-producing component of one simulation (beaconing, sources, routers)
# must share one factory — use :func:`linear_path` to get consistent
# topology + path artifacts.
SIM_PRF = PrfFactory("blake2")


def linear_path(
    num_ases: int,
    timestamp: int = 1_700_000_000,
    prf_factory: PrfFactory = SIM_PRF,
):
    """Chain topology + leaf-to-core forwarding path, beaconing included.

    Returns ``(topology, path)`` whose hop-field MACs were produced with
    ``prf_factory`` — hand the same factory to
    :func:`build_path_simulation`.
    """
    from repro.scion.beaconing import run_beaconing
    from repro.scion.paths import PathLookup
    from repro.scion.topology import linear_topology

    topology = linear_topology(num_ases)
    store = run_beaconing(topology, timestamp=timestamp, prf_factory=prf_factory)
    lookup = PathLookup(store)
    path = lookup.find_paths(
        topology.ases[-1].isd_as, topology.ases[0].isd_as
    )[0]
    return topology, path


@dataclass
class PathSimulation:
    """A wired-up simulation of one forwarding path."""

    loop: EventLoop
    clock: SimClock
    topology: Topology
    path: ForwardingPath
    nodes: dict = field(default_factory=dict)  # IsdAs -> RouterNode
    links: list = field(default_factory=list)
    sink: HostSink | None = None
    src_addr: ScionAddr | None = None
    dst_addr: ScionAddr | None = None
    prf_factory: PrfFactory = SIM_PRF

    @property
    def entry(self) -> RouterNode:
        return self.nodes[self.path.src]

    def grant_full_path(
        self, bandwidth_kbps: int, start: int, duration: int, res_id: int = 0
    ) -> list[FlyoverReservation]:
        """Have every on-path AS grant a reservation for this path."""
        reservations = []
        for crossing in as_crossings(self.path):
            autonomous_system = self.topology.as_of(crossing.isd_as)
            resinfo = ResInfo(
                ingress=crossing.ingress,
                egress=crossing.egress,
                res_id=res_id,
                bw_cls=bwcls.encode_ceil(bandwidth_kbps),
                start=start,
                duration=duration,
            )
            reservations.append(
                grant_reservation(
                    crossing.isd_as,
                    autonomous_system.secret_value,
                    resinfo,
                    self.prf_factory,
                )
            )
        return reservations

    def hummingbird_source(self, reservations: list[FlyoverReservation]) -> HummingbirdSource:
        return HummingbirdSource(
            self.src_addr,
            self.dst_addr,
            self.path,
            reservations,
            self.clock,
            self.prf_factory,
        )

    def best_effort_source(self) -> ScionBestEffortSource:
        return ScionBestEffortSource(self.src_addr, self.dst_addr, self.path)


def build_path_simulation(
    topology: Topology,
    path: ForwardingPath,
    start_time: float = 1_700_000_000.0,
    link_rate_bps: float = 10_000_000.0,
    propagation_delay: float = 0.002,
    buffer_bytes: int = 64_000,
    burst_time: float | None = None,
    prf_factory: PrfFactory = SIM_PRF,
    link_rates: list[float] | None = None,
) -> PathSimulation:
    """Instantiate routers, links and the destination sink along ``path``.

    ``link_rates`` overrides ``link_rate_bps`` per link (one entry per
    inter-AS link in traversal order) — e.g. a slow first link makes a
    single-hop bottleneck.
    """
    clock = SimClock(start_time)
    loop = EventLoop(clock)
    simulation = PathSimulation(
        loop=loop,
        clock=clock,
        topology=topology,
        path=path,
        prf_factory=prf_factory,
        src_addr=ScionAddr(path.src, HostAddr.from_string("10.0.0.1")),
        dst_addr=ScionAddr(path.dst, HostAddr.from_string("10.0.0.2")),
    )
    crossings = as_crossings(path)
    for crossing in crossings:
        autonomous_system = topology.as_of(crossing.isd_as)
        router = HummingbirdRouter(
            autonomous_system, clock, prf_factory, burst_time=burst_time
        )
        simulation.nodes[crossing.isd_as] = RouterNode(router)
    for index, (first, second) in enumerate(zip(crossings, crossings[1:])):
        rate = link_rate_bps if link_rates is None else link_rates[index]
        link = Link(
            loop,
            rate_bps=rate,
            propagation_delay=propagation_delay,
            buffer_bytes=buffer_bytes,
            name=f"{first.isd_as}->{second.isd_as}",
        )
        simulation.links.append(link)
        simulation.nodes[first.isd_as].connect(
            first.egress, link, simulation.nodes[second.isd_as], second.ingress
        )
    sink = HostSink(clock)
    simulation.nodes[crossings[-1].isd_as].attach_sink(sink)
    simulation.sink = sink
    return simulation


@dataclass
class CongestionResult:
    """Outcome of :func:`congestion_experiment` for one flow setup."""

    victim: dict
    attacker: dict
    bottleneck_utilization: float


def congestion_experiment(
    topology: Topology,
    path: ForwardingPath,
    protected: bool,
    victim_rate_bps: float = 2_000_000.0,
    flood_rate_bps: float = 20_000_000.0,
    link_rate_bps: float = 10_000_000.0,
    duration: float = 3.0,
    payload_bytes: int = 1000,
    seed: int = 1,
    prf_factory: PrfFactory = SIM_PRF,
) -> CongestionResult:
    """Victim flow vs. best-effort flood over a shared bottleneck path.

    With ``protected=True`` the victim uses a full-path reservation sized to
    its sending rate; otherwise it competes as plain best effort.  The path
    must have been beaconed with ``prf_factory`` (see :func:`linear_path`).
    """
    simulation = build_path_simulation(
        topology, path, link_rate_bps=link_rate_bps, prf_factory=prf_factory
    )
    start = int(simulation.clock.now())
    rng = random.Random(seed)

    if protected:
        reservations = simulation.grant_full_path(
            bandwidth_kbps=int(victim_rate_bps * 1.25 / 1000),
            start=start,
            duration=int(duration) + 60,
        )
        victim_builder = simulation.hummingbird_source(reservations)
    else:
        victim_builder = simulation.best_effort_source()

    victim_metrics = simulation.sink.flow(1)
    victim = CbrSource(
        simulation.loop,
        victim_builder,
        simulation.entry,
        victim_metrics,
        rate_bps=victim_rate_bps,
        payload_bytes=payload_bytes,
        flow_id=1,
        jitter=0.05,
        rng=rng,
    )

    attacker_metrics = simulation.sink.flow(2)
    attacker = FloodSource(
        simulation.loop,
        simulation.best_effort_source(),
        simulation.entry,
        attacker_metrics,
        rate_bps=flood_rate_bps,
        payload_bytes=payload_bytes,
        flow_id=2,
        jitter=0.02,
        rng=rng,
    )

    victim.start(0.0)
    attacker.start(0.1)  # the flood ramps up shortly after the victim
    end = simulation.clock.now() + duration
    simulation.loop.run_until(end)
    victim.stop()
    attacker.stop()

    bottleneck = simulation.links[0] if simulation.links else None
    utilization = bottleneck.utilization(duration) if bottleneck else 0.0
    return CongestionResult(
        victim=victim_metrics.summary(),
        attacker=attacker_metrics.summary(),
        bottleneck_utilization=utilization,
    )


@dataclass
class BuyerOutcome:
    """One competing buyer's fate in :func:`contention_experiment`."""

    buyer: str
    requested_kbps: int
    admitted: bool
    quoted_price_micromist: int
    reason: str
    metrics: dict


@dataclass
class ContentionResult:
    """Outcome of :func:`contention_experiment`."""

    buyers: list[BuyerOutcome]
    capacity_kbps: int
    bottleneck_utilization: float

    @property
    def admitted(self) -> list[BuyerOutcome]:
        return [b for b in self.buyers if b.admitted]

    @property
    def rejected(self) -> list[BuyerOutcome]:
        return [b for b in self.buyers if not b.admitted]


@dataclass
class FlexBuyerOutcome:
    """One probe buyer's fate in :func:`flex_market_experiment`."""

    buyer: str
    flex_start: int  # seconds of start-time slack the buyer declared
    offset: int  # seconds the planner actually slid the window
    start: int  # service start of the purchased window
    expiry: int
    estimated_price_mist: int
    paid_price_mist: int
    metrics: dict


@dataclass
class FlexMarketResult:
    """Outcome of :func:`flex_market_experiment`."""

    buyers: list[FlexBuyerOutcome]
    peak_window: tuple[int, int]
    base_price_micromist: int
    peak_price_micromist: int  # scarcity-adjusted restock price in the peak
    curve_times: list[int]
    curve_prices: list[float]  # cheapest probe-sized quote per start time


def flex_market_experiment(
    num_ases: int = 3,
    probe_rate_bps: float = 2_000_000.0,
    flood_rate_bps: float = 20_000_000.0,
    link_rate_bps: float = 10_000_000.0,
    window_seconds: int = 600,
    flex_values: tuple[int, ...] = (0, 1800),
    market_bandwidth_kbps: int = 100_000,
    base_price_micromist: int = 50,
    duration: float = 1.5,
    payload_bytes: int = 1000,
    seed: int = 1,
    prf_factory: PrfFactory = SIM_PRF,
    shard_seconds: float | None = None,
    telemetry: ExperimentTelemetry | None = None,
) -> FlexMarketResult:
    """Price-reactive purchasing end to end: buy the valley, not the peak.

    Builds a *scarcity-priced* market over the path, exhausts the cheap
    capacity in one peak window (a crowd buys it out and redeems, so the
    active calendars spike), has every AS restock the peak at its
    scarcity-adjusted quote, then sends probe buyers with different
    ``flex_start`` budgets through the full v2 purchase workflow
    (:class:`~repro.marketdata.PathSpec` -> planner -> atomic
    buy-and-redeem).  A zero-flex probe must pay the peak restock price; a
    probe with enough slack slides into the post-peak valley and pays the
    base price.  Each probe's reservations are then *used*: a short
    packet-level simulation runs its flow against a best-effort flood and
    records goodput/latency, proving the valley reservations are as real
    on the data plane as the peak ones.

    With ``telemetry`` the market side (indexer, ledger executor, per-AS
    admission) reports into the harness's registry and each probe's
    purchase is traced end to end.
    """
    with telemetry.activate() if telemetry is not None else contextlib.nullcontext():
        from repro.admission import ScarcityPricer
        from repro.controlplane import deploy_market, purchase_path

        deploy_time = 1_700_000_000
        topology, path = linear_path(
            num_ases, timestamp=deploy_time, prf_factory=prf_factory
        )
        crossings = as_crossings(path)
        clock = SimClock(float(deploy_time))
        deployment = deploy_market(
            topology,
            clock=clock,
            seed=seed,
            asset_start=deploy_time,  # pin the granule anchor for clean windows
            asset_duration=7200,
            asset_bandwidth_kbps=market_bandwidth_kbps,
            price_micromist_per_unit=base_price_micromist,
            interface_capacity_kbps=2 * market_bandwidth_kbps,
            pricer=ScarcityPricer(),
            prf_factory=prf_factory,
            shard_seconds=shard_seconds,
        )
        peak = (deploy_time + 600, deploy_time + 600 + window_seconds)

        # A crowd buys the peak window out at the base price and redeems, so
        # the cheap capacity is gone and the active calendars record the load.
        crowd = deployment.new_host(name="crowd")
        purchase_path(
            deployment,
            crowd,
            crossings,
            start=peak[0],
            expiry=peak[1],
            bandwidth_kbps=market_bandwidth_kbps,
        )

        # Every AS restocks the sold-out peak; the quote now carries the
        # scarcity multiplier, so peak capacity exists again — at a premium.
        peak_price = base_price_micromist
        for crossing in crossings:
            service = deployment.service(crossing.isd_as)
            for interface, is_ingress in (
                (crossing.ingress, True),
                (crossing.egress, False),
            ):
                peak_price = max(
                    peak_price,
                    service.admission.quote(
                        base_price_micromist, interface, is_ingress, *peak
                    ),
                )
                restocked = service.issue_and_list(
                    deployment.marketplace,
                    interface,
                    is_ingress,
                    market_bandwidth_kbps,
                    *peak,
                    base_price_micromist,
                )
                if not restocked.effects.ok:
                    raise RuntimeError(f"restock failed: {restocked.effects.error}")

        reserve_kbps = int(probe_rate_bps * 1.25 / 1000)  # cover wire overhead
        outcomes: list[FlexBuyerOutcome] = []
        for index, flex in enumerate(flex_values):
            buyer = f"probe-flex-{flex}"
            host = deployment.new_host(name=buyer)
            # Trace the whole purchase: plan -> atomic buy-and-redeem tx ->
            # per-AS admission -> sealed delivery.
            trace = telemetry.trace(buyer) if telemetry is not None else None
            with use_trace(trace):
                outcome = purchase_path(
                    deployment,
                    host,
                    crossings,
                    start=peak[0],
                    expiry=peak[0] + window_seconds,
                    bandwidth_kbps=reserve_kbps,
                    flex_start=flex,
                )
            # Use the reservations on the data plane: the probe's protected
            # flow vs a best-effort flood over the bottleneck, simulated at
            # the window the planner actually bought.
            simulation = build_path_simulation(
                topology,
                path,
                start_time=float(outcome.quote.start) + 0.1,
                link_rate_bps=link_rate_bps,
                prf_factory=prf_factory,
            )
            rng = random.Random(seed + index)
            victim_metrics = simulation.sink.flow(1)
            victim = CbrSource(
                simulation.loop,
                simulation.hummingbird_source(outcome.reservations),
                simulation.entry,
                victim_metrics,
                rate_bps=probe_rate_bps,
                payload_bytes=payload_bytes,
                flow_id=1,
                jitter=0.05,
                rng=rng,
            )
            flood_metrics = simulation.sink.flow(2)
            flood = FloodSource(
                simulation.loop,
                simulation.best_effort_source(),
                simulation.entry,
                flood_metrics,
                rate_bps=flood_rate_bps,
                payload_bytes=payload_bytes,
                flow_id=2,
                jitter=0.02,
                rng=rng,
            )
            victim.start(0.0)
            flood.start(0.05)
            simulation.loop.run_until(simulation.clock.now() + duration)
            victim.stop()
            flood.stop()
            outcomes.append(
                FlexBuyerOutcome(
                    buyer=buyer,
                    flex_start=flex,
                    offset=outcome.quote.offset,
                    start=outcome.quote.start,
                    expiry=outcome.quote.expiry,
                    estimated_price_mist=outcome.estimated_price_mist,
                    paid_price_mist=outcome.price_mist,
                    metrics=victim_metrics.summary(),
                )
            )

        # Price-over-time curve at the bottleneck ingress: the peak plateau
        # and the valley the flexible probes slid into.
        bottleneck = crossings[1] if len(crossings) > 1 else crossings[0]
        curve_times = list(
            range(deploy_time, deploy_time + 3600 + window_seconds, window_seconds // 2)
        )
        curve_prices = deployment.indexer.price_curve(
            bottleneck.isd_as,
            bottleneck.ingress,
            True,
            reserve_kbps,
            window_seconds,
            curve_times,
        )
        result = FlexMarketResult(
            buyers=outcomes,
            peak_window=peak,
            base_price_micromist=base_price_micromist,
            peak_price_micromist=peak_price,
            curve_times=curve_times,
            curve_prices=[float(price) for price in curve_prices],
        )
        if telemetry is not None:
            for crossing in crossings:
                deployment.service(crossing.isd_as).admission.record_capacity_gauges(
                    deploy_time, deploy_time + 7200, owner=str(crossing.isd_as)
                )
            telemetry.annotate(
                flex_market={
                    "peak_window": list(peak),
                    "base_price_micromist": base_price_micromist,
                    "peak_price_micromist": peak_price,
                    "buyers": [
                        {
                            "buyer": b.buyer,
                            "flex_start": b.flex_start,
                            "offset": b.offset,
                            "paid_price_mist": b.paid_price_mist,
                            "goodput_mbps": b.metrics.get("goodput_mbps"),
                        }
                        for b in outcomes
                    ],
                    "curve_times": curve_times,
                    "curve_prices": result.curve_prices,
                }
            )
        return result


@dataclass
class AuctionBuyerOutcome:
    """One buyer's fate in BOTH arms of :func:`auction_experiment`."""

    buyer: str
    requested_kbps: int
    valuation_micromist: int  # per-unit willingness to pay
    posted_admitted: bool
    posted_quote_micromist: int  # the posted price this buyer faced
    posted_paid_mist: int
    posted_reason: str
    auction_won: bool
    auction_paid_mist: int
    auction_reason: str
    metrics: dict  # auction-arm data-plane metrics (empty when not simulated)


@dataclass
class AuctionExperimentResult:
    """Outcome of :func:`auction_experiment`: posted vs auctioned window."""

    buyers: list[AuctionBuyerOutcome]
    capacity_kbps: int
    supply_kbps: int
    reserve_micromist: int
    clearing_price_micromist: int
    posted_revenue_mist: int
    auction_revenue_mist: int
    posted_peak_kbps: int
    auction_peak_kbps: int
    bottleneck_utilization: float

    @property
    def oversold(self) -> bool:
        """Did either arm commit more than the physical capacity?"""
        return (
            self.posted_peak_kbps > self.capacity_kbps
            or self.auction_peak_kbps > self.capacity_kbps
        )

    def rejection_rate(self, arm: str) -> float:
        """Fraction of buyers who got nothing (``arm``: posted|auction)."""
        if not self.buyers:
            return 0.0
        if arm == "posted":
            losses = sum(1 for b in self.buyers if not b.posted_admitted)
        else:
            losses = sum(1 for b in self.buyers if not b.auction_won)
        return losses / len(self.buyers)

    def efficiency(self, arm: str) -> float:
        """Captured valuation: awarded value / best achievable value.

        The market-design fairness yardstick: 1.0 means the window went to
        exactly the buyers who value it most.  Posted prices allocate by
        *arrival order* among those who can afford the quote; the auction
        allocates by *bid order*, so it should sit at (or near) 1.0.
        """
        demands = sorted((b.valuation_micromist for b in self.buyers), reverse=True)
        per_buyer = self.buyers[0].requested_kbps if self.buyers else 0
        slots = per_buyer and self.capacity_kbps // per_buyer
        best = sum(demands[:slots])
        if best == 0:
            return 1.0
        if arm == "posted":
            captured = sum(
                b.valuation_micromist for b in self.buyers if b.posted_admitted
            )
        else:
            captured = sum(
                b.valuation_micromist for b in self.buyers if b.auction_won
            )
        return captured / best

    def jain_index(self, arm: str) -> float:
        """Jain's fairness index over awarded bandwidth across all buyers."""
        if arm == "posted":
            shares = [b.requested_kbps if b.posted_admitted else 0 for b in self.buyers]
        else:
            shares = [b.requested_kbps if b.auction_won else 0 for b in self.buyers]
        total = sum(shares)
        if total == 0:
            return 1.0
        return total * total / (len(shares) * sum(s * s for s in shares))


def auction_experiment(
    topology: Topology,
    path: ForwardingPath,
    num_buyers: int = 10,
    per_buyer_kbps: int = 2000,
    link_rate_bps: float = 10_000_000.0,
    reservable_fraction: float = 0.8,
    duration: float = 1.5,
    payload_bytes: int = 1000,
    base_price_micromist: int = 50,
    seed: int = 1,
    prf_factory: PrfFactory = SIM_PRF,
    shard_seconds: float | None = None,
    max_share_fraction: float = 0.5,
    telemetry: ExperimentTelemetry | None = None,
) -> AuctionExperimentResult:
    """Sealed-bid uniform-price auction vs posted scarcity prices, head-on.

    The PR 1 contention workload — ``num_buyers`` buyers, heterogeneous
    willingness to pay, one bottleneck interface window — allocated two
    ways against identical admission controllers:

    * **posted arm**: buyers arrive in order and face the current
      scarcity-adjusted quote; a buyer purchases iff the quote is within
      their valuation and admission still fits.  Arrival order decides who
      wins the contended window, and early buyers pay *less* than late
      ones — the money the operator's guessed curve leaves on the table.
    * **auction arm**: the same buyers seal bids at their valuations into
      a :class:`~repro.admission.WindowAuction` (reserve = the posted
      quote at open, share cap = the proportional-share bound) and the
      window clears at one uniform price — the highest losing bid.

    The auction arm's winners then *use* their reservations: a packet
    simulation runs every buyer (winners protected, losers best effort)
    through the bottleneck, reproducing the contention experiment's
    data-plane picture on top of auction-allocated windows.  With
    ``duration = 0`` the packet phase is skipped (clearing-only runs).

    Returns:
        An :class:`AuctionExperimentResult`; its ``oversold`` property is
        False iff neither arm committed past physical capacity, and
        ``auction_revenue_mist >= posted_revenue_mist`` whenever demand
        actually contends (the experiment's headline claim, asserted in
        ``tests/netsim/test_netsim.py``).

    With ``telemetry`` both arms report into the harness's registry, and a
    *ledger-backed* companion run traces one reservation under a single
    correlation id through its entire lifecycle: auction-open transaction
    -> sealed bid -> uniform-price settlement -> posted egress buy ->
    redeem -> admission -> sealed delivery -> data-plane policer verdict.
    """
    with telemetry.activate() if telemetry is not None else contextlib.nullcontext():
        from repro.admission import (
            ACTIVE,
            AdmissionController,
            ProportionalShare,
            ScarcityPricer,
        )

        crossings = as_crossings(path)
        if len(crossings) < 2:
            raise ValueError("need at least one inter-AS link for a bottleneck")
        bottleneck = crossings[1]  # ingress side of the first inter-AS link
        capacity_kbps = int(link_rate_bps / 1000 * reservable_fraction)
        simulate = duration > 0
        simulation = (
            build_path_simulation(
                topology, path, link_rate_bps=link_rate_bps, prf_factory=prf_factory
            )
            if simulate
            else None
        )
        start = (
            int(simulation.clock.now()) if simulate else 1_700_000_000
        )
        window_end = start + int(duration) + 60
        window_seconds = window_end - start
        reserve_kbps = int(per_buyer_kbps * 1.25)  # cover wire overhead
        rng = random.Random(seed)
        valuations = [
            int(base_price_micromist * rng.uniform(1.0, 12.0))
            for _ in range(num_buyers)
        ]

        def paid_mist(unit_price: int) -> int:
            return -(-reserve_kbps * window_seconds * unit_price // 1_000_000)

        # -- posted arm: arrival order vs the scarcity curve -----------------------
        posted = AdmissionController(
            capacity_kbps, pricer=ScarcityPricer(), shard_seconds=shard_seconds,
        )
        posted_outcomes: list[tuple[bool, int, int, str]] = []
        posted_revenue = 0
        for index, valuation in enumerate(valuations):
            quote = posted.quote(
                base_price_micromist, bottleneck.ingress, True, start, window_end
            )
            if quote > valuation:
                posted_outcomes.append((False, quote, 0, "priced out"))
                continue
            decision = posted.admit_reservation(
                bottleneck.ingress, True, reserve_kbps, start, window_end,
                tag=f"buyer-{index}",
            )
            if decision.admitted:
                posted_revenue += paid_mist(quote)
                posted_outcomes.append((True, quote, paid_mist(quote), "admitted"))
            else:
                posted_outcomes.append((False, quote, 0, decision.reason))

        # -- auction arm: one sealed-bid book, cleared at a uniform price ----------
        auctioneer = AdmissionController(
            capacity_kbps,
            pricer=ScarcityPricer(),
            policy=ProportionalShare(max_share_fraction),
            shard_seconds=shard_seconds,
            auction_interfaces=True,
        )
        book = auctioneer.open_auction(
            bottleneck.ingress, True, capacity_kbps, start, window_end,
            base_price_micromist,
        )
        for index, valuation in enumerate(valuations):
            book.place(f"buyer-{index}", reserve_kbps, valuation)
        supply = auctioneer.settle_supply(
            bottleneck.ingress, True, start, window_end, capacity_kbps
        )
        outcome = book.clear(supply)
        winners = {bid.bidder for bid in outcome.winners}
        reasons = {lost.bid.bidder: lost.reason for lost in outcome.losers}
        for bid in outcome.winners:
            decision = auctioneer.admit_reservation(
                bottleneck.ingress, True, bid.bandwidth_kbps, start, window_end,
                tag=bid.bidder,
            )
            if not decision.admitted:  # cannot happen: clearing respects supply
                raise RuntimeError(f"auction oversold the window: {decision.reason}")
        auction_revenue = outcome.revenue_mist(window_seconds)

        # -- data plane: winners protected, everyone sends --------------------------
        sources = []
        flow_metrics: list[FlowMetrics | None] = []
        if simulate:
            for index in range(num_buyers):
                if f"buyer-{index}" in winners:
                    reservations = simulation.grant_full_path(
                        reserve_kbps, start, int(duration) + 60, res_id=index
                    )
                    builder = simulation.hummingbird_source(reservations)
                else:
                    builder = simulation.best_effort_source()
                metrics = simulation.sink.flow(index + 1)
                flow_metrics.append(metrics)
                source = CbrSource(
                    simulation.loop,
                    builder,
                    simulation.entry,
                    metrics,
                    rate_bps=per_buyer_kbps * 1000.0,
                    payload_bytes=payload_bytes,
                    flow_id=index + 1,
                    jitter=0.05,
                    rng=rng,
                )
                sources.append(source)
                source.start(0.01 * index)
            simulation.loop.run_until(simulation.clock.now() + duration)
            for source in sources:
                source.stop()
        else:
            flow_metrics = [None] * num_buyers

        per_winner = paid_mist(outcome.clearing_price_micromist)
        buyers = []
        for index, valuation in enumerate(valuations):
            name = f"buyer-{index}"
            admitted, quote, paid, posted_reason = posted_outcomes[index]
            won = name in winners
            buyers.append(
                AuctionBuyerOutcome(
                    buyer=name,
                    requested_kbps=reserve_kbps,
                    valuation_micromist=valuation,
                    posted_admitted=admitted,
                    posted_quote_micromist=quote,
                    posted_paid_mist=paid,
                    posted_reason=posted_reason,
                    auction_won=won,
                    auction_paid_mist=per_winner if won else 0,
                    auction_reason="won" if won else reasons.get(name, "no bid"),
                    metrics=(
                        flow_metrics[index].summary() if flow_metrics[index] else {}
                    ),
                )
            )

        posted_peak = posted.calendar(bottleneck.ingress, True, ACTIVE).peak_commitment(
            start, window_end
        )
        auction_peak = auctioneer.calendar(
            bottleneck.ingress, True, ACTIVE
        ).peak_commitment(start, window_end)
        link = simulation.links[0] if simulate and simulation.links else None
        result = AuctionExperimentResult(
            buyers=buyers,
            capacity_kbps=capacity_kbps,
            supply_kbps=supply,
            reserve_micromist=book.reserve_micromist,
            clearing_price_micromist=outcome.clearing_price_micromist,
            posted_revenue_mist=posted_revenue,
            auction_revenue_mist=auction_revenue,
            posted_peak_kbps=int(posted_peak),
            auction_peak_kbps=int(auction_peak),
            bottleneck_utilization=link.utilization(duration) if link else 0.0,
        )
        if telemetry is not None:
            posted.record_capacity_gauges(start, window_end, owner="posted-arm")
            auctioneer.record_capacity_gauges(start, window_end, owner="auction-arm")
            if simulate:
                simulation.nodes[bottleneck.isd_as].router.policer.record_gauges(
                    str(bottleneck.isd_as)
                )
            _traced_reservation_lifecycle(
                telemetry, topology, crossings, bottleneck, path, prf_factory
            )
            telemetry.annotate(
                auction={
                    "capacity_kbps": capacity_kbps,
                    "supply_kbps": supply,
                    "reserve_micromist": result.reserve_micromist,
                    "clearing_price_micromist": result.clearing_price_micromist,
                    "posted_revenue_mist": posted_revenue,
                    "auction_revenue_mist": auction_revenue,
                    "posted_efficiency": result.efficiency("posted"),
                    "auction_efficiency": result.efficiency("auction"),
                    "posted_jain": result.jain_index("posted"),
                    "auction_jain": result.jain_index("auction"),
                    "oversold": result.oversold,
                }
            )
        return result


def _traced_reservation_lifecycle(
    telemetry: ExperimentTelemetry,
    topology: Topology,
    crossings,
    bottleneck,
    path: ForwardingPath,
    prf_factory: PrfFactory,
) -> None:
    """One reservation, one correlation id, the whole Hummingbird story.

    A compact ledger-backed companion to the in-memory auction arms: an AS
    auctions a future bottleneck-ingress window on-chain, two hosts seal
    bids, the auction settles at one uniform price, the winner buys the
    posted egress piece, redeems the pair, the AS admits and delivers the
    sealed reservation, and the winner's traffic crosses a simulated
    bottleneck under flood — ending with the policer's per-ResID verdict.
    Every step lands on a single :class:`TraceContext`, which is the
    "follow one reservation end to end" acceptance check.
    """
    from repro.admission import ScarcityPricer
    from repro.controlplane import deploy_market, purchase_path

    t0 = 1_700_000_000
    window = (t0 + 3600, t0 + 4200)  # granule-aligned scarce future window
    bid_kbps = 2500
    clock = SimClock(float(t0))
    trace = telemetry.trace("traced-reservation")
    with use_trace(trace):
        deployment = deploy_market(
            topology,
            clock=clock,
            asset_start=t0,
            asset_duration=3600,
            asset_bandwidth_kbps=10_000,
            interface_capacity_kbps=20_000,
            pricer=ScarcityPricer(),
            prf_factory=prf_factory,
            auction_interfaces={(bottleneck.ingress, True)},
        )
        # Posted listings for the window everywhere except the auctioned
        # bottleneck ingress.
        for crossing in crossings:
            service = deployment.service(crossing.isd_as)
            for interface, is_ingress in (
                (crossing.ingress, True),
                (crossing.egress, False),
            ):
                if crossing is bottleneck and is_ingress:
                    continue
                service.issue_and_list(
                    deployment.marketplace, interface, is_ingress,
                    10_000, *window, 50,
                )
        auctioneer = deployment.service(bottleneck.isd_as)
        opened = auctioneer.open_auction(
            deployment.marketplace, bottleneck.ingress, True,
            bid_kbps, *window, 50,
        )
        if not opened.effects.ok:  # pragma: no cover - deploy is deterministic
            raise RuntimeError(f"traced auction failed: {opened.effects.error}")
        auction_id = next(iter(auctioneer.open_auctions))
        # Two sealed bids for one slot: the winner pays the loser's price.
        winner = deployment.new_host(name="traced-winner")
        rival = deployment.new_host(name="traced-rival")
        winner.acquire(
            deployment.marketplace, bottleneck.isd_as, bottleneck.ingress,
            True, *window, bid_kbps, max_price_mist=9_000,
        )
        rival.place_bid(deployment.marketplace, auction_id, bid_kbps, 300)
        clock.set(float(window[0]))
        auctioneer.settle_due_auctions()
        settlement = winner.await_settle(deployment.marketplace, auction_id)
        rival.await_settle(deployment.marketplace, auction_id)
        if settlement is None or not settlement.won:  # pragma: no cover
            raise RuntimeError("traced bidder should have won the auction")
        egress_buy = winner.acquire(
            deployment.marketplace, bottleneck.isd_as, bottleneck.egress,
            False, *window, bid_kbps, max_price_mist=10_000_000,
        )
        winner.redeem_pair(
            settlement.assets[0],
            egress_buy.submitted.effects.returns[0]["asset"],
        )
        deliveries = auctioneer.poll_and_deliver()
        bottleneck_reservations = winner.collect_reservations()
        res_id = deliveries[0].res_id if deliveries else 0
        # Posted purchases cover the rest of the path.
        other = purchase_path(
            deployment,
            winner,
            [crossing for crossing in crossings if crossing is not bottleneck],
            start=window[0],
            expiry=window[1],
            bandwidth_kbps=bid_kbps,
        )
        reservations = bottleneck_reservations + other.reservations
        # Data plane: the traced reservation crosses the bottleneck under
        # a 2x flood; the policer's usage array is the final verdict.
        simulation = build_path_simulation(
            topology,
            path,
            start_time=float(window[0]) + 0.1,
            prf_factory=prf_factory,
        )
        victim_metrics = simulation.sink.flow(1)
        victim = CbrSource(
            simulation.loop,
            simulation.hummingbird_source(reservations),
            simulation.entry,
            victim_metrics,
            rate_bps=1_500_000.0,
            payload_bytes=1000,
            flow_id=1,
        )
        flood = FloodSource(
            simulation.loop,
            simulation.best_effort_source(),
            simulation.entry,
            simulation.sink.flow(2),
            rate_bps=20_000_000.0,
            payload_bytes=1000,
            flow_id=2,
        )
        victim.start(0.0)
        flood.start(0.05)
        simulation.loop.run_until(simulation.clock.now() + 0.5)
        victim.stop()
        flood.stop()
        policer = simulation.nodes[bottleneck.isd_as].router.policer
        policer.record_gauges(str(bottleneck.isd_as))
        trace.event(
            "policer.verdict",
            isd_as=str(bottleneck.isd_as),
            ingress=bottleneck.ingress,
            res_id=res_id,
            priority_bytes=policer.usage_bytes(bottleneck.ingress, res_id),
            goodput_mbps=victim_metrics.summary()["goodput_mbps"],
        )


@dataclass
class PathBuyerOutcome:
    """One buyer's fate in :func:`path_contention_experiment`."""

    buyer: str
    requested_kbps: int
    admitted: bool
    failed_hop: int | None
    reason: str


@dataclass
class PathContentionResult:
    """Outcome of :func:`path_contention_experiment`.

    ``rollback_restores_state`` is the atomicity verdict: after a screen
    rejected mid-path *and* a commit whose per-hop effect hook failed
    mid-path, every hop's calendars fingerprinted byte-identical to the
    pre-probe state.  ``escrow_conserved`` checks the ledger companion's
    combinatorial settlement: awards plus refunds equal the escrows taken.
    """

    buyers: list[PathBuyerOutcome]
    hop_names: list[str]
    hop_capacities_kbps: list[int]
    hop_peaks_kbps: list[int]
    hop_modes: list[str]
    rollback_restores_state: bool
    escrow_conserved: bool
    path_auction_winners: int

    @property
    def admitted(self) -> list[PathBuyerOutcome]:
        return [b for b in self.buyers if b.admitted]

    @property
    def rejected(self) -> list[PathBuyerOutcome]:
        return [b for b in self.buyers if not b.admitted]

    @property
    def oversold(self) -> bool:
        """Did any hop commit more than its physical capacity?"""
        return any(
            peak > capacity
            for peak, capacity in zip(self.hop_peaks_kbps, self.hop_capacities_kbps)
        )


def path_contention_experiment(
    topology: Topology,
    path: ForwardingPath,
    num_buyers: int = 8,
    per_buyer_kbps: int = 2000,
    window_seconds: int = 600,
    base_price_micromist: int = 50,
    seed: int = 1,
    telemetry: ExperimentTelemetry | None = None,
) -> PathContentionResult:
    """Whole paths contend for a mid-path bottleneck, admitted atomically.

    Every buyer wants ``per_buyer_kbps`` across **all** hops of the path
    or nothing.  Each on-path AS runs a deliberately different admission
    stack — monolithic first-come-first-served posted pricing, a
    time-sharded proportional-share calendar (the capacity bottleneck),
    and an auction-mode interface with scarcity quotes — and
    :class:`~repro.pathadm.PathAdmission` coordinates them through the
    two-phase screen -> commit protocol: every hop checked and
    provisionally held, then committed all-or-nothing.

    The experiment then probes the failure paths directly: a screen that
    must die at the bottleneck and a commit whose per-hop effect hook
    raises mid-path, asserting (via calendar fingerprints) that rollback
    left every upstream hop byte-identical to never-touched.

    A ledger-backed companion runs the same path through the *on-chain*
    machinery — one combinatorial path auction over every leg, two
    competing escrowed path bids, all-or-nothing settlement, atomic
    path-wide redemption, per-AS sealed deliveries — checking that the
    settlement conserved escrow to the MIST.  With ``telemetry`` the whole
    lifecycle (screen -> per-hop admits -> commit -> settle -> redeem ->
    release) lands on a single trace id.
    """
    with telemetry.activate() if telemetry is not None else contextlib.nullcontext():
        from repro.admission import (
            ACTIVE,
            AdmissionController,
            FirstComeFirstServed,
            ProportionalShare,
            ScarcityPricer,
        )
        from repro.pathadm import (
            PathAdmission,
            PathCommitError,
            PathHop,
            controller_fingerprint,
        )

        crossings = as_crossings(path)
        if len(crossings) < 3:
            raise ValueError("path contention needs at least three on-path ASes")
        # Bottleneck sized so roughly half the buyers fit, plus headroom for
        # the small rollback probe; the other hops are never the constraint.
        slots = (num_buyers + 1) // 2
        probe_kbps = max(per_buyer_kbps // 2, 1)
        bottleneck_capacity = slots * per_buyer_kbps + probe_kbps
        wide_capacity = 2 * num_buyers * per_buyer_kbps
        # One allocation stack per AS: the heterogeneity the protocol must
        # coordinate without caring what runs behind each hop.
        configs = [
            ("posted/fcfs/monolithic", AdmissionController(
                wide_capacity, policy=FirstComeFirstServed(),
            )),
            ("posted/proportional/sharded", AdmissionController(
                bottleneck_capacity,
                policy=ProportionalShare(0.5),
                shard_seconds=float(window_seconds),
            )),
            ("auction/scarcity/monolithic", AdmissionController(
                wide_capacity, pricer=ScarcityPricer(), auction_interfaces=True,
            )),
        ]
        hops = []
        hop_modes = []
        for index, crossing in enumerate(crossings):
            mode, controller = configs[index % len(configs)]
            hop_modes.append(mode)
            hops.append(
                PathHop(
                    name=str(crossing.isd_as),
                    controller=controller,
                    ingress_interface=crossing.ingress,
                    egress_interface=crossing.egress,
                )
            )
        admission = PathAdmission(hops)

        start = 1_700_000_000
        window_end = start + window_seconds
        outcomes: list[PathBuyerOutcome] = []
        for index in range(num_buyers):
            buyer = f"buyer-{index}"
            trace = telemetry.trace(buyer) if telemetry and index == 0 else None
            with use_trace(trace):
                ticket = admission.screen(
                    per_buyer_kbps, start, window_end, tag=buyer, layer=ACTIVE
                )
                if ticket.admitted:
                    admission.commit(ticket)
            outcomes.append(
                PathBuyerOutcome(
                    buyer=buyer,
                    requested_kbps=per_buyer_kbps,
                    admitted=ticket.admitted,
                    failed_hop=ticket.failed_hop,
                    reason=ticket.reason,
                )
            )

        # -- atomicity probes: both failure paths must be invisible afterwards --
        baseline = [controller_fingerprint(hop.controller) for hop in hops]
        rejected_probe = admission.screen(
            wide_capacity, start, window_end, tag="oversized-probe", layer=ACTIVE
        )
        restored_after_reject = (
            not rejected_probe.admitted
            and [controller_fingerprint(hop.controller) for hop in hops] == baseline
        )
        probe = admission.screen(
            probe_kbps, start, window_end, tag="commit-probe", layer=ACTIVE
        )
        restored_after_commit_fail = False
        if probe.admitted:
            fail_at = len(hops) - 1

            def failing_hook(index, hop, hold):
                if index == fail_at:
                    raise RuntimeError("downstream settlement refused")

            try:
                admission.commit(probe, hook=failing_hook)
            except PathCommitError:
                restored_after_commit_fail = (
                    [controller_fingerprint(hop.controller) for hop in hops]
                    == baseline
                )

        hop_peaks = []
        for hop in hops:
            hop_peaks.append(
                int(
                    max(
                        hop.controller.calendar(interface, is_ingress, ACTIVE)
                        .peak_commitment(start, window_end)
                        for interface, is_ingress in hop.claims
                    )
                )
            )

        escrow_conserved, winners = _traced_path_lifecycle(
            telemetry, topology, crossings, per_buyer_kbps, base_price_micromist, seed
        )

        result = PathContentionResult(
            buyers=outcomes,
            hop_names=[hop.name for hop in hops],
            hop_capacities_kbps=[
                int(hop.controller.capacity_kbps(hop.ingress_interface, True))
                for hop in hops
            ],
            hop_peaks_kbps=hop_peaks,
            hop_modes=hop_modes,
            rollback_restores_state=(
                restored_after_reject and restored_after_commit_fail
            ),
            escrow_conserved=escrow_conserved,
            path_auction_winners=winners,
        )
        if telemetry is not None:
            for hop in hops:
                hop.controller.record_capacity_gauges(
                    start, window_end, owner=f"path-hop-{hop.name}"
                )
            telemetry.annotate(
                path_contention={
                    "hops": len(hops),
                    "hop_modes": hop_modes,
                    "admitted": len(result.admitted),
                    "rejected": len(result.rejected),
                    "oversold": result.oversold,
                    "rollback_restores_state": result.rollback_restores_state,
                    "escrow_conserved": result.escrow_conserved,
                    "path_auction_winners": result.path_auction_winners,
                }
            )
        return result


def _traced_path_lifecycle(
    telemetry: ExperimentTelemetry | None,
    topology: Topology,
    crossings,
    bandwidth_kbps: int,
    base_price_micromist: int,
    seed: int,
) -> tuple[bool, int]:
    """One path reservation, one correlation id, the whole on-chain story.

    Every on-path AS contributes its two legs into a single combinatorial
    path auction; two hosts place escrowed path bids (the richer one via
    :meth:`~repro.controlplane.HostClient.acquire_path`); a path-wide
    screen -> commit holds every hop's calendar while the auction settles
    all-or-nothing and the winner redeems every (ingress, egress) pair in
    one atomic transaction; each AS admits and delivers its sealed
    reservation, after which the provisional path hold is released in
    favour of the delivered reservations.  Returns ``(escrow conserved,
    number of path winners)``.
    """
    from repro.admission import ACTIVE
    from repro.controlplane import (
        deploy_market,
        open_path_auction,
        settle_path_auction,
    )

    t0 = 1_700_000_000
    window = (t0 + 3600, t0 + 4200)
    duration = window[1] - window[0]
    clock = SimClock(float(t0))
    trace = telemetry.trace("traced-path") if telemetry else None
    with use_trace(trace):
        deployment = deploy_market(
            topology,
            clock=clock,
            seed=seed,
            asset_start=t0,
            asset_duration=3600,
            asset_bandwidth_kbps=4 * bandwidth_kbps,
            interface_capacity_kbps=8 * bandwidth_kbps,
        )
        handle = open_path_auction(
            deployment,
            crossings,
            *window,
            bandwidth_kbps=2 * bandwidth_kbps,
            base_price_micromist=base_price_micromist,
        )
        winner = deployment.new_host(name="path-winner")
        rival = deployment.new_host(name="path-rival")
        num_legs = 2 * len(crossings)
        escrow_cap = (
            -(-bandwidth_kbps * duration * 40 * base_price_micromist // 1_000_000)
            * num_legs
        )
        acquired = winner.acquire_path(
            deployment.marketplace,
            crossings,
            *window,
            bandwidth_kbps=bandwidth_kbps,
            max_price_mist=escrow_cap,
        )
        if acquired.mode != "path_bid":  # pragma: no cover - auction covers
            raise RuntimeError("path auction should have covered the spec")
        rival.place_path_bid(
            deployment.marketplace,
            handle.path_auction,
            2 * bandwidth_kbps,
            escrow_cap // 8,
        )
        # Path-wide provisional hold across every hop's live calendar,
        # kept through settlement and redemption, released once the
        # delivered reservations own the capacity.
        admission = deployment.path_admission(crossings)
        hold = admission.screen(
            bandwidth_kbps, *window, tag=winner.account.address, layer=ACTIVE
        )
        if not hold.admitted:  # pragma: no cover - capacity is ample
            raise RuntimeError(f"path hold rejected: {hold.reason}")
        admission.commit(hold)
        clock.set(float(window[0]))
        settle_path_auction(deployment, handle)
        settlement = winner.await_path_settle(
            deployment.marketplace, handle.path_auction
        )
        if settlement is None or not settlement.won:  # pragma: no cover
            raise RuntimeError("the funded path bid should have won")
        pairs = list(zip(settlement.assets[0::2], settlement.assets[1::2]))
        winner.redeem_path(pairs)
        for crossing in crossings:
            deployment.service(crossing.isd_as).poll_and_deliver()
        winner.collect_reservations()
        admission.rollback(hold)
        # Escrow conservation, straight from the event stream: everything
        # escrowed at bid time came back as awards plus refunds.
        placed = deployment.ledger.events_since(0, "PathBidPlaced")
        settled = deployment.ledger.events_since(0, "PathAuctionSettled")
        escrow_total = sum(event.payload["escrow_mist"] for event in placed)
        payload = settled[0].payload
        paid = sum(w["paid_mist"] for w in payload["winners"])
        refunds = sum(w["refund_mist"] for w in payload["winners"]) + sum(
            l["refund_mist"] for l in payload["losers"]
        )
        conserved = paid + refunds == escrow_total
        return conserved, len(payload["winners"])


def contention_experiment(
    topology: Topology,
    path: ForwardingPath,
    num_buyers: int = 8,
    per_buyer_kbps: int = 2000,
    link_rate_bps: float = 10_000_000.0,
    reservable_fraction: float = 0.8,
    duration: float = 1.5,
    payload_bytes: int = 1000,
    base_price_micromist: int = 50,
    seed: int = 1,
    prf_factory: PrfFactory = SIM_PRF,
    pricer=None,
    policy=None,
    shard_seconds: float | None = None,
    telemetry: ExperimentTelemetry | None = None,
) -> ContentionResult:
    """Many buyers compete for one bottleneck interface's capacity.

    Each buyer asks the bottleneck AS to admit ``1.25 * per_buyer_kbps``
    (rate plus header overhead) against a capacity calendar sized to
    ``reservable_fraction`` of the bottleneck link.  Admitted buyers get a
    full-path reservation (distinct ResIDs) and send at ``per_buyer_kbps``
    with priority protection; rejected buyers *fall back to best effort*
    and fight over whatever the reserved traffic leaves behind.  Quoted
    prices rise with utilization when a scarcity pricer is installed
    (default), so the result doubles as a price-discovery trace.

    With ``telemetry`` the run collects admission counters/histograms,
    capacity gauges, and policer residency into the harness's registry
    (``telemetry.write(...)`` dumps them for
    ``tools/report_experiment.py``).
    """
    with telemetry.activate() if telemetry is not None else contextlib.nullcontext():
        from repro.admission import AdmissionController, ScarcityPricer

        simulation = build_path_simulation(
            topology, path, link_rate_bps=link_rate_bps, prf_factory=prf_factory
        )
        crossings = as_crossings(path)
        if len(crossings) < 2:
            raise ValueError("need at least one inter-AS link for a bottleneck")
        bottleneck = crossings[1]  # ingress side of the first inter-AS link
        capacity_kbps = int(link_rate_bps / 1000 * reservable_fraction)
        controller = AdmissionController(
            capacity_kbps,
            policy=policy,
            pricer=pricer if pricer is not None else ScarcityPricer(),
            shard_seconds=shard_seconds,
        )

        start = int(simulation.clock.now())
        reserve_kbps = int(per_buyer_kbps * 1.25)  # cover wire overhead
        window_end = start + int(duration) + 60
        rng = random.Random(seed)
        sources = []
        outcomes: list[BuyerOutcome] = []
        flow_metrics: list[FlowMetrics] = []
        for index in range(num_buyers):
            buyer = f"buyer-{index}"
            quote = controller.quote(
                base_price_micromist, bottleneck.ingress, True, start, window_end
            )
            # Trace buyer-0's lifecycle end to end (admission through policer).
            trace = telemetry.trace(buyer) if telemetry and index == 0 else None
            with use_trace(trace):
                decision = controller.admit_reservation(
                    bottleneck.ingress, True, reserve_kbps, start, window_end, tag=buyer
                )
            if decision.admitted:
                reservations = simulation.grant_full_path(
                    reserve_kbps, start, int(duration) + 60, res_id=index
                )
                builder = simulation.hummingbird_source(reservations)
            else:
                builder = simulation.best_effort_source()
            metrics = simulation.sink.flow(index + 1)
            flow_metrics.append(metrics)
            source = CbrSource(
                simulation.loop,
                builder,
                simulation.entry,
                metrics,
                rate_bps=per_buyer_kbps * 1000.0,
                payload_bytes=payload_bytes,
                flow_id=index + 1,
                jitter=0.05,
                rng=rng,
            )
            sources.append(source)
            source.start(0.01 * index)  # slight stagger, arrival order = index order
            outcomes.append(
                BuyerOutcome(
                    buyer=buyer,
                    requested_kbps=reserve_kbps,
                    admitted=decision.admitted,
                    quoted_price_micromist=quote,
                    reason=decision.reason,
                    metrics={},
                )
            )

        simulation.loop.run_until(simulation.clock.now() + duration)
        for source in sources:
            source.stop()
        for outcome, metrics in zip(outcomes, flow_metrics):
            outcome.metrics = metrics.summary()

        link = simulation.links[0]
        result = ContentionResult(
            buyers=outcomes,
            capacity_kbps=capacity_kbps,
            bottleneck_utilization=link.utilization(duration),
        )
        if telemetry is not None:
            controller.record_capacity_gauges(start, window_end, owner="bottleneck-as")
            router = simulation.nodes[bottleneck.isd_as].router
            router.policer.record_gauges(str(bottleneck.isd_as))
            if telemetry.traces and telemetry.traces[0].name == "buyer-0":
                telemetry.traces[0].event(
                    "policer.verdict",
                    isd_as=str(bottleneck.isd_as),
                    ingress=bottleneck.ingress,
                    res_id=0,
                    priority_bytes=router.policer.usage_bytes(bottleneck.ingress, 0),
                )
            telemetry.annotate(
                contention={
                    "capacity_kbps": capacity_kbps,
                    "admitted": len(result.admitted),
                    "rejected": len(result.rejected),
                    "bottleneck_utilization": result.bottleneck_utilization,
                    "revenue_proxy_micromist": sum(
                        b.quoted_price_micromist for b in result.admitted
                    ),
                }
            )
        return result


@dataclass
class ReclaimBuyerOutcome:
    """One buyer of :func:`reclamation_experiment`."""

    buyer: str
    kind: str  # "honest" | "no-show" | "late"
    reserved: bool
    admitted_at: float | None
    quoted_price_micromist: int
    reason: str
    metrics: dict


@dataclass
class ReclamationArmResult:
    """One policy arm of :func:`reclamation_experiment`."""

    arm: str
    capacity_kbps: int
    buyers: list[ReclaimBuyerOutcome]
    revenue_mist: int
    reserved_goodput_bps: float
    honest_demotions: int
    reclaim_events: int
    reclaimed_kbps: int
    false_reclaims: int
    live_factor: float
    bottleneck_utilization: float

    # revenue_mist sums ceil(units * quote / 1e6) over every admission —
    # the exact MIST a posted-price sale of each admitted rectangle earns.

    @property
    def reserved_buyers(self) -> list[ReclaimBuyerOutcome]:
        return [buyer for buyer in self.buyers if buyer.reserved]


@dataclass
class ReclamationResult:
    """All arms of :func:`reclamation_experiment`, keyed by arm name."""

    arms: dict

    def arm(self, name: str) -> ReclamationArmResult:
        return self.arms[name]


def reclamation_experiment(
    topology: Topology,
    path: ForwardingPath,
    num_buyers: int = 8,
    num_no_shows: int = 4,
    num_late: int = 4,
    per_buyer_kbps: int = 1000,
    link_rate_bps: float = 10_000_000.0,
    reservable_fraction: float = 1.0,
    duration: float = 3.0,
    payload_bytes: int = 1000,
    base_price_micromist: int = 50,
    static_factor: float = 1.25,
    max_factor: float = 3.0,
    grace_seconds: float = 0.4,
    scan_interval: float = 0.25,
    no_show_threshold: float = 0.5,
    seed: int = 1,
    prf_factory: PrfFactory = SIM_PRF,
    pricer=None,
) -> ReclamationResult:
    """The closed control loop vs an open one, on an overbooked bottleneck.

    Three arms share one scenario: ``num_buyers`` early buyers reserve the
    whole bottleneck, but ``num_no_shows`` of them never send a packet;
    ``num_late`` more buyers arrive wanting the same window.

    * ``"none"`` — no overbooking: the no-shows' bandwidth stays parked,
      late buyers are rejected to best effort.
    * ``"static"`` — a fixed overbooking factor admits some late buyers up
      front, but nothing ever reclaims the no-shows.
    * ``"adaptive"`` — :class:`~repro.reclaim.AdaptiveOverbooking` plus a
      policer-fed :class:`~repro.reclaim.ReclamationEngine`: no-shows are
      detected from observed usage, their calendar bandwidth is reclaimed
      and demoted at the policer, the freed capacity admits the waiting
      buyers mid-run, and the overbooking factor converges on the
      observed show-up rate.

    The closed loop must dominate: at least the revenue and at least the
    reserved-traffic goodput of both open arms, with zero policer
    demotions of honest traffic (``tests/netsim/test_reclamation.py``
    asserts all three).
    """
    from repro.admission.policy import FirstComeFirstServed, OverbookingPolicy
    from repro.reclaim import AdaptiveOverbooking

    if num_no_shows > num_buyers:
        raise ValueError("cannot have more no-shows than buyers")
    arms = {}
    for arm, policy, reclaim in (
        ("none", FirstComeFirstServed(), False),
        ("static", OverbookingPolicy(static_factor), False),
        (
            "adaptive",
            AdaptiveOverbooking(initial_factor=1.0, max_factor=max_factor),
            True,
        ),
    ):
        arms[arm] = _reclamation_arm(
            arm, policy, reclaim, topology, path, num_buyers, num_no_shows,
            num_late, per_buyer_kbps, link_rate_bps, reservable_fraction,
            duration, payload_bytes, base_price_micromist, grace_seconds,
            scan_interval, no_show_threshold, seed, prf_factory, pricer,
        )
    return ReclamationResult(arms=arms)


def _reclamation_arm(
    arm: str,
    policy,
    reclaim: bool,
    topology: Topology,
    path: ForwardingPath,
    num_buyers: int,
    num_no_shows: int,
    num_late: int,
    per_buyer_kbps: int,
    link_rate_bps: float,
    reservable_fraction: float,
    duration: float,
    payload_bytes: int,
    base_price_micromist: int,
    grace_seconds: float,
    scan_interval: float,
    no_show_threshold: float,
    seed: int,
    prf_factory: PrfFactory,
    pricer,
) -> ReclamationArmResult:
    from repro.admission import ACTIVE, AdmissionController
    from repro.reclaim import ReclamationEngine, UsageReporter

    simulation = build_path_simulation(
        topology, path, link_rate_bps=link_rate_bps, prf_factory=prf_factory
    )
    crossings = as_crossings(path)
    if len(crossings) < 2:
        raise ValueError("need at least one inter-AS link for a bottleneck")
    bottleneck = crossings[1]
    router = simulation.nodes[bottleneck.isd_as].router
    capacity_kbps = int(link_rate_bps / 1000 * reservable_fraction)
    # The default flat pricer keeps revenue proportional to volume sold,
    # so the arm comparison measures reclamation, not price spikes.
    controller = AdmissionController(capacity_kbps, policy=policy, pricer=pricer)
    engine = None
    if reclaim:
        engine = ReclamationEngine(
            controller,
            UsageReporter(router.policer.usage_snapshot, interval=scan_interval / 2),
            grace_seconds=grace_seconds,
            no_show_threshold=no_show_threshold,
            demote=router.policer.set_limit,
        )

    start = int(simulation.clock.now())
    reserve_kbps = int(per_buyer_kbps * 1.25)  # cover wire overhead
    window_end = start + int(duration) + 60
    rng = random.Random(seed)
    sources = []
    outcomes: list[ReclaimBuyerOutcome] = []
    flow_metrics: dict[str, FlowMetrics] = {}
    revenue = 0

    def admit(index: int, buyer: str, kind: str, now: float):
        """One admission attempt; on success the buyer sends with priority."""
        nonlocal revenue
        quote = controller.quote(
            base_price_micromist, bottleneck.ingress, True, int(now), window_end
        )
        decision = controller.admit_reservation(
            bottleneck.ingress, True, reserve_kbps, int(now), window_end, tag=buyer
        )
        if not decision.admitted:
            return None, quote, decision.reason
        units = reserve_kbps * (window_end - int(now))
        revenue += -(-units * quote // 1_000_000)  # ceil, as the contract prices
        if engine is not None:
            engine.track(
                index,
                bottleneck.ingress,
                reserve_kbps,
                now,
                start + duration,
                [(bottleneck.ingress, True, decision.commitment.commitment_id)],
                tag=buyer,
            )
        if kind != "no-show":
            reservations = simulation.grant_full_path(
                reserve_kbps, int(now), window_end - int(now), res_id=index
            )
            metrics = simulation.sink.flow(index + 1)
            flow_metrics[buyer] = metrics
            source = CbrSource(
                simulation.loop,
                builder := simulation.hummingbird_source(reservations),
                simulation.entry,
                metrics,
                rate_bps=per_buyer_kbps * 1000.0,
                payload_bytes=payload_bytes,
                flow_id=index + 1,
                jitter=0.05,
                rng=rng,
            )
            sources.append(source)
            source.start(0.005 * index)
        return decision, quote, decision.reason

    # Early buyers: the first num_no_shows never send a packet.
    for index in range(num_buyers):
        kind = "no-show" if index < num_no_shows else "honest"
        buyer = f"{kind}-{index}"
        decision, quote, reason = admit(index, buyer, kind, simulation.clock.now())
        outcomes.append(
            ReclaimBuyerOutcome(
                buyer=buyer,
                kind=kind,
                reserved=decision is not None,
                admitted_at=simulation.clock.now() if decision else None,
                quoted_price_micromist=quote,
                reason=reason,
                metrics={},
            )
        )

    # Late buyers: admitted now if the policy has room, retried at every
    # scan otherwise; a buyer still waiting at the end falls back to best
    # effort for the whole run (accounted as unreserved).
    waiting: list[tuple[int, ReclaimBuyerOutcome]] = []
    for offset in range(num_late):
        index = num_buyers + offset
        buyer = f"late-{index}"
        decision, quote, reason = admit(index, buyer, "late", simulation.clock.now())
        outcome = ReclaimBuyerOutcome(
            buyer=buyer,
            kind="late",
            reserved=decision is not None,
            admitted_at=simulation.clock.now() if decision else None,
            quoted_price_micromist=quote,
            reason=reason,
            metrics={},
        )
        outcomes.append(outcome)
        if decision is None:
            waiting.append((index, outcome))

    end_time = simulation.clock.now() + duration
    next_scan = simulation.clock.now() + scan_interval
    while simulation.clock.now() < end_time:
        simulation.loop.run_until(min(next_scan, end_time))
        next_scan += scan_interval
        now = simulation.clock.now()
        if engine is not None:
            engine.scan(now)
        if now >= end_time:
            break
        still_waiting = []
        for index, outcome in waiting:
            decision, quote, reason = admit(index, outcome.buyer, "late", now)
            if decision is not None:
                outcome.reserved = True
                outcome.admitted_at = now
                outcome.quoted_price_micromist = quote
                outcome.reason = reason
            else:
                still_waiting.append((index, outcome))
        waiting = still_waiting
    for source in sources:
        source.stop()

    for outcome in outcomes:
        metrics = flow_metrics.get(outcome.buyer)
        outcome.metrics = metrics.summary() if metrics is not None else {}
    reserved_goodput = sum(
        flow_metrics[outcome.buyer].goodput_bps(duration)
        for outcome in outcomes
        if outcome.reserved and outcome.buyer in flow_metrics
    )
    honest_demotions = (
        router.stats.demoted_overuse
        + router.stats.demoted_inactive
        + router.stats.demoted_stale
    )
    link = simulation.links[0]
    result = ReclamationArmResult(
        arm=arm,
        capacity_kbps=capacity_kbps,
        buyers=outcomes,
        revenue_mist=revenue,
        reserved_goodput_bps=reserved_goodput,
        honest_demotions=honest_demotions,
        reclaim_events=len(engine.events) if engine is not None else 0,
        reclaimed_kbps=sum(e.freed_kbps for e in engine.events) if engine else 0,
        false_reclaims=engine.false_reclaims if engine is not None else 0,
        live_factor=policy.limit_factor(
            controller.calendar(bottleneck.ingress, True, ACTIVE)
        )
        if hasattr(policy, "limit_factor")
        else 1.0,
        bottleneck_utilization=link.utilization(duration),
    )
    return result
