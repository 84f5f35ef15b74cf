"""AS-side control-plane service ("Hummingbird Service", §3.2 AS stack).

Responsibilities:

* register the AS with the asset contract (CP-PKI certificate + proof of
  possession);
* issue bandwidth assets for the AS's interfaces and list them on a
  marketplace;
* watch the event stream for redeem requests addressed to this AS;
* for each request: assign a ResID (online First-Fit interval colouring
  per ingress interface), derive the reservation key :math:`A_K` from the
  AS-local secret value, seal ``(ResInfo, A_K)`` under the redeemer's
  ephemeral public key, and deliver it through the asset contract (a
  fast-path transaction — only owned objects are touched).

Every issuance and every delivery first passes the AS's
:class:`~repro.admission.AdmissionController`: the *issued* capacity
calendar stops the AS from overselling an interface across overlapping
asset windows, the *active* calendar accounts delivered reservations, and
the controller's pricer turns utilization into the scarcity-adjusted
listing price.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from repro.admission import ACTIVE, AUCTION, AdmissionController, AdmissionRejected
from repro.admission.auction import Bid, ClearingOutcome, WindowAuction
from repro.contracts.asset import REQUEST_TYPE
from repro.crypto.prf import DEFAULT_PRF_FACTORY, PrfFactory
from repro.crypto.sealing import seal
from repro.hummingbird.reservation import ResInfo, grant_reservation
from repro.hummingbird.resid import CapacityExhausted, ResIdAllocator
from repro.ledger.accounts import Account
from repro.ledger.executor import LedgerExecutor, SubmittedTransaction
from repro.ledger.transactions import Command, Result, Transaction
from repro.scion.topology import AutonomousSystem
from repro.telemetry import get_registry
from repro.telemetry.tracing import current_trace
from repro.wire import bwcls

DEFAULT_GRANULARITY = 60  # seconds: minimum reservation duration an AS supports
DEFAULT_MIN_BANDWIDTH = 100  # kbps: VoIP-sized minimum reservation (§4.4)
DEFAULT_RESID_CAPACITY = 100_000
DEFAULT_INTERFACE_CAPACITY_KBPS = 10_000_000  # 10 Gbps per interface direction


@dataclass
class DeliveryRecord:
    """Bookkeeping for one handled redeem request."""

    request_id: str
    delivery_id: str
    res_id: int
    submitted: SubmittedTransaction


@dataclass
class OpenAuctionRecord:
    """One on-chain auction this AS opened and has not yet settled."""

    auction_id: str
    marketplace: str
    interface: int
    is_ingress: bool
    bandwidth_kbps: int
    start: int
    expiry: int
    reserve_micromist_per_unit: int
    commitment: object  # the issued-calendar claim backing the asset


@dataclass
class SettlementRecord:
    """One settled auction: the on-chain result plus the transaction."""

    auction_id: str
    clearing_price_micromist: int
    awarded_kbps: int
    proceeds_mist: int
    supply_kbps: int
    listing: str | None
    winners: list[dict]
    submitted: SubmittedTransaction


@dataclass
class PathLegRecord:
    """One leg this AS contributed to a combinatorial path auction."""

    path_auction: str
    marketplace: str
    leg_index: int
    interface: int
    is_ingress: bool
    bandwidth_kbps: int
    start: int
    expiry: int
    reserve_micromist_per_unit: int
    commitment: object  # the issued-calendar claim backing the leg asset


@dataclass
class PathSettlementRecord:
    """One settled path auction: the on-chain result plus the transaction."""

    path_auction: str
    clearing_prices_micromist: list[int]
    proceeds_mist: int
    supplies_kbps: list[int]
    winners: list[dict]
    legs: list[dict]
    submitted: SubmittedTransaction


class AsService:
    """The per-AS control-plane daemon."""

    def __init__(
        self,
        autonomous_system: AutonomousSystem,
        account: Account,
        executor: LedgerExecutor,
        pki,
        rng: random.Random | None = None,
        prf_factory: PrfFactory = DEFAULT_PRF_FACTORY,
        resid_capacity: int = DEFAULT_RESID_CAPACITY,
        admission: AdmissionController | None = None,
        interface_capacity_kbps: int = DEFAULT_INTERFACE_CAPACITY_KBPS,
        shard_seconds: float | None = None,
    ) -> None:
        self.autonomous_system = autonomous_system
        self.account = account
        self.executor = executor
        self.pki = pki
        self.rng = rng if rng is not None else random.Random(autonomous_system.isd_as.asn)
        self.prf_factory = prf_factory
        self.token_id: str | None = None
        self.seller_cap: str | None = None
        self._allocators: dict[int, ResIdAllocator] = {}
        self._resid_capacity = resid_capacity
        self._last_checkpoint = 0
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(interface_capacity_kbps, shard_seconds=shard_seconds)
        )
        # (request_id, reason) pairs this AS declined to serve.
        self.undeliverable: list[tuple[str, str]] = []
        # Sealed-bid auctions: open books, settled results, bid-event cursor.
        self.open_auctions: dict[str, OpenAuctionRecord] = {}
        self.settlements: list[SettlementRecord] = []
        self._bid_checkpoint = 0
        # Combinatorial path auctions: legs this AS contributed, by
        # (path auction id, leg index), plus settled results.
        self.path_legs: dict[tuple[str, int], PathLegRecord] = {}
        self.path_settlements: list[PathSettlementRecord] = []
        # No-show reclamation (armed by enable_reclamation).
        self.reclamation = None
        self._relist_marketplace: str | None = None
        self._relist_base_micromist: int | None = None
        self._relist_granularity = DEFAULT_GRANULARITY
        self._relist_min_bandwidth = DEFAULT_MIN_BANDWIDTH
        # (event, listing id or None, reason) per reclaimed reservation.
        self.relisted: list[tuple[object, str | None, str]] = []
        registry = get_registry()
        self._telemetry = registry.enabled
        self._m_deliveries = registry.counter(
            "as_deliveries_total",
            "Redeem requests handled, by outcome.",
            ("isd_as", "outcome"),
        )
        self._m_settlements = registry.counter(
            "as_auction_settlements_total",
            "Auction settlements, by whether any bandwidth was awarded.",
            ("isd_as", "outcome"),
        )
        self._m_proceeds = registry.counter(
            "as_auction_proceeds_mist_total",
            "MIST proceeds across settled auctions.",
            ("isd_as",),
        )
        self._m_awarded = registry.counter(
            "as_auction_awarded_kbps_total",
            "Bandwidth awarded to auction winners, in kbps.",
            ("isd_as",),
        )
        self._m_path_legs = registry.counter(
            "as_path_legs_total",
            "Legs this AS contributed to combinatorial path auctions.",
            ("isd_as",),
        )
        self._m_path_settlements = registry.counter(
            "as_path_settlements_total",
            "Path auction settlements, by whether any path bid won.",
            ("isd_as", "outcome"),
        )

    @property
    def isd_as(self):
        return self.autonomous_system.isd_as

    # -- registration -----------------------------------------------------------

    def register(self) -> SubmittedTransaction:
        """Obtain the authorization token (Fig. 2 prerequisite)."""
        certificate = self.pki.issue_certificate(self.isd_as, self.account.signing_key.public)
        proof = self.account.signing_key.sign(self.account.address.encode(), self.rng)
        submitted = self.executor.submit(
            Transaction(
                sender=self.account.address,
                commands=[
                    Command(
                        "asset",
                        "register_as",
                        {
                            "certificate": certificate,
                            "commitment": proof.commitment,
                            "response": proof.response,
                        },
                    )
                ],
            )
        )
        if submitted.effects.ok:
            self.token_id = submitted.effects.returns[0]["token"]
        return submitted

    def register_as_seller(self, marketplace: str) -> SubmittedTransaction:
        submitted = self.executor.submit(
            Transaction(
                sender=self.account.address,
                commands=[
                    Command("market", "register_seller", {"marketplace": marketplace})
                ],
            )
        )
        if submitted.effects.ok:
            self.seller_cap = submitted.effects.returns[0]["cap"]
        return submitted

    # -- issuance ---------------------------------------------------------------

    def issue_and_list(
        self,
        marketplace: str,
        interface: int,
        is_ingress: bool,
        bandwidth_kbps: int,
        start: int,
        expiry: int,
        price_micromist_per_unit: int,
        granularity: int = DEFAULT_GRANULARITY,
        min_bandwidth_kbps: int = DEFAULT_MIN_BANDWIDTH,
    ) -> SubmittedTransaction:
        """Issue one large asset and put it on the market (Fig. 2, steps 2-3).

        The asset must first clear the *issued* capacity calendar for its
        interface direction (no overselling across overlapping windows);
        the listing price is the caller's base price scaled by the
        interface's scarcity multiplier at issuance time.
        """
        if self.token_id is None:
            raise RuntimeError("AS must register before issuing assets")
        quoted_price = self.admission.quote(
            price_micromist_per_unit, interface, is_ingress, start, expiry
        )
        decision = self.admission.admit_issue(
            interface,
            is_ingress,
            bandwidth_kbps,
            start,
            expiry,
            tag=f"issue:{self.isd_as}",
        )
        if not decision.admitted:
            raise AdmissionRejected(
                f"{self.isd_as} interface {interface} "
                f"({'ingress' if is_ingress else 'egress'}): {decision.reason}"
            )
        submitted = self.executor.submit(
            Transaction(
                sender=self.account.address,
                commands=[
                    Command(
                        "asset",
                        "issue",
                        {
                            "token": self.token_id,
                            "bandwidth_kbps": bandwidth_kbps,
                            "start": start,
                            "expiry": expiry,
                            "interface": interface,
                            "is_ingress": is_ingress,
                            "granularity": granularity,
                            "min_bandwidth_kbps": min_bandwidth_kbps,
                        },
                    ),
                    Command(
                        "market",
                        "create_listing",
                        {
                            "marketplace": marketplace,
                            "asset": Result(0, "asset"),
                            "price_micromist_per_unit": quoted_price,
                        },
                    ),
                ],
            )
        )
        if not submitted.effects.ok:
            # The ledger refused the asset: hand its capacity back.
            self.admission.release(interface, is_ingress, decision.commitment)
        return submitted

    def cancel_listing(self, marketplace: str, listing: str) -> SubmittedTransaction:
        """Take one of this AS's unsold listings off the market.

        The asset returns to the AS's account; the contract emits
        ``Delisted`` so off-chain indexes drop the listing incrementally.
        Issued-calendar capacity stays committed — the asset still exists
        and can be relisted.
        """
        return self.executor.submit(
            Transaction(
                sender=self.account.address,
                commands=[
                    Command(
                        "market",
                        "cancel_listing",
                        {"marketplace": marketplace, "listing": listing},
                    )
                ],
            )
        )

    # -- auctions -----------------------------------------------------------------

    def offer_capacity(
        self,
        marketplace: str,
        interface: int,
        is_ingress: bool,
        bandwidth_kbps: int,
        start: int,
        expiry: int,
        base_price_micromist: int,
        granularity: int = DEFAULT_GRANULARITY,
        min_bandwidth_kbps: int = DEFAULT_MIN_BANDWIDTH,
    ) -> SubmittedTransaction:
        """Put capacity on the market the way this interface is configured.

        Dispatches on the admission controller's per-interface allocation
        mode: auction-mode interfaces open a sealed-bid auction for the
        window (:meth:`open_auction`), posted-mode interfaces list at the
        scarcity-adjusted quote (:meth:`issue_and_list`).  Either way the
        issued capacity calendar is claimed first, so the two modes share
        one oversell guarantee.
        """
        if self.admission.allocation_mode(interface, is_ingress) == AUCTION:
            return self.open_auction(
                marketplace,
                interface,
                is_ingress,
                bandwidth_kbps,
                start,
                expiry,
                base_price_micromist,
                granularity,
                min_bandwidth_kbps,
            )
        return self.issue_and_list(
            marketplace,
            interface,
            is_ingress,
            bandwidth_kbps,
            start,
            expiry,
            base_price_micromist,
            granularity,
            min_bandwidth_kbps,
        )

    def open_auction(
        self,
        marketplace: str,
        interface: int,
        is_ingress: bool,
        bandwidth_kbps: int,
        start: int,
        expiry: int,
        reserve_base_micromist: int,
        granularity: int = DEFAULT_GRANULARITY,
        min_bandwidth_kbps: int = DEFAULT_MIN_BANDWIDTH,
    ) -> SubmittedTransaction:
        """Issue an asset and open a sealed-bid auction for its window.

        Like :meth:`issue_and_list`, the asset must first clear the
        *issued* capacity calendar.  The auction's reserve price is the
        scarcity-adjusted quote over ``reserve_base_micromist`` (computed
        *before* the asset claims the calendar, like a listing's price),
        and the per-bidder share cap comes from the controller's
        proportional-share policy when one is installed.

        Raises:
            RuntimeError: the AS has not registered.
            ValueError: the interface direction is not in auction mode.
            AdmissionRejected: the window would oversell the interface.
        """
        if self.token_id is None:
            raise RuntimeError("AS must register before issuing assets")
        # Registers the book (and quotes the reserve) before the issued
        # calendar is touched, so the reserve reflects pre-auction scarcity.
        book = self.admission.open_auction(
            interface,
            is_ingress,
            bandwidth_kbps,
            start,
            expiry,
            reserve_base_micromist,
            min_fragment_kbps=min_bandwidth_kbps,
        )
        decision = self.admission.admit_issue(
            interface,
            is_ingress,
            bandwidth_kbps,
            start,
            expiry,
            tag=f"auction:{self.isd_as}",
        )
        if not decision.admitted:
            self.admission.close_auction(interface, is_ingress, start, expiry)
            raise AdmissionRejected(
                f"{self.isd_as} interface {interface} "
                f"({'ingress' if is_ingress else 'egress'}): {decision.reason}"
            )
        submitted = self.executor.submit(
            Transaction(
                sender=self.account.address,
                commands=[
                    Command(
                        "asset",
                        "issue",
                        {
                            "token": self.token_id,
                            "bandwidth_kbps": bandwidth_kbps,
                            "start": start,
                            "expiry": expiry,
                            "interface": interface,
                            "is_ingress": is_ingress,
                            "granularity": granularity,
                            "min_bandwidth_kbps": min_bandwidth_kbps,
                        },
                    ),
                    Command(
                        "market",
                        "create_auction",
                        {
                            "marketplace": marketplace,
                            "asset": Result(0, "asset"),
                            "reserve_micromist_per_unit": book.reserve_micromist,
                            "share_cap_kbps": book.share_cap_kbps,
                        },
                    ),
                ],
            )
        )
        if not submitted.effects.ok:
            # The ledger refused: hand back the capacity and drop the book.
            self.admission.release(interface, is_ingress, decision.commitment)
            self.admission.close_auction(interface, is_ingress, start, expiry)
            return submitted
        auction_id = submitted.effects.returns[1]["auction"]
        self.open_auctions[auction_id] = OpenAuctionRecord(
            auction_id=auction_id,
            marketplace=marketplace,
            interface=interface,
            is_ingress=is_ingress,
            bandwidth_kbps=bandwidth_kbps,
            start=start,
            expiry=expiry,
            reserve_micromist_per_unit=book.reserve_micromist,
            commitment=decision.commitment,
        )
        return submitted

    def poll_bids(self) -> int:
        """Mirror new on-chain ``BidPlaced`` events into the local books.

        The ledger's escrowed bid objects are authoritative; the admission
        layer keeps an identical :class:`WindowAuction` book per open
        auction so supply checks and settlement previews never touch the
        object store.  Returns how many bids were mirrored.
        """
        ledger = self.executor.ledger
        events = ledger.events_since(self._bid_checkpoint, "BidPlaced")
        self._bid_checkpoint = ledger.checkpoint
        mirrored = 0
        for event in events:
            record = self.open_auctions.get(event.payload["auction"])
            if record is None:
                continue
            book = self.admission.auction_for(
                record.interface, record.is_ingress, record.start, record.expiry
            )
            if book is None:
                continue
            book.bids.append(
                Bid(
                    bidder=event.payload["bidder"],
                    bandwidth_kbps=event.payload["bandwidth_kbps"],
                    price_micromist_per_unit=event.payload[
                        "price_micromist_per_unit"
                    ],
                    seq=event.payload["seq"],
                )
            )
            mirrored += 1
        return mirrored

    def preview_settlement(self, auction_id: str) -> ClearingOutcome:
        """What settling this auction *right now* would decide.

        Runs the exact clearing function the contract will run, against
        the mirrored book and the current supply (offered bandwidth
        clamped by live active-calendar headroom).  Because clearing is
        deterministic, the preview equals the on-chain outcome unless new
        bids land in between.

        Raises:
            KeyError: unknown or already-settled auction.
        """
        record = self.open_auctions[auction_id]
        self.poll_bids()
        book = self.admission.auction_for(
            record.interface, record.is_ingress, record.start, record.expiry
        )
        supply = self.admission.settle_supply(
            record.interface,
            record.is_ingress,
            record.start,
            record.expiry,
            record.bandwidth_kbps,
        )
        return book.clear(supply)

    def settle_due_auctions(self, now: float | None = None) -> list[SettlementRecord]:
        """Settle every open auction whose window has started.

        The periodic housekeeping entry point: call it at (or after) each
        window boundary.  For each due auction the supply is clamped by
        :meth:`~repro.admission.AdmissionController.settle_supply` — a
        window that lost active-calendar headroom since the auction opened
        sells less than was offered — and the settle transaction clears,
        pays, and refunds atomically on-chain.

        Returns:
            A :class:`SettlementRecord` per settled auction.

        Raises:
            RuntimeError: the ledger refused a settle transaction.
        """
        when = now if now is not None else self.executor.clock.now()
        self.poll_bids()
        settled: list[SettlementRecord] = []
        for auction_id, record in list(self.open_auctions.items()):
            if record.start > when:
                continue
            supply = self.admission.settle_supply(
                record.interface,
                record.is_ingress,
                record.start,
                record.expiry,
                record.bandwidth_kbps,
            )
            submitted = self.executor.submit(
                Transaction(
                    sender=self.account.address,
                    commands=[
                        Command(
                            "market",
                            "settle_auction",
                            {
                                "marketplace": record.marketplace,
                                "auction": auction_id,
                                "supply_kbps": supply,
                            },
                        )
                    ],
                )
            )
            if not submitted.effects.ok:
                raise RuntimeError(
                    f"settle of auction {auction_id[:8]}... failed: "
                    f"{submitted.effects.error}"
                )
            result = submitted.effects.returns[0]
            self.admission.close_auction(
                record.interface, record.is_ingress, record.start, record.expiry
            )
            del self.open_auctions[auction_id]
            outcome = SettlementRecord(
                auction_id=auction_id,
                clearing_price_micromist=result["clearing_price_micromist"],
                awarded_kbps=result["awarded_kbps"],
                proceeds_mist=result["proceeds_mist"],
                supply_kbps=supply,
                listing=result["listing"],
                winners=result["winners"],
                submitted=submitted,
            )
            self.settlements.append(outcome)
            settled.append(outcome)
            if self._telemetry:
                key = str(self.isd_as)
                self._m_settlements.labels(
                    key, "cleared" if outcome.awarded_kbps > 0 else "unsold"
                ).inc()
                self._m_proceeds.labels(key).inc(outcome.proceeds_mist)
                self._m_awarded.labels(key).inc(outcome.awarded_kbps)
            trace = current_trace()
            if trace is not None:
                trace.event(
                    "auction.settle",
                    auction=auction_id,
                    clearing_price_micromist=outcome.clearing_price_micromist,
                    awarded_kbps=outcome.awarded_kbps,
                    supply_kbps=supply,
                    winners=len(outcome.winners),
                )
        return settled

    # -- combinatorial path auctions ------------------------------------------------

    def open_path_auction(self, marketplace: str, num_legs: int) -> SubmittedTransaction:
        """Open the shell of a combinatorial path auction (creator role).

        The creator only declares the leg count; each on-path AS then
        contributes its own legs via :meth:`contribute_path_leg` — a path
        over N AS crossings has ``2 * N`` legs (ingress and egress per
        crossing).  Bidding opens once the last leg lands.
        """
        return self.executor.submit(
            Transaction(
                sender=self.account.address,
                commands=[
                    Command(
                        "market",
                        "create_path_auction",
                        {"marketplace": marketplace, "num_legs": num_legs},
                    )
                ],
            )
        )

    def contribute_path_leg(
        self,
        marketplace: str,
        path_auction: str,
        leg_index: int,
        interface: int,
        is_ingress: bool,
        bandwidth_kbps: int,
        start: int,
        expiry: int,
        base_price_micromist: int,
        granularity: int = DEFAULT_GRANULARITY,
        min_bandwidth_kbps: int = DEFAULT_MIN_BANDWIDTH,
    ) -> SubmittedTransaction:
        """Issue this AS's leg asset and place it in the path auction.

        Like every issuance, the leg must first clear the *issued*
        capacity calendar; the leg's reserve price is the
        scarcity-adjusted quote over ``base_price_micromist`` and the
        per-bidder share cap comes from the controller's
        proportional-share policy when one is installed.  A ledger
        refusal hands the calendar claim straight back.

        Raises:
            RuntimeError: the AS has not registered.
            AdmissionRejected: the window would oversell the interface.
        """
        if self.token_id is None:
            raise RuntimeError("AS must register before issuing assets")
        reserve = self.admission.quote(
            base_price_micromist, interface, is_ingress, start, expiry
        )
        decision = self.admission.admit_issue(
            interface,
            is_ingress,
            bandwidth_kbps,
            start,
            expiry,
            tag=f"pathleg:{self.isd_as}",
        )
        if not decision.admitted:
            raise AdmissionRejected(
                f"{self.isd_as} interface {interface} "
                f"({'ingress' if is_ingress else 'egress'}): {decision.reason}"
            )
        submitted = self.executor.submit(
            Transaction(
                sender=self.account.address,
                commands=[
                    Command(
                        "asset",
                        "issue",
                        {
                            "token": self.token_id,
                            "bandwidth_kbps": bandwidth_kbps,
                            "start": start,
                            "expiry": expiry,
                            "interface": interface,
                            "is_ingress": is_ingress,
                            "granularity": granularity,
                            "min_bandwidth_kbps": min_bandwidth_kbps,
                        },
                    ),
                    Command(
                        "market",
                        "contribute_path_leg",
                        {
                            "marketplace": marketplace,
                            "path_auction": path_auction,
                            "leg_index": leg_index,
                            "asset": Result(0, "asset"),
                            "reserve_micromist_per_unit": reserve,
                            "share_cap_kbps": self.admission.share_cap_kbps(
                                interface, is_ingress
                            ),
                        },
                    ),
                ],
            )
        )
        if not submitted.effects.ok:
            # The ledger refused the leg: hand its capacity back.
            self.admission.release(interface, is_ingress, decision.commitment)
            return submitted
        self.path_legs[(path_auction, leg_index)] = PathLegRecord(
            path_auction=path_auction,
            marketplace=marketplace,
            leg_index=leg_index,
            interface=interface,
            is_ingress=is_ingress,
            bandwidth_kbps=bandwidth_kbps,
            start=start,
            expiry=expiry,
            reserve_micromist_per_unit=reserve,
            commitment=decision.commitment,
        )
        if self._telemetry:
            self._m_path_legs.labels(str(self.isd_as)).inc()
        return submitted

    def path_leg_supply(self, path_auction: str, leg_index: int) -> int:
        """This AS's live sellable bandwidth on one contributed leg.

        The offered leg bandwidth clamped by the interface direction's
        current active-calendar headroom — the same
        :meth:`~repro.admission.AdmissionController.settle_supply` rule
        single-window auctions settle under.

        Raises:
            KeyError: this AS never contributed that leg.
        """
        record = self.path_legs[(path_auction, leg_index)]
        return self.admission.settle_supply(
            record.interface,
            record.is_ingress,
            record.start,
            record.expiry,
            record.bandwidth_kbps,
        )

    def settle_path_auction(
        self,
        marketplace: str,
        path_auction: str,
        supplies_kbps: list[int] | None = None,
    ) -> PathSettlementRecord:
        """Submit the all-or-nothing settle transaction for a path auction.

        ``supplies_kbps`` carries every leg's live supply (collected from
        each on-path AS via :meth:`path_leg_supply`); ``None`` settles at
        the full contributed bandwidths.  Clears, awards, refunds, pays
        every leg seller, and relists remainders atomically on-chain.

        Raises:
            RuntimeError: the ledger refused the settle transaction.
        """
        submitted = self.executor.submit(
            Transaction(
                sender=self.account.address,
                commands=[
                    Command(
                        "market",
                        "settle_path_auction",
                        {
                            "marketplace": marketplace,
                            "path_auction": path_auction,
                            "supplies_kbps": supplies_kbps,
                        },
                    )
                ],
            )
        )
        if not submitted.effects.ok:
            raise RuntimeError(
                f"settle of path auction {path_auction[:8]}... failed: "
                f"{submitted.effects.error}"
            )
        result = submitted.effects.returns[0]
        record = PathSettlementRecord(
            path_auction=path_auction,
            clearing_prices_micromist=result["clearing_prices_micromist"],
            proceeds_mist=result["proceeds_mist"],
            supplies_kbps=result["supplies_kbps"],
            winners=result["winners"],
            legs=result["legs"],
            submitted=submitted,
        )
        self.path_settlements.append(record)
        self.path_legs = {
            key: leg
            for key, leg in self.path_legs.items()
            if key[0] != path_auction
        }
        if self._telemetry:
            self._m_path_settlements.labels(
                str(self.isd_as), "cleared" if result["winners"] else "unsold"
            ).inc()
        trace = current_trace()
        if trace is not None:
            trace.event(
                "path_auction.settle",
                path_auction=path_auction,
                num_legs=len(result["legs"]),
                winners=len(result["winners"]),
                proceeds_mist=result["proceeds_mist"],
                clearing_prices_micromist=result["clearing_prices_micromist"],
            )
        return record

    # -- redemption handling -------------------------------------------------------

    def poll_and_deliver(self) -> list[DeliveryRecord]:
        """Handle all pending redeem requests addressed to this AS (steps 6-8).

        Requests the AS *cannot* serve — admission rejected, ResID space
        exhausted, or the delivery transaction refused by the ledger — are
        skipped (recorded in :attr:`undeliverable`) rather than aborting the
        poll: the event checkpoint has already advanced, so raising here
        would silently orphan every later request in the same batch.
        """
        ledger = self.executor.ledger
        events = ledger.events_since(self._last_checkpoint, "RedeemRequested")
        self._last_checkpoint = ledger.checkpoint
        records: list[DeliveryRecord] = []
        for event in events:
            if (event.payload["isd"], event.payload["asn"]) != (
                self.isd_as.isd,
                self.isd_as.asn,
            ):
                continue
            request_id = event.payload["request"]
            if request_id not in ledger.objects:
                continue  # already delivered
            try:
                records.append(self._deliver(ledger.get_object(request_id)))
            except RuntimeError as reason:
                # AdmissionRejected and CapacityExhausted are RuntimeErrors
                # too; _deliver rolled its claims back before raising.
                self.undeliverable.append((request_id, str(reason)))
                if self._telemetry:
                    self._m_deliveries.labels(
                        str(self.isd_as), "undeliverable"
                    ).inc()
        return records

    def _deliver(self, request) -> DeliveryRecord:
        payload = request.payload
        ingress_if = payload["ingress"]["interface"]
        egress_if = payload["egress"]["interface"]
        start = payload["ingress"]["start"]
        expiry = payload["ingress"]["expiry"]
        bandwidth_kbps = payload["ingress"]["bandwidth_kbps"]
        bw_cls = bwcls.encode_floor(bandwidth_kbps)
        redeemer = payload.get("redeemer", "")
        # Delivered reservations claim live capacity on both crossed
        # interfaces (the active calendar is the physical backstop — the
        # redeemed assets already cleared the issued one).
        admissions = []
        for interface, is_ingress in ((ingress_if, True), (egress_if, False)):
            decision = self.admission.admit_reservation(
                interface, is_ingress, bandwidth_kbps, start, expiry, tag=redeemer
            )
            if not decision.admitted:
                self._rollback_admissions(admissions)
                raise AdmissionRejected(
                    f"{self.isd_as} interface {interface} "
                    f"({'ingress' if is_ingress else 'egress'}): {decision.reason}"
                )
            admissions.append((interface, is_ingress, decision))
        try:
            res_id = self._allocator(ingress_if).allocate(start, expiry)
        except CapacityExhausted:
            self._rollback_admissions(admissions)
            raise
        resinfo = ResInfo(
            ingress=ingress_if,
            egress=egress_if,
            res_id=res_id,
            bw_cls=bw_cls,
            start=start,
            duration=expiry - start,
        )
        reservation = grant_reservation(
            self.isd_as,
            self.autonomous_system.secret_value,
            resinfo,
            self.prf_factory,
        )
        plaintext = json.dumps(
            {
                "isd": self.isd_as.isd,
                "asn": self.isd_as.asn,
                "ingress": resinfo.ingress,
                "egress": resinfo.egress,
                "res_id": resinfo.res_id,
                "bw_cls": resinfo.bw_cls,
                "start": resinfo.start,
                "duration": resinfo.duration,
                "auth_key": reservation.auth_key.hex(),
            }
        ).encode()
        recipient_public = int.from_bytes(payload["public_key"], "big")
        box = seal(recipient_public, plaintext, self.rng)
        submitted = self.executor.submit(
            Transaction(
                sender=self.account.address,
                commands=[
                    Command(
                        "asset",
                        "deliver_reservation",
                        {
                            "request": request.object_id,
                            "kem_share": box.kem_share.to_bytes(256, "big"),
                            "ciphertext": box.ciphertext,
                            "tag": box.tag,
                        },
                    )
                ],
            )
        )
        if not submitted.effects.ok:
            # Nothing was delivered: hand back the live capacity and ResID.
            self._rollback_admissions(admissions)
            self._allocator(ingress_if).release(res_id, start, expiry)
            raise RuntimeError(f"delivery failed: {submitted.effects.error}")
        if self.reclamation is not None:
            self.reclamation.track(
                res_id,
                ingress_if,
                bandwidth_kbps,
                start,
                expiry,
                [
                    (interface, is_ingress, decision.commitment.commitment_id)
                    for interface, is_ingress, decision in admissions
                ],
                tag=redeemer,
            )
        if self._telemetry:
            self._m_deliveries.labels(str(self.isd_as), "delivered").inc()
        trace = current_trace()
        if trace is not None:
            trace.event(
                "reservation.delivered",
                isd_as=str(self.isd_as),
                request=request.object_id,
                res_id=res_id,
                ingress=ingress_if,
                egress=egress_if,
                bandwidth_kbps=bandwidth_kbps,
            )
        return DeliveryRecord(
            request_id=request.object_id,
            delivery_id=submitted.effects.returns[0]["delivery"],
            res_id=res_id,
            submitted=submitted,
        )

    def _rollback_admissions(self, admissions) -> None:
        """Release active-calendar claims from an aborted delivery."""
        for interface, is_ingress, decision in admissions:
            self.admission.release(
                interface, is_ingress, decision.commitment, layer=ACTIVE
            )

    def expire_commitments(self, now: float | None = None) -> int:
        """Release calendar commitments whose windows have fully ended.

        The step function already ignores past windows when judging future
        admissions; this garbage-collects their bookkeeping.  Returns the
        number of commitments released.
        """
        when = now if now is not None else self.executor.clock.now()
        return self.admission.expire(when)

    # -- no-show reclamation ---------------------------------------------------------

    def enable_reclamation(
        self,
        usage_source,
        interval: float = 0.25,
        grace_seconds: float = 0.5,
        no_show_threshold: float = 0.5,
        retain_headroom: float = 1.5,
        min_retained_kbps: int = 1,
        demote=None,
        marketplace: str | None = None,
        relist_base_micromist: int | None = None,
        relist_granularity: int = DEFAULT_GRANULARITY,
        relist_min_bandwidth: int = DEFAULT_MIN_BANDWIDTH,
    ):
        """Arm the usage-feedback loop for this AS.

        ``usage_source`` is the cumulative policer snapshot callable
        (``router.policer.usage_snapshot``); ``demote`` the data-plane
        rate-cap hook (``router.policer.set_limit``).  Once armed, every
        delivery is tracked and :meth:`reclaim_no_shows` runs the loop.
        With ``marketplace`` set, reclaimed bandwidth is relisted there
        with ``Reclaimed`` provenance at the scarcity-adjusted quote over
        ``relist_base_micromist``.

        Returns the :class:`~repro.reclaim.ReclamationEngine`.
        """
        from repro.reclaim import ReclamationEngine, UsageReporter

        self.reclamation = ReclamationEngine(
            self.admission,
            UsageReporter(usage_source, interval),
            grace_seconds=grace_seconds,
            no_show_threshold=no_show_threshold,
            retain_headroom=retain_headroom,
            min_retained_kbps=min_retained_kbps,
            demote=demote,
        )
        self._relist_marketplace = marketplace
        self._relist_base_micromist = relist_base_micromist
        self._relist_granularity = relist_granularity
        self._relist_min_bandwidth = relist_min_bandwidth
        return self.reclamation

    def reclaim_no_shows(self, now: float | None = None) -> list:
        """One reclamation pass: scan tracked reservations, relist the spoils.

        Runs :meth:`~repro.reclaim.ReclamationEngine.scan` (no-op without
        :meth:`enable_reclamation`), then relists each completed
        reclamation's freed bandwidth on the configured marketplace.  The
        relist is an ordinary issue+list — it must clear the *issued*
        calendar like any minting, which is exactly what an overbooking
        admission policy permits; under a strict policy the relist is
        refused and recorded, never force-listed.

        Returns the completed :class:`~repro.reclaim.ReclamationEvent`\\ s.
        """
        if self.reclamation is None:
            return []
        when = now if now is not None else self.executor.clock.now()
        events = self.reclamation.scan(when)
        if self._relist_marketplace is not None:
            for event in events:
                self._relist_reclaimed(event)
        return events

    def _relist_reclaimed(self, event) -> None:
        """Put one reclamation's freed rectangle back on the market."""
        start = math.ceil(event.at)
        granule = self._relist_granularity
        # The asset contract requires the duration to be a whole number of
        # granules: shrink the tail, never stretch past the reservation.
        expiry = start + (int(event.end) - start) // granule * granule
        freed = event.freed_kbps
        if expiry <= start or freed < 1:
            self.relisted.append((event, None, "window or bandwidth too small"))
            return
        base = (
            self._relist_base_micromist
            if self._relist_base_micromist is not None
            else 1
        )
        quoted = self.admission.quote(
            base, event.ingress_ifid, True, start, expiry
        )
        decision = self.admission.admit_issue(
            event.ingress_ifid,
            True,
            freed,
            start,
            expiry,
            tag=f"reclaim:{self.isd_as}",
        )
        if not decision.admitted:
            self.relisted.append((event, None, decision.reason))
            return
        submitted = self.executor.submit(
            Transaction(
                sender=self.account.address,
                commands=[
                    Command(
                        "asset",
                        "issue",
                        {
                            "token": self.token_id,
                            "bandwidth_kbps": freed,
                            "start": start,
                            "expiry": expiry,
                            "interface": event.ingress_ifid,
                            "is_ingress": True,
                            "granularity": self._relist_granularity,
                            "min_bandwidth_kbps": min(
                                self._relist_min_bandwidth, freed
                            ),
                        },
                    ),
                    Command(
                        "market",
                        "create_listing",
                        {
                            "marketplace": self._relist_marketplace,
                            "asset": Result(0, "asset"),
                            "price_micromist_per_unit": quoted,
                            "provenance": {
                                "res_id": event.res_id,
                                "original_holder": event.tag,
                                "reclaimed_kbps": freed,
                                "observed_kbps": event.observed_kbps,
                            },
                        },
                    ),
                ],
            )
        )
        if not submitted.effects.ok:
            self.admission.release(event.ingress_ifid, True, decision.commitment)
            self.relisted.append((event, None, str(submitted.effects.error)))
            return
        self.relisted.append(
            (event, submitted.effects.returns[1]["listing"], "relisted")
        )

    def _allocator(self, ingress_if: int) -> ResIdAllocator:
        allocator = self._allocators.get(ingress_if)
        if allocator is None:
            allocator = ResIdAllocator(self._resid_capacity)
            self._allocators[ingress_if] = allocator
        return allocator

    def pending_requests(self) -> list:
        """Redeem requests currently owned by this AS (test helper)."""
        return self.executor.ledger.objects_owned_by(self.account.address, REQUEST_TYPE)
