"""Host-side control-plane client (§3.2 client stack).

The host discovers listings through an off-chain :class:`MarketIndexer`
(incremental, event-driven — never a ledger rescan), plans purchases
declaratively (:class:`ListingQuery`/:class:`PathSpec` in, ranked
:class:`PathQuote`\\ s out), assembles an **atomic buy-and-redeem**
transaction covering every hop it wants to reserve — buy ingress asset,
buy egress asset, redeem the pair, for each AS crossing — and later
decrypts the sealed reservations the ASes deliver.

Atomicity is the ledger's: if any hop cannot be bought (sold out, price
moved, insufficient funds), the whole transaction aborts and no money moves
(§4.2 "Atomic End-to-End Guarantees").  On top of that, a client-side
``max_price_mist`` guard repriced against the live index refuses to submit
at all when a scarcity-price move since planning would bust the budget.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.contracts.asset import DELIVERY_TYPE, ASSET_TYPE
from repro.ledger.accounts import COIN_TYPE
from repro.crypto.sealing import KeyPair, SealedBox, unseal
from repro.hummingbird.reservation import FlyoverReservation, ResInfo
from repro.ledger.accounts import Account
from repro.ledger.executor import LedgerExecutor, SubmittedTransaction
from repro.ledger.transactions import Command, Result, Transaction
from repro.marketdata import (
    BudgetExceeded,
    IncompatibleGranularity,
    ListingNotFound,
    ListingQuery,
    MarketIndexer,
    PathQuote,
    PathSpec,
    PurchasePlanner,
)
from repro.pathadm import path_escrow_mist
from repro.scion.addresses import IsdAs
from repro.scion.paths import AsCrossing
from repro.telemetry import get_registry
from repro.telemetry.tracing import current_trace

__all__ = [
    "AcquireOutcome",
    "BidSettlement",
    "BudgetExceeded",
    "HopRequirement",
    "HostClient",
    "IncompatibleGranularity",
    "ListingNotFound",
    "PathBidSettlement",
    "PurchasePlan",
    "ResolvedHop",
    "plan_from_quote",
]


@dataclass(frozen=True)
class HopRequirement:
    """What the host wants to reserve at one AS crossing."""

    isd_as: IsdAs
    ingress: int
    egress: int
    start: int
    expiry: int
    bandwidth_kbps: int

    @staticmethod
    def from_crossing(
        crossing: AsCrossing, start: int, expiry: int, bandwidth_kbps: int
    ) -> "HopRequirement":
        return HopRequirement(
            isd_as=crossing.isd_as,
            ingress=crossing.ingress,
            egress=crossing.egress,
            start=start,
            expiry=expiry,
            bandwidth_kbps=bandwidth_kbps,
        )


@dataclass(frozen=True)
class ResolvedHop:
    """Listings and the granularity-aligned window actually bought for a hop.

    The bought window is the smallest granule-aligned rectangle covering the
    requested one, so it may start earlier / end later than requested.  The
    ingress and egress windows must be identical or the redeem would abort.
    """

    ingress_listing: str
    egress_listing: str
    buy_start: int
    buy_expiry: int
    price_mist: int
    ingress_price_mist: int = 0
    egress_price_mist: int = 0


@dataclass
class PurchasePlan:
    """Resolved listings + price estimate for a set of hop requirements."""

    requirements: list[HopRequirement]
    hops: list[ResolvedHop]
    quote: PathQuote | None = None

    @property
    def estimated_price_mist(self) -> int:
        return sum(hop.price_mist for hop in self.hops)


def plan_from_quote(quote: PathQuote) -> PurchasePlan:
    """Materialize a planner quote into an executable purchase plan."""
    requirements = [
        HopRequirement(
            isd_as=hop.isd_as,
            ingress=hop.ingress,
            egress=hop.egress,
            start=quote.start,
            expiry=quote.expiry,
            bandwidth_kbps=quote.bandwidth_kbps,
        )
        for hop in quote.hops
    ]
    hops = [
        ResolvedHop(
            ingress_listing=hop.ingress_candidate.listing.listing_id,
            egress_listing=hop.egress_candidate.listing.listing_id,
            buy_start=hop.start,
            buy_expiry=hop.expiry,
            price_mist=hop.price_mist,
            ingress_price_mist=hop.ingress_candidate.price_mist,
            egress_price_mist=hop.egress_candidate.price_mist,
        )
        for hop in quote.hops
    ]
    return PurchasePlan(requirements=requirements, hops=hops, quote=quote)


@dataclass(frozen=True)
class BidSettlement:
    """This host's aggregate outcome in one settled auction.

    ``won`` is true when at least one of the host's bids was awarded;
    ``assets`` are the bandwidth-split pieces it now owns (redeemable like
    any purchased asset), ``paid_mist`` the total charged at the clearing
    price and ``refund_mist`` everything the settlement returned (losing
    escrows plus winners' escrow surplus).
    """

    auction: str
    won: bool
    bandwidth_kbps: int
    paid_mist: int
    refund_mist: int
    clearing_price_micromist: int
    assets: tuple[str, ...] = ()
    reasons: tuple[str, ...] = ()


@dataclass(frozen=True)
class PathBidSettlement:
    """This host's aggregate outcome in one settled **path** auction.

    ``assets`` lists the bandwidth-split pieces in leg (path) order — one
    per leg when the bid won, pairable for :meth:`HostClient.redeem_path`
    — and ``paid_mist`` sums the per-leg clearing-price charges.  Losers
    see their whole escrow back in ``refund_mist``.
    """

    path_auction: str
    won: bool
    bandwidth_kbps: int
    paid_mist: int
    refund_mist: int
    clearing_prices_micromist: tuple[int, ...]
    assets: tuple[str, ...] = ()
    reasons: tuple[str, ...] = ()


@dataclass(frozen=True)
class AcquireOutcome:
    """What :meth:`HostClient.acquire` did: bid into an auction or buy posted.

    ``mode`` is ``"bid"`` (an open auction covered the window — await its
    settlement) or ``"bought"`` (posted-price fallback — the asset is owned
    immediately).  ``reference`` is the auction id or the listing id.
    """

    mode: str
    submitted: SubmittedTransaction
    reference: str
    price_mist: int = 0


class HostClient:
    """A Hummingbird end host's control-plane agent."""

    def __init__(
        self,
        account: Account,
        executor: LedgerExecutor,
        rng: random.Random | None = None,
    ) -> None:
        self.account = account
        self.executor = executor
        self.rng = rng if rng is not None else random.Random(0xC0FFEE)
        self.payment_coin: str | None = None
        self._ephemeral_keys: list[KeyPair] = []
        self._delivery_checkpoint = 0
        self._indexers: dict[str, MarketIndexer] = {}
        self._planners: dict[str, PurchasePlanner] = {}
        # Sealed-bid auction tracking, per marketplace: open books seen via
        # AuctionOpened, settlement payloads seen via AuctionSettled.
        self._auction_cursor: dict[str, int] = {}
        self._open_auctions: dict[str, dict[str, dict]] = {}
        self._auction_results: dict[str, dict[str, dict]] = {}
        # Combinatorial path auctions, same event-driven shape: open shells
        # grow legs as PathLegContributed events arrive.
        self._path_cursor: dict[str, int] = {}
        self._open_path_auctions: dict[str, dict[str, dict]] = {}
        self._path_results: dict[str, dict[str, dict]] = {}
        registry = get_registry()
        self._telemetry = registry.enabled
        self._m_acquire = registry.counter(
            "host_acquire_total",
            "acquire() outcomes: sealed bid placed vs posted fallback buy.",
            ("mode",),
        )
        self._m_settle_results = registry.counter(
            "host_bid_settlements_total",
            "Settled auctions this host had bids in, by outcome.",
            ("outcome",),
        )
        self._m_refunds = registry.counter(
            "host_escrow_refunds_mist_total",
            "Escrow MIST refunded to this host at settle time.",
        ).labels()
        # await_settle() is an idempotent read; refunds/outcomes are
        # counted once per auction.
        self._counted_settles: set[str] = set()

    # -- funding ---------------------------------------------------------------

    def fund(self, amount_mist: int) -> str:
        """Mint a payment coin (stands in for acquiring SUI out of band).

        Returns:
            The coin object id, also remembered as :attr:`payment_coin`
            (the coin every purchase and bid draws from).

        Raises:
            RuntimeError: the mint transaction was refused.
        """
        submitted = self.executor.submit(
            Transaction(
                sender=self.account.address,
                commands=[Command("coin", "mint", {"amount": amount_mist})],
            )
        )
        if not submitted.effects.ok:
            raise RuntimeError(f"funding failed: {submitted.effects.error}")
        self.payment_coin = submitted.effects.returns[0]["coin"]
        return self.payment_coin

    def _coin_balance(self, coin_id: str) -> int:
        coin = self.executor.ledger.objects.get(coin_id)
        return coin.payload["balance"] if coin is not None else 0

    def consolidate_coins(self) -> int:
        """Merge every coin this host owns back into :attr:`payment_coin`.

        Auction settlements pay refunds (losing escrows, winners' escrow
        surplus) and sale proceeds as *fresh* coin objects; without a
        merge the payment coin drains even while the host stays solvent.
        Called automatically by :meth:`place_bid` when the payment coin
        alone cannot cover an escrow; safe to call any time after
        :meth:`fund`.

        Returns:
            The payment coin's balance after merging.

        Raises:
            RuntimeError: the client was never funded, or a merge
                transaction was refused.
        """
        if self.payment_coin is None:
            raise RuntimeError("fund() the client before consolidating")
        others = [
            coin.object_id
            for coin in self.executor.ledger.objects_owned_by(
                self.account.address, COIN_TYPE
            )
            if coin.object_id != self.payment_coin
        ]
        if others:
            submitted = self.executor.submit(
                Transaction(
                    sender=self.account.address,
                    commands=[
                        Command(
                            "coin",
                            "merge",
                            {"coin": self.payment_coin, "other": other},
                        )
                        for other in others
                    ],
                )
            )
            if not submitted.effects.ok:
                raise RuntimeError(
                    f"coin consolidation failed: {submitted.effects.error}"
                )
        return self._coin_balance(self.payment_coin)

    # -- discovery ---------------------------------------------------------------

    def attach_indexer(self, marketplace: str, indexer: MarketIndexer) -> None:
        """Share an existing index (e.g. the deployment-wide one).

        Indexing is off-chain infrastructure; hosts of one deployment
        normally consult one shared index instead of each replaying the
        event stream.
        """
        self._indexers[marketplace] = indexer
        self._planners.pop(marketplace, None)

    def indexer(self, marketplace: str) -> MarketIndexer:
        """This host's index of the marketplace (created on first use)."""
        found = self._indexers.get(marketplace)
        if found is None:
            found = MarketIndexer(self.executor.ledger, marketplace)
            self._indexers[marketplace] = found
        return found

    def planner(self, marketplace: str) -> PurchasePlanner:
        """This host's planner over :meth:`indexer` (created on first use)."""
        found = self._planners.get(marketplace)
        if found is None:
            found = PurchasePlanner(self.indexer(marketplace))
            self._planners[marketplace] = found
        return found

    def quote_path(self, marketplace: str, spec: PathSpec) -> list[PathQuote]:
        """Every distinct priced way to reserve the path, cheapest first.

        Args:
            marketplace: the marketplace object id.
            spec: the path requirement (window, bandwidth, optional
                ``flex_start`` slack and ``budget_mist`` cap).

        Returns:
            Ranked :class:`~repro.marketdata.PathQuote` list (see
            :meth:`PurchasePlanner.quote` for ordering and the budget
            caveat).

        Raises:
            ListingNotFound: nothing covers the spec at any flex offset.
        """
        return self.planner(marketplace).quote(spec)

    def plan_path(self, marketplace: str, spec: PathSpec) -> PurchasePlan:
        """The cheapest in-budget quote, materialized into a purchase plan.

        Returns:
            A :class:`PurchasePlan` ready for :meth:`atomic_buy_and_redeem`.

        Raises:
            BudgetExceeded: the cheapest quote exceeds ``spec.budget_mist``.
            ListingNotFound: nothing covers the spec.
        """
        return plan_from_quote(self.planner(marketplace).best(spec))

    # -- sealed-bid auctions --------------------------------------------------------

    def _scan_auctions(self, marketplace: str) -> None:
        """Fold new AuctionOpened/AuctionSettled events into the local view."""
        ledger = self.executor.ledger
        cursor = self._auction_cursor.get(marketplace, 0)
        open_books = self._open_auctions.setdefault(marketplace, {})
        results = self._auction_results.setdefault(marketplace, {})
        for event in ledger.events_since(cursor):
            payload = event.payload
            if payload.get("marketplace") != marketplace:
                continue
            if event.event_type == "AuctionOpened":
                open_books[payload["auction"]] = payload
            elif event.event_type == "AuctionSettled":
                open_books.pop(payload["auction"], None)
                results[payload["auction"]] = payload
        self._auction_cursor[marketplace] = ledger.checkpoint

    def open_auctions(self, marketplace: str) -> list[dict]:
        """Every auction currently open on the marketplace (event-driven).

        Returns:
            The ``AuctionOpened`` snapshots (asset rectangle, reserve
            price, share cap) of auctions no ``AuctionSettled`` has closed
            yet, in arrival order.
        """
        self._scan_auctions(marketplace)
        return list(self._open_auctions[marketplace].values())

    def find_auction(
        self,
        marketplace: str,
        isd_as: IsdAs,
        interface: int,
        is_ingress: bool,
        start: int,
        expiry: int,
        bandwidth_kbps: int,
    ) -> dict | None:
        """The open auction covering this rectangle, or ``None``.

        An auction covers a request when it sells the right interface
        direction, its window contains ``[start, expiry)``, and the wanted
        bandwidth fits between the asset's minimum and its total.  Earliest
        open auction wins when several cover (deterministic).
        """
        for snapshot in self.open_auctions(marketplace):
            if (
                (snapshot["isd"], snapshot["asn"]) == (isd_as.isd, isd_as.asn)
                and snapshot["interface"] == interface
                and snapshot["is_ingress"] == is_ingress
                and snapshot["start"] <= start
                and expiry <= snapshot["expiry"]
                and snapshot["min_bandwidth_kbps"]
                <= bandwidth_kbps
                <= snapshot["bandwidth_kbps"]
            ):
                return snapshot
        return None

    def place_bid(
        self,
        marketplace: str,
        auction: str,
        bandwidth_kbps: int,
        max_price_mist: int,
    ) -> SubmittedTransaction:
        """Place one sealed bid, escrowing up to ``max_price_mist``.

        ``max_price_mist`` is the bidder's total willingness to pay for
        ``bandwidth_kbps`` over the auction's whole window; it converts to
        the contract's unit price by flooring, so the escrow can never
        exceed the stated maximum.  The escrow is locked until the seller
        settles — :meth:`await_settle` reports the outcome and the refund.

        Raises:
            RuntimeError: the client was never funded.
            ValueError: unknown auction, or a budget whose floored unit
                price falls below the auction's reserve (the bid could
                only lock its escrow and lose).
        """
        if self.payment_coin is None:
            raise RuntimeError("fund() the client before bidding")
        self._scan_auctions(marketplace)
        snapshot = self._open_auctions.get(marketplace, {}).get(auction)
        if snapshot is None:
            raise ValueError(f"auction {auction[:8]}... is not open")
        units = bandwidth_kbps * (snapshot["expiry"] - snapshot["start"])
        unit_price = max_price_mist * 1_000_000 // units
        if unit_price < snapshot["reserve_micromist_per_unit"]:
            # Knowable client-side: such a bid would lock its escrow until
            # settle only to be rejected as "below reserve".
            raise ValueError(
                f"budget {max_price_mist} MIST prices {unit_price} "
                f"micromist/unit, below the auction's reserve of "
                f"{snapshot['reserve_micromist_per_unit']}"
            )
        escrow_mist = -(-units * unit_price // 1_000_000)
        if self._coin_balance(self.payment_coin) < escrow_mist:
            # Earlier refunds arrive as fresh coins; fold them back in
            # before giving up on the escrow.
            self.consolidate_coins()
        return self.executor.submit(
            Transaction(
                sender=self.account.address,
                commands=[
                    Command(
                        "market",
                        "place_bid",
                        {
                            "marketplace": marketplace,
                            "auction": auction,
                            "bandwidth_kbps": bandwidth_kbps,
                            "price_micromist_per_unit": int(unit_price),
                            "payment": self.payment_coin,
                        },
                    )
                ],
            )
        )

    def await_settle(self, marketplace: str, auction: str) -> BidSettlement | None:
        """This host's outcome in an auction, once it settles.

        Returns:
            ``None`` while the auction is still open (poll again after the
            AS's next settle pass), else a :class:`BidSettlement`
            aggregating every bid this host placed — winners' assets and
            clearing-price charges, losers' full refunds.
        """
        self._scan_auctions(marketplace)
        payload = self._auction_results.get(marketplace, {}).get(auction)
        if payload is None:
            return None
        mine = self.account.address
        won_bw = paid = refund = 0
        assets: list[str] = []
        reasons: list[str] = []
        for winner in payload["winners"]:
            if winner["bidder"] != mine:
                continue
            won_bw += winner["bandwidth_kbps"]
            paid += winner["paid_mist"]
            refund += winner["refund_mist"]
            assets.append(winner["asset"])
        for loser in payload["losers"]:
            if loser["bidder"] != mine:
                continue
            refund += loser["refund_mist"]
            reasons.append(loser["reason"])
        settlement = BidSettlement(
            auction=auction,
            won=bool(assets),
            bandwidth_kbps=won_bw,
            paid_mist=paid,
            refund_mist=refund,
            clearing_price_micromist=payload["clearing_price_micromist"],
            assets=tuple(assets),
            reasons=tuple(reasons),
        )
        if self._telemetry and auction not in self._counted_settles:
            self._counted_settles.add(auction)
            self._m_settle_results.labels("won" if settlement.won else "lost").inc()
            if refund:
                self._m_refunds.inc(refund)
        trace = current_trace()
        if trace is not None:
            trace.event(
                "bid.settled",
                auction=auction,
                won=settlement.won,
                bandwidth_kbps=won_bw,
                paid_mist=paid,
                refund_mist=refund,
            )
        return settlement

    def acquire(
        self,
        marketplace: str,
        isd_as: IsdAs,
        interface: int,
        is_ingress: bool,
        start: int,
        expiry: int,
        bandwidth_kbps: int,
        max_price_mist: int,
    ) -> AcquireOutcome:
        """Bid into the window's auction, or buy posted when none is open.

        The auction-aware acquisition front door: when an open auction
        covers the rectangle, a sealed bid worth up to ``max_price_mist``
        goes in (ownership is decided at settle time); otherwise the
        planner's posted-price machinery takes over — cheapest covering
        listing, bought immediately, still subject to the budget.

        Returns:
            An :class:`AcquireOutcome` (``mode`` ``"bid"`` or ``"bought"``).

        Raises:
            ListingNotFound: no auction *and* no posted listing covers.
            BudgetExceeded: the posted cover costs more than the budget.
        """
        if self.payment_coin is None:
            raise RuntimeError("fund() the client before acquiring")
        auction = self.find_auction(
            marketplace, isd_as, interface, is_ingress, start, expiry, bandwidth_kbps
        )
        if auction is not None:
            submitted = self.place_bid(
                marketplace, auction["auction"], bandwidth_kbps, max_price_mist
            )
            if self._telemetry:
                self._m_acquire.labels("bid").inc()
            trace = current_trace()
            if trace is not None:
                trace.event(
                    "bid.placed",
                    auction=auction["auction"],
                    bandwidth_kbps=bandwidth_kbps,
                    max_price_mist=max_price_mist,
                )
            return AcquireOutcome(
                mode="bid", submitted=submitted, reference=auction["auction"]
            )
        found = self.indexer(marketplace).best(
            ListingQuery(
                isd_as=isd_as,
                interface=interface,
                is_ingress=is_ingress,
                start=start,
                expiry=expiry,
                bandwidth_kbps=bandwidth_kbps,
            )
        )
        if found is None:
            raise ListingNotFound(
                f"no auction or listing at {isd_as} if={interface} "
                f"{'ingress' if is_ingress else 'egress'} covers "
                f"[{start},{expiry})x{bandwidth_kbps}kbps"
            )
        if found.price_mist > max_price_mist:
            raise BudgetExceeded(
                f"posted cover costs {found.price_mist} MIST, over the "
                f"{max_price_mist} MIST budget"
            )
        submitted = self.executor.submit(
            Transaction(
                sender=self.account.address,
                commands=[
                    Command(
                        "market",
                        "buy",
                        {
                            "marketplace": marketplace,
                            "listing": found.listing.listing_id,
                            "start": found.start,
                            "expiry": found.expiry,
                            "bandwidth_kbps": bandwidth_kbps,
                            "payment": self.payment_coin,
                        },
                    )
                ],
            )
        )
        price = 0
        if submitted.effects.ok:
            price = submitted.effects.returns[0]["price_mist"]
        if self._telemetry:
            self._m_acquire.labels("bought").inc()
        trace = current_trace()
        if trace is not None:
            trace.event(
                "listing.bought",
                listing=found.listing.listing_id,
                price_mist=price,
                bandwidth_kbps=bandwidth_kbps,
            )
        return AcquireOutcome(
            mode="bought",
            submitted=submitted,
            reference=found.listing.listing_id,
            price_mist=price,
        )

    # -- combinatorial path auctions ------------------------------------------------

    def _scan_path_auctions(self, marketplace: str) -> None:
        """Fold new path-auction events into the local view."""
        ledger = self.executor.ledger
        cursor = self._path_cursor.get(marketplace, 0)
        open_books = self._open_path_auctions.setdefault(marketplace, {})
        results = self._path_results.setdefault(marketplace, {})
        for event in ledger.events_since(cursor):
            payload = event.payload
            if payload.get("marketplace") != marketplace:
                continue
            if event.event_type == "PathAuctionOpened":
                open_books[payload["path_auction"]] = {
                    "path_auction": payload["path_auction"],
                    "num_legs": payload["num_legs"],
                    "legs": {},
                }
            elif event.event_type == "PathLegContributed":
                book = open_books.get(payload["path_auction"])
                if book is not None:
                    book["legs"][payload["leg_index"]] = payload
            elif event.event_type == "PathAuctionSettled":
                open_books.pop(payload["path_auction"], None)
                results[payload["path_auction"]] = payload
        self._path_cursor[marketplace] = ledger.checkpoint

    def open_path_auctions(self, marketplace: str) -> list[dict]:
        """Every path auction currently open on the marketplace.

        Returns:
            One dict per open shell (arrival order) with ``num_legs`` and
            the ``legs`` contributed so far (``PathLegContributed``
            snapshots keyed by leg index).  Bidding is possible once
            ``len(legs) == num_legs``.
        """
        self._scan_path_auctions(marketplace)
        return list(self._open_path_auctions[marketplace].values())

    def find_path_auction(
        self,
        marketplace: str,
        crossings: list[AsCrossing],
        start: int,
        expiry: int,
        bandwidth_kbps: int,
    ) -> dict | None:
        """The fully contributed path auction covering these crossings.

        A path auction covers a request when its legs, in path order, are
        exactly the crossings' interface directions — ``(ingress, True)``
        then ``(egress, False)`` per crossing — every leg's window
        contains ``[start, expiry)``, and the wanted bandwidth fits every
        leg's ``[minimum, total]`` range.  Earliest open auction wins when
        several cover (deterministic).
        """
        wanted = [
            (crossing.isd_as, interface, is_ingress)
            for crossing in crossings
            for interface, is_ingress in (
                (crossing.ingress, True),
                (crossing.egress, False),
            )
        ]
        for book in self.open_path_auctions(marketplace):
            if book["num_legs"] != len(wanted):
                continue
            legs = [book["legs"].get(index) for index in range(book["num_legs"])]
            if any(leg is None for leg in legs):
                continue
            if all(
                (leg["isd"], leg["asn"]) == (isd_as.isd, isd_as.asn)
                and leg["interface"] == interface
                and leg["is_ingress"] == is_ingress
                and leg["start"] <= start
                and expiry <= leg["expiry"]
                and leg["min_bandwidth_kbps"]
                <= bandwidth_kbps
                <= leg["bandwidth_kbps"]
                for leg, (isd_as, interface, is_ingress) in zip(legs, wanted)
            ):
                return book
        return None

    def place_path_bid(
        self,
        marketplace: str,
        path_auction: str,
        bandwidth_kbps: int,
        max_price_mist: int,
    ) -> SubmittedTransaction:
        """One combinatorial bid: ``bandwidth_kbps`` on every leg, all-or-nothing.

        ``max_price_mist`` is the bidder's total willingness to pay for
        the whole path over the full auction window; it converts to the
        contract's per-leg unit price by flooring against ``bandwidth *
        duration * num_legs`` units, so the escrow
        (:func:`repro.pathadm.path_escrow_mist`) can never exceed the
        stated maximum.  One escrow covers every leg; settlement awards
        pieces of all legs or refunds everything.

        Raises:
            RuntimeError: the client was never funded.
            ValueError: unknown/unready path auction, or a budget whose
                floored unit price falls below some leg's reserve (the bid
                could only lock its escrow and lose path-wide).
        """
        if self.payment_coin is None:
            raise RuntimeError("fund() the client before bidding")
        self._scan_path_auctions(marketplace)
        book = self._open_path_auctions.get(marketplace, {}).get(path_auction)
        if book is None:
            raise ValueError(f"path auction {path_auction[:8]}... is not open")
        legs = [book["legs"].get(index) for index in range(book["num_legs"])]
        if any(leg is None for leg in legs):
            raise ValueError(
                f"path auction {path_auction[:8]}... is not fully contributed"
            )
        duration = legs[0]["expiry"] - legs[0]["start"]
        units = bandwidth_kbps * duration * len(legs)
        unit_price = max_price_mist * 1_000_000 // units
        highest_reserve = max(leg["reserve_micromist_per_unit"] for leg in legs)
        if unit_price < highest_reserve:
            # Knowable client-side: below any leg's reserve the bid loses
            # path-wide, locking its escrow until settle for nothing.
            raise ValueError(
                f"budget {max_price_mist} MIST prices {unit_price} "
                f"micromist/unit per leg, below the dearest leg reserve of "
                f"{highest_reserve}"
            )
        escrow_mist = path_escrow_mist(
            bandwidth_kbps, duration, int(unit_price), len(legs)
        )
        if self._coin_balance(self.payment_coin) < escrow_mist:
            self.consolidate_coins()
        return self.executor.submit(
            Transaction(
                sender=self.account.address,
                commands=[
                    Command(
                        "market",
                        "place_path_bid",
                        {
                            "marketplace": marketplace,
                            "path_auction": path_auction,
                            "bandwidth_kbps": bandwidth_kbps,
                            "price_micromist_per_unit": int(unit_price),
                            "payment": self.payment_coin,
                        },
                    )
                ],
            )
        )

    def await_path_settle(
        self, marketplace: str, path_auction: str
    ) -> PathBidSettlement | None:
        """This host's outcome in a path auction, once it settles.

        Returns:
            ``None`` while the auction is still open, else a
            :class:`PathBidSettlement` — a winner's ``assets`` hold one
            piece per leg in path order, ready for :meth:`redeem_path`.
        """
        self._scan_path_auctions(marketplace)
        payload = self._path_results.get(marketplace, {}).get(path_auction)
        if payload is None:
            return None
        mine = self.account.address
        won_bw = paid = refund = 0
        assets: list[str] = []
        reasons: list[str] = []
        for winner in payload["winners"]:
            if winner["bidder"] != mine:
                continue
            won_bw += winner["bandwidth_kbps"]
            paid += winner["paid_mist"]
            refund += winner["refund_mist"]
            assets.extend(winner["assets"])
        for loser in payload["losers"]:
            if loser["bidder"] != mine:
                continue
            refund += loser["refund_mist"]
            reasons.append(loser["reason"])
        settlement = PathBidSettlement(
            path_auction=path_auction,
            won=bool(assets),
            bandwidth_kbps=won_bw,
            paid_mist=paid,
            refund_mist=refund,
            clearing_prices_micromist=tuple(payload["clearing_prices_micromist"]),
            assets=tuple(assets),
            reasons=tuple(reasons),
        )
        if self._telemetry and path_auction not in self._counted_settles:
            self._counted_settles.add(path_auction)
            self._m_settle_results.labels(
                "won" if settlement.won else "lost"
            ).inc()
            if refund:
                self._m_refunds.inc(refund)
        trace = current_trace()
        if trace is not None:
            trace.event(
                "path_bid.settled",
                path_auction=path_auction,
                won=settlement.won,
                bandwidth_kbps=won_bw,
                paid_mist=paid,
                refund_mist=refund,
            )
        return settlement

    def redeem_path(
        self, asset_pairs: list[tuple[str, str]]
    ) -> SubmittedTransaction:
        """Redeem a whole path's (ingress, egress) asset pairs atomically.

        One transaction holding a redeem per AS crossing — the redemption
        path for path-auction winnings (a winner's
        :attr:`PathBidSettlement.assets` in leg order pair up as
        ``(assets[0], assets[1]), (assets[2], assets[3]), ...``).  If any
        pair is incompatible the whole transaction aborts and no redeem
        request reaches any AS.

        Returns:
            The submitted transaction; ``returns[i]["request"]`` names the
            i-th crossing's redeem request.
        """
        ephemeral = KeyPair.generate(self.rng)
        self._ephemeral_keys.append(ephemeral)
        submitted = self.executor.submit(
            Transaction(
                sender=self.account.address,
                commands=[
                    Command(
                        "asset",
                        "redeem",
                        {
                            "ingress": ingress_asset,
                            "egress": egress_asset,
                            "public_key": ephemeral.public.to_bytes(256, "big"),
                        },
                    )
                    for ingress_asset, egress_asset in asset_pairs
                ],
            )
        )
        trace = current_trace()
        if trace is not None:
            trace.event(
                "path.redeem",
                pairs=len(asset_pairs),
                status=submitted.effects.status,
            )
        return submitted

    def acquire_path(
        self,
        marketplace: str,
        crossings: list[AsCrossing],
        start: int,
        expiry: int,
        bandwidth_kbps: int,
        max_price_mist: int,
        flex_start: int = 0,
    ) -> AcquireOutcome:
        """Bid into a covering path auction, or buy posted hop listings.

        The path-level acquisition front door: when a fully contributed
        path auction covers every crossing, one combinatorial bid worth up
        to ``max_price_mist`` goes in (``mode="path_bid"`` — await its
        settlement, then :meth:`redeem_path`).  Otherwise the planner's
        posted-price machinery takes over: the cheapest covering quote is
        bought and redeemed atomically, guarded by the same
        ``max_price_mist`` repricing rule as
        :meth:`atomic_buy_and_redeem` (``mode="bought"``).

        Raises:
            RuntimeError: the client was never funded.
            ListingNotFound: no path auction *and* no posted quote covers.
            BudgetExceeded: the posted cover reprices over the budget.
        """
        if self.payment_coin is None:
            raise RuntimeError("fund() the client before acquiring")
        book = self.find_path_auction(
            marketplace, crossings, start, expiry, bandwidth_kbps
        )
        trace = current_trace()
        if book is not None:
            submitted = self.place_path_bid(
                marketplace, book["path_auction"], bandwidth_kbps, max_price_mist
            )
            if self._telemetry:
                self._m_acquire.labels("path_bid").inc()
            if trace is not None:
                trace.event(
                    "path_bid.placed",
                    path_auction=book["path_auction"],
                    bandwidth_kbps=bandwidth_kbps,
                    max_price_mist=max_price_mist,
                )
            return AcquireOutcome(
                mode="path_bid", submitted=submitted, reference=book["path_auction"]
            )
        spec = PathSpec.from_crossings(
            crossings,
            start,
            expiry,
            bandwidth_kbps,
            flex_start=flex_start,
            budget_mist=max_price_mist,
        )
        plan = self.plan_path(marketplace, spec)
        submitted = self.atomic_buy_and_redeem(
            marketplace, plan, max_price_mist=max_price_mist
        )
        price = 0
        if submitted.effects.ok:
            price = sum(
                ret.get("price_mist", 0) for ret in submitted.effects.returns
            )
        if self._telemetry:
            self._m_acquire.labels("path_bought").inc()
        if trace is not None:
            trace.event(
                "path.bought",
                hops=len(plan.hops),
                price_mist=price,
                bandwidth_kbps=bandwidth_kbps,
            )
        return AcquireOutcome(
            mode="bought",
            submitted=submitted,
            reference=plan.hops[0].ingress_listing if plan.hops else "",
            price_mist=price,
        )

    def redeem_pair(
        self, ingress_asset: str, egress_asset: str
    ) -> SubmittedTransaction:
        """Redeem a compatible ingress/egress asset pair this host owns.

        The redemption path for assets acquired *outside* an atomic
        buy-and-redeem — auction winnings, transfers, fused remainders.
        Both assets must agree on AS, issuer, bandwidth and window (the
        asset contract enforces it); the issuing AS answers the emitted
        redeem request with a sealed reservation that
        :meth:`collect_reservations` decrypts.

        Returns:
            The submitted transaction (``returns[0]["request"]`` names the
            redeem request routed to the AS).
        """
        ephemeral = KeyPair.generate(self.rng)
        self._ephemeral_keys.append(ephemeral)
        submitted = self.executor.submit(
            Transaction(
                sender=self.account.address,
                commands=[
                    Command(
                        "asset",
                        "redeem",
                        {
                            "ingress": ingress_asset,
                            "egress": egress_asset,
                            "public_key": ephemeral.public.to_bytes(256, "big"),
                        },
                    )
                ],
            )
        )
        trace = current_trace()
        if trace is not None:
            trace.event(
                "redeem.requested",
                ingress_asset=ingress_asset,
                egress_asset=egress_asset,
                request=(
                    submitted.effects.returns[0]["request"]
                    if submitted.effects.ok
                    else None
                ),
                status=submitted.effects.status,
            )
        return submitted

    # -- atomic purchase ------------------------------------------------------------

    def atomic_buy_and_redeem(
        self,
        marketplace: str,
        plan: PurchasePlan,
        max_price_mist: int | None = None,
    ) -> SubmittedTransaction:
        """One transaction: buy ingress+egress and redeem, for every hop.

        With ``max_price_mist`` the plan is repriced against the live index
        first (vanished listings substituted with their exact-window
        replacements) and the purchase aborts client-side (no transaction,
        no gas) when the fresh estimate exceeds the budget — a
        scarcity-price move between planning and buying cannot silently
        overspend.  The authoritative paid price is whatever ``Sold``
        reports on-chain.
        """
        if self.payment_coin is None:
            raise RuntimeError("fund() the client before buying")
        if max_price_mist is not None:
            estimate, repriced = self.reprice(marketplace, plan)
            if estimate > max_price_mist:
                raise BudgetExceeded(
                    f"plan repriced at {estimate} MIST (planned "
                    f"{plan.estimated_price_mist}), over the "
                    f"{max_price_mist} MIST budget; not submitting"
                )
            plan = repriced
        ephemeral = KeyPair.generate(self.rng)
        self._ephemeral_keys.append(ephemeral)
        commands: list[Command] = []
        for requirement, hop in zip(plan.requirements, plan.hops):
            base = len(commands)
            commands.append(
                Command(
                    "market",
                    "buy",
                    {
                        "marketplace": marketplace,
                        "listing": hop.ingress_listing,
                        "start": hop.buy_start,
                        "expiry": hop.buy_expiry,
                        "bandwidth_kbps": requirement.bandwidth_kbps,
                        "payment": self.payment_coin,
                    },
                )
            )
            commands.append(
                Command(
                    "market",
                    "buy",
                    {
                        "marketplace": marketplace,
                        "listing": hop.egress_listing,
                        "start": hop.buy_start,
                        "expiry": hop.buy_expiry,
                        "bandwidth_kbps": requirement.bandwidth_kbps,
                        "payment": self.payment_coin,
                    },
                )
            )
            commands.append(
                Command(
                    "asset",
                    "redeem",
                    {
                        "ingress": Result(base, "asset"),
                        "egress": Result(base + 1, "asset"),
                        "public_key": ephemeral.public.to_bytes(256, "big"),
                    },
                )
            )
        return self.executor.submit(
            Transaction(sender=self.account.address, commands=commands)
        )

    def reprice(self, marketplace: str, plan: PurchasePlan) -> tuple[int, PurchasePlan]:
        """Re-estimate a plan against the live index; returns
        ``(fresh estimate, effective plan)``.

        Listed unit prices are immutable on-chain, so a planned listing
        that still covers its leg reprices to the planned amount; a
        scarcity-price move materializes as the planned listing
        *disappearing* (sold out, cancelled) and pricier replacements
        taking its place.  Such legs are **substituted** with the live
        cheapest exact-window replacement in the returned plan, so a
        submission that passes the budget guard buys viable listings at
        exactly the repriced amounts.  A leg nothing covers anymore keeps
        its planned listing and share: the atomic transaction will abort
        without charging a thing for it anyway.
        """
        indexer = self.indexer(marketplace)
        indexer.sync()
        hops: list[ResolvedHop] = []
        for requirement, hop in zip(plan.requirements, plan.hops):
            ids: dict[bool, str] = {}
            prices: dict[bool, int] = {}
            for listing_id, planned, interface, is_ingress in (
                (hop.ingress_listing, hop.ingress_price_mist, requirement.ingress, True),
                (hop.egress_listing, hop.egress_price_mist, requirement.egress, False),
            ):
                record = indexer.listing(listing_id)
                covers = (
                    record is not None
                    and record.align(hop.buy_start, hop.buy_expiry)
                    == (hop.buy_start, hop.buy_expiry)
                    and record.sellable(requirement.bandwidth_kbps)
                )
                if covers:
                    ids[is_ingress] = listing_id
                    prices[is_ingress] = record.price_for(
                        requirement.bandwidth_kbps, hop.buy_start, hop.buy_expiry
                    )
                    continue
                replacement = indexer.best(
                    ListingQuery(
                        isd_as=requirement.isd_as,
                        interface=interface,
                        is_ingress=is_ingress,
                        start=hop.buy_start,
                        expiry=hop.buy_expiry,
                        bandwidth_kbps=requirement.bandwidth_kbps,
                        exact_window=True,
                    ),
                    sync=False,
                )
                if replacement is not None:
                    ids[is_ingress] = replacement.listing.listing_id
                    prices[is_ingress] = replacement.price_mist
                else:
                    ids[is_ingress] = listing_id
                    prices[is_ingress] = planned
            hops.append(
                ResolvedHop(
                    ingress_listing=ids[True],
                    egress_listing=ids[False],
                    buy_start=hop.buy_start,
                    buy_expiry=hop.buy_expiry,
                    price_mist=prices[True] + prices[False],
                    ingress_price_mist=prices[True],
                    egress_price_mist=prices[False],
                )
            )
        fresh = PurchasePlan(requirements=plan.requirements, hops=hops, quote=plan.quote)
        return fresh.estimated_price_mist, fresh

    # -- deadline transfers ---------------------------------------------------------

    def transfer(
        self,
        marketplace: str,
        crossings,
        bytes_total: int,
        deadline: int,
        *,
        release: int | None = None,
        budget_mist: int | None = None,
        max_rate_kbps: int | None = None,
        best_effort: bool = False,
        preflight: bool = True,
    ):
        """Move ``bytes_total`` across ``crossings`` before ``deadline``.

        The deadline-transfer entry point: plans a malleable schedule
        (variable rate over time, stitched across listings — see
        :mod:`repro.transfers`) against this host's market index and
        executes it as **one atomic transaction**: every piece bought,
        adjacent pieces fused per direction, one redeem per hop per leg.

        Failure matrix:

        * Planning finds no schedule meeting bytes/deadline/budget →
          :class:`~repro.transfers.InfeasibleTransfer` (carries the
          achievable bytes/spend); nothing is submitted.  With
          ``best_effort=True`` the max-achievable plan executes instead.
        * A planned listing vanished or shrank before submission →
          :class:`~repro.transfers.TransferAborted` with
          ``submitted is None`` (client-side preflight; no transaction,
          no gas).  ``preflight=False`` skips the check and lets the
          ledger arbitrate.
        * The transaction itself aborts (sold out mid-race, insufficient
          funds) → :class:`~repro.transfers.TransferAborted` carrying the
          failed transaction; ledger atomicity already rolled back every
          buy, fuse, and redeem — no money moved, no assets changed
          hands.

        Args:
            release: earliest instant data can flow (defaults to the
                executor clock's now).
        """
        from repro.transfers import DeadlineTransfer, TransferPlanner

        if release is None:
            release = int(self.executor.clock.now())
        request = DeadlineTransfer(
            crossings=tuple(crossings),
            bytes_total=bytes_total,
            release=release,
            deadline=deadline,
            budget_mist=budget_mist,
            max_rate_kbps=max_rate_kbps,
        )
        plan = TransferPlanner(self.indexer(marketplace)).plan(
            request, best_effort=best_effort
        )
        return self.execute_transfer_plan(marketplace, plan, preflight=preflight)

    def execute_transfer_plan(self, marketplace: str, plan, *, preflight: bool = True):
        """Execute a planned transfer atomically; returns a
        :class:`~repro.transfers.TransferOutcome`.

        Command ordering is load-bearing: legs are submitted in
        **descending start order** and each leg's pieces likewise,
        because the market contract keeps the *head* time remainder of a
        carve bound to the original listing id — so every earlier-window
        purchase from the same listing stays valid later in the same
        transaction.  Within a leg the per-direction pieces are then
        fused earliest-first (``fuse_time`` keeps the first operand's
        asset id) into one asset per direction, and each hop redeems
        exactly once per leg.
        """
        from repro.transfers import TransferAborted, TransferOutcome

        if self.payment_coin is None:
            raise RuntimeError("fund() the client before buying")
        if not plan.legs:
            # A best-effort plan over an empty or exhausted book: nothing
            # to buy, nothing to submit.
            return TransferOutcome(plan=plan, submitted=None, price_mist=0)
        if preflight:
            self._preflight_transfer(marketplace, plan)
        ephemeral = KeyPair.generate(self.rng)
        self._ephemeral_keys.append(ephemeral)
        public_key = ephemeral.public.to_bytes(256, "big")
        commands: list[Command] = []
        for leg in sorted(plan.legs, key=lambda leg: leg.start, reverse=True):
            for hop in leg.hops:
                fused: dict[bool, Result] = {}
                for is_ingress, pieces in (
                    (True, hop.ingress_pieces),
                    (False, hop.egress_pieces),
                ):
                    base = len(commands)
                    for piece in reversed(pieces):  # descending start
                        commands.append(
                            Command(
                                "market",
                                "buy",
                                {
                                    "marketplace": marketplace,
                                    "listing": piece.listing_id,
                                    "start": piece.start,
                                    "expiry": piece.expiry,
                                    "bandwidth_kbps": leg.rate_kbps,
                                    "payment": self.payment_coin,
                                },
                            )
                        )
                    # Buy results, re-ordered earliest piece first.
                    assets = [
                        Result(base + i, "asset")
                        for i in reversed(range(len(pieces)))
                    ]
                    while len(assets) > 1:
                        first, second = assets[0], assets[1]
                        commands.append(
                            Command(
                                "asset",
                                "fuse_time",
                                {"first": first, "second": second},
                            )
                        )
                        assets[:2] = [Result(len(commands) - 1, "asset")]
                    fused[is_ingress] = assets[0]
                commands.append(
                    Command(
                        "asset",
                        "redeem",
                        {
                            "ingress": fused[True],
                            "egress": fused[False],
                            "public_key": public_key,
                        },
                    )
                )
        submitted = self.executor.submit(
            Transaction(sender=self.account.address, commands=commands)
        )
        trace = current_trace()
        if trace is not None:
            trace.event(
                "transfer.submitted",
                legs=len(plan.legs),
                buys=plan.buy_count,
                redeems=plan.redeem_count,
                bytes=plan.bytes_scheduled,
                price_mist=plan.spend_mist,
                status=submitted.effects.status,
            )
        if not submitted.effects.ok:
            raise TransferAborted(
                f"transfer transaction aborted ({submitted.effects.status}); "
                "the ledger rolled back every buy, fuse, and redeem",
                submitted=submitted,
            )
        return TransferOutcome(
            plan=plan, submitted=submitted, price_mist=plan.spend_mist
        )

    def _preflight_transfer(self, marketplace: str, plan) -> None:
        """Client-side liveness check: every planned piece must still be
        coverable at its exact window and rate, or we abort without
        submitting (no transaction, no gas)."""
        from repro.transfers import TransferAborted

        indexer = self.indexer(marketplace)
        indexer.sync()
        for leg in plan.legs:
            for hop in leg.hops:
                for piece in hop.ingress_pieces + hop.egress_pieces:
                    record = indexer.listing(piece.listing_id)
                    if (
                        record is None
                        or record.align(piece.start, piece.expiry)
                        != (piece.start, piece.expiry)
                        or not record.sellable(leg.rate_kbps)
                    ):
                        raise TransferAborted(
                            f"listing {piece.listing_id} no longer covers "
                            f"[{piece.start},{piece.expiry}) at "
                            f"{leg.rate_kbps}kbps; transfer not submitted",
                            submitted=None,
                        )

    # -- delivery ------------------------------------------------------------------

    def collect_reservations(self) -> list[FlyoverReservation]:
        """Decrypt all sealed reservations delivered since the last call.

        Returns:
            One :class:`~repro.hummingbird.reservation.FlyoverReservation`
            per new delivery addressed to this host, in delivery order.

        Raises:
            ValueError: a delivery could not be decrypted with any of this
                client's ephemeral keys (wrong recipient or corrupt box).
        """
        ledger = self.executor.ledger
        events = ledger.events_since(self._delivery_checkpoint, "ReservationDelivered")
        self._delivery_checkpoint = ledger.checkpoint
        reservations: list[FlyoverReservation] = []
        for event in events:
            if event.payload["redeemer"] != self.account.address:
                continue
            delivery = ledger.objects.get(event.payload["delivery"])
            if delivery is None or delivery.type_tag != DELIVERY_TYPE:
                continue
            reservations.append(self._decrypt(delivery))
        return reservations

    def _decrypt(self, delivery) -> FlyoverReservation:
        box = SealedBox(
            kem_share=int.from_bytes(delivery.payload["kem_share"], "big"),
            ciphertext=delivery.payload["ciphertext"],
            tag=delivery.payload["tag"],
        )
        last_error: Exception | None = None
        for keypair in reversed(self._ephemeral_keys):
            try:
                plaintext = unseal(keypair, box)
                break
            except ValueError as error:
                last_error = error
        else:
            raise ValueError(f"no ephemeral key decrypts the delivery: {last_error}")
        record = json.loads(plaintext.decode())
        return FlyoverReservation(
            isd_as=IsdAs(record["isd"], record["asn"]),
            resinfo=ResInfo(
                ingress=record["ingress"],
                egress=record["egress"],
                res_id=record["res_id"],
                bw_cls=record["bw_cls"],
                start=record["start"],
                duration=record["duration"],
            ),
            auth_key=bytes.fromhex(record["auth_key"]),
        )

    def owned_assets(self) -> list:
        """Bandwidth assets currently owned by this host (test helper)."""
        return self.executor.ledger.objects_owned_by(self.account.address, ASSET_TYPE)
