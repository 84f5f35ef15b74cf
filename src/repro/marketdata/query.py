"""Declarative marketplace queries and the records the indexer serves.

Discovery requests and answers are small dataclasses:

* :class:`ListingQuery` — one interface direction's requirement: a time
  window, a bandwidth, optional start-time slack (``flex_start``), an
  optional budget cap and an exact-window flag;
* :class:`PathSpec` — the same for a whole multi-hop path (one entry per
  AS crossing);
* :class:`IndexedListing` — the indexer's view of one live listing (the
  asset rectangle plus the posted unit price);
* :class:`Candidate` — one priced answer: a listing, the granule-aligned
  window that would actually be bought, and its total price.

The exceptions shared across the marketdata/controlplane split live here
too, so the host client can re-export them without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scion.addresses import IsdAs

MICROMIST = 1_000_000  # price unit: micromist per kbps-second


class ListingNotFound(LookupError):
    """No listing covers the requested interface/time/bandwidth rectangle."""


class IncompatibleGranularity(ListingNotFound):
    """Ingress and egress listings cannot agree on one aligned window.

    Raised instead of a bare :class:`ListingNotFound` when both directions
    of a hop are individually coverable but their time granularities admit
    no common granule-aligned window inside the assets' validity ranges.
    Subclasses :class:`ListingNotFound` so legacy ``except ListingNotFound``
    handlers keep working.
    """


class BudgetExceeded(RuntimeError):
    """A quote or purchase plan costs more than the caller's budget cap."""


@dataclass(frozen=True)
class IndexedListing:
    """One live listing as tracked by the :class:`MarketIndexer`."""

    listing_id: str
    asset_id: str
    marketplace: str
    seller: str
    price_micromist_per_unit: int
    isd: int
    asn: int
    interface: int
    is_ingress: bool
    bandwidth_kbps: int
    start: int
    expiry: int
    granularity: int
    min_bandwidth_kbps: int

    @classmethod
    def from_event(cls, payload: dict) -> "IndexedListing":
        """Build from a Listed/Relisted event snapshot (the producer shape
        defined by ``MarketContract._listing_snapshot``)."""
        return cls(
            listing_id=payload["listing"],
            asset_id=payload["asset"],
            marketplace=payload["marketplace"],
            seller=payload["seller"],
            price_micromist_per_unit=payload["price_micromist_per_unit"],
            isd=payload["isd"],
            asn=payload["asn"],
            interface=payload["interface"],
            is_ingress=payload["is_ingress"],
            bandwidth_kbps=payload["bandwidth_kbps"],
            start=payload["start"],
            expiry=payload["expiry"],
            granularity=payload["granularity"],
            min_bandwidth_kbps=payload["min_bandwidth_kbps"],
        )

    @classmethod
    def from_ledger(
        cls, listing_id: str, listing_payload: dict, asset_payload: dict
    ) -> "IndexedListing":
        """Build from a listing object plus its asset object (rescans)."""
        return cls(
            listing_id=listing_id,
            asset_id=listing_payload["asset"],
            marketplace=listing_payload["marketplace"],
            seller=listing_payload["seller"],
            price_micromist_per_unit=listing_payload["price_micromist_per_unit"],
            isd=asset_payload["isd"],
            asn=asset_payload["asn"],
            interface=asset_payload["interface"],
            is_ingress=asset_payload["is_ingress"],
            bandwidth_kbps=asset_payload["bandwidth_kbps"],
            start=asset_payload["start"],
            expiry=asset_payload["expiry"],
            granularity=asset_payload["granularity"],
            min_bandwidth_kbps=asset_payload["min_bandwidth_kbps"],
        )

    @property
    def key(self) -> tuple[int, int, int, bool]:
        return (self.isd, self.asn, self.interface, self.is_ingress)

    def align(self, start: int, expiry: int) -> tuple[int, int] | None:
        """Smallest granule-aligned window covering ``[start, expiry)``.

        Alignment is relative to this listing's asset anchor (its own
        ``start``); returns None when the request is empty or the aligned
        window escapes the asset's validity interval.
        """
        if expiry <= start:
            return None
        anchor, granularity = self.start, self.granularity
        buy_start = anchor + (start - anchor) // granularity * granularity
        over = (expiry - anchor) % granularity
        buy_expiry = expiry if over == 0 else expiry + granularity - over
        if buy_start < self.start or buy_expiry > self.expiry:
            return None
        return buy_start, buy_expiry

    def sellable(self, bandwidth_kbps: int) -> bool:
        """Can ``bandwidth_kbps`` be carved out without violating minimums?"""
        remainder = self.bandwidth_kbps - bandwidth_kbps
        if bandwidth_kbps < self.min_bandwidth_kbps or remainder < 0:
            return False
        return remainder == 0 or remainder >= self.min_bandwidth_kbps

    def price_for(self, bandwidth_kbps: int, start: int, expiry: int) -> int:
        """MIST price of buying this rectangle (ceil, like the contract)."""
        units = bandwidth_kbps * (expiry - start)
        return -(-units * self.price_micromist_per_unit // MICROMIST)


@dataclass(frozen=True)
class Candidate:
    """One priced discovery answer: buy ``listing`` over ``[start, expiry)``."""

    listing: IndexedListing
    price_mist: int
    start: int
    expiry: int

    def as_tuple(self) -> tuple[str, int, int, int]:
        """The ``(listing id, price in MIST, start, expiry)`` tuple."""
        return (self.listing.listing_id, self.price_mist, self.start, self.expiry)


@dataclass(frozen=True)
class ListingQuery:
    """What a host wants on ONE interface direction.

    ``flex_start`` is how many seconds later than ``start`` the window may
    begin (the duration is fixed); a planner slides the window inside the
    flex range looking for cheaper granules.  ``exact_window`` demands the
    granule-aligned window equal the requested one — used to match an
    egress asset to an already-resolved ingress window.
    """

    isd_as: IsdAs
    interface: int
    is_ingress: bool
    start: int
    expiry: int
    bandwidth_kbps: int
    flex_start: int = 0
    budget_mist: int | None = None
    exact_window: bool = False

    def __post_init__(self) -> None:
        if self.expiry <= self.start:
            raise ValueError("query window must not be empty")
        if self.bandwidth_kbps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.flex_start < 0:
            raise ValueError("flex_start must be non-negative")

    @property
    def duration(self) -> int:
        return self.expiry - self.start

    @property
    def key(self) -> tuple[int, int, int, bool]:
        return (self.isd_as.isd, self.isd_as.asn, self.interface, self.is_ingress)


@dataclass(frozen=True)
class PathSpec:
    """A whole path's reservation requirement (one entry per AS crossing)."""

    crossings: tuple
    start: int
    expiry: int
    bandwidth_kbps: int
    flex_start: int = 0
    budget_mist: int | None = None

    def __post_init__(self) -> None:
        if self.expiry <= self.start:
            raise ValueError("spec window must not be empty")
        if self.bandwidth_kbps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.flex_start < 0:
            raise ValueError("flex_start must be non-negative")
        object.__setattr__(self, "crossings", tuple(self.crossings))

    @staticmethod
    def from_crossings(
        crossings,
        start: int,
        expiry: int,
        bandwidth_kbps: int,
        flex_start: int = 0,
        budget_mist: int | None = None,
    ) -> "PathSpec":
        return PathSpec(
            crossings=tuple(crossings),
            start=start,
            expiry=expiry,
            bandwidth_kbps=bandwidth_kbps,
            flex_start=flex_start,
            budget_mist=budget_mist,
        )

    @property
    def duration(self) -> int:
        return self.expiry - self.start
