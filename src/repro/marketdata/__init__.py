"""Market data: incremental listing index + declarative purchase planning.

The off-chain half of the marketplace (§3.2): an event-driven
:class:`MarketIndexer` that tracks live listings per interface direction,
and a :class:`PurchasePlanner` that turns declarative
:class:`ListingQuery`/:class:`PathSpec` requirements into ranked,
scarcity-aware :class:`PathQuote` answers.
"""

from repro.marketdata.indexer import MarketIndexer
from repro.marketdata.naive import iter_listings, naive_best_listing
from repro.marketdata.planner import HopQuote, PathQuote, PurchasePlanner
from repro.marketdata.query import (
    MICROMIST,
    BudgetExceeded,
    Candidate,
    IncompatibleGranularity,
    IndexedListing,
    ListingNotFound,
    ListingQuery,
    PathSpec,
)

__all__ = [
    "MICROMIST",
    "BudgetExceeded",
    "Candidate",
    "HopQuote",
    "IncompatibleGranularity",
    "IndexedListing",
    "ListingNotFound",
    "ListingQuery",
    "MarketIndexer",
    "PathQuote",
    "PathSpec",
    "PurchasePlanner",
    "iter_listings",
    "naive_best_listing",
]
