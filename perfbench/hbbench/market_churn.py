"""Workload ``market_churn``: reads and writes against a live, fragmented book.

A 4-AS deployment.  Besides the seed listings, every AS pre-lists a
fragmented, price-varied book on each direction of the path's crossings:
staggered 40-minute tiles over the whole horizon, plus a few restocks
just ahead of the clock.  All listings sit on the seed assets' 60 s
granule lattice anchored at ``T0``, because ``TransferBook`` rejects
incongruent anchors.

Each block of 30 operations mixes reads and writes 4:1 in a seeded order:

* reads: ``HostClient.quote_path`` over 1-4 hops with ``flex_start`` and a
  budget (some asks exceed every listing's bandwidth, so some quotes find
  nothing), and ``TransferPlanner.plan`` for deadline transfers that are
  planned but never executed.  Two plans in six ask for three times what
  the book holds over 4 hops and 24 minutes, so the planner runs the
  exact DP and declares them infeasible;
* writes: two ``issue_and_list`` restocks just ahead of the clock, two
  ``cancel_listing`` of the oldest live restocks, one host market ``buy``
  of a whole 10-minute cell without redeem, and a tick that advances the
  sim clock two minutes and has every AS call ``expire_commitments``.

Restocks and cancels balance, buys stay close ahead of the clock and the
clock moves on, so the book near "now", where every read looks, stays
alike through a run: the exact-DP cost does not drift with the run's
length.  Tiles, restocks and buys use few distinct rates and prices,
which keeps that cost from depending on the seed.
"""

from __future__ import annotations

import random
from collections import deque

from repro.clock import SimClock
from repro.controlplane import deploy_market
from repro.ledger.transactions import Command, Transaction
from repro.marketdata import ListingNotFound, ListingQuery, PathSpec
from repro.marketdata.naive import iter_listings
from repro.marketdata.query import MICROMIST
from repro.scion.topology import linear_topology
from repro.transfers import (
    BYTES_PER_KBPS_SECOND,
    DeadlineTransfer,
    InfeasibleTransfer,
    TransferPlanner,
)

from hbbench.net import T0, Chain
from hbbench.runner import READ, WRITE, Op

NUM_ASES = 4
GRANULE = 60
HORIZON_S = 4 * 3600
SEED_KBPS = 20_000
CAPACITY_KBPS = 10_000_000
TILE_S = 40 * 60
TILE_KBPS = 5_000
INITIAL_RESTOCKS = 8
TICK_S = 120  # sim seconds per tick
MAX_PRICE = 120  # micromist per kbps-second: the dearest tile or restock
# Buys take whole cells of this grid, so the seed listings only ever split
# on cell edges and every later buy still finds one listing covering its cell.
BUY_CELL_S = 600
BLOCK = (
    ["quote"] * 18 + ["plan"] * 4 + ["plan_infeasible"] * 2
    + ["restock", "restock", "cancel", "cancel", "buy", "tick"]
)


def _aligned_after(now: float, lead_granules: int) -> int:
    return (int(now) - T0) // GRANULE * GRANULE + T0 + lead_granules * GRANULE


class Env:
    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.clock = SimClock(float(T0))
        topology = linear_topology(NUM_ASES)
        self.chain = chain = Chain(topology)
        self.deployment = deploy_market(
            topology,
            clock=self.clock,
            seed=seed,
            asset_start=T0,
            asset_duration=HORIZON_S,
            asset_bandwidth_kbps=SEED_KBPS,
            interface_capacity_kbps=CAPACITY_KBPS,
        )
        self.marketplace = self.deployment.marketplace
        self.host = self.deployment.new_host(funding_sui=1_000_000)
        self.host_address = self.host.account.address
        self.transfers = TransferPlanner(self.host.indexer(self.marketplace))
        # (service, crossing, is_ingress, interface) per path direction.
        self.directions = []
        for crossing in chain.crossings:
            service = self.deployment.service(crossing.isd_as)
            self.directions.append((service, crossing, True, crossing.ingress))
            self.directions.append((service, crossing, False, crossing.egress))
        # Restocked listings, oldest first: what the cancels take.
        self.restocks: deque = deque()
        for index, direction in enumerate(self.directions):
            # Staggered tiles: edges differ per direction, so the covering
            # set changes often along a path; prices alternate valley and
            # peak with a seeded jitter.
            edges = sorted({T0, T0 + HORIZON_S} | set(
                range(T0 + (index * 5 * GRANULE) % TILE_S, T0 + HORIZON_S, TILE_S)
            ))
            for tile, (start, expiry) in enumerate(zip(edges, edges[1:])):
                price = (90 if (tile + index) % 2 else 30)
                self.list(direction, start, expiry, TILE_KBPS, price)
        for _ in range(INITIAL_RESTOCKS):
            self.restocks.append(self.list(*self.restock_order(rng)))

    def restock_order(self, rng) -> tuple:
        """A seeded restock: 10-30 minutes starting 10-60 minutes ahead."""
        direction = self.directions[rng.randrange(len(self.directions))]
        start = _aligned_after(self.clock.now(), rng.randrange(10, 60))
        expiry = min(start + GRANULE * rng.randrange(10, 30), T0 + HORIZON_S)
        return direction, start, expiry, rng.choice((2_500, 5_000)), rng.choice((30, 60, 90))

    def list(self, direction, start: int, expiry: int, kbps: int, price: int) -> tuple:
        service, _, is_ingress, interface = direction
        submitted = service.issue_and_list(
            self.marketplace, interface, is_ingress, kbps, start, expiry, price, GRANULE
        )
        if not submitted.effects.ok:
            raise RuntimeError(f"issue_and_list aborted: {submitted.effects.error}")
        return service, submitted.effects.returns[1]["listing"]


class MarketChurn:
    name = "market_churn"
    # The highest percentiles with ten samples beyond them at the minimum
    # 14 blocks (420 ops, 336 reads, 84 writes); op and read tails fall
    # among the exact-DP plans.
    tails = {"op": 97, "read": 97, "write": 88}
    max_blocks = None
    # Each block ticks the clock TICK_S and restocks up to 90 minutes ahead,
    # so 50 blocks (100 sim minutes) keep every listing, quote and plan
    # inside the 4 h asset horizon; a longer run gets a fresh deployment.
    blocks_per_env = 50

    def __init__(self, min_blocks: int = 14, setup_repeats: int = 3) -> None:
        self.min_blocks = min_blocks
        self.setup_repeats = setup_repeats

    def setup(self, seed: int) -> Env:
        return Env(seed)

    def block(self, env: Env, rng) -> list[Op]:
        kinds = list(BLOCK)
        rng.shuffle(kinds)
        return [getattr(self, f"_{kind}")(env, rng) for kind in kinds]

    # -- reads -------------------------------------------------------------------

    def _quote(self, env: Env, rng) -> Op:
        hops = rng.randrange(1, NUM_ASES + 1)
        first = rng.randrange(0, NUM_ASES - hops + 1)
        start = _aligned_after(env.clock.now(), rng.randrange(5, 60))
        flex = GRANULE * rng.randrange(0, 30)
        spec = PathSpec.from_crossings(
            env.chain.crossings[first:first + hops],
            start,
            start + GRANULE * rng.randrange(2, 30),
            rng.randrange(1_000, 30_000, 100),
            flex_start=flex,
            budget_mist=rng.randrange(10**5, 10**8),
        )

        def run():
            try:
                return env.host.quote_path(env.marketplace, spec), None
            except ListingNotFound:
                return [], None

        def check(quotes) -> str | None:
            prices = [quote.price_mist for quote in quotes]
            if prices != sorted(prices):
                return "quote_path: quotes not ranked by price"
            for quote in quotes:
                if not 0 <= quote.offset <= flex or len(quote.hops) != hops:
                    return f"quote_path: quote outside {spec}"
            return None

        return Op(READ, run, check)

    def _plan(self, env: Env, rng, infeasible: bool = False) -> Op:
        if infeasible:
            hops, slots, share = NUM_ASES, 24, 300
        else:
            hops, slots, share = rng.randrange(1, NUM_ASES + 1), rng.randrange(10, 20), rng.randrange(5, 15)
        first = rng.randrange(0, NUM_ASES - hops + 1)
        release = _aligned_after(env.clock.now(), rng.randrange(5, 60))
        window = GRANULE * slots
        bytes_total = SEED_KBPS * window * BYTES_PER_KBPS_SECOND * share // 100
        transfer = DeadlineTransfer(
            crossings=env.chain.crossings[first:first + hops],
            bytes_total=bytes_total,
            release=release,
            deadline=release + window,
            # Room for twice the dearest listing on both directions of every hop.
            budget_mist=4 * hops * (bytes_total // BYTES_PER_KBPS_SECOND) * MAX_PRICE // MICROMIST,
        )

        def run():
            try:
                return env.transfers.plan(transfer), None
            except InfeasibleTransfer:
                return None, None

        def check(plan) -> str | None:
            if plan is None:
                return None
            if plan.spend_mist > transfer.budget_mist:
                return f"plan spends {plan.spend_mist} MIST over its {transfer.budget_mist} budget"
            if not plan.meets_request:
                return "feasible plan does not carry the requested bytes"
            return None

        return Op(READ, run, check)

    def _plan_infeasible(self, env: Env, rng) -> Op:
        return self._plan(env, rng, infeasible=True)

    # -- writes ------------------------------------------------------------------

    def _restock(self, env: Env, rng) -> Op:
        order = env.restock_order(rng)

        def run():
            env.restocks.append(env.list(*order))
            return None, None

        return Op(WRITE, run, lambda _: None)

    def _cancel(self, env: Env, rng) -> Op:
        def run():
            indexer = env.deployment.indexer
            indexer.sync()
            while env.restocks:
                service, listing = env.restocks.popleft()
                if indexer.listing(listing) is not None:  # not bought out
                    return service.cancel_listing(env.marketplace, listing), None
            raise RuntimeError("no restocked listing left to cancel")

        def check(submitted) -> str | None:
            return None if submitted.effects.ok else f"cancel aborted: {submitted.effects.error}"

        return Op(WRITE, run, check)

    def _buy(self, env: Env, rng) -> Op:
        _, crossing, is_ingress, interface = env.directions[rng.randrange(len(env.directions))]
        cell = (_aligned_after(env.clock.now(), 5) - T0) // BUY_CELL_S
        start = T0 + (cell + rng.randrange(1, 5)) * BUY_CELL_S
        query = ListingQuery(
            isd_as=crossing.isd_as,
            interface=interface,
            is_ingress=is_ingress,
            start=start,
            expiry=start + BUY_CELL_S,
            bandwidth_kbps=rng.choice((1_000, 2_000)),
        )

        def run():
            candidate = env.deployment.indexer.best(query)
            if candidate is None:
                raise RuntimeError(f"nothing to buy for {query}")
            buy = Command(
                "market",
                "buy",
                {
                    "marketplace": env.marketplace,
                    "listing": candidate.listing.listing_id,
                    "start": candidate.start,
                    "expiry": candidate.expiry,
                    "bandwidth_kbps": query.bandwidth_kbps,
                    "payment": env.host.payment_coin,
                },
            )
            submitted = env.host.executor.submit(
                Transaction(sender=env.host_address, commands=[buy])
            )
            return (candidate, submitted), None

        def check(value) -> str | None:
            candidate, submitted = value
            if not submitted.effects.ok:
                return f"buy aborted: {submitted.effects.error}"
            paid = submitted.effects.returns[0]["price_mist"]
            if paid != candidate.price_mist:
                return f"buy paid {paid} MIST, indexer priced {candidate.price_mist}"
            return None

        return Op(WRITE, run, check)

    def _tick(self, env: Env, rng) -> Op:
        def run():
            env.clock.advance(TICK_S)
            services = env.deployment.services.values()
            return sum(service.expire_commitments() for service in services), None

        return Op(WRITE, run, lambda _: None)

    # -- end of a deployment -------------------------------------------------------

    def final_check(self, env: Env) -> list[str]:
        """The incremental index must equal a full rebuild from the ledger."""
        indexer = env.deployment.indexer
        indexer.sync()
        indexed = {record.listing_id: record for record in indexer.listings()}
        rebuilt = {
            record.listing_id: record
            for record in iter_listings(env.deployment.ledger, env.marketplace)
        }
        if indexed != rebuilt:
            return [
                f"indexer holds {len(indexed)} listings, a full rebuild {len(rebuilt)}; "
                f"{len(set(indexed) ^ set(rebuilt))} differ"
            ]
        return []

    def counters(self, env: Env) -> dict:
        services = env.deployment.services.values()
        return {"controlplane.undeliverable": sum(len(s.undeliverable) for s in services)}
