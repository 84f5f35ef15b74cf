"""Workload ``lifecycle``: one reservation lifecycle per operation.

An 8-AS ``deploy_market`` chain.  Each operation is the ROADMAP unit of
work over the first ``h`` crossings of the leaf-to-core path: a new
funded host, ``planner.best``, path admission ``screen`` + ``rollback``,
one atomic buy-and-redeem, ``poll_and_deliver`` at every on-path AS,
``collect_reservations``, then one first packet through the router of
every AS on the path with the sim clock inside the reservation window.

Read phase: the quote and the admission screen (they change no state).
Write phase: everything else in the operation.

The host-side collect scans every delivery in the ledger's history, so an
operation's cost grows with the operations before it.  Each block of 8
operations (a seeded order of h, then the same order reversed) therefore
runs on a fresh deployment, and a run is exactly 5 blocks whatever
``--seconds`` says.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from repro.admission import ACTIVE
from repro.clock import SimClock
from repro.controlplane import deploy_market
from repro.controlplane.hostclient import plan_from_quote
from repro.crypto import keys
from repro.hummingbird.router import HummingbirdRouter
from repro.hummingbird.source import HummingbirdSource
from repro.marketdata import PathSpec
from repro.scion import packet as wire
from repro.scion.router import Action
from repro.scion.topology import linear_topology

from hbbench.net import T0, Chain, forward, router_counters
from hbbench.runner import MIXED, Op

NUM_ASES = 8
HOPS = (1, 2, 4, 8)
BANDWIDTH_KBPS = 4_000
WINDOW_S = 120  # two granules: the next op's window starts at or after this one's end
LEAD_S = 60
PAYLOAD = bytes(1000)
ASSET_SECONDS = 4 * 3600


class Env:
    def __init__(self, seed: int) -> None:
        self.clock = SimClock(float(T0))
        topology = linear_topology(NUM_ASES)
        self.chain = Chain(topology)
        self.deployment = deploy_market(
            topology,
            clock=self.clock,
            seed=seed,
            asset_start=T0,
            asset_duration=ASSET_SECONDS,
        )
        self.routers = {a.isd_as: HummingbirdRouter(a, self.clock) for a in topology.ases}
        self.secrets = {a.isd_as: a.secret_value for a in topology.ases}
        self.events_scanned = 0  # position in ledger.events already counted
        self.delivered_seen = 0
        self.counters = {"collect.calls": 0, "collect.events_pending": 0, "priority_payload_bytes": 0}


class Outcome(NamedTuple):
    hops: int
    quote: object
    paid: int
    reservations: list
    collect_checkpoint: int
    verdicts: list


class Lifecycle:
    name = "lifecycle"
    # The highest percentile with ten samples beyond it at the fixed 40 ops:
    # p75 falls among the late, collect-heavy ops of a block and the h = 8 ops.
    tails = {"op": 75, "read": 75, "write": 75}
    setup_repeats = 1
    blocks_per_env = 1

    def __init__(self, blocks: int = 5) -> None:
        self.min_blocks = self.max_blocks = blocks

    def setup(self, seed: int) -> Env:
        return Env(seed)

    def block(self, env: Env, rng) -> list[Op]:
        order = list(HOPS)
        rng.shuffle(order)
        # Order then reverse: the h of the op at position k and at 7 - k sum
        # to the same total for every order, so the collects of a block scan
        # the same number of deliveries whatever the seed.
        hops = order + order[::-1]
        return [Op(MIXED, self._runner(env, h), self._checker(env)) for h in hops]

    def _runner(self, env: Env, hops: int):
        def run():
            deployment, clock = env.deployment, env.clock
            host = deployment.new_host(funding_sui=1000)
            crossings = env.chain.crossings[:hops]
            start = -(-(int(clock.now()) + LEAD_S) // 60) * 60
            read_began = time.perf_counter()
            quote = deployment.planner.best(
                PathSpec.from_crossings(crossings, start, start + WINDOW_S, BANDWIDTH_KBPS)
            )
            admission = deployment.path_admission(crossings)
            ticket = admission.screen(
                BANDWIDTH_KBPS, quote.start, quote.expiry,
                tag=host.account.address, layer=ACTIVE,
            )
            if not ticket.admitted:
                raise RuntimeError(f"path admission rejected: {ticket.reason}")
            admission.rollback(ticket)
            read_s = time.perf_counter() - read_began
            submitted = host.atomic_buy_and_redeem(deployment.marketplace, plan_from_quote(quote))
            if not submitted.effects.ok:
                raise RuntimeError(f"buy-and-redeem aborted: {submitted.effects.error}")
            for crossing in crossings:
                deployment.service(crossing.isd_as).poll_and_deliver()
            reservations = host.collect_reservations()
            collect_checkpoint = deployment.ledger.checkpoint
            clock.set(max(clock.now(), quote.start + 1))
            source = HummingbirdSource(
                env.chain.src, env.chain.dst, env.chain.path, reservations, clock
            )
            verdicts = forward(
                env.chain, env.routers, wire.encode_packet(source.build_packet(PAYLOAD))
            )
            paid = sum(ret.get("price_mist", 0) for ret in submitted.effects.returns)
            outcome = Outcome(hops, quote, paid, reservations, collect_checkpoint, verdicts)
            return outcome, read_s

        return run

    def _checker(self, env: Env):
        def check(outcome: Outcome) -> str | None:
            self._count_pending(env, outcome.collect_checkpoint)
            hops = outcome.hops
            if len(outcome.reservations) != hops:
                return f"h={hops}: decrypted {len(outcome.reservations)} reservations"
            for reservation, crossing in zip(outcome.reservations, env.chain.crossings):
                info = reservation.resinfo
                if (reservation.isd_as, info.ingress, info.egress) != (
                    crossing.isd_as, crossing.ingress, crossing.egress,
                ):
                    return f"h={hops}: reservation {reservation!r} is not for {crossing}"
                expected = keys.derive_auth_key(
                    env.secrets[reservation.isd_as], info.ingress, info.egress,
                    info.res_id, info.bw_cls, info.start, info.duration,
                )
                if reservation.auth_key != expected:
                    return f"h={hops}: auth_key of {reservation!r} differs from the AS's"
                if (info.start, info.expiry) != (outcome.quote.start, outcome.quote.expiry):
                    return f"h={hops}: reservation window differs from the quote"
            if outcome.paid != outcome.quote.price_mist:
                return f"h={hops}: paid {outcome.paid} MIST, quoted {outcome.quote.price_mist}"
            verdicts = outcome.verdicts
            if len(verdicts) != NUM_ASES or verdicts[-1][0] is not Action.DELIVER:
                return f"h={hops}: first packet ended {verdicts}"
            for index, (action, priority) in enumerate(verdicts):
                if action is Action.DROP or priority != (index < hops):
                    return f"h={hops}: hop {index} verdict {action.value}, priority {priority}"
            env.counters["priority_payload_bytes"] += len(PAYLOAD)
            return None

        return check

    def _count_pending(self, env: Env, collect_checkpoint: int) -> None:
        """Deliveries the (new) host's collect had to scan: all so far."""
        events = env.deployment.ledger.events
        while env.events_scanned < len(events):
            event = events[env.events_scanned]
            if event.checkpoint > collect_checkpoint:
                break
            env.events_scanned += 1
            if event.event_type == "ReservationDelivered":
                env.delivered_seen += 1
        env.counters["collect.calls"] += 1
        env.counters["collect.events_pending"] += env.delivered_seen

    def final_check(self, env: Env) -> list[str]:
        return []

    def counters(self, env: Env) -> dict:
        counters = dict(env.counters)
        counters.update(router_counters(env.routers.values()))
        counters["controlplane.undeliverable"] = sum(
            len(service.undeliverable) for service in env.deployment.services.values()
        )
        return counters
