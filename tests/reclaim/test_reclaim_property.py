"""Property suite: reclamation is safe on both calendar layouts.

Two invariants, driven by hypothesis:

(a) the reclamation engine never shrinks a commitment below the observed
    rate — ``retain_headroom >= 1`` and the min-retained floor guarantee
    the interface keeps headroom for traffic the data plane has seen;
(b) one interleaving of commit/reclaim/release produces identical
    verdicts and identical headroom profiles on the monolithic and
    sharded calendars.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission import ACTIVE, AdmissionController, CapacityCalendar, ShardedCalendar
from repro.reclaim import ReclamationEngine, UsageReporter

SHARD = 100.0
CAPACITY = 1_000_000
HORIZON = 1_000.0

# -- (a) reclaim never dips below observed usage --------------------------------


@settings(max_examples=60, deadline=None)
@given(
    booked=st.integers(1, 5_000),
    observed_bytes=st.integers(0, 2_000_000),
    threshold=st.floats(0.05, 1.0),
    headroom_factor=st.floats(1.0, 3.0),
    min_retained=st.integers(1, 50),
)
def test_reclaim_never_lowers_headroom_below_observed(
    booked, observed_bytes, threshold, headroom_factor, min_retained
):
    controller = AdmissionController(100_000)
    decision = controller.admit_reservation(1, True, booked, 0.0, 100.0, tag="p")
    assert decision.admitted
    usage = {1: {7: observed_bytes}}
    reporter = UsageReporter(lambda: usage, interval=0.1)
    engine = ReclamationEngine(
        controller,
        reporter,
        grace_seconds=0.0,
        no_show_threshold=threshold,
        retain_headroom=headroom_factor,
        min_retained_kbps=min_retained,
    )
    engine.track(
        7, 1, booked, 0.0, 100.0, [(1, True, decision.commitment.commitment_id)]
    )
    now = 10.0
    events = engine.scan(now)
    observed_kbps = observed_bytes * 8.0 / 1000.0 / now
    tracked = engine.tracked(7)
    calendar = controller.calendar(1, True, ACTIVE)

    no_show = observed_kbps < threshold * booked
    target = max(min_retained, math.ceil(observed_kbps * headroom_factor))
    if no_show and target < booked:
        assert len(events) == 1
        assert tracked.reclaimed_to_kbps == target
        # The retained rate covers everything the data plane observed.
        assert tracked.reclaimed_to_kbps >= observed_kbps
        assert calendar.headroom(0.0, 100.0) == 100_000 - target
    else:
        assert events == []
        assert tracked.reclaimed_at is None
        assert calendar.headroom(0.0, 100.0) == 100_000 - booked


# -- (b) layout equivalence under random interleavings -------------------------

OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("commit"),
            st.integers(1, 400),  # bandwidth
            st.integers(0, 18),  # start slot (x50s)
            st.integers(1, 6),  # duration slots
        ),
        st.tuples(
            st.just("reclaim"),
            st.integers(0, 30),  # which live commitment
            st.integers(0, 130),  # target, percent of current bandwidth
        ),
        st.tuples(st.just("release"), st.integers(0, 30), st.just(0)),
    ),
    min_size=1,
    max_size=24,
)


def _run(calendar, ops):
    """Apply one op sequence; return a verdict per op plus headroom probes."""
    verdicts = []
    live = []
    for op in ops:
        if op[0] == "commit":
            _, bandwidth, slot, length = op
            piece = calendar.commit(
                bandwidth, slot * 50.0, min(HORIZON, (slot + length) * 50.0), "p"
            )
            live.append((piece.commitment_id, bandwidth))
            verdicts.append(("committed", piece.bandwidth_kbps))
        elif not live:
            verdicts.append(("noop", None))
        elif op[0] == "reclaim":
            _, index, percent = op
            slot = index % len(live)
            commitment_id, bandwidth = live[slot]
            target = bandwidth * percent // 100
            try:
                shrunk = calendar.reclaim(commitment_id, target)
            except ValueError:
                verdicts.append(("rejected", None))
            else:
                live[slot] = (commitment_id, shrunk.bandwidth_kbps)
                verdicts.append(("reclaimed", shrunk.bandwidth_kbps))
        else:
            _, index, _ = op
            released = calendar.release(live.pop(index % len(live))[0])
            verdicts.append(("released", released.bandwidth_kbps))
    probes = tuple(
        calendar.headroom(t, t + 50.0) for t in range(0, int(HORIZON), 50)
    )
    return verdicts, probes


@settings(max_examples=80, deadline=None)
@given(ops=OPS)
def test_monolithic_and_sharded_verdicts_identical(ops):
    mono = _run(CapacityCalendar(CAPACITY), ops)
    sharded = _run(ShardedCalendar(CAPACITY, shard_seconds=SHARD), ops)
    assert mono == sharded
