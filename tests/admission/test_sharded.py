"""ShardedCalendar: boundary-spanning projections, O(1) expiry, wiring."""

import numpy as np
import pytest

from repro.admission import (
    AdmissionController,
    AdmissionRejected,
    CapacityCalendar,
    ProportionalShare,
    ShardedCalendar,
)

SHARD = 100.0


def sharded(capacity=1000):
    return ShardedCalendar(capacity, shard_seconds=SHARD)


class TestProjection:
    def test_spanning_commitment_projects_into_each_shard(self):
        calendar = sharded()
        calendar.commit(600, 50, 250, tag="alice")
        assert calendar.shard_count == 3
        assert calendar.commitment_count == 1  # recorded once at the top
        for window in [(50, 100), (100, 200), (200, 250), (50, 250)]:
            assert calendar.peak_commitment(*window) == 600
        assert calendar.peak_commitment(250, 300) == 0
        assert calendar.tag_peak("alice", 0, 300) == 600

    def test_exact_boundary_window_touches_one_shard(self):
        calendar = sharded()
        calendar.commit(400, 100, 200)
        assert calendar.shard_count == 1
        assert calendar.peak_commitment(0, 300) == 400

    def test_admit_rejects_over_capacity_across_boundary(self):
        calendar = sharded()
        calendar.admit(600, 50, 150)
        with pytest.raises(AdmissionRejected):
            calendar.admit(500, 140, 160)  # peak 600 spans the boundary
        assert calendar.admit(400, 140, 160).bandwidth_kbps == 400

    def test_release_restores_every_shard(self):
        calendar = sharded()
        commitment = calendar.commit(600, 50, 350)
        calendar.release(commitment.commitment_id)
        assert calendar.peak_commitment(0, 400) == 0
        assert calendar.shard_count == 0  # emptied shards are reclaimed
        with pytest.raises(KeyError):
            calendar.release(commitment.commitment_id)

    def test_absurd_shard_span_rejected(self):
        calendar = sharded()
        with pytest.raises(ValueError, match="larger shard_seconds"):
            calendar.commit(100, 0, 1e12)  # ~10^10 shards: a unit typo
        with pytest.raises(ValueError, match="larger shard_seconds"):
            calendar.commit_batch([100], [0.0], [1e12])
        assert calendar.shard_count == 0  # rejected before materializing

    def test_missing_shards_count_as_level_zero(self):
        calendar = sharded()
        calendar.commit(500, 0, 50)
        calendar.commit(300, 950, 1000)
        assert calendar.peak_commitment(0, 1000) == 500
        assert calendar.headroom(400, 600) == 1000
        assert calendar.mean_commitment(0, 100) == pytest.approx(250.0)


class TestBulkPath:
    def test_bulk_peak_partitions_per_shard(self):
        mono = CapacityCalendar(100_000)
        shard = sharded(100_000)
        rng = np.random.default_rng(5)
        bandwidths = rng.integers(1, 500, 400)
        starts = rng.uniform(0, 900, 400)
        ends = starts + rng.uniform(1, 350, 400)
        mono.commit_batch(bandwidths, starts, ends, track=False)
        shard.commit_batch(bandwidths, starts, ends, track=False)
        query_starts = rng.uniform(0, 1200, 300)
        query_ends = query_starts + rng.uniform(1, 400, 300)
        assert np.array_equal(
            mono.bulk_peak(query_starts, query_ends),
            shard.bulk_peak(query_starts, query_ends),
        )
        assert np.array_equal(
            mono.bulk_admissible(400, query_starts, query_ends),
            shard.bulk_admissible(400, query_starts, query_ends),
        )

    def test_bulk_peak_empty_and_invalid(self):
        calendar = sharded()
        assert calendar.bulk_peak([], []).size == 0
        with pytest.raises(ValueError):
            calendar.bulk_peak([10.0], [10.0])

    def test_tracked_batch_is_individually_releasable(self):
        calendar = sharded()
        commitments = calendar.commit_batch(
            [100, 200], [50, 150], [250, 350], tag="bulk"
        )
        assert len(commitments) == 2
        calendar.release(commitments[0].commitment_id)
        assert calendar.peak_commitment(0, 400) == 200
        calendar.release(commitments[1].commitment_id)
        assert calendar.peak_commitment(0, 400) == 0


class TestExpire:
    def test_whole_shards_behind_now_are_dropped(self):
        calendar = sharded()
        rng = np.random.default_rng(9)
        starts = rng.uniform(0, 900, 500)
        calendar.commit_batch(
            rng.integers(1, 100, 500), starts, starts + 30, track=False
        )
        shards_before = calendar.shard_count
        assert calendar.expire(500.0) == 0  # untracked: nothing to count
        assert calendar.shard_count < shards_before
        assert all(key * SHARD >= 400 for key in calendar._shards)

    def test_expire_counts_and_releases_like_monolithic(self):
        mono = CapacityCalendar(10_000)
        shard = sharded(10_000)
        windows = [(0, 80), (80, 100), (90, 210), (150, 430), (300, 500)]
        for index, (start, end) in enumerate(windows):
            mono.commit(100, start, end, tag=f"t{index}")
            shard.commit(100, start, end, tag=f"t{index}")
        for now in (100, 150, 210, 1000):
            assert mono.expire(now) == shard.expire(now), now
            assert mono.commitment_count == shard.commitment_count
        assert shard.commitment_count == 0

    def test_active_spanning_commitment_survives_shard_drop(self):
        calendar = sharded()
        spanning = calendar.commit(500, 50, 450, tag="live")
        assert calendar.expire(200.0) == 0  # still active: not released
        # History behind now is forgotten with the dropped shard, but the
        # live tail is intact and still releasable.
        assert calendar.peak_commitment(200, 450) == 500
        calendar.release(spanning.commitment_id)
        assert calendar.peak_commitment(200, 450) == 0

    def test_end_exactly_at_now_expires(self):
        calendar = sharded()
        calendar.commit(100, 20, 200)
        assert calendar.expire(200.0) == 1
        assert calendar.commitment_count == 0


class TestSurgery:
    def test_split_time_across_boundary(self):
        calendar = sharded()
        spanning = calendar.commit(300, 50, 250, tag="a")
        first, second = calendar.split_time(spanning.commitment_id, 120.0)
        assert (first.start, first.end) == (50, 120)
        assert (second.start, second.end) == (120, 250)
        assert calendar.peak_commitment(0, 300) == 300  # profile unchanged
        calendar.release(first.commitment_id)
        assert calendar.peak_commitment(50, 120) == 0
        assert calendar.peak_commitment(120, 250) == 300

    def test_split_time_at_shard_boundary(self):
        calendar = sharded()
        spanning = calendar.commit(300, 50, 250)
        first, second = calendar.split_time(spanning.commitment_id, 100.0)
        calendar.release(second.commitment_id)
        assert calendar.peak_commitment(50, 100) == 300
        assert calendar.peak_commitment(100, 250) == 0

    def test_split_bandwidth_and_fuse_roundtrip(self):
        calendar = sharded()
        spanning = calendar.commit(300, 50, 250, tag="a")
        thick, thin = calendar.split_bandwidth(spanning.commitment_id, 100)
        assert (thick.bandwidth_kbps, thin.bandwidth_kbps) == (200, 100)
        assert calendar.peak_commitment(0, 300) == 300
        fused = calendar.fuse(thick.commitment_id, thin.commitment_id)
        assert fused.bandwidth_kbps == 300
        calendar.release(fused.commitment_id)
        assert calendar.peak_commitment(0, 300) == 0

    def test_fused_commitment_splits_again(self):
        # Same-window fusion must stack the per-shard pieces too; a fused
        # commitment whose inner pieces kept their pre-fusion bandwidth
        # would reject a later split_bandwidth at the fused total.
        calendar = sharded()
        spanning = calendar.commit(300, 50, 250, tag="a")
        thick, thin = calendar.split_bandwidth(spanning.commitment_id, 100)
        fused = calendar.fuse(thick.commitment_id, thin.commitment_id)
        head, tail = calendar.split_bandwidth(fused.commitment_id, 250)
        assert (head.bandwidth_kbps, tail.bandwidth_kbps) == (50, 250)
        assert calendar.peak_commitment(0, 300) == 300
        calendar.release(tail.commitment_id)
        assert calendar.peak_commitment(50, 250) == 50

    def test_fuse_after_time_adjacent_fuse_inside_one_shard(self):
        # A time-adjacent fuse can leave two chained pieces in one shard;
        # a following same-window fuse has to coalesce each arm's chain
        # before stacking.
        calendar = sharded()
        spanning = calendar.commit(300, 20, 60, tag="a")
        first, second = calendar.split_time(spanning.commitment_id, 40.0)
        rejoined = calendar.fuse(first.commitment_id, second.commitment_id)
        thick, thin = calendar.split_bandwidth(rejoined.commitment_id, 100)
        fused = calendar.fuse(thick.commitment_id, thin.commitment_id)
        assert fused.bandwidth_kbps == 300
        head, tail = calendar.split_bandwidth(fused.commitment_id, 200)
        assert (head.bandwidth_kbps, tail.bandwidth_kbps) == (100, 200)
        assert calendar.peak_commitment(0, 100) == 300

    def test_fuse_time_adjacent_relabels_second_tag(self):
        calendar = sharded()
        first = calendar.commit(300, 50, 150, tag="a")
        second = calendar.commit(300, 150, 250, tag="b")
        fused = calendar.fuse(first.commitment_id, second.commitment_id)
        assert fused.tag == "a"
        assert calendar.tag_peak("a", 0, 300) == 300
        assert calendar.tag_peak("b", 0, 300) == 0

    def test_transfer_moves_tag_attribution_in_every_shard(self):
        calendar = sharded()
        spanning = calendar.commit(300, 50, 250, tag="a")
        moved = calendar.transfer(spanning.commitment_id, "b")
        assert moved.commitment_id == spanning.commitment_id
        assert calendar.tag_peak("a", 0, 300) == 0
        assert calendar.tag_peak("b", 0, 300) == 300

    def test_invalid_surgery_leaves_state_intact(self):
        calendar = sharded()
        spanning = calendar.commit(300, 50, 250)
        with pytest.raises(ValueError):
            calendar.split_time(spanning.commitment_id, 250.0)
        with pytest.raises(ValueError):
            calendar.split_bandwidth(spanning.commitment_id, 300)
        other = calendar.commit(100, 400, 500)
        before = calendar.fingerprint()
        with pytest.raises(ValueError):
            calendar.fuse(spanning.commitment_id, other.commitment_id)
        with pytest.raises(ValueError):
            calendar.fuse(spanning.commitment_id, spanning.commitment_id)
        assert calendar.fingerprint() == before
        assert calendar.commitment_count == 2
        assert calendar.peak_commitment(0, 600) == 300


class TestWiring:
    def test_controller_shard_knob(self):
        monolithic = AdmissionController(1000)
        assert type(monolithic.calendar(1, True)) is CapacityCalendar
        controller = AdmissionController(1000, shard_seconds=3600.0)
        calendar = controller.calendar(1, True)
        assert type(calendar) is ShardedCalendar
        assert calendar.shard_seconds == 3600.0
        assert controller.calendar(1, True) is calendar  # built once per key
        # An infinite width puts every commitment in no shard, so admission
        # would see an empty calendar and oversell the link.
        for width in (0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                AdmissionController(1000, shard_seconds=width)
            with pytest.raises(ValueError):
                ShardedCalendar(1000, shard_seconds=width)

    def test_policies_run_against_sharded_calendars(self):
        controller = AdmissionController(
            1000, policy=ProportionalShare(0.5), shard_seconds=SHARD
        )
        granted = controller.admit_issue(1, True, 400, 50.0, 250.0, tag="alice")
        assert granted.admitted
        capped = controller.admit_issue(1, True, 200, 150.0, 350.0, tag="alice")
        assert not capped.admitted  # 400 + 200 > 50% of 1000
        assert controller.quote(50, 1, True, 50.0, 250.0) >= 50
        controller.release(1, True, granted.commitment)
        assert controller.expire(1_000.0) == 0

    def test_as_service_threads_shard_seconds(self):
        import inspect

        from repro.controlplane.asclient import AsService
        from repro.controlplane.workflow import deploy_market
        from repro.netsim.scenarios import contention_experiment

        for callable_ in (AsService.__init__, deploy_market, contention_experiment):
            assert "shard_seconds" in inspect.signature(callable_).parameters
