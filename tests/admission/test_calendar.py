"""Capacity calendar: step-function accounting, bulk path, commitment surgery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission import AdmissionRejected, CapacityCalendar


class TestPointOperations:
    def test_empty_calendar_has_zero_commitment(self):
        calendar = CapacityCalendar(1000)
        assert calendar.peak_commitment(0, 100) == 0
        assert calendar.headroom(0, 100) == 1000
        assert calendar.utilization(0, 100) == 0.0

    def test_admit_tracks_peak(self):
        calendar = CapacityCalendar(1000)
        calendar.admit(600, 0, 100)
        assert calendar.peak_commitment(0, 100) == 600
        assert calendar.peak_commitment(50, 150) == 600
        assert calendar.peak_commitment(100, 200) == 0  # half-open: ends at 100

    def test_overlapping_windows_stack(self):
        calendar = CapacityCalendar(1000)
        calendar.admit(400, 0, 100)
        calendar.admit(400, 50, 150)
        assert calendar.peak_commitment(0, 150) == 800
        assert calendar.peak_commitment(0, 50) == 400
        assert calendar.peak_commitment(100, 150) == 400

    def test_over_capacity_rejected(self):
        calendar = CapacityCalendar(1000)
        calendar.admit(600, 0, 100)
        with pytest.raises(AdmissionRejected):
            calendar.admit(600, 50, 150)
        # The failed admit left no residue.
        assert calendar.peak_commitment(0, 200) == 600
        # Disjoint in time still fits.
        calendar.admit(600, 100, 200)

    def test_exact_fill_admitted(self):
        calendar = CapacityCalendar(1000)
        calendar.admit(1000, 0, 100)
        assert calendar.headroom(0, 100) == 0

    def test_release_restores_headroom(self):
        calendar = CapacityCalendar(1000)
        commitment = calendar.admit(800, 0, 100)
        calendar.release(commitment.commitment_id)
        assert calendar.peak_commitment(0, 100) == 0
        assert calendar.boundary_count == 0  # change points fully coalesced
        with pytest.raises(KeyError):
            calendar.release(commitment.commitment_id)

    def test_release_interior_window(self):
        calendar = CapacityCalendar(1000)
        calendar.admit(100, 0, 300)
        inner = calendar.admit(200, 100, 200)
        calendar.release(inner.commitment_id)
        assert calendar.peak_commitment(0, 300) == 100
        assert calendar.boundary_count == 2  # only [0, 300) edges remain

    def test_mean_commitment_is_time_weighted(self):
        calendar = CapacityCalendar(1000)
        calendar.admit(400, 0, 100)
        assert calendar.mean_commitment(0, 200) == pytest.approx(200.0)
        assert calendar.mean_commitment(0, 100) == pytest.approx(400.0)

    def test_invalid_inputs(self):
        calendar = CapacityCalendar(1000)
        with pytest.raises(ValueError):
            calendar.peak_commitment(10, 10)
        with pytest.raises(ValueError):
            calendar.admit(0, 0, 10)
        with pytest.raises(ValueError):
            calendar.admit(10, 5, 5)
        with pytest.raises(ValueError):
            CapacityCalendar(0)

    def test_float_bandwidth_coerced_and_drains_to_zero(self):
        """Commit and release must move the same value: a float input is
        coerced once, so release leaves no fractional residue."""
        calendar = CapacityCalendar(1000)
        commitment = calendar.admit(100.7, 0, 10)
        assert commitment.bandwidth_kbps == 100
        assert calendar.peak_commitment(0, 10) == 100
        calendar.release(commitment.commitment_id)
        assert calendar.peak_commitment(0, 10) == 0
        assert calendar.boundary_count == 0

    def test_expire_releases_ended_commitments(self):
        calendar = CapacityCalendar(1000)
        calendar.admit(100, 0, 50)
        keep = calendar.admit(100, 0, 200)
        assert calendar.expire(100) == 1
        assert calendar.commitment_count == 1
        assert calendar.get(keep.commitment_id) is keep

    def test_tag_peak_isolates_one_owner(self):
        calendar = CapacityCalendar(1000)
        calendar.admit(300, 0, 100, tag="alice")
        calendar.admit(200, 50, 150, tag="alice")
        calendar.admit(400, 0, 150, tag="bob")
        assert calendar.tag_peak("alice", 0, 150) == 500
        assert calendar.tag_peak("bob", 0, 150) == 400
        assert calendar.tag_peak("carol", 0, 150) == 0


class TestCommitmentSurgery:
    def test_split_time_preserves_profile(self):
        calendar = CapacityCalendar(1000)
        commitment = calendar.admit(400, 0, 100, tag="alice")
        first, second = calendar.split_time(commitment.commitment_id, 40)
        assert (first.start, first.end) == (0, 40)
        assert (second.start, second.end) == (40, 100)
        assert calendar.peak_commitment(0, 100) == 400
        calendar.release(second.commitment_id)
        assert calendar.peak_commitment(0, 40) == 400
        assert calendar.peak_commitment(40, 100) == 0

    def test_split_bandwidth_preserves_profile(self):
        calendar = CapacityCalendar(1000)
        commitment = calendar.admit(400, 0, 100)
        first, second = calendar.split_bandwidth(commitment.commitment_id, 150)
        assert first.bandwidth_kbps == 250 and second.bandwidth_kbps == 150
        assert calendar.peak_commitment(0, 100) == 400
        calendar.release(second.commitment_id)
        assert calendar.peak_commitment(0, 100) == 250

    def test_fuse_time_adjacent(self):
        calendar = CapacityCalendar(1000)
        commitment = calendar.admit(400, 0, 100)
        first, second = calendar.split_time(commitment.commitment_id, 40)
        fused = calendar.fuse(first.commitment_id, second.commitment_id)
        assert (fused.start, fused.end, fused.bandwidth_kbps) == (0, 100, 400)
        assert calendar.commitment_count == 1

    def test_fuse_same_window(self):
        calendar = CapacityCalendar(1000)
        a = calendar.admit(100, 0, 50)
        b = calendar.admit(200, 0, 50)
        fused = calendar.fuse(a.commitment_id, b.commitment_id)
        assert fused.bandwidth_kbps == 300
        assert calendar.peak_commitment(0, 50) == 300

    def test_fuse_incompatible_rejected(self):
        calendar = CapacityCalendar(1000)
        a = calendar.admit(100, 0, 50)
        b = calendar.admit(200, 60, 90)
        before = calendar.fingerprint()
        with pytest.raises(ValueError):
            calendar.fuse(a.commitment_id, b.commitment_id)
        # A commitment fused with itself must not lose its record (and
        # with it the only way to release its bandwidth).
        with pytest.raises(ValueError):
            calendar.fuse(a.commitment_id, a.commitment_id)
        assert calendar.fingerprint() == before
        assert calendar.commitment_count == 2

    def test_invalid_split_leaves_commitment_intact(self):
        calendar = CapacityCalendar(1000)
        commitment = calendar.admit(400, 0, 100)
        with pytest.raises(ValueError):
            calendar.split_time(commitment.commitment_id, 100)
        with pytest.raises(ValueError):
            calendar.split_bandwidth(commitment.commitment_id, 400)
        assert calendar.get(commitment.commitment_id) is commitment

    def test_transfer_changes_tag_only(self):
        calendar = CapacityCalendar(1000)
        commitment = calendar.admit(400, 0, 100, tag="alice")
        moved = calendar.transfer(commitment.commitment_id, "bob")
        assert moved.commitment_id == commitment.commitment_id
        assert calendar.tag_peak("bob", 0, 100) == 400
        assert calendar.tag_peak("alice", 0, 100) == 0


class TestBulkPath:
    def test_bulk_matches_scalar(self):
        rng = np.random.default_rng(7)
        calendar = CapacityCalendar(10**9)
        for _ in range(200):
            start = int(rng.integers(0, 1000))
            calendar.commit(int(rng.integers(1, 50)), start, start + int(rng.integers(1, 100)))
        starts = rng.integers(0, 1100, 400).astype(float)
        ends = starts + rng.integers(1, 120, 400)
        bulk = calendar.bulk_peak(starts, ends)
        scalar = [calendar.peak_commitment(s, e) for s, e in zip(starts, ends)]
        assert bulk.tolist() == scalar

    def test_bulk_matches_scalar_across_block_boundaries(self):
        """Wide windows overlap thousands of boundaries, so the two-level
        range maximum exercises whole blocks, not just block edges."""
        rng = np.random.default_rng(3)
        calendar = CapacityCalendar(10**9)
        starts = rng.uniform(0, 10_000, 5000)
        calendar.commit_batch(
            rng.integers(1, 50, 5000), starts, starts + rng.uniform(1, 500, 5000),
            track=False,
        )
        qs = rng.uniform(0, 11_000, 100)
        qe = qs + rng.uniform(1, 5000, 100)
        bulk = calendar.bulk_peak(qs, qe)
        scalar = [calendar.peak_commitment(s, e) for s, e in zip(qs, qe)]
        assert bulk.tolist() == scalar

    def test_bulk_cache_invalidated_by_mutation(self):
        calendar = CapacityCalendar(1000)
        calendar.commit(100, 0, 100)
        assert calendar.bulk_peak([0.0], [50.0]).tolist() == [100]
        calendar.commit(200, 0, 100)
        assert calendar.bulk_peak([0.0], [50.0]).tolist() == [300]

    def test_bulk_admissible_scalar_and_array_bandwidth(self):
        calendar = CapacityCalendar(1000)
        calendar.commit(600, 0, 100)
        admissible = calendar.bulk_admissible(500, [0.0, 100.0], [50.0, 200.0])
        assert admissible.tolist() == [False, True]
        admissible = calendar.bulk_admissible([400, 1500], [0.0, 100.0], [50.0, 200.0])
        assert admissible.tolist() == [True, False]

    def test_bulk_empty_and_invalid(self):
        calendar = CapacityCalendar(1000)
        assert calendar.bulk_peak([], []).size == 0
        with pytest.raises(ValueError):
            calendar.bulk_peak([0.0], [0.0])
        with pytest.raises(ValueError):
            calendar.bulk_peak([0.0, 1.0], [1.0])
        with pytest.raises(ValueError, match="finite"):
            calendar.commit_batch([10], [0.0], [float("inf")])
        assert calendar.commitment_count == 0
        assert calendar.peak_commitment(0.0, 1e9) == 0

    def test_commit_batch_equals_sequential(self):
        rng = np.random.default_rng(11)
        batch = CapacityCalendar(10**9)
        sequential = CapacityCalendar(10**9)
        bandwidths = rng.integers(1, 50, 150)
        starts = rng.integers(0, 500, 150).astype(float)
        ends = starts + rng.integers(1, 80, 150)
        batch.commit_batch(bandwidths, starts, ends, track=False)
        for bw, s, e in zip(bandwidths, starts, ends):
            sequential.commit(int(bw), float(s), float(e))
        qs = rng.integers(0, 600, 200).astype(float)
        qe = qs + rng.integers(1, 100, 200)
        assert batch.bulk_peak(qs, qe).tolist() == sequential.bulk_peak(qs, qe).tolist()

    def test_commit_batch_on_top_of_existing(self):
        calendar = CapacityCalendar(10**9)
        calendar.commit(100, 0, 100)
        calendar.commit_batch([50, 50], [50.0, 200.0], [150.0, 300.0], track=False)
        assert calendar.peak_commitment(0, 300) == 150
        assert calendar.peak_commitment(200, 300) == 50

    def test_commit_batch_tracked_commitments_releasable(self):
        calendar = CapacityCalendar(1000)
        commitments = calendar.commit_batch([100, 200], [0.0, 0.0], [50.0, 50.0])
        assert calendar.peak_commitment(0, 50) == 300
        calendar.release(commitments[0].commitment_id)
        assert calendar.peak_commitment(0, 50) == 200

    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 100),  # bandwidth
                st.integers(0, 300),  # start
                st.integers(1, 60),  # length
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_peak_matches_brute_force(self, rows):
        """The step function agrees with per-unit-time brute force."""
        calendar = CapacityCalendar(10**9)
        for bandwidth, start, length in rows:
            calendar.commit(bandwidth, start, start + length)
        horizon = max(start + length for _, start, length in rows) + 2
        brute = [0] * horizon
        for bandwidth, start, length in rows:
            for t in range(start, start + length):
                brute[t] += bandwidth
        for window_start in range(0, horizon - 1, 7):
            window_end = min(window_start + 13, horizon)
            expected = max(brute[window_start:window_end])
            assert calendar.peak_commitment(window_start, window_end) == expected
