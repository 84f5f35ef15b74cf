"""Canonical calendar fingerprints: the byte-identical-rollback oracle.

The two-phase path protocol promises that rolling a screened (or even
committed) path back leaves every upstream calendar **byte-identical** to
one that never saw the path at all.  "Byte-identical" is made precise
here: a fingerprint canonicalizes every piece of *state* a calendar
carries — step-function boundaries, levels, live commitments, tag index,
and (for sharded calendars) the shard map, end-shard index, and piece
projections — while excluding the two things that are *allocators or
caches*, not state:

* ``_ids`` — the monotonically increasing commitment-id counter.  It
  advances on every commit and never rewinds; it decides nothing about
  admission, pricing, or expiry, so two calendars that differ only in the
  next id to hand out answer every query identically.
* the lazily compiled numpy arrays behind ``bulk_peak`` (``_dirty`` /
  ``_np_*``) — derived verbatim from ``_times``/``_levels`` on demand.

Everything else is included, so a stray boundary, a leaked commitment, a
stale tag-index entry, an undropped empty shard, or a dangling projection
piece all change the fingerprint and fail the rollback property suite.
"""

from __future__ import annotations

from repro.admission.calendar import CapacityCalendar
from repro.admission.controller import AdmissionController
from repro.admission.sharded import ShardedCalendar

__all__ = [
    "calendar_fingerprint",
    "controller_fingerprint",
]


def calendar_fingerprint(calendar: CapacityCalendar | ShardedCalendar) -> tuple:
    """Hashable canonical form of one calendar's complete state.

    Two calendars with equal fingerprints answer every admission, peak,
    headroom, tag-peak, and expiry query identically; only their next
    commitment id (and compiled numpy caches) may differ.

    Delegates to the calendar's own ``fingerprint()``; monolithic and
    sharded calendars each render one canonical tuple shape.
    """
    return calendar.fingerprint()


def _is_pristine(fingerprint: tuple) -> bool:
    if fingerprint[0] == "monolithic":
        _, _, times, levels, commitments, by_tag = fingerprint
        return len(times) == 1 and levels == (0,) and not commitments and not by_tag
    _, _, _, dropped, shards, commitments, by_end, projections = fingerprint
    return not (dropped or shards or commitments or by_end or projections)


def controller_fingerprint(controller: AdmissionController) -> tuple:
    """Fingerprint of every calendar a controller has materialized.

    Calendars are created lazily, so a *rejected* admit materializes an
    empty calendar without recording any state in it.  Pristine calendars
    are therefore skipped: a controller whose only trace of a path is an
    empty lazily-created calendar fingerprints identically to one that
    never saw the path at all — which is exactly the rollback guarantee.
    """
    return tuple(
        sorted(
            (key, fingerprint)
            for key, calendar in controller._calendars.items()
            for fingerprint in [calendar_fingerprint(calendar)]
            if not _is_pristine(fingerprint)
        )
    )
