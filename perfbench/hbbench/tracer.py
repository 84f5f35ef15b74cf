"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the program at the name each caller
looks up (a module global such as ``repro.controlplane.asclient.seal``, or
a class attribute such as ``HostClient.collect_reservations``), records
one span per call in memory, and restores every original on
:meth:`Tracer.uninstall`.  Nothing in the program changes: the untraced
run never installs it.

A span is ``[span_id, parent_id, op_id, name, start, end, ok]``.  The
benchmark opens one root ``op`` span per operation, so every layer span
carries the id of the operation that caused it, and ``parent_id`` links
it to the span that was open when it started (one thread, so spans of one
operation nest strictly).  Calls made outside an operation -- set-up and
output checks -- are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

OP_SPAN = "op"

SPAN_ID, PARENT, OP_ID, NAME, START, END, OK = range(7)


def _resolve(target: str):
    """``"pkg.module:Owner.attr"`` -> ``(owner object, attribute name)``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans around wrapped calls; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op_id = -1

    # -- recording ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [len(self.spans), parent, self.op_id, name, time.perf_counter(), 0.0, True]
        self.spans.append(record)
        self._stack.append(record[SPAN_ID])
        return record

    def _exit(self, record: list, ok: bool) -> None:
        record[END] = time.perf_counter()
        record[OK] = ok
        self._stack.pop()

    def begin_op(self, op_id: int) -> list:
        """Open the root span of one benchmark operation."""
        self.op_id = op_id
        return self._enter(OP_SPAN)

    def end_op(self, record: list, ok: bool) -> None:
        self._exit(record, ok)

    def wrap(self, name, fn, ok_of=None):
        """``fn`` recording a span per call.

        ``name`` is a span name, or a callable computing it from the call
        arguments.  ``ok_of(result)`` marks a returned result as failed
        (a raised exception always is).
        """
        enter, leave, stack = self._enter, self._exit, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # outside any op: set-up and output checks stay untraced
                return fn(*args, **kwargs)
            record = enter(name(*args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(record, False)
                raise
            leave(record, True if ok_of is None else ok_of(result))
            return result

        return traced

    # -- patching ----------------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every ``(span name, "module:Owner.attr", ok_of)`` target."""
        for name, target, ok_of in targets:
            owner, attr = _resolve(target)
            original = vars(owner)[attr]
            if isinstance(original, staticmethod):
                patched = staticmethod(self.wrap(name, original.__func__, ok_of))
            elif isinstance(original, property):
                patched = property(
                    self.wrap(name, original.fget, ok_of), original.fset, original.fdel
                )
            else:
                patched = self.wrap(name, original, ok_of)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------------

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "span_id": span[SPAN_ID],
                            "parent_id": span[PARENT],
                            "op_id": span[OP_ID],
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "ok": span[OK],
                        }
                    )
                    + "\n"
                )

    def summary(self) -> dict:
        """Per span name: calls, ok calls, busy seconds, self seconds.

        Self time is a span's duration minus the time its direct children
        cover (children never overlap: one thread).  Busy time counts each
        name once per outermost occurrence, so a recursive call is not
        counted twice.  The ``op`` entry's self time is the traced wall
        time no layer span accounts for.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        stats: dict[str, dict] = {}
        for span in self.spans:
            name = span[NAME]
            entry = stats.get(name)
            if entry is None:
                entry = stats[name] = {"calls": 0, "ok": 0, "busy_s": 0.0, "self_s": 0.0}
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["ok"] += span[OK]
            entry["self_s"] += duration - child_time[span[SPAN_ID]]
            if not self._nested_in_same_name(span):
                entry["busy_s"] += duration
        return stats

    def _nested_in_same_name(self, span: list) -> bool:
        parent = span[PARENT]
        while parent >= 0:
            ancestor = self.spans[parent]
            if ancestor[NAME] == span[NAME]:
                return True
            parent = ancestor[PARENT]
        return False
