"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

Design goals (ISSUE 6 tentpole):

* **lock-cheap** — instruments are plain-attribute updates; the registry is
  only locked when a *new* family or label-child is created, never on the
  hot observation path.
* **numpy-backed histograms** — a fixed bucket-edge vector shared per
  family; ``observe`` is one bisect plus three scalar adds, and quantile
  estimation vectorizes over the counts with numpy.
* **labeled** — families fan out into children via ``.labels(...)``
  (AS / interface / direction / whatever the caller declares), with a
  cardinality guard so an unbounded label set (e.g. a per-packet id) fails
  fast instead of silently eating memory.
* **null-recorder fast path** — :data:`NULL_REGISTRY` hands out no-op
  singletons, so instrumented code pays one attribute lookup + an empty
  method call when telemetry is disabled (the default).

The *active* registry is process-wide: :func:`get_registry` returns the
null registry unless ``REPRO_TELEMETRY=1`` is set in the environment or an
experiment installed a live one via :func:`set_registry` /
:class:`repro.telemetry.experiment.ExperimentTelemetry`.
"""

from __future__ import annotations

import bisect
import os
import threading
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LabelCardinalityError",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_LABEL_SETS",
    "get_registry",
    "set_registry",
]


class LabelCardinalityError(RuntimeError):
    """A metric family exceeded its label-set budget.

    Raised instead of allocating: unbounded label values (packet ids,
    timestamps, ...) are a bug in the instrumentation, not load.
    """


#: Latency-flavoured default buckets, in seconds (1 us .. 10 s).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Per-family budget of distinct label combinations.
DEFAULT_MAX_LABEL_SETS = 1024


class Counter:
    """Monotonically increasing count (one labeled child of a family)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Point-in-time value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram child: bucket counts + sum + count.

    ``bounds`` are the *upper* bucket edges; an observation lands in the
    first bucket whose bound is >= the value, with one overflow bucket past
    the last bound (so ``counts`` has ``len(bounds) + 1`` slots).  The hot
    path bisects a plain-float edge list — an order of magnitude cheaper
    than a scalar numpy ``searchsorted`` — while :meth:`quantile` vectorizes
    over the counts with numpy.
    """

    __slots__ = ("bounds", "_edges", "counts", "sum", "count")

    def __init__(self, bounds: np.ndarray) -> None:
        self.bounds = bounds
        self._edges = [float(b) for b in bounds]
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self._edges, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (q in [0, 1]) from the bucket counts.

        Linear interpolation inside the selected bucket; the overflow
        bucket reports its lower bound (the last finite edge).  Returns
        ``nan`` when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        cumulative = np.cumsum(self.counts)
        index = int(np.searchsorted(cumulative, rank, side="left"))
        if index >= len(self.bounds):  # overflow bucket
            return float(self.bounds[-1])
        lower = float(self.bounds[index - 1]) if index > 0 else 0.0
        upper = float(self.bounds[index])
        in_bucket = int(self.counts[index])
        if in_bucket == 0:
            return upper
        below = int(cumulative[index - 1]) if index > 0 else 0
        fraction = (rank - below) / in_bucket
        return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")


class _Family:
    """Shared plumbing for a named, labeled metric family."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        max_label_sets: int,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self.max_label_sets = max_label_sets
        self._children: dict[tuple, object] = {}
        self._lock = threading.Lock()

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, *values) -> object:
        """Return the child for this label combination, creating it once."""
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, got {values!r}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    if len(self._children) >= self.max_label_sets:
                        raise LabelCardinalityError(
                            f"metric {self.name!r} exceeded "
                            f"{self.max_label_sets} label sets; labels "
                            f"{self.labelnames} look unbounded"
                        )
                    child = self._make_child()
                    self._children[key] = child
        return child

    def items(self) -> Iterator[tuple[tuple, object]]:
        yield from sorted(self._children.items())


class CounterFamily(_Family):
    kind = "counter"

    def _make_child(self) -> Counter:
        return Counter()

    def labels(self, *values) -> Counter:  # narrowed return type
        return super().labels(*values)  # type: ignore[return-value]


class GaugeFamily(_Family):
    kind = "gauge"

    def _make_child(self) -> Gauge:
        return Gauge()

    def labels(self, *values) -> Gauge:
        return super().labels(*values)  # type: ignore[return-value]


class HistogramFamily(_Family):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        max_label_sets: int,
        buckets: Sequence[float],
    ) -> None:
        super().__init__(name, help, labelnames, max_label_sets)
        bounds = np.asarray(sorted(float(b) for b in buckets), dtype=np.float64)
        if len(bounds) == 0:
            raise ValueError(f"{name}: histogram needs at least one bucket bound")
        self.bounds = bounds

    def _make_child(self) -> Histogram:
        return Histogram(self.bounds)

    def labels(self, *values) -> Histogram:
        return super().labels(*values)  # type: ignore[return-value]


class MetricsRegistry:
    """Container of metric families, keyed by name.

    Re-declaring a family with the same name and matching schema returns
    the existing one (so modules can declare instruments independently);
    a schema mismatch raises.
    """

    enabled = True

    def __init__(self, max_label_sets: int = DEFAULT_MAX_LABEL_SETS) -> None:
        self.max_label_sets = max_label_sets
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _declare(self, cls, name: str, help: str, labelnames, **kwargs) -> _Family:
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} re-declared with a different schema"
                    )
                return existing
            family = cls(name, help, labelnames, self.max_label_sets, **kwargs)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> CounterFamily:
        return self._declare(CounterFamily, name, help, labelnames)  # type: ignore[return-value]

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> GaugeFamily:
        return self._declare(GaugeFamily, name, help, labelnames)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> HistogramFamily:
        return self._declare(
            HistogramFamily, name, help, labelnames, buckets=buckets
        )  # type: ignore[return-value]

    def families(self) -> Iterator[_Family]:
        yield from (self._families[name] for name in sorted(self._families))


class _NullInstrument:
    """No-op counter/gauge/histogram: every method is an empty call."""

    __slots__ = ()
    value = 0.0
    sum = 0.0
    count = 0

    def labels(self, *values) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return float("nan")

    def items(self):
        return iter(())


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """Disabled-telemetry registry: hands out the shared no-op instrument."""

    enabled = False
    max_label_sets = DEFAULT_MAX_LABEL_SETS

    def counter(self, name: str, help: str = "", labelnames=()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", labelnames=()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, help: str = "", labelnames=(), buckets=DEFAULT_BUCKETS
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def families(self):
        return iter(())


NULL_REGISTRY = NullRegistry()

_active: MetricsRegistry | NullRegistry = (
    MetricsRegistry() if os.environ.get("REPRO_TELEMETRY") == "1" else NULL_REGISTRY
)


def get_registry() -> MetricsRegistry | NullRegistry:
    """The process-wide active registry (null unless enabled)."""
    return _active


def set_registry(registry: MetricsRegistry | NullRegistry) -> MetricsRegistry | NullRegistry:
    """Install ``registry`` as the active one; returns the previous."""
    global _active
    previous = _active
    _active = registry
    return previous
