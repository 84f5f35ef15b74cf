"""Registry unit tests: buckets, cardinality guard, null fast path."""

import math

import pytest

from repro.telemetry import (
    DEFAULT_BUCKETS,
    LabelCardinalityError,
    MetricsRegistry,
    NULL_REGISTRY,
    get_registry,
    set_registry,
)
from repro.telemetry.registry import _NULL_INSTRUMENT


# -- histogram bucket boundaries ----------------------------------------------


def test_histogram_edge_observation_lands_in_its_bucket():
    registry = MetricsRegistry()
    child = registry.histogram("h", buckets=(1.0, 2.0, 4.0)).labels()
    child.observe(2.0)  # exactly on an edge: the bucket with bound >= value
    assert child.counts == [0, 1, 0, 0]
    child.observe(1.5)
    assert child.counts == [0, 2, 0, 0]
    child.observe(0.0)
    assert child.counts == [1, 2, 0, 0]


def test_histogram_overflow_bucket():
    registry = MetricsRegistry()
    child = registry.histogram("h", buckets=(1.0, 2.0)).labels()
    child.observe(99.0)
    assert child.counts == [0, 0, 1]
    assert child.count == 1
    assert child.sum == 99.0
    # The overflow bucket reports the last finite edge for any quantile.
    assert child.quantile(0.5) == 2.0


def test_histogram_bucket_count_is_edges_plus_one():
    registry = MetricsRegistry()
    child = registry.histogram("h", buckets=DEFAULT_BUCKETS).labels()
    assert len(child.counts) == len(DEFAULT_BUCKETS) + 1


def test_histogram_unsorted_buckets_are_sorted():
    registry = MetricsRegistry()
    family = registry.histogram("h", buckets=(4.0, 1.0, 2.0))
    assert list(family.bounds) == [1.0, 2.0, 4.0]


def test_histogram_empty_bucket_list_rejected():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.histogram("h", buckets=())


def test_quantile_empty_and_range():
    registry = MetricsRegistry()
    child = registry.histogram("h", buckets=(1.0,)).labels()
    assert math.isnan(child.quantile(0.5))
    with pytest.raises(ValueError):
        child.quantile(1.5)
    with pytest.raises(ValueError):
        child.quantile(-0.1)


def test_quantile_interpolates_within_bucket():
    registry = MetricsRegistry()
    child = registry.histogram("h", buckets=(1.0, 2.0)).labels()
    for _ in range(10):
        child.observe(1.5)  # all ten in the (1, 2] bucket
    # rank q*10 sits inside the bucket; interpolation stays within its edges
    assert 1.0 <= child.quantile(0.1) <= 2.0
    assert child.quantile(1.0) == 2.0
    assert child.mean == pytest.approx(1.5)


# -- label cardinality guard --------------------------------------------------


def test_label_cardinality_guard_trips():
    registry = MetricsRegistry(max_label_sets=3)
    family = registry.counter("c", labelnames=("id",))
    for value in range(3):
        family.labels(value).inc()
    with pytest.raises(LabelCardinalityError):
        family.labels("one-too-many")
    # Existing children keep working after the guard trips.
    family.labels(0).inc()
    assert family.labels(0).value == 2.0


def test_labels_arity_checked():
    registry = MetricsRegistry()
    family = registry.gauge("g", labelnames=("a", "b"))
    with pytest.raises(ValueError):
        family.labels("only-one")


def test_labels_are_stringified_and_cached():
    registry = MetricsRegistry()
    family = registry.counter("c", labelnames=("interface",))
    assert family.labels(3) is family.labels("3")


def test_redeclare_same_schema_returns_same_family():
    registry = MetricsRegistry()
    first = registry.counter("c", "help", ("x",))
    assert registry.counter("c", "other help", ("x",)) is first


def test_redeclare_different_schema_rejected():
    registry = MetricsRegistry()
    registry.counter("c", labelnames=("x",))
    with pytest.raises(ValueError):
        registry.counter("c", labelnames=("y",))
    with pytest.raises(ValueError):
        registry.gauge("c", labelnames=("x",))


# -- null-recorder fast path --------------------------------------------------


def test_null_registry_hands_out_one_noop_singleton():
    assert NULL_REGISTRY.counter("a") is _NULL_INSTRUMENT
    assert NULL_REGISTRY.gauge("b") is _NULL_INSTRUMENT
    assert NULL_REGISTRY.histogram("c") is _NULL_INSTRUMENT
    assert _NULL_INSTRUMENT.labels("any", "labels") is _NULL_INSTRUMENT
    assert not NULL_REGISTRY.enabled


def test_null_instrument_is_stateless_identity():
    before = (_NULL_INSTRUMENT.value, _NULL_INSTRUMENT.sum, _NULL_INSTRUMENT.count)
    _NULL_INSTRUMENT.inc(7)
    _NULL_INSTRUMENT.dec(3)
    _NULL_INSTRUMENT.set(42.0)
    _NULL_INSTRUMENT.observe(1.0)
    after = (_NULL_INSTRUMENT.value, _NULL_INSTRUMENT.sum, _NULL_INSTRUMENT.count)
    assert before == after == (0.0, 0.0, 0)
    assert math.isnan(_NULL_INSTRUMENT.quantile(0.5))
    assert list(NULL_REGISTRY.families()) == []


def test_set_registry_installs_and_restores():
    live = MetricsRegistry()
    previous = set_registry(live)
    try:
        assert get_registry() is live
    finally:
        assert set_registry(previous) is live
    assert get_registry() is previous
