"""Thread-safe metrics registry: counters, gauges, fixed-bucket histograms.

This module is the foundation of the ``obs`` layer and therefore imports
*nothing* from the rest of the package (the layering DAG places ``obs``
below even ``core``): every other layer may publish into a registry, so
the registry may depend on none of them.

The model follows the Prometheus client conventions, reduced to what a
single-process reproduction needs:

* a **metric family** is created (idempotently) on a registry with a
  name, a help string, and an optional tuple of label names;
* a family with labels hands out **children** via ``labels(...)``; a
  family without labels is its own only child;
* counters only go up, gauges go anywhere, histograms count
  observations into fixed, cumulative ``le`` buckets (Prometheus
  semantics: an observation lands in every bucket whose upper bound is
  ``>= value``, rendering adds the ``+Inf`` bucket, ``_sum`` and
  ``_count``).

All mutation is lock-protected — counts must be exact under the HTTP
server's one-thread-per-connection handlers, and a lost increment is
exactly the kind of silent skew this subsystem exists to rule out.  The locks sit on per-family
hot paths that run a handful of times per *query* (never per posting),
so contention is negligible; the truly hot per-element accounting stays
in :class:`repro.storage.pages.IOStats` and is flushed into the
registry once per query.

:class:`NullRegistry` is the disabled counterpart: same surface, no
state, no locks.  Instrumented code holds the pattern::

    registry = metrics.get_registry()
    if registry.enabled:
        registry.counter("queries_total", "Queries.", ("algo",)) \\
            .labels(algo=name).inc()

so a disabled process pays one attribute read per call site.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NullRegistry",
]

DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)
"""Seconds.  Spans the sub-millisecond cache hit to the multi-second
degraded query; the ``+Inf`` bucket is implicit (added at render time)."""


def _validate_name(name: str) -> str:
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise ValueError(
            f"metric name must be [a-zA-Z0-9_]+, got {name!r}"
        )
    if name[0].isdigit():
        raise ValueError(f"metric name must not start with a digit: {name!r}")
    return name


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can move in both directions."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus ``le`` semantics).

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``; the
    implicit ``+Inf`` bucket is ``count``.  Bucket boundaries are
    inclusive: ``observe(0.01)`` lands in the ``le="0.01"`` bucket.
    """

    __slots__ = ("_lock", "bounds", "_bucket_counts", "_sum", "_count")

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = list(bounds)
        if ordered != sorted(ordered) or len(set(ordered)) != len(ordered):
            raise ValueError("bucket bounds must be strictly increasing")
        self._lock = threading.Lock()
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in ordered)
        self._bucket_counts = [0] * len(self.bounds)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            # Raw per-bucket storage: exactly one increment per observe;
            # cumulative_buckets() does the running sum at read time.
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self._bucket_counts[i] += 1
                    break

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(le, cumulative count)`` pairs, ``+Inf`` last."""
        with self._lock:
            running = 0
            out: List[Tuple[float, int]] = []
            for bound, n in zip(self.bounds, self._bucket_counts):
                running += n
                out.append((bound, running))
            out.append((float("inf"), self._count))
            return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric plus its labeled children.

    A family with an empty ``labelnames`` tuple is its own single child
    (``labels()`` with no arguments returns it); otherwise children are
    materialized on first use of each label-value combination.
    """

    __slots__ = (
        "name", "help", "kind", "labelnames", "_buckets", "_lock",
        "_children",
    )

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        labelnames: Tuple[str, ...],
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = _validate_name(name)
        self.help = help
        self.kind = kind
        self.labelnames = labelnames
        for label in labelnames:
            _validate_name(label)
        self._buckets = tuple(buckets) if buckets is not None else None
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not labelnames:
            self._children[()] = self._make_child()

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(self._buckets or DEFAULT_LATENCY_BUCKETS)
        return _KINDS[self.kind]()

    def labels(self, **labelvalues: str):
        """The child for one label-value combination (created on first
        use).  Every declared label must be supplied, no extras."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    # Label-less families proxy the child interface directly, so call
    # sites read the same with and without labels.
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    @property
    def value(self) -> float:
        return self.labels().value

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        """``(label values, child)`` pairs in insertion order."""
        with self._lock:
            return list(self._children.items())

    def total(self) -> float:
        """Sum over children: counter/gauge values, histogram counts."""
        out = 0.0
        for _values, child in self.children():
            if isinstance(child, Histogram):
                out += child.count
            else:
                out += child.value  # type: ignore[union-attr]
        return out


class MetricsRegistry:
    """A named collection of metric families.

    ``counter`` / ``gauge`` / ``histogram`` are idempotent: asking for
    an existing name returns the existing family, provided kind, labels
    and (for histograms) buckets agree — a mismatch is a programming
    error and raises immediately rather than silently forking state.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "Dict[str, MetricFamily]" = {}

    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        help: str,
        kind: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            family = MetricFamily(name, help, kind, labelnames, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, help, "counter", labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, help, "gauge", labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self._family(name, help, "histogram", labelnames, buckets)

    # ------------------------------------------------------------------
    def families(self) -> List[MetricFamily]:
        with self._lock:
            return list(self._families.values())

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    def total(self, name: str) -> float:
        """Sum of one family across its children; 0.0 if unregistered."""
        family = self.get(name)
        return family.total() if family is not None else 0.0

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A JSON-ready dump of every family.

        Counters and gauges map label tuples (rendered as
        ``name="value"`` joins, or ``""`` for label-less metrics) to
        values; histograms dump sum/count/buckets per child.
        """
        out: Dict[str, Dict[str, object]] = {}
        for family in self.families():
            rendered: Dict[str, object] = {}
            for values, child in family.children():
                key = ",".join(
                    f'{n}="{v}"'
                    for n, v in zip(family.labelnames, values)
                )
                if isinstance(child, Histogram):
                    rendered[key] = {
                        "sum": child.sum,
                        "count": child.count,
                        "buckets": [
                            [le, n] for le, n in child.cumulative_buckets()
                        ],
                    }
                else:
                    rendered[key] = child.value  # type: ignore[union-attr]
            out[family.name] = rendered
        return out

    def __repr__(self) -> str:
        return f"MetricsRegistry(families={len(self._families)})"


class _NullChild:
    """Accepts every metric operation and does nothing.

    One shared instance serves every family and child of a
    :class:`NullRegistry`; it proxies itself from ``labels`` so chained
    call sites (``registry.counter(...).labels(...).inc()``) stay valid
    when telemetry is off.
    """

    __slots__ = ()

    def labels(self, **_labelvalues) -> "_NullChild":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0

    def children(self) -> Iterable:
        return ()


_NULL_CHILD = _NullChild()


class NullRegistry:
    """The disabled registry: same surface as :class:`MetricsRegistry`,
    zero state.  ``enabled`` is False so instrumented call sites can
    skip even the no-op calls; anything that calls through anyway is
    still safe."""

    enabled = False

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> _NullChild:
        return _NULL_CHILD

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> _NullChild:
        return _NULL_CHILD

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  ) -> _NullChild:
        return _NULL_CHILD

    def families(self) -> List[MetricFamily]:
        return []

    def get(self, name: str) -> None:
        return None

    def total(self, name: str) -> float:
        return 0.0

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {}

    def __repr__(self) -> str:
        return "NullRegistry()"
