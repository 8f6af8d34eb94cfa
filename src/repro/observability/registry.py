"""Process-wide metrics registry: counters, gauges, histograms, timers.

The paper's evaluation currency is *numbers of distance computations*
(Figures 10-11) and maintenance activity — merge/split rounds, over-/
under-filled transitions (Section 4.2). This module is the single sink
those numbers flow into at runtime, alongside the operational metrics the
durable streaming path produces (WAL appends, snapshot writes, recovery
replays).

Design constraints:

* **Monotonic time only in hot paths.** :class:`Timer` reads
  ``time.perf_counter`` (monotonic); nothing here touches the wall clock
  while measuring. The single wall-clock read lives in
  :class:`~repro.observability.tracer.EventTracer`'s constructor, which
  anchors event timestamps once, outside any hot path.
* **Plain-int/float accumulators.** Like
  :class:`~repro.geometry.counting.DistanceCounter`, metrics are not
  thread-safe, matching the paper's single-threaded batch-update model.
* **Fixed histogram buckets.** Bucket bounds are frozen at creation so
  snapshots of the same metric are always diffable and the Prometheus
  exposition is stable across scrapes.

Metrics are identified by ``(name, labels)``; :meth:`MetricsRegistry.counter`
and friends are get-or-create, so instrumentation sites can look their
handles up cheaply and repeatedly. :meth:`MetricsRegistry.snapshot` freezes
every value into a :class:`MetricsSnapshot`, and snapshots subtract
(``after - before``) to isolate one phase's activity.
"""

from __future__ import annotations

import bisect
import re
import time
from dataclasses import dataclass, field, replace

from ..exceptions import InvalidConfigError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "MetricsSnapshot",
    "MetricSample",
    "get_registry",
    "bucket_quantile",
    "DEFAULT_TIME_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency bucket bounds in seconds (upper inclusive bounds; the
#: ``+Inf`` bucket is implicit). Spans sub-millisecond batch work up to
#: multi-second recovery replays.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

LabelPairs = tuple[tuple[str, str], ...]


def bucket_quantile(
    bounds: tuple[float, ...], counts, q: float
) -> float | None:
    """Upper bucket bound covering quantile ``q`` of a bucketed histogram.

    ``counts`` are per-bucket (non-cumulative), ``+Inf`` bucket last, as
    :meth:`Histogram.bucket_counts` and :attr:`MetricSample.bucket_counts`
    hold them; counts summed bucket by bucket over several histograms
    with the same bounds give the quantile of their union. Fixed buckets
    only support bound-granular quantiles: the result guarantees
    ``quantile <= bound`` rather than inventing precision the data does
    not carry. ``None`` means there are no observations or the quantile
    falls in the ``+Inf`` bucket.
    """
    total = sum(counts)
    if not total:
        return None
    target = q * total
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += count
        if cumulative >= target:
            return float(bound)
    return None


def _freeze_labels(labels: dict[str, str] | None) -> LabelPairs:
    if not labels:
        return ()
    frozen = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise InvalidConfigError(f"invalid label name {key!r}")
        frozen.append((key, str(labels[key])))
    return tuple(frozen)


class _Metric:
    """Shared identity/metadata of every metric kind."""

    kind = "untyped"
    __slots__ = ("name", "help", "unit", "labels")

    def __init__(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labels: LabelPairs = (),
    ) -> None:
        if not _NAME_RE.match(name):
            raise InvalidConfigError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.unit = unit
        self.labels = labels

    @property
    def key(self) -> tuple[str, LabelPairs]:
        """Registry identity: name plus frozen label pairs."""
        return (self.name, self.labels)


class Counter(_Metric):
    """Monotonically increasing count (events, points, distance calcs)."""

    kind = "counter"
    __slots__ = ("_value",)

    def __init__(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labels: LabelPairs = (),
    ) -> None:
        super().__init__(name, help, unit, labels)
        self._value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        self._value += amount

    @property
    def value(self) -> int | float:
        """The accumulated total."""
        return self._value


class Gauge(_Metric):
    """Point-in-time level (window fill, active bubble count)."""

    kind = "gauge"
    __slots__ = ("_value",)

    def __init__(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labels: LabelPairs = (),
    ) -> None:
        super().__init__(name, help, unit, labels)
        self._value = 0.0

    def set(self, value: int | float) -> None:
        """Replace the current level."""
        self._value = value

    def inc(self, amount: int | float = 1) -> None:
        """Shift the current level by ``amount`` (may be negative)."""
        self._value += amount

    @property
    def value(self) -> int | float:
        """The current level."""
        return self._value


class Histogram(_Metric):
    """Distribution over fixed bucket bounds (latencies, batch sizes).

    ``bounds`` are inclusive upper bounds of the finite buckets; every
    observation beyond the last bound lands in the implicit ``+Inf``
    bucket. Counts are stored per-bucket (non-cumulative); the Prometheus
    exposition accumulates them on the way out.
    """

    kind = "histogram"
    __slots__ = ("bounds", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labels: LabelPairs = (),
        buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        super().__init__(name, help, unit, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise InvalidConfigError(
                f"histogram {name} needs at least one bucket bound"
            )
        if list(bounds) != sorted(set(bounds)):
            raise InvalidConfigError(
                f"histogram {name} bucket bounds must be strictly "
                f"increasing, got {bounds}"
            )
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +Inf bucket last
        self._sum = 0.0
        self._count = 0

    def observe(self, value: int | float) -> None:
        """Record one observation."""
        self._counts[bisect.bisect_left(self.bounds, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        """Total number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def bucket_counts(self) -> tuple[int, ...]:
        """Per-bucket (non-cumulative) counts; the ``+Inf`` bucket is last."""
        return tuple(self._counts)


class Timer:
    """Context manager feeding monotonic durations into a histogram.

    Example:
        >>> registry = MetricsRegistry()
        >>> timer = registry.timer("work_seconds")
        >>> with timer:
        ...     pass
        >>> registry.get("work_seconds").count
        1
    """

    __slots__ = ("histogram", "_started")

    def __init__(self, histogram: Histogram) -> None:
        self.histogram = histogram
        self._started = 0.0

    def observe(self, seconds: float) -> None:
        """Record an externally measured duration."""
        self.histogram.observe(seconds)

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.histogram.observe(time.perf_counter() - self._started)


@dataclass(frozen=True)
class MetricSample:
    """One metric's frozen value inside a :class:`MetricsSnapshot`.

    ``value`` is the scalar for counters/gauges; histograms carry their
    per-bucket counts, sum, and count alongside the bounds.
    """

    name: str
    kind: str
    help: str
    unit: str
    labels: LabelPairs
    value: int | float = 0
    bounds: tuple[float, ...] = ()
    bucket_counts: tuple[int, ...] = ()
    sum: float = 0.0
    count: int = 0

    def relabeled(self, **extra: str) -> "MetricSample":
        """A copy with ``extra`` label pairs merged in (and re-sorted).

        The telemetry plane uses this to stamp a ``tenant`` label onto
        per-shard samples when merging shard registries into one fleet
        scrape. Existing labels of the same name are overridden.
        """
        merged = dict(self.labels)
        for key, value in extra.items():
            if not _LABEL_RE.match(key):
                raise InvalidConfigError(f"invalid label name {key!r}")
            merged[key] = str(value)
        return replace(self, labels=tuple(sorted(merged.items())))

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        document: dict = {
            "name": self.name,
            "kind": self.kind,
        }
        if self.help:
            document["help"] = self.help
        if self.unit:
            document["unit"] = self.unit
        if self.labels:
            document["labels"] = dict(self.labels)
        if self.kind == "histogram":
            document["buckets"] = {
                "bounds": list(self.bounds),
                "counts": list(self.bucket_counts),
            }
            document["sum"] = self.sum
            document["count"] = self.count
        else:
            document["value"] = self.value
        return document


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable view of a registry's values at one instant.

    Snapshots subtract: ``after - before`` yields a snapshot in which
    counters and histograms carry the *activity between* the two
    snapshots, while gauges keep the left-hand (newer) level — a gauge is
    a state, not a flow. Metrics absent from ``before`` pass through
    unchanged.
    """

    samples: tuple[MetricSample, ...] = field(default_factory=tuple)

    def __iter__(self):
        return iter(self.samples)

    def __len__(self) -> int:
        return len(self.samples)

    def get(
        self, name: str, labels: dict[str, str] | None = None
    ) -> MetricSample | None:
        """The sample for ``(name, labels)``, or ``None``."""
        key = (name, _freeze_labels(labels))
        for sample in self.samples:
            if (sample.name, sample.labels) == key:
                return sample
        return None

    def value(
        self, name: str, labels: dict[str, str] | None = None
    ) -> int | float:
        """Scalar value of a counter/gauge; ``0`` when absent."""
        sample = self.get(name, labels)
        return 0 if sample is None else sample.value

    def __sub__(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        before = {(s.name, s.labels): s for s in other.samples}
        diffed = []
        for sample in self.samples:
            base = before.get((sample.name, sample.labels))
            if base is None or base.kind != sample.kind:
                diffed.append(sample)
            elif sample.kind == "histogram":
                diffed.append(
                    MetricSample(
                        name=sample.name,
                        kind=sample.kind,
                        help=sample.help,
                        unit=sample.unit,
                        labels=sample.labels,
                        bounds=sample.bounds,
                        bucket_counts=tuple(
                            a - b
                            for a, b in zip(
                                sample.bucket_counts, base.bucket_counts
                            )
                        ),
                        sum=sample.sum - base.sum,
                        count=sample.count - base.count,
                    )
                )
            elif sample.kind == "counter":
                diffed.append(
                    MetricSample(
                        name=sample.name,
                        kind=sample.kind,
                        help=sample.help,
                        unit=sample.unit,
                        labels=sample.labels,
                        value=sample.value - base.value,
                    )
                )
            else:  # gauges keep the newer level
                diffed.append(sample)
        return MetricsSnapshot(samples=tuple(diffed))


class MetricsRegistry:
    """Holds every metric of one process (or one run, when private).

    The accessor methods are get-or-create: asking for an existing
    ``(name, labels)`` pair returns the same object, asking with a
    conflicting kind raises. A module-level process-wide instance is
    available via :func:`get_registry`; components that need isolated
    accounting (the CLI's per-run exports, tests) construct their own.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelPairs], _Metric] = {}

    # ------------------------------------------------------------------
    # Get-or-create accessors
    # ------------------------------------------------------------------
    def counter(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labels: dict[str, str] | None = None,
    ) -> Counter:
        """Get or create a counter."""
        return self._get_or_create(Counter, name, help, unit, labels)

    def gauge(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labels: dict[str, str] | None = None,
    ) -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(Gauge, name, help, unit, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labels: dict[str, str] | None = None,
        buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        """Get or create a histogram with fixed ``buckets`` bounds."""
        key = (name, _freeze_labels(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise InvalidConfigError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not histogram"
                )
            return existing
        metric = Histogram(
            name, help=help, unit=unit, labels=key[1], buckets=buckets
        )
        self._metrics[key] = metric
        return metric

    def timer(
        self,
        name: str,
        help: str = "",
        labels: dict[str, str] | None = None,
        buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
    ) -> Timer:
        """Get or create a seconds histogram and wrap it in a :class:`Timer`."""
        return Timer(
            self.histogram(
                name, help=help, unit="seconds", labels=labels,
                buckets=buckets,
            )
        )

    def _get_or_create(
        self,
        cls: type,
        name: str,
        help: str,
        unit: str,
        labels: dict[str, str] | None,
    ):
        key = (name, _freeze_labels(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise InvalidConfigError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        metric = cls(name, help=help, unit=unit, labels=key[1])
        self._metrics[key] = metric
        return metric

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def get(
        self, name: str, labels: dict[str, str] | None = None
    ) -> _Metric | None:
        """The live metric object for ``(name, labels)``, or ``None``."""
        return self._metrics.get((name, _freeze_labels(labels)))

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def snapshot(self) -> MetricsSnapshot:
        """Freeze every metric's current value."""
        samples = []
        for metric in self._metrics.values():
            if isinstance(metric, Histogram):
                samples.append(
                    MetricSample(
                        name=metric.name,
                        kind=metric.kind,
                        help=metric.help,
                        unit=metric.unit,
                        labels=metric.labels,
                        bounds=metric.bounds,
                        bucket_counts=metric.bucket_counts(),
                        sum=metric.sum,
                        count=metric.count,
                    )
                )
            else:
                samples.append(
                    MetricSample(
                        name=metric.name,
                        kind=metric.kind,
                        help=metric.help,
                        unit=metric.unit,
                        labels=metric.labels,
                        value=metric.value,
                    )
                )
        return MetricsSnapshot(samples=tuple(samples))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({len(self._metrics)} metrics)"


#: The process-wide registry used when callers do not supply their own.
_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _GLOBAL_REGISTRY
