"""A minimal metrics registry with Prometheus text exposition.

Three instrument types — :class:`Counter`, :class:`Gauge` and fixed-bucket
:class:`Histogram` — registered on a :class:`MetricsRegistry` and rendered in
the Prometheus text format (``text/plain; version=0.0.4``) by
:meth:`MetricsRegistry.render`, which is what ``GET /metrics`` on the asyncio
job server serves.

The process-global :data:`REGISTRY` is what library instrumentation writes
to: backend cache hits, adaptive round budgets, worker steals/retries, HTTP
request latencies, per-tenant submissions.  Everything is additive
observability — no metric ever feeds back into execution, so results and
fingerprints are bitwise identical with metrics on or off.

Registration is idempotent: asking the registry for an already-registered
name returns the existing instrument (type and labels must match), so
modules can declare their instruments at import time without coordination.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Mapping, Sequence

from repro.exceptions import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default histogram buckets for request/stage latencies, in seconds.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Format a sample value (integers without a trailing ``.0``)."""
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _label_string(labelnames: tuple[str, ...], labelvalues: tuple[str, ...]) -> str:
    """Render ``{a="x",b="y"}`` (empty string for unlabeled samples)."""
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class _Instrument:
    """Shared machinery: label handling, locking, sample storage."""

    type_name = "untyped"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()):
        self.name = str(name)
        self.help = str(help_text)
        self.labelnames = tuple(str(label) for label in labelnames)
        self._lock = threading.Lock()
        self._samples: dict[tuple[str, ...], float] = {}

    def _key(self, labels: dict) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ReproError(
                f"metric {self.name!r} takes labels {self.labelnames}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def value(self, **labels) -> float:
        """Return the current value of one sample (``0.0`` when unseen)."""
        with self._lock:
            return self._samples.get(self._key(labels), 0.0)

    def samples(self) -> list[tuple[tuple[str, ...], float]]:
        """Return ``(labelvalues, value)`` pairs, sorted by label values."""
        with self._lock:
            return sorted(self._samples.items())

    def clear(self) -> None:
        """Drop every sample (registration survives)."""
        with self._lock:
            self._samples.clear()

    def render(self) -> str:
        """Render the instrument in the Prometheus text format."""
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.type_name}"]
        rendered = self.samples()
        if not rendered and not self.labelnames:
            rendered = [((), 0.0)]
        for labelvalues, value in rendered:
            labels = _label_string(self.labelnames, labelvalues)
            lines.append(f"{self.name}{labels} {_format_value(value)}")
        return "\n".join(lines)


class Counter(_Instrument):
    """A monotonically increasing value (requests served, cache hits, ...)."""

    type_name = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (must be non-negative) to the labeled sample."""
        if amount < 0:
            raise ReproError(f"counter {self.name!r} cannot decrease (got {amount})")
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + float(amount)


class Gauge(_Instrument):
    """A value that can go up and down (queue depth, subscriber count, ...)."""

    type_name = "gauge"

    def set(self, value: float, **labels) -> None:
        """Set the labeled sample to ``value``."""
        key = self._key(labels)
        with self._lock:
            self._samples[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` to the labeled sample."""
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + float(amount)

    def dec(self, amount: float = 1.0, **labels) -> None:
        """Subtract ``amount`` from the labeled sample."""
        self.inc(-amount, **labels)


class Histogram(_Instrument):
    """Fixed-bucket distribution of observations (latencies, round budgets).

    Buckets are cumulative upper bounds, as in Prometheus; a terminal
    ``+Inf`` bucket is implicit.  ``observe`` is O(#buckets) with one lock
    acquisition, cheap enough for per-request instrumentation.
    """

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(name, help_text, labelnames)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ReproError(f"histogram {name!r} needs sorted, non-empty buckets")
        self.buckets = bounds
        # per label key: [bucket counts..., +Inf count, sum]
        self._hist: dict[tuple[str, ...], list[float]] = {}

    def clear(self) -> None:
        """Drop every sample (registration survives)."""
        with self._lock:
            self._samples.clear()
            self._hist.clear()

    def observe(self, value: float, **labels) -> None:
        """Record one observation."""
        key = self._key(labels)
        amount = float(value)
        with self._lock:
            row = self._hist.get(key)
            if row is None:
                row = [0.0] * (len(self.buckets) + 2)
                self._hist[key] = row
            for index, bound in enumerate(self.buckets):
                if amount <= bound:
                    row[index] += 1.0
            row[len(self.buckets)] += 1.0  # +Inf / count
            row[len(self.buckets) + 1] += amount  # sum
            self._samples[key] = row[len(self.buckets)]

    def count(self, **labels) -> float:
        """Return the number of observations of one labeled sample."""
        with self._lock:
            row = self._hist.get(self._key(labels))
            return 0.0 if row is None else row[len(self.buckets)]

    def sum(self, **labels) -> float:
        """Return the sum of observations of one labeled sample."""
        with self._lock:
            row = self._hist.get(self._key(labels))
            return 0.0 if row is None else row[len(self.buckets) + 1]

    def render(self) -> str:
        """Render buckets, sum and count in the Prometheus text format."""
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.type_name}"]
        with self._lock:
            rows = sorted(self._hist.items())
        for labelvalues, row in rows:
            for index, bound in enumerate(self.buckets):
                labels = _label_string(
                    self.labelnames + ("le",), labelvalues + (_format_value(bound),)
                )
                lines.append(f"{self.name}_bucket{labels} {_format_value(row[index])}")
            inf_labels = _label_string(self.labelnames + ("le",), labelvalues + ("+Inf",))
            lines.append(f"{self.name}_bucket{inf_labels} {_format_value(row[len(self.buckets)])}")
            plain = _label_string(self.labelnames, labelvalues)
            lines.append(f"{self.name}_sum{plain} {_format_value(row[len(self.buckets) + 1])}")
            lines.append(f"{self.name}_count{plain} {_format_value(row[len(self.buckets)])}")
        return "\n".join(lines)


class MetricsRegistry:
    """A named collection of instruments with idempotent registration."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    def _register(self, cls, name: str, help_text: str, labelnames, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(labelnames):
                    raise ReproError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}{existing.labelnames}"
                    )
                return existing
            instrument = cls(name, help_text, labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> Counter:
        """Register (or fetch) a counter."""
        return self._register(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> Gauge:
        """Register (or fetch) a gauge."""
        return self._register(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Register (or fetch) a fixed-bucket histogram."""
        return self._register(Histogram, name, help_text, labelnames, buckets=buckets)

    def get(self, name: str) -> _Instrument | None:
        """Return a registered instrument by name, or ``None``."""
        with self._lock:
            return self._instruments.get(name)

    def counter_samples(self) -> dict[tuple[str, tuple[str, ...]], float]:
        """Return every counter sample as ``{(name, labelvalues): value}``.

        Two snapshots taken around a piece of work in another process give
        the increments that work made; :meth:`add_counter_samples` folds
        them into this process's counters.
        """
        with self._lock:
            counters = [i for i in self._instruments.values() if isinstance(i, Counter)]
        return {
            (counter.name, labelvalues): value
            for counter in counters
            for labelvalues, value in counter.samples()
        }

    def call_counting(self, function: Callable, *args, **kwargs) -> tuple:
        """Call ``function`` and return ``(result, increments)``.

        ``increments`` holds every counter increment the call made in this
        process, as ``{(name, labelvalues): amount}``.  A worker process
        ships it with its result, and the parent folds it in with
        :meth:`add_counter_samples`.
        """
        before = self.counter_samples()
        result = function(*args, **kwargs)
        increments = {
            key: value - before.get(key, 0.0)
            for key, value in self.counter_samples().items()
            if value != before.get(key, 0.0)
        }
        return result, increments

    def add_counter_samples(self, increments: Mapping[tuple[str, tuple[str, ...]], float]) -> None:
        """Add ``{(name, labelvalues): amount}`` increments to the registered counters."""
        for (name, labelvalues), amount in increments.items():
            counter = self.get(name)
            if isinstance(counter, Counter):
                counter.inc(amount, **dict(zip(counter.labelnames, labelvalues)))

    def render(self) -> str:
        """Render every instrument in the Prometheus text exposition format."""
        with self._lock:
            instruments = [self._instruments[name] for name in sorted(self._instruments)]
        blocks = [instrument.render() for instrument in instruments]
        return "\n".join(blocks) + ("\n" if blocks else "")

    def reset(self) -> None:
        """Clear every instrument's samples, keeping registrations intact.

        A test-isolation helper: module-level instrument handles held by
        library code stay registered and keep rendering, only the recorded
        values are dropped.
        """
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument.clear()


#: The process-global registry all library instrumentation writes to.
REGISTRY = MetricsRegistry()
