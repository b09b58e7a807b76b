"""The metrics registry: counters, gauges and histograms with JSON and
Prometheus-text exporters — zero dependencies, process-local.

Like the tracer, metrics have an ambient instance (``telemetry().metrics``,
see :mod:`repro.observability.telemetry`) that defaults to a no-op
registry, so the instrumented hot path pays one contextvar read and a
no-op method call when metrics are off. Install a real registry with
``use_telemetry(metrics=registry)`` (the CLI's ``--metrics`` does).

Instrument names follow Prometheus conventions (``repro_progress_
units_total``, ``repro_engine_evaluate_seconds``); the text exporter
emits standard ``# HELP``/``# TYPE`` framing with cumulative histogram
buckets, and the JSON exporter adds the percentile view (p50/p90/p99) a
dashboard wants. A count an object already keeps, such as an
:class:`~repro.observability.stats.EngineStats` field, is not counted a
second time: :meth:`MetricsRegistry.ingest` exports it as a gauge.
"""

from __future__ import annotations

import bisect
import json
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds, in seconds: 1 us .. 30 s.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0,
)


def _render_labels(labels: Optional[Mapping[str, str]]) -> str:
    """Sorted ``k="v"`` pairs (no braces), or ``""`` for the bare series."""
    if not labels:
        return ""
    return ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))


def _series_key(name: str, labels: Optional[Mapping[str, str]]) -> str:
    """Registry key for one (name, labels) series."""
    rendered = _render_labels(labels)
    return f"{name}{{{rendered}}}" if rendered else name


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "value", "labels")

    def __init__(
        self, name: str, help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self.labels = dict(labels) if labels else {}

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: increment must be >= 0")
        self.value += amount


class Gauge:
    """A value that goes up and down."""

    __slots__ = ("name", "help", "value", "labels")

    def __init__(
        self, name: str, help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self.labels = dict(labels) if labels else {}

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Observation distribution with cumulative buckets and percentiles."""

    __slots__ = ("name", "help", "buckets", "bucket_counts", "count", "sum",
                 "_observations", "labels")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0
        self._observations: List[float] = []
        self.labels = dict(labels) if labels else {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        index = bisect.bisect_left(self.buckets, value)
        if index < len(self.bucket_counts):
            self.bucket_counts[index] += 1
        self._observations.append(value)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100) of all observations, 0.0 if empty."""
        if not self._observations:
            return 0.0
        ordered = sorted(self._observations)
        rank = max(0, min(len(ordered) - 1, round(p / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Prometheus-style ``le`` buckets (cumulative, +Inf last)."""
        out: List[Tuple[float, int]] = []
        running = 0
        for upper, n in zip(self.buckets, self.bucket_counts):
            running += n
            out.append((upper, running))
        out.append((float("inf"), self.count))
        return out


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    One registry typically covers a whole run (the CLI creates one per
    invocation); names are unique across kinds, and re-requesting a name
    returns the existing instrument so call sites need no coordination.

    Instruments may carry Prometheus labels (``labels={"source": "store"}``):
    each distinct (name, labels) pair is its own series, and the text
    exporter groups a name's series under one ``# HELP``/``# TYPE``
    header. Unlabeled instruments export exactly as before.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instruments ----------------------------------------------------- #

    def counter(
        self, name: str, help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        key = _series_key(name, labels)
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter(name, help, labels)
        return inst

    def gauge(
        self, name: str, help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        key = _series_key(name, labels)
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge(name, help, labels)
        return inst

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        key = _series_key(name, labels)
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(name, help, buckets, labels)
        return inst

    def ingest(self, prefix: str, values: Mapping[str, float]) -> None:
        """Set one gauge per entry of a flat numeric snapshot.

        ``registry.ingest("repro_engine", engine.stats.snapshot())`` turns
        every :class:`~repro.observability.stats.EngineStats` field into a
        ``<prefix>_<field>`` gauge: the only export of an engine's counts,
        whichever evaluator kept them.
        """
        for key, value in values.items():
            self.gauge(f"{prefix}_{key}").set(float(value))

    # -- exporters ------------------------------------------------------- #

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Nested plain-dict view (the JSON exporter's payload)."""
        data: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        for name in sorted(self._counters):
            data["counters"][name] = self._counters[name].value
        for name in sorted(self._gauges):
            data["gauges"][name] = self._gauges[name].value
        for name in sorted(self._histograms):
            h = self._histograms[name]
            data["histograms"][name] = {
                "count": h.count,
                "sum": h.sum,
                "p50": h.percentile(50),
                "p90": h.percentile(90),
                "p99": h.percentile(99),
            }
        return data

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The registry as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4).

        Series of one name are grouped (sorted by label set) under a
        single ``# HELP``/``# TYPE`` header; the unlabeled-only output
        is byte-identical to the pre-label exporter.
        """
        lines: List[str] = []

        def ordered(insts):
            return sorted(
                insts.values(), key=lambda i: (i.name, _render_labels(i.labels))
            )

        def header(inst, kind: str, seen: set, helps: Dict[str, str]) -> None:
            if inst.name in seen:
                return
            seen.add(inst.name)
            help_text = helps.get(inst.name, "")
            if help_text:
                lines.append(f"# HELP {inst.name} {help_text}")
            lines.append(f"# TYPE {inst.name} {kind}")

        def help_by_name(insts) -> Dict[str, str]:
            # Help may have been supplied on any one series of a name;
            # the single group header uses whichever series carried it.
            helps: Dict[str, str] = {}
            for inst in insts.values():
                if inst.help and not helps.get(inst.name):
                    helps[inst.name] = inst.help
            return helps

        seen: set = set()
        helps = help_by_name(self._counters)
        for c in ordered(self._counters):
            header(c, "counter", seen, helps)
            lines.append(f"{_series_key(c.name, c.labels)} {_fmt(c.value)}")
        seen = set()
        helps = help_by_name(self._gauges)
        for g in ordered(self._gauges):
            header(g, "gauge", seen, helps)
            lines.append(f"{_series_key(g.name, g.labels)} {_fmt(g.value)}")
        seen = set()
        helps = help_by_name(self._histograms)
        for h in ordered(self._histograms):
            header(h, "histogram", seen, helps)
            rendered = _render_labels(h.labels)
            prefix = f"{rendered}," if rendered else ""
            for upper, cumulative in h.cumulative_buckets():
                le = "+Inf" if upper == float("inf") else _fmt(upper)
                lines.append(
                    f'{h.name}_bucket{{{prefix}le="{le}"}} {cumulative}'
                )
            lines.append(f"{_series_key(h.name + '_sum', h.labels)} {_fmt(h.sum)}")
            lines.append(f"{_series_key(h.name + '_count', h.labels)} {h.count}")
        return "\n".join(lines) + "\n"


class _NullInstrument:
    """Accepts every instrument method and does nothing."""

    __slots__ = ()
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, p: float) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """The disabled registry: every instrument is a shared no-op."""

    enabled = False

    def counter(self, name: str, help: str = "", labels=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", labels=None) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS,
                  labels=None):
        return _NULL_INSTRUMENT

    def ingest(self, prefix: str, values: Mapping[str, float]) -> None:
        pass

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        return "\n"


def _fmt(value: float) -> str:
    """Prometheus number formatting: integers without a trailing ``.0``."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


NULL_METRICS = NullMetricsRegistry()
