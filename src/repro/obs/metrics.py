"""Process-wide metrics: counters, gauges, and histograms.

A :class:`MetricsRegistry` is the single source of truth for every
quantitative claim the repository makes at runtime — check passing
rates (Figure 14), cells filled, stage latencies, simulator occupancy.
The primitives are deliberately zero-dependency and JSON-native so a
snapshot can be diffed, archived next to a benchmark run, or pretty
printed by ``repro.cli stats``.

Histograms keep two complementary views of a distribution: fixed
buckets (cheap, mergeable, Prometheus-style cumulative counts) and
streaming quantile estimates via the P² algorithm (Jain & Chlamtac,
CACM 1985) — constant memory, no sample retention, accurate to a few
percent on smooth distributions.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Iterable, Mapping

from repro.constants import InputError

DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    float(10**e) for e in range(-6, 7)
)
"""Geometric bucket ladder spanning microseconds to megacells."""

TRACKED_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.99)
"""Quantiles every histogram estimates online."""


def _render_key(name: str, labels: Mapping[str, object]) -> str:
    """Canonical registry key: ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def _parse_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`_render_key`: ``name{k=v,...}`` -> (name, labels).

    Label values come back as strings — good enough for re-keying a
    registry, since :func:`_render_key` stringifies values anyway.
    """
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key[:-1].partition("{")
    labels: dict[str, str] = {}
    for part in inner.split(","):
        if part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "description", "labels", "_value")

    def __init__(
        self,
        name: str,
        description: str = "",
        labels: Mapping[str, object] | None = None,
    ) -> None:
        self.name = name
        self.description = description
        self.labels = dict(labels or {})
        self._value = 0

    @property
    def value(self) -> int | float:
        """Current count."""
        return self._value

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self._value += amount

    def reset(self) -> None:
        """Zero the count."""
        self._value = 0

    def snapshot(self) -> int | float:
        """JSON-able value for the registry snapshot."""
        return self._value


class Gauge:
    """A value that can go up and down (occupancy, queue depth)."""

    __slots__ = ("name", "description", "labels", "_value")

    def __init__(
        self,
        name: str,
        description: str = "",
        labels: Mapping[str, object] | None = None,
    ) -> None:
        self.name = name
        self.description = description
        self.labels = dict(labels or {})
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current level."""
        return self._value

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Raise the gauge by ``amount``."""
        self._value += amount

    def reset(self) -> None:
        """Return the gauge to zero."""
        self._value = 0.0

    def snapshot(self) -> float:
        """JSON-able value for the registry snapshot."""
        return self._value


class P2Quantile:
    """Streaming quantile estimate via the P² algorithm.

    Five markers track the running quantile without retaining samples;
    until five observations arrive the exact small-sample quantile is
    returned.
    """

    __slots__ = ("q", "_initial", "_heights", "_pos", "_want", "_step")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.q = q
        self._initial: list[float] = []
        self._heights: list[float] | None = None
        self._pos: list[float] = []
        self._want: list[float] = []
        self._step: list[float] = []

    def add(self, x: float) -> None:
        """Fold one observation into the estimate."""
        if self._heights is None:
            self._initial.append(x)
            if len(self._initial) == 5:
                self._initial.sort()
                self._heights = list(self._initial)
                q = self.q
                self._pos = [0.0, 1.0, 2.0, 3.0, 4.0]
                self._want = [0.0, 2 * q, 4 * q, 2 + 2 * q, 4.0]
                self._step = [0.0, q / 2, q, (1 + q) / 2, 1.0]
            return
        h, n = self._heights, self._pos
        if x < h[0]:
            h[0] = x
            cell = 0
        elif x >= h[4]:
            h[4] = x
            cell = 3
        else:
            cell = 0
            for i in range(1, 5):
                if x < h[i]:
                    cell = i - 1
                    break
        for i in range(cell + 1, 5):
            n[i] += 1
        for i in range(5):
            self._want[i] += self._step[i]
        for i in (1, 2, 3):
            drift = self._want[i] - n[i]
            if (drift >= 1 and n[i + 1] - n[i] > 1) or (
                drift <= -1 and n[i - 1] - n[i] < -1
            ):
                d = 1.0 if drift > 0 else -1.0
                cand = self._parabolic(i, d)
                if not h[i - 1] < cand < h[i + 1]:
                    cand = self._linear(i, d)
                h[i] = cand
                n[i] += d

    def _parabolic(self, i: int, d: float) -> float:
        h, n = self._heights, self._pos
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, n = self._heights, self._pos
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float:
        """Current estimate (NaN before any observation)."""
        if self._heights is not None:
            return self._heights[2]
        if not self._initial:
            return math.nan
        ordered = sorted(self._initial)
        idx = min(len(ordered) - 1, int(self.q * len(ordered)))
        return ordered[idx]


class Histogram:
    """Fixed-bucket distribution with streaming quantile estimates."""

    __slots__ = (
        "name",
        "description",
        "labels",
        "buckets",
        "_bucket_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_quantiles",
    )

    def __init__(
        self,
        name: str,
        description: str = "",
        labels: Mapping[str, object] | None = None,
        buckets: Iterable[float] | None = None,
    ) -> None:
        self.name = name
        self.description = description
        self.labels = dict(labels or {})
        self.buckets = tuple(sorted(buckets or DEFAULT_BUCKETS))
        if not self.buckets:
            raise ValueError("need at least one bucket bound")
        self._reset_state()

    def _reset_state(self) -> None:
        self._bucket_counts = [0] * (len(self.buckets) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._quantiles = {q: P2Quantile(q) for q in TRACKED_QUANTILES}

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._count += 1
        self._sum += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        self._bucket_counts[idx] += 1
        for est in self._quantiles.values():
            est.add(value)

    @property
    def count(self) -> int:
        """Observations recorded."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        return self._sum

    @property
    def mean(self) -> float:
        """Arithmetic mean (0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Streaming estimate for a tracked quantile (p50/p90/p99)."""
        if q not in self._quantiles:
            raise KeyError(
                f"quantile {q} not tracked; tracked: {TRACKED_QUANTILES}"
            )
        return self._quantiles[q].value()

    def reset(self) -> None:
        """Forget every observation."""
        self._reset_state()

    def snapshot(self) -> dict:
        """JSON-able summary: moments, buckets, quantile estimates."""
        buckets = {
            f"{bound:g}": self._bucket_counts[i]
            for i, bound in enumerate(self.buckets)
        }
        buckets["+inf"] = self._bucket_counts[-1]
        empty = self._count == 0
        quantiles = {}
        for q, est in self._quantiles.items():
            value = None if empty else est.value()
            # Absorbed observations bypass the streaming estimators
            # (quantile sketches are not mergeable), so a non-empty
            # histogram may still have an empty estimator.
            if value is not None and math.isnan(value):
                value = None
            quantiles[f"p{int(q * 100)}"] = value
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": None if empty else self._min,
            "max": None if empty else self._max,
            "buckets": buckets,
            "quantiles": quantiles,
        }

    def absorb(self, snap: Mapping) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        Counts, sums, extrema, and bucket totals merge exactly;
        streaming quantile estimators cannot be merged and keep
        reflecting only locally-observed values (rendered ``None``
        when nothing was observed locally).  Bucket bounds that this
        histogram does not know about land in the overflow bucket.
        """
        count = int(snap.get("count", 0))
        if count == 0:
            return
        self._count += count
        self._sum += float(snap.get("sum", 0.0))
        if snap.get("min") is not None:
            self._min = min(self._min, float(snap["min"]))
        if snap.get("max") is not None:
            self._max = max(self._max, float(snap["max"]))
        mine = {f"{bound:g}": i for i, bound in enumerate(self.buckets)}
        for key, n in (snap.get("buckets") or {}).items():
            idx = mine.get(key, len(self.buckets))
            self._bucket_counts[idx] += int(n)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Get-or-create home for every metric in one process (or scope).

    Metrics are keyed by ``(name, labels)``; asking twice returns the
    same object, asking for the same key with a different kind raises.
    ``snapshot()`` renders the whole registry as plain JSON-able dicts
    and ``reset()`` zeroes everything in place (object identity is
    preserved, so cached metric handles stay valid).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, tuple[str, object]] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, kind: str, name: str, description, labels, **kw):
        key = _render_key(name, labels)
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                have_kind, obj = existing
                if have_kind != kind:
                    raise ValueError(
                        f"{key} already registered as a {have_kind}"
                    )
                return obj
            obj = _KINDS[kind](name, description, labels, **kw)
            self._metrics[key] = (kind, obj)
            return obj

    def counter(
        self, name: str, description: str = "", **labels
    ) -> Counter:
        """Get or create the counter ``name`` with the given labels."""
        return self._get_or_create("counter", name, description, labels)

    def gauge(self, name: str, description: str = "", **labels) -> Gauge:
        """Get or create the gauge ``name`` with the given labels."""
        return self._get_or_create("gauge", name, description, labels)

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: Iterable[float] | None = None,
        **labels,
    ) -> Histogram:
        """Get or create the histogram ``name`` with the given labels."""
        return self._get_or_create(
            "histogram", name, description, labels, buckets=buckets
        )

    def __iter__(self):
        """Yield ``(key, kind, metric)`` triples in creation order."""
        for key, (kind, obj) in self._metrics.items():
            yield key, kind, obj

    def __len__(self) -> int:
        """Number of registered metrics."""
        return len(self._metrics)

    def snapshot(self) -> dict:
        """The whole registry as a JSON-able dict, grouped by kind."""
        out: dict[str, dict] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for key, kind, obj in self:
            out[kind + "s"][key] = obj.snapshot()
        return out

    def reset(self) -> None:
        """Zero every metric in place."""
        for _, _, obj in self:
            obj.reset()

    def absorb_snapshot(self, snap: Mapping) -> None:
        """Merge a :meth:`snapshot` from another registry into this one.

        This is how a sharded run folds per-worker measurements back
        into the parent process: counters add, gauges take the
        incoming value (last-write-wins — shard-level levels are not
        meaningfully summable), histograms merge via
        :meth:`Histogram.absorb`.  Metrics the parent has never seen
        are created on the fly from the snapshot keys.
        """
        for key, value in (snap.get("counters") or {}).items():
            name, labels = _parse_key(key)
            self.counter(name, **labels).inc(value)
        for key, value in (snap.get("gauges") or {}).items():
            name, labels = _parse_key(key)
            self.gauge(name, **labels).set(value)
        for key, hist_snap in (snap.get("histograms") or {}).items():
            name, labels = _parse_key(key)
            self.histogram(name, **labels).absorb(hist_snap)

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize :meth:`snapshot` to a JSON string."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def write_json(self, path: str) -> None:
        """Write :meth:`to_json` to ``path``."""
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")


def read_snapshot(path: str) -> dict:
    """Read a snapshot; a file that is not one raises ``InputError``."""
    with open(path) as handle:
        try:
            snap = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InputError(
                f"{path} is not a metrics snapshot (invalid JSON: {exc})"
            ) from exc
    kinds = ("counters", "gauges", "histograms")
    if not (
        isinstance(snap, dict)
        and all(isinstance(snap.get(kind) or {}, dict) for kind in kinds)
        and all(
            isinstance(h, dict) and isinstance(h.get("quantiles") or {}, dict)
            for h in (snap.get("histograms") or {}).values()
        )
    ):
        raise InputError(f"{path} is not a metrics snapshot")
    return snap
