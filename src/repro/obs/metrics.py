"""Cluster metrics: counters, gauges, and log-scale histograms.

The :class:`MetricsRegistry` is the always-on aggregate companion to
the opt-in :class:`~repro.obs.trace.TraceRecorder`.  The service folds
the *same* per-shard ledger deltas it merges at epoch close (the cache
ledger's ``delta_since``/``absorb`` path) into named metrics, so the
registry inherits the ledgers' guarantees for free:

* **shard-order-invariant** — deltas are folded by the coordinator in
  ascending shard order, never from a shard's own work, so runs that
  execute the shards in any order produce identical registries;
* **deterministic** — only charged quantities and virtual-clock-derived
  values are recorded (no wall-time histograms), so two same-seed runs
  compare equal;
* **snapshot/restore compatible** — the registry pickles with the
  service snapshot and resumes counting after a restore.

Metric naming follows Prometheus conventions (``repro_*_total``
counters, plain gauges, ``_bucket``/``_sum``/``_count`` histogram
series) and :meth:`MetricsRegistry.render` emits the text exposition
format.  Histograms use fixed base-2 log-scale bins (bucket ``i``
holds values ``< 2**i``), which keeps them mergeable and seed-stable
without pre-declaring ranges.
"""

from __future__ import annotations

__all__ = ["LogHistogram", "MetricsRegistry", "metric_key"]

#: Number of base-2 buckets; 2**63 comfortably covers charged-I/O and
#: op counts per epoch.
HISTOGRAM_BINS = 64


def metric_key(name: str, labels: dict | None = None) -> str:
    """Canonical series key: ``name`` or ``name{a="1",b="2"}`` (sorted)."""
    if not labels:
        return name
    body = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{body}}}"


class LogHistogram:
    """Fixed-bin base-2 log-scale histogram of non-negative values.

    Bucket ``i`` counts observations strictly below ``2**i`` (bucket 0
    holds zeros); the last bucket is unbounded.  Two histograms built
    from the same observations in any order compare equal.
    """

    __slots__ = ("counts", "total", "sum")

    def __init__(self) -> None:
        self.counts = [0] * HISTOGRAM_BINS
        self.total = 0
        self.sum = 0

    @staticmethod
    def bucket_index(value) -> int:
        if value < 1:
            return 0
        return min(int(value).bit_length(), HISTOGRAM_BINS - 1)

    def observe(self, value) -> None:
        self.counts[self.bucket_index(value)] += 1
        self.total += 1
        self.sum += value

    def as_dict(self) -> dict:
        """Compact form: only non-empty buckets, keyed by bin index."""
        return {
            "buckets": {i: c for i, c in enumerate(self.counts) if c},
            "count": self.total,
            "sum": self.sum,
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LogHistogram)
            and self.counts == other.counts
            and self.sum == other.sum
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LogHistogram(count={self.total}, sum={self.sum})"


class MetricsRegistry:
    """Named counters, gauges, and histograms with optional labels.

    Writers use :meth:`inc` / :meth:`set_gauge` / :meth:`observe`;
    readers use :meth:`counter` / :meth:`gauge` / :meth:`histogram` or
    the whole-registry views :meth:`as_dict` and :meth:`render`.
    Series are created lazily on first write, so an uncached or
    non-journaled service simply never grows the corresponding series.
    """

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, LogHistogram] = {}

    # -- writers -------------------------------------------------------

    def inc(self, name: str, value=1, **labels) -> None:
        if not value:
            return
        key = metric_key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value, **labels) -> None:
        self._gauges[metric_key(name, labels)] = value

    def observe(self, name: str, value, **labels) -> None:
        key = metric_key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = LogHistogram()
        hist.observe(value)

    # -- readers -------------------------------------------------------

    def counter(self, name: str, **labels):
        return self._counters.get(metric_key(name, labels), 0)

    def gauge(self, name: str, **labels):
        return self._gauges.get(metric_key(name, labels), 0.0)

    def histogram(self, name: str, **labels) -> LogHistogram | None:
        return self._histograms.get(metric_key(name, labels))

    def as_dict(self) -> dict:
        """Deterministic plain-dict view (sorted keys; histograms compact)."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                key: self._histograms[key].as_dict()
                for key in sorted(self._histograms)
            },
        }

    def render(self) -> str:
        """Prometheus text exposition of every series, sorted by key."""
        out: list[str] = []
        typed: set[str] = set()

        def base(key: str) -> str:
            return key.split("{", 1)[0]

        for key in sorted(self._counters):
            name = base(key)
            if name not in typed:
                typed.add(name)
                out.append(f"# TYPE {name} counter")
            out.append(f"{key} {self._counters[key]}")
        for key in sorted(self._gauges):
            name = base(key)
            if name not in typed:
                typed.add(name)
                out.append(f"# TYPE {name} gauge")
            value = self._gauges[key]
            out.append(f"{key} {value:.6g}" if isinstance(value, float) else f"{key} {value}")
        for key in sorted(self._histograms):
            name = base(key)
            hist = self._histograms[key]
            if name not in typed:
                typed.add(name)
                out.append(f"# TYPE {name} histogram")
            labels = key[len(name):]
            inner = labels[1:-1] if labels else ""
            cumulative = 0
            for i, count in enumerate(hist.counts):
                if not count:
                    continue
                cumulative += count
                le = f"{2 ** i}" if i < HISTOGRAM_BINS - 1 else "+Inf"
                extra = f'{inner},le="{le}"' if inner else f'le="{le}"'
                out.append(f"{name}_bucket{{{extra}}} {cumulative}")
            # The bucket series always closes with +Inf and totals.
            if hist.counts[-1] == 0:
                extra = f'{inner},le="+Inf"' if inner else 'le="+Inf"'
                out.append(f"{name}_bucket{{{extra}}} {hist.total}")
            out.append(f"{name}_sum{labels or ''} {hist.sum}")
            out.append(f"{name}_count{labels or ''} {hist.total}")
        return "\n".join(out) + ("\n" if out else "")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MetricsRegistry)
            and self._counters == other._counters
            and self._gauges == other._gauges
            and self._histograms == other._histograms
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )
