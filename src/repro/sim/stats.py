"""Metric collection for simulation runs.

Everything the paper plots is a per-second time series (drops/s,
replicas created/s, mean/max load/s) or an aggregate (drop fraction,
mean latency, per-level replica counts).  :class:`TimeSeries` buckets
values into integer-second bins; :class:`WindowAverager` produces the
w-second smoothed maxima of Fig. 6 (right).

Components never talk to a concrete collector: they record through the
:class:`StatsSink` protocol.  :class:`SystemStats` is the full
collector every experiment uses; :class:`NullSink` drops everything
(hot benchmark runs pay zero collection cost).  The hook signatures
on :class:`StatsSink` also declare a sharded run's stats records
(:data:`repro.sim.shardcodec.STATS_RECORDS`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


class TimeSeries:
    """Values bucketed into fixed-width time bins (default 1 second).

    ``add(t, x)`` accumulates ``x`` into the bin containing ``t``;
    ``observe(t, x)`` additionally tracks per-bin count/max so means and
    maxima can be reported.

    Storage is a dense list indexed by bin (simulation time marches
    forward, so bins fill contiguously from zero): the hottest
    recording path is one index computation plus one in-place list
    update, instead of the three dict probes the previous dict-of-bins
    layout paid per event.
    """

    __slots__ = ("bin_width", "_sum", "_cnt", "_max")

    def __init__(self, bin_width: float = 1.0) -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be > 0")
        self.bin_width = bin_width
        self._sum: List[float] = []
        self._cnt: List[int] = []
        self._max: List[float] = []

    def _grow(self, b: int) -> None:
        n = b + 1 - len(self._sum)
        self._sum.extend([0.0] * n)
        self._cnt.extend([0] * n)
        self._max.extend([0.0] * n)

    def add(self, t: float, x: float = 1.0) -> None:
        """Accumulate ``x`` into ``t``'s bin (rate-style metric)."""
        b = int(t / self.bin_width)
        if b >= len(self._sum):
            self._grow(b)
        self._sum[b] += x

    def observe(self, t: float, x: float) -> None:
        """Record a sampled value (tracks sum, count and max per bin)."""
        b = int(t / self.bin_width)
        if b >= len(self._sum):
            self._grow(b)
        self._sum[b] += x
        cnt = self._cnt
        if cnt[b]:
            if x > self._max[b]:
                self._max[b] = x
        else:
            self._max[b] = x
        cnt[b] += 1

    @property
    def n_bins(self) -> int:
        return len(self._sum)

    def totals(self, n_bins: Optional[int] = None) -> List[float]:
        """Per-bin sums as a dense list of length ``n_bins``."""
        n = self.n_bins if n_bins is None else n_bins
        s = self._sum
        return [s[b] if b < len(s) else 0.0 for b in range(n)]

    def means(self, n_bins: Optional[int] = None) -> List[float]:
        """Per-bin means (0 where the bin has no observations)."""
        n = self.n_bins if n_bins is None else n_bins
        s, c = self._sum, self._cnt
        return [
            s[b] / c[b] if b < len(c) and c[b] else 0.0 for b in range(n)
        ]

    def maxima(self, n_bins: Optional[int] = None) -> List[float]:
        """Per-bin maxima (0 where the bin has no observations)."""
        n = self.n_bins if n_bins is None else n_bins
        m, c = self._max, self._cnt
        return [m[b] if b < len(c) and c[b] else 0.0 for b in range(n)]

    def total(self) -> float:
        return sum(self._sum)


class WindowAverager:
    """Sliding-window mean over a per-bin series (Fig. 6 right panel).

    The paper smooths the per-second maximum server load by averaging
    over 11-second windows; ``smooth(series, 11)`` reproduces that.
    """

    @staticmethod
    def smooth(series: Sequence[float], window: int) -> List[float]:
        """Centered moving average, truncated at the edges."""
        if window < 1:
            raise ValueError("window must be >= 1")
        n = len(series)
        half = window // 2
        out = []
        for i in range(n):
            lo = max(0, i - half)
            hi = min(n, i + half + 1)
            out.append(sum(series[lo:hi]) / (hi - lo))
        return out


class LatencyStats:
    """Streaming latency aggregate (count/mean/max + histogram)."""

    __slots__ = ("count", "total", "max", "_hist", "_hist_width")

    def __init__(self, hist_width: float = 0.010) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self._hist: Dict[int, int] = {}
        self._hist_width = hist_width

    def record(self, latency: float) -> None:
        self.count += 1
        self.total += latency
        if latency > self.max:
            self.max = latency
        b = int(latency / self._hist_width)
        self._hist[b] = self._hist.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate percentile from the histogram (bin upper edge)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self.count:
            return 0.0
        target = q * self.count
        acc = 0
        for b in sorted(self._hist):
            acc += self._hist[b]
            if acc >= target:
                return (b + 1) * self._hist_width
        return self.max


class StatsSink:
    """The recording protocol every simulation component reports into.

    The base class implements every hook as a no-op, so a sink only
    overrides what it cares about.  Hooks must never influence
    simulation behaviour (no RNG use, no engine scheduling): swapping
    sinks must leave a fixed-seed run bit-identical.

    Every hook takes ``now`` first and annotates each further argument
    ``float``, ``int`` or ``str``: its position is its opcode in a shard
    log and its annotations the record layout, so a new hook is logged
    and replayed on sharded runs with no further code.
    """

    __slots__ = ()

    # -- server plane ----------------------------------------------------

    def record_injected(self, now: float) -> None:
        pass

    def record_drop(self, now: float, reason: str) -> None:
        pass

    def record_completion(
        self, now: float, latency: float, hops: int, stale_hops: int
    ) -> None:
        pass

    def record_forward(self, now: float, source: str) -> None:
        pass

    def record_stale_hop(self, now: float) -> None:
        pass

    def record_replica_created(self, now: float, level: int) -> None:
        pass

    def record_replica_evicted(self, now: float, level: int) -> None:
        pass

    def sample_load(self, now: float, load: float) -> None:
        pass

    # -- client plane ----------------------------------------------------

    def record_client_lookup(self, now: float) -> None:
        pass

    def record_client_timeout(self, now: float) -> None:
        pass

    def record_client_retry(self, now: float) -> None:
        pass


class NullSink(StatsSink):
    """Drops every recording: zero collection cost for hot runs."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NullSink()"


class SystemStats(StatsSink):
    """All metrics the paper's evaluation section reports.

    Time series use 1-second bins to match the paper's per-second plots.
    """

    __slots__ = (
        "injected",
        "drops",
        "completions",
        "replicas_created",
        "replicas_evicted",
        "loads",
        "latency",
        "n_injected",
        "n_completed",
        "n_dropped",
        "drop_reasons",
        "n_stale_hops",
        "hops_sum",
        "route_sources",
        "level_replicas",
        "level_evictions",
        "n_client_lookups",
        "n_client_timeouts",
        "n_client_retries",
    )

    def __init__(self, max_depth: int) -> None:
        self.injected = TimeSeries()
        self.drops = TimeSeries()
        self.completions = TimeSeries()
        self.replicas_created = TimeSeries()
        self.replicas_evicted = TimeSeries()
        self.loads = TimeSeries()
        self.latency = LatencyStats()
        self.n_injected = 0
        self.n_completed = 0
        self.n_dropped = 0
        self.drop_reasons: Dict[str, int] = {}
        self.n_stale_hops = 0
        self.hops_sum = 0
        self.route_sources: Dict[str, int] = {}
        self.level_replicas = [0] * (max_depth + 1)
        self.level_evictions = [0] * (max_depth + 1)
        self.n_client_lookups = 0
        self.n_client_timeouts = 0
        self.n_client_retries = 0

    # -- recording hooks (called through the StatsSink protocol) ---------

    def record_injected(self, now: float) -> None:
        self.n_injected += 1
        self.injected.add(now)

    def record_drop(self, now: float, reason: str) -> None:
        self.n_dropped += 1
        self.drops.add(now)
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1

    def record_completion(
        self, now: float, latency: float, hops: int, stale_hops: int
    ) -> None:
        self.n_completed += 1
        self.completions.add(now)
        self.latency.record(latency)
        self.hops_sum += hops

    def record_forward(self, now: float, source: str) -> None:
        self.route_sources[source] = self.route_sources.get(source, 0) + 1

    def record_stale_hop(self, now: float) -> None:
        self.n_stale_hops += 1

    def record_replica_created(self, now: float, level: int) -> None:
        self.replicas_created.add(now)
        self.level_replicas[level] += 1

    def record_replica_evicted(self, now: float, level: int) -> None:
        self.replicas_evicted.add(now)
        self.level_evictions[level] += 1

    def sample_load(self, now: float, load: float) -> None:
        self.loads.observe(now, load)

    def record_client_lookup(self, now: float) -> None:
        self.n_client_lookups += 1

    def record_client_timeout(self, now: float) -> None:
        self.n_client_timeouts += 1

    def record_client_retry(self, now: float) -> None:
        self.n_client_retries += 1

    # -- derived metrics ---------------------------------------------------

    @property
    def drop_fraction(self) -> float:
        return self.n_dropped / self.n_injected if self.n_injected else 0.0

    @property
    def mean_hops(self) -> float:
        return self.hops_sum / self.n_completed if self.n_completed else 0.0

    @property
    def n_replicas_created(self) -> int:
        return sum(self.level_replicas)

    def summary(self) -> Dict[str, float]:
        """A flat dict of headline aggregates (handy for tables/tests)."""
        return {
            "injected": float(self.n_injected),
            "completed": float(self.n_completed),
            "dropped": float(self.n_dropped),
            "drop_fraction": self.drop_fraction,
            "mean_latency": self.latency.mean,
            "mean_hops": self.mean_hops,
            "replicas_created": float(self.n_replicas_created),
            "stale_hops": float(self.n_stale_hops),
        }
