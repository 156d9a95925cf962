"""Sharded simulation: N engines advancing in conservative time windows.

The serial engine dispatches every event in one heap; at paper scale
(1024 servers, millions of queries) the single-core dispatch loop is
the wall-clock bottleneck.  The transport's constant delivery delay
``d`` is a classic conservative-lookahead guarantee: a message sent at
time ``t`` delivers at exactly ``t + d``, so events more than ``d``
apart in simulated time cannot affect each other across servers.  The
windowed run loop exploits this:

1. Servers are partitioned across ``n_shards`` shard engines in
   contiguous balanced blocks (:func:`repro.net.transport.shard_of_sid`)
   over the same uniform node assignment the serial build uses.
2. Every shard runs one window of width ``d`` (``Engine.run_window``),
   buffering cross-shard sends in per-destination egress lists.
3. At the window barrier the coordinator exchanges egress batches;
   each shard merges them into its delivery ring by the canonical key
   ``(deliver_at, src_shard, send_seq)`` and the next window begins.

A send in window ``k`` delivers in window ``k + 1`` by construction
(window width equals the delay and float addition is monotone -- see
:func:`window_plan`), so no shard ever receives a message for a time
it has already executed; :class:`~repro.sim.engine.ShardError` guards
the invariant at every merge.

Determinism is *by construction*, not by luck: fixed-seed runs are
bit-identical to the serial engine for every shard count (tests lock
serial against 1/2/4/8 shards).  Three mechanisms carry the proof:

- The arrival stream is the one the serial driver consumes lazily
  (:func:`repro.workload.arrivals.iter_arrivals`), materialised once,
  query ids assigned in global arrival order, then partitioned by the
  source server's shard.
- Every *global* construction draw (node assignment, heterogeneity,
  bootstrap) is replayed identically in each shard and applied only
  locally; per-peer RNG streams are keyed by server id, not creation
  order.
- Stats are recorded per shard as a timestamped event log and replayed
  in canonical merge order ``(time, shard, log index)`` into one fresh
  collector, reproducing the serial run's accumulation order exactly
  (contiguous shard blocks make merged same-time per-server records,
  e.g. maintenance load samples, come out in serial's ascending-sid
  order).

Process-backed execution (one forked worker process per shard,
persistent pipes, one round-trip per window) gives the multi-core win;
the inline backend runs every shard in-process for debugging and
profiling.
Configs without constant lookahead (``net_jitter > 0``,
``net_delay == 0``) or with cross-shard state reads (``oracle_maps``)
raise :class:`ShardError`; :func:`run_sharded_workload` then warns and
falls back to the serial engine rather than silently diverging.
"""

from __future__ import annotations

import heapq
import math
import os
import warnings
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

from repro.cluster.builder import _resolve_owner, build_shard_system, build_system
from repro.cluster.config import SystemConfig
from repro.namespace.tree import Namespace
from repro.net.codec import require_encodable
from repro.net.transport import shard_of_sid
from repro.sim.engine import ShardError
from repro.sim.shardcodec import (
    OP_EXIT,
    OP_FINISH,
    OP_STEP,
    ST_ERROR,
    ST_OK,
    ST_PAYLOAD,
    ST_STEP,
    STATS_RECORDS,
    ArrivalBatch,
    PackedLog,
    StatsRecord,
    decode_batch,
    decode_stats_log,
    decode_step_reply,
    decode_step_request,
    encode_batch,
    encode_step_reply,
    encode_step_request,
)
from repro.sim.stats import StatsSink, SystemStats
from repro.workload.arrivals import WorkloadDriver, iter_arrivals
from repro.workload.streams import WorkloadSpec

__all__ = [
    "MAX_EVENT_OVERHEAD",
    "MergedRun",
    "ShardRecorder",
    "ShardResult",
    "ShardRunner",
    "WindowedCoordinator",
    "replay_stats",
    "resolve_backend",
    "resolve_shards",
    "run_fingerprint",
    "run_sharded_workload",
    "stats_fingerprint",
    "window_plan",
]


# ----------------------------------------------------------------------
# per-shard stats event log + canonical-order replay
# ----------------------------------------------------------------------

def _recorder_hook(code: int, record: StatsRecord) -> Callable[..., None]:
    """One :class:`ShardRecorder` method: pack ``(now, code, *args)``."""
    name, layout, str_at = record
    pack = layout.pack
    if str_at:
        def hook(self: ShardRecorder, now: float, *args: Any) -> None:
            vals = list(args)
            for i in str_at:
                vals[i] = self._intern(vals[i])
            self._data += pack(now, code, *vals)
            self.n += 1
    else:
        def hook(self: ShardRecorder, now: float, *args: Any) -> None:
            self._data += pack(now, code, *args)
            self.n += 1
    hook.__name__ = name
    hook.__qualname__ = f"ShardRecorder.{name}"
    return hook


class ShardRecorder(StatsSink):
    """Logs every stats hook as a timestamped record instead of folding
    it into aggregates.

    Aggregating per shard and summing at the end would lose bitwise
    equality with the serial run: float accumulation order, histogram
    dict insertion order, and per-bin maxima all depend on the *global*
    event order.  Replaying all shards' logs merged by ``(time, shard,
    index)`` into one fresh :class:`~repro.sim.stats.SystemStats`
    performs the serial collector's additions in the serial order.

    Records go straight into a flat byte buffer (a
    :class:`~repro.sim.shardcodec.PackedLog`) with string arguments
    interned into a small table.  The hook methods are set below the
    class, one per :data:`~repro.sim.shardcodec.STATS_RECORDS` entry.
    """

    __slots__ = ("_data", "_strings", "_sidx", "n")

    def __init__(self) -> None:
        self._data = bytearray()
        self._strings: List[str] = []
        self._sidx: Dict[str, int] = {}
        self.n = 0

    def _intern(self, s: str) -> int:
        i = self._sidx.get(s)
        if i is None:
            i = self._sidx[s] = len(self._strings)
            self._strings.append(s)
            if i > 0xFFFF:  # pragma: no cover - vocabulary is tiny
                raise ShardError("stats string table overflow (u16 index)")
        return i

    def packed(self) -> PackedLog:
        """The log so far as a picklable flat-bytes payload."""
        return PackedLog(bytes(self._data), tuple(self._strings), self.n)


for _code, _record in enumerate(STATS_RECORDS):
    setattr(ShardRecorder, _record[0], _recorder_hook(_code, _record))


def replay_stats(logs: Sequence[PackedLog], max_depth: int) -> SystemStats:
    """Merge per-shard logs and replay them into one fresh collector.

    Streams are merged by ``(timestamp, shard_id, log_index)`` --
    within a shard the log index is execution order, and across shards
    simultaneous records come out in shard order, which (contiguous
    shard blocks, ascending-sid local loops) equals the serial run's
    ascending-sid order for the only simultaneous cross-shard records
    there are: per-server maintenance samples.  Every record calls the
    hook it was logged from, with the arguments it was logged with.
    """
    stats = SystemStats(max_depth)

    def keyed(
        shard_id: int, log: List[tuple]
    ) -> Iterator[Tuple[float, int, int, tuple]]:
        # a real function, not a nested genexp: the genexp would look
        # up shard_id lazily and stamp every stream with the last one
        return ((rec[0], shard_id, idx, rec) for idx, rec in enumerate(log))

    streams = [keyed(i, decode_stats_log(log)) for i, log in enumerate(logs)]
    hooks = [getattr(stats, name) for name, _, _ in STATS_RECORDS]
    for t, _, _, rec in heapq.merge(*streams):
        hooks[rec[1]](t, *rec[2:])
    return stats


# ----------------------------------------------------------------------
# one shard: system + recorder + window stepping
# ----------------------------------------------------------------------


class ShardResult:
    """Everything a finished shard ships back to the coordinator.

    Plain picklable payload (the process backend sends one per shard
    over a pipe): the stats event log plus per-server simulation-owned
    state, in ascending-sid order.
    """

    __slots__ = (
        "shard_id",
        "log",
        "n_sent",
        "n_control_sent",
        "n_lost",
        "now",
        "n_dispatched",
        "local_sids",
        "processed_by_sid",
        "queue_drops_by_sid",
        "replicas_by_sid",
        "hosted_by_sid",
        "data_plane",
    )

    def __init__(self, **kw: Any) -> None:
        for name in self.__slots__:
            setattr(self, name, kw.pop(name))
        if kw:
            raise TypeError(f"unexpected fields {sorted(kw)}")

    def __repr__(self) -> str:
        return (
            f"ShardResult(shard={self.shard_id}, events={self.n_dispatched}, "
            f"log={len(self.log)} records)"
        )


class ShardRunner:
    """Owns one shard's system and steps it window by window."""

    def __init__(
        self,
        ns: Namespace,
        cfg: SystemConfig,
        shard_id: int,
        n_shards: int,
        owner: Sequence[int],
        arrivals: Sequence[Tuple[float, int, int, int]],
    ) -> None:
        self.recorder = ShardRecorder()
        self.system = build_shard_system(
            ns, cfg, shard_id, n_shards, owner=owner, stats=self.recorder,
        )
        self.system.feed(arrivals)
        self.system.start_maintenance()
        # wall-clock codec accounting (``data_plane`` only -- never
        # part of any fingerprint)
        self.encode_s = 0.0
        self.decode_s = 0.0
        self.bytes_in = 0
        self.bytes_out = 0

    def next_time(self) -> float:
        """Earliest pending local event (+inf when the heap is empty).

        The coordinator takes the minimum across shards to decide how
        many empty windows it may coalesce past without a barrier.  A
        lazily-cancelled event may report an earlier time than any live
        event -- that only makes coalescing more conservative.
        """
        t = self.system.engine.peek_time()
        return math.inf if t is None else t

    def step(
        self, end: float, inclusive: bool, batches: List[List[tuple]]
    ) -> Tuple[Dict[int, List[tuple]], float]:
        """Ingest the barrier's batches, run one window, return egress
        plus this shard's next pending event time."""
        transport = self.system.transport
        transport.ingest(batches)
        self.system.engine.run_window(end, inclusive)
        return transport.collect_egress(), self.next_time()

    def step_packed(
        self, end: float, inclusive: bool, frames: Sequence[Any]
    ) -> Tuple[List[Tuple[int, bytes]], float]:
        """The packed-codec variant of :meth:`step`.

        Ingress and egress are codec frames
        (:mod:`repro.sim.shardcodec`); message objects exist only
        inside this shard, never on the pipe.  Egress frames come back
        in ascending destination-shard order (the same order
        ``collect_egress`` + sorted routing produces).
        """
        t0 = perf_counter()
        batches = [decode_batch(f) for f in frames]
        self.decode_s += perf_counter() - t0
        self.bytes_in += sum(len(f) for f in frames)
        transport = self.system.transport
        transport.ingest(batches)
        self.system.engine.run_window(end, inclusive)
        out = transport.collect_egress()
        t1 = perf_counter()
        dest_frames = [
            (dest, encode_batch(out[dest])) for dest in sorted(out)
        ]
        self.encode_s += perf_counter() - t1
        self.bytes_out += sum(len(f) for _, f in dest_frames)
        return dest_frames, self.next_time()

    def finish(self) -> ShardResult:
        system = self.system
        transport = system.transport
        engine = system.engine
        peers = system.local_peers
        return ShardResult(
            shard_id=system.shard_id,
            log=self.recorder.packed(),
            n_sent=transport.n_sent,
            n_control_sent=transport.n_control_sent,
            n_lost=transport.n_lost,
            now=engine.now,
            n_dispatched=engine.n_dispatched,
            local_sids=list(system.local_sids),
            processed_by_sid=[p.n_processed for p in peers],
            queue_drops_by_sid=[p.n_queue_drops for p in peers],
            replicas_by_sid=[sorted(p.replicas) for p in peers],
            hosted_by_sid=[sorted(p.hosted_list) for p in peers],
            data_plane={
                "encode_s": self.encode_s,
                "decode_s": self.decode_s,
                "bytes_in": self.bytes_in,
                "bytes_out": self.bytes_out,
            },
        )


# ----------------------------------------------------------------------
# the merged outcome: a read-only stand-in for a finished System
# ----------------------------------------------------------------------


class _EngineView:
    __slots__ = ("now", "n_dispatched")

    def __init__(self, now: float, n_dispatched: int) -> None:
        self.now = now
        self.n_dispatched = n_dispatched


class _TransportView:
    __slots__ = ("n_sent", "n_control_sent", "n_lost")

    def __init__(self, n_sent: int, n_control_sent: int, n_lost: int) -> None:
        self.n_sent = n_sent
        self.n_control_sent = n_control_sent
        self.n_lost = n_lost


class MergedRun:
    """The merged outcome of a sharded run, shaped like a finished
    :class:`~repro.cluster.system.System`.

    Carries exactly the read surface the analysis layer touches
    (``stats``, ``engine.now``, transport counters,
    :meth:`total_replicas`, :meth:`hosted_counts`), so
    :func:`repro.analysis.summary.run_summary` and
    :func:`repro.analysis.series.rate_series` work on it unchanged.
    Per-sid lists are global (all shards concatenated in shard order,
    which is ascending sid).
    """

    __slots__ = (
        "ns",
        "cfg",
        "stats",
        "engine",
        "transport",
        "n_shards",
        "n_windows",
        "processed_by_sid",
        "queue_drops_by_sid",
        "replicas_by_sid",
        "hosted_by_sid",
        "data_plane",
    )

    def __init__(
        self,
        ns: Namespace,
        cfg: SystemConfig,
        results: Sequence[ShardResult],
        stats: SystemStats,
        until: float,
        data_plane: Dict[str, Any],
    ) -> None:
        self.ns = ns
        self.cfg = cfg
        self.stats = stats
        self.data_plane = data_plane
        self.n_shards = len(results)
        # barriers the coordinator stepped; its extra pass for mail
        # landing exactly on the horizon is not a window of the plan
        self.n_windows: int = data_plane["n_barriers"]
        self.engine = _EngineView(
            until, sum(r.n_dispatched for r in results)
        )
        self.transport = _TransportView(
            sum(r.n_sent for r in results),
            sum(r.n_control_sent for r in results),
            sum(r.n_lost for r in results),
        )
        self.processed_by_sid: List[int] = []
        self.queue_drops_by_sid: List[int] = []
        self.replicas_by_sid: List[List[int]] = []
        self.hosted_by_sid: List[List[int]] = []
        for r in results:
            self.processed_by_sid.extend(r.processed_by_sid)
            self.queue_drops_by_sid.extend(r.queue_drops_by_sid)
            self.replicas_by_sid.extend(r.replicas_by_sid)
            self.hosted_by_sid.extend(r.hosted_by_sid)

    def total_replicas(self) -> int:
        return sum(len(r) for r in self.replicas_by_sid)

    def hosted_counts(self) -> List[int]:
        return [len(h) for h in self.hosted_by_sid]

    def __repr__(self) -> str:
        return (
            f"MergedRun(shards={self.n_shards}, "
            f"servers={len(self.processed_by_sid)}, "
            f"t={self.engine.now:.2f}, windows={self.n_windows})"
        )


# ----------------------------------------------------------------------
# fingerprints (sharded-determinism checks in tests and CI)
# ----------------------------------------------------------------------


def stats_fingerprint(stats: SystemStats) -> Dict[str, Any]:
    """Every collector accumulator, JSON-shaped, bit-faithful.

    Floats go in un-rounded: the sharded contract is *bitwise* equality
    with the serial run, so ``json.dumps`` of two fingerprints must
    match byte for byte.
    """
    return {
        "injected": stats.n_injected,
        "completed": stats.n_completed,
        "dropped": stats.n_dropped,
        "drop_reasons": dict(stats.drop_reasons),
        "stale_hops": stats.n_stale_hops,
        "hops_sum": stats.hops_sum,
        "route_sources": dict(stats.route_sources),
        "level_replicas": list(stats.level_replicas),
        "level_evictions": list(stats.level_evictions),
        "client": [
            stats.n_client_lookups,
            stats.n_client_timeouts,
            stats.n_client_retries,
        ],
        "latency": [
            stats.latency.count,
            stats.latency.total,
            stats.latency.max,
            sorted(stats.latency._hist.items()),
        ],
        "series": {
            name: getattr(stats, name).totals()
            for name in (
                "injected", "drops", "completions",
                "replicas_created", "replicas_evicted",
            )
        },
        "loads": [
            stats.loads.totals(),
            stats.loads.means(),
            stats.loads.maxima(),
        ],
    }


def run_fingerprint(run: Any) -> Dict[str, Any]:
    """Full-run fingerprint of a finished ``System`` or ``MergedRun``.

    Covers simulation-owned per-server state *and* the stats collector;
    deliberately excludes ``engine.n_dispatched`` -- the sharded run
    legitimately dispatches different bookkeeping events (per-shard
    feeders, ticks and drains) while producing identical simulation
    state.  Equal fingerprints therefore say nothing about cost: the
    event count is bounded separately (:data:`MAX_EVENT_OVERHEAD`).
    """
    if isinstance(run, MergedRun):
        per_sid = {
            "processed": list(run.processed_by_sid),
            "queue_drops": list(run.queue_drops_by_sid),
            "replicas": [list(r) for r in run.replicas_by_sid],
            "hosted": [list(h) for h in run.hosted_by_sid],
        }
    else:
        per_sid = {
            "processed": [p.n_processed for p in run.peers],
            "queue_drops": [p.n_queue_drops for p in run.peers],
            "replicas": [sorted(p.replicas) for p in run.peers],
            "hosted": [sorted(p.hosted_list) for p in run.peers],
        }
    fp = dict(per_sid)
    fp["now"] = run.engine.now
    fp["transport"] = [
        run.transport.n_sent, run.transport.n_control_sent,
        run.transport.n_lost,
    ]
    fp["replicas_live"] = run.total_replicas()
    stats = run.stats
    fp["stats"] = (
        stats_fingerprint(stats) if isinstance(stats, SystemStats) else None
    )
    return fp


#: Share of the serial engine's event count a sharded run of the same
#: inputs may dispatch on top of it.  Per shard the honest extras are a
#: maintenance tick chain, an arrival feeder, timer-wheel buckets and
#: drains for delivery times that two shards share: 0.1 to 2.5 % on
#: the streams measured (DESIGN.md section 12.3).  ``shard-check``
#: and the tier-1 cost test fail above this.
MAX_EVENT_OVERHEAD = 0.05


# ----------------------------------------------------------------------
# window schedule
# ----------------------------------------------------------------------


def window_plan(
    net_delay: float, until: float
) -> Iterator[Tuple[float, bool]]:
    """Yield ``(window_end, inclusive)`` barrier points covering
    ``[0, until]``.

    Ends accumulate by repeated addition (``end += net_delay``) rather
    than multiplication (``k * net_delay``) -- deliberately, because
    delivery times accumulate the same way (``now + net_delay``) and
    correctly rounded float addition is monotone: a send at ``t >=
    end_k`` delivers at ``t + d >= end_k + d == end_{k+1}`` *as
    floats*, so no delivery can land inside an already-executed window
    even where ``k * d`` and ``(k-1) * d + d`` would disagree by an
    ulp.  All windows are end-exclusive except the last, which lands
    inclusively on ``until`` to match the serial engine's
    ``run(until)`` stopping rule.
    """
    if net_delay <= 0:
        raise ShardError("window width must be positive (net_delay > 0)")
    if until <= 0:
        raise ValueError("until must be > 0")
    end = net_delay
    while end < until:
        yield end, False
        end += net_delay
    yield until, True


# ----------------------------------------------------------------------
# shard-count / backend resolution
# ----------------------------------------------------------------------


def resolve_shards(
    requested: Optional[int] = None, n_servers: Optional[int] = None
) -> int:
    """Effective shard count: explicit argument, else ``REPRO_SHARDS``.

    ``REPRO_SHARDS`` accepts a positive integer, ``auto`` (cpu count),
    or unset/``0``/``none`` for serial.  The count is clamped to
    ``n_servers`` when given -- more shards than servers would leave
    empty engines whose barriers cost time and buy nothing.
    """
    n = requested
    if n is None:
        raw = os.environ.get("REPRO_SHARDS", "").strip().lower()
        if raw in ("", "0", "none", "off"):
            n = 1
        elif raw == "auto":
            n = os.cpu_count() or 1
        else:
            try:
                n = int(raw)
            except ValueError:
                raise ValueError(
                    f"REPRO_SHARDS={raw!r} is not an integer, 'auto', or unset"
                ) from None
    if n < 1:
        raise ValueError(f"shard count must be >= 1, got {n}")
    if n_servers is not None:
        n = min(n, n_servers)
    return n


def resolve_backend(requested: Optional[str] = None, n_shards: int = 1) -> str:
    """Pick ``inline`` or ``process`` for a sharded run.

    Explicit argument wins, else ``REPRO_SHARD_BACKEND``, else
    ``auto``.  ``auto`` chooses processes only when the CPU budget
    (:func:`repro.experiments.parallel.shard_process_budget`, which
    already accounts for campaign-level ``REPRO_WORKERS``) covers every
    shard, and the platform can fork -- it never oversubscribes.  An
    explicit ``process`` request always gets processes, with a warning
    when that oversubscribes the machine (and, where there is no
    ``fork``, a :class:`ShardError` from the coordinator).
    """
    from repro.experiments.parallel import fork_available, shard_process_budget

    b = requested or os.environ.get("REPRO_SHARD_BACKEND", "").strip().lower()
    b = b or "auto"
    if b not in ("auto", "inline", "process"):
        raise ValueError(
            f"unknown shard backend {b!r}; choose auto, inline, or process"
        )
    if b == "inline" or n_shards <= 1:
        return "inline"
    budget = shard_process_budget()
    if b == "auto":
        return (
            "process" if budget >= n_shards and fork_available()
            else "inline"
        )
    if budget < n_shards:
        warnings.warn(
            f"REPRO_SHARD_BACKEND=process with {n_shards} shards "
            f"oversubscribes the CPU budget ({budget} free after "
            "campaign workers); expect contention, not speedup",
            RuntimeWarning,
            stacklevel=2,
        )
    return "process"


# ----------------------------------------------------------------------
# the coordinator
# ----------------------------------------------------------------------


class WindowedCoordinator:
    """Lock-steps N shard engines through ``net_delay``-wide windows.

    Owns the global pieces of a sharded run: the pre-generated arrival
    schedule (global query ids, partitioned by source shard), the
    window plan, the per-barrier egress exchange, and the final merge
    into a :class:`MergedRun`.  Backends: ``inline`` steps every shard
    in this process (debugging, tracing, tests); ``process`` keeps
    one persistent worker process per shard with a single pipe
    round-trip per window.
    """

    def __init__(
        self,
        ns: Namespace,
        cfg: SystemConfig,
        spec: WorkloadSpec,
        n_shards: int,
        backend: str = "inline",
        codec: bool = False,
    ) -> None:
        if cfg.net_jitter > 0:
            raise ShardError(
                "sharded execution requires constant delivery delay "
                f"(net_jitter={cfg.net_jitter}); run with net_jitter=0 "
                "or on the serial engine"
            )
        if cfg.net_delay <= 0:
            raise ShardError(
                "sharded execution requires net_delay > 0 "
                "(the window width equals the delivery delay)"
            )
        if cfg.oracle_maps:
            raise ShardError(
                "oracle_maps consults ground-truth peer state across "
                "shards; run oracle comparisons on the serial engine"
            )
        if backend not in ("inline", "process"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "process":
            from repro.experiments.parallel import fork_available

            if not fork_available():
                raise ShardError(
                    "the process backend forks its shard workers, and "
                    "this platform has no 'fork' start method"
                )
        self.ns = ns
        self.cfg = cfg
        self.spec = spec
        self.n_shards = resolve_shards(n_shards, cfg.n_servers)
        self.backend = backend
        # the process backend always runs the packed data plane (that
        # is its whole point); `codec=True` makes the inline backend
        # round-trip every barrier through the codec too, which is how
        # tests and the bench pin frame-level determinism in-process
        self.codec = bool(codec) or backend == "process"
        if self.codec:
            from repro.server.peer import PEER_DISPATCH

            require_encodable(PEER_DISPATCH.types())
        self.n_windows = 0
        self.n_coalesced = 0
        self.barrier_wait_s = 0.0
        self.bytes_exchanged = 0
        self.data_plane: Dict[str, Any] = {}
        self.owner = _resolve_owner(ns, cfg, None)
        # pre-generate the arrival schedule: global qids in arrival
        # order, partitioned by the source server's shard, then packed
        # into flat columns (24 bytes/arrival on the worker pipes
        # instead of a pickled tuple of four boxed numbers)
        per_shard: List[List[Tuple[float, int, int, int]]] = [
            [] for _ in range(self.n_shards)
        ]
        n_servers = cfg.n_servers
        qid = 0
        for t, src, dest in iter_arrivals(spec, len(ns), n_servers):
            qid += 1
            per_shard[shard_of_sid(src, n_servers, self.n_shards)].append(
                (t, src, dest, qid)
            )
        self.arrivals = [ArrivalBatch(rows) for rows in per_shard]

    # ------------------------------------------------------------------

    def run(self, until: float) -> MergedRun:
        """Advance every shard to ``until``; return the merged run.

        Window coalescing: after a barrier at which *every* shard's
        egress was empty, let ``nt_min`` be the minimum over shards of
        the next pending local event time.  Every subsequent
        non-inclusive window end ``e <= nt_min`` is skipped without a
        barrier -- those sub-windows provably contain no events (all
        pending events are at ``>= nt_min``), so when the loop finally
        steps to the first end past ``nt_min``, every event it executes
        lies in the *final* skipped-to sub-window and its sends deliver
        at or after that window's end, exactly as if each empty window
        had been stepped individually.  The final inclusive window is
        never skipped (it must land every clock on ``until``).
        """
        stepper: Union[_ProcessStepper, _InlineStepper] = (
            _ProcessStepper(self) if self.backend == "process"
            else _InlineStepper(self)
        )
        try:
            inboxes: List[List[Any]] = [[] for _ in range(self.n_shards)]
            pending = False  # any cross-shard mail at the last barrier?
            next_min: Optional[float] = None
            for end, inclusive in window_plan(self.cfg.net_delay, until):
                if (
                    not inclusive
                    and not pending
                    and next_min is not None
                    and end <= next_min
                ):
                    self.n_coalesced += 1
                    continue
                outs, next_min = stepper.step_all(end, inclusive, inboxes)
                self.n_windows += 1
                inboxes = self._route(outs)
                pending = any(inboxes)
            if pending:
                # cross-shard messages landing at exactly `until` (sent
                # at exactly `until - net_delay`): the serial engine's
                # inclusive stop delivers them, so drain one more
                # inclusive pass at the same instant.  Anything later
                # stays undelivered, exactly like serial in-flight mail.
                stepper.step_all(until, True, inboxes)
            results = stepper.finish_all()
            # process workers exit on their own once finished: replay
            # while they tear down, join them after
            stats = replay_stats([r.log for r in results], self.ns.max_depth)
        finally:
            stepper.close()
        self.data_plane = {
            "backend": self.backend,
            "codec": self.codec,
            "n_barriers": self.n_windows,
            "n_coalesced": self.n_coalesced,
            "barrier_wait_s": self.barrier_wait_s,
            "bytes_exchanged": self.bytes_exchanged,
            "encode_s": sum(r.data_plane["encode_s"] for r in results),
            "decode_s": sum(r.data_plane["decode_s"] for r in results),
        }
        return MergedRun(
            self.ns, self.cfg, results, stats, until, self.data_plane
        )

    def _route(self, outs: Sequence[Dict[int, Any]]) -> List[List[Any]]:
        """Turn per-shard egress dicts into per-shard ingest batches.

        Batches are appended in ascending source-shard order so every
        shard merges the same barrier the same way no matter which
        backend delivered it.  With the codec on, a batch is a packed
        frame (bytes) the coordinator routes without decoding; the
        canonical merge key rides in each record's header.  Egress a
        shard addressed to itself or to no shard raises ``ShardError``.
        """
        n = self.n_shards
        inboxes: List[List[Any]] = [[] for _ in range(n)]
        for src in range(n):
            out = outs[src]
            for dest in sorted(out):
                if not 0 <= dest < n or dest == src:
                    raise ShardError(
                        f"shard {src} sent egress to shard {dest} at "
                        f"window {self.n_windows} ({n} shards)"
                    )
                batch = out[dest]
                if not isinstance(batch, list):
                    self.bytes_exchanged += len(batch)
                inboxes[dest].append(batch)
        return inboxes

    def _runner_args(self, shard_id: int) -> tuple:
        return (
            self.ns, self.cfg, shard_id, self.n_shards, self.owner,
            self.arrivals[shard_id],
        )


class _InlineStepper:
    """All shards in this process, stepped round-robin.

    With ``codec`` on, every barrier's egress is round-tripped through
    the packed frames (encode on collect, decode on ingest) even though
    no pipe is involved -- the in-process way to pin codec determinism.
    """

    def __init__(self, coord: WindowedCoordinator) -> None:
        self.codec = coord.codec
        self.runners = [
            ShardRunner(*coord._runner_args(i))
            for i in range(coord.n_shards)
        ]

    def step_all(
        self, end: float, inclusive: bool, inboxes: Sequence[List[Any]]
    ) -> Tuple[List[Dict[int, Any]], float]:
        outs: List[Dict[int, Any]] = []
        next_min = math.inf
        for i, r in enumerate(self.runners):
            if self.codec:
                dest_frames, nt = r.step_packed(end, inclusive, inboxes[i])
                outs.append(dict(dest_frames))
            else:
                out, nt = r.step(end, inclusive, inboxes[i])
                outs.append(out)
            next_min = min(next_min, nt)
        return outs, next_min

    def finish_all(self) -> List[ShardResult]:
        return [r.finish() for r in self.runners]

    def close(self) -> None:
        pass


class _ProcessStepper:
    """One persistent forked worker process per shard, pure-bytes pipes.

    Workers are long-lived (forked once, one pipe round-trip per
    window) because shard state -- the engine heap, every peer --
    cannot cross process boundaries between windows.  All sends go out
    before any receive so shards genuinely run their windows in
    parallel.

    A worker inherits its :meth:`WindowedCoordinator._runner_args` --
    the namespace, the owner map, its arrival batch -- at fork, copy on
    write, and builds its :class:`ShardRunner` from them.  Pickle
    appears once in a worker's lifetime, for the final
    :class:`ShardResult`; every window request, every egress batch and
    the stats log inside the result is flat packed bytes
    (:mod:`repro.sim.shardcodec`).
    """

    def __init__(self, coord: WindowedCoordinator) -> None:
        from repro.experiments.parallel import PersistentWorker

        self.coord = coord
        self.workers: List[PersistentWorker] = []
        self._window = 0
        try:
            for i in range(coord.n_shards):
                self.workers.append(PersistentWorker(
                    _shard_worker_main, *coord._runner_args(i)
                ))
            # the handshake: a failed build is an ST_ERROR naming its shard
            for i in range(coord.n_shards):
                self._recv(i, ST_OK, "while building its shard")
        except BaseException:
            self.close()
            raise

    def _died(self, shard_id: int, where: str, exc: Exception) -> ShardError:
        self.close()
        return ShardError(f"shard {shard_id} worker died {where}: {exc}")

    def _recv(self, shard_id: int, want: int, where: str) -> bytes:
        """One reply from a worker, its status byte checked; a worker
        traceback surfaces in the ``ShardError``."""
        from repro.experiments.parallel import ParallelTaskError

        try:
            payload = self.workers[shard_id].recv_frame()
        except ParallelTaskError as exc:
            raise self._died(shard_id, where, exc) from None
        if not payload or payload[0] != want:
            detail = (
                payload[1:].decode("utf-8", "replace") if payload else "EOF"
            )
            self.close()
            raise ShardError(
                f"shard {shard_id} worker failed at window "
                f"{self._window}:\n{detail}"
            )
        return payload

    def step_all(
        self, end: float, inclusive: bool, inboxes: Sequence[List[Any]]
    ) -> Tuple[List[Dict[int, Any]], float]:
        from repro.experiments.parallel import ParallelTaskError

        self._window += 1
        where = f"at window {self._window} (end={end})"
        for i, w in enumerate(self.workers):
            try:
                w.send_frame(encode_step_request(end, inclusive, inboxes[i]))
            except ParallelTaskError as exc:
                raise self._died(i, where, exc) from None
        outs: List[Dict[int, Any]] = []
        next_min = math.inf
        t0 = perf_counter()
        for i in range(len(self.workers)):
            payload = self._recv(i, ST_STEP, where)
            nt, dest_frames = decode_step_reply(memoryview(payload)[1:])
            # frames stay zero-copy views into the reply payload; the
            # routed inbox holds them alive until the next send
            outs.append(dict(dest_frames))
            if nt < next_min:
                next_min = nt
        self.coord.barrier_wait_s += perf_counter() - t0
        return outs, next_min

    def finish_all(self) -> List[ShardResult]:
        import pickle

        for w in self.workers:
            w.send_frame(bytes((OP_FINISH,)))
        return [
            pickle.loads(
                memoryview(self._recv(i, ST_PAYLOAD, "during finish"))[1:]
            )
            for i in range(len(self.workers))
        ]

    def close(self) -> None:
        """Stop every remaining worker (after a failure too); idempotent."""
        for w in self.workers:
            w.close(sentinel=bytes((OP_EXIT,)))
        self.workers = []


def _shard_worker_main(conn: "Connection", *runner_args: Any) -> None:
    """Worker-process loop: build the shard once, step per barrier.

    Runs in a child forked by :class:`_ProcessStepper`, so
    ``runner_args`` are the coordinator's own objects.  The protocol is
    bytes frames in both directions: request op byte + body, reply
    status byte + body (:mod:`repro.sim.shardcodec`); the first reply
    is ``ST_OK`` once the shard is built.
    """
    import pickle
    import traceback

    try:
        runner = ShardRunner(*runner_args)
        conn.send_bytes(bytes((ST_OK,)))
        while True:
            try:
                payload = conn.recv_bytes()
            except EOFError:  # parent went away
                return
            op = payload[0]
            if op == OP_STEP:
                end, inclusive, frames = decode_step_request(
                    memoryview(payload)[1:]
                )
                dest_frames, nt = runner.step_packed(end, inclusive, frames)
                conn.send_bytes(encode_step_reply(nt, dest_frames))
            elif op == OP_FINISH:
                conn.send_bytes(
                    bytes((ST_PAYLOAD,)) + pickle.dumps(runner.finish())
                )
                # the last frame of a run: exit without waiting for
                # OP_EXIT, so the exit overlaps the coordinator's replay
                # instead of following it
                return
            elif op == OP_EXIT:
                return
            else:  # pragma: no cover - protocol misuse
                conn.send_bytes(
                    bytes((ST_ERROR,)) + f"unknown op {op}".encode("utf-8")
                )
                return
    except BaseException:
        try:
            conn.send_bytes(
                bytes((ST_ERROR,)) + traceback.format_exc().encode("utf-8")
            )
        except OSError:  # pragma: no cover - pipe already closed
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# the front door
# ----------------------------------------------------------------------


def run_sharded_workload(
    ns: Namespace,
    cfg: SystemConfig,
    spec: WorkloadSpec,
    until: float,
    shards: Optional[int] = None,
    backend: Optional[str] = None,
) -> Any:
    """Run one workload to ``until``, sharded when asked and possible.

    The experiment-facing entry point: shard count comes from
    ``shards`` or ``REPRO_SHARDS`` (default 1 = the plain serial
    engine, zero new machinery on that path), backend from ``backend``
    or ``REPRO_SHARD_BACKEND``.  Configs the windowed protocol cannot
    handle (jitter, zero delay, oracle maps) raise
    :class:`ShardError` inside the coordinator; this wrapper warns and
    falls back to the serial engine, which handles everything.

    Returns the finished :class:`~repro.cluster.system.System` (serial)
    or :class:`MergedRun` (sharded); both carry the full analysis read
    surface, and fixed-seed fingerprints are bit-identical either way.
    """
    n = resolve_shards(shards, cfg.n_servers)
    if n > 1:
        try:
            coord = WindowedCoordinator(
                ns, cfg, spec, n, backend=resolve_backend(backend, n)
            )
        except ShardError as exc:
            warnings.warn(
                f"sharded run unavailable ({exc}); falling back to the "
                "serial engine",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            return coord.run(until)
    system = build_system(ns, cfg)
    WorkloadDriver(system, spec).start()
    system.run_until(until)
    return system


# ----------------------------------------------------------------------
# CLI: python -m repro shard-check [--shards 1,2,4] ...
# ----------------------------------------------------------------------


def _cost_text(run: Any) -> str:
    """Engine events of a finished run, and per transport message."""
    events = run.engine.n_dispatched
    msgs = run.transport.n_sent + run.transport.n_control_sent
    return f"events={events} ({events / max(msgs, 1):.2f}/msg)"


def main(argv: List[str]) -> int:
    """Sharded-determinism check: serial vs N-shard results and cost.

    Runs a small hot-spot point once on the serial engine and once per
    requested shard count, compares full-run fingerprints byte for
    byte, and fails a sharded run that dispatches more than
    :data:`MAX_EVENT_OVERHEAD` over the serial engine's events (CI runs
    this with ``--shards 1,4``).  The default point is loaded enough to
    replicate: probe replies and transfer acks are the sends a delivery
    makes synchronously, which is where a transport that mis-arms its
    drain spends events; a cold stream would pass it.
    """
    import argparse
    import json

    from repro.namespace.generators import balanced_tree

    parser = argparse.ArgumentParser(
        prog="python -m repro shard-check",
        description="verify sharded runs are bit-identical to serial "
        "and dispatch no more than 5%% more engine events",
    )
    parser.add_argument(
        "--shards", default="1,4",
        help="comma-separated shard counts to verify (default: 1,4)",
    )
    parser.add_argument(
        "--levels", type=int, default=10,
        help="namespace tree depth (default: 10)",
    )
    parser.add_argument(
        "--servers", type=int, default=48,
        help="server count; the stream offers 25 lookups/s per server, "
        "about 45%% utilisation (default: 48)",
    )
    parser.add_argument(
        "--duration", type=float, default=4.0,
        help="workload duration in simulated seconds (default: 4)",
    )
    parser.add_argument(
        "--backend", default="inline", choices=("inline", "process"),
        help="shard backend to exercise (default: inline)",
    )
    parser.add_argument(
        "--codec", action="store_true",
        help="force the packed egress codec on the inline backend "
        "(the process backend always uses it)",
    )
    args = parser.parse_args(argv)
    counts = [int(c) for c in args.shards.split(",") if c.strip()]

    from repro.workload.streams import cuzipf_stream

    ns = balanced_tree(levels=args.levels)
    cfg = SystemConfig.replicated(
        n_servers=args.servers, seed=1009, cache_slots=16
    )
    phase = args.duration / 2.0
    spec = cuzipf_stream(
        rate=25.0 * args.servers, alpha=1.0, warmup=phase, phase=phase,
        n_phases=1,
        seed=1009,
    )
    until = spec.duration + 1.0

    system = build_system(ns, cfg)
    WorkloadDriver(system, spec).start()
    system.run_until(until)
    ref = json.dumps(run_fingerprint(system), sort_keys=True)
    ref_events = system.engine.n_dispatched
    print(
        f"serial: servers={args.servers} until={until} "
        f"fingerprint={len(ref)}B {_cost_text(system)}"
    )

    failed = False
    for n in counts:
        coord = WindowedCoordinator(
            ns, cfg, spec, n, backend=args.backend, codec=args.codec
        )
        run = coord.run(until)
        got = json.dumps(run_fingerprint(run), sort_keys=True)
        ok = got == ref
        over = run.engine.n_dispatched / ref_events - 1.0
        cheap = over <= MAX_EVENT_OVERHEAD
        tag = f"{args.backend}, codec" if coord.codec else args.backend
        failed = failed or not ok or not cheap
        print(
            f"shards={n} ({tag}): windows={run.n_windows} "
            f"coalesced={run.data_plane['n_coalesced']} "
            f"{_cost_text(run)} ({over:+.1%} vs serial) "
            f"{'OK: bit-identical to serial' if ok else 'FAIL: diverged'}"
            f"{'' if cheap else '; FAIL: event count over the limit'}"
        )
        if not ok:
            a = json.loads(ref)
            b = json.loads(got)
            for key in a:
                if a[key] != b.get(key):
                    print(f"  first differing key: {key!r}")
                    break
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    import sys

    raise SystemExit(main(sys.argv[1:]))
