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

- Every shard draws the serial run's arrival stream
  (:func:`repro.workload.arrivals.iter_arrivals`, whose RNG is private
  and seeded) lazily, numbers it in global arrival order and feeds the
  rows whose source server it runs through the same
  :class:`~repro.workload.arrivals.WorkloadDriver`.
- Every *global* construction draw (node assignment, heterogeneity,
  bootstrap) is replayed identically in each shard and applied only
  locally; per-peer RNG streams are keyed by server id, not creation
  order.
- Stats are recorded per shard as timestamped records, shipped with
  each barrier's reply and replayed in canonical merge order ``(time,
  shard, log index)`` into one collector, reproducing the serial run's
  accumulation order exactly (contiguous shard blocks make merged
  same-time per-server records, e.g. maintenance load samples, come
  out in serial's ascending-sid order).

A finished sharded run is a :class:`MergedRun`, read like a finished
serial ``System`` by every reader, :func:`run_fingerprint` included.

Every barrier is one request frame to each shard and one reply frame
back (:mod:`repro.sim.shardcodec`); the backend decides only where a
shard answers them.  ``process`` forks one :class:`PersistentWorker`
per shard (one pipe round-trip per window: the multi-core win);
``inline`` answers the same frames in this process, for debugging and
tracing.  Configs without constant lookahead (``net_jitter > 0``,
``net_delay == 0``) or with cross-shard state reads (``oracle_maps``)
raise :class:`ShardError` (:func:`repro.net.transport.check_shardable`).

This module is mechanism only: it reads no environment and takes its
shard count and backend as arguments.  How many shards a run gets and
where they run is decided by the experiments layer
(``repro.experiments.common.run_sharded_workload``), which also falls
back to the serial engine on a :class:`ShardError`.
"""

from __future__ import annotations

import heapq
import logging
import math
import pickle
import traceback
import weakref
from functools import partial
from operator import itemgetter
from time import perf_counter
from types import SimpleNamespace
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

from repro.cluster.builder import _resolve_owner, build_shard_system, build_system
from repro.cluster.config import SystemConfig
from repro.namespace.tree import Namespace
from repro.net.transport import check_shardable, shard_of_sid
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
    "PersistentWorker",
    "ShardRecorder",
    "ShardRunner",
    "WindowedCoordinator",
    "fork_available",
    "replay_stats",
    "run_fingerprint",
    "stats_fingerprint",
    "window_plan",
]

_log = logging.getLogger(__name__)


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
    event order.  Replaying all shards' records merged by ``(time,
    shard, index)`` into one :class:`~repro.sim.stats.SystemStats`
    performs the serial collector's additions in the serial order.

    Records go straight into a flat byte buffer with string arguments
    interned into a small table; :meth:`take` hands the buffer over at
    every barrier, so it holds one window's records at most.  The hook
    methods are set below the class, one per
    :data:`~repro.sim.shardcodec.STATS_RECORDS` entry.
    """

    __slots__ = ("_data", "_strings", "_sidx", "_shipped", "n")

    def __init__(self) -> None:
        self._data = bytearray()
        self._strings: List[str] = []
        self._sidx: Dict[str, int] = {}
        self._shipped = 0  # strings already handed over by take()
        self.n = 0

    def _intern(self, s: str) -> int:
        i = self._sidx.get(s)
        if i is None:
            i = self._sidx[s] = len(self._strings)
            self._strings.append(s)
            if i > 0xFFFF:  # pragma: no cover - vocabulary is tiny
                raise ShardError("stats string table overflow (u16 index)")
        return i

    def take(self) -> PackedLog:
        """The records logged since the last take, with the strings
        interned since; the buffer starts empty again."""
        log = PackedLog(self._data, tuple(self._strings[self._shipped:]), self.n)
        self._data = bytearray()
        self._shipped = len(self._strings)
        self.n = 0
        return log


for _code, _record in enumerate(STATS_RECORDS):
    setattr(ShardRecorder, _record[0], _recorder_hook(_code, _record))


def replay_stats(
    stats: SystemStats,
    held: List[List[Tuple[Any, ...]]],
    logs: Sequence[PackedLog],
    before: float = math.inf,
) -> None:
    """Replay ``held[i]`` plus ``logs[i]`` (one barrier's records per
    shard) into ``stats`` up to ``before``; later records stay in
    ``held``.

    Streams merge by ``(timestamp, shard_id, log_index)``: within a
    shard, execution order; across shards, shard order, which equals
    the serial run's ascending-sid order for the only simultaneous
    cross-shard records, per-server maintenance samples.  A shard logs
    in time order and no later window logs before ``before``, so
    barrier-by-barrier replay is exactly the whole run's merge.
    """
    ready: List[List[Tuple[Any, ...]]] = []
    for i, log in enumerate(logs):
        recs = held[i] + decode_stats_log(log)
        cut = len(recs)
        while cut and recs[cut - 1][0] >= before:
            cut -= 1
        ready.append(recs[:cut])
        held[i] = recs[cut:]
    hooks = [getattr(stats, name) for name, _, _ in STATS_RECORDS]
    # heapq.merge is stable: equal times come out in shard order
    for rec in heapq.merge(*ready, key=itemgetter(0)):
        hooks[rec[1]](rec[0], *rec[2:])


# ----------------------------------------------------------------------
# one shard: system + recorder + window stepping
# ----------------------------------------------------------------------


class ShardRunner:
    """Owns one shard's system and steps it window by window.

    The shard draws ``spec``'s whole stream lazily -- its RNG is
    private, so every shard draws the serial run's arrivals -- numbers
    it in arrival order (the serial run's query ids) and feeds the rows
    whose source server it runs.
    """

    def __init__(
        self,
        ns: Namespace,
        cfg: SystemConfig,
        shard_id: int,
        n_shards: int,
        owner: Sequence[int],
        spec: WorkloadSpec,
    ) -> None:
        self.recorder = ShardRecorder()
        self.system = build_shard_system(
            ns, cfg, shard_id, n_shards, owner=owner, stats=self.recorder,
        )
        n_servers = cfg.n_servers
        WorkloadDriver(self.system, (
            (t, src, dest, qid)
            for qid, (t, src, dest) in enumerate(
                iter_arrivals(spec, len(ns), n_servers), 1
            )
            if shard_of_sid(src, n_servers, n_shards) == shard_id
        )).start()
        self.system.start_maintenance()
        # wall-clock codec accounting (``data_plane`` only -- never
        # part of any fingerprint)
        self.encode_s = 0.0
        self.decode_s = 0.0

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
        self, end: float, inclusive: bool, frames: Sequence[Any]
    ) -> Tuple[List[Tuple[int, bytes]], float, PackedLog]:
        """Ingest the barrier's frames, run one window, return egress
        frames, this shard's next pending event time and the stats
        records logged since the last step (the recorder empties).

        Ingress and egress are codec frames
        (:mod:`repro.sim.shardcodec`); message objects exist only
        inside this shard, never between shards.  Egress frames come
        back in ascending destination-shard order.
        """
        t0 = perf_counter()
        batches = [decode_batch(f) for f in frames]
        self.decode_s += perf_counter() - t0
        transport = self.system.transport
        transport.ingest(batches)
        self.system.engine.run_window(end, inclusive)
        out = transport.collect_egress()
        t1 = perf_counter()
        dest_frames = [
            (dest, encode_batch(out[dest])) for dest in sorted(out)
        ]
        self.encode_s += perf_counter() - t1
        return dest_frames, self.next_time(), self.recorder.take()

    # the benchmark's tracer looks both names up in this class's dict
    step_packed = step

    def finish(self) -> Tuple[Any, ...]:
        """Plain data, pickled once: messages sent, control sent and
        lost, engine events, encode and decode seconds, and ``per_sid``;
        no stats records (they travel with the step replies)."""
        system = self.system
        transport = system.transport
        return (
            transport.n_sent, transport.n_control_sent, transport.n_lost,
            system.engine.n_dispatched, self.encode_s, self.decode_s,
            system.per_sid,
        )


# ----------------------------------------------------------------------
# the merged outcome: a read-only stand-in for a finished System
# ----------------------------------------------------------------------


class MergedRun:
    """The merged outcome of a sharded run, built from every shard's
    :meth:`ShardRunner.finish` payload in shard order.

    It reads like a finished :class:`~repro.cluster.system.System`:
    ``ns``, ``stats``, ``engine``, transport counters, ``per_sid`` (the
    shards' concatenated, so in ascending sid) and
    :meth:`total_replicas`, whatever the analysis layer reads.
    """

    __slots__ = (
        "ns", "cfg", "stats", "engine", "transport", "n_shards", "n_windows",
        "per_sid", "data_plane",
    )

    def __init__(
        self,
        ns: Namespace,
        cfg: SystemConfig,
        finished: Sequence[Tuple[Any, ...]],
        stats: SystemStats,
        until: float,
        data_plane: Dict[str, Any],
    ) -> None:
        *counters, per_sids = zip(*finished)
        sent, control, lost, dispatched, encode_s, decode_s = map(sum, counters)
        self.ns = ns
        self.cfg = cfg
        self.stats = stats
        self.data_plane = dict(data_plane, encode_s=encode_s, decode_s=decode_s)
        self.n_shards = len(finished)
        # barriers the coordinator stepped; its extra pass for mail
        # landing exactly on the horizon is not a window of the plan
        self.n_windows: int = data_plane["n_barriers"]
        self.engine = SimpleNamespace(now=until, n_dispatched=dispatched)
        self.transport = SimpleNamespace(
            n_sent=sent, n_control_sent=control, n_lost=lost
        )
        self.per_sid = {
            key: [v for per_sid in per_sids for v in per_sid[key]]
            for key in per_sids[0]
        }

    def total_replicas(self) -> int:
        return sum(len(r) for r in self.per_sid["replicas"])

    def __repr__(self) -> str:
        return (
            f"MergedRun(shards={self.n_shards}, "
            f"servers={len(self.per_sid['processed'])}, "
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
    fp = dict(run.per_sid)
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
# the coordinator
# ----------------------------------------------------------------------


class WindowedCoordinator:
    """Lock-steps N shard engines through ``net_delay``-wide windows.

    Owns the global pieces of a sharded run: the window plan, the
    per-barrier frame exchange, and the final merge into a
    :class:`MergedRun`; each shard draws its own arrivals
    (:class:`ShardRunner`).  ``backend`` says where the shards run:
    ``process`` keeps one persistent forked worker per shard,
    ``inline`` answers the same frames in this process (debugging,
    tracing, tests).  ``n_shards`` is clamped to ``cfg.n_servers``
    (more shards than servers would leave empty engines whose barriers
    cost time and buy nothing).  ``codec`` is accepted and ignored:
    every barrier is packed frames on both backends.
    """

    def __init__(
        self,
        ns: Namespace,
        cfg: SystemConfig,
        spec: WorkloadSpec,
        n_shards: int,
        backend: str = "inline",
        codec: bool = True,
    ) -> None:
        check_shardable(cfg)
        if backend not in ("inline", "process"):
            raise ValueError(f"unknown backend {backend!r}")
        if n_shards < 1:
            raise ValueError(f"shard count must be >= 1, got {n_shards}")
        if backend == "process" and not fork_available():
            raise ShardError(
                "the process backend forks its shard workers, and "
                "this platform has no 'fork' start method"
            )
        self.ns = ns
        self.cfg = cfg
        self.spec = spec
        self.n_shards = min(n_shards, cfg.n_servers)
        self.backend = backend
        #: the last run's barrier accounting (see :meth:`run`)
        self.data_plane: Dict[str, Any] = {}
        self.owner = _resolve_owner(ns, cfg, None)

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

        Every step reply carries its window's stats records, replayed
        while the shards run the next window (:class:`_Stepper`).

        Each call builds its shards afresh and counts only its own
        barriers into :attr:`data_plane`.
        """
        stepper = _Stepper(self)
        n_barriers = n_coalesced = bytes_exchanged = 0
        try:
            inboxes: List[List[Any]] = [[] for _ in range(self.n_shards)]
            pending = False  # any cross-shard mail at the last barrier?
            next_min: Optional[float] = None
            for end, inclusive in window_plan(self.cfg.net_delay, until):
                if (not inclusive and not pending and next_min is not None
                        and end <= next_min):
                    n_coalesced += 1
                    continue
                outs, next_min = stepper.step_all(end, inclusive, inboxes)
                n_barriers += 1
                inboxes = self._route(outs, n_barriers)
                bytes_exchanged += sum(len(f) for box in inboxes for f in box)
                pending = any(inboxes)
            if pending:
                # cross-shard messages landing at exactly `until` (sent
                # at exactly `until - net_delay`): the serial engine's
                # inclusive stop delivers them, so drain one more
                # inclusive pass at the same instant.  Anything later
                # stays undelivered, exactly like serial in-flight mail.
                stepper.step_all(until, True, inboxes)
            finished = stepper.finish_all()
        finally:
            stepper.close()
        run = MergedRun(self.ns, self.cfg, finished, stepper.stats, until, {
            "backend": self.backend,
            "n_barriers": n_barriers,
            "n_coalesced": n_coalesced,
            "barrier_wait_s": stepper.barrier_wait_s,
            "bytes_exchanged": bytes_exchanged,
            "stats_bytes": stepper.stats_bytes,
        })
        self.data_plane = run.data_plane
        return run

    def _route(
        self, outs: Sequence[Dict[int, Any]], window: int
    ) -> List[List[Any]]:
        """Turn per-shard egress frames into per-shard ingest lists.

        Frames are appended in ascending source-shard order so every
        shard merges the same barrier the same way no matter which
        backend delivered it.  The coordinator routes them without
        decoding; the canonical merge key rides in each record's
        header.  Egress a shard addressed to itself or to no shard
        raises ``ShardError`` naming ``window``.
        """
        n = self.n_shards
        inboxes: List[List[Any]] = [[] for _ in range(n)]
        for src in range(n):
            out = outs[src]
            for dest in sorted(out):
                if not 0 <= dest < n or dest == src:
                    raise ShardError(
                        f"shard {src} sent egress to shard {dest} at "
                        f"window {window} ({n} shards)"
                    )
                inboxes[dest].append(out[dest])
        return inboxes

    def _runner_args(self, shard_id: int) -> tuple:
        return (self.ns, self.cfg, shard_id, self.n_shards, self.owner,
                self.spec)


class _Stepper:
    """One worker per shard, driven by request and reply frames.

    Workers are long-lived (one request per window) because shard state
    -- the engine heap, every peer -- cannot cross a process boundary
    between windows.  On the process backend each is a forked
    :class:`PersistentWorker` that inherits its
    :meth:`WindowedCoordinator._runner_args` at fork, copy on write; on
    the inline backend an :class:`_InProcessWorker` answers the same
    frames in this process.  Only the final
    :meth:`ShardRunner.finish` payloads are pickled.

    A barrier sends every request, replays the previous barrier's
    records timed before this window's end into :attr:`stats` while
    the shards step (:func:`replay_stats`), then receives the replies;
    :meth:`finish_all` replays the rest.  So records at exactly
    ``until`` wait for the extra drain pass's records at ``until``.
    """

    def __init__(self, coord: WindowedCoordinator) -> None:
        start: Callable[..., Any] = _InProcessWorker
        if coord.backend == "process":
            start = partial(PersistentWorker, _shard_worker_main)
        n = coord.n_shards
        self.workers: List[Any] = []
        self.stats = SystemStats(coord.ns.max_depth)
        self.stats_bytes = 0
        self._strings: List[List[str]] = [[] for _ in range(n)]
        self._held: List[List[Tuple[Any, ...]]] = [[] for _ in range(n)]
        self._logs: List[PackedLog] = []  # the last barrier's, not replayed
        self.barrier_wait_s = 0.0
        self._window = 0
        try:
            for i in range(n):
                self.workers.append(start(*coord._runner_args(i)))
            # the handshake: a failed build is an ST_ERROR naming its shard
            for i in range(n):
                self._recv(i, ST_OK, "while building its shard")
        except BaseException:
            self.close()
            raise

    def _died(self, shard_id: int, where: str, exc: Exception) -> ShardError:
        self.close()
        return ShardError(f"shard {shard_id} worker died {where}: {exc}")

    # only a forked worker's channel raises ShardError (its pipe is
    # gone); an in-process worker answers every frame
    def _send(self, shard_id: int, frame: bytes, where: str) -> None:
        try:
            self.workers[shard_id].send_frame(frame)
        except ShardError as exc:
            raise self._died(shard_id, where, exc) from None

    def _recv(self, shard_id: int, want: int, where: str) -> bytes:
        """One reply from a worker, its status byte checked; a worker
        traceback surfaces in the ``ShardError``."""
        try:
            payload = self.workers[shard_id].recv_frame()
        except ShardError as exc:
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
        self._window += 1
        where = f"at window {self._window} (end={end})"
        for i, frames in enumerate(inboxes):
            self._send(i, encode_step_request(end, inclusive, frames), where)
        replay_stats(self.stats, self._held, self._logs, end)
        outs: List[Dict[int, Any]] = []
        logs: List[PackedLog] = []
        next_min = math.inf
        t0 = perf_counter()
        for i in range(len(inboxes)):
            payload = self._recv(i, ST_STEP, where)
            nt, dest_frames, log = decode_step_reply(memoryview(payload)[1:])
            # frames stay zero-copy views into the reply payload; the
            # routed inbox holds them alive until the next send
            outs.append(dict(dest_frames))
            table = self._strings[i]
            table += log.strings
            logs.append(PackedLog(log.data, table, log.n))
            self.stats_bytes += len(log.data)
            if nt < next_min:
                next_min = nt
        self.barrier_wait_s += perf_counter() - t0
        self._logs = logs
        return outs, next_min

    def finish_all(self) -> List[Tuple[Any, ...]]:
        n = len(self.workers)
        for i in range(n):
            self._send(i, bytes((OP_FINISH,)), "during finish")
        # process workers exit on their own once finished: replay the
        # rest while they tear down
        replay_stats(self.stats, self._held, self._logs)
        return [
            pickle.loads(
                memoryview(self._recv(i, ST_PAYLOAD, "during finish"))[1:]
            )
            for i in range(n)
        ]

    def close(self) -> None:
        """Stop every remaining worker (after a failure too); idempotent."""
        for w in self.workers:
            w.close(sentinel=bytes((OP_EXIT,)))
        self.workers = []


def _error_reply() -> bytes:
    """``ST_ERROR`` and the traceback of the exception being handled."""
    return bytes((ST_ERROR,)) + traceback.format_exc().encode("utf-8")


def _open(runner_args: tuple) -> Tuple[Optional[ShardRunner], bytes]:
    """Build one shard: its runner (None if the build failed) and the
    handshake reply, ``ST_OK`` or ``ST_ERROR``."""
    try:
        return ShardRunner(*runner_args), bytes((ST_OK,))
    except Exception:
        return None, _error_reply()


def _answer(runner: Optional[ShardRunner], payload: bytes) -> bytes:
    """A shard's reply to one request frame.

    ``OP_STEP`` runs one window and replies ``ST_STEP`` with the egress
    frames and the window's stats records; ``OP_FINISH`` replies
    ``ST_PAYLOAD`` with the pickled :meth:`ShardRunner.finish` payload.
    Any exception becomes ``ST_ERROR`` plus its traceback, which the
    coordinator raises as a :class:`ShardError` naming the shard and
    the window.
    """
    try:
        if runner is None:
            raise ShardError("the shard was never built")
        op = payload[0]
        if op == OP_STEP:
            end, inclusive, frames = decode_step_request(
                memoryview(payload)[1:]
            )
            dest_frames, nt, log = runner.step(end, inclusive, frames)
            return encode_step_reply(nt, dest_frames, log)
        if op == OP_FINISH:
            return bytes((ST_PAYLOAD,)) + pickle.dumps(runner.finish())
        raise ShardError(f"unknown op {op}")
    except Exception:
        return _error_reply()


def fork_available() -> bool:
    """Whether this platform can fork a :class:`PersistentWorker`
    (not on Windows)."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


#: the coordinator's end of every live worker pipe; a forked child
#: closes its inherited copies, so that each worker sees EOF when the
#: coordinator goes away, not only when every sibling has gone too
_PARENT_ENDS: "weakref.WeakSet[Connection]" = weakref.WeakSet()


def _forked_main(
    target: Callable[..., None], conn: "Connection", args: Tuple[Any, ...]
) -> None:
    for end in list(_PARENT_ENDS):
        end.close()
    target(conn, *args)


class PersistentWorker:
    """A long-lived fork-context subprocess driven over a duplex pipe.

    Each shard worker holds an engine heap and peer state across many
    request/response rounds (one per time window).  The child runs
    ``target(conn, *args)`` with the child end of the pipe.  It is
    forked, so ``args`` are inherited as they are in memory -- never
    pickled, however large -- and it starts no interpreter and imports
    nothing.  Both directions carry raw bytes frames whose meaning is
    the caller's protocol (the opcode-prefixed frames of
    :func:`_shard_worker_main`).
    """

    __slots__ = ("proc", "_conn")

    def __init__(self, target: Callable[..., None], *args: Any) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        _PARENT_ENDS.add(self._conn)
        self.proc = ctx.Process(
            target=_forked_main, args=(target, child, args), daemon=True
        )
        self.proc.start()
        child.close()

    def send_frame(self, frame: Any) -> None:
        """Ship one raw bytes frame (no pickling).

        Raises:
            ShardError: the worker's pipe is gone (it died).
        """
        try:
            self._conn.send_bytes(frame)
        except (BrokenPipeError, OSError):
            raise ShardError(
                f"shard worker pid={self.proc.pid} exited unexpectedly "
                "(pipe closed on send)"
            ) from None

    def recv_frame(self) -> bytes:
        """Receive one raw bytes frame; EOF means the worker died
        (a :class:`ShardError`)."""
        try:
            return self._conn.recv_bytes()
        except (EOFError, OSError):
            raise ShardError(
                f"shard worker pid={self.proc.pid} exited unexpectedly"
            ) from None

    def close(self, sentinel: bytes) -> None:
        """Ask the worker to exit; escalate to terminate if it won't.

        Args:
            sentinel: the exit request, a raw bytes frame in the
                worker's protocol.
        """
        try:
            self._conn.send_bytes(sentinel)
        except (BrokenPipeError, OSError):
            pass
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self.proc.join(timeout=5)
        if self.proc.is_alive():
            _log.warning(
                "worker pid=%s did not exit when asked; terminating it",
                self.proc.pid,
            )
            self.proc.terminate()
            self.proc.join(timeout=5)


class _InProcessWorker:
    """A shard answered in this process, behind
    :class:`PersistentWorker`'s surface: the same request and reply
    frames as a forked worker, with a call where the pipe would be."""

    __slots__ = ("_runner", "_reply")

    def __init__(self, *runner_args: Any) -> None:
        self._runner, self._reply = _open(runner_args)

    def send_frame(self, frame: bytes) -> None:
        self._reply = _answer(self._runner, frame)

    def recv_frame(self) -> bytes:
        return self._reply

    def close(self, sentinel: bytes) -> None:
        self._runner = None


def _shard_worker_main(conn: "Connection", *runner_args: Any) -> None:
    """Worker-process loop: build the shard once, answer per barrier.

    Runs in a child forked by :class:`_Stepper`, so ``runner_args`` are
    the coordinator's own objects.  The first reply is the build's
    handshake; every later one is :func:`_answer`'s.  After a finish
    (or a failure) the worker exits without waiting for ``OP_EXIT``,
    so its exit overlaps the coordinator's last replay instead of
    following it.
    """
    runner, reply = _open(runner_args)
    try:
        while True:
            conn.send_bytes(reply)
            if reply[0] not in (ST_OK, ST_STEP):
                return
            try:
                payload = conn.recv_bytes()
            except EOFError:  # parent went away
                return
            if payload[0] == OP_EXIT:
                return
            reply = _answer(runner, payload)
    except OSError:  # pragma: no cover - pipe closed under us
        pass
    finally:
        conn.close()


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
    this with ``--shards 1,2,4``).  The default point is loaded enough to
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
        f"and dispatch no more than {MAX_EVENT_OVERHEAD:.0%} more engine "
        "events",
    )
    parser.add_argument(
        "--shards", default="1,4",
        help="comma-separated shard counts to verify (default: 1,4)",
    )
    parser.add_argument("--levels", type=int, default=10,
                        help="namespace tree depth (default: 10)")
    parser.add_argument(
        "--servers", type=int, default=48,
        help="server count; the stream offers 25 lookups/s per server, "
        "about 45%% utilisation (default: 48)",
    )
    parser.add_argument("--duration", type=float, default=4.0,
                        help="workload duration in simulated seconds "
                        "(default: 4)")
    parser.add_argument("--backend", default="inline",
                        choices=("inline", "process"),
                        help="shard backend to exercise (default: inline)")
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
        run = WindowedCoordinator(
            ns, cfg, spec, n, backend=args.backend
        ).run(until)
        got = json.dumps(run_fingerprint(run), sort_keys=True)
        ok = got == ref
        over = run.engine.n_dispatched / ref_events - 1.0
        cheap = over <= MAX_EVENT_OVERHEAD
        failed = failed or not ok or not cheap
        print(
            f"shards={n} ({args.backend}): windows={run.n_windows} "
            f"coalesced={run.data_plane['n_coalesced']} "
            f"stats_bytes={run.data_plane['stats_bytes']} "
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
