"""Layer tracer: timing spans around each layer's public callables.

The spans are installed from here, outside ``src/``: :meth:`Tracer.install`
replaces each callable named in :data:`PATCHES` by a timing wrapper and
:meth:`Tracer.remove` puts the originals back.  A wrapper pushes a frame
on one explicit span stack, runs the callable, and on exit adds the
span's duration to its callable's ``total`` and the duration minus the
time its child spans covered to its ``self``.  The benchmark opens a
root span around the timed region; whatever part of it no wrapper
covers is the root's own self time, reported as *unattributed*.  So the
self times of all layers plus the unattributed time equal the root span
exactly.

Patches have to land where the program looks names up, and before the
system under test is built:

* ``Peer.__init__`` and ``RoutingCore.__init__`` cache bound stats-sink
  methods, ``SimRuntime``'s attributes *are* the engine and transport
  bound methods, and ``Transport.register`` stores ``peer.deliver`` --
  all read the class attribute at construction, so patching the class
  first is enough (``__slots__`` classes are patched on the class too).
* ``merge_maps``, ``encode_frame``, ``decode_message``, ``iter_arrivals``,
  the shard codec functions and the builders are imported *by value*
  into other ``repro`` modules; :meth:`Tracer.install` rebinds every such
  alias it finds in a loaded ``repro`` module.

The engine (and the live runtime) call private callbacks the patch
table cannot name -- ``Peer._finish_service``, ``Transport._drain``,
``WorkloadDriver._arrival``, the maintenance ticks.  The wrappers around
``Engine.schedule`` and ``AsyncRuntime.schedule*`` therefore hand the
scheduler a trampoline in place of the callback; when it fires, the
callback runs inside a span charged to the layer of the class that owns
it (:data:`CALLBACK_LAYERS`), or to *unattributed* when the class is
unknown.  Event order is unchanged: the heap orders by ``(time, seq)``.

Wrapper cost is real (a traced run takes a few times longer than an
untraced one, reported as ``trace.overhead_ratio``) and lands mostly in
the *parent* span's self time, so a layer making many tiny calls into
wrapped layers looks heavier than it is.  End-to-end metrics are
therefore never taken from a traced run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: raw spans kept in memory (and written out) per traced run
SPAN_CAP = 200_000

UNATTRIBUTED = "unattributed"

#: (layer, module, class or None, callables).  Order is the order of the
#: printed table: roughly the path of one message through the system.
PATCHES: Tuple[Tuple[str, str, Any, Tuple[str, ...]], ...] = (
    ("namespace", "repro.namespace.generators", None, ("balanced_tree",)),
    ("cluster.builder", "repro.cluster.builder", None,
     ("build_system", "build_shard_system")),
    ("cluster.builder", "repro.runtime.async_service", None,
     ("build_live_system",)),
    ("cluster.system", "repro.server.peer", "Peer",
     ("roll_window", "rescale_ranking", "evict_idle_replicas")),
    ("workload.arrivals", "repro.cluster.system", "System", ("inject",)),
    ("workload.arrivals", "repro.cluster.system", "ShardSystem", ("inject",)),
    ("workload.arrivals", "repro.runtime.async_service", "LiveSystem",
     ("inject",)),
    ("workload.arrivals", "repro.workload.arrivals", None, ("iter_arrivals",)),
    ("sim.engine", "repro.sim.engine", "Engine",
     ("run", "run_window", "schedule", "schedule_after")),
    ("net.transport", "repro.net.transport", "Transport", ("send",)),
    ("net.transport", "repro.net.transport", "ShardTransport",
     ("send", "ingest", "collect_egress")),
    ("server.peer", "repro.server.peer", "Peer", ("deliver", "inject")),
    ("server.ingress", "repro.server.ingress", "IngressQueue",
     ("offer", "pop")),
    ("server.routing_core", "repro.server.routing_core", "RoutingCore",
     ("process", "resolve", "on_response")),
    ("core.routing", "repro.core.routing", None, ("decide",)),
    ("server.softstate", "repro.server.softstate", "SoftStateAbsorber",
     ("absorb_query", "absorb_response", "absorb_advert")),
    ("server.cache", "repro.server.cache", "LRUCache",
     ("put", "get", "touch")),
    ("core.nsindex", "repro.core.nsindex", "AncestorIndex",
     ("add", "remove", "touch", "closest")),
    ("core.maps", "repro.core.maps", None, ("merge_maps",)),
    ("core.maps", "repro.server.peer", "Peer", ("merge_map",)),
    ("filters", "repro.filters.digest", "Digest", ("snapshot",)),
    ("filters", "repro.filters.bloom", "BloomFilter", ("test_snapshot",)),
    ("filters", "repro.filters.digest", "DigestDirectory",
     ("observe", "eligible_snaps")),
    ("core.replication", "repro.core.replication", "ReplicationManager",
     ("maybe_trigger", "on_probe", "on_probe_reply", "on_transfer",
      "on_ack")),
    ("server.replica_store", "repro.server.replica_store", "ReplicaStore",
     ("install", "evict", "touch", "build_payload")),
    ("sim.stats", "repro.sim.stats", "SystemStats",
     ("record_injected", "record_drop", "record_completion",
      "record_forward", "record_stale_hop", "record_replica_created",
      "record_replica_evicted", "sample_load")),
    # what peers record into on a shard; replayed into SystemStats later
    ("sim.stats", "repro.sim.shard", "ShardRecorder",
     ("record_injected", "record_drop", "record_completion",
      "record_forward", "record_stale_hop", "record_replica_created",
      "record_replica_evicted", "sample_load")),
    ("sim.shard", "repro.sim.shard", "ShardRunner",
     ("step", "step_packed", "finish")),
    ("sim.shard", "repro.sim.shard", None, ("replay_stats",)),
    ("sim.shardcodec", "repro.sim.shardcodec", None,
     ("encode_batch", "decode_batch", "encode_step_request",
      "encode_step_reply", "decode_step_request", "decode_step_reply",
      "decode_stats_log")),
    ("net.frame", "repro.net.frame", None,
     ("encode_frame", "encode_message", "decode_message")),
    ("net.frame", "repro.net.frame", "FrameReader", ("feed",)),
    ("runtime.async_wire", "repro.runtime.async_wire", "AsyncWire",
     ("send",)),
    ("runtime.async_service", "repro.runtime.async_service", "LiveService",
     ("handle_client",)),
    ("runtime.async_runtime", "repro.runtime.async_runtime", "AsyncRuntime",
     ("schedule", "schedule_after", "timer_after")),
    ("runtime.async_client", "repro.runtime.async_client", "HomeConnection",
     ("lookup",)),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(p[0] for p in PATCHES))

#: callables whose second positional argument is a callback the
#: scheduler fires later.  ``Engine.schedule_after`` is absent because
#: it delegates to ``Engine.schedule``.
SCHEDULERS = frozenset({
    "Engine.schedule", "AsyncRuntime.schedule",
    "AsyncRuntime.schedule_after", "AsyncRuntime.timer_after",
})

#: callables whose ``bytes`` result is counted (frames and batches)
SIZED = frozenset({"encode_frame", "encode_batch"})

#: owner class of a scheduled callback -> the layer its span is charged to
CALLBACK_LAYERS: Dict[str, str] = {
    "Peer": "server.peer",
    "Transport": "net.transport",
    "ShardTransport": "net.transport",
    "WorkloadDriver": "workload.arrivals",
    "System": "cluster.system",
    "ShardSystem": "cluster.system",
    "LiveSystem": "cluster.system",
    "TimerWheel": "sim.engine",
    "ReplicationManager": "core.replication",
    "LiveService": "runtime.async_service",
}

# indices into one callable's accumulator
CALLS, TOTAL, SELF, SIZE = range(4)


class Tracer:
    """Span stack, per-callable accumulators and the installed patches."""

    def __init__(self) -> None:
        #: (layer, callable name) -> [calls, total_ns, self_ns, result bytes]
        self.stats: Dict[Tuple[str, str], List[int]] = {}
        #: (span id, parent span id or -1, name, start_ns, end_ns)
        self.spans: List[Tuple[int, int, str, int, int]] = []
        self._stack: List[List[int]] = []  # frames: [child_ns, span id]
        self._next_id = 0
        self._patched: List[Tuple[Any, str, Any]] = []
        self._callbacks: Dict[Any, Tuple[List[int], str]] = {}

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def _stat(self, layer: str, name: str) -> List[int]:
        return self.stats.setdefault((layer, name), [0, 0, 0, 0])

    def _enter(self) -> Tuple[List[int], int]:
        frame = [0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame, perf_counter_ns()

    def _exit(self, stat: List[int], name: str, frame: List[int], t0: int,
              count: int = 1) -> None:
        t1 = perf_counter_ns()
        stack = self._stack
        stack.pop()
        dt = t1 - t0
        stat[CALLS] += count
        stat[TOTAL] += dt
        stat[SELF] += dt - frame[0]
        parent = -1
        if stack:
            stack[-1][0] += dt
            parent = stack[-1][1]
        if frame[1] < SPAN_CAP:
            self.spans.append((frame[1], parent, name, t0, t1))

    @contextmanager
    def root(self, name: str = "root") -> Iterator[None]:
        """The span every other span nests in.  Its self time is the
        time no wrapper covered."""
        stat = self._stat(UNATTRIBUTED, name)
        frame, t0 = self._enter()
        try:
            yield
        finally:
            self._exit(stat, name, frame, t0)

    def _wrap(self, stat: List[int], name: str, fn: Callable[..., Any],
              sized: bool = False) -> Callable[..., Any]:
        enter, leave = self._enter, self._exit

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame, t0 = enter()
            try:
                out = fn(*args, **kwargs)
                if sized:
                    stat[SIZE] += len(out)
                return out
            finally:
                leave(stat, name, frame, t0)

        return traced

    def _wrap_generator(self, stat: List[int], name: str,
                        fn: Callable[..., Any]) -> Callable[..., Any]:
        """Each ``next()`` on the generator is one span."""
        enter, leave = self._enter, self._exit

        def traced(*args: Any, **kwargs: Any) -> Any:
            it = fn(*args, **kwargs)
            while True:
                frame, t0 = enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    leave(stat, name, frame, t0)
                yield item

        return traced

    def _wrap_coroutine(self, stat: List[int], name: str,
                        fn: Callable[..., Any]) -> Callable[..., Any]:
        """Each resumption of the coroutine is one span on the stack
        (a coroutine suspended at an ``await`` holds no frame), so its
        self time is the time it spent running, not waiting; the call
        is counted once.  One more span, ``<name>#request``, runs from
        the call to its completion."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> "_TracedCoroutine":
            return _TracedCoroutine(tracer, stat, name, fn(*args, **kwargs))

        return traced

    def _wrap_scheduler(self, stat: List[int], name: str,
                        fn: Callable[..., Any]) -> Callable[..., Any]:
        inner = self._wrap(stat, name, fn)
        run_callback = self._run_callback

        def traced(owner: Any, when: float, callback: Any, *args: Any,
                   **kwargs: Any) -> Any:
            return inner(owner, when, run_callback, callback, *args, **kwargs)

        return traced

    def _run_callback(self, callback: Any, *args: Any) -> None:
        key = getattr(callback, "__func__", callback)
        known = self._callbacks.get(key)
        if known is None:
            owner = type(getattr(callback, "__self__", None)).__name__
            name = f"{owner}.{getattr(key, '__name__', 'callback')}"
            layer = CALLBACK_LAYERS.get(owner, UNATTRIBUTED)
            known = self._callbacks[key] = (self._stat(layer, name), name)
        frame, t0 = self._enter()
        try:
            callback(*args)
        finally:
            self._exit(known[0], known[1], frame, t0)

    # ------------------------------------------------------------------
    # install / remove
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Patch every callable in :data:`PATCHES` and its aliases."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer, mod_name, cls_name, names in PATCHES:
            module = importlib.import_module(mod_name)
            owner = module if cls_name is None else getattr(module, cls_name)
            for attr in names:
                original = vars(owner)[attr]
                name = attr if cls_name is None else f"{cls_name}.{attr}"
                stat = self._stat(layer, name)
                if name in SCHEDULERS:
                    wrapped = self._wrap_scheduler(stat, name, original)
                elif inspect.isgeneratorfunction(original):
                    wrapped = self._wrap_generator(stat, name, original)
                elif inspect.iscoroutinefunction(original):
                    wrapped = self._wrap_coroutine(stat, name, original)
                else:
                    wrapped = self._wrap(stat, name, original, attr in SIZED)
                self._set(owner, attr, original, wrapped)
                if cls_name is None:
                    self._rebind_aliases(original, wrapped)

    def _set(self, owner: Any, attr: str, original: Any, wrapped: Any) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _rebind_aliases(self, original: Any, wrapped: Any) -> None:
        """``from m import f`` copies: rebind each one in ``repro``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, original, wrapped)

    def remove(self) -> None:
        """Put every original back (reverse order of installation)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def patched(self) -> List[Tuple[Any, str, Any]]:
        """(owner, attribute, original) of every live patch."""
        return list(self._patched)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def _sum(self, name: str, field: int) -> int:
        return sum(s[field] for (_, n), s in self.stats.items() if n == name)

    def calls(self, name: str) -> int:
        """Calls of one callable, by its table name (``LRUCache.put``)."""
        return self._sum(name, CALLS)

    def total_s(self, name: str) -> float:
        """Seconds inside one callable, its callees included."""
        return self._sum(name, TOTAL) / 1e9

    def size(self, name: str) -> int:
        """Bytes one :data:`SIZED` callable returned."""
        return self._sum(name, SIZE)

    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls": n, "self_s": s}}`` for every table layer,
        plus the unattributed remainder."""
        out = {layer: {"calls": 0, "self_s": 0.0}
               for layer in LAYERS + (UNATTRIBUTED,)}
        for (layer, _), stat in self.stats.items():
            out[layer]["calls"] += stat[CALLS]
            out[layer]["self_s"] += stat[SELF] / 1e9
        return out

    def root_s(self) -> float:
        """Total duration of the root spans."""
        return self.stats[(UNATTRIBUTED, "root")][TOTAL] / 1e9

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "start_ns": t0, "end_ns": t1}
                ) + "\n")


class _TracedCoroutine:
    """Awaitable proxy timing each resumption of a coroutine."""

    def __init__(self, tracer: Tracer, stat: List[int], name: str,
                 coro: Any) -> None:
        self._tracer, self._stat, self._name = tracer, stat, name
        self._coro = coro
        self._sid = tracer._next_id
        tracer._next_id += 1
        self._t0 = perf_counter_ns()
        self._count = 1  # the first resumption counts the call

    def __await__(self) -> "_TracedCoroutine":
        return self

    def __iter__(self) -> "_TracedCoroutine":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def _step(self, step: Callable[..., Any], *args: Any) -> Any:
        tracer = self._tracer
        frame, t0 = tracer._enter()
        try:
            return step(*args)
        except BaseException:
            # finished (StopIteration carries the result) or failed:
            # either way the request span ends here
            if self._sid < SPAN_CAP:
                tracer.spans.append((
                    self._sid, -1, self._name + "#request", self._t0,
                    perf_counter_ns(),
                ))
            raise
        finally:
            tracer._exit(self._stat, self._name, frame, t0, self._count)
            self._count = 0

    def send(self, value: Any) -> Any:
        return self._step(self._coro.send, value)

    def throw(self, *exc: Any) -> Any:
        return self._step(self._coro.throw, *exc)

    def close(self) -> None:
        self._coro.close()
