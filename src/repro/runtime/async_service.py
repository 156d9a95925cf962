"""Live peer hosting: a TerraDir cluster over real sockets.

:class:`LiveSystem` is :class:`repro.cluster.system.System` on an
:class:`~repro.runtime.async_runtime.AsyncRuntime`: it owns the
namespace, config, stats sink, RNG streams, and the peers hosted *in
this process*, and inherits the simulator's maintenance ticks, name
lookup and introspection unchanged.  Peer construction and wiring are
**shared with the simulator** too -- both paths call
:func:`repro.cluster.builder._populate_system`, so ownership maps,
neighbor pins, digest geometry, heterogeneity draws, and bootstrap
load knowledge are built by the same code with the same seeded draws.

A process may host all of a cluster's peers (the single-process
``python -m repro serve`` default and the conformance suite) or a
contiguous sid range (multi-process deployments); remote peers stay
``None`` in the sid-indexed ``peers`` list, exactly like
:class:`~repro.cluster.system.ShardSystem`.

:class:`LiveService` is the client plane: it answers
:class:`~repro.net.message.ClientLookup` frames arriving on a hosted
peer's listener by injecting the query locally, parking a completion
hook, and framing a :class:`~repro.net.message.ClientLookupReply` back
on the same connection -- with a server-side deadline (a timer on the
runtime's wheel, cancelled by the response) so a dropped query answers
``ok=False`` instead of leaking the hook.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Any, Optional, Sequence

from repro.cluster.builder import _populate_system, _resolve_owner
from repro.cluster.config import SystemConfig
from repro.cluster.system import System
from repro.namespace.tree import Namespace
from repro.net.frame import encode_frame
from repro.net.message import ClientLookup, ClientLookupReply
from repro.runtime.async_runtime import AsyncRuntime
from repro.runtime.async_wire import AsyncWire
from repro.sim.stats import StatsSink

__all__ = ["LiveService", "LiveSystem", "build_live_system"]

_log = logging.getLogger(__name__)


class LiveSystem(System):
    """A live (event-loop) TerraDir deployment, or one process's slice.

    Maintenance, name lookup and introspection are :class:`System`'s
    own, run on the :class:`AsyncRuntime`; only construction and
    :meth:`inject` (which refuses a peer hosted elsewhere) are live.
    """

    __slots__ = ()

    def __init__(
        self,
        ns: Namespace,
        cfg: SystemConfig,
        runtime: AsyncRuntime,
        wire: AsyncWire,
        owner: Sequence[int],
        stats: Optional[StatsSink] = None,
    ) -> None:
        self.runtime = runtime
        self.transport = wire
        self.timers = runtime.timers
        self._init_state(ns, cfg, owner, stats)
        # full-length sid-indexed list; None marks peers hosted by
        # other processes (the ShardSystem convention: the builder
        # fills ``peers`` by sid and appends to ``local_peers``)
        self.peers = [None] * cfg.n_servers
        self.local_peers = []

    def inject(self, src_server: int, dest_node: int) -> int:
        """Initiate a lookup for ``dest_node`` at local peer ``src_server``."""
        peer = self.peers[src_server]
        if peer is None:
            raise ValueError(f"server {src_server} is not hosted here")
        self._qid += 1
        if self.on_inject is not None:
            self.on_inject(self.runtime.now, src_server, dest_node)
        peer.inject(dest_node, self._qid)
        return self._qid


class LiveService:
    """The client plane of one live host: lookups over the socket."""

    def __init__(self, system: LiveSystem, lookup_deadline: float = 5.0) -> None:
        if lookup_deadline <= 0:
            raise ValueError("lookup_deadline must be > 0")
        self.system = system
        self.lookup_deadline = lookup_deadline
        self.n_lookups = 0
        self.n_completed = 0
        self.n_deadline_failures = 0

    def attach(self, wire: AsyncWire) -> None:
        """Install this service as the wire's client-plane handler."""
        wire.on_client = self.handle_client

    # the wire calls this synchronously from a listener connection's
    # read callback; ``writer`` is that connection's transport
    def handle_client(
        self, sid: int, msg: ClientLookup, writer: asyncio.WriteTransport
    ) -> None:
        system = self.system
        peer = system.peers[sid]
        rt = system.runtime
        self.n_lookups += 1
        hook_key = ("lookup", system.inject(sid, msg.node))
        deadline = rt.timer_after(
            self.lookup_deadline, self._on_deadline, peer, hook_key, msg, writer
        )

        def on_response(resp: Any) -> None:
            deadline.cancel()
            self.n_completed += 1
            self._reply(
                writer,
                ClientLookupReply(
                    msg.cqid, resp.dest, True,
                    servers=list(resp.dest_map),
                    meta_version=resp.meta_version,
                    hops=resp.hops,
                    latency=rt.now - resp.created_at,
                ),
            )

        peer.client_hooks[hook_key] = on_response

    def _on_deadline(
        self, peer: Any, hook_key: Any, msg: ClientLookup,
        writer: asyncio.WriteTransport,
    ) -> None:
        """The query died inside the cluster (queue drop, lost frame):
        fail the lookup instead of leaking its completion hook."""
        if peer.client_hooks.pop(hook_key, None) is None:
            return  # answered meanwhile
        self.n_deadline_failures += 1
        _log.warning(
            "peer %d: lookup qid=%d for node %d unanswered after %.3g s; "
            "failing it (%d deadline failures so far)",
            peer.sid, hook_key[1], msg.node, self.lookup_deadline,
            self.n_deadline_failures,
        )
        self._reply(writer, ClientLookupReply(msg.cqid, msg.node, False))

    @staticmethod
    def _reply(writer: asyncio.WriteTransport, reply: ClientLookupReply) -> None:
        if writer.is_closing():
            return  # client went away; nothing to answer
        writer.write(encode_frame(reply))


def build_live_system(
    ns: Namespace,
    cfg: SystemConfig,
    runtime: AsyncRuntime,
    wire: AsyncWire,
    owner: Optional[Sequence[int]] = None,
    host_sids: Optional[Sequence[int]] = None,
    stats: Optional[StatsSink] = None,
) -> LiveSystem:
    """Wire the peers hosted by this process onto a live runtime.

    Identical construction path to :func:`repro.cluster.builder
    .build_system` -- same owner resolution, same peer population
    (digests, pins, heterogeneity, bootstrap draws) -- but peers hang
    off an :class:`AsyncRuntime` and register with the framed wire.

    Args:
        host_sids: the sids this process hosts (default: all of them).
    """
    if cfg.oracle_maps:
        raise ValueError(
            "oracle_maps reads ground-truth peer state across the "
            "cluster; it cannot run over a real wire"
        )
    owner_list = _resolve_owner(ns, cfg, owner)
    system = LiveSystem(ns, cfg, runtime, wire, owner_list, stats=stats)
    sids = list(host_sids) if host_sids is not None else list(range(cfg.n_servers))
    _populate_system(system, owner_list, sids)
    runtime.wire = wire
    return system
