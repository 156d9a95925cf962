"""Fail-stop server failures and recovery.

The paper's fault-tolerance story is indirect but explicit (section
3.1): replication is driven by load, and "hosting servers for nodes
with failed replicas will incur more load after failure than before,
and will replicate again to meet new load conditions."  Caches likewise
let routing "jump over namespace partitions induced by network
failures" (section 2.4).

:class:`FailureInjector` implements the fail-stop model needed to
exercise those claims:

* a failed server neither receives nor sends -- all messages addressed
  to it (including ones already in flight) are lost;
* queries lost to a failure are accounted as drops (reason
  ``failure``): those queued or in service when it fails, those
  injected at it while it is down and those sent to it; responses
  count as drops too (the client never learns).  The injector tallies
  the ones it sees by cause in :attr:`FailureInjector.drops`;
* lost replication control messages abandon their session via the
  session timeout;
* recovery restores the server with its soft state intact and an
  empty request queue.
"""

from __future__ import annotations

import logging
import random
from collections import Counter
from typing import Any, Iterable, List, Optional, Set

from repro.cluster.system import System
from repro.net.message import QueryMessage, ResponseMessage

logger = logging.getLogger("repro.failures")


class FailureInjector:
    """Inject and heal fail-stop server failures in a running system.

    Failures are serial-only: the serial :class:`System` re-homes a
    lookup drawn at a failed server, a shard or live system does not,
    and a shard's transport cannot fail a server of another shard.  So
    any system but the serial one is refused with a ``ValueError``.
    """

    def __init__(self, system: System) -> None:
        if type(system) is not System:
            raise ValueError(
                f"failures are serial-only: FailureInjector cannot drive "
                f"a {type(system).__name__}"
            )
        self.system = system
        system.transport.on_lost = self._on_lost
        self.n_failures = 0
        #: the ``failure`` drops accounted here, by cause: ``queued`` at
        #: a server when it failed, a ``response`` lost, a forward lost
        #: while a live server hosted its ``via`` node
        #: (``forward_live_via``) or while none did
        #: (``forward_dead_via``).  Lookups injected at a failed server
        #: are the rest (``Peer.inject`` records them; ``System.inject``
        #: sends a lookup there only when every server has failed).
        self.drops: Counter = Counter()

    @property
    def failed(self) -> Set[int]:
        return set(self.system.transport.failed)

    # ------------------------------------------------------------------

    def fail(self, sid: int) -> None:
        """Fail-stop one server: its queued requests and the one in
        service die with it, each recorded as a ``failure`` drop."""
        if sid in self.system.transport.failed:
            return
        self.system.transport.fail_server(sid)
        peer = self.system.peers[sid]
        peer.failed = True
        now = self.system.engine.now
        queued = peer.ingress.clear()
        for _ in range(queued):
            self.system.stats.record_drop(now, "failure")
        self.drops["queued"] += queued
        if peer.meter.busy:
            peer.meter.service_finished(now)
        self.n_failures += 1
        logger.info(
            "t=%.3f server %d failed (%d owned nodes, %d replicas)",
            now, sid, len(peer.owned_nodes()), len(peer.store.replicas),
        )

    def fail_random(self, count: int, rng: Optional[random.Random] = None,
                    protect: Iterable[int] = ()) -> List[int]:
        """Fail ``count`` random live servers (never those in ``protect``)."""
        rng = rng or random.Random(0)
        protected = set(protect)
        alive = [
            p.sid for p in self.system.peers
            if p.sid not in self.system.transport.failed
            and p.sid not in protected
        ]
        victims = rng.sample(alive, min(count, len(alive)))
        for sid in victims:
            self.fail(sid)
        return victims

    def recover(self, sid: int) -> None:
        """Bring a failed server back with its soft state intact (its
        requests were dropped when it failed)."""
        if sid not in self.system.transport.failed:
            return
        self.system.transport.recover_server(sid)
        self.system.peers[sid].failed = False
        logger.info("t=%.3f server %d recovered",
                    self.system.engine.now, sid)

    def recover_all(self) -> None:
        for sid in list(self.system.transport.failed):
            self.recover(sid)

    # ------------------------------------------------------------------

    def _on_lost(self, dest: int, msg: Any) -> None:
        """Account for messages swallowed by a failure."""
        kind = msg.__class__
        if kind is ResponseMessage:
            self.drops["response"] += 1
        elif kind is QueryMessage:
            via = msg.via
            live = any(p.hosts(via) for p in self.system.peers if not p.failed)
            self.drops["forward_live_via" if live else "forward_dead_via"] += 1
        else:
            return
        # the query can never complete: record it as dropped
        self.system.stats.record_drop(self.system.engine.now, "failure")


def unreachable_nodes(system: System) -> List[int]:
    """Nodes whose every host is currently failed (lookup black holes)."""
    failed = system.transport.failed
    out = []
    for node in range(len(system.ns)):
        hosts = [p.sid for p in system.peers if p.hosts(node)]
        if hosts and all(h in failed for h in hosts):
            out.append(node)
    return out
