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
  ``failure``), responses as drops too (the client never learns);
* lost replication control messages abandon their session via the
  session timeout;
* recovery restores the server with its soft state intact (its queue
  is cleared -- those requests died with it).
"""

from __future__ import annotations

import logging
import random
from typing import Iterable, List, Optional, Set

from repro.cluster.system import System
from repro.net.message import QueryMessage, ResponseMessage

logger = logging.getLogger("repro.failures")


class FailureInjector:
    """Inject and heal fail-stop server failures in a running system."""

    def __init__(self, system: System) -> None:
        self.system = system
        system.transport.on_lost = self._on_lost
        self.n_failures = 0
        self.n_recoveries = 0

    @property
    def failed(self) -> Set[int]:
        return set(self.system.transport.failed)

    # ------------------------------------------------------------------

    def fail(self, sid: int) -> None:
        """Fail-stop one server."""
        if sid in self.system.transport.failed:
            return
        self.system.transport.fail_server(sid)
        peer = self.system.peers[sid]
        peer.failed = True
        self.n_failures += 1
        logger.info(
            "t=%.3f server %d failed (%d owned nodes, %d replicas)",
            self.system.engine.now, sid, len(peer.owned), len(peer.replicas),
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
        """Bring a failed server back with its soft state intact.

        Its request queue died with it; any interrupted service slot is
        abandoned (the meter is told the service ended at recovery)."""
        if sid not in self.system.transport.failed:
            return
        self.system.transport.recover_server(sid)
        peer = self.system.peers[sid]
        peer.failed = False
        peer.queue.clear()
        if peer.in_service:
            # the in-flight service completion event was suppressed;
            # release the service slot cleanly
            peer.in_service = False
            if peer.meter.busy:
                peer.meter.service_finished(self.system.engine.now)
        self.n_recoveries += 1
        logger.info("t=%.3f server %d recovered",
                    self.system.engine.now, sid)

    def recover_all(self) -> None:
        for sid in list(self.system.transport.failed):
            self.recover(sid)

    # ------------------------------------------------------------------

    def _on_lost(self, dest: int, msg) -> None:
        """Account for messages swallowed by a failure."""
        now = self.system.engine.now
        kind = msg.__class__
        if kind is QueryMessage or kind is ResponseMessage:
            # the query can never complete: record it as dropped
            self.system.stats.record_drop(now, "failure")


def unreachable_nodes(system: System) -> List[int]:
    """Nodes whose every host is currently failed (lookup black holes)."""
    failed = system.transport.failed
    out = []
    for node in range(len(system.ns)):
        hosts = [p.sid for p in system.peers if p.hosts(node)]
        if hosts and all(h in failed for h in hosts):
            out.append(node)
    return out
