"""The adaptive replication protocol (paper section 3).

Each peer owns one :class:`ReplicationManager` which implements:

* **Trigger** -- after every processed query the peer checks its load;
  above the high-water threshold ``l_high`` it opens a load-balancing
  session (at most one concurrent session per server).
* **Partner selection** -- among servers it knows about (load samples
  piggybacked on query traffic), pick the one with minimum *believed*
  load, probe it for its *actual* load, and require a gap of at least
  ``delta_min`` before shipping replicas.
* **What to ship** -- the smallest top-ranked set of hosted nodes whose
  weight fraction reaches ``(ls - lt) / (2 ls)`` -- the fraction that
  would equalise the two loads if demand followed the weights.
* **Hysteresis** -- both parties immediately book the ideal post-
  transfer loads (``ls,lt -> (ls+lt)/2``) so replication does not
  thrash before measured windows catch up.
* **Retry/back-off** -- a failed probe tries the next candidate, up to
  ``max_attempts``; then the session aborts and a new one may start
  after ``session_backoff``.
* **Replica admission at the target** -- accept when the load gap holds;
  installing beyond the replication-factor cap ``rfact * |owned|``
  evicts the target's lowest-ranked replicas first (section 3.5).

Control messages bypass the request queue and are counted separately;
the paper's claim that they are at least two orders of magnitude rarer
than queries is validated in the test suite.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, List, Optional, Set

if TYPE_CHECKING:
    from repro.server.peer import Peer

logger = logging.getLogger("repro.replication")

from repro.net.message import (
    ProbeMessage,
    ProbeReplyMessage,
    TransferAckMessage,
    TransferMessage,
)

#: minimum gap between successful sessions, seconds
SUCCESS_COOLDOWN = 0.05


class _Session:
    """State of one in-flight load-balancing session at its initiator."""

    __slots__ = ("sid", "attempts", "tried", "target", "awaiting", "timer")

    def __init__(self, sid: int) -> None:
        self.sid = sid
        self.attempts = 0
        self.tried: Set[int] = set()
        self.target = -1
        self.awaiting = ""  # "probe_reply" | "ack"
        self.timer = None  # runtime cancel handle for the liveness timeout


class ReplicationManager:
    """Per-peer replica and mapping management engine."""

    __slots__ = (
        "peer",
        "cfg",
        "_session",
        "_next_session_id",
        "next_allowed",
        "n_sessions",
        "n_sessions_aborted",
        "n_replicas_shipped",
        "n_replicas_installed",
        "n_replicas_evicted",
    )

    def __init__(self, peer: "Peer") -> None:
        self.peer = peer
        self.cfg = peer.cfg
        self._session: Optional[_Session] = None
        self._next_session_id = 0
        self.next_allowed = 0.0
        self.n_sessions = 0
        self.n_sessions_aborted = 0
        self.n_replicas_shipped = 0
        self.n_replicas_installed = 0
        self.n_replicas_evicted = 0

    # ------------------------------------------------------------------
    # trigger (creation protocol step 1)
    # ------------------------------------------------------------------

    def maybe_trigger(self, now: float) -> bool:
        """Open a session if overloaded; returns True when one was opened."""
        if not self.cfg.replication_enabled:
            return False
        if self._session is not None or now < self.next_allowed:
            return False
        if self.peer.meter.load() <= self.threshold():
            return False
        return self._start_session(now)

    def threshold(self) -> float:
        """The effective high-water threshold.

        Fixed (``cfg.l_high``) by default; with ``cfg.l_high_auto`` it
        is proportional to the server's local estimate of overall
        system utilisation (own load + in-band samples), the automatic
        policy the paper suggests in section 3.1.
        """
        cfg = self.cfg
        if not cfg.l_high_auto:
            return cfg.l_high
        peer = self.peer
        total = peer.meter.load()
        count = 1
        for load, _t in peer.known_loads.values():
            total += load
            count += 1
        estimate = total / count
        return min(0.95, max(cfg.l_high_floor, cfg.l_high_factor * estimate))

    def _start_session(self, now: float) -> bool:
        self._next_session_id += 1
        session = _Session(self._next_session_id)
        self._session = session
        self.n_sessions += 1
        logger.debug(
            "t=%.3f server %d opens session %d (load %.2f)",
            now, self.peer.sid, session.sid, self.peer.meter.load(),
        )
        return self._probe_next(now)

    # ------------------------------------------------------------------
    # partner selection (step 2) and retries (step 5)
    # ------------------------------------------------------------------

    def _probe_next(self, now: float) -> bool:
        """Probe the minimum-believed-load untried candidate."""
        session = self._session
        assert session is not None
        peer = self.peer
        candidate = -1
        best_load = float("inf")
        for server, (load, _t) in peer.known_loads.items():
            if server == peer.sid or server in session.tried:
                continue
            if load < best_load:
                best_load = load
                candidate = server
        if candidate < 0:
            self._abort(now)
            return False
        session.attempts += 1
        session.tried.add(candidate)
        session.target = candidate
        session.awaiting = "probe_reply"
        self._arm_timeout(session)
        peer.rt.send(
            candidate,
            ProbeMessage(session.sid, peer.sid, peer.meter.load()),
        )
        return True

    def _arm_timeout(self, session: "_Session") -> None:
        """(Re)arm the liveness timeout: a lost probe/transfer/ack (e.g.
        the partner failed) must not leave the session dangling."""
        if session.timer is not None:
            session.timer.cancel()
        session.timer = self.peer.rt.schedule_after(
            self.cfg.session_timeout, self._on_session_timeout, session.sid,
            handle=True,
        )

    def _on_session_timeout(self, session_id: int) -> None:
        session = self._session
        if session is not None and session.sid == session_id:
            self._abort(self.peer.rt.now)

    def _abort(self, now: float) -> None:
        if self._session is not None:
            logger.debug(
                "t=%.3f server %d aborts session %d after %d attempts",
                now, self.peer.sid, self._session.sid,
                self._session.attempts,
            )
            if self._session.timer is not None:
                self._session.timer.cancel()
        self._session = None
        self.n_sessions_aborted += 1
        self.next_allowed = now + self.cfg.session_backoff

    # ------------------------------------------------------------------
    # target side
    # ------------------------------------------------------------------

    def on_probe(self, msg: ProbeMessage, now: float) -> None:
        """Candidate target answering with its actual load and willingness."""
        peer = self.peer
        my_load = peer.meter.load()
        willing = (msg.src_load - my_load) >= self.cfg.delta_min
        peer.known_loads[msg.src] = (msg.src_load, now)
        peer.rt.send(
            msg.src,
            ProbeReplyMessage(msg.session, peer.sid, my_load, willing),
        )

    def on_transfer(self, msg: TransferMessage, now: float) -> None:
        """Install shipped replicas, evicting per Rfact if needed (section 3.5)."""
        peer = self.peer
        installed: List[int] = []
        for payload in msg.payloads:
            if peer.hosts(payload.node):
                # already hosting: merge mapping knowledge only
                peer.merge_map(payload.node, payload.node_map)
                installed.append(payload.node)
                continue
            evicted = self._make_room(now)
            peer.store.install(payload, now)
            self.n_replicas_installed += 1
            self.n_replicas_evicted += evicted
            installed.append(payload.node)
        # hysteresis: book the targeted post-transfer load increase
        if self.cfg.hysteresis_enabled and installed:
            peer.meter.apply_adjustment(msg.load_delta)
        peer.rt.send(
            msg.src, TransferAckMessage(msg.session, peer.sid, installed)
        )

    def _make_room(self, now: float) -> int:
        """Evict lowest-ranked replicas until one more fits under Rfact."""
        peer = self.peer
        cap = self.replica_capacity()
        evicted = 0
        replicas = peer.store.replicas
        while len(replicas) >= cap and replicas:
            victims = peer.ranking.bottom(1, among=replicas.keys())
            if not victims:
                break
            peer.store.evict(victims[0], now)
            evicted += 1
        return evicted

    def replica_capacity(self) -> int:
        """Maximum replicas this server hosts: ``max(1, rfact * |owned|)``.

        Uses the *peer's* replication factor -- a locally enforced
        policy the paper allows to differ across servers (section 3.4).
        """
        return max(1, int(self.peer.rfact * len(self.peer.owned)))

    # ------------------------------------------------------------------
    # source side (steps 3 and 4)
    # ------------------------------------------------------------------

    def on_probe_reply(self, msg: ProbeReplyMessage, now: float) -> None:
        session = self._session
        if session is None or session.sid != msg.session:
            return  # stale reply from an aborted session
        if session.awaiting != "probe_reply" or msg.src != session.target:
            return
        peer = self.peer
        peer.known_loads[msg.src] = (msg.load, now)
        ls = peer.meter.load()
        lt = msg.load
        if msg.willing and (ls - lt) >= self.cfg.delta_min:
            self._ship(session, ls, lt, now)
            return
        if session.attempts >= self.cfg.max_attempts:
            self._abort(now)
        else:
            self._probe_next(now)

    def _ship(self, session: _Session, ls: float, lt: float, now: float) -> None:
        """Creation step 3: ship the smallest top-ranked node set whose
        weight covers ``(ls - lt) / (2 ls)`` of the total."""
        peer = self.peer
        fraction = (ls - lt) / (2.0 * ls) if ls > 0 else 0.0
        nodes = peer.ranking.top_k_for_fraction(
            fraction, among=peer.store.hosted_list
        )
        payloads = [peer.store.build_payload(v) for v in nodes]
        payloads = [p for p in payloads if p is not None]
        if not payloads:
            self._abort(now)
            return
        delta = (ls - lt) / 2.0
        if self.cfg.hysteresis_enabled:
            peer.meter.apply_adjustment(-delta)
        msg = TransferMessage(session.sid, peer.sid, payloads, load_delta=delta)
        session.awaiting = "ack"
        self._arm_timeout(session)
        self.n_replicas_shipped += len(payloads)
        peer.rt.send(session.target, msg)

    def on_ack(self, msg: TransferAckMessage, now: float) -> None:
        session = self._session
        if session is None or session.sid != msg.session:
            return
        if session.awaiting != "ack" or msg.src != session.target:
            return
        peer = self.peer
        for node in msg.installed:
            peer.store.note_created(node, msg.src, now)
        logger.debug(
            "t=%.3f server %d session %d: %d replicas installed on %d",
            now, peer.sid, msg.session, len(msg.installed), msg.src,
        )
        if session.timer is not None:
            session.timer.cancel()
        self._session = None
        self.next_allowed = now + SUCCESS_COOLDOWN

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def in_session(self) -> bool:
        return self._session is not None
