"""The TerraDir client: the application API on top of one home server.

Implements the access model of paper section 2.1:

* ``lookup(name)`` -- resolve a name to meta-data version + host map;
* ``retrieve(name)`` -- the two-step process: a lookup followed by the
  actual data retrieval from one of the mapped servers (with redirect
  handling, since routing replicas do not export data);
* ``search(root, ...)`` -- a complex query decomposed hierarchically
  into individual lookups over a subtree, whose results are aggregated
  and optionally filtered by meta-data predicates at the client.

All operations are asynchronous (they return
:class:`~repro.client.results.Future`); ``wait`` drives the simulation
until completion, which is what examples and tests use.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.client.results import (
    Future,
    LookupResult,
    RetrievalResult,
    SearchResult,
)
from repro.cluster.system import System
from repro.net.message import DataRequest


class TerraDirClient:
    """A client application attached to one (home) server."""

    def __init__(
        self,
        system: System,
        home_server: int,
        lookup_timeout: float = 10.0,
        retrieve_attempts: int = 3,
        lookup_retries: int = 0,
    ) -> None:
        if not 0 <= home_server < len(system.peers):
            raise ValueError(f"no server {home_server}")
        if lookup_timeout <= 0:
            raise ValueError("lookup_timeout must be > 0")
        if lookup_retries < 0:
            raise ValueError("lookup_retries must be >= 0")
        self.system = system
        self.home = system.peers[home_server]
        self.lookup_timeout = lookup_timeout
        self.retrieve_attempts = retrieve_attempts
        self.lookup_retries = lookup_retries
        # hot-path plumbing, bound once: the per-lookup timeout goes
        # through the runtime's cancel-cheap timer path (under the
        # simulator, the timer-wheel -- keeps the engine heap free of
        # dead timeout entries), and sink hooks are cached so each
        # recording is one call, not an attribute chain
        self._rt = system.runtime
        self._record_lookup = system.stats.record_client_lookup
        self._record_timeout = system.stats.record_client_timeout
        self._record_retry = system.stats.record_client_retry
        self._rid = 0
        self.n_lookups = 0
        self.n_timeouts = 0
        self.n_retries = 0

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def lookup(self, name: str) -> Future:
        """Resolve a fully-qualified name; future yields a LookupResult."""
        node = self.system.ns.id_of(name)
        return self.lookup_node(node)

    def lookup_node(self, node: int) -> Future:
        future = Future()
        self._issue_lookup(node, future, retries_left=self.lookup_retries)
        return future

    def _issue_lookup(self, node: int, future: Future,
                      retries_left: int) -> None:
        """One lookup attempt; a timeout reissues until retries run out.

        Lookups are idempotent (a drop leaves no state to undo), so
        retrying after a timeout is safe and is how a real client masks
        queue drops and failures.
        """
        self.n_lookups += 1
        self._record_lookup(self._rt.now)
        qid = self.system.inject(self.home.sid, node)
        timeout = self._rt.timer_after(
            self.lookup_timeout, self._on_lookup_timeout,
            qid, node, future, retries_left,
        )

        def on_response(resp) -> None:
            timeout.cancel()
            future.resolve(
                LookupResult(
                    node=resp.dest,
                    name=self.system.ns.name_of(resp.dest),
                    servers=list(resp.dest_map),
                    meta_version=resp.meta_version,
                    latency=self._rt.now - resp.created_at,
                    hops=resp.hops,
                )
            )

        self.home.client_hooks[("lookup", qid)] = on_response

    def _on_lookup_timeout(self, qid: int, node: int, future: Future,
                           retries_left: int) -> None:
        self.home.client_hooks.pop(("lookup", qid), None)
        self.n_timeouts += 1
        self._record_timeout(self._rt.now)
        if retries_left > 0:
            self.n_retries += 1
            self._record_retry(self._rt.now)
            self._issue_lookup(node, future, retries_left - 1)
            return
        future.fail("lookup timed out (query dropped or still queued)")

    # ------------------------------------------------------------------
    # two-step retrieval
    # ------------------------------------------------------------------

    def retrieve(self, name: str, want_meta: bool = False) -> Future:
        """Look the name up, then fetch data (or fresh meta) from a host.

        Handles redirects: routing replicas hold no data and answer
        with their map; the client retries up to ``retrieve_attempts``
        servers before failing.
        """
        future = Future()
        lookup_future = self.lookup(name)

        def after_lookup(lf: Future) -> None:
            if not lf.ok:
                future.fail(f"lookup failed: {lf.error}")
                return
            result: LookupResult = lf.value
            candidates = [s for s in result.servers if s != self.home.sid]
            if not candidates and self.home.hosts(result.node):
                # served locally
                self._finish_local_retrieval(future, result, want_meta)
                return
            self._request_data(
                future, result, list(candidates), attempts=0,
                want_meta=want_meta,
            )

        lookup_future.on_done(after_lookup)
        return future

    def _finish_local_retrieval(
        self, future: Future, result: LookupResult, want_meta: bool
    ) -> None:
        peer = self.home
        if result.node in peer.owned:
            meta = peer.metadata.read(result.node).snapshot()
            data = None if want_meta else peer.metadata.get_data(result.node)
            future.resolve(
                RetrievalResult(
                    result.node, result.name, data, meta, peer.sid, 0, result
                )
            )
        else:
            future.fail("home server no longer hosts the node's data")

    def _request_data(
        self,
        future: Future,
        result: LookupResult,
        candidates: List[int],
        attempts: int,
        want_meta: bool,
        tried: Optional[set] = None,
    ) -> None:
        if tried is None:
            tried = set()
        candidates = [s for s in candidates if s not in tried]
        if attempts >= self.retrieve_attempts or not candidates:
            future.fail("no data host reachable from the lookup map")
            return
        target = candidates[0]
        tried.add(target)
        self._rid += 1
        rid = self._rid
        req = DataRequest(rid, result.node, self.home.sid, want_meta=want_meta)

        def on_reply(reply) -> None:
            if reply.meta is not None or reply.data is not None:
                future.resolve(
                    RetrievalResult(
                        result.node, result.name, reply.data, reply.meta,
                        reply.responder, attempts + 1, result,
                    )
                )
                return
            # redirect: merge the responder's map into our candidates
            merged = candidates[1:] + [
                s for s in reply.redirect_map
                if s != self.home.sid and s not in tried
            ]
            self._request_data(
                future, result, merged, attempts + 1, want_meta, tried
            )

        self.home.client_hooks[("data", rid)] = on_reply
        self._rt.send(target, req)

    # ------------------------------------------------------------------
    # hierarchical search
    # ------------------------------------------------------------------

    def search(
        self,
        root: str,
        keyword: Optional[str] = None,
        attribute: Optional[Tuple[str, str]] = None,
        max_nodes: int = 0,
    ) -> Future:
        """Search a subtree, hierarchically decomposed into lookups.

        Every node under ``root`` (inclusive) is resolved individually;
        results are aggregated at the client.  With a ``keyword`` or
        ``attribute`` predicate, fresh meta-data is fetched from each
        resolved node's owner and filtered client-side; without one,
        all resolved names match.

        Args:
            max_nodes: cap on subtree size (0 = unlimited).

        The future yields a :class:`SearchResult`.
        """
        ns = self.system.ns
        root_id = ns.id_of(root)
        nodes = ns.subtree(root_id)
        if max_nodes and len(nodes) > max_nodes:
            nodes = nodes[:max_nodes]
        future = Future()
        result = SearchResult(root)
        pending = {"count": len(nodes)}
        need_meta = keyword is not None or attribute is not None

        def finish_one() -> None:
            pending["count"] -= 1
            if pending["count"] == 0:
                future.resolve(result)

        def make_meta_handler(name: str):
            def on_meta(rf: Future) -> None:
                if rf.ok and rf.value.meta is not None and rf.value.meta.matches(
                    keyword, attribute
                ):
                    result.matches.append(name)
                finish_one()

            return on_meta

        def make_lookup_handler(node: int, name: str):
            def on_lookup(lf: Future) -> None:
                if not lf.ok:
                    result.failed.append(name)
                    finish_one()
                    return
                result.resolved[name] = lf.value
                if not need_meta:
                    result.matches.append(name)
                    finish_one()
                    return
                self.retrieve(name, want_meta=True).on_done(
                    make_meta_handler(name)
                )

            return on_lookup

        if not nodes:
            future.resolve(result)
            return future
        for node in nodes:
            name = ns.name_of(node)
            self.lookup_node(node).on_done(make_lookup_handler(node, name))
        return future

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------

    def wait(self, future: Future, timeout: float = 60.0):
        """Advance the simulation until ``future`` resolves.

        Returns the future's value.

        Raises:
            TimeoutError: the deadline passed without resolution.
            RuntimeError: the operation failed.
        """
        engine = self.system.engine
        deadline = engine.now + timeout
        self.system.start_maintenance()
        while not future.done and engine.now < deadline:
            nxt = engine.peek_time()
            if nxt is None:
                break
            engine.run(until=min(nxt, deadline), max_events=256)
        if not future.done:
            raise TimeoutError("operation did not complete in time")
        if future.error is not None:
            raise RuntimeError(future.error)
        return future.value
