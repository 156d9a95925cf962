"""A message's declaration decides how peers handle and count it.

``Peer.deliver`` finds a wire class's handler by name (``_on_`` plus
the snake_case class name without a trailing ``Message``), and every
transport counts a class in ``n_control_sent`` or ``n_sent`` by
``repro.net.message.CONTROL_TYPES``.  The tables below are the whole
contract, one row per class of ``WIRE_TYPES``.
"""

import pytest

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree
from repro.net.message import (
    CONTROL_TYPES,
    WIRE_TYPES,
    AdvertMessage,
    ClientLookup,
    ClientLookupReply,
    DataReply,
    DataRequest,
    ProbeMessage,
    ProbeReplyMessage,
    QueryMessage,
    ResponseMessage,
    TransferAckMessage,
    TransferMessage,
)
from repro.net.transport import ShardTransport, Transport
from repro.server import peer as peer_mod
from repro.server.peer import Peer, UnknownMessageError
from repro.sim.engine import Engine
from tests.test_frame import corpus_messages
from tests.test_wire_links import bare_wire, in_sock_dir, until

#: wire class -> the ``Peer`` method it reaches, or the error it raises
HANDLED = {
    QueryMessage: "_on_query",
    ResponseMessage: "_on_response",
    AdvertMessage: "_on_advert",
    ProbeMessage: "_on_probe",
    ProbeReplyMessage: "_on_probe_reply",
    TransferMessage: "_on_transfer",
    TransferAckMessage: "_on_transfer_ack",
    DataRequest: "_on_data_request",
    DataReply: "_on_data_reply",
    ClientLookup: UnknownMessageError,
    ClientLookupReply: UnknownMessageError,
}

#: the replication protocol's traffic, counted apart from queries
CONTROL = {
    AdvertMessage, ProbeMessage, ProbeReplyMessage, TransferMessage,
    TransferAckMessage,
}


def make_system(n_servers=4):
    cfg = SystemConfig.replicated(
        n_servers=n_servers, seed=3, bootstrap_known_peers=0
    )
    return build_system(balanced_tree(levels=4), cfg)


def one_of_each():
    msgs = {type(m): m for m in corpus_messages()}
    assert set(msgs) == set(WIRE_TYPES.values())
    return list(msgs.values())


class TestPeerDispatch:
    def test_every_wire_class_reaches_its_handler(self, monkeypatch):
        assert set(HANDLED) == set(WIRE_TYPES.values())
        calls = []
        for name in [n for n in vars(Peer) if n.startswith("_on_")]:
            monkeypatch.setattr(
                Peer, name, lambda self, msg, _n=name: calls.append((_n, msg))
            )
        peer = make_system().peers[1]
        for msg in one_of_each():
            want = HANDLED[type(msg)]
            calls.clear()
            if want is UnknownMessageError:
                with pytest.raises(UnknownMessageError,
                                   match=type(msg).__name__):
                    peer.deliver(msg)
                assert calls == []
            else:
                peer.deliver(msg)
                assert calls == [(want, msg)], type(msg).__name__

    def test_registry_covers_every_wire_message(self):
        # the derived table names a method for every declared class;
        # the client plane's names are the ones no peer defines
        names = peer_mod._HANDLER_NAMES
        assert set(names) == set(WIRE_TYPES.values())
        for cls, want in HANDLED.items():
            if isinstance(want, str):
                assert names[cls] == want
            else:
                assert not hasattr(Peer, names[cls])

    def test_deliver_unknown_message_type_raises(self):
        class Bogus:
            pass

        with pytest.raises(UnknownMessageError, match="Bogus"):
            make_system().peers[0].deliver(Bogus())

    def test_a_failed_peer_drops_its_traffic(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            Peer, "_on_probe", lambda self, msg: calls.append(msg)
        )
        peer = make_system().peers[0]
        peer.failed = True
        peer.deliver(ProbeMessage(1, 2, 0.5))
        peer.deliver(ClientLookup(1, 2))  # not even an unknown type raises
        assert calls == []

    def test_no_isinstance_chain_left_in_peer(self):
        import inspect

        src = inspect.getsource(peer_mod)
        assert "isinstance(msg" not in src


class TestRegistry:
    """The class -> handler table, derived from ``WIRE_TYPES``."""

    def test_string_handler_dispatches_via_attribute(self):
        # the name resolves through normal attribute lookup, so a
        # subclass overrides a handler by overriding the method
        class Recording(Peer):
            __slots__ = ("seen",)

            def _on_probe(self, msg):
                self.seen.append(msg)

        system = make_system()
        peer = Recording(9, system)
        peer.seen = []
        msg = ProbeMessage(1, 2, 0.5)
        peer.deliver(msg)
        assert peer.seen == [msg]

    def test_bind_snapshots_current_handlers(self, monkeypatch):
        peer = make_system().peers[0]
        calls = []
        # a handler patched onto the class after construction does not
        # reach an existing peer: each peer binds its handlers once
        monkeypatch.setattr(
            Peer, "_on_advert", lambda self, msg: calls.append(msg)
        )
        peer.deliver(AdvertMessage(3, [1]))
        assert calls == []
        make_system().peers[0].deliver(AdvertMessage(3, [1]))
        assert len(calls) == 1

    def test_unknown_message_raises(self):
        peer = make_system().peers[2]
        with pytest.raises(UnknownMessageError, match="peer 2") as info:
            peer.deliver(ClientLookupReply(1, 2, True))
        assert "ClientLookupReply" in str(info.value)

    def test_unknown_message_error_is_a_type_error(self):
        # callers that guarded the old isinstance chain with TypeError
        # keep working
        assert issubclass(UnknownMessageError, TypeError)

    def test_introspection(self):
        # the naming rule, on names with and without the suffix
        name = peer_mod._handler_name
        assert name(TransferAckMessage) == "_on_transfer_ack"
        assert name(DataRequest) == "_on_data_request"
        assert name(QueryMessage) == "_on_query"


# ----------------------------------------------------------------------
# counting: control traffic or query traffic, by class
# ----------------------------------------------------------------------

def counts_per_class(send, counters):
    """``{class: "control" | "query"}`` from one send of each class."""
    got = {}
    for msg in one_of_each():
        before = counters()
        send(msg)
        after = counters()
        delta = (after[0] - before[0], after[1] - before[1])
        assert delta in ((1, 0), (0, 1)), type(msg).__name__
        got[type(msg)] = "query" if delta == (1, 0) else "control"
    return got


def expected_counts():
    return {
        cls: "control" if cls in CONTROL else "query"
        for cls in WIRE_TYPES.values()
    }


class TestControlCounting:
    def test_transport(self):
        eng = Engine()
        tr = Transport(eng, net_delay=0.01)
        tr.register(0, lambda m: None)
        got = counts_per_class(
            lambda m: tr.send(0, m), lambda: (tr.n_sent, tr.n_control_sent)
        )
        assert got == expected_counts()
        eng.run()

    def test_shard_transport(self):
        # shard 0 of two: the first send stays local, the second crosses
        tr = ShardTransport(
            Engine(), 0.01, shard_id=0, n_shards=2, n_servers=4
        )
        tr.register(0, lambda m: None)
        for dest in (0, 3):
            got = counts_per_class(
                lambda m: tr.send(dest, m),
                lambda: (tr.n_sent, tr.n_control_sent),
            )
            assert got == expected_counts()

    def test_two_peer_async_wire(self):
        async def body(addresses):
            a, _ = await bare_wire(addresses, 0)
            b, inbox = await bare_wire(addresses, 1)
            got = counts_per_class(
                lambda m: a.send(1, m), lambda: (a.n_sent, a.n_control_sent)
            )
            # one ClientLookup goes to the (absent) client plane
            await until(lambda: len(inbox[1]) == len(WIRE_TYPES) - 1)
            assert b.n_frame_errors == 0
            for wire in (a, b):
                await wire.close()
            return got

        assert in_sock_dir(body, n=2) == expected_counts()

    def test_the_declaration_is_the_control_set(self):
        assert CONTROL_TYPES == CONTROL
        assert CONTROL_TYPES <= set(WIRE_TYPES.values())
