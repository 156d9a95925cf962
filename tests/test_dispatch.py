"""Unit tests for the typed message-dispatch registry and its use as
the peer's delivery seam."""

import pytest

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree
from repro.net.dispatch import DispatchRegistry, UnknownMessageError
from repro.net.message import (
    AdvertMessage,
    DataReply,
    DataRequest,
    ProbeMessage,
    ProbeReplyMessage,
    QueryMessage,
    ResponseMessage,
    TransferAckMessage,
    TransferMessage,
)
from repro.server.peer import PEER_DISPATCH


class MsgA:
    pass


class MsgB:
    pass


class Target:
    def __init__(self):
        self.log = []

    def on_a(self, msg):
        self.log.append(("a", msg))


class TestRegistry:
    def test_string_handler_dispatches_via_attribute(self):
        reg = DispatchRegistry("t")
        reg.register(MsgA, "on_a")
        t = Target()
        m = MsgA()
        reg.dispatch(t, m)
        assert t.log == [("a", m)]

    def test_callable_handler_receives_target_and_msg(self):
        reg = DispatchRegistry()
        seen = []
        reg.register(MsgA, lambda target, msg: seen.append((target, msg)))
        t, m = Target(), MsgA()
        reg.dispatch(t, m)
        assert seen == [(t, m)]

    def test_decorator_registration(self):
        reg = DispatchRegistry()

        @reg.register(MsgA)
        def _on_a(target, msg):
            target.log.append(("deco", msg))

        t, m = Target(), MsgA()
        reg.dispatch(t, m)
        assert t.log == [("deco", m)]

    def test_unknown_message_raises(self):
        reg = DispatchRegistry("named")
        reg.register(MsgA, "on_a")
        with pytest.raises(UnknownMessageError, match="MsgB"):
            reg.dispatch(Target(), MsgB())
        with pytest.raises(UnknownMessageError, match="named"):
            reg.handler_for(MsgB)

    def test_unknown_message_error_is_a_type_error(self):
        # callers that guarded the old isinstance chain with TypeError
        # keep working
        assert issubclass(UnknownMessageError, TypeError)

    def test_last_registration_wins(self):
        reg = DispatchRegistry()
        reg.register(MsgA, "on_a")
        reg.register(MsgA, lambda target, msg: target.log.append("override"))
        t = Target()
        reg.dispatch(t, MsgA())
        assert t.log == ["override"]

    def test_bind_snapshots_current_handlers(self):
        reg = DispatchRegistry()
        reg.register(MsgA, "on_a")
        t = Target()
        bound = reg.bind(t)
        # later registry changes do not affect the existing binding
        reg.register(MsgA, lambda target, msg: target.log.append("late"))
        m = MsgA()
        bound[MsgA](m)
        assert t.log == [("a", m)]

    def test_rejects_non_class_and_bad_handler(self):
        reg = DispatchRegistry()
        with pytest.raises(TypeError):
            reg.register("not-a-class", "on_a")
        with pytest.raises(TypeError):
            reg.register(MsgA, 42)

    def test_introspection(self):
        reg = DispatchRegistry("r")
        reg.register(MsgA, "on_a")
        reg.register(MsgB, "on_b")
        assert set(reg.types()) == {MsgA, MsgB}
        assert len(reg) == 2
        assert "MsgA" in repr(reg)


class TestPeerDispatch:
    def make(self):
        ns = balanced_tree(levels=4)
        cfg = SystemConfig.replicated(
            n_servers=4, seed=3, bootstrap_known_peers=0
        )
        return ns, build_system(ns, cfg)

    def test_registry_covers_every_wire_message(self):
        for mt in (
            QueryMessage, ResponseMessage, ProbeMessage, ProbeReplyMessage,
            TransferMessage, TransferAckMessage, AdvertMessage,
            DataRequest, DataReply,
        ):
            assert mt in PEER_DISPATCH

    def test_deliver_unknown_message_type_raises(self):
        ns, system = self.make()

        class Bogus:
            pass

        with pytest.raises(UnknownMessageError):
            system.peers[0].deliver(Bogus())

    def test_no_isinstance_chain_left_in_peer(self):
        import inspect

        import repro.server.peer as peer_mod

        src = inspect.getsource(peer_mod)
        assert "isinstance(msg" not in src
