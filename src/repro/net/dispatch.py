"""Typed message dispatch: a message-class -> handler registry.

Replaces hand-rolled ``isinstance``/``__class__`` chains at transport
endpoints.  A :class:`DispatchRegistry` maps concrete message classes
to handlers; an endpoint binds the registry once against itself and
then dispatches every inbound message through a plain dict lookup --
the same cost as the class-comparison chain it replaces, but open for
extension (new message types register themselves) and override (a
later registration for the same class wins, so tests and alternative
endpoints can swap individual handlers).

Handlers are registered either as callables ``handler(target, msg)``
or as attribute names looked up on the target at bind time -- the name
form resolves through normal attribute lookup, so subclasses of the
target override a handler simply by overriding the method.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple, Union

Handler = Union[str, Callable[[Any, Any], None]]
BoundHandler = Callable[[Any], None]


class UnknownMessageError(TypeError):
    """Raised when a message type has no registered handler."""


class DispatchRegistry:
    """Maps message classes to handlers for a transport endpoint.

    Lookup is by exact class (no subclass walking): message types are
    flat, final structs, and exactness keeps dispatch a single dict
    probe on the hot path.
    """

    __slots__ = ("name", "_handlers")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._handlers: Dict[type, Handler] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register(
        self, msg_type: type, handler: Optional[Handler] = None
    ) -> Callable[..., Any]:
        """Register ``handler`` for ``msg_type`` (last registration wins).

        ``handler`` is a callable ``(target, msg)`` or the name of a
        target attribute taking ``(msg)``.  With ``handler`` omitted
        this is usable as a decorator::

            @registry.register(QueryMessage)
            def _on_query(target, msg): ...
        """
        if not isinstance(msg_type, type):
            raise TypeError(f"msg_type must be a class, got {msg_type!r}")
        if handler is None:
            def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
                self._handlers[msg_type] = fn
                return fn
            return decorator
        if not (isinstance(handler, str) or callable(handler)):
            raise TypeError(
                f"handler must be a callable or attribute name, got {handler!r}"
            )
        self._handlers[msg_type] = handler
        return handler

    # ------------------------------------------------------------------
    # lookup and dispatch
    # ------------------------------------------------------------------

    def handler_for(self, msg_type: type) -> Handler:
        """The registered handler for ``msg_type``.

        Raises:
            UnknownMessageError: no handler is registered.
        """
        try:
            return self._handlers[msg_type]
        except KeyError:
            raise UnknownMessageError(
                f"no handler registered for message type "
                f"{msg_type.__name__}"
                + (f" in registry {self.name!r}" if self.name else "")
            ) from None

    def dispatch(self, target: Any, msg: Any) -> None:
        """Route one message to its handler on ``target``."""
        handler = self.handler_for(msg.__class__)
        if isinstance(handler, str):
            getattr(target, handler)(msg)
        else:
            handler(target, msg)

    def bind(self, target: Any) -> Dict[type, BoundHandler]:
        """Snapshot ``{message class: bound handler}`` for ``target``.

        The returned dict is what endpoints keep for hot-path delivery:
        one dict probe plus one call per message, no registry overhead.
        Later registry changes do not affect existing bindings.
        """
        bound: Dict[type, BoundHandler] = {}
        for msg_type, handler in self._handlers.items():
            if isinstance(handler, str):
                bound[msg_type] = getattr(target, handler)
            else:
                # freeze the loop variable per entry
                def _call(
                    msg: Any, _h: Callable[..., Any] = handler, _t: Any = target
                ) -> None:
                    _h(_t, msg)
                bound[msg_type] = _call
        return bound

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def types(self) -> Tuple[type, ...]:
        return tuple(self._handlers)

    def __contains__(self, msg_type: type) -> bool:
        return msg_type in self._handlers

    def __len__(self) -> int:
        return len(self._handlers)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"DispatchRegistry({label.strip()} "
            f"types={[t.__name__ for t in self._handlers]})"
        )
